"""Config-driven sweep runner.

A config is a JSON object:

    {
      "manifold": {"kind": "sphere_zonal", "n": 2, "size": 1.0, "resolution": 256},
      "p_values": [2.0, 3.0],
      "scenarios": [
        {
          "name": "perturbed",
          "initial": {"type": "trivial_plus_mode",
                      "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1},
          "window": {"t0": -12.0, "t1": -1.0},
          "controls": {"dt_max": 0.01, "snapshot_every": 1}
        }
      ],
      "checkers": [
        {"id": "decay", "T_blow": 0.0, "c_cap": 2.0},
        {"id": "positivity"}
      ],
      "seed": 0
    }

Initial-data recipes: "constant" (value), "trivial_plus_mode" (T_blow,
t_start, eps, mode; 0 <= eps < 1, a closed kind of at most 4096 nodes, mode
below the resolution, t_start before T_blow), "talenti" (radial static
profile, n >= 3; computed once, at validation), "random_uniform" (low,
high; drawn from the config seed), "custom" (path to a file of
whitespace-separated values, one per node; validation reads it, and the run
uses the values read then).

``validate_config`` parses the config once and returns what the sweep runs:
the built manifold, each scenario as a record (recipe build, parsed values,
window, EvolveControls) and each checker as its id plus the keyword
arguments of its check_* function (EstimateParams included), so values a
checker or the controls refuse, and recipe preconditions that need no
trajectory, are config errors.  The runner only executes these records and
reads no raw config dict; validation also computes the config hash.

The sweep runs every scenario at every p (cardinality = len(scenarios) *
len(p_values)); the entries are listed in that order, each run on the one
manifold that validation built, and no entry reads another's results.  A
failing scenario is recorded and never disturbs the others.  The report is
written even when checks fail: failures are the interesting output.
Everything in the report except the "timing" block is a pure function of
the config.  The config hash is the sha256 of the canonicalized
(key-sorted, compact) JSON text followed by the sha256 of each custom
file's bytes, so a config without one hashes its text alone.  A key the
schema above does not name, at any level, is a config error.

Each check writes its per-snapshot rows (t, lhs, structural rhs, ratio) once,
to the entry CSV ``<entry>_<checker>.csv`` beside the report.  The report
keeps only the check's scalars (inequality_id, c_fit, c_cap, passed,
diagnostics, status) plus ``csv``, that file's name, ``rows``, its number of
data rows, and ``sha256``, the digest of its bytes.  ``emit_plot_data`` copies
those rows behind each entry's scenario and p, from the directory the report
was written to or read from, and refuses an entry CSV whose digest differs:
entry CSV names carry no config hash, so a later run into the same directory
may have written over it.

The runner starts ``jobs`` workers once (_workers.Workers, forked where
there is more than one job), and worker w runs entries w, w + jobs,
w + 2 jobs, ... in order: ``_run_entry`` evolves each entry of its share,
runs its checks, writes its entry CSVs into the workers' private directory
beside the report, sets each record's ``sha256`` and ``rows`` from the
bytes it wrote, and pickles the entry to ``<i>.pkl`` there; each worker
computes the spectrum an entry reads for itself.  Once every worker is done,
the runner loads the entries in order, writes the report into the private
directory and publishes it with the entry CSVs (``Workers.publish``); the
bytes do not depend on the job count.  Entry names must be distinct, so
two p values may not share their ``{p:g}`` text.

``_RECIPES`` and ``_CHECKERS`` are the one place recipe types and checker
ids live, and their entries have one shape (``_Entry``): the config fields
the recipe or checker reads, which of them are required, a bind step, and
its function (a recipe's build, the name of a checker's check_* function).
One helper parses an entry of either table (``_entry``): ``_tag`` reads the
type or id, ``_check_fields`` the other fields, then the bind step makes
what the run takes of them.  A bind step holds every rule of its one entry
that needs no trajectory, so ``validate_config`` names no recipe and no
checker.  Where the library states a rule, the bind step calls the helper
the run calls: ``trivial_plus_mode``'s applies the near-trivial datum's
rule, which ancient_approximation applies too (0 <= eps < 1, then
geometry's spectrum rule: closed kind, at most 4096 nodes, mode index below
the resolution), ``talenti``'s computes the profile, which refuses all but
the radial kind with n >= 3, ``gradient``'s applies ``ball_mask`` to a
``local`` variant's R, the ball its check takes, ``lower_bound``'s applies
the lemma's ball and admissibility rules, and ``triviality``'s refuses a
manifold without a positive Ricci lower bound (the circle and the radial
kind).  The other bind steps refuse a ``random_uniform`` ``high`` that does
not exceed ``low`` by a finite amount, read a ``custom`` file (its bytes
travel in the recipe's values to the config hash), check a ``gradient``
variant's window fields and a ``universal`` window (T0, T) that would be
empty.  Validation, dispatch and plot-data emission all read the tables,
so adding a recipe or a checker means adding one entry, plus, for a
checker, one to ``CHECKERS`` in ``perfbench/tracer.py``, the check_*
functions the benchmark traces (a test holds the two tables equal).  ``_tag`` also reads the manifold's ``kind``
(one of geometry's ``KINDS``) and a gradient checker's ``variant``
(``_GRADIENT_VARIANTS``).
An arithmetic error's text leads with its type's name.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import pickle
import re
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .estimates import (
    _GRADIENT_VARIANTS,
    EstimateParams,
    EstimateReport,
    _check_cap,
    _check_positive_ricci,
    _lemma_balls,
    _talenti_profile,
    ball_mask,
    check_decay,
    check_gradient_estimate,
    check_lower_bound_lemma,
    check_positivity_min_ode,
    check_triviality,
    check_universal,
    exponent_regime,
)
from ._workers import Workers, cpus
from .evolve import EvolveControls, SolverAbort, evolve
from .geometry import (
    KINDS,
    DiscreteManifold,
    _check_dimension,
    _check_near_trivial,
    build_manifold,
    laplacian_spectrum,
)
from .reaction_ode import _near_trivial_data, validate_exponent

# largest manifold.resolution a config may ask for (the largest grid used by
# the tests, demos and benchmark is 2000 nodes)
MAX_RESOLUTION = 2**16


class ConfigError(ValueError):
    """Config validation failure; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.field_path = path


@dataclass(frozen=True)
class ExperimentConfig:
    p_values: tuple
    scenarios: tuple  # _Scenario records
    checkers: tuple  # (checker id, keyword arguments of its check_* function)
    seed: int
    built_manifold: DiscreteManifold  # built once, by validate_config
    config_hash: str  # of the config JSON and the bytes of every custom file


@dataclass
class RunReport:
    config_hash: str
    entries: list
    regimes: dict
    timing: dict = field(default_factory=dict)
    # where the report and its entry CSVs live; not serialized
    directory: str = "."

    @property
    def path(self) -> str:
        """The report file, ``report_<hash[:12]>.json`` in ``directory``."""
        return os.path.join(self.directory, f"report_{self.config_hash[:12]}.json")

    @property
    def _check_failures(self) -> int:
        """How many checks, over all entries, errored or did not pass."""
        return sum(
            rep.get("status") == "error" or not rep.get("passed", False)
            for entry in self.entries
            for rep in entry.get("checks", {}).values()
        )

    @property
    def all_passed(self) -> bool:
        return all(entry["status"] == "ok" for entry in self.entries) and self._check_failures == 0

    def to_json_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "entries": self.entries,
            "regimes": self.regimes,
            "all_passed": self.all_passed,
            "timing": self.timing,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunReport":
        """The report of a parsed report JSON.  ValueError naming the first
        field that does not have the shape ``run`` writes."""

        def expect(value, kind, path):
            if isinstance(value, bool) or not isinstance(value, kind):
                what = {dict: "an object", list: "a list", str: "a string", int: "an integer"}.get(kind, "a number")
                raise ValueError(f"report{path}: expected {what}, got {type(value).__name__}")
            return value

        expect(d, dict, "")
        expect(d.get("config_hash"), str, ".config_hash")
        for i, entry in enumerate(expect(d.get("entries"), list, ".entries")):
            at = f".entries[{i}]"
            expect(entry, dict, at)
            for cid, rep in expect(entry.get("checks", {}), dict, f"{at}.checks").items():
                expect(rep, dict, f"{at}.checks.{cid}")
                if rep.get("status") == "checked":  # the fields emit_plot_data reads
                    for key, kind in (("csv", str), ("rows", int), ("sha256", str)):
                        expect(rep.get(key), kind, f"{at}.checks.{cid}.{key}")
            for key, kind in (("name", str), ("scenario", str), ("p", (int, float))):
                expect(entry.get(key), kind, f"{at}.{key}")
            if not abs(entry["p"]) <= sys.float_info.max:  # NaN, +-inf or an int beyond the float range
                raise ValueError(f"report{at}.p: expected a finite number")
        return cls(
            config_hash=d["config_hash"],
            entries=d["entries"],
            regimes=d.get("regimes", {}),
            timing=d.get("timing", {}),
        )


def config_hash(raw: dict, contents=()) -> str:
    """sha256 of the canonical JSON text, then of each file's sha256 in
    ``contents`` (none: the hash of the text alone)."""
    text = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    h = hashlib.sha256(text.encode("utf-8"))
    for data in contents:
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def _number(value, path: str) -> float:
    # Python's JSON reader accepts NaN and +-Infinity, which fail the
    # comparison; an int compares with inf exactly, however large
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not -math.inf < value < math.inf:
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(path, "number out of range") from None


def _positive_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(path, f"expected a positive integer, got {value!r}")
    return value


def _nonneg_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(path, f"expected a nonnegative integer, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def _numbers(*names) -> dict:
    return dict.fromkeys(names, _number)


def _error_text(exc: Exception) -> str:
    # an arithmetic error's own text may not say what it is ("(34, 'Numerical
    # result out of range')" for an OverflowError), so its type leads it
    return f"{type(exc).__name__}: {exc}" if isinstance(exc, ArithmeticError) else str(exc)


def _at(path: str, rule, /, *args, **kwargs):
    """``rule(*args, **kwargs)``: a library rule that the run applies, its
    ValueError or ArithmeticError refused as a ConfigError at ``path``."""
    try:
        return rule(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(path, _error_text(exc)) from None


def _ruled(rule):
    # a number that ``rule`` accepts, refused at the field that holds it
    def check(value, path: str) -> float:
        value = _number(value, path)
        _at(path, rule, value)
        return value

    return check


_exponent = _ruled(validate_exponent)
_c_cap = _ruled(_check_cap)


def _list(raw: dict, key: str) -> list:
    # a root field that lists entries; absent, it lists none
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(key, "must be a list")
    return value


def _tag(d, tag: str, table, path: str, what: str, noun: str):
    """(name, fields): the ``table`` entry that field ``tag`` of the object
    ``d`` names (a recipe's ``type``, a checker's ``id``, the manifold's
    ``kind``, the gradient's ``variant``), and d's other fields, which that
    entry's own spec then checks.  A ``d`` that is not an object, then a
    missing field, then a name ``table`` lacks, is refused first."""
    if not isinstance(d, dict):
        raise ConfigError(path, "must be an object")
    if tag not in d or not isinstance(d[tag], str) or d[tag] not in table:
        missing = f"missing required field for {what}"
        raise ConfigError(f"{path}.{tag}", f"unknown {noun} {d[tag]!r}" if tag in d else missing)
    return d[tag], {key: value for key, value in d.items() if key != tag}


def _check_fields(d, spec: dict, path: str, what: str, required=()) -> dict:
    """Refuse a ``d`` that is not an object, fields ``spec`` does not name,
    then missing ``required`` fields, in that order, then run each present
    field's type check (None: checked by the caller).  Returns the present
    fields' parsed values."""
    if not isinstance(d, dict):
        raise ConfigError(path, "must be an object")
    unknown = set(d) - set(spec)
    if unknown:
        raise ConfigError(path, f"unknown {what} fields {sorted(unknown)}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{path}.{key}", f"missing required field for {what}")
    return {
        key: d[key] if check is None else check(d[key], f"{path}.{key}")
        for key, check in spec.items()
        if key in d
    }


def _entry(d, tag: str, table, path: str, what: str, noun: str, m):
    """(name, bound): the ``table`` entry that field ``tag`` of ``d`` names,
    and what its bind step makes at ``path`` of d's other fields once its
    spec has checked them (_tag, then _check_fields)."""
    name, fields = _tag(d, tag, table, path, what, noun)
    entry = table[name]
    values = _check_fields(fields, entry.fields, path, f"{noun} {name!r}", entry.required)
    return name, entry.bind(values, m, path) if entry.bind else values


def _bind_mode(values, m, path):
    # sizes only: each entry computes the spectrum it reads
    _at(path, _check_near_trivial, m, values["eps"], values["mode"])
    if values["t_start"] >= values["T_blow"]:
        raise ConfigError(f"{path}.t_start", "must precede T_blow")
    return values


def _bind_talenti(values, m, path):
    # the run starts every entry from the one profile computed here
    return {"u0": _at(f"{path}.type", _talenti_profile, m)}


def _bind_uniform(values, m, path):
    if not 0 < values["high"] - values["low"] < math.inf:
        raise ConfigError(f"{path}.high", "must exceed low by a finite amount")
    return values


def _bind_custom(values, m, path):
    """A file of whitespace-separated values, one per node: its bytes, which
    enter the config hash, and its values, read-only, which the run uses."""
    try:
        with open(values["path"], "rb") as fh:
            data = fh.read()
        # a file with nothing but blanks and comments would make loadtxt
        # warn, with the address of its stream in the text, before any error
        if not any(line.split(b"#", 1)[0].strip() for line in data.splitlines()):
            raise ValueError(f"custom initial data has 0 values, manifold has {m.node_count} nodes")
        u0 = np.loadtxt(io.BytesIO(data), dtype=float).ravel()
        if u0.size != m.node_count:
            raise ValueError(f"custom initial data has {u0.size} values, manifold has {m.node_count} nodes")
        if not np.isfinite(u0).all():
            raise ValueError("custom initial data holds NaN or an infinity")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}.path", str(exc)) from None
    u0.setflags(write=False)
    return {**values, "bytes": data, "u0": u0}


def _params(values, path, *names):
    # the ``names`` fields present become one EstimateParams
    params = {key: values.pop(key) for key in names if key in values}
    return {"params": _at(path, EstimateParams, **params), **values}


def _bind_gradient(values, m, path):
    # each variant reads and requires its own window fields
    variant, rest = _tag(values, "variant", _GRADIENT_VARIANTS, path, "checker 'gradient'", "gradient variant")
    window = _GRADIENT_VARIANTS[variant]
    _check_fields(rest, dict.fromkeys(("D", "c_cap", *window)), path, f"gradient variant {variant!r}", window)
    if variant == "local":  # the ball _gradient_windows takes
        _at(f"{path}.R", ball_mask, m, values["R"])
    return _params(values, path, "D", "R", "T")


def _bind_universal(values, m, path):
    if values["T"] <= values["T0"]:  # the window (T0, T) would be empty
        raise ConfigError(f"{path}.T", "must exceed T0")
    return values


def _bind_lower_bound(values, m, path):
    # the lemma's preconditions that need no trajectory
    kwargs = _params(values, path, "delta", "L", "A", "r0", "T")
    _at(path, _lemma_balls, m, kwargs["params"], kwargs["params"].T)
    return kwargs


def _bind_triviality(values, m, path):
    _at(path, _check_positive_ricci, m)
    return {"m": m, **values}


# One entry per recipe type and per checker id: the config fields it reads
# (name -> type check; None: its bind step checks it), the ones it requires,
# bind(values, m, path) -> what the run takes (None: the values as given;
# a refusal is a ConfigError at ``path`` or one of its fields), and its
# function.  A recipe's function is its build(values, m, p, seed,
# entry_index) -> u0.  A checker's is the name of its check_* function,
# called with the bound keyword arguments (only the fields present, so
# defaults live in the check_* signatures) and looked up in this module's
# globals per call so a wrapper on the module attribute sees it.
_Entry = namedtuple("_Entry", "fields required bind function")


_RECIPES = {
    "constant": _Entry(_numbers("value"), ("value",), None, lambda v, m, *_: np.full(m.node_count, v["value"])),
    "trivial_plus_mode": _Entry(
        {**_numbers("T_blow", "t_start", "eps"), "mode": _nonneg_int},
        ("T_blow", "t_start", "eps", "mode"),
        _bind_mode,
        lambda v, m, p, *_: _near_trivial_data(
            p, v["T_blow"], v["t_start"], v["eps"], laplacian_spectrum(m)[1][:, v["mode"]]
        ),
    ),
    "talenti": _Entry({}, (), _bind_talenti, lambda v, *_: v["u0"]),
    "random_uniform": _Entry(
        _numbers("low", "high"),
        ("low", "high"),
        _bind_uniform,
        lambda v, m, p, seed, i: np.random.default_rng([seed, i]).uniform(v["low"], v["high"], m.node_count),
    ),
    "custom": _Entry({"path": _string}, ("path",), _bind_custom, lambda v, *_: v["u0"]),
}

_CHECKERS = {
    "positivity": _Entry({}, (), None, "check_positivity_min_ode"),
    "gradient": _Entry(
        {"variant": None, **_numbers("D", "R", "T"), "c_cap": _c_cap},
        ("variant", "D"),
        _bind_gradient,
        "check_gradient_estimate",
    ),
    "decay": _Entry({"T_blow": _number, "c_cap": _c_cap}, ("T_blow",), None, "check_decay"),
    "universal": _Entry({**_numbers("T0", "T"), "c_cap": _c_cap}, ("T0", "T"), _bind_universal, "check_universal"),
    "lower_bound": _Entry(
        _numbers("delta", "L", "A", "r0", "C_delta_cap", "T"),
        ("delta", "L", "A", "r0", "C_delta_cap"),
        _bind_lower_bound,
        "check_lower_bound_lemma",
    ),
    "triviality": _Entry({"c_cap": _c_cap}, (), _bind_triviality, "check_triviality"),
}

# scenario controls: field -> type check (EvolveControls checks the values)
_CONTROLS = {"dt_max": _number, "snapshot_every": _positive_int}

# a validated scenario: u0 = build(values, m, p, seed, entry_index) over [t0, t1]
_Scenario = namedtuple("_Scenario", "name build values t0 t1 controls")


def validate_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed config dict; errors name the offending field.

    Builds the sweep's manifold (a build failure is a ``manifold`` error)
    and each scenario's EvolveControls (a refused value is a ``controls``
    error)."""
    root_fields = ("manifold", "p_values", "scenarios", "checkers", "seed")
    _check_fields(raw, dict.fromkeys(root_fields), "<root>", "config", ("manifold",))

    kind, man = _tag(raw["manifold"], "kind", KINDS, "manifold", "manifold", "manifold kind")
    man_fields = ("n", "size", "resolution")
    man = _check_fields(man, dict.fromkeys(man_fields), "manifold", "manifold", man_fields)
    n = _positive_int(man["n"], "manifold.n")
    _at("manifold.n", _check_dimension, kind, n)
    size = _number(man["size"], "manifold.size")
    if size <= 0:
        raise ConfigError("manifold.size", "must be positive")
    resolution = _positive_int(man["resolution"], "manifold.resolution")
    if not 16 <= resolution <= MAX_RESOLUTION:
        raise ConfigError("manifold.resolution", f"must be in [16, {MAX_RESOLUTION}]")
    built = _at("manifold", build_manifold, kind, n, size, resolution)  # the sweep's one build

    p_values = tuple(_exponent(p, f"p_values[{i}]") for i, p in enumerate(_list(raw, "p_values")))
    first_with_name = {}  # entry names carry p as f"{p:g}"
    for i, p in enumerate(p_values):
        earlier = first_with_name.setdefault(f"{p:g}", i)
        if earlier != i:
            raise ConfigError(f"p_values[{i}]", f"p = {p!r} shares its entry name p{p:g} with p_values[{earlier}]")

    parsed_scenarios = []
    seen_names = set()
    for i, sc in enumerate(_list(raw, "scenarios")):
        path = f"scenarios[{i}]"
        required = ("name", "initial", "window")
        _check_fields(sc, dict.fromkeys((*required, "controls")), path, "scenario", required)
        name = sc["name"]
        if not isinstance(name, str) or not re.fullmatch("[A-Za-z0-9_-]+", name):
            raise ConfigError(f"{path}.name", "must match [A-Za-z0-9_-]+")
        if name in seen_names:
            raise ConfigError(f"{path}.name", f"duplicate scenario name {name!r}")
        seen_names.add(name)
        recipe, values = _entry(sc["initial"], "type", _RECIPES, f"{path}.initial", "initial data", "recipe", built)
        window = _check_fields(sc["window"], _numbers("t0", "t1"), f"{path}.window", "window", ("t0", "t1"))
        t0, t1 = window["t0"], window["t1"]
        if t1 <= t0:
            raise ConfigError(f"{path}.window.t1", "must exceed t0")
        controls = _check_fields(sc.get("controls", {}), _CONTROLS, f"{path}.controls", "control")
        controls = _at(f"{path}.controls", EvolveControls, **controls)
        parsed_scenarios.append(_Scenario(name, _RECIPES[recipe].function, values, t0, t1, controls))

    bound_checkers = []
    first_with_id = {}  # the report keeps one record per checker id
    for i, ck in enumerate(_list(raw, "checkers")):
        path = f"checkers[{i}]"
        cid, kwargs = _entry(ck, "id", _CHECKERS, path, "checker", "checker", built)
        earlier = first_with_id.setdefault(cid, i)
        if earlier != i:
            raise ConfigError(path, f"checker {cid!r} is already checkers[{earlier}]")
        bound_checkers.append((cid, kwargs))

    seed = _nonneg_int(raw.get("seed", 0), "seed")

    return ExperimentConfig(
        p_values=p_values,
        scenarios=tuple(parsed_scenarios),
        checkers=tuple(bound_checkers),
        seed=seed,
        built_manifold=built,
        config_hash=config_hash(raw, [sc.values["bytes"] for sc in parsed_scenarios if "bytes" in sc.values]),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<root>", f"invalid JSON: {exc}") from exc
    return validate_config(raw)


def _run_entry(workdir: str, config: ExperimentConfig, tasks, share):
    """Evolve and check entry i = (name, scenario, p) of ``tasks``, for each
    i of ``share`` in order, write its entry CSVs into ``workdir``
    (_write_entry_csvs, which sets each record's ``rows`` and ``sha256``)
    and pickle the entry there, to ``<i>.pkl``."""
    m = config.built_manifold
    for entry_index in share:
        name, scenario, p = tasks[entry_index]
        entry = {"name": name, "scenario": scenario.name, "p": p, "status": "ok", "checks": {}}
        files = []  # (report record, EstimateReport) per check with rows
        started = time.perf_counter()
        try:
            u0 = scenario.build(scenario.values, m, p, config.seed, entry_index)
            traj = evolve(m, u0, scenario.t0, scenario.t1, p, scenario.controls)
        except (SolverAbort, ValueError, ArithmeticError) as exc:
            entry["status"] = "error"
            entry["error"] = _error_text(exc)
        else:
            entry["trajectory"] = {
                "snapshot_count": int(traj.times.size),
                "step_count": int(traj.step_times.size),
                "first_time": float(traj.times[0]),
                "final_time": float(traj.times[-1]),
                "max_abs_value": float(np.max(np.abs(traj.snapshots))),
                "negative_data": bool(traj.negative_data),
                "blowup": None if traj.blowup is None else asdict(traj.blowup),
            }
            for cid, kwargs in config.checkers:
                try:
                    rep = globals()[_CHECKERS[cid].function](traj, p=p, **kwargs)
                except (ValueError, ArithmeticError) as exc:
                    entry["checks"][cid] = {"status": "error", "error": _error_text(exc)}
                    continue
                entry["checks"][cid] = {**rep.to_json_dict(), "status": "checked", "csv": f"{name}_{cid}.csv"}
                files.append((entry["checks"][cid], rep))
        entry["wall_seconds"] = time.perf_counter() - started
        _write_entry_csvs(workdir, files)
        with open(os.path.join(workdir, f"{entry_index}.pkl"), "wb") as fh:
            pickle.dump(entry, fh)


def _write_entry_csvs(out_dir: str, files):
    """Write the entry CSV of each (record, EstimateReport) in ``files`` into
    ``out_dir`` with one call (EstimateReport._csv_bytes: the header, then
    one row per snapshot), and set the record's ``rows`` and ``sha256``
    (the digest of the bytes written)."""
    for record, rep in files:
        data = rep._csv_bytes()
        with open(os.path.join(out_dir, record["csv"]), "wb") as out:
            out.write(data)
        # the digest ties the entry CSV to the report, since a later run into
        # the same directory may overwrite a CSV of the same name
        record.update(rows=rep.times.size, sha256=hashlib.sha256(data).hexdigest())


def run_experiment(config: ExperimentConfig, out_dir: str = ".", *, jobs: int | None = None) -> RunReport:
    """Execute the sweep and write report JSON plus per-checker CSVs into
    ``out_dir``; the report's ``path`` names the report file.

    Entries run in ``jobs`` workers, each started once and running every
    ``jobs``-th entry in order (None: one per CPU this process may run on;
    a ``jobs`` above the entry count is capped; see the module docstring).
    The report JSON is written beside the entry CSVs in the workers'
    private directory, and one ``Workers.publish`` call renames them all
    into place, the report last.
    A worker that fails raises OSError naming each entry of its share, once
    the workers started before it are done; an entry CSV that is missing
    FileNotFoundError naming it, and a directory in the place of an entry
    CSV or of the report IsADirectoryError naming it; all are raised before
    the first file is renamed into place, so no report is written and an
    earlier run's report and entry CSVs stay as they were.
    ``timing.wall_seconds`` ends before the publish.  ``timing.per_entry``
    holds each entry's evolve and check seconds, measured where the entry
    ran, and ``timing.jobs`` the worker count used.  ValueError if ``jobs``
    is not a positive integer."""
    if jobs is None:
        jobs = cpus()
    elif isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    os.makedirs(out_dir, exist_ok=True)
    digest = config.config_hash

    started = time.perf_counter()
    tasks = [(f"{scenario.name}__p{p:g}", scenario, p) for scenario in config.scenarios for p in config.p_values]
    jobs = max(1, min(jobs, len(tasks)))
    with Workers(out_dir, f".report_{digest[:12]}.", fork=jobs > 1) as workers:
        for w in range(jobs):
            share = range(w, len(tasks), jobs)
            what = "worker of entry " + ", ".join(tasks[i][0] for i in share)
            workers.start(what, _run_entry, workers.dir, config, tasks, share)
        for _ in range(jobs):
            workers.wait()
        entries = []
        for i in range(len(tasks)):
            with open(os.path.join(workers.dir, f"{i}.pkl"), "rb") as fh:
                entries.append(pickle.load(fh))

        n = config.built_manifold.n
        report = RunReport(
            config_hash=digest,
            entries=entries,
            regimes={"n": n, "by_p": {f"{p:g}": exponent_regime(n, p) for p in config.p_values}},
            timing={
                "wall_seconds": time.perf_counter() - started,
                "per_entry": {e["name"]: e.pop("wall_seconds", None) for e in entries},
                "jobs": jobs,
            },
            directory=out_dir,
        )
        report_name = os.path.basename(report.path)
        with open(os.path.join(workers.dir, report_name), "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        names = [rec["csv"] for entry in entries for rec in entry["checks"].values() if "csv" in rec]
        workers.publish((name, os.path.join(out_dir, name)) for name in [*names, report_name])
    return report


def emit_plot_data(report: RunReport, which: str, out_dir: str = ".") -> str:
    """Write one tidy CSV for checker ``which`` and return its path: scenario, p, t, lhs,
    structural rhs, ratio per snapshot row.  The rows are the bytes of the
    entry CSVs in ``report.directory`` behind the scenario and p, put in
    front of each row by one replace per entry CSV, so no value is parsed or
    formatted again.  An entry CSV whose sha256 is not the one the report
    recorded (another run into the same directory wrote over it), that is
    not the header and ``rows`` newline-ended rows, or a ``csv`` that is not
    a bare file name, is a ValueError.  Emitting twice is byte-identical."""
    present = {cid for entry in report.entries for cid in entry.get("checks", {})}
    if which not in _CHECKERS:
        raise ValueError(f"unknown checker id {which!r}")
    if report.entries and present and which not in present:
        raise ValueError(f"checker {which!r} not present in the report")
    chunks = []  # every entry CSV is read before the output is opened
    header = EstimateReport._CSV_HEADER + b"\n"
    for entry in report.entries:
        rep = entry.get("checks", {}).get(which)
        if rep is None or rep.get("status") != "checked":
            continue
        name = rep.get("csv")
        if not isinstance(name, str) or name in ("", ".", "..") or os.path.basename(name) != name:
            raise ValueError(f"{entry['name']}: the {which} check names no entry CSV file beside the report")
        csv_path = os.path.join(report.directory, name)
        with open(csv_path, "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != rep.get("sha256"):
            raise ValueError(f"{csv_path}: not the entry CSV this report wrote (its sha256 differs)")
        if not data.startswith(header) or data.count(b"\n") != rep["rows"] + 1 or not data.endswith(b"\n"):
            raise ValueError(f"{csv_path}: expected the header and {rep['rows']} rows")
        if rep["rows"]:
            prefix = f"{entry['scenario']},{float(entry['p'])!r},".encode()
            chunks.append(prefix + data[len(header) : -1].replace(b"\n", b"\n" + prefix) + b"\n")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"plot_{which}_{report.config_hash[:12]}.csv")
    with open(path, "wb") as fh:
        fh.write(b"scenario,p," + header + b"".join(chunks))
    return path
