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
      "out_dir": "runs",
      "seed": 0
    }

Initial-data recipes: "constant" (value), "trivial_plus_mode" (T_blow,
t_start, eps, mode; a closed kind of at most 4096 nodes, mode below the
resolution, t_start before T_blow), "talenti" (radial static profile,
n >= 3), "random_uniform" (low, high; drawn from the config seed), "custom"
(path to a file of whitespace-separated values, one per node; validation
reads it, and the run uses the values read then).

``validate_config`` parses the config once and returns what the sweep runs:
the built manifold, each scenario as a record (recipe build, parsed values,
window, EvolveControls) and each checker as its id plus the keyword
arguments of its check_* function (EstimateParams included), so values a
checker or the controls refuse, and recipe preconditions that need no
trajectory, are config errors.  The runner only executes these records and
reads no raw config dict; validation also computes the config hash.

The sweep runs every scenario at every p (cardinality = len(scenarios) *
len(p_values)).  Entries run one after another in that order, on the one
manifold that validation built; a failing scenario is recorded and never
disturbs the others.  The report is written even when checks fail: failures
are the interesting output.  Everything in the report except the "timing"
block is a pure function of the config.  The config hash is the sha256 of
the canonicalized (key-sorted, compact) JSON text followed by the sha256 of
each custom file's bytes, so a config without one hashes its text alone.  A
key the schema above does not name, at any level, is a config error.

Each check writes its per-snapshot rows (t, lhs, structural rhs, ratio) once,
to the entry CSV ``<entry>_<checker>.csv`` beside the report.  The report
keeps only the check's scalars (inequality_id, c_fit, c_cap, passed,
diagnostics, status) plus ``csv``, that file's name, ``rows``, its number of
data rows, and ``sha256``, the digest of its bytes.  ``emit_plot_data`` copies
those rows behind each entry's scenario and p, from the directory the report
was written to or read from, and refuses an entry CSV whose digest differs:
entry CSV names carry no config hash, so a later run into the same directory
may have written over it.

An entry's CSVs are formatted and written by a forked child while the next
entry runs (``_start_entry_csvs``).  The runner writes them itself where
``_fork_writer`` starts no child: CSVs of fewer than
EXPORT_VALUES_PER_WORKER values, one CPU, no fork.  Either way the writer
only writes its files by path.  The runner reaps the child before it starts
the next entry's writer, so at most one child is outstanding, and the last
one before it writes the report; then it reads each entry CSV back and sets
``sha256`` and ``rows`` from its bytes (``_finish_entry_csvs``).  A child
that failed, or an entry CSV that is missing, raises OSError there, so no
report is written.  ``timing.per_entry`` covers each entry's evolve and
checks, not the formatting of its CSVs.

``_CHECKERS`` is the one place checker ids live: each entry names the
config fields its checker reads, which of them are required, how they bind
to its check_* function, and which function that is.  Validation, dispatch
and plot-data emission all read that table, so adding a checker means adding
one entry there; ``_RECIPES`` does the same for initial-data recipes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .estimates import (
    _GRADIENT_VARIANTS,
    EstimateParams,
    _check_osc_floor,
    check_decay,
    check_gradient_estimate,
    check_lower_bound_lemma,
    check_positivity_min_ode,
    check_triviality,
    check_universal,
    exponent_regime,
)
from .evolve import EvolveControls, SolverAbort, _fork_writer, _kill_children, _reap_child, evolve
from .geometry import (
    _SPECTRUM_MAX_NODES,
    CLOSED_KINDS,
    DiscreteManifold,
    _canonical_kind,
    _check_dimension,
    build_manifold,
    laplacian_spectrum,
)
from .reaction_ode import trivial_ancient

ENV_OUT_DIR = "SEMIHEAT_OUT_DIR"

# first line of every entry CSV; the rows follow, one per snapshot
_ENTRY_CSV_HEADER = "t,lhs,structural_rhs,ratio\n"

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
    out_dir: str | None
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
    # value != value only for NaN, which JSON readers accept as a literal
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise ConfigError(path, f"expected a number, got {value!r}")
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


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _variant(value, path: str) -> str:
    if not isinstance(value, str) or value not in _GRADIENT_VARIANTS:
        raise ConfigError(path, f"expected one of {list(_GRADIENT_VARIANTS)}, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def _numbers(*names) -> dict:
    return dict.fromkeys(names, _number)


def _mode_data(v, m, p, seed, entry_index):
    bg = trivial_ancient(p, v["T_blow"], v["t_start"])
    _, modes = laplacian_spectrum(m)
    return bg * (1.0 + v["eps"] * modes[:, v["mode"]])


def _talenti(v, m, p, seed, entry_index):
    c = float(m.n * (m.n - 2))
    return (c / (c + m.nodes**2)) ** ((m.n - 2) / 2.0)


def _read_custom(path: str, node_count: int):
    """The file's bytes (hashed with the config) and its read-only values."""
    with open(path, "rb") as fh:
        data = fh.read()
    values = np.loadtxt(io.BytesIO(data), dtype=float).ravel()
    if values.size != node_count:
        raise ValueError(f"custom initial data has {values.size} values, manifold has {node_count} nodes")
    values.setflags(write=False)
    return data, values


# initial-data recipes: the fields (name -> type check; every field is
# required) and build(values, m, p, seed, entry_index) -> u0
_Recipe = namedtuple("_Recipe", "fields build")
_RECIPES = {
    "constant": _Recipe(_numbers("value"), lambda v, m, *_: np.full(m.node_count, v["value"])),
    "trivial_plus_mode": _Recipe({**_numbers("T_blow", "t_start", "eps"), "mode": _nonneg_int}, _mode_data),
    "talenti": _Recipe({}, _talenti),
    "random_uniform": _Recipe(
        _numbers("low", "high"),
        lambda v, m, p, seed, i: np.random.default_rng([seed, i]).uniform(v["low"], v["high"], m.node_count),
    ),
    # validation reads the file into values["data"]
    "custom": _Recipe({"path": _string}, lambda v, *_: v["data"]),
}


# scenario controls: field -> type check (EvolveControls checks the values)
_CONTROLS = {
    "dt_max": _number,
    "blow_threshold": _number,
    "reaction_on": _boolean,
    "snapshot_every": _positive_int,
}


def _with_params(*names):
    # bind step: the ``names`` fields present become one EstimateParams
    def bind(values, m):
        params = {key: values.pop(key) for key in names if key in values}
        return {"params": EstimateParams(**params), **values}

    return bind


def _triviality_args(values, m):
    _check_osc_floor(values.get("osc_floor", 0.0))
    return {"m": m, **values}


# One entry per checker id: the config fields the checker reads (name -> type
# check), the ones it requires, bind(values, m) -> its keyword arguments (only
# the fields present, so defaults live in the check_* signatures; None: the
# values as given), and the name of its check_* function, looked up in this
# module's globals per call so a wrapper on the module attribute sees it.
_Checker = namedtuple("_Checker", "fields required bind function")
_CHECKERS = {
    "positivity": _Checker({}, (), None, "check_positivity_min_ode"),
    "gradient": _Checker(
        {"variant": _variant, **_numbers("D", "K", "R", "T", "T0", "u_floor", "c_cap", "grad_tol")},
        ("variant", "D"),
        _with_params("D", "K", "R", "T", "T0", "u_floor"),
        "check_gradient_estimate",
    ),
    "decay": _Checker(_numbers("T_blow", "c_cap"), ("T_blow",), None, "check_decay"),
    "universal": _Checker(_numbers("T0", "T", "c_cap"), ("T0", "T"), None, "check_universal"),
    "lower_bound": _Checker(
        _numbers("delta", "L", "A", "r0", "C_delta_cap", "K", "T"),
        ("delta", "L", "A", "r0", "C_delta_cap"),
        _with_params("delta", "L", "A", "r0", "K", "T"),
        "check_lower_bound_lemma",
    ),
    "triviality": _Checker(_numbers("rate_tol", "osc_floor"), (), _triviality_args, "check_triviality"),
}

# a validated scenario: u0 = build(values, m, p, seed, entry_index) over [t0, t1]
_Scenario = namedtuple("_Scenario", "name build values t0 t1 controls")


def _tagged(tag: str, table: dict, what: str) -> dict:
    # first-pass spec of an object whose ``tag`` field names a ``table`` entry
    # (a recipe, a checker): that name, plus any entry's fields, which the
    # named entry's own spec then checks
    def check(value, path: str) -> str:
        if not isinstance(value, str) or value not in table:
            raise ConfigError(path, f"unknown {what} {value!r}")
        return value

    return {tag: check, **dict.fromkeys(key for entry in table.values() for key in entry.fields)}


_RECIPE_SPEC = _tagged("type", _RECIPES, "recipe")
_CHECKER_SPEC = _tagged("id", _CHECKERS, "checker id")


def _check_fields(d, spec: dict, path: str, what: str, required=()) -> dict:
    """Refuse a ``d`` that is not an object, missing ``required`` fields and
    fields ``spec`` does not name, then run each present field's type check
    (None: checked by the caller).  Returns the present fields' parsed
    values."""
    if not isinstance(d, dict):
        raise ConfigError(path, "must be an object")
    for key in required:
        if key not in d:
            raise ConfigError(f"{path}.{key}", f"missing required field for {what}")
    unknown = set(d) - set(spec)
    if unknown:
        raise ConfigError(path, f"unknown {what} fields {sorted(unknown)}")
    return {
        key: d[key] if check is None else check(d[key], f"{path}.{key}")
        for key, check in spec.items()
        if key in d
    }


def validate_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed config dict; errors name the offending field.

    Builds the sweep's manifold (a build failure is a ``manifold`` error)
    and each scenario's EvolveControls (a refused value is a ``controls``
    error)."""
    root_fields = ("manifold", "p_values", "scenarios", "checkers", "out_dir", "seed")
    _check_fields(raw, dict.fromkeys(root_fields), "<root>", "config", ("manifold",))

    man_fields = ("kind", "n", "size", "resolution")
    man = _check_fields(raw["manifold"], dict.fromkeys(man_fields), "manifold", "manifold", man_fields)
    kind = man["kind"]
    try:
        canonical = _canonical_kind(kind)
    except ValueError as exc:
        raise ConfigError("manifold.kind", str(exc)) from None
    n = _positive_int(man["n"], "manifold.n")
    try:
        _check_dimension(canonical, n)
    except ValueError as exc:
        raise ConfigError("manifold.n", str(exc)) from None
    size = _number(man["size"], "manifold.size")
    if not 0 < size < math.inf:  # an infinite size builds a grid of NaN nodes
        raise ConfigError("manifold.size", "must be positive and finite")
    resolution = _positive_int(man["resolution"], "manifold.resolution")
    if not 16 <= resolution <= MAX_RESOLUTION:
        raise ConfigError("manifold.resolution", f"must be in [16, {MAX_RESOLUTION}]")
    try:  # the sweep's one build
        built = build_manifold(kind, n, size, resolution)
    except ValueError as exc:
        raise ConfigError("manifold", str(exc)) from None

    p_values = raw.get("p_values", [])
    if not isinstance(p_values, list):
        raise ConfigError("p_values", "must be a list")
    p_values = tuple(_number(p, f"p_values[{i}]") for i, p in enumerate(p_values))
    for i, p in enumerate(p_values):
        if p <= 1.0:
            raise ConfigError(f"p_values[{i}]", "exponent must exceed 1")

    scenarios = raw.get("scenarios", [])
    if not isinstance(scenarios, list):
        raise ConfigError("scenarios", "must be a list")
    parsed_scenarios = []
    custom_contents = []
    seen_names = set()
    for i, sc in enumerate(scenarios):
        path = f"scenarios[{i}]"
        required = ("name", "initial", "window")
        _check_fields(sc, dict.fromkeys((*required, "controls")), path, "scenario", required)
        name = sc["name"]
        if not isinstance(name, str) or not name or not all(
            ch.isalnum() or ch in "_-" for ch in name
        ):
            raise ConfigError(f"{path}.name", "must match [A-Za-z0-9_-]+")
        if name in seen_names:
            raise ConfigError(f"{path}.name", f"duplicate scenario name {name!r}")
        seen_names.add(name)
        fields = _check_fields(sc["initial"], _RECIPE_SPEC, f"{path}.initial", "initial data", ("type",))
        recipe = fields.pop("type")
        spec = _RECIPES[recipe].fields
        values = _check_fields(fields, spec, f"{path}.initial", f"recipe {recipe!r}", required=spec)
        if recipe == "talenti" and (canonical != "euclidean_radial" or n < 3):
            raise ConfigError(
                f"{path}.initial.type",
                "talenti profile needs the euclidean_radial kind with n >= 3",
            )
        if recipe == "random_uniform" and values["high"] <= values["low"]:
            raise ConfigError(f"{path}.initial.high", "must exceed low")
        if recipe == "random_uniform" and not values["high"] - values["low"] < math.inf:
            raise ConfigError(f"{path}.initial.high", "high - low must be finite")
        if recipe == "trivial_plus_mode":  # sizes only: the spectrum is computed per entry
            if canonical not in CLOSED_KINDS:
                raise ConfigError(f"{path}.initial.type", f"eigenmodes need a kind in {list(CLOSED_KINDS)}")
            if resolution > _SPECTRUM_MAX_NODES:
                raise ConfigError("manifold.resolution", f"eigenmodes need <= {_SPECTRUM_MAX_NODES} nodes")
            if values["mode"] >= resolution:
                raise ConfigError(f"{path}.initial.mode", f"mode index out of range for {resolution} nodes")
            if values["t_start"] >= values["T_blow"]:
                raise ConfigError(f"{path}.initial.t_start", "must precede T_blow")
        if recipe == "custom":
            try:
                data, values["data"] = _read_custom(values["path"], built.node_count)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{path}.initial.path", str(exc)) from None
            custom_contents.append(data)
        window = _check_fields(sc["window"], _numbers("t0", "t1"), f"{path}.window", "window", ("t0", "t1"))
        t0, t1 = window["t0"], window["t1"]
        if t1 <= t0:
            raise ConfigError(f"{path}.window.t1", "must exceed t0")
        controls = _check_fields(sc.get("controls", {}), _CONTROLS, f"{path}.controls", "control")
        try:
            controls = EvolveControls(**controls)
        except ValueError as exc:
            raise ConfigError(f"{path}.controls", str(exc)) from None
        parsed_scenarios.append(_Scenario(name, _RECIPES[recipe].build, values, t0, t1, controls))

    checkers = raw.get("checkers", [])
    if not isinstance(checkers, list):
        raise ConfigError("checkers", "must be a list")
    bound_checkers = []
    for i, ck in enumerate(checkers):
        path = f"checkers[{i}]"
        fields = _check_fields(ck, _CHECKER_SPEC, path, "checker", ("id",))
        cid = fields.pop("id")
        spec = _CHECKERS[cid]
        values = _check_fields(fields, spec.fields, path, f"checker {cid!r}", spec.required)
        if cid == "gradient":  # each variant requires its own window fields
            variant = values["variant"]
            _check_fields(values, spec.fields, path, f"the {variant} variant", _GRADIENT_VARIANTS[variant])
        try:
            bound_checkers.append((cid, spec.bind(values, built) if spec.bind else values))
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir", "must be a string")
    seed = _nonneg_int(raw.get("seed", 0), "seed")

    return ExperimentConfig(
        p_values=p_values,
        scenarios=tuple(parsed_scenarios),
        checkers=tuple(bound_checkers),
        out_dir=out_dir,
        seed=seed,
        built_manifold=built,
        config_hash=config_hash(raw, custom_contents),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<root>", f"invalid JSON: {exc}") from exc
    return validate_config(raw)


def _run_entry(m, config: ExperimentConfig, scenario: _Scenario, p: float, entry_index: int):
    """Evolve and check one entry.  Returns the entry and, per check with
    rows, its report record and EstimateReport: the record names the entry
    CSV and gets ``rows`` and ``sha256`` once that CSV is read back."""
    name = f"{scenario.name}__p{p:g}"
    entry = {"name": name, "scenario": scenario.name, "p": p, "status": "ok", "checks": {}}
    files = []
    started = time.perf_counter()
    try:
        u0 = scenario.build(scenario.values, m, p, config.seed, entry_index)
        traj = evolve(m, u0, scenario.t0, scenario.t1, p, scenario.controls)
    except (SolverAbort, ValueError, FloatingPointError) as exc:
        entry["status"] = "error"
        entry["error"] = str(exc)
        entry["wall_seconds"] = time.perf_counter() - started
        return entry, files

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
        except (ValueError, FloatingPointError) as exc:
            entry["checks"][cid] = {"status": "error", "error": str(exc)}
            continue
        entry["checks"][cid] = {**rep.to_json_dict(), "status": "checked", "csv": f"{name}_{cid}.csv"}
        files.append((entry["checks"][cid], rep))
    entry["wall_seconds"] = time.perf_counter() - started
    return entry, files


def _write_entry_csvs(out_dir: str, files):
    """Write the entry CSV of each (record, EstimateReport) in ``files`` into
    ``out_dir``, each built as one text and written with one call."""
    for record, rep in files:
        lines = [",".join(row) + "\n" for row in rep.csv_rows()]
        with open(os.path.join(out_dir, record["csv"]), "wb") as out:
            out.write((_ENTRY_CSV_HEADER + "".join(lines)).encode("utf-8"))


def _start_entry_csvs(files, out_dir: str) -> list:
    """Write the entry CSVs of ``files``, in a forked child where
    _fork_writer starts one.  Returns [the child's pid or None, the records
    of ``files``]."""
    values = len(_ENTRY_CSV_HEADER.split(",")) * sum(rep.times.size for _, rep in files)
    pid = _fork_writer(values, _write_entry_csvs, out_dir, files)
    if pid is None:
        _write_entry_csvs(out_dir, files)
    return [pid, [record for record, _ in files]]


def _finish_entry_csvs(writer: list, out_dir: str):
    """Reap the child of ``writer`` (from _start_entry_csvs), if any, setting
    its pid to None: OSError if it failed.  Then read each record's entry
    CSV back from ``out_dir`` and set its ``sha256`` and ``rows`` (newlines
    less the header's) from those bytes: OSError if the file is missing."""
    pid, records = writer
    if pid is not None:
        writer[0] = None
        _reap_child(pid, "entry CSV writer")
    # the digest ties the entry CSV to the report, since a later run into
    # the same directory may overwrite a CSV of the same name
    for record in records:
        with open(os.path.join(out_dir, record["csv"]), "rb") as fh:
            data = fh.read()
        record["sha256"] = hashlib.sha256(data).hexdigest()
        record["rows"] = data.count(b"\n") - 1


def resolve_out_dir(config: ExperimentConfig, override: str | None = None) -> str:
    """--out-dir beats the config, the config beats the environment default."""
    if override:
        return override
    if config.out_dir:
        return config.out_dir
    return os.environ.get(ENV_OUT_DIR, ".")


def run_experiment(
    config: ExperimentConfig, out_dir: str | None = None, verbose: bool = False, *, jobs=None
) -> RunReport:
    """Execute the sweep and write report JSON plus per-checker CSVs.

    Each entry's CSVs are written by a forked child while the next entry
    runs (see the module docstring), one child at a time; every child is
    reaped before this returns or raises.  A child that failed, or an entry
    CSV missing when it is read back, raises OSError with no report
    written.  ``timing.per_entry`` holds each entry's evolve and check
    seconds, without the formatting of its CSVs.  ``jobs`` is accepted and
    ignored, so callers that pass it keep working."""
    target = resolve_out_dir(config, out_dir)
    os.makedirs(target, exist_ok=True)
    digest = config.config_hash

    started = time.perf_counter()
    m = config.built_manifold
    tasks = [(scenario, p) for scenario in config.scenarios for p in config.p_values]
    entries = []
    writer = None  # the last _start_entry_csvs result
    try:
        for i, (scenario, p) in enumerate(tasks):
            e, files = _run_entry(m, config, scenario, p, i)
            entries.append(e)
            if files:
                # the previous entry's CSVs were written while this entry ran
                if writer:
                    _finish_entry_csvs(writer, target)
                writer = _start_entry_csvs(files, target)
            if verbose:
                print(f"  [{e['status']}] {e['name']}", flush=True)
        if writer:
            _finish_entry_csvs(writer, target)
    finally:
        if writer:
            _kill_children([writer[0]])

    n = m.n
    regimes = {f"{p:g}": exponent_regime(n, p) for p in config.p_values}
    wall = time.perf_counter() - started
    report = RunReport(
        config_hash=digest,
        entries=entries,
        regimes={"n": n, "by_p": regimes},
        timing={
            "wall_seconds": wall,
            "per_entry": {e["name"]: e.pop("wall_seconds", None) for e in entries},
        },
        directory=target,
    )
    report_path = os.path.join(target, f"report_{digest[:12]}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    report.timing["report_path"] = report_path
    return report


def emit_plot_data(report: RunReport, which: str, out_dir: str = ".") -> list[str]:
    """Write one tidy CSV for checker ``which``: scenario, p, t, lhs,
    structural rhs, ratio per snapshot row.  The rows are the entry CSVs in
    ``report.directory``, copied line by line behind the scenario and p, so
    no value is parsed or formatted again.  An entry CSV whose sha256 is not
    the one the report recorded (another run into the same directory wrote
    over it), or a ``csv`` that is not a bare file name, is a ValueError.
    Emitting twice is byte-identical."""
    present = {cid for entry in report.entries for cid in entry.get("checks", {})}
    if which not in _CHECKERS:
        raise ValueError(f"unknown checker id {which!r}")
    if report.entries and present and which not in present:
        raise ValueError(f"checker {which!r} not present in the report")
    chunks = []  # every entry CSV is read before the output is opened
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
        lines = data.decode("utf-8").splitlines(keepends=True)
        if lines[:1] != [_ENTRY_CSV_HEADER] or len(lines) - 1 != rep["rows"]:
            raise ValueError(f"{csv_path}: expected the header and {rep['rows']} rows")
        prefix = f"{entry['scenario']},{repr(float(entry['p']))},"
        chunks.extend(prefix + line for line in lines[1:])
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"plot_{which}_{report.config_hash[:12]}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("scenario,p,t,lhs,structural_rhs,ratio\n")
        fh.writelines(chunks)
    return [path]
