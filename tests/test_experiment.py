import ast
import contextlib
import copy
import errno
import hashlib
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from semiheat import (
    ConfigError,
    EstimateReport,
    RunReport,
    ancient_approximation,
    build_manifold,
    config_hash,
    emit_plot_data,
    load_config,
    run_experiment,
    validate_config,
)
import semiheat.cli as cli
import semiheat.estimates as estimates
import semiheat.experiment as experiment
from semiheat.cli import main as cli_main
from semiheat.experiment import _CHECKERS, _CONTROLS


def base_raw():
    return {
        "manifold": {"kind": "circle", "n": 1, "size": 6.3, "resolution": 64},
        "p_values": [2.0],
        "scenarios": [
            {
                "name": "warm",
                "initial": {"type": "constant", "value": 1.0},
                "window": {"t0": 0.0, "t1": 0.2},
            }
        ],
        "checkers": [{"id": "positivity"}],
        "seed": 0,
    }


def test_validate_config_accepts_base():
    cfg = validate_config(base_raw())
    assert cfg.config_hash == config_hash(base_raw())
    assert cfg.built_manifold.kind == "circle"
    assert cfg.p_values == (2.0,)
    assert cfg.seed == 0


_NEAR_TRIVIAL = {"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1}
_LOWER_BOUND = {"id": "lower_bound", "delta": 0.5, "L": 1.0, "A": 10.0, "r0": 0.3, "C_delta_cap": 1.0}
# on the unit S^2: A r0 = 4 exceeds pi; at T = 0.5 the least admissible A is 10
_LOWER_BOUND_PRECONDITIONS = (
    ("ball-beyond-diameter", {"A": 8.0, "r0": 0.5}, "ball exceeds the manifold diameter"),
    ("A-below-admissibility-minimum", {"A": 5.0, "r0": 0.5, "T": 0.5}, "A = 5 is below the admissibility minimum 10"),
    # r0**2 is 0, so the minimum divides by zero
    ("r0-squared-is-zero", {"A": 10.0, "r0": 1e-200, "T": 1.0}, "ZeroDivisionError: float division by zero"),
)


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda r: r["manifold"].update(kind="klein_bottle"), "manifold.kind"),
        (lambda r: r["manifold"].update(resolution=8), "manifold.resolution"),
        (lambda r: r["manifold"].update(size=-1.0), "manifold.size"),
        (lambda r: r.update(p_values=[0.5]), "p_values[0]"),
        (lambda r: r["scenarios"][0].update(name="bad name"), "scenarios[0].name"),
        # str.isalnum is true of these; the names become file names and
        # plotdata prefixes, which the message promises are ASCII
        pytest.param(lambda r: r["scenarios"][0].update(name="caf\u00e9"), "scenarios[0].name", id="name-non-ascii-letter"),
        pytest.param(lambda r: r["scenarios"][0].update(name="x\u00b2"), "scenarios[0].name", id="name-superscript-digit"),
        (lambda r: r["scenarios"][0]["initial"].update(type="mystery"), "scenarios[0].initial.type"),
        (lambda r: r["scenarios"][0]["window"].update(t1=-1.0), "scenarios[0].window.t1"),
        (lambda r: r["scenarios"][0].update(controls={"dt": 0.1}), "scenarios[0].controls"),
        (lambda r: r.update(checkers=[{"id": "sorcery"}]), "checkers[0].id"),
        (lambda r: r.update(checkers=[{"id": "decay"}]), "checkers[0].T_blow"),
        (lambda r: r.update(seed="zero"), "seed"),
        *(
            pytest.param(lambda r, k=key: r.update({k: {"a": 1}}), key, id=f"{key}-not-a-list")
            for key in ("p_values", "scenarios", "checkers")
        ),
        # where a sweep writes is the caller's, not the experiment's
        pytest.param(lambda r: r.update(out_dir="runs"), "<root>", id="out-dir-unknown-root-key"),
        (lambda r: r["manifold"].update(kind="circle", n=2), "manifold.n"),
        (lambda r: r["manifold"].update(n=2), "manifold.n"),
        (lambda r: r["manifold"].update(kind="sphere_zonal", n=1), "manifold.n"),
        (lambda r: r["scenarios"][0].update(controls={"dt_max": "x"}), "scenarios[0].controls.dt_max"),
        (lambda r: r["scenarios"][0].update(controls={"dt_max": 10**400}), "scenarios[0].controls.dt_max"),
        (lambda r: r["scenarios"][0].update(controls={"snapshot_every": 0}), "scenarios[0].controls.snapshot_every"),
        (lambda r: r["scenarios"][0].update(controls={"snapshot_every": 2.0}), "scenarios[0].controls.snapshot_every"),
        (lambda r: r.update(checkers=[{"id": "gradient", "variant": "global", "D": "big"}]), "checkers[0].D"),
        (lambda r: r.update(checkers=[{"id": "gradient", "variant": "sideways", "D": 1.0}]), "checkers[0].variant"),
        (lambda r: r.update(checkers=[{"id": "decay", "T_blow": 1.0, "c_cap": [2.0]}]), "checkers[0].c_cap"),
        pytest.param(
            lambda r: r.update(checkers=[{"id": "triviality", "c_cap": True}]), "checkers[0].c_cap", id="triviality-c-cap-bool"
        ),
        # a cap below 0 can never pass, since every c_fit is at least 0
        *(
            pytest.param(lambda r, c=checker: r.update(checkers=[c]), f"checkers[0].{key}", id=f"{c_id}-negative-cap")
            for c_id, key, checker in (
                ("decay", "c_cap", {"id": "decay", "T_blow": 50.0, "c_cap": -1}),
                ("universal", "c_cap", {"id": "universal", "T0": -1.0, "T": 60.0, "c_cap": -0.5}),
                ("gradient", "c_cap", {"id": "gradient", "variant": "ancient", "D": 1.0, "c_cap": -1e-300}),
                ("triviality", "c_cap", {"id": "triviality", "c_cap": -1}),
            )
        ),
        (lambda r: r.update(checkers=[{"id": "positivity", "c_cap": 2.0}]), "checkers[0]"),
        (lambda r: r.update(checkers=[{"id": "decay", "T_blow": 1.0, "D": 1.0}]), "checkers[0]"),
        # the curvature bound is the manifold's and the gradient windows end
        # at the last snapshot; the triviality cap is c_cap like every other
        *(
            pytest.param(lambda r, c=checker: r.update(checkers=[c]), "checkers[0]", id=f"{c_id}-unknown-{key}")
            for c_id, key, checker in (
                ("gradient", "K", {"id": "gradient", "variant": "ancient", "D": 1.0, "K": 0.0}),
                ("gradient", "T0", {"id": "gradient", "variant": "global", "D": 1.0, "T": 0.5, "T0": 0.2}),
                (
                    "lower_bound",
                    "K",
                    {"id": "lower_bound", "delta": 0.5, "L": 1.0, "A": 8.0, "r0": 1.0, "C_delta_cap": 1.0, "K": 0.0},
                ),
                ("triviality", "rate_tol", {"id": "triviality", "rate_tol": 0.2}),
            )
        ),
        # an empty window (T0, T) holds no snapshot, so every entry would error
        *(
            pytest.param(
                lambda r, T=T: r.update(checkers=[{"id": "universal", "T0": 5.0, "T": T}]),
                "checkers[0].T",
                id=f"universal-T-{name}-T0",
            )
            for name, T in (("below", 1.0), ("at", 5.0))
        ),
        # explicit ids keep the generated ids of the rows above unchanged
        pytest.param(lambda r: r.update(p_value=[2.0]), "<root>", id="unknown-root-key"),
        pytest.param(lambda r: r["manifold"].update(resolutoin=64), "manifold", id="unknown-manifold-key"),
        # a field the object's own spec does not name is reported before a
        # missing required field, whether or not another entry names it
        pytest.param(
            lambda r: r.update(checkers=[{"id": "decay", "D": 1.0}]), "checkers[0]", id="checker-field-of-another-id"
        ),
        pytest.param(
            lambda r: r["scenarios"][0].update(initial={"type": "constant", "eps": 1.0}),
            "scenarios[0].initial",
            id="initial-field-of-another-recipe",
        ),
        pytest.param(
            lambda r: r["manifold"].update(resolutoin=r["manifold"].pop("resolution")),
            "manifold",
            id="manifold-misspelt-resolution",
        ),
        pytest.param(
            lambda r: r["manifold"].update(resolution=experiment.MAX_RESOLUTION + 1),
            "manifold.resolution",
            id="resolution-cap",
        ),
        pytest.param(
            lambda r: r["manifold"].update(resolution=64.0), "manifold.resolution", id="resolution-float"
        ),
        pytest.param(lambda r: r["manifold"].update(size=float("inf")), "manifold.size", id="size-infinite"),
        pytest.param(
            lambda r: r["scenarios"][0].update(contrls={"dt_max": 0.1}), "scenarios[0]", id="unknown-scenario-key"
        ),
        pytest.param(
            lambda r: r["scenarios"][0]["window"].update(t2=1.0), "scenarios[0].window", id="unknown-window-key"
        ),
        pytest.param(
            lambda r: r["scenarios"][0]["window"].update(t0="0"), "scenarios[0].window.t0", id="window-t0-string"
        ),
        pytest.param(
            lambda r: r["scenarios"][0]["initial"].update(eps=0.1), "scenarios[0].initial", id="unknown-initial-key"
        ),
        pytest.param(
            lambda r: r["scenarios"][0]["initial"].pop("value"),
            "scenarios[0].initial.value",
            id="initial-missing-field",
        ),
        pytest.param(
            lambda r: r["scenarios"][0]["initial"].update(type=["constant"]),
            "scenarios[0].initial.type",
            id="initial-type-list",
        ),
        pytest.param(
            lambda r: r["scenarios"][0].update(
                initial={"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -1.0, "eps": 0.1, "mode": True}
            ),
            "scenarios[0].initial.mode",
            id="mode-bool",
        ),
        pytest.param(
            lambda r: r["scenarios"][0].update(initial={"type": "random_uniform", "low": 0.5, "high": 0.1}),
            "scenarios[0].initial.high",
            id="random-high-below-low",
        ),
        pytest.param(
            lambda r: r["scenarios"][0].update(initial={"type": "custom", "path": 3}),
            "scenarios[0].initial.path",
            id="custom-path-number",
        ),
        # entry names carry p as f"{p:g}", which would give two entries one name
        pytest.param(lambda r: r.update(p_values=[2.0, 3.0, 2.0000001]), "p_values[2]", id="p-same-entry-name"),
        pytest.param(lambda r: r.update(seed=True), "seed", id="seed-bool"),
        pytest.param(lambda r: r.update(seed=-1), "seed", id="seed-negative"),
        pytest.param(
            lambda r: r.update(manifold={"kind": "sphere_zonal", "n": 200, "size": 1.0, "resolution": 64}),
            "manifold",
            id="sphere-weights-underflow",
        ),
        pytest.param(
            lambda r: r.update(manifold={"kind": "euclidean_radial", "n": 300, "size": 1.0, "resolution": 64}),
            "manifold",
            id="radial-weights-underflow",
        ),
        pytest.param(lambda r: r["manifold"].update(size=1e308), "manifold", id="size-overflow"),
        pytest.param(lambda r: r["manifold"].update(size=1e-308), "manifold", id="size-underflow"),
        pytest.param(
            lambda r: r["manifold"].update(kind="sphere_zonal", n=2, size=1e-308), "manifold", id="sphere-size-underflow"
        ),
        pytest.param(
            lambda r: r["scenarios"][0].update(controls={"dt_max": -1}), "scenarios[0].controls", id="dt-max-negative"
        ),
        # a setting that is a constant now is an unknown field of its object
        pytest.param(
            lambda r: r["scenarios"][0].update(controls={"blow_threshold": 10}),
            "scenarios[0].controls",
            id="blow-threshold-low",
        ),
        *(
            pytest.param(lambda r, c=controls: r["scenarios"][0].update(controls=c), "scenarios[0].controls", id=name)
            for name, controls in (
                ("blow-threshold-null", {"blow_threshold": None}),
                ("reaction-on-string", {"reaction_on": "no"}),
                ("reaction-on-zero", {"reaction_on": 0}),
            )
        ),
        pytest.param(
            lambda r: (r["manifold"].update(kind="euclidean_radial", n=3), r["scenarios"][0].update(initial={"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1})),
            "scenarios[0].initial",
            id="mode-on-radial",
        ),
        pytest.param(
            lambda r: (r["manifold"].update(resolution=4097), r["scenarios"][0].update(initial={"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1})),
            "scenarios[0].initial",
            id="mode-beyond-dense-spectrum",
        ),
        pytest.param(
            lambda r: r["scenarios"][0].update(initial={**{"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1}, "mode": 64}),
            "scenarios[0].initial",
            id="mode-index-out-of-range",
        ),
        pytest.param(
            lambda r: r["scenarios"][0].update(initial={**{"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1}, "t_start": 0.0}),
            "scenarios[0].initial.t_start",
            id="mode-start-at-blowup",
        ),
        # eps >= 1 would make the datum change sign; ancient_approximation's
        # rule, applied at the recipe as its mode rules are
        pytest.param(
            lambda r: r["scenarios"][0].update(initial={**_NEAR_TRIVIAL, "eps": 1.5}),
            "scenarios[0].initial",
            id="mode-eps-above-1",
        ),
        pytest.param(
            lambda r: r["scenarios"][0].update(initial={"type": "random_uniform", "low": -1e308, "high": 1e308}),
            "scenarios[0].initial.high",
            id="random-range-overflow",
        ),
        pytest.param(
            lambda r: r.update(checkers=[{"id": "gradient", "variant": "local", "D": 1.0, "T": 1.0}]),
            "checkers[0].R",
            id="gradient-local-without-R",
        ),
        pytest.param(
            lambda r: r.update(checkers=[{"id": "gradient", "variant": "local", "D": 1.0, "R": 1.0}]),
            "checkers[0].T",
            id="gradient-local-without-T",
        ),
        pytest.param(
            lambda r: r.update(checkers=[{"id": "gradient", "variant": "global", "D": 1.0}]),
            "checkers[0].T",
            id="gradient-global-without-T",
        ),
        # the unit sphere holds no ball of radius 10, so every entry's local
        # check would error
        pytest.param(
            lambda r: (
                r["manifold"].update(kind="sphere_zonal", n=2, size=1.0, resolution=16),
                r.update(checkers=[{"id": "gradient", "variant": "local", "D": 1.0, "R": 10.0, "T": 1.0}]),
            ),
            "checkers[0].R",
            id="gradient-local-ball-beyond-diameter",
        ),
        # a window field the variant does not read
        *(
            pytest.param(lambda r, c=checker: r.update(checkers=[c]), "checkers[0]", id=f"gradient-{variant}-with-{key}")
            for variant, key, checker in (
                ("ancient", "R", {"id": "gradient", "variant": "ancient", "D": 1.0, "R": 5.0}),
                ("ancient", "T", {"id": "gradient", "variant": "ancient", "D": 1.0, "T": 3.0}),
                ("global", "R", {"id": "gradient", "variant": "global", "D": 1.0, "R": 5.0, "T": 3.0}),
            )
        ),
        pytest.param(
            lambda r: r.update(checkers=[{"id": "gradient", "variant": ["local"], "D": 1.0}]),
            "checkers[0].variant",
            id="gradient-variant-list",
        ),
        pytest.param(
            lambda r: r.update(checkers=[{"id": "gradient", "variant": "ancient", "D": -1}]),
            "checkers[0]",
            id="gradient-D-negative",
        ),
        pytest.param(
            lambda r: r.update(
                checkers=[{"id": "lower_bound", "delta": 2, "L": 1.0, "A": 5.0, "r0": 0.5, "C_delta_cap": 1.0}]
            ),
            "checkers[0]",
            id="lower-bound-delta-above-1",
        ),
        # the lemma's preconditions that need no trajectory: every entry's
        # check would error
        *(
            pytest.param(
                lambda r, f=fields: (
                    r["manifold"].update(kind="sphere_zonal", n=2, size=1.0, resolution=16),
                    r.update(checkers=[{**_LOWER_BOUND, **f}]),
                ),
                "checkers[0]",
                id=f"lower-bound-{name}",
            )
            for name, fields, _ in _LOWER_BOUND_PRECONDITIONS
        ),
        # the circle and the radial kind have no positive Ricci lower bound,
        # so every entry's triviality check would error
        pytest.param(lambda r: r.update(checkers=[{"id": "triviality"}]), "checkers[0]", id="triviality-on-a-circle"),
        pytest.param(
            lambda r: (r["manifold"].update(kind="euclidean_radial", n=3), r.update(checkers=[{"id": "triviality"}])),
            "checkers[0]",
            id="triviality-on-the-radial-kind",
        ),
        pytest.param(
            lambda r: r.update(checkers=[{"id": "triviality", "osc_floor": -1}]),
            "checkers[0]",
            id="triviality-osc-floor-negative",
        ),
        # the degenerate gradient branch's cap is the constant GRAD_TOL
        pytest.param(
            lambda r: r.update(checkers=[{"id": "gradient", "variant": "ancient", "D": 0.45, "grad_tol": 0}]),
            "checkers[0]",
            id="gradient-grad-tol-zero",
        ),
        # an object that is not one, at every level (None: the root itself)
        pytest.param(None, "<root>", id="root-not-an-object"),
        pytest.param(lambda r: r.update(manifold=["circle"]), "manifold", id="manifold-not-an-object"),
        pytest.param(lambda r: r.update(scenarios=["warm"]), "scenarios[0]", id="scenario-not-an-object"),
        pytest.param(
            lambda r: r["scenarios"][0].update(initial="constant"),
            "scenarios[0].initial",
            id="initial-not-an-object",
        ),
        pytest.param(
            lambda r: r["scenarios"][0].update(window=[0.0, 0.2]), "scenarios[0].window", id="window-not-an-object"
        ),
        pytest.param(
            lambda r: r["scenarios"][0].update(controls=None), "scenarios[0].controls", id="controls-not-an-object"
        ),
        pytest.param(lambda r: r.update(checkers=["positivity"]), "checkers[0]", id="checker-not-an-object"),
        # every required field, missing
        pytest.param(lambda r: r.pop("manifold"), "<root>.manifold", id="missing-manifold"),
        *(
            pytest.param(lambda r, k=key: r["manifold"].pop(k), f"manifold.{key}", id=f"missing-manifold-{key}")
            for key in ("kind", "n", "size", "resolution")
        ),
        *(
            pytest.param(
                lambda r, k=key: r["scenarios"][0].pop(k), f"scenarios[0].{key}", id=f"missing-scenario-{key}"
            )
            for key in ("name", "initial", "window")
        ),
        pytest.param(
            lambda r: r["scenarios"][0]["initial"].pop("type"), "scenarios[0].initial.type", id="missing-initial-type"
        ),
        *(
            pytest.param(
                lambda r, k=key: r["scenarios"][0]["window"].pop(k),
                f"scenarios[0].window.{key}",
                id=f"missing-window-{key}",
            )
            for key in ("t0", "t1")
        ),
        pytest.param(lambda r: r.update(checkers=[{"T_blow": 1.0}]), "checkers[0].id", id="missing-checker-id"),
        # the static profile is radial, of dimension at least 3
        pytest.param(
            lambda r: (r["manifold"].update(kind="sphere_zonal", n=3), r["scenarios"][0].update(initial={"type": "talenti"})),
            "scenarios[0].initial.type",
            id="talenti-on-a-sphere",
        ),
        # one checker id twice: the report would keep only the last record
        pytest.param(
            lambda r: r.update(checkers=[{"id": "decay", "T_blow": 5.0}, {"id": "decay", "T_blow": 50.0, "c_cap": 1e-3}]),
            "checkers[1]",
            id="checker-same-id",
        ),
        # above 1, but within the exponent floor every run refuses
        pytest.param(lambda r: r.update(p_values=[2.0, 1.0000000001]), "p_values[1]", id="p-within-floor-of-1"),
        # Python's JSON reader accepts Infinity; every entry would then error
        # or run on all-zero data, and p would reach the report as a bare
        # Infinity that strict JSON parsers refuse
        *(
            pytest.param(lambda r, v=v, set_=set_: set_(r, v), path, id=f"{name}-{v}")
            for v in (float("inf"), float("-inf"))
            for name, set_, path in (
                ("constant-value", lambda r, v: r["scenarios"][0]["initial"].update(value=v), "scenarios[0].initial.value"),
                ("window-t0", lambda r, v: r["scenarios"][0]["window"].update(t0=v), "scenarios[0].window.t0"),
                ("window-t1", lambda r, v: r["scenarios"][0]["window"].update(t1=v), "scenarios[0].window.t1"),
                *(
                    (
                        f"mode-{key}",
                        lambda r, v, k=key: r["scenarios"][0].update(
                            initial={"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1, k: v}
                        ),
                        f"scenarios[0].initial.{key}",
                    )
                    for key in ("eps", "T_blow")
                ),
                ("p", lambda r, v: r.update(p_values=[2.0, v]), "p_values[1]"),
                ("c-cap", lambda r, v: r.update(checkers=[{"id": "decay", "T_blow": 5.0, "c_cap": v}]), "checkers[0].c_cap"),
                ("dt-max", lambda r, v: r["scenarios"][0].update(controls={"dt_max": v}), "scenarios[0].controls.dt_max"),
            )
        ),
    ],
)
def test_validate_config_field_paths(mutate, path):
    raw = base_raw()
    if mutate is None:
        raw = [raw]
    else:
        mutate(raw)
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.field_path == path


@pytest.mark.parametrize(
    "fields, message", [case[1:] for case in _LOWER_BOUND_PRECONDITIONS], ids=[case[0] for case in _LOWER_BOUND_PRECONDITIONS]
)
def test_check_refuses_a_lower_bound_that_needs_no_trajectory_to_fail(tmp_path, capsys, fields, message):
    raw = base_raw()
    raw["manifold"] = {"kind": "sphere_zonal", "n": 2, "size": 1.0, "resolution": 16}
    raw["checkers"] = [{**_LOWER_BOUND, **fields}]
    assert cli_main(["check", write_cfg(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == f"config error: checkers[0]: {message}\n"
    # the benchmark's entry: its ball A r0 = 2.5 fits, and its minimum is 4.12
    raw["checkers"] = [{**_LOWER_BOUND, "A": 5.0, "r0": 0.5, "T": 0.01}]
    assert cli_main(["check", write_cfg(tmp_path, raw)]) == 0


def test_check_refuses_a_near_trivial_datum_or_a_local_ball_that_cannot_run(tmp_path, capsys):
    # both used to pass check, then fail every entry: eps 1.5 gave data that
    # change sign, and the local gradient ball errored in each check
    raw = base_raw()
    raw["scenarios"][0].update(initial={**_NEAR_TRIVIAL, "eps": 1.5}, window={"t0": -12.0, "t1": -11.9})
    assert cli_main(["check", write_cfg(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == "config error: scenarios[0].initial: eps must be in [0, 1), got 1.5\n"
    raw["scenarios"][0]["initial"]["eps"] = 0.05
    raw["manifold"] = {"kind": "sphere_zonal", "n": 2, "size": 1.0, "resolution": 16}
    raw["checkers"] = [{"id": "gradient", "variant": "local", "D": 1.0, "R": 10.0, "T": 1.0}]
    assert cli_main(["check", write_cfg(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == "config error: checkers[0].R: ball exceeds the manifold diameter\n"
    # the ball of radius pi is the whole unit sphere
    raw["checkers"][0]["R"] = 3.14159
    assert cli_main(["check", write_cfg(tmp_path, raw)]) == 0


@pytest.mark.parametrize(
    "kind, n, fields",
    [
        pytest.param("circle", 1, {"eps": -0.1}, id="eps-negative"),
        pytest.param("circle", 1, {"eps": 1.0}, id="eps-1"),
        pytest.param("circle", 1, {"eps": 1.5}, id="eps-above-1"),
        pytest.param("circle", 1, {"mode": 64}, id="mode-64-on-64-nodes"),
        pytest.param("euclidean_radial", 3, {}, id="mode-on-the-radial-kind"),
    ],
)
def test_the_recipe_refuses_a_near_trivial_datum_as_ancient_approximation_does(kind, n, fields):
    # one rule, two callers: the run's refusal and the config's read alike
    datum = {**_NEAR_TRIVIAL, **fields}
    m = build_manifold(kind, n, 6.3, 64)
    with pytest.raises(ValueError) as run_err:
        ancient_approximation(m, 2.0, datum["T_blow"], datum["t_start"], datum["eps"], datum["mode"])
    raw = base_raw()
    raw["manifold"] = {"kind": kind, "n": n, "size": 6.3, "resolution": 64}
    raw["scenarios"][0]["initial"] = datum
    with pytest.raises(ConfigError) as config_err:
        validate_config(raw)
    assert str(config_err.value) == f"scenarios[0].initial: {run_err.value}"


def test_checker_caps_down_to_zero_are_accepted():
    # the least cap a fit of 0 passes is c_cap 0, the triviality check's too
    raw = base_raw()
    raw["manifold"] = {"kind": "sphere_zonal", "n": 2, "size": 1.0, "resolution": 16}
    raw["checkers"] = [{"id": "decay", "T_blow": 50.0, "c_cap": 0}, {"id": "triviality", "c_cap": 0}]
    assert [kwargs for _, kwargs in validate_config(raw).checkers][0] == {"T_blow": 50.0, "c_cap": 0.0}
    raw["checkers"][1]["c_cap"] = -1e-10
    with pytest.raises(ConfigError, match=r"^checkers\[1\]\.c_cap: c_cap must be nonnegative, got "):
        validate_config(raw)


def test_config_schema_keys(monkeypatch):
    # every key a config may set, level by level, so that a new setting is an
    # edit here; the fixed-shape objects' specs are read as validation passes
    # them to _check_fields, the recipes' and checkers' from their tables
    specs = {}
    check_fields = experiment._check_fields

    def recording(d, spec, path, *args, **kwargs):
        specs[path] = sorted(spec)
        return check_fields(d, spec, path, *args, **kwargs)

    monkeypatch.setattr(experiment, "_check_fields", recording)
    validate_config(base_raw())
    assert specs == {
        "<root>": ["checkers", "manifold", "p_values", "scenarios", "seed"],
        "manifold": ["n", "resolution", "size"],
        "scenarios[0]": ["controls", "initial", "name", "window"],
        "scenarios[0].initial": ["value"],
        "scenarios[0].window": ["t0", "t1"],
        "scenarios[0].controls": ["dt_max", "snapshot_every"],
        "checkers[0]": [],
    }
    # besides the "type" that names the recipe
    assert {name: sorted(recipe.fields) for name, recipe in experiment._RECIPES.items()} == {
        "constant": ["value"],
        "trivial_plus_mode": ["T_blow", "eps", "mode", "t_start"],
        "talenti": [],
        "random_uniform": ["high", "low"],
        "custom": ["path"],
    }
    # besides the "id" that names the checker
    assert {cid: sorted(checker.fields) for cid, checker in _CHECKERS.items()} == {
        "positivity": [],
        "gradient": ["D", "R", "T", "c_cap", "variant"],
        "decay": ["T_blow", "c_cap"],
        "universal": ["T", "T0", "c_cap"],
        "lower_bound": ["A", "C_delta_cap", "L", "T", "delta", "r0"],
        "triviality": ["c_cap"],
    }


def test_validate_config_names_no_recipe_or_checker():
    # what one recipe or one checker needs lives in its table entry, its
    # bind step among it, so validation's own body names none of them
    tree = ast.parse(textwrap.dedent(inspect.getsource(experiment.validate_config)))
    texts = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not texts & {*experiment._RECIPES, *_CHECKERS}


def test_validate_config_duplicate_scenario_names():
    raw = base_raw()
    raw["scenarios"].append(copy.deepcopy(raw["scenarios"][0]))
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.field_path == "scenarios[1].name"


def test_validate_config_empty_sweep_is_legal():
    raw = base_raw()
    raw["scenarios"] = []
    raw["p_values"] = []
    cfg = validate_config(raw)
    assert cfg.scenarios == () and cfg.p_values == ()


def test_config_hash_ignores_key_order():
    raw = base_raw()
    reordered = json.loads(json.dumps(raw, sort_keys=True))
    reordered["seed"] = reordered.pop("seed")  # move a key to the end
    assert config_hash(raw) == config_hash(reordered)
    raw2 = base_raw()
    raw2["seed"] = 1
    assert config_hash(raw) != config_hash(raw2)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_raw()))
    cfg = load_config(str(path))
    assert cfg.built_manifold.node_count == 64
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def custom_raw(path):
    raw = base_raw()
    raw["scenarios"][0]["initial"] = {"type": "custom", "path": str(path)}
    return raw


def test_custom_recipe_hashes_its_content(tmp_path):
    # a config without a custom file hashes its JSON text alone, as it always has
    assert validate_config(base_raw()).config_hash == config_hash(base_raw())
    assert config_hash(base_raw()) == "4036e14b72aaa8c536b244b3245ecdcb58db6a5d87475933040d36e224c0a3d6"
    path = tmp_path / "u0.txt"
    path.write_text("\n".join(["0.5"] * 64) + "\n")
    first = validate_config(custom_raw(path))
    assert first.config_hash != config_hash(custom_raw(path))
    assert validate_config(custom_raw(path)).config_hash == first.config_hash
    path.write_text("\n".join(["0.25"] * 64) + "\n")
    second = validate_config(custom_raw(path))
    assert second.config_hash != first.config_hash
    # the run uses the values that were hashed, whatever the file holds now
    path.write_text("\n".join(["9.0"] * 64) + "\n")
    report = run_experiment(first, out_dir=str(tmp_path / "out"))
    assert report.config_hash == first.config_hash
    assert report.entries[0]["status"] == "ok"
    assert report.entries[0]["trajectory"]["max_abs_value"] < 1.0
    assert os.path.basename(report.path) == f"report_{first.config_hash[:12]}.json"


def test_custom_recipe_refuses_missing_and_mis_sized_files(tmp_path, capsys):
    short = tmp_path / "short.txt"
    short.write_text("0.5\n" * 63)
    cases = [(tmp_path / "missing.txt", "No such file"), (short, "63 values, manifold has 64 nodes")]
    for bad in ("nan", "inf", "-inf"):  # each entry would error with "initial data must be finite"
        non_finite = tmp_path / f"{bad}.txt"
        non_finite.write_text("0.5\n" * 31 + f"{bad}\n" + "0.5\n" * 32)
        cases.append((non_finite, "holds NaN or an infinity"))
    for path, message in cases:
        with pytest.raises(ConfigError, match=message) as err:
            validate_config(custom_raw(path))
        assert err.value.field_path == "scenarios[0].initial.path"
        cfg_path = write_cfg(tmp_path, custom_raw(path))
        assert cli_main(["check", cfg_path]) == 2
        assert cli_main(["run", cfg_path, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: scenarios[0].initial.path: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text", ["", " \n\t\n", "# no values\n  # none here either\n"], ids=["empty", "blank", "comments"]
)
def test_custom_recipe_refuses_a_file_with_no_values(tmp_path, text):
    # refused before loadtxt, which would warn with a stream's address first:
    # stderr holds the one config-error line
    path = tmp_path / "u0.txt"
    path.write_text(text)
    cfg_path = write_cfg(tmp_path, custom_raw(path))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "semiheat.cli", "check", cfg_path], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "config error: scenarios[0].initial.path: custom initial data has 0 values, manifold has 64 nodes\n"
    )


def test_run_experiment_cardinality_and_files(tmp_path):
    raw = base_raw()
    raw["p_values"] = [1.5, 2.0, 3.0]
    raw["scenarios"].append(
        {
            "name": "loud",
            "initial": {"type": "constant", "value": 2.0},
            "window": {"t0": 0.0, "t1": 0.1},
        }
    )
    cfg = validate_config(raw)
    report = run_experiment(cfg, out_dir=str(tmp_path))
    assert len(report.entries) == 6
    assert report.all_passed
    names = [e["name"] for e in report.entries]
    assert names[0] == "warm__p1.5" and names[-1] == "loud__p3"
    assert report.regimes["by_p"]["2"] == "low_dimension_all_subcritical"
    assert os.path.exists(report.path)
    assert os.path.exists(tmp_path / "warm__p2_positivity.csv")
    header = (tmp_path / "warm__p2_positivity.csv").read_text().splitlines()[0]
    assert header == "t,lhs,structural_rhs,ratio"


def test_run_experiment_empty_sweep(tmp_path):
    raw = base_raw()
    raw["scenarios"] = []
    report = run_experiment(validate_config(raw), out_dir=str(tmp_path))
    assert report.entries == []
    assert report.all_passed


def test_run_experiment_isolates_scenario_errors(tmp_path):
    raw = base_raw()
    raw["p_values"] = [3.0]
    # constant 0.5 at p = 3 blows up at t = 2, where the step stops advancing t
    raw["scenarios"].append(
        {
            "name": "broken",
            "initial": {"type": "constant", "value": 0.5},
            "window": {"t0": 0.0, "t1": 5.0},
        }
    )
    cfg = validate_config(raw)  # passes validation: the failure comes at run time
    report = run_experiment(cfg, out_dir=str(tmp_path))
    by_name = {e["name"]: e for e in report.entries}
    assert by_name["warm__p3"]["status"] == "ok"
    assert by_name["broken__p3"]["status"] == "error"
    assert "no longer advances t" in by_name["broken__p3"]["error"]
    assert not report.all_passed
    assert os.path.exists(report.path)


def test_run_experiment_runs_the_talenti_profile(tmp_path):
    # the static profile of u_t = Delta u + u^5 on the radial model of
    # dimension 3 barely moves over a short window: the largest value the
    # run reports stays within 1e-3 of the profile's peak, 1 at r = 0 (the
    # Strang step moves it by about dt_max per unit time)
    raw = base_raw()
    raw["manifold"] = {"kind": "euclidean_radial", "n": 3, "size": 8.0, "resolution": 128}
    raw["p_values"] = [5.0]
    raw["scenarios"][0].update(initial={"type": "talenti"}, window={"t0": 0.0, "t1": 0.1}, controls={"dt_max": 1e-3})
    report = run_experiment(validate_config(raw), out_dir=str(tmp_path), jobs=1)
    (entry,) = report.entries
    assert entry["status"] == "ok"
    assert abs(entry["trajectory"]["max_abs_value"] - 1.0) < 1e-3
    assert entry["checks"]["positivity"]["passed"]


def test_run_experiment_isolates_checker_errors(tmp_path):
    raw = base_raw()
    # decay with T_blow inside the window errors per entry, not globally
    raw["checkers"] = [{"id": "positivity"}, {"id": "decay", "T_blow": 0.1}]
    report = run_experiment(validate_config(raw), out_dir=str(tmp_path))
    entry = report.entries[0]
    assert entry["status"] == "ok"
    assert entry["checks"]["positivity"]["status"] == "checked"
    assert entry["checks"]["decay"]["status"] == "error"
    assert not report.all_passed


# a check that errors on every entry whose window ends before t = 100
_EMPTY_UNIVERSAL = {"id": "universal", "T0": 100.0, "T": 200.0}

_P_NEAR_1 = 1.0 + 2e-9  # above the exponent floor 1 + 1e-9; 1/(p-1) is 5e8


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "size, p, checker",
    [
        pytest.param(1.0, 40.0, {"id": "gradient", "variant": "ancient", "D": 1e9}, id="gradient-D-power-overflows"),
        pytest.param(1.0, 3.0, {**_LOWER_BOUND, "r0": 1e-200}, id="lower-bound-r0-squared-is-zero"),
        pytest.param(1.0, _P_NEAR_1, _LOWER_BOUND, id="lower-bound-p-near-1"),
        pytest.param(0.01, _P_NEAR_1, {"id": "triviality"}, id="triviality-p-near-1"),
    ],
)
def test_a_checks_float_overflow_is_that_checks_error(tmp_path, capsys, size, p, checker, jobs):
    # an OverflowError or ZeroDivisionError from Python-float maths in a
    # checker errors that check alone: the other entries and checks are
    # checked and the report is written, in a worker as in the runner
    raw = base_raw()
    raw["manifold"] = {"kind": "sphere_zonal", "n": 2, "size": size, "resolution": 16}
    raw["p_values"] = [2.0, p]
    raw["scenarios"][0]["initial"]["value"] = 0.5
    raw["checkers"] = [{"id": "positivity"}, checker]
    cfg_path = write_cfg(tmp_path, raw)
    assert cli_main(["check", cfg_path]) == 0
    out = tmp_path / "out"
    assert cli_main(["run", cfg_path, "--out-dir", str(out), "--jobs", jobs]) == 1
    (report_name,) = [f for f in os.listdir(out) if f.startswith("report_")]
    entries = json.loads((out / report_name).read_text())["entries"]
    assert [entry["status"] for entry in entries] == ["ok", "ok"]
    assert [entry["checks"]["positivity"]["status"] for entry in entries] == ["checked", "checked"]
    assert entries[1]["checks"][checker["id"]]["status"] == "error"
    # the text names the type: an OverflowError's own reads
    # "(34, 'Numerical result out of range')"
    assert entries[1]["checks"][checker["id"]]["error"].startswith(("OverflowError: ", "ZeroDivisionError: "))


def test_run_experiment_records_a_nan_constant_as_an_error(tmp_path, monkeypatch):
    name = _CHECKERS["positivity"].function
    check = getattr(experiment, name)

    def nan_ratios(traj, **kwargs):
        rep = check(traj, **kwargs)
        ratio = np.full_like(rep.ratio, np.nan)
        return estimates._finalize(
            inequality_id=rep.inequality_id, times=rep.times, lhs=rep.lhs, rhs=rep.rhs, ratio=ratio,
            c_fit=float(np.max(ratio)), c_cap=rep.c_cap,
        )

    monkeypatch.setattr(experiment, name, nan_ratios)
    report = run_experiment(validate_config(base_raw()), out_dir=str(tmp_path))
    assert report.entries[0]["checks"]["positivity"] == {"status": "error", "error": "fitted constant is NaN"}
    assert not report.all_passed


def test_run_experiment_failing_cap_reported(tmp_path):
    raw = base_raw()
    raw["checkers"] = [{"id": "decay", "T_blow": 1.0, "c_cap": 1e-6}]
    report = run_experiment(validate_config(raw), out_dir=str(tmp_path))
    rep = report.entries[0]["checks"]["decay"]
    assert rep["status"] == "checked"
    assert not rep["passed"]
    assert not report.all_passed


def test_run_experiment_deterministic_modulo_timing(tmp_path):
    raw = base_raw()
    raw["scenarios"][0]["initial"] = {"type": "random_uniform", "low": 0.1, "high": 0.5}
    cfg = validate_config(raw)
    a = run_experiment(cfg, out_dir=str(tmp_path / "a")).to_json_dict()
    b = run_experiment(cfg, out_dir=str(tmp_path / "b")).to_json_dict()
    a.pop("timing")
    b.pop("timing")
    assert a == b


def test_run_experiment_builds_one_manifold(tmp_path, monkeypatch):
    built = []

    def counting_build(*args):
        built.append(args)
        return build_manifold(*args)

    monkeypatch.setattr(experiment, "build_manifold", counting_build)
    raw = base_raw()
    raw["p_values"] = [1.5, 2.0, 3.0]
    raw["scenarios"].append(
        {
            "name": "random",
            "initial": {"type": "random_uniform", "low": 0.1, "high": 0.5},
            "window": {"t0": 0.0, "t1": 0.1},
        }
    )
    report = run_experiment(validate_config(raw), out_dir=str(tmp_path))
    assert len(report.entries) == 6
    assert [e["status"] for e in report.entries] == ["ok"] * 6
    assert built == [("circle", 1, 6.3, 64)]


def test_run_ignores_changes_to_the_raw_config_after_validation(tmp_path):
    raw = base_raw()
    raw["p_values"] = [2.0, 3.0]
    raw["scenarios"][0]["initial"] = {"type": "random_uniform", "low": 0.1, "high": 0.5}
    raw["scenarios"][0]["controls"] = {"dt_max": 0.02}
    raw["checkers"] = [
        {"id": "decay", "T_blow": 5.0, "c_cap": 20.0},
        {"id": "gradient", "variant": "global", "D": 10.0, "T": 0.1},
    ]
    expected = run_experiment(validate_config(copy.deepcopy(raw)), out_dir=str(tmp_path / "a")).to_json_dict()
    cfg = validate_config(raw)
    scenario = raw["scenarios"][0]
    scenario["name"] = "renamed"
    scenario["initial"].update(low=5.0, high=9.0)
    scenario["window"]["t1"] = 0.1
    scenario["controls"]["dt_max"] = 0.001
    raw["checkers"][0]["T_blow"] = 0.05
    raw["checkers"][1].update(variant="local", D=-1.0)
    raw["checkers"].append({"id": "positivity"})
    got = run_experiment(cfg, out_dir=str(tmp_path / "b")).to_json_dict()
    expected.pop("timing")
    got.pop("timing")
    assert got == expected


def test_random_recipe_seed_sensitivity(tmp_path):
    raw = base_raw()
    raw["scenarios"][0]["initial"] = {"type": "random_uniform", "low": 0.1, "high": 0.5}
    first = run_experiment(validate_config(raw), out_dir=str(tmp_path / "s0"))
    raw2 = copy.deepcopy(raw)
    raw2["seed"] = 7
    second = run_experiment(validate_config(raw2), out_dir=str(tmp_path / "s7"))
    va = first.entries[0]["trajectory"]["max_abs_value"]
    vb = second.entries[0]["trajectory"]["max_abs_value"]
    assert va != vb


def test_emit_plot_data(tmp_path):
    cfg = validate_config(base_raw())
    report = run_experiment(cfg, out_dir=str(tmp_path))
    path = emit_plot_data(report, "positivity", out_dir=str(tmp_path))
    assert os.path.dirname(path) == str(tmp_path)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "scenario,p,t,lhs,structural_rhs,ratio"
    expected_rows = report.entries[0]["checks"]["positivity"]["rows"]
    assert expected_rows > 0
    assert len(lines) == 1 + expected_rows
    first_bytes = Path(path).read_bytes()
    assert emit_plot_data(report, "positivity", out_dir=str(tmp_path)) == path
    assert Path(path).read_bytes() == first_bytes
    with pytest.raises(ValueError, match="unknown checker id"):
        emit_plot_data(report, "sorcery", out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="not present"):
        emit_plot_data(report, "decay", out_dir=str(tmp_path))


def test_emit_plot_data_header_only_for_empty_report(tmp_path):
    raw = base_raw()
    raw["scenarios"] = []
    report = run_experiment(validate_config(raw), out_dir=str(tmp_path))
    path = emit_plot_data(report, "positivity", out_dir=str(tmp_path))
    lines = Path(path).read_text().splitlines()
    assert lines == ["scenario,p,t,lhs,structural_rhs,ratio"]


def reference_plot_bytes(report, which, reports):
    """The plot CSV as it was formatted from the per-snapshot arrays of each
    checked entry; ``reports`` holds the EstimateReports of checker
    ``which`` in run order."""
    reports = iter(reports)
    out = io.StringIO()
    out.write("scenario,p,t,lhs,structural_rhs,ratio\n")
    for entry in report.entries:
        rep = entry.get("checks", {}).get(which)
        if rep is None or rep.get("status") != "checked":
            continue
        rep = next(reports)
        for t, a, b, r in zip(rep.times.tolist(), rep.lhs.tolist(), rep.rhs.tolist(), rep.ratio.tolist()):
            out.write(
                f"{entry['scenario']},{repr(float(entry['p']))},"
                f"{repr(float(t))},{repr(float(a))},{repr(float(b))},{repr(float(r))}\n"
            )
    return out.getvalue().encode("utf-8")


def capture_reports(monkeypatch):
    """Wrap every check_* function the runner calls; returns checker id ->
    the EstimateReports it returned, in run order."""
    captured = {cid: [] for cid in _CHECKERS}
    for cid, spec in _CHECKERS.items():
        original = getattr(experiment, spec.function)

        def wrapped(*args, _original=original, _cid=cid, **kwargs):
            rep = _original(*args, **kwargs)
            captured[_cid].append(rep)
            return rep

        monkeypatch.setattr(experiment, spec.function, wrapped)
    return captured


def sphere_sweep_raw():
    """Three scenarios at two p on a small sphere with all six checkers: an
    ancient run, a run to blow-up and seeded random data."""
    return {
        "manifold": {"kind": "sphere_zonal", "n": 2, "size": 1.0, "resolution": 32},
        "p_values": [1.5, 3.0],
        "scenarios": [
            {
                "name": "ancient",
                "initial": {"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1},
                "window": {"t0": -12.0, "t1": -1.0},
            },
            {"name": "warm", "initial": {"type": "constant", "value": 0.5}, "window": {"t0": 0.0, "t1": 5.0}},
            {
                "name": "random",
                "initial": {"type": "random_uniform", "low": 0.1, "high": 0.6},
                "window": {"t0": 0.0, "t1": 0.5},
            },
        ],
        "checkers": [
            {"id": "positivity"},
            {"id": "gradient", "variant": "global", "D": 1e9, "T": 0.5},
            {"id": "decay", "T_blow": 5.0},
            {"id": "universal", "T0": -13.0, "T": 6.0},
            {"id": "lower_bound", "delta": 0.5, "L": 1.0, "A": 5.0, "r0": 0.5, "C_delta_cap": 1.0, "T": 0.01},
            {"id": "triviality"},
        ],
    }


def test_plot_data_matches_the_array_formatting(tmp_path, monkeypatch):
    captured = capture_reports(monkeypatch)
    raw = sphere_sweep_raw()
    out = tmp_path / "out"
    # one job: the checks run in this process, where the wrappers see them
    report = run_experiment(validate_config(raw), out_dir=str(out), jobs=1)
    on_disk = json.loads(Path(report.path).read_text())
    # the returned report is the file's, its timing block included
    assert on_disk == report.to_json_dict()
    for entry in on_disk["entries"]:
        for cid, rep in entry["checks"].items():
            assert rep["status"] == "checked"
            assert not {"times", "lhs", "rhs", "ratio", "extras"} & set(rep)
            assert rep["csv"] == f"{entry['name']}_{cid}.csv"
            lines = (out / rep["csv"]).read_bytes().decode("utf-8").splitlines()
            assert lines[0] == "t,lhs,structural_rhs,ratio"
            assert rep["rows"] == len(lines) - 1
            assert rep["sha256"] == hashlib.sha256((out / rep["csv"]).read_bytes()).hexdigest()
    for cid in _CHECKERS:
        assert sum(rep.times.size for rep in captured[cid]) > 0, cid
        path = emit_plot_data(report, cid, out_dir=str(tmp_path / "plots"))
        assert Path(path).read_bytes() == reference_plot_bytes(report, cid, captured[cid]), cid
        # a report read back from disk finds its entry CSVs through its directory
        loaded = RunReport.from_json_dict(on_disk)
        loaded.directory = str(out)
        again = emit_plot_data(loaded, cid, out_dir=str(tmp_path / "again"))
        assert Path(again).read_bytes() == Path(path).read_bytes()


def test_plot_data_keeps_non_finite_and_signed_zero_values(tmp_path, monkeypatch):
    made = EstimateReport(
        "positivity_min_ode",
        times=np.array([-0.0, 5e-324, 0.1, 1.0 / 3.0, 1e308]),
        lhs=np.array([0.0, -1e-300, np.inf, -np.inf, 2.5]),
        rhs=np.array([1.0, np.nan, 0.0, -0.0, 1e-17]),
        ratio=np.array([np.inf, np.nan, -0.0, 0.0, -np.inf]),
        c_fit=0.5,
        c_cap=1.0,
    )
    monkeypatch.setattr(experiment, "check_positivity_min_ode", lambda traj, p: made)
    raw = base_raw()
    raw["p_values"] = [2.0, 1.5]
    report = run_experiment(validate_config(raw), out_dir=str(tmp_path))
    assert [e["checks"]["positivity"]["rows"] for e in report.entries] == [5, 5]
    path = emit_plot_data(report, "positivity", out_dir=str(tmp_path))
    got = Path(path).read_bytes()
    assert got == reference_plot_bytes(report, "positivity", [made, made])
    assert b"warm,1.5,-0.0,0.0,1.0,inf\n" in got and b",nan,nan\n" in got


def line_by_line_plot_bytes(report, which):
    """The plot CSV as it was copied line by line: each entry CSV decoded,
    split into lines, and every line after the header put behind the
    scenario and p."""
    out = ["scenario,p,t,lhs,structural_rhs,ratio\n"]
    for entry in report.entries:
        rep = entry.get("checks", {}).get(which)
        if rep is None or rep.get("status") != "checked":
            continue
        lines = (Path(report.directory) / rep["csv"]).read_bytes().decode("utf-8").splitlines(keepends=True)
        out.extend(f"{entry['scenario']},{repr(float(entry['p']))},{line}" for line in lines[1:])
    return "".join(out).encode("utf-8")


def test_plot_data_is_the_line_by_line_copy_at_every_job_count(tmp_path):
    # a real sweep at one and two jobs, read back from its report: each
    # plot CSV is the bytes the line-by-line copy wrote, at either count
    plots = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        report = run_experiment(validate_config(sphere_sweep_raw()), out_dir=str(out), jobs=jobs)
        loaded = RunReport.from_json_dict(json.loads(Path(report.path).read_text()))
        loaded.directory = str(out)
        for cid in _CHECKERS:
            path = emit_plot_data(loaded, cid, out_dir=str(tmp_path / f"plots{jobs}"))
            plots[jobs, cid] = Path(path).read_bytes()
            assert plots[jobs, cid] == line_by_line_plot_bytes(loaded, cid), (jobs, cid)
            assert plots[jobs, cid].count(b"\n") > 1, cid
    assert all(plots[1, cid] == plots[2, cid] for cid in _CHECKERS)


def test_plot_data_copies_an_entry_csv_with_no_rows(tmp_path, monkeypatch):
    empty = np.array([])
    made = EstimateReport("positivity_min_ode", empty, empty, empty, empty, c_fit=0.0, c_cap=1.0)
    monkeypatch.setattr(experiment, "check_positivity_min_ode", lambda traj, p: made)
    report = run_experiment(validate_config(base_raw()), out_dir=str(tmp_path), jobs=1)
    assert report.entries[0]["checks"]["positivity"]["rows"] == 0
    path = emit_plot_data(report, "positivity", out_dir=str(tmp_path))
    assert Path(path).read_bytes() == line_by_line_plot_bytes(report, "positivity") == b"scenario,p,t,lhs,structural_rhs,ratio\n"


@pytest.mark.parametrize(
    "rows, data",
    [
        pytest.param(lambda rows: rows + 1, None, id="more-rows"),
        pytest.param(lambda rows: rows - 1, None, id="fewer-rows"),
        pytest.param(None, lambda data: data[:-1], id="no-final-newline"),
        pytest.param(None, lambda data: b"t,lhs\n" + data.split(b"\n", 1)[1], id="other-header"),
    ],
)
def test_plotdata_refuses_an_entry_csv_not_of_its_recorded_rows(tmp_path, capsys, run_report, rows, data):
    # the sha256 matches, but the bytes are not the header and the report's
    # rows newline-ended rows: exit 2 naming the CSV, no plot CSV written
    report = json.loads(run_report.read_text())
    record = report["entries"][0]["checks"]["positivity"]
    if rows is not None:
        record["rows"] = rows(record["rows"])
    if data is not None:
        changed = data((run_report.parent / record["csv"]).read_bytes())
        record["csv"] = f"changed_{tmp_path.name}.csv"
        (run_report.parent / record["csv"]).write_bytes(changed)
        record["sha256"] = hashlib.sha256(changed).hexdigest()
    path = run_report.with_name(f"rows_{tmp_path.name}.json")
    path.write_text(json.dumps(report))
    assert cli_main(["plotdata", str(path), "positivity", "--out-dir", str(tmp_path / "plots")]) == 2
    csv_path = run_report.parent / record["csv"]
    assert capsys.readouterr().err == f"error: {csv_path}: expected the header and {record['rows']} rows\n"
    assert not (tmp_path / "plots").exists()


def test_entry_csvs_are_the_repr_of_each_value(tmp_path):
    # every value is written as its repr, and csv_rows gives the same
    # texts: repeated times, 0.0 beside -0.0 in one file and across two,
    # values outside orjson's band and NaN.  Each record gets the data-line
    # count and the digest of the file written, the empty report's too
    def made(times, scale):
        times = np.array(times)
        return EstimateReport(
            "x",
            times=times,
            lhs=scale * np.arange(times.size) / 7.0,
            rhs=np.where(times == 0.0, -0.0, times),
            ratio=np.full(times.size, np.nan) if scale < 0 else times / 3.0,
            c_fit=0.5,
            c_cap=1.0,
        )

    reports = [
        made([-0.0, 0.0, 0.1, 0.1, 1.0 / 3.0, -0.0, 1e308], 1.0),
        made([0.0, -0.0, 0.1, 5e-324, 0.1, np.inf, 0.0], -1.0),
        made([], 1.0),
    ]
    files = [({"csv": f"e_{i}.csv"}, rep) for i, rep in enumerate(reports)]
    experiment._write_entry_csvs(str(tmp_path), files)
    for record, rep in files:
        columns = [np.asarray(x).tolist() for x in (rep.times, rep.lhs, rep.rhs, rep.ratio)]
        rows = [[repr(v) for v in row] for row in zip(*columns)]
        assert list(rep.csv_rows()) == rows
        want = "t,lhs,structural_rhs,ratio\n" + "".join(",".join(row) + "\n" for row in rows)
        data = (tmp_path / record["csv"]).read_bytes()
        assert data == want.encode("utf-8")
        assert record["rows"] == data.count(b"\n") - 1 == rep.times.size
        assert record["sha256"] == hashlib.sha256(data).hexdigest()
    assert [record["rows"] for record, _ in files] == [7, 7, 0]
    assert (tmp_path / "e_0.csv").read_text().splitlines()[1:3] == ["-0.0,0.0,-0.0,-0.0", "0.0,0.14285714285714285,-0.0,0.0"]
    assert (tmp_path / "e_1.csv").read_text().splitlines()[1:3] == ["0.0,-0.0,-0.0,nan", "-0.0,-0.14285714285714285,-0.0,nan"]


def forking_raw():
    """Three entries whose CSVs hold about 16k values each: positivity and
    decay write CSVs, universal errors (its window (T0, T) holds no
    snapshot) and writes none."""
    raw = base_raw()
    raw["p_values"] = [1.5, 2.0, 3.0]
    raw["scenarios"][0]["initial"] = {"type": "random_uniform", "low": 0.1, "high": 0.5}
    raw["scenarios"][0]["controls"] = {"dt_max": 1e-4}
    raw["checkers"] = [{"id": "positivity"}, dict(_EMPTY_UNIVERSAL), {"id": "decay", "T_blow": 5.0}]
    return raw


def counted_fork(monkeypatch, failing=()):
    """Patch os.fork to count its calls and to raise, as under a process
    limit, on the calls numbered in ``failing``; returns the call list."""
    forks = []
    fork = os.fork

    def fork_unless_failing():
        forks.append(None)
        if len(forks) in failing:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_unless_failing)
    return forks


def sweep_outputs(out_dir, report):
    """The report on disk minus its timing, and the bytes of every CSV under
    ``out_dir`` (entry CSVs and the plot data of each checker), by name."""
    for cid in ("positivity", "decay"):
        emit_plot_data(report, cid, out_dir=str(out_dir / "plots"))
    with open(report.path) as fh:
        on_disk = json.load(fh)
    on_disk.pop("timing")
    return on_disk, {str(path.relative_to(out_dir)): path.read_bytes() for path in out_dir.rglob("*.csv")}


@pytest.mark.parametrize("fallback", ["second fork fails", "one CPU", "no fork"])
def test_entry_csvs_written_without_a_child_are_the_same_bytes(tmp_path, monkeypatch, fallback):
    # with two CPUs two workers are forked, one per job, and each runs its
    # share of the entries; where a worker cannot be forked, the runner runs
    # its share and writes their CSVs itself, and the report and every CSV
    # are the same either way
    cfg = validate_config(forking_raw())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = counted_fork(monkeypatch)
    forked = run_experiment(cfg, out_dir=str(tmp_path / "forked"))
    assert len(forks) == 2
    jobs = 2
    if fallback == "second fork fails":
        forks = counted_fork(monkeypatch, failing=(2,))
    elif fallback == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        forks = counted_fork(monkeypatch)
        jobs = None
    else:
        monkeypatch.delattr(os, "fork")
        forks = []
    written = run_experiment(cfg, out_dir=str(tmp_path / "written"), jobs=jobs)
    assert len(forks) == (2 if fallback == "second fork fails" else 0)
    assert written.timing["jobs"] == (1 if fallback == "one CPU" else 2)
    expected = sweep_outputs(tmp_path / "forked", forked)
    assert len(expected[1]) == 3 * 2 + 2
    assert sweep_outputs(tmp_path / "written", written) == expected
    assert [e["checks"]["decay"]["rows"] for e in written.entries] == [2001] * 3


def test_run_experiment_keeps_at_most_jobs_workers_alive(tmp_path, monkeypatch):
    # the runner forks its ``jobs`` workers once, each while the earlier
    # ones run, and reaps them in start order, each by its pid; one job
    # forks none
    raw = base_raw()
    raw["p_values"] = [1.5 + 0.25 * k for k in range(12)]
    live, outstanding = set(), []
    fork, waitpid = os.fork, os.waitpid

    def tracked_fork():
        outstanding.append(len(live))
        pid = fork()
        if pid:
            live.add(pid)
        return pid

    def tracked_waitpid(pid, options):
        assert pid > 0, "reaped a child it did not name"
        reaped = waitpid(pid, options)
        live.discard(reaped[0])
        return reaped

    def no_wait(*args):
        raise AssertionError("os.wait reaps any child, not only the runner's own")

    monkeypatch.setattr(os, "fork", tracked_fork)
    monkeypatch.setattr(os, "waitpid", tracked_waitpid)
    monkeypatch.setattr(os, "wait", no_wait)
    for jobs in (1, 2, 3):
        out = tmp_path / f"jobs{jobs}"
        outstanding.clear()
        report = run_experiment(validate_config(raw), out_dir=str(out), jobs=jobs)
        assert outstanding == ([] if jobs == 1 else list(range(jobs)))
        assert not live
        assert report.timing["jobs"] == jobs
        assert [e["name"] for e in report.entries] == [f"warm__p{1.5 + 0.25 * k:g}" for k in range(12)]
        for entry in report.entries:
            record = entry["checks"]["positivity"]
            data = (out / record["csv"]).read_bytes()
            assert record["sha256"] == hashlib.sha256(data).hexdigest()
            assert record["rows"] == data.count(b"\n") - 1
        assert sorted(os.listdir(out)) == sorted(
            [os.path.basename(report.path), *(f"{e['name']}_positivity.csv" for e in report.entries)]
        )


def test_run_experiment_refuses_and_caps_jobs(tmp_path, monkeypatch):
    cfg = validate_config(forking_raw())
    for jobs in (0, -1, True, 1.5, "2"):
        with pytest.raises(ValueError, match="jobs must be a positive integer"):
            run_experiment(cfg, out_dir=str(tmp_path / "refused"), jobs=jobs)
    assert not (tmp_path / "refused").exists()
    # more jobs than entries: one worker per entry
    forks = counted_fork(monkeypatch)
    report = run_experiment(cfg, out_dir=str(tmp_path), jobs=8)
    assert len(forks) == 3
    assert report.timing["jobs"] == 3
    # each entry's evolve and check seconds, measured in its worker
    assert list(report.timing["per_entry"]) == ["warm__p1.5", "warm__p2", "warm__p3"]
    assert all(0.0 < seconds < report.timing["wall_seconds"] for seconds in report.timing["per_entry"].values())
    raw = base_raw()
    raw["scenarios"] = []
    assert run_experiment(validate_config(raw), out_dir=str(tmp_path / "empty"), jobs=4).timing["jobs"] == 1


def test_run_experiment_raises_when_an_entry_csv_writer_fails(tmp_path, monkeypatch, capfd):
    # a directory stands where the second entry's decay CSV goes, in the
    # worker's private directory: its worker fails, the runner raises
    # OSError naming the entry once it reaps it, and no report is written
    # (every child is reaped; the autouse fixture checks)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    write = experiment._write_entry_csvs

    def blocked_at_p2(out_dir, files):
        for record, _ in files:
            if record["csv"] == "warm__p2_decay.csv":
                os.mkdir(os.path.join(out_dir, record["csv"]))
        write(out_dir, files)

    monkeypatch.setattr(experiment, "_write_entry_csvs", blocked_at_p2)
    out = tmp_path / "out"
    with pytest.raises(OSError, match=r"^worker of entry warm__p2 \d+ exited with code 1 "):
        run_experiment(validate_config(forking_raw()), out_dir=str(out))
    assert os.listdir(out) == []
    assert "IsADirectoryError" in capfd.readouterr().err
    # a directory where an entry CSV goes beside the report: the CSV cannot
    # be renamed into place, and no report is written
    monkeypatch.setattr(experiment, "_write_entry_csvs", write)
    (out / "warm__p2_decay.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        run_experiment(validate_config(forking_raw()), out_dir=str(out))
    assert not [name for name in os.listdir(out) if name.startswith(("report_", ".report_"))]


@pytest.mark.parametrize("cpus", [2, 1])
def test_run_experiment_raises_when_an_entry_csv_is_missing(tmp_path, monkeypatch, cpus):
    # a writer that writes nothing, in forked workers (which inherit the
    # patch) or in the runner: the check before the first rename finds the
    # first entry's CSV missing and raises OSError, no report is written and
    # every child is reaped (the autouse fixture checks).  So too where an
    # earlier run of the same config left its entry CSVs and report: its
    # files do not stand in for this run's, and they stay as they were
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    cfg = validate_config(forking_raw())
    earlier = run_experiment(cfg, out_dir=str(tmp_path / "earlier"))
    earlier_files = {name: (tmp_path / "earlier" / name).read_bytes() for name in os.listdir(tmp_path / "earlier")}
    assert len(earlier_files) == 3 * 2 + 1
    monkeypatch.setattr(experiment, "_write_entry_csvs", lambda *args: None)
    forks = counted_fork(monkeypatch)
    with pytest.raises(FileNotFoundError, match="warm__p1.5_positivity.csv"):
        run_experiment(cfg, out_dir=str(tmp_path / "fresh"))
    assert len(forks) == (2 if cpus == 2 else 0)
    assert os.listdir(tmp_path / "fresh") == []
    with pytest.raises(FileNotFoundError, match="warm__p1.5_positivity.csv"):
        run_experiment(cfg, out_dir=str(tmp_path / "earlier"))
    assert {name: (tmp_path / "earlier" / name).read_bytes() for name in os.listdir(tmp_path / "earlier")} == earlier_files


def test_run_experiment_reaps_its_children_when_a_later_entry_raises(tmp_path, monkeypatch):
    # the second entry raises an error the runner does not record.  In a
    # worker (the second of two; the first runs the first and third
    # entries), that worker fails: the runner raises OSError naming the
    # entry once it has waited for both.  Where the first entry raises
    # instead, the runner raises on its first wait, and the second worker,
    # not yet waited for, is stopped and reaped.  Every child is reaped
    # (the autouse fixture checks).  In the runner (one job) the error
    # itself propagates.  No report is written either way
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    check = experiment.check_decay
    failing_p = [2.0]

    def fails_at_p(traj, p, **kwargs):
        if p == failing_p[0]:
            raise RuntimeError("unexpected")
        return check(traj, p=p, **kwargs)

    monkeypatch.setattr(experiment, "check_decay", fails_at_p)
    forks = counted_fork(monkeypatch)
    with pytest.raises(OSError, match=r"^worker of entry warm__p2 \d+ exited with code 1 "):
        run_experiment(validate_config(forking_raw()), out_dir=str(tmp_path))
    assert len(forks) == 2
    failing_p[0] = 1.5
    with pytest.raises(OSError, match=r"^worker of entry warm__p1.5, warm__p3 \d+ exited with code 1 "):
        run_experiment(validate_config(forking_raw()), out_dir=str(tmp_path))
    assert len(forks) == 4
    forks = counted_fork(monkeypatch)
    with pytest.raises(RuntimeError, match="^unexpected$"):
        run_experiment(validate_config(forking_raw()), out_dir=str(tmp_path), jobs=1)
    assert forks == []
    assert os.listdir(tmp_path) == []


def test_a_failed_worker_names_every_entry_of_its_share(tmp_path, monkeypatch):
    # at two jobs, worker 1 runs the second and fourth entries; an error in
    # the fourth fails it, and the OSError names both.  No report is written
    raw = base_raw()
    raw["p_values"] = [1.5, 2.0, 2.5, 3.0]
    check = experiment.check_positivity_min_ode

    def fails_at_p3(traj, p, **kwargs):
        if p == 3.0:
            raise RuntimeError("unexpected")
        return check(traj, p=p, **kwargs)

    monkeypatch.setattr(experiment, "check_positivity_min_ode", fails_at_p3)
    forks = counted_fork(monkeypatch)
    with pytest.raises(OSError, match=r"^worker of entry warm__p2, warm__p3 \d+ exited with code 1 "):
        run_experiment(validate_config(raw), out_dir=str(tmp_path), jobs=2)
    assert len(forks) == 2
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("death", ["raises", "killed"])
def test_run_experiment_raises_when_a_worker_dies(tmp_path, monkeypatch, capfd, death):
    # a worker that raises an error _run_entry does not catch, or that is
    # killed, is an OSError naming its entry.  No report is written, the
    # report and entry CSVs of an earlier run of another config into the
    # same directory stay byte for byte (the other entries' CSVs, written
    # by then, differ from theirs), no private directory is left, and every
    # child is reaped (the autouse fixture checks)
    first_raw, raw = forking_raw(), forking_raw()
    first_raw["checkers"][2]["T_blow"] = 6.0  # other decay rows, same names
    run_experiment(validate_config(first_raw), out_dir=str(tmp_path), jobs=1)
    earlier = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert len(earlier) == 3 * 2 + 1
    runner = os.getpid()
    check = experiment.check_decay

    def dies_at_p2(traj, p, **kwargs):
        if p == 2.0 and os.getpid() != runner:
            if death == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("worker error")
        return check(traj, p=p, **kwargs)

    monkeypatch.setattr(experiment, "check_decay", dies_at_p2)
    code = -signal.SIGKILL if death == "killed" else 1
    with pytest.raises(OSError, match=rf"^worker of entry warm__p2 \d+ exited with code {code} "):
        run_experiment(validate_config(raw), out_dir=str(tmp_path), jobs=2)
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == earlier
    assert ("RuntimeError: worker error" in capfd.readouterr().err) == (death == "raises")


def test_run_experiment_replaces_no_entry_csv_when_one_cannot_be_renamed(tmp_path):
    # a directory stands where the second entry's decay CSV goes, beside
    # the report of an earlier run of another config: the runner raises
    # IsADirectoryError naming it before it renames any entry CSV, so no
    # report is written and every earlier file stays byte for byte (the new
    # run's CSVs of the same names differ from them)
    first_raw, raw = forking_raw(), forking_raw()
    first_raw["checkers"][2]["T_blow"] = 6.0  # other decay rows, same names
    run_experiment(validate_config(first_raw), out_dir=str(tmp_path), jobs=1)
    (tmp_path / "warm__p2_decay.csv").unlink()
    (tmp_path / "warm__p2_decay.csv").mkdir()
    earlier = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path) if (tmp_path / name).is_file()}
    assert len(earlier) == 3 * 2
    with pytest.raises(IsADirectoryError, match="warm__p2_decay.csv"):
        run_experiment(validate_config(raw), out_dir=str(tmp_path), jobs=2)
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path) if (tmp_path / name).is_file()} == earlier
    assert sorted(os.listdir(tmp_path)) == sorted([*earlier, "warm__p2_decay.csv"])


def test_run_experiment_replaces_no_entry_csv_when_a_later_one_is_missing(tmp_path, monkeypatch):
    # the last entry's decay CSV is gone from the private directory: the
    # runner raises FileNotFoundError naming it before it renames any entry
    # CSV, so the earlier entries' CSVs replace none of an earlier run's
    # files of the same names (which differ from them), and no report is
    # written
    first_raw, raw = forking_raw(), forking_raw()
    first_raw["checkers"][2]["T_blow"] = 6.0  # other decay rows, same names
    run_experiment(validate_config(first_raw), out_dir=str(tmp_path), jobs=1)
    earlier = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert len(earlier) == 3 * 2 + 1
    write = experiment._write_entry_csvs

    def loses_p3_decay(out_dir, files):
        write(out_dir, files)
        for record, _ in files:
            if record["csv"] == "warm__p3_decay.csv":
                os.remove(os.path.join(out_dir, record["csv"]))

    monkeypatch.setattr(experiment, "_write_entry_csvs", loses_p3_decay)
    with pytest.raises(FileNotFoundError, match="warm__p3_decay.csv"):
        run_experiment(validate_config(raw), out_dir=str(tmp_path), jobs=2)
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == earlier


def test_cli_run_replaces_nothing_when_a_directory_is_at_the_report_path(tmp_path, capsys):
    # the report is published with the entry CSVs, and every path is
    # checked before the first file is placed: a directory where this run's
    # report goes is exit 2 naming it.  An earlier run of another config
    # (same entry CSV names, other decay rows) keeps its report and entry
    # CSVs byte for byte, so plotdata on its report still runs, and no
    # private directory is left
    first_raw, raw = forking_raw(), forking_raw()
    first_raw["checkers"][2]["T_blow"] = 6.0  # other decay rows, same names
    out = tmp_path / "out"
    (tmp_path / "first").mkdir()
    assert cli_main(["run", write_cfg(tmp_path / "first", first_raw), "--out-dir", str(out), "--jobs", "2"]) == 1
    earlier = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert len(earlier) == 3 * 2 + 1
    report_name = f"report_{validate_config(raw).config_hash[:12]}.json"
    assert report_name not in earlier
    (out / report_name).mkdir()
    capsys.readouterr()
    assert cli_main(["run", write_cfg(tmp_path, raw), "--out-dir", str(out), "--jobs", "2"]) == 2
    assert report_name in capsys.readouterr().err
    assert sorted(os.listdir(out)) == sorted([*earlier, report_name])
    assert {name: (out / name).read_bytes() for name in earlier} == earlier
    assert os.listdir(out / report_name) == []
    (first_report,) = [name for name in earlier if name.startswith("report_")]
    plots = tmp_path / "plots"
    assert cli_main(["plotdata", str(out / first_report), "decay", "--out-dir", str(plots)]) == 0


def test_cli_run_prints_each_line_once(tmp_path, capsys):
    # with stdout a pipe it is block-buffered; a forked child must not
    # write what the parent buffered, nor print anything of its own
    cfg_path = write_cfg(tmp_path, forking_raw())
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    code = "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; from semiheat.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", cfg_path, "--out-dir", str(tmp_path / "out")],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr  # the universal check errors
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("report: ")
    assert lines[1:] == ["entries: 3, scenario errors: 0, check failures: 3"]
    assert proc.stderr == "FAILED\n"
    # each entry's status is in the report; no option prints it
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", cfg_path, "--verbose"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err


def test_cli_plotdata_missing_entry_csv(tmp_path):
    cfg_path = write_cfg(tmp_path, base_raw())
    out = tmp_path / "out"
    assert cli_main(["run", cfg_path, "--out-dir", str(out)]) == 0
    (report_name,) = [f for f in os.listdir(out) if f.startswith("report_")]
    os.remove(out / "warm__p2_positivity.csv")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "semiheat.cli", "plotdata", str(out / report_name), "positivity", "--out-dir", str(tmp_path / "plots")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "warm__p2_positivity.csv" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize(
    "report, message",
    [
        pytest.param([], "report: expected an object, got list", id="not-an-object"),
        pytest.param({"config_hash": "ab", "entries": 5}, "report.entries: expected a list, got int", id="entries"),
        pytest.param(
            {"config_hash": "ab", "entries": [{"name": "warm__p2", "checks": []}]},
            "report.entries[0].checks: expected an object, got list",
            id="checks",
        ),
        pytest.param({"config_hash": 7, "entries": []}, "report.config_hash: expected a string, got int", id="hash"),
    ],
)
def test_cli_plotdata_refuses_a_report_not_shaped_as_run_writes_it(tmp_path, capsys, report, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert cli_main(["plotdata", str(path), "positivity", "--out-dir", str(tmp_path / "plots")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "plots").exists()


@pytest.fixture(scope="module")
def run_report(tmp_path_factory):
    # a real report and its entry CSVs, shared by the report-shape tests
    out = tmp_path_factory.mktemp("report")
    report = run_experiment(validate_config(base_raw()), out_dir=str(out))
    return Path(report.path)


def _drop(record, key):
    del record[key]


@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(lambda e: e.update(p=None), "report.entries[0].p: expected a number, got NoneType", id="p-null"),
        pytest.param(lambda e: e.update(p=True), "report.entries[0].p: expected a number, got bool", id="p-bool"),
        pytest.param(lambda e: e.update(p="2.0"), "report.entries[0].p: expected a number, got str", id="p-str"),
        # float(p) of the first overflows; the others would reach every plot row
        pytest.param(lambda e: e.update(p=10**400), "report.entries[0].p: expected a finite number", id="p-beyond-float"),
        pytest.param(lambda e: e.update(p=float("nan")), "report.entries[0].p: expected a finite number", id="p-nan"),
        pytest.param(lambda e: e.update(p=float("-inf")), "report.entries[0].p: expected a finite number", id="p-inf"),
        pytest.param(lambda e: _drop(e, "p"), "report.entries[0].p: expected a number, got NoneType", id="p-missing"),
        pytest.param(
            lambda e: _drop(e, "scenario"), "report.entries[0].scenario: expected a string, got NoneType", id="scenario"
        ),
        pytest.param(
            lambda e: e.update(scenario=5), "report.entries[0].scenario: expected a string, got int", id="scenario-int"
        ),
        pytest.param(lambda e: _drop(e, "name"), "report.entries[0].name: expected a string, got NoneType", id="name"),
        pytest.param(
            lambda e: _drop(e["checks"]["positivity"], "rows"),
            "report.entries[0].checks.positivity.rows: expected an integer, got NoneType",
            id="rows",
        ),
        pytest.param(
            lambda e: e["checks"]["positivity"].update(rows="3"),
            "report.entries[0].checks.positivity.rows: expected an integer, got str",
            id="rows-str",
        ),
        pytest.param(
            lambda e: _drop(e["checks"]["positivity"], "csv"),
            "report.entries[0].checks.positivity.csv: expected a string, got NoneType",
            id="csv",
        ),
        pytest.param(
            lambda e: e["checks"]["positivity"].update(sha256=None),
            "report.entries[0].checks.positivity.sha256: expected a string, got NoneType",
            id="sha256",
        ),
    ],
)
def test_cli_plotdata_names_the_malformed_field_of_a_real_report(tmp_path, capsys, run_report, mutate, message):
    # a run's report with one field emit_plot_data reads broken, written
    # beside the run's entry CSVs: exit 2 and one line naming the field
    report = json.loads(run_report.read_text())
    mutate(report["entries"][0])
    path = run_report.with_name(f"mutated_{tmp_path.name}.json")
    path.write_text(json.dumps(report))
    assert cli_main(["plotdata", str(path), "positivity", "--out-dir", str(tmp_path / "plots")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "plots").exists()
    assert cli_main(["plotdata", str(run_report), "positivity", "--out-dir", str(tmp_path / "plots")]) == 0


def test_plotdata_refuses_an_entry_csv_a_later_run_overwrote(tmp_path):
    first_raw = base_raw()
    first_raw["checkers"] = [{"id": "decay", "T_blow": 1.0}]
    second_raw = copy.deepcopy(first_raw)
    second_raw["checkers"][0]["T_blow"] = 1.5  # same trajectory, other rhs and ratio
    out = tmp_path / "out"
    first = run_experiment(validate_config(first_raw), out_dir=str(out))
    csv_first = (out / "warm__p2_decay.csv").read_bytes()
    second = run_experiment(validate_config(second_raw), out_dir=str(out))
    assert first.config_hash != second.config_hash
    assert (out / "warm__p2_decay.csv").read_bytes() != csv_first
    assert first.entries[0]["checks"]["decay"]["rows"] == second.entries[0]["checks"]["decay"]["rows"]
    with pytest.raises(ValueError, match="sha256"):
        emit_plot_data(first, "decay", out_dir=str(tmp_path / "plots"))
    assert not (tmp_path / "plots").exists()
    assert cli_main(["plotdata", first.path, "decay", "--out-dir", str(tmp_path / "plots")]) == 2
    assert not (tmp_path / "plots").exists()
    emit_plot_data(second, "decay", out_dir=str(tmp_path / "plots"))
    # the csv field names a file beside the report and nothing else
    (out / "elsewhere").mkdir()
    (out / "elsewhere" / "warm__p2_decay.csv").write_bytes((out / "warm__p2_decay.csv").read_bytes())
    for name in ["elsewhere/warm__p2_decay.csv", str(out / "warm__p2_decay.csv"), "..", ""]:
        second.entries[0]["checks"]["decay"]["csv"] = name
        with pytest.raises(ValueError, match="names no entry CSV file beside the report"):
            emit_plot_data(second, "decay", out_dir=str(tmp_path / "plots"))


def test_report_json_round_trip(tmp_path):
    report = run_experiment(validate_config(base_raw()), out_dir=str(tmp_path))
    loaded = json.loads(Path(report.path).read_text())
    again = RunReport.from_json_dict(loaded)
    assert again.config_hash == report.config_hash
    assert again.all_passed == report.all_passed
    assert loaded["all_passed"] is True


# ------------------------------------------------------------------- CLI


def write_cfg(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_where_a_sweep_writes_is_the_callers_alone(tmp_path, monkeypatch, capsys):
    # --out-dir, the working directory by default, is the one setting: a
    # config key for it is unknown, and no environment variable is read
    raw = base_raw()
    raw["out_dir"] = str(tmp_path / "cfg")
    cfg_path = write_cfg(tmp_path, raw)
    assert cli_main(["check", cfg_path]) == 2
    assert cli_main(["run", cfg_path]) == 2
    assert capsys.readouterr().err == "config error: <root>: unknown config fields ['out_dir']\n" * 2
    monkeypatch.setenv("SEMIHEAT_OUT_DIR", str(tmp_path / "env"))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert cli_main(["run", write_cfg(tmp_path, base_raw())]) == 0
    report_name = f"report_{validate_config(base_raw()).config_hash[:12]}.json"
    assert capsys.readouterr().out.startswith(f"report: ./{report_name}\n")
    assert sorted(os.listdir(cwd)) == [report_name, "warm__p2_positivity.csv"]
    assert not (tmp_path / "env").exists() and not (tmp_path / "cfg").exists()


def test_cli_check_and_run_pass(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, base_raw())
    assert cli_main(["check", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert cli_main(["run", cfg_path, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_cli_run_failure_exit_code(tmp_path, capsys):
    # a check that fails and an entry that errors: exit 1, and stderr names
    # the entry
    raw = base_raw()
    raw["checkers"] = [{"id": "decay", "T_blow": 1.0, "c_cap": 1e-6}]
    raw["scenarios"].append(copy.deepcopy(_FAILING_SCENARIO))
    cfg_path = write_cfg(tmp_path, raw)
    assert cli_main(["run", cfg_path, "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == ["scenario error: stuck__p2", "FAILED"]


def test_cli_runs_tiny_data_at_large_p(tmp_path, capsys):
    # 1e-50^(1-10) overflows a Python float: the step cap and the reaction
    # flow must treat it as no cap and no motion, not raise or flush to zero
    raw = base_raw()
    raw["manifold"] = {"kind": "circle", "n": 1, "size": 6.3, "resolution": 32}
    raw["p_values"] = [10.0]
    raw["scenarios"][0]["initial"] = {"type": "constant", "value": 1e-50}
    cfg_path = write_cfg(tmp_path, raw)
    assert cli_main(["check", cfg_path]) == 0
    out = tmp_path / "out"
    assert cli_main(["run", cfg_path, "--out-dir", str(out)]) == 0
    (report_name,) = [f for f in os.listdir(out) if f.startswith("report_")]
    (entry,) = json.loads((out / report_name).read_text())["entries"]
    assert entry["status"] == "ok"
    assert entry["trajectory"]["final_time"] == pytest.approx(0.2, abs=1e-12)
    # only the diffusion solve's roundoff moves the constant
    assert entry["trajectory"]["max_abs_value"] == pytest.approx(1e-50, rel=1e-14)
    # the tolerance 10 (1e-50)^10 (dt + h^2) underflows; the roundoff floor
    # of the difference quotient must absorb that drift
    assert entry["checks"]["positivity"]["status"] == "checked"
    assert entry["checks"]["positivity"]["passed"]


def test_cli_records_an_underflowed_bound_as_an_error(tmp_path, capsys):
    # just above p = 1 the decay and universal bounds underflow to 0; each
    # check is an error, not a pass with c_fit inf
    raw = base_raw()
    raw["manifold"] = {"kind": "sphere_zonal", "n": 2, "size": 1.0, "resolution": 32}
    raw["p_values"] = [1.000000002]
    raw["scenarios"][0]["initial"] = {"type": "constant", "value": 0.5}
    raw["scenarios"][0]["window"] = {"t0": 0.0, "t1": 0.5}
    raw["checkers"] = [{"id": "decay", "T_blow": 50.0}, {"id": "universal", "T0": -1.0, "T": 60.0}]
    out = tmp_path / "out"
    assert cli_main(["run", write_cfg(tmp_path, raw), "--out-dir", str(out), "--jobs", "1"]) == 1
    (report_name,) = [f for f in os.listdir(out) if f.startswith("report_")]
    (entry,) = json.loads((out / report_name).read_text())["entries"]
    for name in ("decay", "universal"):
        assert entry["checks"][name]["status"] == "error"
        assert entry["checks"][name]["error"].startswith(f"the {name} bound ")
        assert entry["checks"][name]["error"].endswith(" underflows to 0 at p = 1.000000002")


def test_cli_jobs_flag_changes_no_output(tmp_path, capsys):
    raw = base_raw()
    raw["p_values"] = [1.5, 2.0, 3.0]
    raw["scenarios"][0]["initial"] = {"type": "random_uniform", "low": 0.1, "high": 0.5}
    cfg_path = write_cfg(tmp_path, raw)
    outputs = []
    # by default, one worker per CPU, at most one per entry
    for jobs, extra in ((min(len(os.sched_getaffinity(0)), 3), []), (1, ["--jobs", "1"]), (2, ["--jobs", "2"])):
        out_dir = tmp_path / f"jobs{len(outputs)}"
        assert cli_main(["run", cfg_path, "--out-dir", str(out_dir), *extra]) in (0, 1)
        (path,) = [f for f in os.listdir(out_dir) if f.startswith("report_")]
        report = json.loads((out_dir / path).read_text())
        assert report.pop("timing")["jobs"] == jobs
        outputs.append((report, {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir) if name != path}))
    assert outputs[0] == outputs[1] == outputs[2]
    capsys.readouterr()
    # run_experiment refuses a count below 1 before it makes a directory
    for bad in ("0", "-1"):
        assert cli_main(["run", cfg_path, "--out-dir", str(tmp_path / "bad"), "--jobs", bad]) == 2
        assert capsys.readouterr().err == f"error: jobs must be a positive integer, got {bad}\n"
    for bad in ("two", "1.5"):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", cfg_path, "--out-dir", str(tmp_path / "bad"), "--jobs", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --jobs: invalid int value: '{bad}'" in err
        assert "Traceback" not in err
    assert not (tmp_path / "bad").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    raw = base_raw()
    raw["manifold"]["kind"] = "klein_bottle"
    cfg_path = write_cfg(tmp_path, raw)
    assert cli_main(["check", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "manifold.kind" in err
    raw = base_raw()
    raw["p_value"] = raw.pop("p_values")
    cfg_path = write_cfg(tmp_path, raw)
    assert cli_main(["check", cfg_path]) == 2
    assert cli_main(["run", cfg_path, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "<root>: unknown config fields ['p_value']" in err
    assert not (tmp_path / "out").exists()
    for kind, n, size in (("sphere_zonal", 200, 1.0), ("circle", 1, 1e308)):
        raw = base_raw()
        raw["manifold"].update(kind=kind, n=n, size=size)
        cfg_path = write_cfg(tmp_path, raw)
        assert cli_main(["check", cfg_path]) == 2
        assert cli_main(["run", cfg_path, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: manifold: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    raw = base_raw()
    raw["scenarios"][0]["controls"] = {"dt_max": -1}
    assert cli_main(["check", write_cfg(tmp_path, raw)]) == 2
    assert "scenarios[0].controls: dt_max must be positive" in capsys.readouterr().err
    for key, value in (("blow_threshold", 1e8), ("reaction_on", True)):
        raw["scenarios"][0]["controls"] = {key: value}
        assert cli_main(["check", write_cfg(tmp_path, raw)]) == 2
        assert f"scenarios[0].controls: unknown control fields ['{key}']" in capsys.readouterr().err
    for checker, message in (
        ({"id": "gradient", "variant": "ancient", "D": -1}, "checkers[0]: D must be positive"),
        ({"id": "gradient", "variant": "global", "D": 1.0}, "checkers[0].T: missing required field"),
        ({"id": "triviality", "osc_floor": -1}, "checkers[0]: unknown checker 'triviality' fields ['osc_floor']"),
        (
            {"id": "gradient", "variant": "ancient", "D": 1.0, "u_floor": 1e-9},
            "checkers[0]: unknown checker 'gradient' fields ['u_floor']",
        ),
        (
            {"id": "gradient", "variant": "ancient", "D": 0.45, "grad_tol": -1},
            "checkers[0]: unknown checker 'gradient' fields ['grad_tol']",
        ),
        (
            {"id": "gradient", "variant": "ancient", "D": 1.0, "R": 5.0, "T": 3.0},
            "checkers[0]: unknown gradient variant 'ancient' fields ['R', 'T']",
        ),
        (
            {"id": "lower_bound", "delta": 2, "L": 1.0, "A": 5.0, "r0": 0.5, "C_delta_cap": 1.0},
            "checkers[0]: delta must lie strictly between 0 and 1",
        ),
    ):
        raw = base_raw()
        raw["checkers"] = [checker]
        assert cli_main(["check", write_cfg(tmp_path, raw)]) == 2
        assert message in capsys.readouterr().err
    raw = base_raw()
    raw["scenarios"][0]["initial"] = {"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -1.0, "eps": 0.1, "mode": 64}
    assert cli_main(["check", write_cfg(tmp_path, raw)]) == 2
    assert "scenarios[0].initial: mode index out of range for 64 nodes" in capsys.readouterr().err
    assert cli_main(["run", str(tmp_path / "missing.json")]) == 2


def test_cli_gives_fresh_results_from_its_one_parser(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process; a run of calls gives the exit
    # codes, output and files that each call gives with a parser of its own,
    # so no option or default (plotdata's --out-dir ".") carries over
    cfg_path = write_cfg(tmp_path, base_raw())
    out = str(tmp_path / "out")
    calls = [
        ["run", cfg_path, "--out-dir", out],
        ["plotdata", None, "positivity"],
        ["check", cfg_path],
        ["run", cfg_path, "--jobs", "0"],
        ["plotdata", None, "positivity"],
        ["plotdata", None, "sorcery"],
    ]

    def session(cwd, fresh):
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        results = []
        for argv in calls:
            if argv[0] == "plotdata":
                (report,) = [name for name in os.listdir(out) if name.startswith("report_")]
                argv = ["plotdata", os.path.join(out, report), *argv[2:]]
            if fresh:
                cli._build_parser.cache_clear()
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results, {name: (cwd / name).read_bytes() for name in os.listdir(cwd)}

    one_parser = session(tmp_path / "one", fresh=False)
    fresh = session(tmp_path / "fresh", fresh=True)
    assert one_parser == fresh
    codes = [code for code, _, _ in fresh[0]]
    assert codes == [0, 0, 0, 2, 0, 2]
    assert "jobs must be a positive integer" in fresh[0][3][2]
    assert fresh[0][0][1].startswith(f"report: {os.path.join(out, 'report_')}")
    assert list(fresh[1]) == [f"plot_positivity_{validate_config(base_raw()).config_hash[:12]}.csv"]


def test_cli_plotdata_round_trip(tmp_path):
    cfg_path = write_cfg(tmp_path, base_raw())
    assert cli_main(["run", cfg_path, "--out-dir", str(tmp_path)]) == 0
    reports = [f for f in os.listdir(tmp_path) if f.startswith("report_")]
    assert len(reports) == 1
    report_path = str(tmp_path / reports[0])
    assert cli_main(["plotdata", report_path, "positivity", "--out-dir", str(tmp_path)]) == 0
    plots = [f for f in os.listdir(tmp_path) if f.startswith("plot_positivity_")]
    assert len(plots) == 1
    assert cli_main(["plotdata", report_path, "sorcery", "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "demo, takes_out_dir, line",
    [
        pytest.param(*row, id=row[0])
        for row in (
            ("blowup_on_sphere", True, "              constant 1    1.000   1.0000   1.00000"),
            ("cutoff_certification", True, "deficient k = 2, q = 1 at p = 2: maxima 59774.6, 119973.0, 240370.2 -> diverged = True"),
            ("gradient_bound_sweep", True, "degenerate branch on [-6, -5]: max|grad u| = 1.135e-07 (tolerance 1e-06, pass)"),
            ("negative_envelope", False, "final minimum -0.2500 (exact -1/(1+t) gives -0.2500)"),
            ("oscillation_collapse", False, "verdict: trivial-limit (cap 1.2)"),
            ("static_profile_refinement", False, "  1000    4.002e-07   15.89"),
            ("sweep_report", True, "all passed: True"),
        )
    ],
)
def test_demo_runs(tmp_path, demo, takes_out_dir, line):
    # each demo in a fresh interpreter, in tmp_path, so none writes into the checkout
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    args = [sys.executable, os.path.join(root, "demos", f"{demo}.py")]
    if takes_out_dir:
        args += ["--out-dir", str(tmp_path / "out")]
    proc = subprocess.run(args, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
    if demo == "sweep_report":
        assert any(name.startswith("report_") for name in os.listdir(tmp_path / "out"))
        assert any(name.startswith("plot_positivity_") for name in os.listdir(tmp_path / "out"))


# ------------------------------------------------------- config properties

_NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-5.0, 5.0).filter(lambda x: abs(x) >= 0.01))
_ANY = st.one_of(_NUMBERS, st.text(max_size=3), st.booleans(), st.none(), st.lists(_NUMBERS, max_size=2))
# values of the right type (numbers unless listed), some of them out of range
_TYPED = {
    "variant": st.sampled_from(["local", "global", "ancient", "sideways"]),
    "snapshot_every": st.integers(-1, 4),
}


def _field_value(draw, key):
    if draw(st.integers(0, 5)) == 0:  # about one field in six gets a value of any type
        return draw(_ANY)
    return draw(_TYPED.get(key, _NUMBERS))


@st.composite
def small_configs(draw):
    """A 16-node sphere run over 0.2 time units whose controls and checker
    fields carry random values, mostly but not always of the right type."""
    raw = base_raw()
    raw["manifold"] = {"kind": "sphere_zonal", "n": 2, "size": 1.0, "resolution": 16}
    scenario = raw["scenarios"][0]
    scenario["initial"] = {"type": "random_uniform", "low": 0.1, "high": 0.5}
    keys = draw(st.lists(st.sampled_from([*_CONTROLS, "dt"]), max_size=3, unique=True))
    scenario["controls"] = {key: _field_value(draw, key) for key in keys}
    raw["checkers"] = []
    for cid in draw(st.lists(st.sampled_from(sorted(_CHECKERS)), max_size=3, unique=True)):
        spec = _CHECKERS[cid]
        optional = [key for key in spec.fields if key not in spec.required] + ["bogus"]
        keys = [*spec.required, *draw(st.lists(st.sampled_from(optional), max_size=2, unique=True))]
        raw["checkers"].append({"id": cid, **{key: _field_value(draw, key) for key in keys}})
    return raw


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=small_configs())
def test_checked_configs_run_to_a_report(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(["check", path])
            assert code in (0, 2)
            if code == 0:
                out_dir = os.path.join(tmp, "out")
                assert cli_main(["run", path, "--out-dir", out_dir]) in (0, 1)
                assert any(name.startswith("report_") for name in os.listdir(out_dir))


@st.composite
def repeated_p_configs(draw):
    """A 16-node circle sweep of one or two scenarios and 1-4 p values drawn
    with repeats and near-repeats (equal in their 6 significant digits or
    not)."""
    raw = base_raw()
    raw["manifold"] = {"kind": "circle", "n": 1, "size": 6.3, "resolution": 16}
    near = [1.5, 1.5000001, 2.0, 2.0 + 1e-12, 2.00001, 3.0]
    raw["p_values"] = draw(st.lists(st.sampled_from(near), min_size=1, max_size=4))
    window = {"t0": 0.0, "t1": 0.05}
    raw["scenarios"] = [
        {"name": "warm", "initial": {"type": "constant", "value": 0.5}, "window": window},
        {"name": "random", "initial": {"type": "random_uniform", "low": 0.1, "high": 0.6}, "window": window},
    ][: draw(st.integers(1, 2))]
    raw["checkers"] = [{"id": "positivity"}, {"id": "decay", "T_blow": 5.0}]
    return raw


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(raw=repeated_p_configs())
def test_accepted_p_values_run_to_a_report_naming_every_csv(raw):
    # a config validation accepts runs to a report whose every entry CSV
    # is in place with its recorded digest; one it refuses names the first
    # p whose entry name an earlier p already has, and that earlier p
    names = [f"{p:g}" for p in raw["p_values"]]
    try:
        cfg = validate_config(raw)
    except ConfigError as exc:
        repeated = next(i for i, name in enumerate(names) if name in names[:i])
        assert exc.field_path == f"p_values[{repeated}]"
        assert str(exc).endswith(f"with p_values[{names.index(names[repeated])}]")
        return
    assert len(set(names)) == len(names)
    with tempfile.TemporaryDirectory() as tmp:
        report = run_experiment(cfg, out_dir=tmp, jobs=1)
        with open(report.path, encoding="utf-8") as fh:
            on_disk = json.load(fh)
        records = [rec for entry in on_disk["entries"] for rec in entry["checks"].values() if "csv" in rec]
        assert len(on_disk["entries"]) == len(names) * len(raw["scenarios"])
        assert len(records) == 2 * len(on_disk["entries"])
        for rec in records:
            with open(os.path.join(tmp, rec["csv"]), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == rec["sha256"]
        published = [os.path.basename(report.path), *(rec["csv"] for rec in records)]
        assert sorted(os.listdir(tmp)) == sorted(published)


# a scenario that aborts at once at every p: dt_max is below the resolution
# of t on its window
_FAILING_SCENARIO = {
    "name": "stuck",
    "initial": {"type": "constant", "value": 0.5},
    "window": {"t0": 1e17, "t1": 2e17},
}
_GOOD_SCENARIOS = [
    {"name": "warm", "initial": {"type": "constant", "value": 0.5}, "window": {"t0": 0.0, "t1": 0.3}},
    {"name": "random", "initial": {"type": "random_uniform", "low": 0.1, "high": 0.6}, "window": {"t0": 0.0, "t1": 0.3}},
    {
        "name": "ancient",
        "initial": {"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -3.0, "eps": 0.05, "mode": 1},
        "window": {"t0": -3.0, "t1": -2.5},
        "controls": {"dt_max": 0.02},
    },
]


@st.composite
def job_count_configs(draw):
    """A 32-node sphere or circle sweep of 1-4 p values and 1-3 scenarios,
    one of which fails at every p, under a random seed."""
    kind, n = draw(st.sampled_from([("sphere_zonal", 2), ("circle", 1)]))
    good = draw(st.lists(st.sampled_from(_GOOD_SCENARIOS), max_size=2, unique_by=lambda sc: sc["name"]))
    scenarios = [copy.deepcopy(sc) for sc in good]
    scenarios.insert(draw(st.integers(0, len(good))), copy.deepcopy(_FAILING_SCENARIO))
    return {
        "manifold": {"kind": kind, "n": n, "size": 1.0, "resolution": 32},
        "p_values": draw(st.lists(st.sampled_from([1.5, 2.0, 3.0, 4.5]), min_size=1, max_size=4, unique=True)),
        "scenarios": scenarios,
        "checkers": [{"id": "positivity"}, {"id": "decay", "T_blow": 5.0}, _EMPTY_UNIVERSAL],
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(raw=job_count_configs())
@example(
    raw={  # a circle whose ancient data reads the spectrum, at every job count
        "manifold": {"kind": "circle", "n": 1, "size": 1.0, "resolution": 32},
        "p_values": [1.5, 2.0, 3.0],
        "scenarios": [copy.deepcopy(_GOOD_SCENARIOS[2]), copy.deepcopy(_FAILING_SCENARIO)],
        "checkers": [{"id": "positivity"}, {"id": "decay", "T_blow": 5.0}, _EMPTY_UNIVERSAL],
        "seed": 0,
    }
)
def test_job_count_changes_no_output(raw):
    # the report minus its timing, every entry CSV and every plot data CSV
    # are the same bytes at one, two and three jobs
    cfg = validate_config(raw)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for jobs in (1, 2, 3):
            out = Path(tmp) / f"jobs{jobs}"
            report = run_experiment(cfg, out_dir=str(out), jobs=jobs)
            assert report.timing["jobs"] == min(jobs, len(report.entries))
            outputs.append(sweep_outputs(out, report))
        assert outputs[0] == outputs[1] == outputs[2]
        statuses = {e["name"]: e["status"] for e in report.entries}
        assert [name for name, status in statuses.items() if status == "error"] == [
            f"stuck__p{p:g}" for p in raw["p_values"]
        ]
