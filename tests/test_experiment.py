import contextlib
import copy
import errno
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semiheat import (
    ConfigError,
    EstimateReport,
    RunReport,
    build_manifold,
    config_hash,
    emit_plot_data,
    load_config,
    resolve_out_dir,
    run_experiment,
    validate_config,
)
import semiheat.estimates as estimates
import semiheat.experiment as experiment
from semiheat.cli import main as cli_main
from semiheat.experiment import _CHECKERS, _CONTROLS

evolve_module = importlib.import_module("semiheat.evolve")  # the package exports a function of that name


def base_raw():
    return {
        "manifold": {"kind": "flat_torus_1d", "n": 1, "size": 6.3, "resolution": 64},
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
    # the hash is of the config as written, alias and all
    assert cfg.config_hash == config_hash(base_raw())
    renamed = base_raw()
    renamed["manifold"]["kind"] = "circle"
    assert cfg.config_hash != config_hash(renamed)
    assert cfg.built_manifold.kind == "circle"
    assert cfg.p_values == (2.0,)
    assert cfg.seed == 0


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda r: r["manifold"].update(kind="klein_bottle"), "manifold.kind"),
        (lambda r: r["manifold"].update(resolution=8), "manifold.resolution"),
        (lambda r: r["manifold"].update(size=-1.0), "manifold.size"),
        (lambda r: r.update(p_values=[0.5]), "p_values[0]"),
        (lambda r: r["scenarios"][0].update(name="bad name"), "scenarios[0].name"),
        (lambda r: r["scenarios"][0]["initial"].update(type="mystery"), "scenarios[0].initial.type"),
        (lambda r: r["scenarios"][0]["window"].update(t1=-1.0), "scenarios[0].window.t1"),
        (lambda r: r["scenarios"][0].update(controls={"dt": 0.1}), "scenarios[0].controls"),
        (lambda r: r.update(checkers=[{"id": "sorcery"}]), "checkers[0].id"),
        (lambda r: r.update(checkers=[{"id": "decay"}]), "checkers[0].T_blow"),
        (lambda r: r.update(seed="zero"), "seed"),
        (lambda r: r["manifold"].update(kind="circle", n=2), "manifold.n"),
        (lambda r: r["manifold"].update(n=2), "manifold.n"),
        (lambda r: r["manifold"].update(kind="sphere_zonal", n=1), "manifold.n"),
        (lambda r: r["scenarios"][0].update(controls={"dt_max": "x"}), "scenarios[0].controls.dt_max"),
        (lambda r: r["scenarios"][0].update(controls={"blow_threshold": None}), "scenarios[0].controls.blow_threshold"),
        (lambda r: r["scenarios"][0].update(controls={"blow_threshold": float("nan")}), "scenarios[0].controls.blow_threshold"),
        (lambda r: r["scenarios"][0].update(controls={"dt_max": 10**400}), "scenarios[0].controls.dt_max"),
        (lambda r: r["scenarios"][0].update(controls={"reaction_on": "no"}), "scenarios[0].controls.reaction_on"),
        (lambda r: r["scenarios"][0].update(controls={"reaction_on": 0}), "scenarios[0].controls.reaction_on"),
        (lambda r: r["scenarios"][0].update(controls={"snapshot_every": 0}), "scenarios[0].controls.snapshot_every"),
        (lambda r: r["scenarios"][0].update(controls={"snapshot_every": 2.0}), "scenarios[0].controls.snapshot_every"),
        (lambda r: r.update(checkers=[{"id": "gradient", "variant": "global", "D": "big"}]), "checkers[0].D"),
        (lambda r: r.update(checkers=[{"id": "gradient", "variant": "sideways", "D": 1.0}]), "checkers[0].variant"),
        (lambda r: r.update(checkers=[{"id": "decay", "T_blow": 1.0, "c_cap": [2.0]}]), "checkers[0].c_cap"),
        (lambda r: r.update(checkers=[{"id": "triviality", "rate_tol": True}]), "checkers[0].rate_tol"),
        (lambda r: r.update(checkers=[{"id": "positivity", "c_cap": 2.0}]), "checkers[0]"),
        (lambda r: r.update(checkers=[{"id": "decay", "T_blow": 1.0, "D": 1.0}]), "checkers[0]"),
        # explicit ids keep the generated ids of the rows above unchanged
        pytest.param(lambda r: r.update(p_value=[2.0]), "<root>", id="unknown-root-key"),
        pytest.param(lambda r: r["manifold"].update(resolutoin=64), "manifold", id="unknown-manifold-key"),
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
        pytest.param(
            lambda r: r["scenarios"][0].update(controls={"blow_threshold": 10}),
            "scenarios[0].controls",
            id="blow-threshold-low",
        ),
        pytest.param(
            lambda r: (r["manifold"].update(kind="euclidean_radial", n=3), r["scenarios"][0].update(initial={"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1})),
            "scenarios[0].initial.type",
            id="mode-on-radial",
        ),
        pytest.param(
            lambda r: (r["manifold"].update(resolution=4097), r["scenarios"][0].update(initial={"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1})),
            "manifold.resolution",
            id="mode-beyond-dense-spectrum",
        ),
        pytest.param(
            lambda r: r["scenarios"][0].update(initial={**{"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1}, "mode": 64}),
            "scenarios[0].initial.mode",
            id="mode-index-out-of-range",
        ),
        pytest.param(
            lambda r: r["scenarios"][0].update(initial={**{"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1}, "t_start": 0.0}),
            "scenarios[0].initial.t_start",
            id="mode-start-at-blowup",
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
        # a negative floor would let flat data divide 0 by 0
        pytest.param(
            lambda r: r.update(checkers=[{"id": "triviality", "osc_floor": -1}]),
            "checkers[0]",
            id="triviality-osc-floor-negative",
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
    assert config_hash(base_raw()) == "0e8f765cfd5c14242c82f71b44632bc9ff6907589ee0991cc6d5fec97d73ac57"
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
    assert os.path.basename(report.timing["report_path"]) == f"report_{first.config_hash[:12]}.json"


def test_custom_recipe_refuses_missing_and_mis_sized_files(tmp_path, capsys):
    short = tmp_path / "short.txt"
    short.write_text("0.5\n" * 63)
    for path, message in ((tmp_path / "missing.txt", "No such file"), (short, "63 values, manifold has 64 nodes")):
        with pytest.raises(ConfigError, match=message) as err:
            validate_config(custom_raw(path))
        assert err.value.field_path == "scenarios[0].initial.path"
        cfg_path = write_cfg(tmp_path, custom_raw(path))
        assert cli_main(["check", cfg_path]) == 2
        assert cli_main(["run", cfg_path, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: scenarios[0].initial.path: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_resolve_out_dir_precedence(tmp_path, monkeypatch):
    cfg = validate_config(base_raw())
    monkeypatch.delenv("SEMIHEAT_OUT_DIR", raising=False)
    assert resolve_out_dir(cfg) == "."
    monkeypatch.setenv("SEMIHEAT_OUT_DIR", "/env/dir")
    assert resolve_out_dir(cfg) == "/env/dir"
    raw = base_raw()
    raw["out_dir"] = "/cfg/dir"
    cfg2 = validate_config(raw)
    assert resolve_out_dir(cfg2) == "/cfg/dir"
    assert resolve_out_dir(cfg2, "/cli/dir") == "/cli/dir"


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
    report_path = report.timing["report_path"]
    assert os.path.exists(report_path)
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
    assert os.path.exists(report.timing["report_path"])


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
    assert built == [("flat_torus_1d", 1, 6.3, 64)]


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
    paths = emit_plot_data(report, "positivity", out_dir=str(tmp_path))
    assert len(paths) == 1
    lines = Path(paths[0]).read_text().splitlines()
    assert lines[0] == "scenario,p,t,lhs,structural_rhs,ratio"
    expected_rows = report.entries[0]["checks"]["positivity"]["rows"]
    assert expected_rows > 0
    assert len(lines) == 1 + expected_rows
    first_bytes = Path(paths[0]).read_bytes()
    emit_plot_data(report, "positivity", out_dir=str(tmp_path))
    assert Path(paths[0]).read_bytes() == first_bytes
    with pytest.raises(ValueError, match="unknown checker id"):
        emit_plot_data(report, "sorcery", out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="not present"):
        emit_plot_data(report, "decay", out_dir=str(tmp_path))


def test_emit_plot_data_header_only_for_empty_report(tmp_path):
    raw = base_raw()
    raw["scenarios"] = []
    report = run_experiment(validate_config(raw), out_dir=str(tmp_path))
    paths = emit_plot_data(report, "positivity", out_dir=str(tmp_path))
    lines = Path(paths[0]).read_text().splitlines()
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


def test_plot_data_matches_the_array_formatting(tmp_path, monkeypatch):
    captured = capture_reports(monkeypatch)
    raw = {
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
    out = tmp_path / "out"
    report = run_experiment(validate_config(raw), out_dir=str(out))
    on_disk = json.loads(Path(report.timing["report_path"]).read_text())
    assert on_disk["entries"] == report.entries
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
        (path,) = emit_plot_data(report, cid, out_dir=str(tmp_path / "plots"))
        assert Path(path).read_bytes() == reference_plot_bytes(report, cid, captured[cid]), cid
        # a report read back from disk finds its entry CSVs through its directory
        loaded = RunReport.from_json_dict(on_disk)
        loaded.directory = str(out)
        (again,) = emit_plot_data(loaded, cid, out_dir=str(tmp_path / "again"))
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
        passed=True,
    )
    monkeypatch.setattr(experiment, "check_positivity_min_ode", lambda traj, p: made)
    raw = base_raw()
    raw["p_values"] = [2.0, 1.5]
    report = run_experiment(validate_config(raw), out_dir=str(tmp_path))
    assert [e["checks"]["positivity"]["rows"] for e in report.entries] == [5, 5]
    (path,) = emit_plot_data(report, "positivity", out_dir=str(tmp_path))
    got = Path(path).read_bytes()
    assert got == reference_plot_bytes(report, "positivity", [made, made])
    assert b"warm,1.5,-0.0,0.0,1.0,inf\n" in got and b",nan,nan\n" in got


def forking_raw():
    """Three entries whose CSVs hold about 16k values each: positivity and
    decay write CSVs, triviality errors and writes none."""
    raw = base_raw()
    raw["p_values"] = [1.5, 2.0, 3.0]
    raw["scenarios"][0]["initial"] = {"type": "random_uniform", "low": 0.1, "high": 0.5}
    raw["scenarios"][0]["controls"] = {"dt_max": 1e-4}
    raw["checkers"] = [{"id": "positivity"}, {"id": "triviality"}, {"id": "decay", "T_blow": 5.0}]
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
    with open(report.timing["report_path"]) as fh:
        on_disk = json.load(fh)
    on_disk.pop("timing")
    return on_disk, {str(path.relative_to(out_dir)): path.read_bytes() for path in out_dir.rglob("*.csv")}


@pytest.mark.parametrize("fallback", ["second fork fails", "one CPU", "no fork"])
def test_entry_csvs_written_without_a_child_are_the_same_bytes(tmp_path, monkeypatch, fallback):
    # each entry's CSVs are written by a forked child while the next entry
    # runs; where no child can be had, the runner writes them itself, and
    # the report and every CSV are the same either way
    cfg = validate_config(forking_raw())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = counted_fork(monkeypatch)
    forked = run_experiment(cfg, out_dir=str(tmp_path / "forked"))
    assert len(forks) == 3
    if fallback == "second fork fails":
        forks = counted_fork(monkeypatch, failing=(2,))
    elif fallback == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        forks = counted_fork(monkeypatch)
    else:
        monkeypatch.delattr(os, "fork")
        forks = []
    written = run_experiment(cfg, out_dir=str(tmp_path / "written"))
    assert len(forks) == (3 if fallback == "second fork fails" else 0)
    expected = sweep_outputs(tmp_path / "forked", forked)
    assert len(expected[1]) == 3 * 2 + 2
    assert sweep_outputs(tmp_path / "written", written) == expected
    assert [e["checks"]["decay"]["rows"] for e in written.entries] == [2001] * 3


def test_run_experiment_keeps_one_entry_csv_writer_at_a_time(tmp_path, monkeypatch):
    # each writer is read and reaped before the next one starts, so a sweep
    # of many entries holds at most one child and one pipe, whatever its
    # size.  These entries hold fewer than EXPORT_VALUES_PER_WORKER values
    # each, so the runner writes them all itself until that gate is lowered
    raw = base_raw()
    raw["p_values"] = [1.5 + 0.25 * k for k in range(12)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = counted_fork(monkeypatch)
    run_experiment(validate_config(raw), out_dir=str(tmp_path / "gated"))
    assert forks == []
    monkeypatch.setattr(evolve_module, "EXPORT_VALUES_PER_WORKER", 1)
    live, outstanding = set(), []
    fork, waitpid = os.fork, os.waitpid

    def tracked_fork():
        outstanding.append(len(live))
        pid = fork()
        if pid:
            live.add(pid)
        return pid

    def tracked_waitpid(pid, options):
        reaped = waitpid(pid, options)
        live.discard(reaped[0])
        return reaped

    monkeypatch.setattr(os, "fork", tracked_fork)
    monkeypatch.setattr(os, "waitpid", tracked_waitpid)
    report = run_experiment(validate_config(raw), out_dir=str(tmp_path))
    assert outstanding == [0] * 12
    assert not live
    for entry in report.entries:
        record = entry["checks"]["positivity"]
        data = (tmp_path / record["csv"]).read_bytes()
        assert record["sha256"] == hashlib.sha256(data).hexdigest()
        assert record["rows"] == data.count(b"\n") - 1


def test_run_experiment_raises_when_an_entry_csv_writer_fails(tmp_path, monkeypatch, capfd):
    # a directory stands where the second entry's decay CSV goes: its child
    # fails, the runner raises OSError once it reaps it, and no report is
    # written (every child is reaped; the autouse fixture checks)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "out"
    (out / "warm__p2_decay.csv").mkdir(parents=True)
    with pytest.raises(OSError, match=r"^entry CSV writer \d+ exited with code 1 "):
        run_experiment(validate_config(forking_raw()), out_dir=str(out))
    assert not [name for name in os.listdir(out) if name.startswith("report_")]
    assert "IsADirectoryError" in capfd.readouterr().err


@pytest.mark.parametrize("cpus", [2, 1])
def test_run_experiment_raises_when_an_entry_csv_is_missing(tmp_path, monkeypatch, cpus):
    # a writer that writes nothing, in a forked child (which inherits the
    # patch) or in the runner: reading the first entry's CSVs back raises
    # OSError, no report is written and every child is reaped (the autouse
    # fixture checks)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(experiment, "_write_entry_csvs", lambda *args: None)
    forks = counted_fork(monkeypatch)
    with pytest.raises(FileNotFoundError, match="warm__p1.5_positivity.csv"):
        run_experiment(validate_config(forking_raw()), out_dir=str(tmp_path))
    assert len(forks) == (1 if cpus == 2 else 0)
    assert os.listdir(tmp_path) == []


def test_run_experiment_reaps_its_children_when_a_later_entry_raises(tmp_path, monkeypatch):
    # the first entry's CSVs are in a child when the second entry raises an
    # error the runner does not record; the child is stopped and reaped
    # (the autouse fixture checks) and no report is written
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = counted_fork(monkeypatch)
    check = experiment.check_decay

    def fails_at_p2(traj, p, **kwargs):
        if p == 2.0:
            raise RuntimeError("unexpected")
        return check(traj, p=p, **kwargs)

    monkeypatch.setattr(experiment, "check_decay", fails_at_p2)
    with pytest.raises(RuntimeError, match="^unexpected$"):
        run_experiment(validate_config(forking_raw()), out_dir=str(tmp_path))
    assert len(forks) == 1
    assert not [name for name in os.listdir(tmp_path) if name.startswith("report_")]


def test_cli_run_verbose_prints_each_entry_once(tmp_path):
    # with stdout a pipe it is block-buffered; a forked child must not
    # write what the parent buffered, nor print anything of its own
    cfg_path = write_cfg(tmp_path, forking_raw())
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    code = "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; from semiheat.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", cfg_path, "--verbose", "--out-dir", str(tmp_path / "out")],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr  # the triviality check errors
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["  [ok] warm__p1.5", "  [ok] warm__p2", "  [ok] warm__p3"]
    assert lines[3].startswith("report: ")
    assert lines[4:] == ["entries: 3, scenario errors: 0, check failures: 3"]


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
    assert cli_main(["plotdata", first.timing["report_path"], "decay", "--out-dir", str(tmp_path / "plots")]) == 2
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
    loaded = json.loads(Path(report.timing["report_path"]).read_text())
    again = RunReport.from_json_dict(loaded)
    assert again.config_hash == report.config_hash
    assert again.all_passed == report.all_passed
    assert loaded["all_passed"] is True


# ------------------------------------------------------------------- CLI


def write_cfg(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_check_and_run_pass(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, base_raw())
    assert cli_main(["check", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert cli_main(["run", cfg_path, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_cli_run_failure_exit_code(tmp_path):
    raw = base_raw()
    raw["checkers"] = [{"id": "decay", "T_blow": 1.0, "c_cap": 1e-6}]
    cfg_path = write_cfg(tmp_path, raw)
    assert cli_main(["run", cfg_path, "--out-dir", str(tmp_path)]) == 1


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


def test_cli_jobs_flag_is_ignored(tmp_path):
    raw = base_raw()
    raw["p_values"] = [1.5, 2.0]
    raw["scenarios"][0]["initial"] = {"type": "random_uniform", "low": 0.1, "high": 0.5}
    cfg_path = write_cfg(tmp_path, raw)
    reports = []
    for out, extra in (("plain", []), ("jobs", ["--jobs", "2"])):
        out_dir = tmp_path / out
        assert cli_main(["run", cfg_path, "--out-dir", str(out_dir), *extra]) in (0, 1)
        (path,) = [f for f in os.listdir(out_dir) if f.startswith("report_")]
        report = json.loads((out_dir / path).read_text())
        report.pop("timing")
        reports.append(report)
    assert reports[0] == reports[1]


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
    for checker, message in (
        ({"id": "gradient", "variant": "ancient", "D": -1}, "checkers[0]: D must be positive"),
        ({"id": "gradient", "variant": "global", "D": 1.0}, "checkers[0].T: missing required field"),
        ({"id": "triviality", "osc_floor": -1}, "checkers[0]: osc_floor must be nonnegative"),
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
    assert "scenarios[0].initial.mode: mode index out of range for 64 nodes" in capsys.readouterr().err
    assert cli_main(["run", str(tmp_path / "missing.json")]) == 2


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


def test_sweep_report_demo_runs(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    demo = os.path.join(root, "demos", "sweep_report.py")
    proc = subprocess.run(
        [sys.executable, demo, "--out-dir", str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "all passed: True" in proc.stdout
    assert any(name.startswith("report_") for name in os.listdir(tmp_path))
    assert any(name.startswith("plot_positivity_") for name in os.listdir(tmp_path))


# ------------------------------------------------------- config properties

_NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-5.0, 5.0).filter(lambda x: abs(x) >= 0.01))
_ANY = st.one_of(_NUMBERS, st.text(max_size=3), st.booleans(), st.none(), st.lists(_NUMBERS, max_size=2))
# values of the right type (numbers unless listed), some of them out of range
_TYPED = {
    "variant": st.sampled_from(["local", "global", "ancient", "sideways"]),
    "reaction_on": st.booleans(),
    "snapshot_every": st.integers(-1, 4),
    "blow_threshold": st.sampled_from([1e5, 1e6, 1e8]),
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
