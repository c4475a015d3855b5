import ast
import csv
import errno
import importlib
import inspect
import io
import json
import math
import os
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiheat import (
    EvolveControls,
    SolverAbort,
    ancient_approximation,
    build_manifold,
    detect_blowup,
    evolve,
    export_trajectory,
    integrate_scalar_ode,
    trajectory_from_samples,
    trivial_ancient,
)
from semiheat.evolve import BlowupInfo, Trajectory
from semiheat.geometry import _aligned_values, _step_matrix, implicit_diffusion_solve, laplacian_spectrum
from semiheat.reaction_ode import BLOW_THRESHOLD, _dt_cap, _positive_flow, blowup_time_from_min, reaction_flow

# the package re-exports the function ``evolve`` under the submodule's name
evolve_module = importlib.import_module("semiheat.evolve")


def circle(count=64, length=2 * np.pi):
    return build_manifold("circle", 1, length, count)


def test_controls_validation():
    with pytest.raises(ValueError):
        EvolveControls(dt_max=0.0)
    with pytest.raises(ValueError):
        EvolveControls(snapshot_every=0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dt_max", math.nan, "dt_max must be positive, got nan"),
        ("snapshot_every", 2.5, "snapshot_every must be an integer, got 2.5"),
        ("snapshot_every", True, "snapshot_every must be an integer, got True"),
    ],
)
def test_controls_refuse_nan_and_non_integral_values(field, value, message):
    # NaN fails every comparison, so it would pass a check written as the
    # negation of the bad case
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EvolveControls(**{field: value})


def test_evolve_rejects_bad_arguments():
    m = circle(16)
    with pytest.raises(ValueError):
        evolve(m, np.ones(16), 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        evolve(m, np.full(16, np.nan), 0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        evolve(m, np.ones(17), 0.0, 1.0, 2.0)


def test_constant_data_matches_scalar_ode():
    m = build_manifold("sphere_zonal", 2, 1.0, 64)
    traj = evolve(m, np.ones(64), 0.0, 0.9, 2.0)
    ref = integrate_scalar_ode(2.0, 1.0, (0.0, 0.9))
    assert traj.times[-1] == pytest.approx(0.9, abs=1e-12)
    # spatial spread stays at roundoff
    spread = traj.snapshot_max - traj.snapshot_min
    assert np.max(spread / traj.snapshot_max) <= 1e-12
    # values track the exact solution of v' = v^2
    exact = 1.0 / (1.0 - traj.times)
    rel = np.abs(traj.snapshot_max - exact) / exact
    assert np.max(rel) <= 1e-7
    assert ref.values[-1] == pytest.approx(traj.snapshot_max[-1], rel=1e-7)


def test_constant_negative_data_is_immortal():
    m = circle(32)
    traj = evolve(m, -np.ones(32), 0.0, 3.0, 2.0)
    assert traj.negative_data
    assert traj.blowup is None
    exact = -1.0 / (1.0 + traj.times)
    assert np.max(np.abs(traj.snapshot_min - exact)) <= 1e-8
    assert np.max(traj.snapshot_max) < 0


def test_pure_diffusion_decays_first_mode():
    # the diffusion half of the step alone: 1000 implicit Euler solves to t = 1
    m = circle(128)
    u0 = np.sin(m.nodes)
    u = u0
    for _ in range(1000):
        u = implicit_diffusion_solve(m, u, 1e-3)
    exact = np.exp(-1.0) * u0
    assert np.max(np.abs(u - exact)) <= 5e-3


def test_nonnegative_data_stays_nonnegative():
    m = circle(96)
    u0 = np.clip(np.sin(3 * m.nodes), 0.0, None)
    traj = evolve(m, u0, 0.0, 0.5, 2.0)
    assert float(np.min(traj.snapshots)) >= -1e-13
    assert not traj.negative_data


def test_static_profile_drift():
    # radial steady state of the critical reaction in dimension four:
    # 8/(8+r^2) solves Lap u + u^3 = 0, so the run should not move
    m = build_manifold("euclidean_radial", 4, 80.0, 2000)
    r = m.nodes
    u0 = 8.0 / (8.0 + r ** 2)
    controls = EvolveControls(dt_max=8e-5, snapshot_every=1000)
    traj = evolve(m, u0, 0.0, 1.0, 3.0, controls)
    drift = np.max(np.abs(traj.snapshots - u0[None, :]))
    assert drift <= 1e-4


def test_detect_blowup_from_run():
    m = circle(32)
    traj = evolve(m, np.ones(32), 0.0, 2.0, 2.0)
    assert traj.blowup is not None
    assert traj.blowup.method == "threshold"
    t_star = detect_blowup(traj, 2.0)
    assert t_star == pytest.approx(1.0, abs=1e-3)
    assert traj.times[-1] < 1.0


def test_detect_blowup_from_synthetic_samples():
    m = circle(16)
    times = np.linspace(-3.0, -0.01, 300)
    snaps = np.tile(trivial_ancient(2.0, 0.0, times)[:, None], (1, 16))
    traj = trajectory_from_samples(m, times, snaps)
    t_star = detect_blowup(traj, 2.0)
    assert t_star == pytest.approx(0.0, abs=1e-3)


def test_detect_blowup_rejects_flat_runs():
    m = circle(16)
    times = np.linspace(0.0, 1.0, 50)
    snaps = np.tile(np.exp(-times)[:, None], (1, 16))
    traj = trajectory_from_samples(m, times, snaps)
    with pytest.raises(ValueError):
        detect_blowup(traj, 2.0)
    with pytest.raises(ValueError, match="expects positive max u"):
        detect_blowup(trajectory_from_samples(m, times, -snaps), 2.0)


def test_detect_blowup_needs_enough_snapshots():
    m = circle(16)
    times = np.array([0.0, 0.1])
    snaps = np.ones((2, 16))
    traj = trajectory_from_samples(m, times, snaps)
    with pytest.raises(ValueError):
        detect_blowup(traj, 2.0)


def test_ancient_approximation_unperturbed():
    m = build_manifold("sphere_zonal", 2, 1.0, 96)
    traj = ancient_approximation(m, 2.0, 0.0, -10.0, 0.0, 0)
    # compare away from the singularity, where accumulated roundoff in the
    # time variable is not amplified by the blow-up factor
    keep = traj.snapshot_max <= 1e3
    ref = trivial_ancient(2.0, 0.0, traj.times[keep])
    rel = np.abs(traj.snapshot_max[keep] - ref) / ref
    assert np.max(rel) <= 1e-6
    assert traj.blowup is not None
    assert detect_blowup(traj, 2.0) == pytest.approx(0.0, abs=1e-3)


def test_ancient_approximation_perturbed():
    m = build_manifold("sphere_zonal", 2, 1.0, 96)
    traj = ancient_approximation(m, 2.0, 0.0, -10.0, 0.1, 1)
    assert float(np.min(traj.snapshots)) > 0.0
    osc = traj.snapshot_max - traj.snapshot_min
    k1 = int(np.searchsorted(traj.times, -9.0))
    # the mode decays while the background is still nearly frozen
    assert osc[k1] < 0.5 * osc[0]


def test_ancient_approximation_rejects_bad_setup():
    m = build_manifold("sphere_zonal", 2, 1.0, 64)
    with pytest.raises(ValueError):
        ancient_approximation(m, 2.0, 0.0, -5.0, 0.1, 1)
    with pytest.raises(ValueError):
        ancient_approximation(m, 2.0, 0.0, -10.0, 1.0, 1)
    with pytest.raises(ValueError):
        ancient_approximation(m, 2.0, 0.0, -10.0, -0.1, 1)
    with pytest.raises(ValueError):
        ancient_approximation(m, 2.0, 0.0, -10.0, 0.1, 10_000)
    # a negative index would pick a mode from the end of the spectrum
    with pytest.raises(ValueError, match="mode index out of range for 64 nodes"):
        ancient_approximation(m, 2.0, 0.0, -10.0, 0.1, -1)


def test_slice_time():
    m = circle(16)
    times = np.linspace(0.0, 1.0, 11)
    snaps = np.outer(1.0 + times, np.ones(16))
    traj = trajectory_from_samples(m, times, snaps)
    part = traj.slice_time(0.25, 0.75)
    assert part.times[0] >= 0.25 and part.times[-1] <= 0.75
    assert part.snapshots.shape == (part.times.size, 16)
    with pytest.raises(ValueError):
        traj.slice_time(5.0, 6.0)


def test_slice_time_drops_outside_blowup():
    m = circle(32)
    traj = evolve(m, np.ones(32), 0.0, 2.0, 2.0)
    early = traj.slice_time(0.0, 0.5)
    assert early.blowup is None
    late = traj.slice_time(0.9, 2.0)
    assert late.blowup is not None


def test_trajectory_from_samples_validation():
    m = circle(16)
    with pytest.raises(ValueError):
        trajectory_from_samples(m, [0.0, 1.0], np.full((2, 16), np.inf))
    with pytest.raises(ValueError):
        trajectory_from_samples(m, [0.0, 1.0], np.ones((2, 8)))
    with pytest.raises(ValueError):
        trajectory_from_samples(m, [1.0, 0.0], np.ones((2, 16)))
    traj = trajectory_from_samples(m, [0.0, 1.0], -np.ones((2, 16)))
    assert traj.negative_data


def test_snapshot_cadence():
    m = circle(32)
    controls = EvolveControls(dt_max=0.01, snapshot_every=10)
    # max |u| stays below 1, so the blow-up cap never binds and every dt is 0.01
    traj = evolve(m, 0.5 * np.sin(m.nodes), 0.0, 1.0, 2.0, controls)
    assert traj.times.size <= 12
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    # step log still has every step
    assert traj.step_times.size == 100


def test_export_trajectory(tmp_path):
    m = circle(16)
    traj = evolve(m, np.ones(16), 0.0, 0.1, 2.0)
    csv_path = tmp_path / "run.csv"
    side_path = tmp_path / "run.json"
    export_trajectory(traj, csv_path, side_path, meta={"tag": "demo"})
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,node_index,u"
    assert len(lines) == 1 + traj.times.size * 16
    sidecar = json.loads(side_path.read_text())
    assert sidecar["manifold"]["kind"] == "circle"
    assert sidecar["meta"]["tag"] == "demo"


# with 16 nodes, the snapshot count from which a second CPU gets a block
FORK_AT = 2 * evolve_module.EXPORT_VALUES_PER_WORKER // 16


def export_sample(count):
    # the first count snapshots of one sample; extreme values, signed zero
    # and times whose repr is long sit in the first snapshot and in the
    # first one of a second block
    rng = np.random.default_rng(0)
    times = -12.0 + np.cumsum(0.1 + 0.2 + rng.random(FORK_AT + 1))
    snaps = rng.standard_normal((FORK_AT + 1, 16)) / 7.0
    for k in (0, FORK_AT // 2):
        snaps[k, :4] = [-0.0, 5e-324, 1e308, -1e308]
    return trajectory_from_samples(circle(16), times[:count], snaps[:count])


@pytest.fixture(scope="module")
def csv_writer_lines(tmp_path_factory):
    """The lines csv.writer writes for export_sample(FORK_AT + 1)."""
    traj = export_sample(FORK_AT + 1)
    path = tmp_path_factory.mktemp("reference") / "ref.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "node_index", "u"])
        for t, snap in zip(traj.times.tolist(), traj.snapshots.tolist()):
            for idx, val in enumerate(snap):
                writer.writerow([repr(t), idx, repr(val)])
    return path.read_bytes().splitlines(keepends=True)


def test_export_trajectory_writes_the_csv_writer_bytes(tmp_path, monkeypatch, csv_writer_lines):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    # one snapshot, a few, just below and at the fork threshold, and an odd
    # count above it, whose two blocks are uneven
    for count in (1, 3, FORK_AT - 1, FORK_AT, FORK_AT + 1):
        traj = export_sample(count)
        expected = b"".join(csv_writer_lines[: 1 + 16 * count])
        sidecar = {
            "manifold": {"kind": "circle", "n": 1, "radius_or_length": 2 * np.pi, "node_count": 16},
            "step_log": {
                "t": traj.step_times.tolist(),
                "dt": traj.step_dt.tolist(),
                "max_u": traj.step_max.tolist(),
                "min_u": traj.step_min.tolist(),
            },
            "blowup": None,
            "negative_data": traj.negative_data,
            "meta": {"count": count},
        }
        for cpus, expected_forks in ((1, 0), (2, int(count >= FORK_AT)), (4, int(count >= FORK_AT))):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            forks.clear()
            export_trajectory(traj, tmp_path / "run.csv", tmp_path / "run.json", {"count": count})
            assert len(forks) == expected_forks
            assert (tmp_path / "run.csv").read_bytes() == expected
            assert (tmp_path / "run.json").read_text() == json.dumps(sidecar, indent=1, sort_keys=True)
            assert sorted(os.listdir(tmp_path)) == ["run.csv", "run.json"]
    # without fork, one process writes everything
    monkeypatch.delattr(os, "fork")
    export_trajectory(traj, tmp_path / "run.csv")
    assert (tmp_path / "run.csv").read_bytes() == expected


def reference_export(traj, meta):
    """The CSV csv.writer writes over repr(float) of each value, and the
    sidecar json.dump(indent=1, sort_keys=True) writes."""
    rows = io.StringIO(newline="")
    writer = csv.writer(rows)
    writer.writerow(["t", "node_index", "u"])
    for t, snap in zip(traj.times.tolist(), traj.snapshots.tolist()):
        writer.writerows([repr(t), idx, repr(val)] for idx, val in enumerate(snap))
    sidecar = io.StringIO()
    m = traj.manifold
    json.dump(
        {
            "manifold": {"kind": m.kind, "n": m.n, "radius_or_length": m.radius_or_length, "node_count": m.node_count},
            "step_log": {
                "t": traj.step_times.tolist(),
                "dt": traj.step_dt.tolist(),
                "max_u": traj.step_max.tolist(),
                "min_u": traj.step_min.tolist(),
            },
            "blowup": None if traj.blowup is None else {"detected_time": traj.blowup.detected_time, "method": traj.blowup.method},
            "negative_data": traj.negative_data,
            "meta": meta or {},
        },
        sidecar,
        indent=1,
        sort_keys=True,
    )
    return rows.getvalue().encode(), sidecar.getvalue().encode()


# values whose repr orjson does not write, and signed zero
OFF_BAND = [1e-5, -1e-8, 1e16, 5e-324, -0.0, -1e300, 9.999999999999999e-05]


def off_band_sample(count, nodes):
    # times outside orjson's band first, and such values in every seventh
    # snapshot, whose node index moves with it
    rng = np.random.default_rng(count)
    times = np.concatenate([[-1e16, -1e-8, -0.0, 5e-324, 1e-5], 1e-4 + np.cumsum(rng.random(max(0, count - 5)))])[:count]
    snaps = rng.standard_normal((count, nodes)) * 10.0 ** rng.integers(-9, 9, (count, nodes))
    for k in range(0, count, 7):
        snaps[k, k : k + len(OFF_BAND)] = OFF_BAND
    return trajectory_from_samples(build_manifold("circle", 1, 2 * np.pi, nodes), times, snaps)


def test_export_trajectory_chunks_write_the_reference_bytes(tmp_path, monkeypatch):
    # snapshot counts around and between whole chunks of 4096 values (16
    # snapshots of 256 nodes), one block per CPU where a block holds at
    # least 16 * 256 values, and snapshots larger than a chunk
    assert evolve_module.EXPORT_CHUNK_VALUES == 4096
    monkeypatch.setattr(evolve_module, "EXPORT_VALUES_PER_WORKER", 16 * 256)
    for count, nodes in [(count, 256) for count in (1, 5, 15, 16, 17, 33, 47)] + [(3, 5000)]:
        traj = off_band_sample(count, nodes)
        meta = {"count": count, "nodes": nodes}
        expected = reference_export(traj, meta)
        assert expected[0].startswith(b"t,node_index,u\r\n-1e+16,0,1e-05\r\n")
        assert (b"\r\n5e-324,0," in expected[0]) == (count > 3)
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            export_trajectory(traj, tmp_path / "run.csv", tmp_path / "run.json", meta)
            assert ((tmp_path / "run.csv").read_bytes(), (tmp_path / "run.json").read_bytes()) == expected, (count, nodes, cpus)


def test_export_trajectory_writes_the_reference_sidecar(tmp_path):
    # an empty step log (one snapshot), a hand-built step log holding NaN
    # and +-inf with a blow-up record, and nested, non-ASCII meta
    one = trajectory_from_samples(circle(16), [0.5], np.ones((1, 16)))
    assert one.step_times.size == 0
    logged = Trajectory(
        manifold=circle(16),
        times=[0.0, 1.0],
        snapshots=np.ones((2, 16)),
        step_times=np.array([0.5, 1.0, 1.5]),
        step_dt=np.array([0.5, np.nan, 1e-5]),
        step_max=np.array([np.inf, 2.0, -0.0]),
        step_min=np.array([-np.inf, 1e16, 5e-324]),
        blowup=BlowupInfo(1.0, "threshold"),
    )
    meta = {"caf\u00e9": [1, {"x\u00b2": [], "nested": {"deep": [0.1, "\u6f22"]}}], "": None, "n": float("nan")}
    for traj in (one, logged):
        for m in (None, {}, meta):
            export_trajectory(traj, tmp_path / "run.csv", tmp_path / "run.json", m)
            assert ((tmp_path / "run.csv").read_bytes(), (tmp_path / "run.json").read_bytes()) == reference_export(traj, m)
    assert b'"dt": [\n   0.5,\n   NaN,\n   1e-05\n  ]' in (tmp_path / "run.json").read_bytes()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(
    log=st.fixed_dictionaries({key: st.lists(st.floats(), max_size=6) for key in ("t", "dt", "max_u", "min_u")}),
    meta=st.dictionaries(st.text(max_size=4), json_values, max_size=3),
    rest=st.fixed_dictionaries({"manifold": st.dictionaries(st.text(max_size=4), json_values, max_size=3), "blowup": st.none()}),
)
def test_sidecar_text_is_the_indented_encoder_text(log, meta, rest):
    sidecar = {**rest, "negative_data": False, "meta": meta}
    assert evolve_module._sidecar_text(sidecar, log) == json.dumps({**sidecar, "step_log": log}, indent=1, sort_keys=True)


def test_export_trajectory_splits_into_one_block_per_cpu(monkeypatch):
    per_worker = evolve_module.EXPORT_VALUES_PER_WORKER
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert evolve_module._export_block_bounds(2934, 256) == [0, 733, 1467, 2200, 2934]
    # 3 * per_worker - 1 values make two blocks, not three
    values = 3 * per_worker - 1
    assert evolve_module._export_block_bounds(values, 1) == [0, values // 2, values]
    assert evolve_module._export_block_bounds(1, 10**6) == [0, 1]
    assert evolve_module._export_block_bounds(0, 256) == [0, 0]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert evolve_module._export_block_bounds(2934, 256) == [0, 2934]


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_export_trajectory_cleans_up_when_a_block_fails(tmp_path, monkeypatch, capfd, failing):
    # the forked child inherits the patched formatter; a failing child
    # raises OSError in the parent and writes its traceback to stderr, a
    # failing parent stops the child, and either way every child is reaped
    # (the autouse fixture checks), no temporary file is left, and no CSV is
    # written: an earlier one stays as it was
    parent = os.getpid()
    write = evolve_module._write_csv_rows

    def fails_in_one_process(*args):
        if (os.getpid() == parent) == (failing == "parent"):
            raise RuntimeError(f"{failing} formatter failed")
        write(*args)

    monkeypatch.setattr(evolve_module, "_write_csv_rows", fails_in_one_process)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    error = (OSError, "exited with code 1 ") if failing == "child" else (RuntimeError, "^parent formatter failed$")
    with pytest.raises(error[0], match=error[1]):
        export_trajectory(export_sample(FORK_AT), tmp_path / "run.csv", tmp_path / "run.json")
    assert os.listdir(tmp_path) == []
    assert ("RuntimeError: child formatter failed" in capfd.readouterr().err) == (failing == "child")
    earlier = b"t,node_index,u\r\n0.0,0,1.0\r\n"
    (tmp_path / "run.csv").write_bytes(earlier)
    with pytest.raises(error[0], match=error[1]):
        export_trajectory(export_sample(FORK_AT), tmp_path / "run.csv", tmp_path / "run.json")
    assert os.listdir(tmp_path) == ["run.csv"]
    assert (tmp_path / "run.csv").read_bytes() == earlier


def test_export_trajectory_keeps_the_earlier_pair_when_meta_cannot_be_encoded(tmp_path, monkeypatch):
    # the sidecar is serialized before the CSV is renamed into place, so a
    # meta JSON cannot encode leaves the earlier CSV and sidecar byte for
    # byte, and no private directory behind
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    export_trajectory(export_sample(3), tmp_path / "run.csv", tmp_path / "run.json", {"count": 3})
    earlier = {name: (tmp_path / name).read_bytes() for name in ("run.csv", "run.json")}
    with pytest.raises(TypeError, match="not JSON serializable"):
        export_trajectory(export_sample(FORK_AT), tmp_path / "run.csv", tmp_path / "run.json", {"x": object()})
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == earlier


def test_export_trajectory_keeps_the_earlier_pair_when_a_directory_is_at_the_sidecar_path(tmp_path, monkeypatch):
    # both paths are checked before either file is placed: a directory at
    # sidecar_path is IsADirectoryError naming it, the earlier CSV and
    # sidecar stay byte for byte (the new CSV differs from the earlier
    # one), and no private directory is left
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    export_trajectory(export_sample(3), tmp_path / "run.csv", tmp_path / "run.json", {"count": 3})
    earlier = {name: (tmp_path / name).read_bytes() for name in ("run.csv", "run.json")}
    (tmp_path / "dir.json").mkdir()
    with pytest.raises(IsADirectoryError, match="dir.json"):
        export_trajectory(export_sample(FORK_AT), tmp_path / "run.csv", tmp_path / "dir.json", {"count": FORK_AT})
    assert sorted(os.listdir(tmp_path)) == ["dir.json", "run.csv", "run.json"]
    assert {name: (tmp_path / name).read_bytes() for name in ("run.csv", "run.json")} == earlier
    assert os.listdir(tmp_path / "dir.json") == []


def test_export_trajectory_refuses_one_path_for_the_csv_and_the_sidecar(tmp_path, monkeypatch):
    # the sidecar would replace the CSV just placed: ValueError naming the
    # path, before either file is placed, so the earlier CSV and sidecar
    # stay byte for byte and no private directory is left.  The paths are
    # compared as absolute paths, so two spellings of one path are refused
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run_csv, run_json = tmp_path / "run.csv", tmp_path / "run.json"
    export_trajectory(export_sample(3), run_csv, run_json, {"count": 3})
    earlier = {name: (tmp_path / name).read_bytes() for name in ("run.csv", "run.json")}
    for csv_path, sidecar_path in ((run_csv, run_csv), (run_csv, f"{tmp_path}/./run.csv"), (run_json, run_json)):
        with pytest.raises(ValueError, match=re.escape(f"published to {sidecar_path}") + "$"):
            export_trajectory(export_sample(FORK_AT), csv_path, sidecar_path, {"count": FORK_AT})
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == earlier


def test_export_trajectory_writes_a_sidecar_on_another_file_system(tmp_path, monkeypatch):
    # a rename across file systems fails (EXDEV); the sidecar is then copied
    # onto its path, so it may sit on another file system than the CSV
    other = tmp_path / "other"
    other.mkdir()
    rename, refused = os.rename, []

    def within_a_file_system(src, dst):
        if Path(src).is_relative_to(other) != Path(dst).is_relative_to(other):
            refused.append(dst)
            raise OSError(errno.EXDEV, "Invalid cross-device link")
        rename(src, dst)

    export_trajectory(export_sample(3), tmp_path / "ref.csv", tmp_path / "ref.json", {"count": 3})
    monkeypatch.setattr(os, "rename", within_a_file_system)
    export_trajectory(export_sample(3), tmp_path / "run.csv", other / "run.json", {"count": 3})
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (other / "run.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert os.listdir(other) == ["run.json"]
    assert refused == [other / "run.json"]


def test_export_trajectory_gives_the_csv_the_mode_of_a_plain_open(tmp_path):
    # the CSV is renamed into place from a private directory; its mode is
    # still the one open(path, "w") gives a new file under the umask
    old = os.umask(0o027)
    try:
        export_trajectory(export_sample(3), tmp_path / "run.csv")
        open(tmp_path / "plain.csv", "w").close()
    finally:
        os.umask(old)
    assert (tmp_path / "run.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode
    assert (tmp_path / "run.csv").stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["plain.csv", "run.csv"]


def test_export_trajectory_formats_the_blocks_it_cannot_fork(tmp_path, monkeypatch, csv_writer_lines):
    # four blocks; every fork after the first fails as under a process
    # limit, and each later block tries again, so one child formats block 1
    # and the caller formats blocks 0, 2 and 3
    forks = []
    fork = os.fork

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setattr(evolve_module, "EXPORT_VALUES_PER_WORKER", 16)
    assert len(evolve_module._export_block_bounds(FORK_AT + 1, 16)) == 5
    export_trajectory(export_sample(FORK_AT + 1), tmp_path / "run.csv")
    assert len(forks) == 3
    assert (tmp_path / "run.csv").read_bytes() == b"".join(csv_writer_lines)
    assert os.listdir(tmp_path) == ["run.csv"]


def test_radial_step_lets_a_nonnegative_tent_dip():
    # the fourth-order radial I - dt * L is not an M-matrix: a tent that is
    # not smooth at the grid scale goes slightly negative on 200 nodes, and
    # stays nonnegative on 400 (a discretization artefact, not a finding)
    controls = EvolveControls(dt_max=1e-3)
    dips = []
    for count in (200, 400):
        m = build_manifold("euclidean_radial", 3, 20.0, count)
        traj = evolve(m, np.maximum(0.0, 1.0 - m.nodes / 2.0), 0.0, 0.5, 3.0, controls)
        dips.append(float(traj.step_min.min()))
    assert -1.2e-5 < dips[0] < -1.0e-5
    assert dips[1] >= 0.0


_EPS = np.finfo(float).eps
# the closed kinds of the order and mass properties: kind, n, size
_CLOSED = {"circle": ("circle", 1, 2 * np.pi), "S2": ("sphere_zonal", 2, 1.0), "S5": ("sphere_zonal", 5, 1.0)}


def one_step(m, u, p, dt):
    """The state after one step of evolve from u over [0, dt]; dt must not
    exceed the blow-up cap at u, so the step is exactly dt long."""
    traj = evolve(m, u, 0.0, dt, p, EvolveControls(dt_max=dt))
    assert traj.step_dt.tolist() == [dt]
    return traj.snapshots[-1]


def top_eigenvalue(m):
    # the largest eigenvalue of -L: 1 + dt * it bounds the condition of I - dt L
    return float(laplacian_spectrum(m)[0][-1])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(_CLOSED)),
    count=st.integers(16, 400),
    p=st.floats(1.2, 6.0),
    log_dt=st.floats(-5.0, -1.0),
    low=st.sampled_from([-1.0, 0.0, 0.5]),
    log_amplitude=st.floats(-3.0, 2.0),
    log_gap=st.floats(-16.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_step_keeps_order_on_the_closed_kinds(kind, count, p, log_dt, low, log_amplitude, log_gap, seed):
    # the exact reaction flow is monotone and (I - dt L)^-1 is nonnegative,
    # so u <= v gives step(u) <= step(v).  On the circle that holds exactly.
    # On the sphere the solve rounds to an excess of at most (1 + dt
    # lambda_max) ulps of max |step(v)| (at most 0.45 of that measured over
    # 15000 pairs at N = 16 to 700; test_sphere_step_order_excess_is_roundoff
    # pins one), lambda_max being the top eigenvalue of -L
    m = build_manifold(*_CLOSED[kind], count)
    rng = np.random.default_rng(seed)
    amplitude = 10.0**log_amplitude
    u = rng.uniform(low * amplitude, amplitude, count)
    v = u + rng.uniform(0.0, amplitude, count) * (rng.random(count) < 0.5) * 10.0**log_gap
    dt = min(10.0**log_dt, _dt_cap(p, float(np.abs(v).max())), _dt_cap(p, float(np.abs(u).max())))
    step_u, step_v = one_step(m, u, p, dt), one_step(m, v, p, dt)
    allowance = 0.0 if kind == "circle" else (1.0 + dt * top_eigenvalue(m)) * _EPS * float(np.abs(step_v).max())
    assert np.max(step_u - step_v) <= allowance


def test_sphere_step_order_excess_is_roundoff():
    # one ulp more at the last node of random data on the 16-node sphere
    # gives a step that lies 0.97 ulps of its max below the step of the data
    # at the node beside it: an excess within the order property's
    # allowance, here 12 ulps
    m = build_manifold("sphere_zonal", 2, 1.0, 16)
    u = np.random.default_rng(41).uniform(0.0, 0.1, 16)
    v = u.copy()
    v[15] = np.nextafter(v[15], 1.0)
    step_u, step_v = one_step(m, u, 2.0, 0.1), one_step(m, v, 2.0, 0.1)
    assert int(np.argmax(step_u - step_v)) == 14
    excess = np.max(step_u - step_v) / (_EPS * np.abs(step_v).max())
    assert 0.96 < excess < 0.97 < 1.0 + 0.1 * top_eigenvalue(m)


def _zonal_bands(m, dt):
    # (dl, d, du): the sub-, main and super-diagonal of I - dt L, as the
    # step's dgtsv call takes them
    ab, _ = _step_matrix(m, dt)
    return ab[2, :-1], ab[1], ab[0, 1:]


def _first_interchange(dl, d, du):
    """The first column k where dgtsv interchanges rows k and k + 1, |dl_k| >
    |d_k| once the columns before it are eliminated; None if none does."""
    dl, d, du = dl.tolist(), d.tolist(), du.tolist()
    for k, sub in enumerate(dl):
        if abs(sub) > abs(d[k]):
            return k
        d[k + 1] -= sub / d[k] * du[k]
    return None


def _no_interchange_solve(dl, d, du, b):
    # tridiagonal elimination without row interchanges, in dgtsv's order of
    # operations: where dgtsv interchanges none, the two agree bit for bit
    dl, d, du, b = dl.tolist(), d.tolist(), du.tolist(), b.tolist()
    for k, sub in enumerate(dl):
        fact = sub / d[k]
        d[k + 1] -= fact * du[k]
        b[k + 1] -= fact * b[k]
    b[-1] /= d[-1]
    for k in range(len(b) - 2, -1, -1):
        b[k] = (b[k] - du[k] * b[k + 1]) / d[k]
    return np.array(b)


def test_the_zonal_solve_interchanges_rows_at_the_far_pole():
    # the zonal I - dt L is not symmetric, and at the theta = pi end its
    # subdiagonal outgrows the eliminated diagonal, so dgtsv interchanges
    # rows there: first at column 14 of 16 (dt 0.1), 254 of 256 (dt 1e-4)
    for count, dt, column in ((16, 0.1, 14), (256, 1e-4, 254)):
        assert _first_interchange(*_zonal_bands(build_manifold("sphere_zonal", 2, 1.0, count), dt)) == column
    # where it interchanges none, its solve is the elimination without
    # interchanges, bit for bit
    rng = np.random.default_rng(5)
    for count, dt in ((16, 1e-2), (16, 1e-3), (64, 1e-3), (64, 1e-4)):
        m = build_manifold("sphere_zonal", 2, 1.0, count)
        bands = _zonal_bands(m, dt)
        assert _first_interchange(*bands) is None
        for b in rng.uniform(-1.0, 1.0, (5, count)):
            assert implicit_diffusion_solve(m, b, dt).tobytes() == _no_interchange_solve(*bands, b).tobytes()


@pytest.mark.parametrize("n", [2, 5])
def test_the_zonal_solve_breaks_order_only_through_its_interchanges(n):
    # the cause of the sphere step's order excess: over near-equal pairs
    # u <= v (v one ulp above u at about half the nodes), dgtsv's solve of
    # u lies above its solve of v somewhere on some pairs (67 of these 600
    # on S2 and on S5), and the elimination without interchanges keeps the
    # order on every pair
    rng = np.random.default_rng(7)
    broken = {"dgtsv": 0, "no interchange": 0}
    for count in (16, 32, 64, 128):
        m = build_manifold("sphere_zonal", n, 1.0, count)
        for dt in (0.01, 0.1, 1.0):
            bands = _zonal_bands(m, dt)
            for _ in range(50):
                u = rng.uniform(0.0, 1.0, count)
                v = np.where(rng.random(count) < 0.5, np.nextafter(u, 2.0), u)
                broken["dgtsv"] += bool(np.any(implicit_diffusion_solve(m, u, dt) > implicit_diffusion_solve(m, v, dt)))
                broken["no interchange"] += bool(np.any(_no_interchange_solve(*bands, u) > _no_interchange_solve(*bands, v)))
    assert broken["dgtsv"] > 0
    assert broken["no interchange"] == 0


def test_radial_step_breaks_order():
    # the radial I - dt L is not an M-matrix: raising one node of constant
    # data lowers the step's value four nodes away
    m = build_manifold("euclidean_radial", 3, 20.0, 256)
    u = np.ones(256)
    v = u.copy()
    v[100] = 2.0
    gap = one_step(m, u, 2.0, 1e-3) - one_step(m, v, 2.0, 1e-3)
    assert int(np.argmax(gap)) == 96
    assert 2.3e-5 < gap.max() < 2.4e-5


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(_CLOSED)),
    count=st.integers(16, 400),
    log_dt=st.floats(-6.0, 0.0),
    low=st.sampled_from([-1.0, 0.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_diffusion_solve_keeps_the_weighted_mass(kind, count, log_dt, low, seed):
    # w^T L = 0 on the closed kinds, so the solve x of (I - dt L) x = b keeps
    # w^T x = w^T b up to its rounding: within 4 (1 + dt lambda_max) ulps of
    # sum w |b| (at most 2 measured over 36000 solves at N = 16 to 1024 and
    # dt = 1e-6 to 1; 4.3e-15 relative at N = 256 and dt <= 0.1)
    m = build_manifold(*_CLOSED[kind], count)
    w = m.volume_weights
    b = np.random.default_rng(seed).uniform(low, 1.0, count)
    dt = 10.0**log_dt
    x = implicit_diffusion_solve(m, b, dt)
    assert abs(w @ x - w @ b) <= 4.0 * (1.0 + dt * top_eigenvalue(m)) * _EPS * (w @ np.abs(b))


@pytest.mark.parametrize("p", [2.5, 2.6, 2.7])
def test_detect_blowup_fits_only_snapshots_time_can_resolve(p):
    # constant 0.5 on the 64-node sphere reaches the threshold; from p = 2.6
    # its last 20 snapshots lie 1 to 10 ulps of t apart, where a fit over
    # them warned (polyfit's RankWarning) and found no decreasing tail.  The
    # snapshots whose remaining life is over 4096 ulps of t give the scalar
    # ODE's blow-up time to 2e-13
    traj = evolve(build_manifold("sphere_zonal", 2, 1.0, 64), np.full(64, 0.5), 0.0, 50.0, p)
    assert traj.blowup is not None
    assert detect_blowup(traj, p) == pytest.approx(blowup_time_from_min(p, 0.5), abs=2e-13)


@pytest.mark.parametrize("p", [101.0, 150.0])
def test_high_p_blowup_aborts_at_time_resolution(p):
    # a capped step of C_DT |u|^(1-p) would cross the blow-up time of the
    # reaction from p = 101 on; the step factor 0.5/(p-1) stops the run at
    # the resolution of t instead
    m = circle(32)
    with pytest.raises(SolverAbort, match="no longer advances t"):
        evolve(m, 1.0 + 0.1 * np.cos(m.nodes), 0.0, 10.0, p)


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
@pytest.mark.parametrize("kind, n, size", [("sphere_zonal", 2, 1.0), ("euclidean_radial", 3, 1.0), ("circle", 1, 6.3)])
def test_blowup_below_time_resolution_aborts(kind, n, size, p):
    # the step cap C_DT |u|^(1-p) falls below ulp(t) before |u| reaches the
    # threshold; the run stops there instead of repeating t
    m = build_manifold(kind, n, size, 32)
    with pytest.raises(SolverAbort, match="no longer advances t"):
        evolve(m, np.full(32, 2.0), 0.0, 1e3, p)


def test_dt_max_below_time_resolution_raises_at_once():
    m = circle(16)
    for t0, t1 in ((0.0, 1.0), (-12.0, -1.0)):
        with pytest.raises(SolverAbort, match="below the resolution of t"):
            evolve(m, np.ones(16), t0, t1, 2.0, EvolveControls(dt_max=1e-320))


def test_solver_abort_is_runtime_error():
    assert issubclass(SolverAbort, RuntimeError)


def reference_evolve(m, u0, t0, t1, p, controls):
    """The step loop as it was before the bookkeeping was trimmed: max |u|
    from np.abs, finiteness from np.isfinite over u, a copy per snapshot."""
    u = _aligned_values(m, u0).copy()
    if not np.all(np.isfinite(u)):
        raise ValueError("initial data must be finite")
    times, snaps = [float(t0)], [u.copy()]
    step_times, step_dt, step_max, step_min = [], [], [], []
    blowup = None
    negative_data = bool(u.min() < 0)
    t, step_index = float(t0), 0
    tiny_horizon = 1e-14 * max(1.0, abs(t1))
    while t1 - t > tiny_horizon:
        mag = float(np.max(np.abs(u)))
        dt = min(controls.dt_max, _dt_cap(p, mag), t1 - t)
        if t + dt == t:
            raise SolverAbort(f"step dt = {dt:g} no longer advances t = {t!r} (max |u| = {mag:g})")
        u = reaction_flow(u, p, 0.5 * dt)
        u = implicit_diffusion_solve(m, u, dt)
        u = reaction_flow(u, p, 0.5 * dt)
        t += dt
        step_index += 1
        if not np.all(np.isfinite(u)):
            raise SolverAbort(f"non-finite values at t = {t}")
        umax, umin = float(u.max()), float(u.min())
        step_times.append(t)
        step_dt.append(dt)
        step_max.append(umax)
        step_min.append(umin)
        crossed = umax > BLOW_THRESHOLD
        if step_index % controls.snapshot_every == 0 or t1 - t <= tiny_horizon or crossed:
            times.append(t)
            snaps.append(u.copy())
        if crossed:
            blowup = BlowupInfo(detected_time=t, method="threshold")
            break
    return Trajectory(
        manifold=m,
        times=np.asarray(times),
        snapshots=np.asarray(snaps),
        step_times=np.asarray(step_times),
        step_dt=np.asarray(step_dt),
        step_max=np.asarray(step_max),
        step_min=np.asarray(step_min),
        blowup=blowup,
        negative_data=negative_data,
    )


def _run_or_error(fn, *args):
    try:
        return fn(*args)
    except (SolverAbort, FloatingPointError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


_MANIFOLDS = {
    "sphere_zonal": build_manifold("sphere_zonal", 2, 1.0, 24),
    "euclidean_radial": build_manifold("euclidean_radial", 3, 4.0, 24),
    "circle": build_manifold("circle", 1, 6.3, 24),
}


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(_MANIFOLDS)),
    shape=st.sampled_from(["positive", "mixed", "negative", "zero"]),
    amplitude=st.floats(0.1, 4.0),
    p=st.sampled_from([1.5, 2.0, 2.7, 3.0, 5.0]),
    t1=st.floats(0.05, 1.5),
    snapshot_every=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_matches_the_reference_loop(kind, shape, amplitude, p, t1, snapshot_every, seed):
    m = _MANIFOLDS[kind]
    rng = np.random.default_rng(seed)
    u0 = amplitude * rng.uniform(0.2, 1.0, m.node_count)
    if shape == "mixed":
        u0 *= rng.choice([-1.0, 1.0], m.node_count)
    elif shape == "negative":
        u0 = -u0
    elif shape == "zero":
        u0 = np.zeros(m.node_count)
    controls = EvolveControls(dt_max=0.02, snapshot_every=snapshot_every)
    before = u0.copy()
    got = _run_or_error(evolve, m, u0, 0.0, t1, p, controls)
    want = _run_or_error(reference_evolve, m, u0, 0.0, t1, p, controls)
    assert np.array_equal(u0, before)
    if isinstance(want, str):
        assert got == want
        return
    for name in ("times", "snapshots", "step_times", "step_dt", "step_max", "step_min"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.blowup == want.blowup
    assert got.negative_data is want.negative_data


def test_reference_property_reaches_blowup_and_abort():
    # the property above covers runs that end at the threshold and runs that
    # stop at the resolution of t, not only runs that reach t1
    m = _MANIFOLDS["sphere_zonal"]
    u0 = 4.0 * np.linspace(0.2, 1.0, m.node_count)
    controls = EvolveControls(dt_max=0.02)
    for p, t1 in ((2.0, 1.5), (3.0, 1.5)):
        got = _run_or_error(evolve, m, u0, 0.0, t1, p, controls)
        want = _run_or_error(reference_evolve, m, u0, 0.0, t1, p, controls)
        if p == 2.0:
            assert got.blowup is not None and got.blowup == want.blowup
            assert np.array_equal(got.snapshots, want.snapshots)
        else:
            assert got.startswith("SolverAbort: step dt") and got == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_solve_output_aborts(monkeypatch, bad):
    m = circle(16)
    solve = evolve_module.implicit_diffusion_solve
    calls = []

    def poisoned(mm, values, dt):
        calls.append(dt)
        out = solve(mm, values, dt)
        if len(calls) == 3:
            out[5] = bad
        return out

    monkeypatch.setattr(evolve_module, "implicit_diffusion_solve", poisoned)
    controls = EvolveControls(dt_max=0.01)
    # max u stays below 1, so the blow-up cap never binds and every dt is 0.01
    at = re.escape(f"non-finite values at t = {0.01 + 0.01 + 0.01}")
    with pytest.raises(SolverAbort, match=f"^{at}$"):
        evolve(m, 0.5 + 0.05 * np.cos(m.nodes), 0.0, 1.0, 2.0, controls)
    assert len(calls) == 3


def test_evolve_calls_the_step_functions_through_its_module_globals(monkeypatch):
    # the benchmark tracer counts per-step calls by replacing these names
    counts = {"reaction_flow": 0, "implicit_diffusion_solve": 0}
    for name in counts:
        original = getattr(evolve_module, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(evolve_module, name, counted)
    m = circle(16)
    traj = evolve(m, 0.5 + 0.05 * np.cos(m.nodes), 0.0, 0.5, 2.0, EvolveControls(dt_max=0.01))
    assert traj.step_times.size == 50
    assert counts == {"reaction_flow": 100, "implicit_diffusion_solve": 50}


@pytest.mark.parametrize(
    "function",
    [evolve, reaction_flow, _positive_flow, implicit_diffusion_solve, _step_matrix],
)
def test_step_path_calls_no_ufunc_reduction(function):
    # each min, max and finiteness test of a step reads geometry._least and
    # _greatest (argmin and argmax, a third of the cost), so that no
    # reduction creeps back into the loop; builtin min and max of floats
    # are not array calls
    calls = [node.func for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(function))))
             if isinstance(node, ast.Call)]
    assert not [f.attr for f in calls if isinstance(f, ast.Attribute) and f.attr in ("min", "max", "isfinite")]
    assert not [f.id for f in calls if isinstance(f, ast.Name) and f.id == "isfinite"]


@pytest.mark.parametrize(
    "kind, dim, size",
    [("circle", 1, 2 * np.pi), ("sphere_zonal", 2, 1.0), ("euclidean_radial", 2, 10.0)],
)
def test_step_functions_return_fresh_arrays(kind, dim, size):
    # evolve stores snapshots without copying: no step may hand back, or
    # later write into, an array it was given.  The solve is called three
    # times at one dt: the one-call solve (tridiagonal kinds), the one that
    # factors, and the one that reuses the factor
    m = build_manifold(kind, dim, size, 32)
    u = 0.5 + 0.05 * np.cos(np.linspace(0.0, 3.0, 32))
    before = u.copy()
    outs = [implicit_diffusion_solve(m, u, 1e-3) for _ in range(3)] + [reaction_flow(u, 2.0, 1e-3)]
    for i, out in enumerate(outs):
        assert not np.shares_memory(out, u)
        assert not any(np.shares_memory(out, other) for other in outs[i + 1 :])
    assert np.array_equal(u, before)
