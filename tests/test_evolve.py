import csv
import json

import numpy as np
import pytest

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


def circle(count=64, length=2 * np.pi):
    return build_manifold("circle", 1, length, count)


def test_controls_validation():
    with pytest.raises(ValueError):
        EvolveControls(dt_max=0.0)
    with pytest.raises(ValueError):
        EvolveControls(blow_threshold=1e5)
    with pytest.raises(ValueError):
        EvolveControls(snapshot_every=0)


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
    m = circle(128)
    u0 = np.sin(m.nodes)
    controls = EvolveControls(dt_max=1e-3, reaction_on=False)
    traj = evolve(m, u0, 0.0, 1.0, 2.0, controls)
    exact = np.exp(-1.0) * u0
    assert np.max(np.abs(traj.snapshots[-1] - exact)) <= 5e-3


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
    controls = EvolveControls(dt_max=0.01, snapshot_every=10, reaction_on=False)
    traj = evolve(m, np.sin(m.nodes), 0.0, 1.0, 2.0, controls)
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


def test_export_trajectory_writes_the_csv_writer_bytes(tmp_path):
    # extreme values, signed zero and times whose repr is long
    m = circle(16)
    snaps = np.linspace(-3.0, 3.0, 3 * 16).reshape(3, 16) / 7.0
    snaps[0, :4] = [-0.0, 5e-324, 1e308, -1e308]
    traj = trajectory_from_samples(m, [-12.0, 0.1 + 0.2, 1e-300 + 1.0], snaps)
    export_trajectory(traj, tmp_path / "run.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "node_index", "u"])
        for t, snap in zip(traj.times, traj.snapshots):
            for idx, val in enumerate(snap):
                writer.writerow([repr(float(t)), idx, repr(float(val))])
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
    with pytest.raises(ValueError, match="below the resolution of t"):
        integrate_scalar_ode(2.0, 1.0, (0.0, 1.0), dt_max=1e-320)


def test_solver_abort_is_runtime_error():
    assert issubclass(SolverAbort, RuntimeError)
