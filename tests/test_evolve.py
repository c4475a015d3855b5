import csv
import importlib
import json
import re

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
from semiheat.geometry import _aligned_values, implicit_diffusion_solve
from semiheat.reaction_ode import _dt_cap, reaction_flow

# the package re-exports the function ``evolve`` under the submodule's name
evolve_module = importlib.import_module("semiheat.evolve")


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
        cap = _dt_cap(p, mag) if controls.reaction_on else np.inf
        dt = min(controls.dt_max, cap, t1 - t)
        if t + dt == t:
            raise SolverAbort(f"step dt = {dt:g} no longer advances t = {t!r} (max |u| = {mag:g})")
        if controls.reaction_on:
            u = reaction_flow(u, p, 0.5 * dt)
        u = implicit_diffusion_solve(m, u, dt)
        if controls.reaction_on:
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
        crossed = umax > controls.blow_threshold
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
    reaction_on=st.booleans(),
    snapshot_every=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_matches_the_reference_loop(kind, shape, amplitude, p, t1, reaction_on, snapshot_every, seed):
    m = _MANIFOLDS[kind]
    rng = np.random.default_rng(seed)
    u0 = amplitude * rng.uniform(0.2, 1.0, m.node_count)
    if shape == "mixed":
        u0 *= rng.choice([-1.0, 1.0], m.node_count)
    elif shape == "negative":
        u0 = -u0
    elif shape == "zero":
        u0 = np.zeros(m.node_count)
    controls = EvolveControls(dt_max=0.02, reaction_on=reaction_on, snapshot_every=snapshot_every)
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


@pytest.mark.parametrize(
    "bad, reaction_on",
    # with the reaction off the solve's output is the step's result; NaN also
    # passes through the reaction flow unchanged
    [(np.nan, False), (np.inf, False), (-np.inf, False), (np.nan, True)],
)
def test_non_finite_solve_output_aborts(monkeypatch, bad, reaction_on):
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
    controls = EvolveControls(dt_max=0.01, reaction_on=reaction_on)
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
    traj = evolve(m, np.cos(m.nodes), 0.0, 0.5, 2.0, EvolveControls(dt_max=0.01, reaction_on=False))
    assert counts == {"reaction_flow": 100, "implicit_diffusion_solve": 100}


@pytest.mark.parametrize(
    "kind, dim, size",
    [("circle", 1, 2 * np.pi), ("sphere_zonal", 2, 1.0), ("euclidean_radial", 2, 10.0)],
)
def test_step_functions_return_fresh_arrays(kind, dim, size):
    # evolve stores snapshots without copying: no step may hand back, or
    # later write into, an array it was given
    m = build_manifold(kind, dim, size, 32)
    u = 0.5 + 0.05 * np.cos(np.linspace(0.0, 3.0, 32))
    before = u.copy()
    for out in (implicit_diffusion_solve(m, u, 1e-3), reaction_flow(u, 2.0, 1e-3)):
        assert not np.shares_memory(out, u)
    assert np.array_equal(u, before)
