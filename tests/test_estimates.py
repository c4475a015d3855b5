import json
import math

import numpy as np
import pytest

from semiheat import (
    EstimateParams,
    ancient_approximation,
    EstimateReport,
    ball_mask,
    blowup_time_from_min,
    build_manifold,
    build_phi,
    check_decay,
    check_gradient_estimate,
    check_lower_bound_lemma,
    check_positivity_min_ode,
    check_triviality,
    check_universal,
    evolve,
    exponent_regime,
    gradient_norm,
    laplacian_spectrum,
    lemma_admissibility_min,
    ode_lower_envelope,
    scheme_tolerance,
    talenti_residual,
    trajectory_from_samples,
    trivial_ancient,
)
from semiheat.estimates import GRAD_TOL, _finalize


def constant_trajectory(m, times, values):
    snaps = np.outer(values, np.ones(m.node_count))
    return trajectory_from_samples(m, times, snaps)


@pytest.fixture(scope="module")
def sphere():
    return build_manifold("sphere_zonal", 2, 1.0, 96)


@pytest.fixture(scope="module")
def torus():
    return build_manifold("circle", 1, 40.0, 256)


# ---------------------------------------------------------------- report type


def test_params_validation():
    with pytest.raises(ValueError):
        EstimateParams(D=0.0)
    with pytest.raises(ValueError):
        EstimateParams(delta=0.0)
    with pytest.raises(ValueError):
        EstimateParams(delta=1.0)


_NAN = float("nan")


@pytest.mark.parametrize(
    "call, message",
    [
        *(
            pytest.param(lambda name=name: EstimateParams(**{name: _NAN}), f"{name} must", id=f"params-{name}")
            for name in ("D", "R", "T", "L", "A", "r0", "delta")
        ),
        pytest.param(lambda: blowup_time_from_min(2.0, _NAN), "v0 must", id="blowup-time-v0"),
        pytest.param(lambda: ode_lower_envelope(2.0, _NAN, 1.0, 1.0), "delta must", id="envelope-delta"),
        pytest.param(lambda: ode_lower_envelope(2.0, 0.5, _NAN, 1.0), "L must", id="envelope-L"),
        pytest.param(lambda: ode_lower_envelope(2.0, 0.5, 1.0, [0.0, _NAN]), "t >= 0", id="envelope-t"),
        pytest.param(lambda: build_phi(_NAN), "p must", id="phi-p"),
        pytest.param(lambda: build_phi(2.0, k=_NAN), "k must", id="phi-k"),
        pytest.param(lambda: build_phi(2.0, q=_NAN), "q must", id="phi-q"),
        pytest.param(lambda: trivial_ancient(2.0, _NAN, -1.0), "T_blow must not be NaN", id="trivial-T-blow"),
        pytest.param(lambda: trivial_ancient(2.0, 0.0, [-2.0, _NAN]), "t must not be NaN", id="trivial-t"),
        pytest.param(
            lambda: ancient_approximation(build_manifold("circle", 1, 6.0, 32), 2.0, 0.0, -12.0, _NAN, 1),
            r"eps must be in \[0, 1\), got nan",
            id="ancient-eps",
        ),
        pytest.param(
            lambda: ancient_approximation(build_manifold("circle", 1, 6.0, 32), 2.0, _NAN, -12.0, 0.05, 1),
            "T_blow must not be NaN",
            id="ancient-T-blow",
        ),
    ],
)
def test_range_checks_refuse_nan(call, message):
    # each range check is written so that NaN fails its comparison
    with pytest.raises(ValueError, match=message):
        call()


def test_report_invariants_enforced():
    arr = np.array([0.0])
    with pytest.raises(ValueError):
        EstimateReport("x", arr, arr, arr, arr, c_fit=-1.0, c_cap=1.0)
    # the pass flag is computed, never given
    with pytest.raises(TypeError):
        EstimateReport("x", arr, arr, arr, arr, c_fit=0.5, c_cap=1.0, passed=True)
    assert not EstimateReport("x", arr, arr, arr, arr, c_fit=2.0, c_cap=1.0).passed
    r = EstimateReport("x", arr, arr, arr, arr, c_fit=0.5, c_cap=1.0)
    d = r.to_json_dict()
    assert d["inequality_id"] == "x"
    assert d["c_fit"] == 0.5
    assert d["passed"] is True
    rows = list(r.csv_rows())
    assert rows and len(rows[0]) == 4


def test_report_json_writes_signed_infinities_as_strings(torus):
    # JSON has no infinity: +-inf, from Python or numpy, becomes "inf" or
    # "-inf", so the text parses with no bare constant
    arr = np.array([0.0])
    diagnostics = {
        "py": [math.inf, -math.inf],
        "np": [np.float64(np.inf), np.float64(-np.inf)],
        "array": np.array([np.inf, -np.inf, 1.5]),
        "finite": np.float64(0.25),
    }
    r = EstimateReport("x", arr, arr, arr, arr, c_fit=0.5, c_cap=math.inf, diagnostics=diagnostics)

    def bare(name):
        raise AssertionError(f"bare JSON constant {name}")

    d = json.loads(json.dumps(r.to_json_dict()), parse_constant=bare)
    assert d["c_cap"] == "inf"
    assert d["diagnostics"] == {
        "py": ["inf", "-inf"],
        "np": ["inf", "-inf"],
        "array": ["inf", "-inf", 1.5],
        "finite": 0.25,
    }
    # an unbounded cap puts the second branch of the lower bound at -inf
    traj = evolve(torus, -np.ones(256), 0.0, 3.0, 2.0)
    params = EstimateParams(delta=0.5, L=1.0, A=8.0, r0=1.0, T=3.0)
    text = json.dumps(check_lower_bound_lemma(traj, params, math.inf, 2.0).to_json_dict())
    assert json.loads(text, parse_constant=bare)["diagnostics"]["second_branch_bound"] == "-inf"


def test_finalize_refuses_a_nan_constant():
    # max(0.0, nan) is 0.0: a NaN fit would read as a pass
    arr = np.array([math.nan])
    fields = dict(inequality_id="x", times=arr, lhs=arr, rhs=arr, ratio=arr, c_cap=1.0)
    with pytest.raises(ValueError, match="^fitted constant is NaN$"):
        _finalize(c_fit=math.nan, **fields)
    assert _finalize(c_fit=-0.5, **fields).c_fit == 0.0


def test_scheme_tolerance_formula(torus):
    times = np.linspace(0.0, 1.0, 11)
    traj = constant_trajectory(torus, times, np.full(11, 2.0))
    h = torus.spacing
    expected = 10.0 * 2.0**2 * (0.1 + h * h)
    assert scheme_tolerance(traj, 2.0) == pytest.approx(expected, rel=1e-12)
    assert scheme_tolerance(traj, 2.0, dt=0.0) == pytest.approx(10.0 * 4.0 * h * h)


def test_ball_mask_conventions():
    sph = build_manifold("sphere_zonal", 2, 2.0, 64)
    hemi = ball_mask(sph, math.pi)  # geodesic radius pi on radius-2 sphere
    assert 0 < hemi.sum() < 64
    assert hemi[0] and not hemi[-1]

    tor = build_manifold("circle", 1, 10.0, 64)
    near = ball_mask(tor, 1.0)
    assert near[0] and near[-1]  # wraparound reaches both coordinate ends
    assert not near[32]

    rad = build_manifold("euclidean_radial", 3, 5.0, 64)
    inner = ball_mask(rad, 2.5)
    assert inner[0] and not inner[-1]

    with pytest.raises(ValueError):
        ball_mask(tor, 6.0)  # exceeds half the circumference


# ---------------------------------------------------------------- positivity


def test_positivity_trivial_ancient(torus):
    times = np.linspace(-3.0, -0.5, 120)
    traj = constant_trajectory(torus, times, trivial_ancient(2.0, 0.0, times))
    report = check_positivity_min_ode(traj, 2.0)
    assert report.passed
    assert report.diagnostics["min_over_window"] > 0.0
    assert report.c_fit <= 1.0


def test_positivity_negative_immortal_equality(torus):
    times = np.linspace(0.0, 3.0, 200)
    traj = constant_trajectory(torus, times, -1.0 / (1.0 + times))
    report = check_positivity_min_ode(traj, 2.0)
    assert report.passed
    assert report.diagnostics["min_over_window"] == pytest.approx(-1.0)


def test_positivity_on_clipped_data_run(sphere):
    u0 = np.clip(np.cos(sphere.nodes), 0.0, None) ** 2
    traj = evolve(sphere, u0, 0.0, 0.5, 2.0)
    report = check_positivity_min_ode(traj, 2.0)
    assert report.passed
    assert report.diagnostics["min_over_window"] >= -1e-10


def test_positivity_roundoff_floor_binds_only_where_the_tolerance_underflows(sphere):
    # 10 (1e-50)^10 (dt + h^2) underflows to 0, while each solve moves the
    # constant by a few ulps: that drift must read as roundoff, not violation
    circ = build_manifold("circle", 1, 6.3, 32)
    traj = evolve(circ, np.full(32, 1e-50), 0.0, 0.2, 10.0)
    assert np.min(traj.snapshot_min) < 1e-50
    report = check_positivity_min_ode(traj, 10.0)
    assert report.passed and np.all(report.rhs > 0.0)
    # ordinary data keeps the scheme tolerance bit for bit, also over a final
    # step to the horizon so short that a few ulps of v over it exceed it
    u0 = 0.1 * np.clip(np.cos(sphere.nodes), 0.0, None) ** 2 + 0.1
    traj = evolve(sphere, u0, 0.0, 0.2 + 2e-13, 2.0)
    dts = np.diff(traj.times)
    assert dts[-1] < 1e-12
    report = check_positivity_min_ode(traj, 2.0)
    assert np.array_equal(report.rhs, scheme_tolerance(traj, 2.0, dts))


def test_positivity_needs_three_snapshots(torus):
    times = np.array([0.0, 0.1])
    traj = constant_trajectory(torus, times, np.ones(2))
    with pytest.raises(ValueError):
        check_positivity_min_ode(traj, 2.0)


# ---------------------------------------------------------------- gradient


def test_gradient_trivial_is_zero(sphere):
    times = np.linspace(-3.0, -1.0, 40)
    traj = constant_trajectory(sphere, times, trivial_ancient(2.0, 0.0, times))
    for variant, params in [
        ("local", EstimateParams(D=1.0, R=1.0, T=2.0)),
        ("global", EstimateParams(D=1.0, T=2.0)),
        ("ancient", EstimateParams(D=1.0)),
    ]:
        report = check_gradient_estimate(traj, params, variant, 2.0, c_cap=1.0)
        assert report.c_fit == 0.0
        assert report.passed


def test_gradient_degenerate_ancient_branch(sphere):
    # p D^(p-1) = 0.8 below (n-1) K = 1 empties the structural factor, so
    # the check falls back to a direct gradient-smallness assertion
    times = np.linspace(-3.0, -1.0, 30)
    traj = constant_trajectory(sphere, times, np.full(30, 0.3))
    report = check_gradient_estimate(traj, EstimateParams(D=0.4), "ancient", 2.0)
    assert report.diagnostics["degenerate"]
    assert report.c_cap == 1e-6
    assert report.c_fit == 0.0
    assert report.passed


def test_gradient_error_paths(sphere):
    times = np.linspace(-3.0, -1.0, 30)
    traj = constant_trajectory(sphere, times, trivial_ancient(2.0, 0.0, times))
    with pytest.raises(ValueError):
        check_gradient_estimate(traj, EstimateParams(D=0.1), "ancient", 2.0)  # D below max u
    with pytest.raises(ValueError):
        check_gradient_estimate(traj, EstimateParams(D=1.0, T=2.0), "local", 2.0)  # R missing
    with pytest.raises(ValueError):
        check_gradient_estimate(traj, EstimateParams(D=1.0), "sideways", 2.0)
    bad = constant_trajectory(sphere, times, -np.ones(30))
    with pytest.raises(ValueError):
        check_gradient_estimate(bad, EstimateParams(D=1.0), "ancient", 2.0)
    with pytest.raises(ValueError, match="requires the sup bound D"):
        check_gradient_estimate(traj, EstimateParams(T=1.0), "global", 2.0)


def test_gradient_real_run_reports_fields(sphere):
    lam_scale = 0.05
    u0 = trivial_ancient(2.0, 0.0, -10.0) * (1.0 + lam_scale * np.cos(sphere.nodes))
    traj = evolve(sphere, u0, -10.0, -8.0, 2.0)
    D = float(np.max(traj.snapshots)) * 1.0000001
    report = check_gradient_estimate(traj, EstimateParams(D=D, T=2.0), "global", 2.0)
    assert report.c_fit >= 0.0
    assert math.isfinite(report.c_fit)
    assert 0 <= report.diagnostics["max_node"] < sphere.node_count


def _gradient_reference(traj, params, variant, p):
    """Snapshot-by-snapshot evaluation of the gradient check: boolean
    windows, one gradient_norm call per stored time and a running maximum.
    Returns (times, lhs, rhs, ratio, c_fit, max_time, max_node)."""
    m, t = traj.manifold, traj.times
    D = params.D
    K = m.ricci_lower / (m.n - 1) if m.n >= 2 else 0.0
    nodes = np.ones(m.node_count, dtype=bool)
    sub_time = np.ones(t.size, dtype=bool)
    if variant != "ancient":
        sub_time = t >= t[-1] - params.T / 4.0 - 1e-12
    if variant == "local":
        nodes = ball_mask(m, params.R / 2.0)
    base = p * D ** (p - 1.0) - (m.n - 1) * K
    degenerate = variant == "ancient" and base <= 0.0
    S = 0.0 if base <= 0.0 else math.sqrt(base)
    if variant == "local":
        S = 1.0 / params.R + 1.0 / math.sqrt(params.T) + S
    elif variant == "global":
        S = 1.0 / math.sqrt(params.T) + S
    times, lhs, rhs, ratio = [], [], [], []
    best = (-math.inf, None, None)
    for k in np.flatnonzero(sub_time):
        u = traj.snapshots[k]
        grad = gradient_norm(m, u)
        if degenerate:
            numer, denom, point = grad, np.full(u.size, GRAD_TOL), grad
        else:
            numer = grad / u
            denom = S * (1.0 + np.log(D / np.maximum(u, 1e-12 * D)))
            point = numer[nodes] / denom[nodes]
            numer, denom = numer[nodes], denom[nodes]
        j = int(np.argmax(point))
        times.append(t[k])
        lhs.append(float(numer[j]))
        rhs.append(float(denom[j]))
        ratio.append(float(numer[j]) / GRAD_TOL if degenerate else float(point[j]))
        if point[j] > best[0]:
            best = (float(point[j]), k, int(np.flatnonzero(nodes)[j]))
    c_fit = max(lhs) if degenerate else max(ratio)
    return (np.asarray(times), np.asarray(lhs), np.asarray(rhs), np.asarray(ratio),
            c_fit, float(t[best[1]]), best[2])


def test_gradient_block_matches_snapshot_loop(sphere, torus):
    # p D^(p-1) < (n-1) K = 1 on the low sphere run: the degenerate branch
    # with nonzero gradients; every ball on the circle wraps around x = 0
    runs = []
    for m, lift in ((sphere, 0.3), (sphere, 2.0), (torus, 0.5)):
        u0 = lift * (1.0 + 0.2 * np.cos(2.0 * np.pi * m.nodes / m.nodes[-1]) ** 2)
        # the windows end at the last snapshot kept, at or before t = 0.35
        runs.append(evolve(m, u0, 0.0, 0.4, 2.0).slice_time(0.0, 0.35))
    low, high, circle = runs
    cases = [
        (low, "ancient"), (high, "ancient"), (high, "global"), (high, "local"),
        (circle, "global"), (circle, "ancient"), (circle, "local"),
    ]
    for traj, variant in cases:
        D = float(np.max(traj.snapshots)) * 1.0000001
        R = 5.0 if traj.manifold is torus else 1.0
        params = EstimateParams(D=D, R=R, T=0.3)
        report = check_gradient_estimate(traj, params, variant, 2.0)
        times, lhs, rhs, ratio, c_fit, max_time, max_node = _gradient_reference(traj, params, variant, 2.0)
        assert report.diagnostics["degenerate"] == (traj is low), variant
        for got, want in ((report.times, times), (report.lhs, lhs), (report.rhs, rhs), (report.ratio, ratio)):
            assert np.array_equal(got, want), (variant, traj.manifold.kind)
        assert report.c_fit == c_fit
        assert report.diagnostics["max_time"] == max_time
        assert report.diagnostics["max_node"] == max_node


# ---------------------------------------------------------------- decay


def test_decay_identity_all_p(sphere):
    for p in (1.5, 2.0, 3.0):
        times = np.linspace(-5.0, -0.5, 80)
        traj = constant_trajectory(sphere, times, trivial_ancient(p, 0.0, times))
        ident = (p - 1.0) ** (-1.0 / (p - 1.0))
        report = check_decay(traj, 0.0, p, c_cap=2.0 * ident)
        assert report.c_fit == pytest.approx(ident, abs=1e-10)
        assert report.passed


def test_decay_backward_vanishing_diagnostic(sphere):
    times = np.linspace(-50.0, -1.0, 300)
    traj = constant_trajectory(sphere, times, trivial_ancient(2.0, 0.0, times))
    report = check_decay(traj, 0.0, 2.0)
    assert report.diagnostics["backward_vanishing"]


def test_decay_window_and_gate_errors(sphere):
    times = np.linspace(-2.0, 0.0, 10)
    traj = constant_trajectory(sphere, times, np.ones(10))
    with pytest.raises(ValueError):
        check_decay(traj, 0.0, 2.0)  # snapshot at T_blow
    times = np.linspace(-2.0, -1.0, 10)
    traj = constant_trajectory(sphere, times, np.ones(10))
    with pytest.raises(ValueError, match="outside the hypothesis window"):
        check_decay(traj, 0.0, 8.0)  # n = 2 hypothesis window is p < 8


# ---------------------------------------------------------------- universal


def test_universal_pointwise_example(sphere):
    times = np.array([-1.5, -1.0, -0.5])
    traj = constant_trajectory(sphere, times, trivial_ancient(2.0, 0.0, times))
    report = check_universal(traj, -2.0, 0.0, 2.0, c_cap=1.0)
    # at t = -1: u = 1, bracket = 1/|t-T0| + 1/|T-t| = 1 + 1 = 2
    mid = int(np.argmin(np.abs(report.times + 1.0)))
    assert report.ratio[mid] == pytest.approx(0.5, abs=1e-12)
    assert report.passed


def test_universal_limit_near_blowup(sphere):
    times = np.array([-1e-3, -5e-4, -2e-4])
    traj = constant_trajectory(sphere, times, trivial_ancient(2.0, 0.0, times))
    report = check_universal(traj, -2.0, 0.0, 2.0)
    assert report.ratio[-1] == pytest.approx(1.0, abs=1e-3)


def test_universal_window_and_gate_errors(sphere):
    times = np.array([-2.0, -1.0])
    traj = constant_trajectory(sphere, times, np.ones(2))
    with pytest.raises(ValueError):
        check_universal(traj, -2.0, 0.0, 2.0)  # snapshot at T0
    times = np.array([-1.5, -1.0])
    traj = constant_trajectory(sphere, times, np.ones(2))
    with pytest.raises(ValueError, match="outside the hypothesis window"):
        check_universal(traj, -2.0, 0.0, 8.0)


def test_decay_and_universal_refuse_a_bound_that_underflows(sphere):
    # just above p = 1 the exponent -1/(p-1) is -5e8: the decay bound and
    # both universal terms underflow to 0, and every ratio would be inf
    times = np.linspace(0.0, 0.5, 11)
    traj = constant_trajectory(sphere, times, np.full(times.size, 0.5))
    p = 1.000000002
    with pytest.raises(ValueError, match=r"^the decay bound \(T_blow - t\)\^\(-1/\(p-1\)\) underflows to 0 at p = 1\.000000002$"):
        check_decay(traj, 50.0, p)
    with pytest.raises(ValueError, match=r"^the universal bound \|t - T0\|\^\(-1/\(p-1\)\) \+ \|T - t\|\^\(-1/\(p-1\)\) "):
        check_universal(traj, -1.0, 60.0, p)
    # one term that stays positive is enough: at t = T0 + 1 the first is 1
    traj = constant_trajectory(sphere, np.array([0.0]), np.array([0.5]))
    assert check_universal(traj, -1.0, 60.0, p).c_fit == 0.5


def test_universal_block_matches_snapshot_loop(sphere, torus):
    for m in (sphere, torus):
        u0 = 0.5 * (1.0 + 0.3 * np.sin(2.0 * np.pi * m.nodes / m.nodes[-1]))
        traj = evolve(m, u0, 0.0, 0.5, 3.0)
        report = check_universal(traj, -0.25, 1.5, 3.0)
        lhs, rhs = [], []
        for tk, u in zip(traj.times, traj.snapshots):
            num = u + gradient_norm(m, u) ** 0.5
            lhs.append(float(num[int(np.argmax(num))]))
            rhs.append(abs(tk + 0.25) ** -0.5 + abs(1.5 - tk) ** -0.5)
        ratio = np.asarray(lhs) / np.asarray(rhs)
        assert np.array_equal(report.lhs, np.asarray(lhs))
        assert np.array_equal(report.rhs, np.asarray(rhs))
        assert np.array_equal(report.ratio, ratio)
        assert report.c_fit == float(np.max(ratio))
        assert report.diagnostics["max_time"] == float(traj.times[int(np.argmax(ratio))])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 2.7])
def test_universal_rhs_is_the_scalar_loop(sphere, p):
    # bit for bit against numpy-scalar pow per snapshot time, on enough
    # times that numpy's array power would differ in the last bit somewhere
    times = np.sort(np.random.default_rng(1).uniform(-1.9, -0.1, 1500))
    traj = constant_trajectory(sphere, times, np.full(times.size, 0.5))
    report = check_universal(traj, -2.0, 0.0, p)
    want = [abs(tk - -2.0) ** (-1.0 / (p - 1.0)) + abs(0.0 - tk) ** (-1.0 / (p - 1.0)) for tk in traj.times]
    assert isinstance(traj.times[0], np.float64)
    assert np.array_equal(report.rhs, np.asarray(want))


# ---------------------------------------------------------------- lower bound


def test_admissibility_arithmetic():
    assert lemma_admissibility_min(3, 1.0, 1.0, 0.0) == 8.0
    assert lemma_admissibility_min(3, 1.0, 1.0, 1.0) == pytest.approx(8.0 + 4.0)
    assert lemma_admissibility_min(1, 1.0, 1.0, 0.0) == 4.0


def test_lower_bound_constant_negative_run(torus):
    traj = evolve(torus, -np.ones(256), 0.0, 3.0, 2.0)
    params = EstimateParams(delta=0.5, L=1.0, A=8.0, r0=1.0, T=3.0)
    report = check_lower_bound_lemma(traj, params, 1.0, 2.0)
    assert report.passed
    assert report.diagnostics["worst_margin"] >= 0.0
    assert report.c_fit == 0.0


def test_lower_bound_error_paths(torus):
    times = np.linspace(0.0, 1.0, 20)
    traj = constant_trajectory(torus, times, -0.5 * np.ones(20))
    base = dict(delta=0.5, L=1.0, r0=1.0, T=1.0)
    with pytest.raises(ValueError, match="admissibility minimum 4"):
        check_lower_bound_lemma(traj, EstimateParams(A=2.0, **base), 1.0, 2.0)
    with pytest.raises(ValueError, match="diameter"):
        check_lower_bound_lemma(
            traj, EstimateParams(A=30.0, delta=0.5, L=1.0, r0=1.0, T=1.0), 1.0, 2.0
        )
    with pytest.raises(ValueError):
        check_lower_bound_lemma(traj, EstimateParams(A=8.0, L=1.0, r0=1.0), 1.0, 2.0)  # no delta
    # without T the window is the trajectory's length, 0 for one snapshot
    one = constant_trajectory(torus, times[:1], -0.5 * np.ones(1))
    with pytest.raises(ValueError, match="window length must be positive"):
        check_lower_bound_lemma(one, EstimateParams(A=8.0, delta=0.5, L=1.0, r0=1.0), 1.0, 2.0)


def test_lower_bound_start_level_checked(torus):
    times = np.linspace(0.0, 1.0, 20)
    traj = constant_trajectory(torus, times, np.full(20, -2.0))
    params = EstimateParams(delta=0.5, L=1.0, A=8.0, r0=1.0, T=1.0)
    with pytest.raises(ValueError, match="below -L"):
        check_lower_bound_lemma(traj, params, 1.0, 2.0)


# ---------------------------------------------------------------- triviality


def test_triviality_threshold_and_trivial_run(sphere):
    times = np.linspace(-6.0, -2.0, 100)
    traj = constant_trajectory(sphere, times, trivial_ancient(2.0, 0.0, times))
    report = check_triviality(traj, sphere, 2.0)
    assert report.diagnostics["threshold"] == pytest.approx(0.5)
    assert report.diagnostics["verdict"] == "trivial-limit"
    assert report.passed


def test_triviality_requires_positive_curvature(sphere):
    times = np.linspace(-6.0, -2.0, 50)
    rad = build_manifold("euclidean_radial", 3, 5.0, 64)
    traj = constant_trajectory(rad, times, np.ones(50))
    with pytest.raises(ValueError, match="requires a positive Ricci lower bound"):
        check_triviality(traj, rad, 2.0)
    circ = build_manifold("circle", 1, 6.0, 64)
    traj = constant_trajectory(circ, times, np.ones(50))
    with pytest.raises(ValueError, match="requires a positive Ricci lower bound"):
        check_triviality(traj, circ, 2.0)


def test_triviality_passes_flat_data(sphere):
    # flat data has oscillation 0, below the floor: each interval passes
    # outright with ratio 0 instead of dividing 0 by 0
    times = np.linspace(0.0, 2.0, 50)
    traj = constant_trajectory(sphere, times, np.zeros(50))
    report = check_triviality(traj, sphere, 2.0)
    assert report.passed and report.c_fit == 0.0
    assert np.array_equal(report.ratio, np.zeros(2))


def test_triviality_skips_an_interval_with_fewer_than_two_snapshots(sphere):
    # snapshots 2 time units apart between t = 1 and t = 5: the unit
    # intervals from 1 to 5 each hold at most one, so only [0, 1] and [5, 6]
    # have a ratio to evaluate
    times = np.array([0.0, 0.5, 1.0, 3.0, 5.0, 5.5, 6.0])
    traj = constant_trajectory(sphere, times, np.full(times.size, 0.1))
    report = check_triviality(traj, sphere, 2.0)
    assert report.diagnostics["intervals_evaluated"] == 2
    assert report.diagnostics["intervals_above_threshold"] == 0
    assert report.times.tolist() == [0.0, 5.0]
    assert report.passed


@pytest.mark.parametrize("cap", [-1.0, -0.5, math.nan])
def test_checks_refuse_a_cap_no_fit_can_pass(sphere, cap):
    # every c_fit is at least 0, so a cap below 0 (or NaN) fails on any data
    times = np.linspace(0.0, 2.0, 21)
    traj = constant_trajectory(sphere, times, np.full(times.size, 0.1))
    params = EstimateParams(D=1.0)
    for check in (
        lambda: check_decay(traj, 50.0, 2.0, c_cap=cap),
        lambda: check_universal(traj, -1.0, 60.0, 2.0, c_cap=cap),
        lambda: check_gradient_estimate(traj, params, "ancient", 2.0, c_cap=cap),
        lambda: check_triviality(traj, sphere, 2.0, c_cap=cap),
    ):
        with pytest.raises(ValueError, match="^c_cap must be nonnegative, got "):
            check()
    arr = np.array([0.0])
    with pytest.raises(ValueError, match="^c_cap must be nonnegative, got "):
        EstimateReport("x", arr, arr, arr, arr, c_fit=0.0, c_cap=cap)
    # a cap of 0 is the least allowed
    assert check_triviality(traj, sphere, 2.0, c_cap=0.0).passed
    assert not check_decay(traj, 50.0, 2.0, c_cap=0.0).passed


def test_triviality_refuses_a_manifold_that_is_not_the_trajectorys():
    # a mode that does not decay fails on its own 64-node unit sphere; a
    # larger sphere (smaller lambda1 and threshold) would pass it with
    # c_fit 0, so another kind, n, size or node count is a ValueError
    sphere = build_manifold("sphere_zonal", 2, 1.0, 64)
    _, modes = laplacian_spectrum(sphere)
    times = np.linspace(0.0, 3.0, 31)
    field = 0.1 + 0.05 * modes[:, 1] / np.max(np.abs(modes[:, 1]))
    traj = trajectory_from_samples(sphere, times, np.tile(field, (times.size, 1)))
    report = check_triviality(traj, sphere, 2.0)
    assert not report.passed and report.c_fit > 5.0
    for other in (
        build_manifold("sphere_zonal", 2, 3.0, 64),
        build_manifold("sphere_zonal", 2, 1.0, 128),
        build_manifold("sphere_zonal", 3, 1.0, 64),
        build_manifold("circle", 1, 2.0 * math.pi, 64),
    ):
        with pytest.raises(ValueError, match="needs the trajectory's manifold"):
            check_triviality(traj, other, 2.0)


def test_triviality_perturbed_run_decays(sphere):
    background = trivial_ancient(2.0, 0.0, -12.0)
    lam, modes = laplacian_spectrum(sphere)
    u0 = background * (1.0 + 0.05 * modes[:, 1])
    traj = evolve(sphere, u0, -12.0, -5.0, 2.0)
    report = check_triviality(traj, sphere, 2.0)
    assert report.diagnostics["verdict"] == "trivial-limit"
    assert report.passed
    osc = traj.snapshot_max - traj.snapshot_min
    assert osc[-1] < osc[0]


# ---------------------------------------------------------------- statics


def test_talenti_profile_arithmetic():
    # closed form: u(r) = (n(n-2)/(n(n-2)+r^2))^((n-2)/2)
    assert (8.0 / (8.0 + 0.0)) ** 1.0 == 1.0  # n = 4 at the origin
    u3 = lambda r: (3.0 / (3.0 + r * r)) ** 0.5
    assert u3(400.0) / u3(200.0) == pytest.approx(0.5, abs=1e-4)


def test_talenti_residual_small_and_refining():
    res = talenti_residual(4, 4000, 40.0)
    assert res <= 1e-6
    res2 = talenti_residual(4, 8000, 40.0)
    assert res2 <= res / 3.5
    with pytest.raises(ValueError):
        talenti_residual(2, 1000, 40.0)


# ---------------------------------------------------------------- regimes


def test_exponent_regime_examples():
    assert exponent_regime(3, 2.0) == "below_threshold"
    assert exponent_regime(3, 4.0) == "open_gap"
    assert exponent_regime(3, 3.75) == "open_gap"
    assert exponent_regime(3, 5.0) == "sobolev_critical_or_above"
    assert exponent_regime(2, 100.0) == "low_dimension_all_subcritical"
    assert exponent_regime(1, 7.0) == "low_dimension_all_subcritical"
    with pytest.raises(ValueError):
        exponent_regime(3, 1.0)
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        exponent_regime(0, 2.0)


# ---------------------------------------------------------------- determinism


def test_report_determinism(sphere):
    times = np.linspace(-4.0, -1.0, 60)
    traj = constant_trajectory(sphere, times, trivial_ancient(2.0, 0.0, times))
    a = check_decay(traj, 0.0, 2.0).to_json_dict()
    b = check_decay(traj, 0.0, 2.0).to_json_dict()
    assert a == b


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 2.7])
def test_lower_bound_rhs_is_the_scalar_loop(torus, p):
    times = np.sort(np.random.default_rng(2).uniform(0.0, 3.0, 1500))
    times[0] = 0.0
    traj = constant_trajectory(torus, times, np.full(times.size, -0.5))
    params = EstimateParams(delta=0.5, L=1.0, A=8.0, r0=1.0, T=3.0)
    cap = 1e-3
    report = check_lower_bound_lemma(traj, params, cap, p)
    tol = scheme_tolerance(traj, p)
    cap_branch = -cap / (params.A * params.r0) ** (2.0 / (p - 1.0))
    t0 = float(traj.times[0])
    # one scalar call per snapshot time, as the checker made them before
    envelope = [ode_lower_envelope(p, params.delta, params.L, tk - t0) for tk in traj.times]
    assert np.array_equal(report.rhs, np.minimum(envelope, cap_branch) - tol)
    # and the same numbers from numpy-scalar arithmetic per time
    numpy_scalar = [
        -(((1.0 - params.delta) * (p - 1.0) * (tk - t0) + params.L ** (1.0 - p)) ** (-1.0 / (p - 1.0)))
        for tk in traj.times
    ]
    assert np.array_equal(envelope, numpy_scalar)
    assert np.all(np.asarray(envelope) < cap_branch)  # the envelope branch is the one compared
