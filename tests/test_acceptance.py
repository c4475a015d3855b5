"""Acceptance gate: one test per numbered criterion, stated tolerances only.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion; add ``-s`` to see the measured values behind each verdict.
"""

import time

import numpy as np
import pytest

from semiheat import (
    EstimateParams,
    EvolveControls,
    ancient_approximation,
    blowup_time_from_min,
    build_manifold,
    build_phi,
    check_decay,
    check_gradient_estimate,
    check_lower_bound_lemma,
    check_positivity_min_ode,
    check_triviality,
    detect_blowup,
    evolve,
    exponent_regime,
    integrate_scalar_ode,
    laplacian_spectrum,
    lemma_admissibility_min,
    talenti_residual,
    trajectory_from_samples,
    trivial_ancient,
    verify_phi_inequality,
)

_T0 = time.perf_counter()


def closed_form(p, v0, t):
    return (v0 ** (1 - p) - (p - 1) * t) ** (-1 / (p - 1))


@pytest.fixture(scope="module")
def sphere_fine():
    return build_manifold("sphere_zonal", 2, 1.0, 256)


@pytest.fixture(scope="module")
def eps_runs(sphere_fine):
    out = {}
    for eps in (0.01, 0.05, 0.1):
        out[eps] = ancient_approximation(sphere_fine, 2.0, 0.0, -12.0, eps, 1)
    return out


def test_criterion_01_scalar_ode_fidelity():
    started = time.perf_counter()
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        for v0 in (0.5, 1.0, 2.0):
            t_end = 0.99 * blowup_time_from_min(p, v0)
            traj = integrate_scalar_ode(p, v0, (0.0, t_end))
            ref = closed_form(p, v0, traj.times)
            worst = max(worst, float(np.max(np.abs(traj.values - ref) / ref)))
    wall = time.perf_counter() - started
    assert worst <= 1e-6
    assert wall < 5.0
    print(f"\ncriterion 1 PASS: max relative error {worst:.2e} <= 1e-6, wall {wall:.2f}s < 5s")


def test_criterion_02_pde_equals_ode_for_constant_data(sphere_fine):
    traj = evolve(sphere_fine, np.ones(256), 0.0, 0.99, 2.0)
    oracle = 1.0 / (1.0 - traj.times)
    dev = float(np.max(np.abs(traj.snapshots - oracle[:, None])))
    assert dev <= 1e-6

    crossing = evolve(sphere_fine, np.ones(256), 0.0, 2.0, 2.0)
    t_star = detect_blowup(crossing, 2.0)
    assert abs(t_star - 1.0) <= 1e-3
    print(f"\ncriterion 2 PASS: sup deviation {dev:.2e} <= 1e-6, detected T* = {t_star:.6f} = 1 +- 1e-3")


def test_criterion_03_eternal_nonexistence_proxy():
    cases = [
        ("sphere_zonal", 2, 1.0, 128, 2.0, lambda x: 1.0 + 0.3 * np.cos(x), 0.7),
        ("circle", 1, 6.3, 128, 2.0, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x / 6.3), 0.5),
        ("circle", 1, 2 * np.pi, 128, 1.5, lambda x: 1.2 + 0.2 * np.cos(x), 1.0),
        ("euclidean_radial", 3, 10.0, 256, 2.0, lambda r: 1.0 + np.exp(-(r**2)), 1.0),
    ]
    lines = []
    for kind, n, size, N, p, f, u_min in cases:
        m = build_manifold(kind, n, size, N)
        u0 = f(m.nodes)
        assert abs(float(np.min(u0)) - u_min) <= 1e-9
        bound = blowup_time_from_min(p, u_min)
        traj = evolve(m, u0, 0.0, 1.5 * bound, p)
        t_star = detect_blowup(traj, p)
        assert t_star <= bound * (1.0 + 1e-3), (kind, t_star, bound)
        lines.append(f"{kind}: T* {t_star:.4f} <= {bound * 1.001:.4f}")
    print("\ncriterion 3 PASS: " + "; ".join(lines))


def test_criterion_04_positivity_ten_scenarios():
    ell = 2 * np.pi
    scenarios = [
        ("sphere_zonal", 2, 1.0, 128, 2.0, lambda x: np.clip(np.cos(x), 0, None) ** 2, 0.5),
        ("sphere_zonal", 2, 1.0, 128, 2.0, lambda x: np.zeros_like(x), 1.0),
        ("sphere_zonal", 2, 2.0, 128, 3.0, lambda x: 0.5 * (1.0 + np.cos(x)), 0.3),
        ("circle", 1, ell, 128, 2.0, lambda x: np.clip(np.sin(x), 0, None), 0.5),
        ("circle", 1, ell, 128, 1.5, lambda x: np.full_like(x, 0.8), 1.0),
        ("circle", 1, 10.0, 128, 2.0, lambda x: np.exp(-((x - 5.0) ** 2)), 0.5),
        ("circle", 1, 10.0, 128, 2.0, lambda x: np.clip(np.sin(4 * np.pi * x / 10.0), 0, None), 0.4),
        ("euclidean_radial", 3, 10.0, 256, 2.0, lambda r: np.exp(-(r**2)), 0.5),
        ("euclidean_radial", 4, 40.0, 512, 3.0, lambda r: (8.0 / (8.0 + r**2)), 0.2),
        ("euclidean_radial", 5, 10.0, 256, 2.0, lambda r: 1.0 / (1.0 + r**2), 0.3),
    ]
    worst_min = 0.0
    worst_ratio = 0.0
    for kind, n, size, N, p, f, horizon in scenarios:
        m = build_manifold(kind, n, size, N)
        traj = evolve(m, f(m.nodes), 0.0, horizon, p)
        report = check_positivity_min_ode(traj, p)
        assert report.passed, (kind, report.diagnostics)
        low = report.diagnostics["min_over_window"]
        assert low >= -1e-10, (kind, low)
        worst_min = min(worst_min, low)
        worst_ratio = max(worst_ratio, report.c_fit)
    print(
        f"\ncriterion 4 PASS: 10 scenarios, worst min {worst_min:.2e} >= -1e-10, "
        f"worst violation/tolerance {worst_ratio:.3f} <= 1"
    )


def test_criterion_05_talenti_residual():
    res = talenti_residual(4, 4000, 40.0)
    res_fine = talenti_residual(4, 8000, 40.0)
    assert res <= 1e-6
    assert res / res_fine >= 3.5
    print(
        f"\ncriterion 5 PASS: residual {res:.2e} <= 1e-6, refinement factor "
        f"{res / res_fine:.2f} >= 3.5"
    )


def test_criterion_06_decay_estimate(sphere_fine, eps_runs):
    worst_ident = 0.0
    for p in (1.5, 2.0, 3.0):
        times = np.linspace(-6.0, -0.5, 120)
        snaps = np.tile(trivial_ancient(p, 0.0, times)[:, None], (1, 256))
        traj = trajectory_from_samples(sphere_fine, times, snaps)
        ident = (p - 1.0) ** (-1.0 / (p - 1.0))
        report = check_decay(traj, 0.0, p, c_cap=2.0 * ident)
        worst_ident = max(worst_ident, abs(report.c_fit - ident))
        assert abs(report.c_fit - ident) <= 1e-10

    fits = {}
    for eps, run in eps_runs.items():
        t_star = detect_blowup(run, 2.0)
        window = run.slice_time(-12.0, -0.05)
        report = check_decay(window, t_star, 2.0, c_cap=2.0)
        assert report.passed, (eps, report.c_fit)
        fits[eps] = report.c_fit
    summary = ", ".join(f"eps={e:g}: {c:.4f}" for e, c in fits.items())
    print(
        f"\ncriterion 6 PASS: identity deviation {worst_ident:.1e} <= 1e-10; "
        f"perturbed C_fit {summary} (cap 2)"
    )


def test_criterion_07_gradient_estimate(eps_runs):
    fits = []
    for N, dt in ((192, 0.01), (384, 0.005)):
        m = build_manifold("sphere_zonal", 2, 1.0, N)
        _, modes = laplacian_spectrum(m)
        bg = trivial_ancient(2.0, 0.0, -12.0)
        u0 = bg * (1.0 + 0.05 * modes[:, 1])
        traj = evolve(m, u0, -12.0, -10.0, 2.0, EvolveControls(dt_max=dt))
        D = float(np.max(traj.snapshots)) * 1.0000001
        report = check_gradient_estimate(
            traj, EstimateParams(D=D, T=2.0), "global", 2.0
        )
        fits.append(report.c_fit)
    drift = abs(fits[1] - fits[0]) / fits[0]
    assert drift <= 0.10

    late = eps_runs[0.1].slice_time(-6.0, -5.0)
    report = check_gradient_estimate(late, EstimateParams(D=0.4), "ancient", 2.0)
    assert report.diagnostics["degenerate"]
    assert report.passed
    assert report.c_fit <= 1e-6
    print(
        f"\ncriterion 7 PASS: C_fit {fits[0]:.6f} -> {fits[1]:.6f} under (h, dt) halving "
        f"({100 * drift:.2f}% <= 10%); degenerate max|grad u| {report.c_fit:.2e} <= 1e-6"
    )


def test_criterion_08_triviality_mechanism(sphere_fine, eps_runs):
    fits = {}
    for eps, run in eps_runs.items():
        window = run.slice_time(-12.0, -5.0)
        assert float(np.max(window.snapshots)) <= 0.2 * (1.0 + 0.15)
        report = check_triviality(window, sphere_fine, 2.0, c_cap=1.2)
        assert report.diagnostics["threshold"] == pytest.approx(0.5)
        assert report.diagnostics["verdict"] == "trivial-limit"
        assert report.passed, (eps, report.c_fit)
        fits[eps] = report.c_fit
    summary = ", ".join(f"eps={e:g}: {c:.4f}" for e, c in fits.items())
    print(f"\ncriterion 8 PASS: osc decay factor vs linearized rate {summary} (cap 1.2)")


def test_criterion_09_lower_bound_harness():
    a_min = lemma_admissibility_min(3, 1.0, 1.0, 0.0)
    assert a_min == 8.0

    m = build_manifold("circle", 1, 40.0, 256)
    traj = evolve(m, -np.ones(256), 0.0, 3.0, 2.0)
    margins = {}
    for delta in (0.1, 0.5, 0.9):
        params = EstimateParams(delta=delta, L=1.0, A=8.0, r0=1.0, T=3.0)
        report = check_lower_bound_lemma(traj, params, 1.0, 2.0)
        assert report.passed, (delta, report.diagnostics)
        margins[delta] = report.diagnostics["worst_margin"]
        assert margins[delta] >= 0.0
    summary = ", ".join(f"delta={d:g}: {v:.4f}" for d, v in margins.items())
    print(f"\ncriterion 9 PASS: A_min = 8 exact; worst margins {summary} all >= 0")


def test_criterion_10_cutoff_certification():
    consts = {}
    for p in (1.5, 2.0, 3.0):
        c = build_phi(p)
        result = verify_phi_inequality(c, p)
        assert not result.diverged
        for lo, hi in zip(result.level_maxima, result.level_maxima[1:]):
            assert hi <= 1.05 * lo
        consts[p] = result.constant
    deficient = verify_phi_inequality(build_phi(2.0, k=2, q=1), 2.0)
    assert deficient.diverged
    summary = ", ".join(f"p={p:g}: C={c:.1f}" for p, c in consts.items())
    print(f"\ncriterion 10 PASS: {summary} stable (<= 5% drift); (p=2, k=2, q=1) diverged")


def test_criterion_11_exponent_gates():
    def reference(n, p):
        if n <= 2:
            return "low_dimension_all_subcritical"
        lower = n * (n + 2) / (n - 1) ** 2
        upper = (n + 2) / (n - 2)
        if p < lower:
            return "below_threshold"
        if p < upper:
            return "open_gap"
        return "sobolev_critical_or_above"

    checked = 0
    for n in range(1, 7):
        for p in np.linspace(1.01, 12.0, 100):
            assert exponent_regime(n, float(p)) == reference(n, float(p)), (n, p)
            checked += 1
    assert exponent_regime(3, 3.75) == "open_gap"
    assert exponent_regime(3, 5.0) == "sobolev_critical_or_above"
    assert exponent_regime(1, 50.0) == "low_dimension_all_subcritical"
    assert exponent_regime(2, 50.0) == "low_dimension_all_subcritical"
    print(f"\ncriterion 11 PASS: {checked} grid points match the reference classification")


def test_criterion_12_runtime_budget():
    elapsed = time.perf_counter() - _T0
    assert elapsed < 600.0
    print(f"\ncriterion 12 PASS: criteria 1-11 wall time {elapsed:.1f}s < 600s")
