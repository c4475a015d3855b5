import csv
import math

import numpy as np
import pytest

from semiheat import (
    SmoothCutoff,
    build_phi,
    default_power,
    export_cutoff_csv,
    verify_phi_inequality,
)


def test_default_power_values():
    assert default_power(1.5) == 6
    assert default_power(2.0) == 4
    assert default_power(3.0) == 3


def test_profile_plateau_and_support():
    c = build_phi(2.0)
    phi, dphi, d2phi = c.at(0.5)
    assert phi == 1.0 and dphi == 0.0 and d2phi == 0.0
    phi, dphi, _ = c.at(2.0)
    assert phi == 0.0 and dphi == 0.0
    phi, dphi, _ = c.at(0.9)
    assert 0.0 < phi < 1.0
    assert dphi < 0.0


def test_cutoff_holds_its_parameters():
    # the grid (1024 points) and the samples are computed, not stored
    c = build_phi(2.0)
    assert c == SmoothCutoff(k=3, q=4)
    assert np.array_equal(c.grid, np.linspace(0.0, 1.0, 1024))


def test_profile_monotone_and_bounded():
    for p, k in [(1.5, 3), (2.0, 2), (3.0, 4)]:
        c = build_phi(p, k=k)
        phi, dphi, _ = c.at(c.grid)
        assert np.all(phi >= -1e-15)
        assert np.all(phi <= 1.0 + 1e-15)
        assert np.all(np.diff(phi) <= 1e-12)
        assert np.all(dphi <= 1e-12)
        assert np.all(phi[c.grid <= 0.75] == 1.0)
        assert np.all(phi[c.grid >= 1.0] == 0.0)


def test_derivatives_match_difference_quotients():
    c = build_phi(2.0)
    s = np.linspace(0.76, 0.99, 200)
    h = 1e-6
    phi_p, _, _ = c.at(s + h)
    phi_m, _, _ = c.at(s - h)
    _, dphi, d2phi = c.at(s)
    assert np.max(np.abs((phi_p - phi_m) / (2 * h) - dphi)) <= 1e-6
    _, dphi_p, _ = c.at(s + h)
    _, dphi_m, _ = c.at(s - h)
    assert np.max(np.abs((dphi_p - dphi_m) / (2 * h) - d2phi)) <= 1e-5


def test_build_phi_validation():
    with pytest.raises(ValueError):
        build_phi(1.0)
    with pytest.raises(ValueError):
        build_phi(2.0, k=1)
    with pytest.raises(ValueError):
        build_phi(2.0, q=0)
    # int() would truncate these: k = 2.9 and q = 3.7 would build kq = 6
    for name, value in (("k", 2.9), ("k", 3.0), ("k", True), ("q", 3.7), ("q", True)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            build_phi(2.0, **{name: value})
    assert build_phi(2.0, k=np.int64(2), q=np.int64(3)) == SmoothCutoff(k=2, q=3)


def test_certification_bounded_cases():
    # k*q at or above 2p/(p-1) keeps the ratio bounded under refinement
    for p, k, q in [(2.0, 2, 2), (3.0, 3, 1), (2.0, 3, 4), (1.5, 3, 6)]:
        c = build_phi(p, k=k, q=q)
        result = verify_phi_inequality(c, p)
        assert not result.diverged, (p, k, q, result.level_maxima)
        assert math.isfinite(result.constant) and result.constant > 0
        assert len(result.level_maxima) == 3


@pytest.mark.parametrize("p", [float("nan"), 0.5, 1.0, 1.0 + 1e-10])
def test_certification_refuses_p_not_above_1(p):
    # at p = 0.5 the ratio divides by phi^2 and the grid maximum reads 2.2e40;
    # both functions refuse a p within the floor every run applies
    with pytest.raises(ValueError, match="p must exceed 1"):
        verify_phi_inequality(build_phi(2.0), p)
    with pytest.raises(ValueError, match="p must exceed 1"):
        build_phi(p)


def test_certification_deficient_case_diverges():
    # k*q = 2 < 4 = 2p/(p-1): ratio grows like a negative power at the joint
    c = build_phi(2.0, k=2, q=1)
    result = verify_phi_inequality(c, 2.0)
    assert result.diverged
    assert result.level_maxima[-1] > 2.0 * result.level_maxima[0]


def test_certifiability_is_monotone_in_q():
    # once the power q is large enough the flag stays clear for larger q
    flags = []
    for q in (1, 2, 3, 4):
        c = build_phi(2.0, k=2, q=q)
        flags.append(verify_phi_inequality(c, 2.0).diverged)
    assert flags == [True, False, False, False]


def test_certified_inequality_holds_off_grid():
    c = build_phi(2.0)
    result = verify_phi_inequality(c, 2.0)
    s = np.linspace(0.0, 1.0, 3001)[1:-1] + 1.3e-4
    phi, dphi, d2phi = c.at(s)
    mask = phi > 0
    lhs = np.abs(2.0 * dphi[mask] ** 2 / phi[mask] - d2phi[mask])
    rhs = result.constant * phi[mask] ** 0.5
    assert np.all(lhs <= 1.05 * rhs + 1e-12)


def test_export_cutoff_csv(tmp_path):
    c = build_phi(2.0)
    path = tmp_path / "phi.csv"
    export_cutoff_csv(c, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,phi,dphi,d2phi"
    assert len(lines) == 1025
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    # the bytes csv.writer writes for the repr of each value
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "phi", "dphi", "d2phi"])
        writer.writerows([repr(float(v)) for v in row] for row in zip(c.grid, *c.at(c.grid)))
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
