"""Smooth cutoff profiles and numerical certification of their inequalities.

The base profile eta is a polynomial smoothstep on [3/4, 1]: identically 1
below 3/4, identically 0 above 1, and vanishing to order exactly k at the
right joint (eta ~ c (1-s)^k there), with a C^k left joint.  The working
cutoff is phi = eta^q.  Certification means: the grid maximum of a ratio
like |2 phi'^2/phi - phi''| / phi^(1/p) stays bounded under grid refinement
(<= 5% growth per doubling), in which case the observed maximum is reported
as the fitted constant.  Power counting on eta ~ (1-s)^k shows the ratio
behaves like (1-s)^(kq - 2 - kq/p) near the right joint, so boundedness is
equivalent to kq >= 2p/(p-1); the default q is the smallest integer
satisfying that with k = 3.  The base grid has 1024 points on [0, 1], and
certification compares its maxima on that grid and two doublings of it.

All derivatives are closed-form polynomial evaluations, never differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from ._floats import float_texts
from .geometry import _integer
from .reaction_ode import validate_exponent

_PLATEAU_END = 0.75
_SUPPORT_END = 1.0
# points of the base grid on [0, 1]: the profile table's rows and the
# certification's coarsest level
_GRID_COUNT = 1024
# certification levels: the base grid, then each doubling of it
_REFINEMENT_LEVELS = 3


def _eta_polynomial(k: int) -> Polynomial:
    # eta(z) = sum_{j<=k} C(2k, j) z^j (1-z)^(2k-j): the unique degree-2k
    # polynomial with eta(0)=1 to order k+1 and a zero of order exactly k at 1
    z = Polynomial([0.0, 1.0])
    one_minus = Polynomial([1.0, -1.0])
    eta = Polynomial([0.0])
    for j in range(k + 1):
        eta = eta + math.comb(2 * k, j) * z**j * one_minus ** (2 * k - j)
    return eta


def default_power(p: float) -> int:
    """Default exponent q = ceil(2p/(p-1)); with any k >= 2 this satisfies
    the certification condition kq >= 2p/(p-1) with margin."""
    return max(1, math.ceil(2.0 * p / (p - 1.0)))


@dataclass(frozen=True)
class SmoothCutoff:
    """The cutoff phi = eta^q of flatness order k, and the grid of 1024
    points on [0, 1] it is sampled on; ``at`` gives phi and its closed-form
    derivatives at any points, the samples at ``at(grid)``.

    phi lives in [0,1], equals 1 up to 3/4, equals 0 from 1 on, and is
    nonincreasing.
    """

    k: int
    q: int

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, _GRID_COUNT)

    def at(self, s):
        """Evaluate (phi, phi', phi'') at arbitrary points."""
        k, q = self.k, self.q
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        eta = _eta_polynomial(k)
        deta = eta.deriv()
        d2eta = eta.deriv(2)
        # map [3/4, 1] to the unit interval; chain-rule factor 4 per derivative
        z = (s_arr - _PLATEAU_END) / (_SUPPORT_END - _PLATEAU_END)
        scale = 1.0 / (_SUPPORT_END - _PLATEAU_END)

        phi = np.ones_like(s_arr)
        dphi = np.zeros_like(s_arr)
        d2phi = np.zeros_like(s_arr)
        mid = (z > 0.0) & (z < 1.0)
        zm = z[mid]
        e = eta(zm)
        de = deta(zm)
        d2e = d2eta(zm)
        phi[mid] = e**q
        dphi[mid] = q * e ** (q - 1) * de * scale
        second = q * e ** (q - 1) * d2e
        if q >= 2:
            second = second + q * (q - 1) * e ** (q - 2) * de**2
        d2phi[mid] = second * scale**2
        phi[z >= 1.0] = 0.0  # dphi and d2phi are zero there already
        if np.isscalar(s) or np.asarray(s).ndim == 0:
            return float(phi[0]), float(dphi[0]), float(d2phi[0])
        return phi, dphi, d2phi


def build_phi(p: float, k: int = 3, q: int | None = None) -> SmoothCutoff:
    """Build phi = eta^q, sampled (with exact derivatives) on 1024 points
    of [0, 1].

    q defaults to the smallest integer with k*q >= 2p/(p-1), the sufficient
    condition for the reaction-power inequality to certify.  A k or q that
    is a bool or not integral is refused, as build_manifold refuses n, and
    a p that validate_exponent refuses, as every run refuses it.
    """
    p = validate_exponent(p)
    k = _integer(k, "flatness order k")
    if k < 2:
        raise ValueError("flatness order k must be at least 2")
    q = default_power(p) if q is None else _integer(q, "power q")
    if q < 1:
        raise ValueError("power q must be at least 1")
    return SmoothCutoff(k=k, q=q)


@dataclass
class CertificationResult:
    """Outcome of a refinement-stability certification."""

    constant: float
    diverged: bool
    level_maxima: list


# a certified constant may grow at most this factor per grid doubling
_STABILITY_RATIO = 1.05


def verify_phi_inequality(c: SmoothCutoff, p: float) -> CertificationResult:
    """Certify |2 phi'^2 / phi - phi''| <= C phi^(1/p) by refinement.

    Returns the fitted C (the finest-level grid maximum of the ratio) when
    the level maxima are stable, or a divergence flag when they grow by more
    than 5% per doubling, which happens exactly when kq < 2p/(p-1).  The
    levels are the 1024-point grid and two doublings of it.  A p that
    validate_exponent refuses is a ValueError.
    """
    p = validate_exponent(p)
    maxima = []
    for level in range(_REFINEMENT_LEVELS):
        phi, dphi, d2phi = c.at(np.linspace(0.0, 1.0, _GRID_COUNT * 2**level))
        mask = phi > 0.0
        phi, dphi, d2phi = phi[mask], dphi[mask], d2phi[mask]
        maxima.append(float(np.max(np.abs(2.0 * dphi**2 / phi - d2phi) / phi ** (1.0 / p))))
    diverged = any(finer > _STABILITY_RATIO * coarser for coarser, finer in zip(maxima, maxima[1:]))
    return CertificationResult(constant=maxima[-1], diverged=diverged, level_maxima=maxima)


def export_cutoff_csv(c: SmoothCutoff, path):
    """Profile table (s, phi, phi', phi'') for plotting: the bytes
    ``csv.writer`` writes for the ``repr`` of each value (_floats.float_texts)."""
    columns = [float_texts(x) for x in (c.grid, *c.at(c.grid))]
    with open(path, "wb") as fh:
        fh.write(b"s,phi,dphi,d2phi\r\n")
        fh.writelines(map(b"%s,%s,%s,%s\r\n".__mod__, zip(*columns)))
