"""Discrete model manifolds and their Laplace and gradient operators.

Everything runs on one-dimensional reductions of three model geometries:

* ``sphere_zonal``      rotationally symmetric functions on the round n-sphere,
                        coordinate theta in [0, pi], Laplacian
                        (u_tt + (n-1) cot(theta) u_t) / radius^2
* ``circle``            the flat circle of a given circumference, periodic;
                        ``flat_torus_1d`` is accepted as another spelling and
                        builds the same manifold (its ``kind`` is ``circle``)
* ``euclidean_radial``  radial functions on flat R^n truncated at R_max,
                        Laplacian u_rr + (n-1) u_r / r, homogeneous Neumann
                        at the outer boundary

Each Laplacian is stored once, in LAPACK diagonal-ordered band form
``(l, u, ab)`` with ``ab[u + i - j, j] == L[i, j]``.  The circle's two
periodic corner entries sit in the band slots that a plain tridiagonal
matrix leaves unused: L[N-1, 0] in ``ab[0, 0]`` and L[0, N-1] in
``ab[2, N-1]``.  The matvec, the dense matrix and the implicit solve are all
derived from that one array.

The closed kinds (sphere, circle) use a conservative flux form with
exact per-cell volume integrals, which makes the operator self-adjoint in the
volume-weighted inner product and gives an exact discrete divergence theorem
(both hold to roundoff, by telescoping).  The flux row at a pole reduces to
the symmetry limit 2n (u_1 - u_0) / h^2, i.e. the L'Hopital value of the
singular coefficient there.

The radial kind uses fourth-order stencils (centered five-point interior,
even extension across r = 0, one skewed row next to the outer boundary, and a
reflection row enforcing the Neumann condition at R_max).  The extra accuracy
is needed so that static-profile residuals on fine radial grids sit well
below the verification tolerances; the operator preserves constants exactly
and its spectrum stays in the closed left half plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs

KINDS = ("sphere_zonal", "circle", "euclidean_radial")
CLOSED_KINDS = ("sphere_zonal", "circle")

# config spellings of a kind other than its own name
_KIND_ALIASES = {"flat_torus_1d": "circle"}

# dense spectra only; guards against accidentally materializing a huge matrix
_SPECTRUM_MAX_NODES = 4096


@dataclass(frozen=True, eq=False)
class DiscreteManifold:
    """One model geometry plus its assembled discrete operators.

    Immutable after construction; operators live in the private cache, so
    every run on one manifold reuses them.  ``radius_or_length`` is the
    geodesic radius for the sphere, the circumference for the circle, and the
    outer radius for the radial kind.  ``ricci_lower`` is the constant lambda
    with Ric >= lambda * g ((n-1)/radius^2 on the round sphere, 0 for the
    flat kinds).
    """

    kind: str
    n: int
    radius_or_length: float
    nodes: np.ndarray
    volume_weights: np.ndarray
    ricci_lower: float
    _ops: dict = field(default_factory=dict, repr=False)

    @property
    def node_count(self) -> int:
        return self.nodes.size

    @property
    def spacing(self) -> float:
        return float(self.nodes[1] - self.nodes[0])


def curvature_bound(m: DiscreteManifold) -> float:
    """K with Ric >= K (n-1) g; zero in the one-dimensional kinds."""
    if m.n >= 2:
        return m.ricci_lower / (m.n - 1)
    return 0.0


def _gauss_cell_integrals(edges: np.ndarray, power: int) -> np.ndarray:
    # exact enough for any sin^power cell integral: 8-point Gauss per cell
    gx, gw = np.polynomial.legendre.leggauss(8)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    theta = mid[:, None] + half[:, None] * gx[None, :]
    return half * np.sum(gw[None, :] * np.sin(theta) ** power, axis=1)


def _derivative_weights(offsets, order, h):
    # interpolation-exact finite difference weights on the given stencil
    offs = np.asarray(offsets, dtype=float)
    A = np.vander(offs, offs.size, increasing=True).T
    b = np.zeros(offs.size)
    b[order] = math.factorial(order)
    return np.linalg.solve(A, b) / h**order


def _build_zonal_ops(n, radius, N):
    theta = np.linspace(0.0, np.pi, N)
    h = theta[1] - theta[0]
    faces = 0.5 * (theta[:-1] + theta[1:])
    edges = np.concatenate(([0.0], faces, [np.pi]))
    cell = _gauss_cell_integrals(edges, n - 1)
    s_face = np.sin(faces) ** (n - 1)

    coef = 1.0 / (radius**2 * cell * h)
    left = np.concatenate(([0.0], s_face))  # face fluxes; none through the poles
    right = np.concatenate((s_face, [0.0]))
    ab = np.zeros((3, N))
    ab[0, 1:] = s_face * coef[:-1]
    ab[1] = -(left + right) * coef
    ab[2, :-1] = s_face * coef[1:]
    weights = radius**n * cell
    return theta, weights, {"band": (1, 1, ab)}


def _build_periodic_ops(length, N):
    x = np.arange(N) * (length / N)
    h = length / N
    inv_h2 = 1.0 / h**2
    # full rows: ab[0, 0] and ab[2, N-1] hold the corners L[N-1, 0], L[0, N-1]
    ab = np.repeat([[inv_h2], [-2.0 * inv_h2], [inv_h2]], N, axis=1)
    weights = np.full(N, h)
    return x, weights, {"band": (1, 1, ab)}


def _build_radial_ops(n, r_max, N):
    r = np.linspace(0.0, r_max, N)
    h = r[1] - r[0]
    l, u = 4, 2
    ab = np.zeros((l + u + 1, N))

    def put(i, j, v):
        ab[u + i - j, j] = v

    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    interior = np.arange(2, N - 2)
    w = c2 + ((n - 1) / r[interior])[:, None] * c1
    for k in range(5):
        put(interior, interior - 2 + k, w[:, k])

    # pole row: n * u_rr with the fourth-order even stencil across r = 0
    put(0, 0, n * (-30.0) / (12.0 * h * h))
    put(0, 1, n * 32.0 / (12.0 * h * h))
    put(0, 2, n * (-2.0) / (12.0 * h * h))

    # one in from the pole: even ghost u(-h) = u(h)
    a1 = (n - 1) / r[1]
    put(1, 0, 16.0 / (12.0 * h * h) + a1 * (-8.0) / (12.0 * h))
    put(1, 1, -31.0 / (12.0 * h * h) + a1 * 1.0 / (12.0 * h))
    put(1, 2, 16.0 / (12.0 * h * h) + a1 * 8.0 / (12.0 * h))
    put(1, 3, -1.0 / (12.0 * h * h) + a1 * (-1.0) / (12.0 * h))

    # one in from the outer boundary: skewed stencil, no ghost involved
    i = N - 2
    offs = np.arange(-4, 2)
    w2 = _derivative_weights(offs, 2, h)
    w1 = _derivative_weights(offs, 1, h)
    w = w2 + (n - 1) / r[i] * w1
    for k in range(6):
        put(i, i - 4 + k, w[k])

    # boundary node: reflection row realizing the homogeneous Neumann condition
    put(N - 1, N - 2, 2.0 / (h * h))
    put(N - 1, N - 1, -2.0 / (h * h))

    edges = np.concatenate(([0.0], 0.5 * (r[:-1] + r[1:]), [r_max]))
    weights = (edges[1:] ** n - edges[:-1] ** n) / n
    return r, weights, {"band": (l, u, ab)}


def _canonical_kind(kind) -> str:
    """The kind a name or alias stands for; ValueError if it names none."""
    canonical = _KIND_ALIASES.get(kind, kind) if isinstance(kind, str) else None
    if canonical not in KINDS:
        raise ValueError(f"unknown manifold kind {kind!r}")
    return canonical


def _check_dimension(kind: str, n: int):
    """n >= 2 for sphere_zonal and euclidean_radial, n = 1 for the circle."""
    if kind == "circle":
        if n != 1:
            raise ValueError(f"{kind} requires dimension n = 1")
    elif n < 2:
        raise ValueError(f"{kind} requires dimension n >= 2")


def build_manifold(kind: str, n: int, radius_or_length: float, node_count: int) -> DiscreteManifold:
    """Construct one of the three model manifolds on a uniform grid.

    Parameters
    ----------
    kind : one of KINDS, or ``flat_torus_1d`` for the circle
    n : integer dimension; must be >= 2 for sphere_zonal / euclidean_radial
        and exactly 1 for the circle
    radius_or_length : geodesic radius (sphere), circumference (circle), or
        outer radius (radial)
    node_count : uniform grid size, at least 16
    """
    kind = _canonical_kind(kind)
    if node_count < 16:
        raise ValueError("node_count must be at least 16")
    if radius_or_length <= 0:
        raise ValueError("radius_or_length must be positive")
    n = int(n)
    _check_dimension(kind, n)

    # sizes near the float range overflow or divide by zero; the checks
    # below refuse what still comes out non-finite or degenerate
    try:
        with np.errstate(all="ignore"):
            if kind == "sphere_zonal":
                nodes, weights, ops = _build_zonal_ops(n, radius_or_length, node_count)
                ricci = (n - 1) / radius_or_length**2
            elif kind == "circle":
                nodes, weights, ops = _build_periodic_ops(radius_or_length, node_count)
                ricci = 0.0
            else:
                nodes, weights, ops = _build_radial_ops(n, radius_or_length, node_count)
                ricci = 0.0
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"{kind} of size {radius_or_length:g} on {node_count} nodes is out of the float range"
        ) from None
    if not np.all(weights > 0):
        raise ValueError("volume weights must be positive")
    if not (math.isfinite(ricci) and np.all(np.isfinite(weights)) and np.all(np.isfinite(ops["band"][2]))):
        raise ValueError(
            f"{kind} of size {radius_or_length:g} on {node_count} nodes has non-finite weights or operator"
        )

    return DiscreteManifold(
        kind=kind,
        n=n,
        radius_or_length=float(radius_or_length),
        nodes=nodes,
        volume_weights=weights,
        ricci_lower=float(ricci),
        _ops=ops,
    )


def _aligned_values(m: DiscreteManifold, u) -> np.ndarray:
    vals = np.asarray(u, dtype=float)
    if vals.ndim != 1 or vals.size != m.node_count:
        raise ValueError("field is not aligned with the manifold")
    return vals


def _apply_band(m: DiscreteManifold, x: np.ndarray) -> np.ndarray:
    # L @ x along the last axis of x, each row summed in ascending column
    # order (the circle's corner L[N-1, 0] first in its row, L[0, N-1] last)
    l, u, ab = m._ops["band"]
    N = ab.shape[1]
    out = np.zeros(x.shape)
    periodic = m.kind == "circle"
    if periodic:
        out[..., -1] += ab[0, 0] * x[..., 0]
    for k in range(-l, u + 1):  # diagonal j - i = k
        if k < 0:
            out[..., -k:] += ab[u - k, :k] * x[..., :k]
        else:
            out[..., : N - k] += ab[u - k, k:] * x[..., k:]
    if periodic:
        out[..., 0] += ab[2, -1] * x[..., -1]
    return out


def laplace_beltrami(m: DiscreteManifold, u) -> np.ndarray:
    """Apply the discrete Laplacian to nodal values."""
    return _apply_band(m, _aligned_values(m, u))


def gradient_norm(m: DiscreteManifold, u) -> np.ndarray:
    """Pointwise |grad u| of one field, or of every row of a block of fields
    along the last axis: |u_theta|/radius (zonal), |u_x| (circle), |u_r|
    (radial).  Centered differences, one-sided at non-periodic ends."""
    vals = np.asarray(u, dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[-1] != m.node_count:
        raise ValueError("field is not aligned with the manifold")
    g = np.empty(vals.shape)
    np.subtract(vals[..., 2:], vals[..., :-2], out=g[..., 1:-1])
    if m.kind == "circle":
        g[..., 0] = vals[..., 1] - vals[..., -1]
        g[..., -1] = vals[..., 0] - vals[..., -2]
    else:
        # difference-of-differences form of the one-sided stencils: cancels
        # the constant mode exactly instead of to roundoff
        g[..., 0] = 4.0 * (vals[..., 1] - vals[..., 0]) - (vals[..., 2] - vals[..., 0])
        g[..., -1] = (vals[..., -3] - vals[..., -1]) - 4.0 * (vals[..., -2] - vals[..., -1])
    g /= 2.0 * m.spacing
    if m.kind == "sphere_zonal":
        g /= m.radius_or_length
    return np.abs(g, out=g)


def laplacian_spectrum(m: DiscreteManifold):
    """Eigenvalues and eigenmodes of -Laplacian for the closed kinds.

    Returns (lam, modes): lam ascending with lam[0] ~ 0, modes[:, j]
    normalized to sup-norm 1 with a deterministic sign.  The operator is
    self-adjoint in the volume-weighted inner product, so the symmetrized
    dense problem is solved once and cached on the manifold.
    """
    if m.kind not in CLOSED_KINDS:
        raise ValueError("spectrum is only available for the closed kinds")
    if "spectrum" not in m._ops:
        N = m.node_count
        if N > _SPECTRUM_MAX_NODES:
            raise ValueError("grid too large for a dense spectrum")
        L = _apply_band(m, np.eye(N)).T  # row j of the product is L e_j
        w_half = np.sqrt(m.volume_weights)
        S = (w_half[:, None] * L) / w_half[None, :]
        S = 0.5 * (S + S.T)
        vals, vecs = scipy.linalg.eigh(S)
        lam = -vals[::-1]
        y = vecs[:, ::-1] / w_half[:, None]
        for j in range(N):
            peak = np.argmax(np.abs(y[:, j]))
            y[:, j] = y[:, j] / y[peak, j]
        m._ops["spectrum"] = (lam, y)
    return m._ops["spectrum"]


def _lapack_check(info: int, routine: str):
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def _step_solver(m: DiscreteManifold, dt: float):
    """The solve of (I - dt * Laplacian) x = b, factored once per dt.

    The manifold keeps the last step's factor and replaces it when dt
    changes; one entry, not one per dt, because a blow-up run takes a new dt
    on every step.  The tridiagonal kinds go through dgttrf/dgttrs and the
    radial band through dgbtrf/dgbtrs: the routines solve_banded's gtsv and
    gbsv are made of, so the bits are those of a plain banded solve.
    """
    cached = m._ops.get("step")
    if cached is not None and cached[0] == dt:
        return cached[1]
    l, u, ab = m._ops["band"]
    ab_step = -dt * ab
    ab_step[u, :] += 1.0
    periodic = m.kind == "circle"
    if periodic:
        # tridiagonal plus the two corner entries, as a rank-one update of
        # the tridiagonal part, which never reads the corner slots of ab
        c_lr, c_ul = ab_step[0, 0], ab_step[2, -1]  # A[N-1, 0], A[0, N-1]
        gamma = -ab_step[1, 0]
        ab_step[1, 0] -= gamma
        ab_step[1, -1] -= c_ul * c_lr / gamma
    if not np.isfinite(ab_step).all():
        raise ValueError(f"I - dt * Laplacian is not finite at dt = {dt!r}")

    if l == u == 1:
        dl, d, du, du2, ipiv, info = dgttrf(ab_step[2, :-1], ab_step[1], ab_step[0, 1:])
        _lapack_check(info, "dgttrf")

        def band_solve(b):
            x, info = dgttrs(dl, d, du, du2, ipiv, b)
            _lapack_check(info, "dgttrs")
            return x

    else:
        lu = np.zeros((2 * l + u + 1, ab_step.shape[1]))
        lu[l:] = ab_step
        lu, ipiv, info = dgbtrf(lu, l, u, overwrite_ab=1)
        _lapack_check(info, "dgbtrf")

        def band_solve(b):
            x, info = dgbtrs(lu, l, u, b, ipiv)
            _lapack_check(info, "dgbtrs")
            return x

    solve = band_solve
    if periodic:
        e = np.zeros(ab_step.shape[1])
        e[0], e[-1] = gamma, c_lr
        z = band_solve(e)
        vz = z[0] + c_ul * z[-1] / gamma

        def solve(b):
            y = band_solve(b)
            vy = y[0] + c_ul * y[-1] / gamma
            return y - z * (vy / (1.0 + vz))

    m._ops["step"] = (dt, solve)
    return solve


def implicit_diffusion_solve(m: DiscreteManifold, values: np.ndarray, dt: float) -> np.ndarray:
    """Solve (I - dt * Laplacian) u_new = values.

    One banded (or cyclic-banded) solve with a factor reused while dt stays
    the same; row sums of the matrix are exactly 1, so constants pass
    through unchanged.  A non-finite right-hand side or matrix is a
    ValueError, a singular matrix a LinAlgError.
    """
    b = _aligned_values(m, values)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must be finite")
    return _step_solver(m, dt)(b)
