"""Discrete model manifolds and their Laplace and gradient operators.

Everything runs on one-dimensional reductions of three model geometries:

* ``sphere_zonal``      rotationally symmetric functions on the round n-sphere,
                        coordinate theta in [0, pi], Laplacian
                        (u_tt + (n-1) cot(theta) u_t) / radius^2
* ``circle``            the flat circle of a given circumference, periodic
* ``euclidean_radial``  radial functions on flat R^n truncated at R_max,
                        Laplacian u_rr + (n-1) u_r / r, homogeneous Neumann
                        at the outer boundary

Each Laplacian is stored once, in LAPACK diagonal-ordered band form
``(l, u, ab)`` with ``ab[u + i - j, j] == L[i, j]``.  The circle's two
periodic corner entries sit in the band slots that a plain tridiagonal
matrix leaves unused: L[N-1, 0] in ``ab[0, 0]`` and L[0, N-1] in
``ab[2, N-1]``.  The matvec, the implicit solve and the spectrum are all
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
below the verification tolerances; the operator maps constants to zero up
to roundoff and its spectrum stays in the closed left half plane.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

KINDS = ("sphere_zonal", "circle", "euclidean_radial")
CLOSED_KINDS = ("sphere_zonal", "circle")

# the spectrum's modes are an N x N array; guards against a huge one
_SPECTRUM_MAX_NODES = 4096


def _lapack_module():
    """scipy's compiled LAPACK wrappers, without importing ``scipy.linalg``.

    ``import scipy.linalg`` costs 0.25-0.3 s, nearly all of it modules that
    no LAPACK call needs, so the extension module behind
    ``scipy.linalg.lapack`` is loaded straight from its file; finding the
    file does not import scipy.  It is loaded under its own name, which
    Python records for such a module, so a later ``import scipy.linalg``
    reuses this module object.  Where scipy keeps no such file, the public
    ``scipy.linalg.lapack``, which carries the same routines, is used.
    """
    spec = importlib.util.find_spec("scipy")
    for directory in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", path)
                module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(module)
                return module
    import scipy.linalg.lapack

    return scipy.linalg.lapack


# dgtsv, dgbtrf/dgbtrs/dtbtrs and dstemr, chosen once
_lapack = _lapack_module()


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


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool or a float, even a whole one, is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
    kind : one of KINDS
    n : integer dimension; must be >= 2 for sphere_zonal / euclidean_radial
        and exactly 1 for the circle
    radius_or_length : geodesic radius (sphere), circumference (circle), or
        outer radius (radial)
    node_count : uniform grid size, at least 16
    """
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown manifold kind {kind!r}")
    n = _integer(n, "n")
    node_count = _integer(node_count, "node_count")
    if node_count < 16:
        raise ValueError("node_count must be at least 16")
    if not 0 < radius_or_length < math.inf:
        raise ValueError(f"radius_or_length must be positive and finite, got {radius_or_length!r}")
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


def laplace_beltrami(m: DiscreteManifold, u) -> np.ndarray:
    """Apply the discrete Laplacian to nodal values."""
    # L @ x from the band, each row summed in ascending column order (the
    # circle's corner L[N-1, 0] first in its row, L[0, N-1] last)
    x = _aligned_values(m, u)
    lower, upper, ab = m._ops["band"]
    N = ab.shape[1]
    out = np.zeros(N)
    periodic = m.kind == "circle"
    if periodic:
        out[-1] += ab[0, 0] * x[0]
    for k in range(-lower, upper + 1):  # diagonal j - i = k
        if k < 0:
            out[-k:] += ab[upper - k, :k] * x[:k]
        else:
            out[: N - k] += ab[upper - k, k:] * x[k:]
    if periodic:
        out[0] += ab[2, -1] * x[-1]
    return out


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
    normalized to sup-norm 1 with a deterministic sign (the first node of
    largest modulus holds +1), computed once and cached on the manifold.
    On the sphere the operator is self-adjoint in the volume-weighted inner
    product, so the symmetrized matrix S = W^(1/2) L W^(-1/2), averaged
    with its transpose, is solved; it is tridiagonal, its diagonal and
    off-diagonal are built from the band with the operations of the dense
    0.5 * (S + S.T), in the same order, and go to LAPACK's dstemr, the
    routine dsyevr hands a tridiagonal matrix after a Householder reduction
    that leaves it unchanged, so the eigenpairs are those of ``eigh`` of
    the dense matrix bit for bit.  On the circle the periodic second
    difference has known eigenpairs (_periodic_eigenpairs): every eigenvalue
    but the first and, for even N, the last is double, and the closed form
    fixes one basis of each such eigenspace, cos before sin.
    """
    if m.kind not in CLOSED_KINDS:
        raise ValueError("spectrum is only available for the closed kinds")
    if "spectrum" not in m._ops:
        N = m.node_count
        if N > _SPECTRUM_MAX_NODES:
            raise ValueError("grid too large for a dense spectrum")
        if m.kind == "circle":
            lam, y = _periodic_eigenpairs(m)
        else:
            w_half = np.sqrt(m.volume_weights)
            vals, vecs = _tridiagonal_eigenpairs(m, w_half)
            lam = -vals[::-1]
            y = vecs[:, ::-1] / w_half[:, None]
        y /= y[np.argmax(np.abs(y), axis=0), np.arange(N)]
        m._ops["spectrum"] = (lam, y)
    return m._ops["spectrum"]


def _periodic_eigenpairs(m: DiscreteManifold):
    # -L's eigenpairs on the circle, ascending: column c is the mode of
    # wavenumber k = (c + 1) // 2, cos(2 pi k j / N) for odd c and c = 0,
    # sin(2 pi k j / N) for even c > 0, with eigenvalue (4 / h^2) sin^2(pi k / N);
    # so the constant comes first, then each k's cos and sin, and for even N
    # the alternating mode (k = N / 2) last.  Each phase is reduced to
    # (j k) % N before it is scaled, so nodes of one phase get one value and
    # the sign rule's ties between +max and -max resolve the same way always
    _, _, ab = m._ops["band"]
    N = m.node_count
    k = (np.arange(N) + 1) // 2
    lam = (4.0 * ab[0, 1]) * np.sin(k * (np.pi / N)) ** 2  # ab[0, 1] = L[0, 1] = 1 / h^2
    phase = np.arange(N) * (2.0 * np.pi / N)
    table = np.concatenate((np.cos(phase), np.sin(phase)))  # cos, then sin, of each reduced phase
    index = np.outer(np.arange(N), k) % N
    index[:, 2::2] += N
    return lam, table[index]


def _tridiagonal_eigenpairs(m: DiscreteManifold, w_half: np.ndarray):
    # ascending eigenpairs of the symmetrized tridiagonal Laplacian, by
    # dstemr; S[i, j] = (w_half[i] * L[i, j]) / w_half[j] entry by entry, as
    # a dense 0.5 * (S + S.T) forms it, and L[i, j] = ab[1 + i - j, j]
    _, _, ab = m._ops["band"]
    d = (w_half * ab[1]) / w_half
    d = 0.5 * (d + d)
    e = np.zeros(m.node_count)  # dstemr takes N entries and uses the last as workspace
    e[:-1] = 0.5 * ((w_half[1:] * ab[2, :-1]) / w_half[:-1] + (w_half[:-1] * ab[0, 1:]) / w_half[1:])
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("the symmetrized Laplacian is not finite")
    _, vals, vecs, info = _lapack.dstemr(d, e, 0, 0.0, 0.0, 0, 0)  # range 0: every eigenpair
    _lapack_check(info, "dstemr", "dstemr: internal error")
    return vals, vecs


def _lapack_check(info: int, routine: str, failure: str = "singular matrix"):
    if info > 0:
        raise np.linalg.LinAlgError(failure)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def _step_matrix(m: DiscreteManifold, dt: float):
    """(ab_step, corners): I - dt * Laplacian in m's band layout, in a new
    array.  On the circle the corner entries become a rank-one update of
    the tridiagonal part, which never reads the corner slots of ab, and
    corners = (c_lr, c_ul, gamma); on the other kinds corners is None.
    ValueError if dt is not positive (on the circle dt = -h^2/2 would make
    gamma zero) or an entry is not finite."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    _, u, ab = m._ops["band"]
    ab_step = -dt * ab
    ab_step[u, :] += 1.0
    corners = None
    if m.kind == "circle":
        c_lr, c_ul = ab_step[0, 0], ab_step[2, -1]  # A[N-1, 0], A[0, N-1]
        gamma = -ab_step[1, 0]
        ab_step[1, 0] -= gamma
        ab_step[1, -1] -= c_ul * c_lr / gamma
        corners = (c_lr, c_ul, gamma)
    if not np.isfinite(ab_step).all():
        raise ValueError(f"I - dt * Laplacian is not finite at dt = {dt!r}")
    return ab_step, corners


def _corner_update(y: np.ndarray, z: np.ndarray, corners) -> np.ndarray:
    # Sherman-Morrison: the circle's solution from the tridiagonal part's
    # solutions y of b and z of the update vector (gamma, 0, ..., 0, c_lr)
    _, c_ul, gamma = corners
    vy = y[0] + c_ul * y[-1] / gamma
    vz = z[0] + c_ul * z[-1] / gamma
    return y - z * (vy / (1.0 + vz))


def _step_solver(m: DiscreteManifold, dt: float):
    # the solve with I - dt * Laplacian, kept for reuse at the same dt; the
    # LAPACK routines come from the module _lapack_module loads
    ab_step, corners = _step_matrix(m, dt)
    l, u, _ = m._ops["band"]
    if l == u == 1:
        # tridiagonal kinds: one dgtsv call per solve, the routine of
        # solve_banded's tridiagonal case; dgtsv overwrites its inputs, so
        # the wrapper's default copies keep the matrix and b intact
        dgtsv = _lapack.dgtsv
        dl, d, du = ab_step[2, :-1], ab_step[1], ab_step[0, 1:]

        def solve(b):
            if corners is None:
                _, _, _, x, info = dgtsv(dl, d, du, b)
                _lapack_check(info, "dgtsv")
                return x
            # the circle solves b and its corner update's vector as two
            # right-hand sides of the one call
            rhs = np.zeros((b.size, 2), order="F")
            rhs[:, 0] = b
            rhs[0, 1], rhs[-1, 1] = corners[2], corners[0]
            _, _, _, x, info = dgtsv(dl, d, du, rhs, overwrite_b=1)
            _lapack_check(info, "dgtsv")
            return _corner_update(x[:, 0], x[:, 1], corners)

        return solve

    # radial band: dgbtrf's factor, the routine solve_banded's gbsv starts
    # with.  Its first solve is dgbtrs, as in gbsv, which replays the row
    # interchanges and applies L one row at a time (a dger call per row);
    # from the second on, the factor in _permuted_factor's form solves by
    # one gather and two banded triangular sweeps (dtbtrs), to the same bits.
    # The first solve stays dgbtrs because a blow-up run takes a new dt, so a
    # new factor, on nearly every step: building the permuted form with every
    # factor ran radial blow-up runs 30-80 % slower per step (N = 2000: 360-408
    # -> 497-527 us; N = 256: 64-91 -> 118-154 us; two runs each)
    lu = np.zeros((2 * l + u + 1, ab_step.shape[1]))
    lu[l:] = ab_step
    dgbtrs, dtbtrs = _lapack.dgbtrs, _lapack.dtbtrs
    lu, ipiv, info = _lapack.dgbtrf(lu, l, u, overwrite_ab=1)
    _lapack_check(info, "dgbtrf")
    first = True
    permuted = None  # (perm, lower, upper), built on the second solve

    def solve(b):
        nonlocal first, permuted, lu, ipiv
        if first:
            first = False
            x, info = dgbtrs(lu, l, u, b, ipiv)
            _lapack_check(info, "dgbtrs")
            return x
        if permuted is None:
            permuted = _permuted_factor(lu, ipiv, l, u)
            lu = ipiv = None  # the permuted form holds copies of all it needs
        perm, lower, upper = permuted
        x, info = dtbtrs(lower, b[perm], uplo="L", diag="U", overwrite_b=1)
        _lapack_check(info, "dtbtrs")
        x, info = dtbtrs(upper, x, overwrite_b=1)
        _lapack_check(info, "dtbtrs")
        return x

    return solve


def _permuted_factor(lu: np.ndarray, ipiv: np.ndarray, l: int, u: int):
    """(perm, lower, upper): dgbtrf's band factor ``(lu, ipiv)`` of an
    N x N matrix A with l sub- and u superdiagonals, as P A = L' U.

    dgbtrf interchanges rows j and ipiv[j] (0-based) before it eliminates
    column j, and keeps the multipliers of the rows then at j+1 .. j+l in
    ``lu[l+u+1:, j]``; dgbtrs replays both, step by step.  Here each
    multiplier moves to the row its value of b ends at once every later
    interchange is made, the way dgetrf applies them to the earlier columns
    of a dense L: ``b[perm]`` is P b, ``lower`` holds L' in dtbtrs's lower
    band layout (``lower[i - j, j] == L'[i, j]``; row 0, the unit diagonal,
    holds nothing) and ``upper`` is U, rows 0 .. l+u of ``lu``, as an
    F-ordered copy.  Forward substitution with L' then subtracts from each
    value the products dgbtrs subtracts, in the same column order; the band
    of L' is wider than l where the interchanges move a row further down.
    Only the interchanging steps are visited one by one, and the
    multipliers are placed by one scatter.
    """
    N = lu.shape[1]
    cols = np.arange(N)
    # origin[r, j]: the row of b whose value is at j+1+r when column j is
    # eliminated (past N in the last columns, whose slots hold no multiplier)
    origin = np.arange(1, l + 1)[:, None] + cols
    rows = {}  # position -> row of b, where the interchanges so far moved it
    for k in np.flatnonzero(ipiv != cols).tolist():
        q = int(ipiv[k])
        moved = rows.get(k, k)
        rows[k] = rows.get(q, q)
        rows[q] = moved
        # step k moves that row down to q, where column j sees it at
        # r = q-1-j for k <= j < q (flat index (q-1)N - j(N-1)), until a
        # later step moves another row into q and overwrites it here
        origin.reshape(-1)[q - 1 : (q - 1 - k) * N + k + 1 : N - 1] = moved
    perm = cols.copy()
    perm[np.fromiter(rows, np.intp, len(rows))] = np.fromiter(rows.values(), np.intp, len(rows))
    final = np.full(N + l, -1)  # final[perm[i]] = i; -1 past N sends those slots to row 0
    final[perm] = cols
    offset = np.maximum(final[origin] - cols, 0)
    width = int(offset.max()) + 1
    lower = np.zeros((N, width))  # C-ordered transpose: lower.T is F-ordered
    lower.reshape(-1)[(offset + cols * width).reshape(-1)] = lu[l + u + 1 :].reshape(-1)
    return perm, lower.T, np.asfortranarray(lu[: l + u + 1])


def implicit_diffusion_solve(m: DiscreteManifold, values: np.ndarray, dt: float) -> np.ndarray:
    """Solve (I - dt * Laplacian) u_new = values, into a new array.

    One banded (or cyclic-banded) solve: on the sphere and the circle one
    dgtsv call on the matrix kept for the dt; on the radial kind dgbtrf's
    factor, solved by dgbtrs the first time and by a gather and two dtbtrs
    sweeps after that, to the same bits (_step_solver).  The manifold keeps
    one solve, for the last dt it solved at, as ``m._ops["step"] = (dt,
    solve)``: one entry, not one per dt, because a blow-up run takes a new
    dt on most steps.  It is stored only once its first solve has
    succeeded, so a dt that is not positive (backward heat flow is
    ill-posed), a non-finite right-hand side or matrix (ValueError) or a
    singular matrix (LinAlgError) leaves the entry as it was.  The radial
    solve keeps the second form of its factor in its own closure, so that
    form leaves with the entry.  Row sums of the matrix are 1, so constants
    pass through to a few ulps per solve (at dt = 0.01 on 32 nodes, 1.0
    comes out as 0.9999999999999998 on the circle and 0.9999999999999997 on
    the sphere).  A 1-D float64 array of the manifold's size is used as
    given, anything else converted as laplace_beltrami converts it.
    """
    b = values
    if not (type(b) is np.ndarray and b.dtype == np.float64 and b.shape == (m.node_count,)):
        b = _aligned_values(m, values)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must be finite")
    cached = m._ops.get("step")
    if cached is not None and cached[0] == dt:
        return cached[1](b)
    solve = _step_solver(m, dt)
    x = solve(b)
    m._ops["step"] = (dt, solve)
    return x
