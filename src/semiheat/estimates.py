"""Checkers: evaluate both sides of each inequality along a trajectory.

Every checker returns an EstimateReport with the same shape: per-snapshot
LHS / structural RHS / ratio arrays, a fitted constant C_fit (the worst
ratio over the admitted window), a cap, and pass <=> C_fit <= C_cap.  The
classical constants are never assumed; the fitted value and its stability
under refinement are the contract.

Pointwise inequalities are evaluated once over the whole (snapshot x node)
block of the admitted window, not snapshot by snapshot; per-snapshot worst
points come from an argmax along the node axis.  Brackets that depend on
time alone stay scalar expressions per snapshot time, because array and
scalar powers may round differently in the last bit.

Discrete differential inequalities are tested against the scheme tolerance
tol = c1 * dt + c2 * h^2 with c1 = c2 = 10 * (max |u|)^p over the window
(first-order time error plus second-order space error, scaled by the
reaction magnitude).  The positivity check floors it, per snapshot pair, at
the roundoff of a difference quotient, ROUNDOFF_ULPS * eps * max|v| over the
longest pair's dt.

Balls B_rho(x0) are coordinate intervals around the pole (zonal), the origin
(radial), or x = 0 with wraparound (circle): the only geodesic balls
the symmetric reductions can represent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._floats import float_texts
from .evolve import Trajectory
from .geometry import (
    DiscreteManifold,
    build_manifold,
    curvature_bound,
    gradient_norm,
    laplace_beltrami,
    laplacian_spectrum,
)
from .reaction_ode import _pow_or_inf, ode_lower_envelope, validate_exponent

NONNEG_FLOOR = -1e-10  # nonnegative data may dip at most this far below zero
U_FLOOR_FACTOR = 1e-12  # u is floored at factor * D inside log(D/u)
TOL_COEFF = 10.0
ROUNDOFF_ULPS = 8.0  # one solve moves a constant by up to about 1.6 eps |v| (32 nodes)
GRAD_TOL = 1e-6  # the degenerate gradient branch's cap on max |grad u|


@dataclass(frozen=True)
class EstimateParams:
    """Window and inequality parameters; only the fields a given checker
    needs have to be set.  The curvature bound K is the trajectory
    manifold's, ``curvature_bound(traj.manifold)``."""

    D: float | None = None
    R: float | None = None
    T: float | None = None
    delta: float | None = None
    L: float | None = None
    A: float | None = None
    r0: float | None = None

    def __post_init__(self):
        # written so that NaN fails each comparison
        for name in ("D", "R", "T", "L", "A", "r0"):
            val = getattr(self, name)
            if val is not None and not val > 0:
                raise ValueError(f"{name} must be positive")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")


def _check_cap(c_cap: float):
    # a fitted constant is at least 0, so no check could pass a cap below 0
    if not c_cap >= 0:  # NaN fails it
        raise ValueError(f"c_cap must be nonnegative, got {c_cap!r}")


@dataclass
class EstimateReport:
    """Uniform record of one inequality check.

    ``times``/``lhs``/``rhs``/``ratio`` are aligned per-snapshot arrays (for
    the positivity check, per snapshot pair; for the triviality check, per
    evaluated interval).  ``passed`` is computed: c_fit <= c_cap.  A c_fit
    below 0, or a c_cap below 0 or NaN, is a ValueError.
    """

    # first line of every entry CSV, without its newline; one row per
    # snapshot follows
    _CSV_HEADER = b"t,lhs,structural_rhs,ratio"

    inequality_id: str
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    c_fit: float
    c_cap: float
    diagnostics: dict = field(default_factory=dict)
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.c_fit < 0:
            raise ValueError("fitted constant must be nonnegative")
        _check_cap(self.c_cap)
        self.passed = bool(self.c_fit <= self.c_cap)

    def to_json_dict(self) -> dict:
        """The check's scalars, JSON-ready; the per-snapshot arrays are
        written through ``csv_rows``."""

        def clean(x):
            # JSON has no infinity: +-inf becomes "inf"/"-inf", from numpy too
            if isinstance(x, (np.ndarray, np.generic)):
                x = x.tolist()
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [clean(v) for v in x]
            if isinstance(x, float) and math.isinf(x):
                return "inf" if x > 0 else "-inf"
            return x

        return {
            "inequality_id": self.inequality_id,
            "c_fit": clean(float(self.c_fit)),
            "c_cap": clean(float(self.c_cap)),
            "passed": self.passed,
            "diagnostics": clean(self.diagnostics),
        }

    def _csv_bytes(self) -> bytes:
        """The entry CSV: the header, then ``t,lhs,rhs,ratio`` per snapshot,
        each the ``repr`` of the float.  Each column is formatted by one
        _floats.float_texts call: orjson's text where 1e-4 <= |v| < 1e16
        and at zero, ``repr`` elsewhere."""
        columns = (float_texts(x) for x in (self.times, self.lhs, self.rhs, self.ratio))
        return b"\n".join((self._CSV_HEADER, *map(b",".join, zip(*columns)), b""))

    def csv_rows(self):
        """``[t, lhs, rhs, ratio]`` per snapshot as texts, one list per row
        of the entry CSV (_csv_bytes)."""
        return (line.split(",") for line in self._csv_bytes().decode().split("\n")[1:-1])


def _finalize(**kw) -> EstimateReport:
    # the checkers' c_fit as a float clamped at 0, c_cap as a float
    c_fit = float(kw.pop("c_fit"))
    if math.isnan(c_fit):
        # max(0.0, nan) is 0.0, which would read as a pass
        raise ValueError("fitted constant is NaN")
    return EstimateReport(c_fit=max(0.0, c_fit), c_cap=float(kw.pop("c_cap")), **kw)


def scheme_tolerance(
    traj: Trajectory, p: float, dt: float | np.ndarray | None = None
) -> float | np.ndarray:
    """tol = 10 (max|u|)^p (dt + h^2), with dt the largest step unless given;
    an array of steps gives one tolerance per step."""
    mag = float(np.max(np.abs(traj.snapshots)))
    if dt is None:
        dt = float(np.max(traj.step_dt)) if traj.step_dt.size else 0.0
    h = traj.manifold.spacing
    return TOL_COEFF * mag**p * (dt + h * h)


def ball_mask(m: DiscreteManifold, radius: float) -> np.ndarray:
    """Nodes within geodesic distance ``radius`` of the base point (pole,
    origin, or x = 0 with wraparound)."""
    if m.kind == "sphere_zonal":
        dist, limit = m.nodes * m.radius_or_length, math.pi * m.radius_or_length
    elif m.kind == "circle":
        dist, limit = np.minimum(m.nodes, m.radius_or_length - m.nodes), 0.5 * m.radius_or_length
    else:
        dist, limit = m.nodes, m.radius_or_length
    if radius > limit + 1e-12:
        raise ValueError("ball exceeds the manifold diameter")
    return dist <= radius + 1e-12


def _exponent_gate(n: int, p: float):
    # literal hypothesis window 1 < p < n(n+2)/(n-1)^2; the bound is infinite
    # in the one-dimensional reduction
    if n >= 2:
        threshold = n * (n + 2) / (n - 1) ** 2
        if p >= threshold:
            raise ValueError(f"p = {p:g} outside the hypothesis window 1 < p < {threshold:g} for n = {n}")


# ---------------------------------------------------------------------------
# positivity / minimum ODE comparison


def check_positivity_min_ode(traj: Trajectory, p: float) -> EstimateReport:
    """v(t) = min_x u must satisfy the discrete version of v' >= |v|^p, and
    nonnegative data must stay above NONNEG_FLOOR.

    The per-pair violation is measured against the scheme tolerance with that
    pair's own dt, or against the roundoff of a difference quotient over the
    longest pair where that is larger (tiny data at large p, whose tolerance
    underflows); C_fit is the worst violation-to-tolerance ratio (folding in
    the negativity excess for nonnegative data), so C_cap = 1.
    """
    p = validate_exponent(p)
    if traj.times.size < 3:
        raise ValueError("need at least three snapshots")
    v = traj.snapshot_min
    t = traj.times
    dts = np.diff(t)
    # a solve moves v by a few ulps; divided by the longest pair's dt that
    # floors a tolerance that underflows (tiny data at large p).  Divided by
    # each pair's own dt it would also bind at the short final step to the
    # horizon (2e-13 on the benchmark's ancient runs) and move their c_fit
    size = np.abs(v)
    roundoff = np.maximum(size[:-1], size[1:]) * (ROUNDOFF_ULPS * sys.float_info.epsilon / float(dts.max()))
    tol = np.maximum(scheme_tolerance(traj, p, dts), roundoff)

    rate = np.diff(v) / dts
    required = np.abs(v[:-1]) ** p
    violation = required - rate
    ratio = violation / np.maximum(tol, 1e-300)  # identically zero data has tol 0

    nonneg_data = bool(v[0] >= 0.0)
    min_over_window = float(np.min(v))
    c_fit = float(np.max(ratio))
    if nonneg_data:
        c_fit = max(c_fit, min_over_window / NONNEG_FLOOR)

    worst_idx = int(np.argmax(ratio))
    return _finalize(
        inequality_id="min_ode_comparison",
        times=t[:-1],
        lhs=violation,
        rhs=tol,
        ratio=ratio,
        c_fit=c_fit,
        c_cap=1.0,
        diagnostics={
            "min_over_window": min_over_window,
            "nonnegative_data": nonneg_data,
            "worst_pair_time": float(t[worst_idx]),
            "worst_violation": float(violation[worst_idx]),
        },
    )


# ---------------------------------------------------------------------------
# gradient estimate

# gradient variants and the window fields each requires
_GRADIENT_VARIANTS = {"local": ("R", "T"), "global": ("T",), "ancient": ()}


def check_gradient_estimate(
    traj: Trajectory,
    params: EstimateParams,
    variant: str,
    p: float,
    c_cap: float = math.inf,
) -> EstimateReport:
    """Pointwise ratio of |grad u| / u against S * (1 + log(D / u)).

    The structural factor is
        S = 1/R + 1/sqrt(T) + sqrt((p D^(p-1) - (n-1) K)+)   (local)
        S =       1/sqrt(T) + sqrt((p D^(p-1) - (n-1) K)+)   (global)
        S =                   sqrt((p D^(p-1) - (n-1) K)+)   (ancient)
    with K = curvature_bound(traj.manifold), evaluated over the shrunken
    window: inner half-ball over the last quarter of [t_end - T, t_end]
    (local), last quarter of that window over all nodes (global), or every
    stored snapshot (ancient), where t_end is the last snapshot time (slice
    the trajectory to end earlier).  D must bound u on the full window.
    When the ancient variant degenerates
    (p D^(p-1) <= (n-1) K, so S = 0) the check instead asserts
    max |grad u| <= GRAD_TOL.
    """
    p = validate_exponent(p)
    if not isinstance(variant, str) or variant not in _GRADIENT_VARIANTS:
        raise ValueError(f"unknown gradient variant {variant!r}")
    m = traj.manifold
    if np.any(traj.snapshots <= 0):
        raise ValueError("gradient check requires strictly positive snapshots")
    if params.D is None:
        raise ValueError("gradient check requires the sup bound D")
    D = params.D
    K = curvature_bound(m)
    n = m.n

    full_time, sub_time, full_nodes, sub_nodes = _gradient_windows(traj, params, variant)
    window_max = float(np.max(traj.snapshots[full_time][:, full_nodes]))
    if window_max > D * (1.0 + 1e-12):
        raise ValueError(f"D = {D:g} is below the window maximum {window_max:g}")

    base = p * D ** (p - 1.0) - (n - 1) * K
    degenerate = variant == "ancient" and base <= 0.0
    S = 0.0 if base <= 0.0 else math.sqrt(base)
    if variant == "local":
        S = 1.0 / params.R + 1.0 / math.sqrt(params.T) + S
    elif variant == "global":
        S = 1.0 / math.sqrt(params.T) + S

    # (snapshot x node) blocks over the sub-window, built in place
    u = traj.snapshots[sub_time]
    lhs = gradient_norm(m, u)
    if degenerate:
        point_ratio = lhs[:, sub_nodes]
    else:
        lhs /= u
        rhs = np.maximum(u, U_FLOOR_FACTOR * D)
        np.divide(D, rhs, out=rhs)
        np.log(rhs, out=rhs)
        rhs += 1.0
        rhs *= S
        point_ratio = lhs[:, sub_nodes] / rhs[:, sub_nodes]
    rows = np.arange(u.shape[0])
    j = np.argmax(point_ratio, axis=1)
    nodes = np.arange(m.node_count)[sub_nodes][j]
    lhs_out = lhs[rows, nodes]
    if degenerate:
        rhs_out = np.full(rows.size, GRAD_TOL)
        ratio_out = lhs_out / GRAD_TOL
        score = lhs_out
    else:
        rhs_out = rhs[rows, nodes]
        ratio_out = point_ratio[rows, j]
        score = ratio_out
    k_best = int(np.argmax(score))

    times_out = traj.times[sub_time]
    return _finalize(
        inequality_id="gradient_log_bound",
        times=times_out,
        lhs=lhs_out,
        rhs=rhs_out,
        ratio=ratio_out,
        c_fit=score[k_best],
        c_cap=GRAD_TOL if degenerate else c_cap,
        diagnostics={
            "variant": variant,
            "degenerate": degenerate,
            "structural_factor": S,
            "curvature_term": base,
            "max_time": float(times_out[k_best]),
            "max_node": int(nodes[k_best]),
            "window_max_u": window_max,
        },
    )


def _gradient_windows(traj: Trajectory, params: EstimateParams, variant: str):
    """(full_time, sub_time, full_nodes, sub_nodes): time windows as slices
    (the snapshot times increase) ending at the last snapshot, node sets as
    slices or ball masks."""
    required = _GRADIENT_VARIANTS[variant]
    if any(getattr(params, key) is None for key in required):
        raise ValueError(f"{variant} variant requires {' and '.join(required)}")
    t = traj.times
    full_nodes = sub_nodes = slice(None)
    if variant == "ancient":
        full_time = sub_time = slice(0, t.size)
    else:
        if variant == "local":
            full_nodes = ball_mask(traj.manifold, params.R)
            sub_nodes = ball_mask(traj.manifold, params.R / 2.0)
        end = float(t[-1])
        full_time = slice(int(np.searchsorted(t, end - params.T - 1e-12)), t.size)
        sub_time = slice(int(np.searchsorted(t, end - params.T / 4.0 - 1e-12)), t.size)
    return full_time, sub_time, full_nodes, sub_nodes


# ---------------------------------------------------------------------------
# decay and universal bounds


def check_decay(traj: Trajectory, T_blow: float, p: float, c_cap: float = math.inf) -> EstimateReport:
    """C_fit = max over snapshots of (max_x u) * (T_blow - t)^(1/(p-1)).

    Also reports (as a diagnostic, not a gate) whether max_x u vanishes
    backward along the stored window.  The hypothesis window
    1 < p < n(n+2)/(n-1)^2 is enforced for n >= 2.
    """
    p = validate_exponent(p)
    _exponent_gate(traj.manifold.n, p)
    t = traj.times
    if np.any(t >= T_blow):
        raise ValueError("all snapshots must lie strictly before T_blow")
    mx = traj.snapshot_max
    rhs = (T_blow - t) ** (-1.0 / (p - 1.0))
    if rhs.min() == 0:
        raise ValueError(f"the decay bound (T_blow - t)^(-1/(p-1)) underflows to 0 at p = {p!r}")
    ratio = mx / rhs
    c_fit = float(np.max(ratio))
    first, last = float(mx[0]), float(mx[-1])
    return _finalize(
        inequality_id="decay_envelope",
        times=t,
        lhs=mx,
        rhs=rhs,
        ratio=ratio,
        c_fit=c_fit,
        c_cap=c_cap,
        diagnostics={
            "backward_vanishing": bool(first <= 0.1 * last),
            "first_to_last_max_ratio": first / last if last > 0 else math.inf,
            "max_time": float(t[int(np.argmax(ratio))]),
        },
    )


def check_universal(
    traj: Trajectory, T0: float, T: float, p: float, c_cap: float = math.inf
) -> EstimateReport:
    """C_fit = max over (x, t) of
    [u + |grad u|^(2/(p+1))] / [|t - T0|^(-1/(p-1)) + |T - t|^(-1/(p-1))]
    on a window (T0, T) containing all snapshots strictly."""
    p = validate_exponent(p)
    _exponent_gate(traj.manifold.n, p)
    t = traj.times
    if np.any(t <= T0) or np.any(t >= T):
        raise ValueError("all snapshots must lie strictly inside (T0, T)")
    num = gradient_norm(traj.manifold, traj.snapshots)
    num **= 2.0 / (p + 1.0)
    num += traj.snapshots
    lhs = num[np.arange(t.size), np.argmax(num, axis=1)]
    # the time-only bracket stays a scalar expression per snapshot time, in
    # Python floats: libm pow, which numpy's array power may differ from
    power = -1.0 / (p - 1.0)
    rhs = np.array([_pow_or_inf(abs(tk - T0), power) + _pow_or_inf(abs(T - tk), power) for tk in t.tolist()])
    if rhs.min() == 0:
        raise ValueError(f"the universal bound |t - T0|^(-1/(p-1)) + |T - t|^(-1/(p-1)) underflows to 0 at p = {p!r}")
    ratio = lhs / rhs
    return _finalize(
        inequality_id="universal_spacetime_bound",
        times=t,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        c_fit=float(np.max(ratio)),
        c_cap=c_cap,
        diagnostics={"max_time": float(t[int(np.argmax(ratio))])},
    )


# ---------------------------------------------------------------------------
# ball lower bound


def lemma_admissibility_min(n: int, T: float, r0: float, K: float) -> float:
    """Smallest admissible ball-scale factor:
    4 + 2(n-1) T / r0^2 + 2(n-1) T sqrt(K) / r0."""
    return 4.0 + 2.0 * (n - 1) * T / r0**2 + 2.0 * (n - 1) * T * math.sqrt(K) / r0


def _lemma_balls(m: DiscreteManifold, params: EstimateParams, T: float | None):
    """(outer, a_min): the ball_mask of B_{A r0} and the admissibility
    minimum of A for a window of length T (None where T is None).  The
    lemma's preconditions that need no trajectory: ValueError where A is
    below that minimum or m cannot hold the ball."""
    a_min = None
    if T is not None:
        a_min = lemma_admissibility_min(m.n, T, params.r0, curvature_bound(m))
        if params.A < a_min - 1e-12:
            raise ValueError(f"A = {params.A:g} is below the admissibility minimum {a_min:g}")
    return ball_mask(m, params.A * params.r0), a_min


def check_lower_bound_lemma(
    traj: Trajectory, params: EstimateParams, C_delta_cap: float, p: float
) -> EstimateReport:
    """On the inner quarter ball B_{A r0 / 4}, u must stay above
    min(envelope(t - t_start), -C_delta_cap / (A r0)^(2/(p-1))) - tol
    at every stored time.

    Preconditions checked, not assumed: u >= -L on B_{A r0} at the window
    start, and A at least the admissibility minimum (the error message
    carries the required value).  The ratio column carries the pointwise
    margin u_min - bound; C_fit is the clamped worst bound excess, so with
    C_cap = 0 the check passes exactly when the worst margin is nonnegative.
    """
    p = validate_exponent(p)
    if params.delta is None or params.L is None or params.A is None or params.r0 is None:
        raise ValueError("lower-bound check requires delta, L, A, r0")
    m = traj.manifold
    t = traj.times
    T = params.T if params.T is not None else float(t[-1] - t[0])
    if T <= 0:
        raise ValueError("window length must be positive")
    outer, a_min = _lemma_balls(m, params, T)
    inner = ball_mask(m, params.A * params.r0 / 4.0)
    start_min = float(np.min(traj.snapshots[0][outer]))
    if start_min < -params.L - 1e-12:
        raise ValueError(
            f"initial data reaches {start_min:g} on the outer ball, below -L = {-params.L:g}"
        )

    tol = scheme_tolerance(traj, p)
    cap_branch = -C_delta_cap / (params.A * params.r0) ** (2.0 / (p - 1.0))
    t0 = float(t[0])
    u_min = np.min(traj.snapshots, axis=1, where=inner, initial=np.inf)
    envelope = ode_lower_envelope(p, params.delta, params.L, t - t0)
    bound = np.minimum(envelope, cap_branch) - tol
    margin = u_min - bound
    worst = int(np.argmin(margin))
    return _finalize(
        inequality_id="ball_lower_bound",
        times=t,
        lhs=u_min,
        rhs=bound,
        ratio=margin,
        c_fit=-float(margin[worst]),
        c_cap=0.0,
        diagnostics={
            "worst_margin": float(margin[worst]),
            "worst_time": float(t[worst]),
            "admissibility_min": a_min,
            "second_branch_bound": cap_branch,
            "scheme_tol": tol,
            "start_min_outer_ball": start_min,
        },
    )


# ---------------------------------------------------------------------------
# triviality mechanism


# an interval whose oscillation starts at or below this passes outright
_OSC_FLOOR = 1e-10


def _check_positive_ricci(m: DiscreteManifold):
    """The triviality check's rule on its manifold: a positive Ricci lower
    bound, which the circle and the radial kind lack."""
    if m.ricci_lower <= 0:
        raise ValueError("triviality check requires a positive Ricci lower bound")


def check_triviality(
    traj: Trajectory,
    m: DiscreteManifold,
    p: float,
    c_cap: float = 1.2,
) -> EstimateReport:
    """Oscillation-decay test behind the triviality threshold
    Theta = ((n-1) K / p)^(1/(p-1)).

    The stored window is cut into unit time intervals (a partial tail
    shorter than 0.5 is dropped).  On every interval whose running maximum
    stays at or below Theta, the oscillation contraction factor
    osc(t2)/osc(t1) must not exceed exp(-(lambda1 - p max_u^(p-1)) dt),
    with lambda1 the first nonzero Laplacian eigenvalue and max_u the
    interval maximum (the most conservative linearization on the interval).
    The default c_cap of 1.2 allows a ratio 20 % above that factor;
    intervals whose oscillation starts at or below 1e-10 pass outright,
    flat data among them.  Verdict "trivial-limit" iff every evaluated
    interval passed.  An ``m`` whose kind, n, size or node count is not the
    trajectory's is a ValueError: lambda1 and Theta would be another
    manifold's.  So is an ``m`` without a positive Ricci lower bound, the
    circle and the radial kind; a complete manifold with one is compact
    (Bonnet-Myers).
    """
    p = validate_exponent(p)
    if any(getattr(m, key) != getattr(traj.manifold, key) for key in ("kind", "n", "radius_or_length", "node_count")):
        raise ValueError("triviality check needs the trajectory's manifold: kind, n, size or node count differ")
    _check_positive_ricci(m)
    K = curvature_bound(m)
    theta = ((m.n - 1) * K / p) ** (1.0 / (p - 1.0))
    evals, _ = laplacian_spectrum(m)
    lambda1 = float(evals[1])

    t = traj.times
    mx = traj.snapshot_max
    osc = mx - traj.snapshot_min

    times_out, lhs_out, rhs_out, ratio_out = [], [], [], []
    skipped_above = 0
    a = float(t[0])
    while a < float(t[-1]) - 1e-12:
        b = min(a + 1.0, float(t[-1]))
        if b - a < 0.5:
            break
        i0 = int(np.searchsorted(t, a - 1e-12, side="left"))
        i1 = int(np.searchsorted(t, b + 1e-12, side="right")) - 1
        a = b
        if i1 <= i0:
            continue
        dt = float(t[i1] - t[i0])
        mxbar = float(np.max(mx[i0 : i1 + 1]))
        if mxbar > theta + 1e-12:
            skipped_above += 1
            continue
        factor_allowed = math.exp(-(lambda1 - p * max(mxbar, 0.0) ** (p - 1.0)) * dt)
        if osc[i0] <= _OSC_FLOOR:  # floored: the end oscillation, which passes
            lhs, ratio = float(osc[i1]), 0.0
        else:
            lhs = float(osc[i1] / osc[i0])
            ratio = lhs / factor_allowed
        times_out.append(float(t[i0]))
        lhs_out.append(lhs)
        rhs_out.append(factor_allowed)
        ratio_out.append(ratio)

    c_fit = max(ratio_out) if ratio_out else 0.0
    report = _finalize(
        inequality_id="oscillation_linearized_decay",
        times=np.asarray(times_out),
        lhs=np.asarray(lhs_out),
        rhs=np.asarray(rhs_out),
        ratio=np.asarray(ratio_out),
        c_fit=c_fit,
        c_cap=c_cap,
        diagnostics={
            "threshold": theta,
            "lambda1": lambda1,
            "intervals_evaluated": len(ratio_out),
            "intervals_above_threshold": skipped_above,
            "max_background": float(np.max(mx)),
        },
    )
    report.diagnostics["verdict"] = "trivial-limit" if report.passed else "nontrivial"
    return report


# ---------------------------------------------------------------------------
# static solution residual and exponent thresholds


def _talenti_profile(m: DiscreteManifold) -> np.ndarray:
    """The static profile (n(n-2) / (n(n-2) + r^2))^((n-2)/2) at m's nodes;
    ValueError unless m is of the radial kind with n >= 3."""
    if m.kind != "euclidean_radial" or m.n < 3:
        raise ValueError("the static profile needs the euclidean_radial kind with n >= 3")
    c = float(m.n * (m.n - 2))
    return (c / (c + m.nodes**2)) ** ((m.n - 2) / 2.0)


def talenti_residual(n: int, grid_count: int, R_max: float) -> float:
    """Max interior residual of the static profile
    u(r) = (n(n-2) / (n(n-2) + r^2))^((n-2)/2)
    under Delta u + u^((n+2)/(n-2)) on the radial model."""
    m = build_manifold("euclidean_radial", n=n, radius_or_length=R_max, node_count=grid_count)
    u = _talenti_profile(m)
    residual = laplace_beltrami(m, u) + u ** ((n + 2) / (n - 2))
    return float(np.max(np.abs(residual[1:-1])))


def exponent_regime(n: int, p: float) -> str:
    """Classify p against n(n+2)/(n-1)^2 and the Sobolev exponent
    (n+2)/(n-2).  Both thresholds are infinite for n = 1; for n = 2 only the
    Sobolev exponent is, and n(n+2)/(n-1)^2 = 8, which _exponent_gate
    enforces, while the label stays low_dimension_all_subcritical."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    p = validate_exponent(p)
    if n <= 2:
        return "low_dimension_all_subcritical"
    gap_threshold = n * (n + 2) / (n - 1) ** 2
    sobolev = (n + 2) / (n - 2)
    if p < gap_threshold:
        return "below_threshold"
    if p < sobolev:
        return "open_gap"
    return "sobolev_critical_or_above"
