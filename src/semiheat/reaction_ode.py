"""The spatially constant reduction v' = |v|^p.

Closed forms for the one-parameter family of blow-up solutions, the lower
comparison envelope used by the ball estimate, and a small adaptive
integrator that serves as the comparison oracle for the PDE runs.  The
integrator runs forward only, as evolve does, and advances each step with
the exact flow of the ODE (closed form by sign), so its error is pure
roundoff; the stepping and the blow-up threshold logic are what is actually
under test.  The exact flow itself, reaction_flow, takes either sign of dt.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import _greatest, _least

# p must exceed 1 by at least this; every 1/(p-1) exponent degenerates at p = 1
P_FLOOR = 1e-9

# the scalar oracle stops once |v| passes this, and evolve once max u does
# (relative distance to the true blow-up time is then <= threshold^(1-p)/(p-1))
BLOW_THRESHOLD = 1e8

# adaptive step factor: dt = C_DT * |v|^(1-p) equidistributes the blow-up
# variable |v|^(1-p), which is linear in t along the trivial solution
C_DT = 0.01

# largest step of the scalar oracle, and evolve's default dt_max
DT_MAX = 0.01

_TINY = 1e-100


def validate_exponent(p: float) -> float:
    p = float(p)
    if not p > 1.0 + P_FLOOR:
        raise ValueError(f"exponent p must exceed 1 (got {p})")
    return p


@dataclass
class ScalarTrajectory:
    """Time series of a scalar quantity, e.g. min_x u along a PDE run, or
    integrate_scalar_ode's forward run.

    ``blowup_time``, when set, is the time at which the series blows up; it
    always exceeds the last stored time.
    """

    times: np.ndarray
    values: np.ndarray
    blowup_time: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.size != self.values.size:
            raise ValueError("times and values must have equal length")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if self.blowup_time is not None and self.blowup_time <= self.times[-1]:
            raise ValueError("blowup_time must exceed the last stored time")


def trivial_ancient(p: float, T_blow: float, t) -> float | np.ndarray:
    """The positive solution of v' = v^p blowing up at T_blow:
    [(p-1)(T_blow - t)]^(-1/(p-1)), defined for t < T_blow.  A NaN T_blow
    or t is refused by name."""
    p = validate_exponent(p)
    t_arr = np.asarray(t, dtype=float)
    for name, value in (("T_blow", T_blow), ("t", t_arr)):
        if np.isnan(value).any():
            raise ValueError(f"{name} must not be NaN")
    if np.any(t_arr >= T_blow):
        raise ValueError("trivial_ancient requires t < T_blow")
    out = ((p - 1.0) * (T_blow - t_arr)) ** (-1.0 / (p - 1.0))
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


def _near_trivial_data(p: float, T_blow: float, t: float, eps: float, mode: np.ndarray) -> np.ndarray:
    """trivial_ancient(p, T_blow, t) * (1 + eps * mode): the near-trivial
    ancient datum at time t, with mode a discrete eigenmode, as
    evolve.ancient_approximation and the sweep's ``trivial_plus_mode``
    recipe start from it."""
    return trivial_ancient(p, T_blow, t) * (1.0 + eps * mode)


def blowup_time_from_min(p: float, v0: float) -> float:
    """Blow-up time of v' = v^p from v(0) = v0 > 0: v0^(1-p)/(p-1).
    By comparison this also bounds the PDE blow-up time from min u0.  Where
    v0^(1-p) overflows the time is inf."""
    p = validate_exponent(p)
    if not v0 > 0:
        raise ValueError(f"v0 must be positive, got {v0!r}")
    return _pow_or_inf(v0, 1.0 - p) / (p - 1.0)


def ode_lower_envelope(p: float, delta: float, L: float, t) -> float | np.ndarray:
    """First branch of the ball lower bound:
    -((1-delta)(p-1) t + L^(1-p))^(1/(1-p)), for t >= 0.

    Increasing in t, decreasing in delta (the slack factor 1-delta shrinks
    the bracket); never crosses zero.  The inputs are checked once; an
    array t is then evaluated element by element in Python floats, so every
    power is the libm pow of a scalar call (numpy's array power may differ
    from it in the last bit).  Where that pow overflows, or the bracket is
    zero (L^(1-p) underflowed, at t = 0), the value is -inf, as numpy's
    power would give.
    """
    p = validate_exponent(p)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if not L > 0:
        raise ValueError(f"L must be positive, got {L!r}")
    t_arr = np.asarray(t, dtype=float)
    if not (t_arr >= 0).all():
        raise ValueError("envelope is defined for t >= 0")
    slope = (1.0 - delta) * (p - 1.0)
    start = L ** (1.0 - p)
    power = -1.0 / (p - 1.0)
    out = [_pow_or_inf(slope * tk + start, power) for tk in t_arr.ravel().tolist()]
    if t_arr.ndim == 0:
        return -float(out[0])
    return -np.array(out).reshape(t_arr.shape)


def _pow_or_inf(x: float, y: float) -> float:
    """x ** y for x >= 0 in Python floats, with numpy's answer (inf) where
    the result overflows or x = 0 meets y < 0."""
    try:
        return x**y
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _dt_cap(p: float, mag: float) -> float:
    """The blow-up cap on the step at max |v| = mag, the one cap evolve
    (where the reaction is on) and integrate_scalar_ode both step by.

    The factor is C_DT, or 0.5/(p-1) where that is smaller (p > 51): a step
    of factor * mag^(1-p) uses the fraction factor * (p-1) of the remaining
    life mag^(1-p)/(p-1), which must stay below 1 for every p.  A field at
    or below _flat_floor(p), which reaction_flow leaves unchanged, has no
    cap (inf).
    """
    if mag > _flat_floor(p):
        return min(C_DT, 0.5 / (p - 1.0)) * mag ** (1.0 - p)
    return math.inf


# |v|^(1-p) stays below e^709 above exp(_LOG_POW_SAFE / (1 - p)), short of
# DBL_MAX = e^709.78 by far more than pow's error
_LOG_POW_SAFE = 709.0


@functools.lru_cache(maxsize=8)
def _flat_floor(p: float) -> float:
    """The magnitude at or below which the flow leaves an entry unchanged:
    1e-100, or exp(709/(1-p)) where that is larger (p > 4.08).  Below the
    latter the exact flow moves v by a relative amount under
    (p-1) dt e^-709, and |v|^(1-p) might overflow.  Kept per p: a run asks
    for it three times a step, and the bounded cache cannot grow on the
    NaN p that no two lookups share."""
    return max(_TINY, math.exp(_LOG_POW_SAFE / (1.0 - p)))


def reaction_flow(values, p: float, dt: float):
    """Advance v' = |v|^p exactly by dt, elementwise.

    Positive entries: (v^(1-p) - (p-1) dt)^(-1/(p-1)); negative entries mirror
    with the opposite sign in the bracket.  Entries at or below
    max(1e-100, exp(709/(1-p))) in magnitude are left unchanged: their change
    is O(|v|^p dt), below their last bit, and for p > 4.08 the bound also
    keeps |v|^(1-p) from overflowing, which would flush them to zero.
    Non-finite entries are left unchanged too, so a caller's finiteness
    check still sees them.  Raises if dt crosses an entry's blow-up time;
    callers cap dt by _dt_cap, which keeps the bracket positive.  The input
    is never written and never returned.
    """
    v, scalar = values, False
    if not (type(v) is np.ndarray and v.dtype == np.float64 and v.ndim == 1):
        v, scalar = np.atleast_1d(np.asarray(values, dtype=float)), np.ndim(values) == 0
    a = (p - 1.0) * dt
    tiny = _flat_floor(float(p))  # a hashable key for the cache
    out = None
    if v.size and _least(v) > tiny:
        # all positive: the whole array at once, no masks and no copy (NaN
        # and sign-mixed fields take the masked path)
        try:
            out = _positive_flow(v, p, a)
        except FloatingPointError:
            # +inf makes its bracket -a; the masked path leaves it unchanged
            if _greatest(v) < math.inf:
                raise
    if out is None:
        out = v.copy()
        pos = (v > tiny) & (v < math.inf)
        neg = (v < -tiny) & (v > -math.inf)
        if pos.any():
            out[pos] = _positive_flow(v[pos], p, a)
        if neg.any():
            bracket = (-v[neg]) ** (1.0 - p) + a
            if (bracket <= 0).any():
                raise FloatingPointError("reaction step crossed a blow-down time")
            out[neg] = -(bracket ** (-1.0 / (p - 1.0)))
    if scalar:
        return float(out[0])
    return out


def _positive_flow(v, p, a):
    # (v^(1-p) - a)^(-1/(p-1)) in one new array; ** keeps numpy's
    # scalar-power fast paths, which np.power(..., out=) would not.  The
    # callers pass p > 1 and v above _flat_floor(p), never NaN (+inf may
    # occur), so v^(1-p) is finite: the bracket holds a NaN only where a is
    # NaN, and then every entry is NaN.  So its least entry <= 0 raises
    # exactly where a test of each entry would, and is the cheaper test.
    bracket = v ** (1.0 - p)
    bracket -= a
    if _least(bracket) <= 0:
        raise FloatingPointError("reaction step crossed a blow-up time")
    bracket **= -1.0 / (p - 1.0)
    return bracket


def integrate_scalar_ode(p: float, v0: float, t_span) -> ScalarTrajectory:
    """Adaptive forward integration of v' = |v|^p over t_span = (t0, t1).

    Steps with the exact flow under dt = min(DT_MAX, _dt_cap(p, |v|)), so the
    result matches the closed form to roundoff on non-blow-up spans.  A run
    stops early once v exceeds BLOW_THRESHOLD, as evolve stops once max u
    does, or once the blow-up cap on dt falls below the resolution of t
    with v > 0, and records the (then essentially exact) blow-up time.
    Where that cap falls below the resolution of t with v <= 0 (it caps by
    |v| whatever the sign, as evolve's does, and (p, v0) = (1000, -1e6)
    meets it at once), the run is a ValueError that names the stop, as
    evolve's is a SolverAbort.  Like evolve, the oracle runs forward only:
    t1 <= t0 is a ValueError (the exact value at an earlier time t is
    reaction_flow(v0, p, t - t0)), and so is a t_span so far from 0 that
    DT_MAX does not advance t.
    """
    p = validate_exponent(p)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError(f"t_span must be a finite interval with t0 < t1, got {t_span}")
    span = max(abs(t0), abs(t1))
    if span + DT_MAX == span:
        raise ValueError(f"the step bound {DT_MAX:g} is below the resolution of t on {t_span}")

    t, v = t0, float(v0)
    times, values = [t], [v]
    blowup_time = None
    singular = False
    while t1 - t > 1e-14 * max(1.0, abs(t1)):
        dt = min(DT_MAX, _dt_cap(p, abs(v)), t1 - t)
        if t + dt == t:  # the blow-up cap is below the resolution of t
            if not v > 0:
                raise ValueError(f"step dt = {dt:g} no longer advances t = {t!r} (v = {v:g})")
            singular = True
            break
        v = reaction_flow(v, p, dt)
        t = t + dt
        times.append(t)
        values.append(v)
        if v > BLOW_THRESHOLD:
            singular = True
            break
    if singular:
        # remaining life of the exact solution from here (at least one ulp)
        blowup_time = max(t + v ** (1.0 - p) / (p - 1.0), math.nextafter(t, math.inf))
    return ScalarTrajectory(times=np.asarray(times), values=np.asarray(values), blowup_time=blowup_time)
