"""The spatially constant reduction v' = |v|^p.

Closed forms for the one-parameter family of blow-up solutions, the lower
comparison envelope used by the ball estimate, and a small adaptive
integrator that serves as the comparison oracle for the PDE runs.  The
integrator advances each step with the exact flow of the ODE (closed form by
sign), so its error is pure roundoff; the stepping and the blow-up threshold
logic are what is actually under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# p must exceed 1 by at least this; every 1/(p-1) exponent degenerates at p = 1
P_FLOOR = 1e-9

# scalar oracle stops once |v| passes this (relative distance to the true
# blow-up time is then <= threshold^(1-p)/(p-1))
BLOW_THRESHOLD = 1e8

# adaptive step factor: dt = C_DT * |v|^(1-p) equidistributes the blow-up
# variable |v|^(1-p), which is linear in t along the trivial solution
C_DT = 0.01

_TINY = 1e-100


def validate_exponent(p: float) -> float:
    p = float(p)
    if not p > 1.0 + P_FLOOR:
        raise ValueError(f"exponent p must exceed 1 (got {p})")
    return p


@dataclass
class ScalarTrajectory:
    """Time series of a scalar quantity, e.g. min_x u along a PDE run.

    ``blowup_time`` is only set for forward blow-up; it always exceeds the
    last stored time (a backward singularity is never recorded here).
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
    [(p-1)(T_blow - t)]^(-1/(p-1)), defined for t < T_blow."""
    p = validate_exponent(p)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr >= T_blow):
        raise ValueError("trivial_ancient requires t < T_blow")
    out = ((p - 1.0) * (T_blow - t_arr)) ** (-1.0 / (p - 1.0))
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


def blowup_time_from_min(p: float, v0: float) -> float:
    """Blow-up time of v' = v^p from v(0) = v0 > 0: v0^(1-p)/(p-1).
    By comparison this also bounds the PDE blow-up time from min u0."""
    p = validate_exponent(p)
    if v0 <= 0:
        raise ValueError("v0 must be positive")
    return v0 ** (1.0 - p) / (p - 1.0)


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
    if L <= 0:
        raise ValueError("L must be positive")
    t_arr = np.asarray(t, dtype=float)
    if (t_arr < 0).any():
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
    """The blow-up cap on the step at max |v| = mag.

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


def _flat_floor(p: float) -> float:
    """The magnitude at or below which the flow leaves an entry unchanged:
    1e-100, or exp(709/(1-p)) where that is larger (p > 4.08).  Below the
    latter the exact flow moves v by a relative amount under
    (p-1) dt e^-709, and |v|^(1-p) might overflow."""
    return max(_TINY, math.exp(_LOG_POW_SAFE / (1.0 - p)))


def reaction_flow(values, p: float, dt: float):
    """Advance v' = |v|^p exactly by dt, elementwise.

    Positive entries: (v^(1-p) - (p-1) dt)^(-1/(p-1)); negative entries mirror
    with the opposite sign in the bracket.  Entries at or below
    max(1e-100, exp(709/(1-p))) in magnitude are left unchanged: their change
    is O(|v|^p dt), below their last bit, and for p > 4.08 the bound also
    keeps |v|^(1-p) from overflowing, which would flush them to zero.
    Raises if dt crosses an entry's blow-up time; callers cap dt by _dt_cap,
    which keeps the bracket positive.  The input is never written and never
    returned.
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    a = (p - 1.0) * dt
    tiny = _flat_floor(p)
    if v.size and v.min() > tiny:
        # all positive: the whole array at once, no masks and no copy (NaN
        # and sign-mixed fields take the masked path)
        out = _positive_flow(v, p, a)
    else:
        out = v.copy()
        pos = v > tiny
        neg = v < -tiny
        if pos.any():
            out[pos] = _positive_flow(v[pos], p, a)
        if neg.any():
            bracket = (-v[neg]) ** (1.0 - p) + a
            if (bracket <= 0).any():
                raise FloatingPointError("reaction step crossed a blow-down time")
            out[neg] = -(bracket ** (-1.0 / (p - 1.0)))
    if np.ndim(values) == 0:
        return float(out[0])
    return out


def _positive_flow(v, p, a):
    # (v^(1-p) - a)^(-1/(p-1)) in one new array; ** keeps numpy's
    # scalar-power fast paths, which np.power(..., out=) would not
    bracket = v ** (1.0 - p)
    bracket -= a
    if (bracket <= 0).any():
        raise FloatingPointError("reaction step crossed a blow-up time")
    bracket **= -1.0 / (p - 1.0)
    return bracket


def integrate_scalar_ode(p: float, v0: float, t_span, dt_max: float = 0.01) -> ScalarTrajectory:
    """Adaptive integration of v' = |v|^p over t_span = (t0, t1).

    Steps with the exact flow under dt = min(dt_max, _dt_cap(p, |v|)), so the
    result matches the closed form to roundoff on non-blow-up spans.  Forward
    runs stop early once |v| exceeds BLOW_THRESHOLD, or once the blow-up cap
    on dt falls below the resolution of t, and record the (then essentially
    exact) blow-up time.  Backward spans are integrated backward but stored
    with times ascending; a backward singularity stops the run without
    recording a blow-up time.  A dt_max too small to advance t is a
    ValueError.
    """
    p = validate_exponent(p)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)) or t0 == t1:
        raise ValueError("t_span must be a finite nondegenerate interval")
    span = max(abs(t0), abs(t1))
    if span + dt_max == span:
        raise ValueError(f"dt_max = {dt_max:g} is below the resolution of t on {t_span}")
    forward = t1 > t0
    sign = 1.0 if forward else -1.0

    times = [t0]
    values = [float(v0)]
    t, v = t0, float(v0)
    blowup_time = None
    singular = False
    while (t1 - t) * sign > 1e-14 * max(1.0, abs(t1)):
        mag = abs(v)
        cap = _dt_cap(p, mag)
        dt = min(dt_max, cap, (t1 - t) * sign)
        if t + sign * dt == t:  # the blow-up cap is below the resolution of t
            singular = True
            break
        try:
            v = reaction_flow(v, p, sign * dt)
        except FloatingPointError:
            break
        t = t + sign * dt
        times.append(t)
        values.append(v)
        if abs(v) > BLOW_THRESHOLD:
            singular = True
            break
    if singular and forward and v > 0:
        # remaining life of the exact solution from here (at least one ulp)
        blowup_time = max(t + v ** (1.0 - p) / (p - 1.0), math.nextafter(t, math.inf))

    times = np.asarray(times)
    values = np.asarray(values)
    if not forward:
        times = times[::-1]
        values = values[::-1]
    return ScalarTrajectory(times=times, values=values, blowup_time=blowup_time)
