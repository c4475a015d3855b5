import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiheat import (
    blowup_time_from_min,
    integrate_scalar_ode,
    ode_lower_envelope,
    reaction_flow,
    trivial_ancient,
    validate_exponent,
)
from semiheat.reaction_ode import BLOW_THRESHOLD, _dt_cap, _flat_floor, _positive_flow


def closed_form(p, v0, t):
    # signed solution of v' = |v|^p from v(0) = v0
    if v0 > 0:
        return (v0 ** (1 - p) - (p - 1) * t) ** (-1 / (p - 1))
    return -((-v0) ** (1 - p) + (p - 1) * t) ** (-1 / (p - 1))


def test_validate_exponent():
    assert validate_exponent(2.0) == 2.0
    with pytest.raises(ValueError):
        validate_exponent(1.0)
    with pytest.raises(ValueError):
        validate_exponent(1.0 + 1e-10)


def test_trivial_ancient_values():
    assert trivial_ancient(2.0, 0.0, -1.0) == pytest.approx(1.0)
    assert trivial_ancient(3.0, 0.0, -2.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        trivial_ancient(2.0, 0.0, 0.0)


def test_trivial_ancient_solves_the_ode():
    h = 1e-6
    deriv = (trivial_ancient(2.0, 0.0, -1.0 + h) - trivial_ancient(2.0, 0.0, -1.0 - h)) / (2 * h)
    assert deriv == pytest.approx(trivial_ancient(2.0, 0.0, -1.0) ** 2, abs=1e-6)


def test_trivial_ancient_monotone_and_identity():
    for p in (1.5, 2.0, 3.0):
        ts = np.linspace(-9.0, -0.5, 40)
        vals = trivial_ancient(p, 0.0, ts)
        assert np.all(np.diff(vals) > 0)
        ident = vals * ((p - 1) * (0.0 - ts)) ** (1.0 / (p - 1.0))
        assert np.max(np.abs(ident - 1.0)) <= 1e-12


def test_blowup_time_from_min():
    assert blowup_time_from_min(2.0, 1.0) == pytest.approx(1.0)
    assert blowup_time_from_min(2.0, 2.0) == pytest.approx(0.5)
    assert blowup_time_from_min(3.0, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        blowup_time_from_min(2.0, 0.0)


def test_ode_lower_envelope_values():
    assert ode_lower_envelope(2.0, 0.5, 1.0, 1.0) == pytest.approx(-2.0 / 3.0)
    assert ode_lower_envelope(2.0, 0.5, 1.0, 0.0) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        ode_lower_envelope(2.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ode_lower_envelope(2.0, 1.0, 1.0, 1.0)


def test_ode_lower_envelope_monotonicity():
    ts = np.linspace(0.0, 5.0, 30)
    vals = ode_lower_envelope(2.0, 0.3, 1.5, ts)
    assert np.all(vals < 0.0)
    assert np.all(np.diff(vals) > 0)
    # larger delta weakens the bound: envelope decreases in delta
    assert ode_lower_envelope(2.0, 0.8, 1.5, 2.0) < ode_lower_envelope(2.0, 0.2, 1.5, 2.0)
    # and stays below the exact scalar solution -L/(1 + L t) for p = 2
    for delta in (0.1, 0.5, 0.9):
        env = ode_lower_envelope(2.0, delta, 1.0, ts[1:])
        exact = -1.0 / (1.0 + ts[1:])
        assert np.all(env <= exact)


def old_envelope(p, delta, L, t):
    """The envelope as one scalar call computed it before: numpy-scalar
    arithmetic on a 0-d t."""
    bracket = (1.0 - delta) * (p - 1.0) * np.asarray(t, dtype=float) + L ** (1.0 - p)
    return float(-(bracket ** (-1.0 / (p - 1.0))))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    p=st.floats(1.05, 12.0),
    delta=st.floats(0.01, 0.99),
    L=st.floats(0.01, 100.0),
    count=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_ode_lower_envelope_array_is_its_scalar_calls(p, delta, L, count, seed):
    t = np.sort(np.random.default_rng(seed).uniform(0.0, 10.0, count))
    got = ode_lower_envelope(p, delta, L, t)
    assert isinstance(got, np.ndarray) and got.shape == t.shape
    # bit for bit, with libm pow per element (numpy's array power can differ
    # in the last bit)
    assert np.array_equal(got, [ode_lower_envelope(p, delta, L, tk) for tk in t])
    assert np.array_equal(got, [old_envelope(p, delta, L, tk) for tk in t])
    assert np.array_equal(ode_lower_envelope(p, delta, L, t.reshape(1, -1)), got.reshape(1, -1))


def test_ode_lower_envelope_scalar_types():
    for t in (0.5, np.float64(0.5), np.array(0.5), 1):
        got = ode_lower_envelope(2.7, 0.3, 1.5, t)
        assert type(got) is float
        assert got == old_envelope(2.7, 0.3, 1.5, t)


def test_ode_lower_envelope_refusals():
    for t in (1.0, np.array([0.0, 1.0])):
        for delta in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="delta must lie strictly between 0 and 1"):
                ode_lower_envelope(2.0, delta, 1.0, t)
        for L in (0.0, -1.0):
            with pytest.raises(ValueError, match="L must be positive"):
                ode_lower_envelope(2.0, 0.5, L, t)
        with pytest.raises(ValueError, match="exponent p must exceed 1"):
            ode_lower_envelope(1.0, 0.5, 1.0, t)
    for t in (-1e-300, np.array([0.0, 1.0, -2.0])):
        with pytest.raises(ValueError, match="envelope is defined for t >= 0"):
            ode_lower_envelope(2.0, 0.5, 1.0, t)


def test_ode_lower_envelope_overflow_is_minus_inf():
    # L^(1-p) underflows to zero at L = 1e200, p = 3: at t = 0 the bracket
    # is zero and the value -inf, as numpy's power gives
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ode_lower_envelope(3.0, 0.5, 1e200, np.array([0.0, 1.0]))
    assert got[0] == -math.inf
    assert got[1] == old_envelope(3.0, 0.5, 1e200, 1.0)


def test_reaction_flow_matches_closed_form():
    for p in (1.5, 2.0, 3.0):
        for v0 in (-2.0, -0.5, 0.0, 0.5, 2.0):
            out = reaction_flow(np.array([v0]), p, 0.01)[0]
            if v0 == 0.0:
                assert out == 0.0
            else:
                assert out == pytest.approx(closed_form(p, v0, 0.01), rel=1e-12)


def test_reaction_flow_leaves_non_finite_entries_of_a_mixed_field():
    # -inf used to come out as the finite -((p-1) dt)^(-1/(p-1)) = -100
    out = reaction_flow(np.array([-np.inf, 1.0, np.inf, -1.0, np.nan]), 2.0, 0.01)
    assert out[0] == -np.inf and out[2] == np.inf and np.isnan(out[4])
    assert out[1] == pytest.approx(closed_form(2.0, 1.0, 0.01), rel=1e-15)
    assert out[3] == pytest.approx(closed_form(2.0, -1.0, 0.01), rel=1e-15)


def test_reaction_flow_leaves_inf_in_a_positive_field():
    # +inf is left for the caller's finiteness check, not reported as a
    # crossed blow-up time; a real crossing beside it still raises
    out = reaction_flow(np.array([1.0, np.inf]), 2.0, 0.01)
    assert out[1] == np.inf
    assert out[0] == pytest.approx(closed_form(2.0, 1.0, 0.01), rel=1e-15)
    with pytest.raises(FloatingPointError, match="blow-up time"):
        reaction_flow(np.array([10.0, np.inf]), 2.0, 1.0)


def test_reaction_flow_signals_blowup_inside_step():
    with pytest.raises(FloatingPointError):
        reaction_flow(np.array([10.0]), 2.0, 1.0)  # blow-up time 0.1 < dt


def masked_reaction_flow(values, p, dt):
    """Reference flow: each sign branch on its own masked entries."""
    v = np.atleast_1d(np.asarray(values, dtype=float)).copy()
    a = (p - 1.0) * dt
    pos = v > 1e-100
    neg = v < -1e-100
    if np.any(pos):
        bracket = v[pos] ** (1.0 - p) - a
        if np.any(bracket <= 0):
            raise FloatingPointError("reaction step crossed a blow-up time")
        v[pos] = bracket ** (-1.0 / (p - 1.0))
    if np.any(neg):
        bracket = (-v[neg]) ** (1.0 - p) + a
        if np.any(bracket <= 0):
            raise FloatingPointError("reaction step crossed a blow-down time")
        v[neg] = -(bracket ** (-1.0 / (p - 1.0)))
    return v


def _flow_or_error(flow, values, p, dt):
    try:
        return flow(values, p, dt)
    except FloatingPointError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(
    count=st.integers(1, 300),
    p=st.floats(1.05, 12.0),
    log_dt=st.floats(-8.0, 0.0),
    shape=st.sampled_from(["positive", "mixed", "negative", "tiny", "nan"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reaction_flow_matches_masked_reference(count, p, log_dt, shape, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.01, 3.0, count) * 10.0 ** rng.uniform(-2, 2)
    if shape == "mixed":
        v *= rng.choice([-1.0, 1.0], count)
    elif shape == "negative":
        v = -v
    elif shape == "tiny":
        v[rng.integers(count)] = 1e-101
    elif shape == "nan":
        v[rng.integers(count)] = np.nan
    before = v.copy()
    got = _flow_or_error(reaction_flow, v, p, 10.0**log_dt)
    want = _flow_or_error(masked_reaction_flow, v, p, 10.0**log_dt)
    assert np.array_equal(v, before, equal_nan=True)  # the input is never written
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got, want, equal_nan=True)


def test_reaction_flow_keeps_scalars_scalar():
    assert reaction_flow(0.5, 2.0, 0.1) == masked_reaction_flow(0.5, 2.0, 0.1)[0]
    assert isinstance(reaction_flow(0.5, 2.0, 0.1), float)
    assert reaction_flow(np.empty(0), 2.0, 0.1).size == 0


def test_integrate_forward_positive():
    traj = integrate_scalar_ode(2.0, 1.0, (0.0, 0.9))
    assert traj.values[-1] == pytest.approx(10.0, abs=1e-6)
    assert traj.blowup_time is None


def test_integrate_forward_negative():
    traj = integrate_scalar_ode(2.0, -1.0, (0.0, 1.0))
    assert traj.values[-1] == pytest.approx(-0.5, abs=1e-6)


def test_integrate_backward_negative_blowdown():
    traj = integrate_scalar_ode(2.0, -1.0, (0.0, -0.9))
    assert np.all(np.diff(traj.times) > 0)
    assert traj.values[0] == pytest.approx(-10.0, abs=1e-4)


def test_integrate_records_blowup_time():
    traj = integrate_scalar_ode(2.0, 1.0, (0.0, 5.0))
    assert traj.blowup_time is not None
    assert traj.blowup_time == pytest.approx(1.0, abs=1e-6)
    assert traj.blowup_time > traj.times[-1]


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0, 60.0, 101.0, 150.0, 1000.0])
def test_integrate_records_blowup_below_time_resolution(p):
    # the step cap falls below ulp(t) before |v| reaches the threshold; at
    # p = 60 the remaining life is below ulp(t) as well.  From p = 101 on a
    # step of C_DT |v|^(1-p) would use up the whole remaining life
    traj = integrate_scalar_ode(p, 1.0, (0.0, 10.0))
    assert traj.blowup_time == pytest.approx(blowup_time_from_min(p, 1.0), abs=1e-3)
    assert traj.blowup_time > traj.times[-1]
    assert traj.values[-1] < BLOW_THRESHOLD


def test_integrate_refuses_a_span_its_step_cannot_advance():
    # far from 0 a step of DT_MAX leaves t unchanged; the loop would stop at
    # once and record a blow-up at t0 of data that is nowhere near one
    with pytest.raises(ValueError, match=r"^the step bound 0.01 is below the resolution of t on \(1e\+20, 2e\+20\)$"):
        integrate_scalar_ode(2.0, 0.5, (1e20, 2e20))


@pytest.mark.parametrize("t_span", [(0.0, 0.0), (0.0, float("inf")), (float("nan"), 1.0)])
def test_integrate_refuses_a_t_span_that_is_not_a_finite_interval(t_span):
    with pytest.raises(ValueError, match="t_span must be a finite nondegenerate interval"):
        integrate_scalar_ode(2.0, 0.5, t_span)


def test_integrate_reproduces_trivial_ancient():
    for p in (1.5, 2.0, 3.0):
        v0 = trivial_ancient(p, 0.0, -3.0)
        traj = integrate_scalar_ode(p, v0, (-3.0, -0.5))
        ref = trivial_ancient(p, 0.0, traj.times)
        rel = np.max(np.abs(traj.values - ref) / ref)
        assert rel <= 1e-7


def test_relative_error_contract_on_non_blowup_span():
    for p, v0 in [(1.5, 0.5), (2.0, 2.0), (3.0, 1.0)]:
        t_end = 0.5 * blowup_time_from_min(p, v0)
        traj = integrate_scalar_ode(p, v0, (0.0, t_end))
        ref = np.array([closed_form(p, v0, t) for t in traj.times])
        assert np.max(np.abs(traj.values - ref) / np.abs(ref)) <= 1e-8


def test_scalar_trajectory_invariants():
    traj = integrate_scalar_ode(2.0, 1.0, (0.0, 0.5))
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(np.isfinite(traj.values))
    assert math.isfinite(traj.values[-1])


def test_tiny_data_at_large_p_stays_put():
    # 1e-50^(1-10) = 1e450 overflows; the exact flow moves 1e-50 by a
    # relative 1e-450, so the entries stay exactly where they are
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(reaction_flow(np.full(4, 1e-50), 10.0, 1e-3), np.full(4, 1e-50))
        assert reaction_flow(1e-50, 10.0, 1e-3) == 1e-50
        assert reaction_flow(-1e-50, 10.0, -1e-3) == -1e-50
        mixed = np.array([1e-50, -1e-50, 0.5, -0.5, 0.0, 1e-101])
        got = reaction_flow(mixed, 10.0, 1e-3)
        assert np.array_equal(got[[0, 1, 4, 5]], mixed[[0, 1, 4, 5]])
        assert np.array_equal(got[[2, 3]], masked_reaction_flow(mixed[[2, 3]], 10.0, 1e-3))
        assert _dt_cap(10.0, 1e-50) == math.inf
        for v0, span in ((1e-50, (0.0, 1.0)), (-1e-50, (0.0, 1.0)), (1e-50, (0.0, -1.0))):
            traj = integrate_scalar_ode(10.0, v0, span)
            assert np.all(traj.values == v0)
            assert traj.times[0] == min(span) and traj.times[-1] == max(span)
            assert traj.blowup_time is None


def overflow_rule_reference(values, p, dt):
    """The masked reference, except that entries whose |v|^(1-p) overflows
    keep their value."""
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        want = masked_reaction_flow(v, p, dt)
        flat = np.isinf(np.abs(v) ** (1.0 - p)) & (np.abs(v) > 1e-100)
    want[flat] = v[flat]
    return want


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(
    count=st.integers(1, 200),
    p=st.floats(4.5, 200.0),
    log_dt=st.floats(-8.0, 0.0),
    signed=st.booleans(),
    ordinary=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_reaction_flow_overflow_rule(count, p, log_dt, signed, ordinary, seed):
    # magnitudes e^(-k/(p-1)): |v|^(1-p) = e^k overflows for k > 709.78;
    # reaction_flow leaves k >= 709 unchanged (the flow moves those entries
    # by less than their last bit), so k is kept clear of that narrow band
    rng = np.random.default_rng(seed)
    k = np.where(rng.random(count) < 0.5, rng.uniform(600.0, 708.9, count), rng.uniform(710.0, 800.0, count))
    v = np.exp(-k / (p - 1.0))
    if ordinary:
        v = np.where(rng.random(count) < 0.5, v, rng.uniform(0.5, 1.0, count))
    if signed:
        v *= rng.choice([-1.0, 1.0], count)
    before = v.copy()
    dt = 10.0**log_dt * 1e-3 / p
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _flow_or_error(reaction_flow, v, p, dt)
    want = _flow_or_error(overflow_rule_reference, v, p, dt)
    assert np.array_equal(v, before)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    p=st.floats(1.0 + 1e-6, 80.0),
    values=st.lists(st.floats(min_value=0.0, allow_nan=False), min_size=1, max_size=12),
    a_kind=st.sampled_from(["any", "edge", "below_edge"]),
    a_any=st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])),
    pick=st.integers(0, 11),
)
def test_positive_flow_raises_where_an_entrywise_test_would(p, values, a_kind, a_any, pick):
    # _positive_flow tests bracket.min() <= 0 where the parent tested every
    # entry, (bracket <= 0).any(); on what its callers pass (p > 1, entries
    # above _flat_floor(p), +inf allowed, NaN not) the two agree, for any a,
    # NaN and infinities included, and at a bracket of exactly 0
    v = np.array([x for x in values if x > _flat_floor(p)] or [1.0])
    with np.errstate(all="ignore"):
        edge = float(v[pick % v.size] ** (1.0 - p))
        a = {"any": a_any, "edge": edge, "below_edge": math.nextafter(edge, -math.inf)}[a_kind]
        entrywise = bool((v ** (1.0 - p) - a <= 0).any())
        try:
            _positive_flow(v, p, a)
            raised = False
        except FloatingPointError:
            raised = True
    assert raised == entrywise


@pytest.mark.parametrize(
    "values",
    [
        np.linspace(0.5, 2.0, 16),  # all positive: the whole-array path
        np.linspace(-2.0, 2.0, 16),  # sign-mixed: the masked path
        np.array([1e-50, 2e-50, 0.5]),  # an overflowing entry
        np.array([1e-101, 0.5]),
        np.array([np.nan, 0.5]),
        np.full(3, 1e-101),
        np.empty(0),
        np.linspace(0.5, 2.0, 16).reshape(4, 4),
        np.linspace(0.5, 2.0, 16)[::2],
        np.linspace(0.5, 2.0, 16).astype(np.float32),
    ],
)
def test_reaction_flow_never_writes_or_returns_its_input(values):
    before = values.copy()
    for p in (2.0, 10.0):
        out = reaction_flow(values, p, 1e-5)
        assert out is not values
        assert not np.shares_memory(out, values)
        assert out.shape == values.shape and out.dtype == np.float64
        assert np.array_equal(values, before, equal_nan=True)
