import math

import pytest
from hypothesis import given, settings, strategies as st

from sncalc import (
    Aggregate,
    ConstantRate,
    ConstantServer,
    Leftover,
    MmooParams,
    MmooTraffic,
    mmoo_effective_bandwidth,
    service_effective_capacity,
    traffic_effective_bandwidth,
    traffic_peak_rate,
)
from sncalc.envelopes import _cross_peak_and_burst, _cross_traffic, _on_off_flows
from helpers import mc_effective_bandwidth

# voice-flow parameters in per-slot units (64 kbit/s peak, 0.4 s on / 0.6 s
# off, 1 ms slots)
VOICE = MmooParams(peak_rate=64.0, r_on_off=0.0025, r_off_on=1.0 / 600.0)


class TestMmooEffectiveBandwidth:
    def test_always_on_source_gives_peak(self):
        p = MmooParams(peak_rate=1.0, r_on_off=0.0, r_off_on=1.0)
        for theta in (1e-6, 0.5, 3.0, 50.0):
            # tiny theta cancels ~1-magnitude terms, so allow float noise
            assert mmoo_effective_bandwidth(p, theta) == pytest.approx(1.0, rel=1e-9)

    def test_voice_mean_rate_limit(self):
        # the theta -> 0 limit is the average rate, 25.6 kbit/s
        assert VOICE.mean_rate == pytest.approx(25.6, rel=1e-12)
        assert mmoo_effective_bandwidth(VOICE, 1e-9) == pytest.approx(25.6, rel=1e-3)

    def test_symmetric_unit_rate_point(self):
        # direct evaluation of the closed form
        p = MmooParams(peak_rate=1.0, r_on_off=1.0, r_off_on=1.0)
        assert mmoo_effective_bandwidth(p, 2.0) == pytest.approx(math.sqrt(8.0) / 4.0, rel=1e-12)

    def test_monte_carlo_estimate_stays_below_closed_form(self):
        # sample-path MGF estimates over >= 1e5 paths must sit at or below
        # the interval-independent form (plus sampling tolerance)
        p = MmooParams(peak_rate=1.0, r_on_off=1.0, r_off_on=1.0)
        for theta in (0.5, 2.0):
            est = mc_effective_bandwidth(p, theta, t=20, n_paths=100_000, seed=1234)
            assert est <= mmoo_effective_bandwidth(p, theta) + 0.02

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            mmoo_effective_bandwidth(VOICE, 0.0)
        with pytest.raises(ValueError):
            mmoo_effective_bandwidth(VOICE, -1.0)

    def test_rejects_degenerate_params(self):
        with pytest.raises(ValueError):
            MmooParams(peak_rate=1.0, r_on_off=0.0, r_off_on=0.0)
        with pytest.raises(ValueError):
            MmooParams(peak_rate=0.0, r_on_off=1.0, r_off_on=1.0)
        with pytest.raises(ValueError):
            MmooParams(peak_rate=1.0, r_on_off=-0.1, r_off_on=1.0)

    @pytest.mark.parametrize("field", ["r_on_off", "r_off_on"])
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"), -0.1])
    def test_rejects_non_finite_or_negative_rates(self, field, rate):
        # a NaN rate used to pass the `< 0` check and reach the simulator
        rates = {"r_on_off": 0.1, "r_off_on": 0.1, field: rate}
        with pytest.raises(ValueError, match=f"{field} must be non-negative and finite"):
            MmooParams(peak_rate=1.0, **rates)


class TestMeanRate:
    def test_always_on(self):
        assert MmooParams(1.0, 0.0, 1.0).mean_rate == 1.0

    def test_symmetric(self):
        assert MmooParams(1.0, 1.0, 1.0).mean_rate == 0.5


class TestTrafficDispatch:
    def test_constant_rate_is_theta_independent(self):
        for theta in (1e-9, 1.0, 100.0):
            assert traffic_effective_bandwidth(ConstantRate(5.0), theta) == 5.0

    def test_aggregate_scales_voice_limit(self):
        agg = Aggregate(781, MmooTraffic(VOICE))
        # 781 * 25.6 kbit/s = 19.9936 Mbit/s, here in bits/slot
        assert traffic_effective_bandwidth(agg, 1e-9) == pytest.approx(781 * 25.6, rel=1e-3)

    def test_aggregate_of_one_is_identity(self):
        inner = MmooTraffic(VOICE)
        for theta in (1e-6, 0.01, 1.0):
            assert traffic_effective_bandwidth(Aggregate(1, inner), theta) == \
                traffic_effective_bandwidth(inner, theta)

    def test_aggregate_linearity_is_exact(self):
        inner = MmooTraffic(VOICE)
        for n in (2, 17, 781):
            for theta in (1e-4, 0.3):
                assert traffic_effective_bandwidth(Aggregate(n, inner), theta) == \
                    n * traffic_effective_bandwidth(inner, theta)

    def test_aggregates_nest(self):
        inner = MmooTraffic(VOICE)
        nested = Aggregate(2, Aggregate(3, inner))
        assert traffic_effective_bandwidth(nested, 0.01) == \
            6 * traffic_effective_bandwidth(inner, 0.01)
        assert traffic_peak_rate(nested) == 6 * 64.0

    def test_rejects_bad_interval(self):
        # the envelopes do not depend on the interval length, so they take none
        with pytest.raises(TypeError):
            traffic_effective_bandwidth(ConstantRate(1.0), 1.0, 0)
        with pytest.raises(TypeError):
            service_effective_capacity(ConstantServer(1.0), 1.0, 0)

    def test_peak_rate_helper(self):
        agg = Aggregate(3, MmooTraffic(VOICE))
        assert traffic_peak_rate(agg) == pytest.approx(3 * 64.0)


class TestServiceDispatch:
    def test_constant_server(self):
        for theta in (1e-9, 2.0):
            assert service_effective_capacity(ConstantServer(10.0), theta) == 10.0

    def test_leftover_linear_subtraction(self):
        model = Leftover(capacity=10.0, cross_count=2, cross=ConstantRate(1.0))
        assert service_effective_capacity(model, 0.7) == pytest.approx(8.0)

    def test_leftover_voice_cross(self):
        # 100 Mbit/s minus 1953 voice flows at their mean rate ~= 50 Mbit/s,
        # all in bits/slot at 1 ms slots
        model = Leftover(capacity=100_000.0, cross_count=1953, cross=MmooTraffic(VOICE))
        assert service_effective_capacity(model, 1e-9) == pytest.approx(100_000.0 - 1953 * 25.6, rel=1e-3)

    def test_leftover_may_go_negative(self):
        model = Leftover(capacity=1.0, cross_count=10, cross=ConstantRate(1.0))
        assert service_effective_capacity(model, 1.0) == pytest.approx(-9.0)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            service_effective_capacity(ConstantServer(1.0), 0.0)


class TestSimulatorWalks:
    """The two walks through which the simulator draws a path's records."""

    def test_aggregates_multiply_counts(self):
        flow = MmooTraffic(VOICE)
        assert _on_off_flows(flow) == (1, VOICE)
        assert _on_off_flows(Aggregate(3, flow)) == (3, VOICE)
        assert _on_off_flows(Aggregate(2, Aggregate(5, flow))) == (10, VOICE)

    @pytest.mark.parametrize("model", [ConstantRate(1.0), Aggregate(4, ConstantRate(1.0))])
    def test_constant_rate_through_model_is_named_in_a_type_error(self, model):
        with pytest.raises(TypeError, match=r"ConstantRate\(rate=1\.0\)"):
            _on_off_flows(model)

    @pytest.mark.parametrize("hop", [Leftover(10.0, 0, MmooTraffic(VOICE)), Leftover(10.0, 0, ConstantRate(1.0)),
                                     ConstantServer(10.0)])
    def test_hops_without_cross_flows_give_none(self, hop):
        assert _cross_traffic(hop) is None
        assert _cross_peak_and_burst(hop) == (0.0, 0.0)

    def test_leftover_gives_its_cross_flows(self):
        hop = Leftover(1e5, 4, Aggregate(2, MmooTraffic(VOICE)))
        assert _cross_traffic(hop) == Aggregate(4, Aggregate(2, MmooTraffic(VOICE)))
        assert _on_off_flows(_cross_traffic(hop)) == (8, VOICE)
        # the cross peak and burst read the same walk: M peaks, one flow's burst
        assert _cross_peak_and_burst(hop) == (8 * 64.0, 64.0 / 0.0025)
        assert _cross_peak_and_burst(Leftover(10.0, 3, ConstantRate(1.5))) == (4.5, 1.5)


@pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda theta: mmoo_effective_bandwidth(VOICE, theta),
    lambda theta: traffic_effective_bandwidth(ConstantRate(1.0), theta),
    lambda theta: traffic_effective_bandwidth(Aggregate(3, MmooTraffic(VOICE)), theta),
    lambda theta: service_effective_capacity(ConstantServer(1.0), theta),
    lambda theta: service_effective_capacity(Leftover(100.0, 2, MmooTraffic(VOICE)), theta),
], ids=["mmoo", "traffic-constant", "traffic-aggregate", "service-constant", "service-leftover"])
def test_public_envelopes_reject_bad_theta(call, theta):
    # theta is checked once, at the public entry, before any recursion
    with pytest.raises(ValueError, match="theta"):
        call(theta)


# ---------------------------------------------------------------------------
# randomized envelope properties
# ---------------------------------------------------------------------------

mmoo_params = st.builds(
    MmooParams,
    peak_rate=st.floats(min_value=0.5, max_value=1e4),
    r_on_off=st.floats(min_value=1e-5, max_value=0.5),
    r_off_on=st.floats(min_value=1e-5, max_value=0.5),
)


@given(mmoo_params)
@settings(max_examples=200, deadline=None)
def test_alpha_between_mean_and_peak_and_nondecreasing(params):
    m, p = params.mean_rate, params.peak_rate
    lo = 1e-4 * (params.r_on_off + params.r_off_on) ** 2 / (p * max(params.r_on_off, 1e-12))
    hi = 1e4 * max(params.r_on_off, 1e-12) / p
    thetas = [lo * (hi / lo) ** (k / 40.0) for k in range(41)] if hi > lo else [lo]
    values = [mmoo_effective_bandwidth(params, th) for th in thetas]
    for v in values:
        assert m - 1e-9 * p <= v <= p * (1 + 1e-12)
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12 * p
    # limits within 0.1% at the grid extremes
    assert values[0] == pytest.approx(m, rel=1e-3)
    assert values[-1] == pytest.approx(p, rel=1e-3)


# rates and theta over most of the float range, log-uniformly
_log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e)


@given(st.floats(min_value=1e-3, max_value=1e6), _log_uniform, _log_uniform,
       st.floats(min_value=-30.0, max_value=3.0).map(lambda e: 10.0 ** e))
@settings(max_examples=500, deadline=None)
def test_alpha_between_mean_and_peak_at_extreme_rates(peak, r_on_off, r_off_on, theta):
    # p*theta - r10 - r01 + root cancels when the switching rates dwarf
    # p*theta, and the square overflows beyond about 1e154: the result used
    # to fall below the mean rate, rise above the peak, drop to 0 or raise
    params = MmooParams(peak, r_on_off, r_off_on)
    value = mmoo_effective_bandwidth(params, theta)
    assert params.mean_rate * (1 - 1e-12) - 1e-300 <= value <= peak * (1 + 1e-12)


@pytest.mark.parametrize("r_off_on", [1e7, 1e13, 1e16, 1e97, 1e197])
def test_alpha_at_fast_switching_is_the_mean_rate(r_off_on):
    # voice traffic whose off sojourn is negligible switches so fast that
    # its alpha is its mean rate, just below the 64 bits/slot peak
    params = MmooParams(64.0, 0.0025, r_off_on)
    assert mmoo_effective_bandwidth(params, 4.16e-5) == pytest.approx(params.mean_rate, rel=1e-12)


@given(mmoo_params, st.integers(min_value=1, max_value=50))
@settings(max_examples=100, deadline=None)
def test_leftover_nonincreasing_in_theta(params, cross_count):
    model = Leftover(capacity=1e5, cross_count=cross_count, cross=MmooTraffic(params))
    thetas = [10.0 ** (-6 + k * 0.5) for k in range(13)]
    values = [service_effective_capacity(model, th) for th in thetas]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9 * abs(a)
