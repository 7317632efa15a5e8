import math
import re
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sncalc import (
    MmooParams,
    StabilityError,
    SimScenario,
    mmoo_effective_bandwidth,
    simulate_replication,
    simulate_tandem,
    validate_samples,
)
from sncalc import simulator
from sncalc.simulator import (Exceedances, HopTrace, Samples, SampleStats, UpperTails, _Arrivals, _Hop,
                              _on_runs, _source_rng, _tandem, _UpperTail, stationary_on_state,
                              validate_exceedances)
from helpers import (ReferenceTandem, chain_effective_bandwidth, mmoo_source_step, reference_arrival_curve,
                     reference_curves, reference_on_counts, virtual_delays)

VOICE = MmooParams(peak_rate=64.0, r_on_off=0.0025, r_off_on=1.0 / 600.0)


def small_scenario(**overrides):
    base = dict(hops=2, capacity_per_slot=40.0, through_count=3, cross_count=2,
                source=MmooParams(peak_rate=8.0, r_on_off=0.05, r_off_on=0.08),
                measure_slots=400, warmup_slots=50, replications=2, base_seed=11)
    base.update(overrides)
    return SimScenario(**base)


class TestSourceStep:
    def test_absorbing_on_state_emits_peak_forever(self):
        rng = np.random.default_rng(0)
        params = MmooParams(peak_rate=5.0, r_on_off=0.0, r_off_on=1.0)
        on = True
        for _ in range(200):
            on, bits = mmoo_source_step(on, rng, params)
            assert bits == 5.0
        assert on

    def test_emission_follows_state_at_slot_start(self):
        rng = np.random.default_rng(0)
        params = MmooParams(peak_rate=3.0, r_on_off=1.0, r_off_on=1.0)
        _, bits_on = mmoo_source_step(True, rng, params)
        _, bits_off = mmoo_source_step(False, rng, params)
        assert bits_on == 3.0 and bits_off == 0.0

    def test_symmetric_chain_on_fraction(self):
        rng = np.random.default_rng(42)
        params = MmooParams(peak_rate=1.0, r_on_off=1.0, r_off_on=1.0)
        on = stationary_on_state(rng, params)
        hits = 0
        n = 10**6
        for _ in range(n):
            hits += on
            on, _ = mmoo_source_step(on, rng, params)
        # 3 binomial sigmas (the chain's negative lag-1 correlation only
        # shrinks the variance)
        assert abs(hits / n - 0.5) < 3 * (0.25 / n) ** 0.5

    def test_voice_long_run_mean_rate(self):
        # 1e7 slot-samples in total (8 streams x 1.25e6 slots, burst
        # correlation ~480 slots): mean within 1% of 25.6 bits/slot
        counts = reference_on_counts(123, 0, 0, 8, VOICE, 1_250_000)
        rate = 64.0 * counts.mean() / 8
        assert rate == pytest.approx(25.6, rel=1e-2)


class TestRunGeneration:
    def test_runs_match_stepwise_statistics(self):
        # both generators realize the same chain, whose equilibrium on
        # fraction is p01/(p10+p01) with p = rate
        params = MmooParams(peak_rate=1.0, r_on_off=0.2, r_off_on=0.1)
        p10, p01 = 0.2, 0.1
        equilibrium = p01 / (p10 + p01)
        total = 200_000
        counts = reference_on_counts(7, 0, 0, 1, params, total)
        frac_runs = counts.mean()
        rng = np.random.default_rng(99)
        on = stationary_on_state(rng, params)
        hits = 0
        for _ in range(total):
            hits += on
            on, _ = mmoo_source_step(on, rng, params)
        assert frac_runs == pytest.approx(equilibrium, abs=0.01)
        assert hits / total == pytest.approx(equilibrium, abs=0.01)

    def test_absorbing_cases(self):
        # the stationary start is on with probability 1 and 0 respectively
        always_on = MmooParams(1.0, 0.0, 1.0)
        starts, ends = _on_runs(_source_rng(1, 0, 0, 0), always_on, 1000)
        assert (ends - starts).sum() == 1000
        always_off = MmooParams(1.0, 1.0, 0.0)
        starts, ends = _on_runs(_source_rng(1, 0, 0, 1), always_off, 1000)
        assert (ends - starts).sum() == 0

    def test_sojourns_beyond_int64_are_capped(self):
        # at rates of 1e-19 the geometric draws saturate at 2**63 - 1, and
        # their running sum must not wrap to negative starts
        params = MmooParams(1.0, 1e-19, 1e-19)
        runs = set()
        for index in range(8):
            starts, ends = _on_runs(_source_rng(3, 0, 0, index), params, 1000)
            runs.add((tuple(starts.tolist()), tuple(ends.tolist())))
        assert runs == {((0,), (1000,)), ((), ())}

    def test_adding_sources_never_perturbs_existing_streams(self):
        params = small_scenario().source
        two = reference_on_counts(5, 0, 1, 2, params, 5000)
        three = reference_on_counts(5, 0, 1, 3, params, 5000)
        third_alone = np.zeros(5001, dtype=np.int64)
        s, e = _on_runs(_source_rng(5, 0, 1, 2), params, 5000)
        np.add.at(third_alone, s, 1)
        np.add.at(third_alone, e, -1)
        assert np.array_equal(three, two + np.cumsum(third_alone[:5000]))


# 0 makes a state absorbing, and at 1 a source switches in every slot
source_rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, exclude_min=True))


@given(peak=st.floats(1e-3, 1e4), rates=st.tuples(source_rates, source_rates).filter(any),
       theta_peak=st.floats(math.log(1e-8), math.log(1e2)).map(math.exp))
@example(peak=64.0, rates=(0.0025, 1.0 / 600.0), theta_peak=1e-6)  # the voice source
@settings(max_examples=500, deadline=None)
def test_simulated_source_stays_within_the_fluid_bandwidth(peak, rates, theta_peak):
    # the bounds envelope the traffic they are checked against only if the
    # chain the simulator draws is no burstier than the fluid source they
    # model, at every theta
    params = MmooParams(peak, *rates)
    leave_on, leave_off, _ = simulator._switch_law(params)
    theta = theta_peak / peak
    chain = chain_effective_bandwidth(peak, leave_on, leave_off, theta)
    assert chain <= mmoo_effective_bandwidth(params, theta) + 1e-9 * peak


@pytest.mark.parametrize("rates", [(1.5, 0.1), (0.1, 1.0 + 2**-52)])
def test_a_rate_above_one_per_slot_is_refused(rates):
    with pytest.raises(ValueError, match="at most once per slot"):
        small_scenario(source=MmooParams(8.0, *rates))


class TestTandemAgainstChunkQueue:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_exact_agreement_on_random_scenarios(self, seed):
        rng = np.random.default_rng(seed)
        scenario = SimScenario(
            hops=int(rng.integers(1, 4)),
            capacity_per_slot=float(rng.integers(5, 60)),
            through_count=int(rng.integers(1, 5)),
            cross_count=int(rng.integers(0, 5)),
            source=MmooParams(peak_rate=float(rng.integers(1, 10)),
                              r_on_off=0.2, r_off_on=0.15),
            measure_slots=300,
            warmup_slots=20,
            base_seed=seed + 100,
        )
        trace = simulate_replication(scenario, 0, keep_hops=True)
        total = scenario.warmup_slots + scenario.measure_slots
        through = trace.hops[0].through_per_slot
        crosses = [h.cross_per_slot for h in trace.hops]
        ingress, egress, dep_thr, arr_tot, dep_tot = reference_curves(
            through, crosses, scenario.capacity_per_slot)
        assert np.array_equal(trace.ingress, ingress)
        assert np.array_equal(trace.egress, egress)
        for h, hop in enumerate(trace.hops):
            assert np.array_equal(hop.departures_through, dep_thr[h])
            assert np.array_equal(hop.arrivals_total, arr_tot[h])
            assert np.array_equal(hop.departures_total, dep_tot[h])
        slots = np.arange(scenario.warmup_slots + 1, total + 1)
        assert np.array_equal(trace.backlog_samples, ingress[slots] - egress[slots])
        assert np.array_equal(trace.delay_samples, virtual_delays(ingress, egress, slots))

    @pytest.mark.parametrize("seed", range(8))
    def test_real_valued_rates_match_rational_chunk_queue(self, seed):
        # generic real rates: a departure curve that rounds below its arrival
        # curve must not turn an idle run of the ingress into queueing delay
        rng = np.random.default_rng(seed)
        hops, n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(0, 5))
        source = MmooParams(peak_rate=float(rng.uniform(1, 10)), r_on_off=0.2, r_off_on=0.15)
        # utilization from 0.95 down to no queueing at all
        capacity = float(rng.uniform((n + m) * source.mean_rate / 0.95, (n + m) * source.peak_rate))
        scenario = SimScenario(hops=hops, capacity_per_slot=capacity,
                               through_count=n, cross_count=m, source=source,
                               measure_slots=400, warmup_slots=20, base_seed=seed + 200)
        trace = simulate_replication(scenario, 0)
        # the intended model in exact arithmetic: on-counts times the peak rate
        total = scenario.warmup_slots + scenario.measure_slots
        peak, cap = Fraction(source.peak_rate), Fraction(scenario.capacity_per_slot)
        through = [peak * int(c) for c in reference_on_counts(scenario.base_seed, 0, 0, n, source, total)]
        crosses = [[peak * int(c) for c in reference_on_counts(scenario.base_seed, 0, h, m, source, total)]
                   for h in range(1, hops + 1)]
        tandem = ReferenceTandem(cap, hops)
        ingress, egress = [cap * 0], [cap * 0]
        for t in range(total):
            ingress.append(ingress[-1] + through[t])
            egress.append(tandem.step(through[t], [c[t] for c in crosses])[-1])
        slots = np.arange(scenario.warmup_slots + 1, total + 1)
        assert np.array_equal(trace.delay_samples, virtual_delays(ingress, egress, slots))
        backlog = [float(ingress[t] - egress[t]) for t in slots]
        np.testing.assert_allclose(trace.backlog_samples, backlog, rtol=0, atol=1e-9)

    def test_underloaded_deterministic_flow(self):
        # an always-on source below capacity never queues
        scenario = SimScenario(hops=2, capacity_per_slot=10.0, through_count=1,
                               cross_count=0, source=MmooParams(8.0, 0.0, 1.0),
                               measure_slots=200, warmup_slots=5, base_seed=0)
        trace = simulate_replication(scenario, 0)
        assert np.all(trace.delay_samples == 0)
        assert np.all(trace.backlog_samples <= 8.0)

    def test_conservation_properties(self):
        trace = simulate_replication(small_scenario(), 0, keep_hops=True)
        cap = small_scenario().capacity_per_slot
        for hop in trace.hops:
            arr, dep = hop.arrivals_total, hop.departures_total
            # causality: departures never exceed arrivals, per class too
            assert np.all(dep <= arr + 1e-9)
            assert np.all(hop.departures_through <= hop.arrivals_through + 1e-9)
            # through departures fit inside total departures
            assert np.all(hop.departures_through <= dep + 1e-9)
            # flow conservation: backlog is exactly in minus out
            queue = arr - dep
            assert np.all(queue >= -1e-9)
            # work conservation: serve capacity whenever enough work exists
            served = np.diff(dep)
            offered = queue[:-1] + np.diff(arr)
            assert np.array_equal(served, np.minimum(offered, cap))
            # departure curves are nondecreasing
            assert np.all(np.diff(dep) >= 0)
            assert np.all(np.diff(hop.departures_through) >= 0)


class TestHopPrefixes:
    def test_prefix_samples_equal_separate_runs(self):
        # one 3-hop pass reduces each hop prefix; every prefix must be the
        # h-hop run bit for bit, since source streams are keyed by hop
        sc = small_scenario(hops=3, capacity_per_slot=30.0, replications=3)
        keep = dict.fromkeys((1, 2, 3), Samples)
        for r in range(sc.replications):
            trace = simulate_replication(sc, r, reduce=keep)
            assert trace.delay_samples is None and trace.backlog_samples is None
            for h in (1, 2, 3):
                alone = simulate_replication(small_scenario(hops=h, capacity_per_slot=30.0), r)
                delays, backlogs = trace.reduced[h]
                assert alone.delay_samples.max() > 0
                assert delays.dtype == alone.delay_samples.dtype
                assert np.array_equal(delays, alone.delay_samples)
                assert np.array_equal(backlogs, alone.backlog_samples)

    def test_reductions_only_at_requested_prefixes(self):
        sc = small_scenario(hops=3)
        trace = simulate_replication(sc, 0, reduce={2: Samples})
        assert list(trace.reduced) == [2] and len(trace.reduced[2][0]) == sc.measure_slots


class TestSimulateTandem:
    def test_reproducible_bit_identical(self):
        a = simulate_tandem(small_scenario())
        b = simulate_tandem(small_scenario())
        assert np.array_equal(a.delay_samples, b.delay_samples)
        assert np.array_equal(a.backlog_samples, b.backlog_samples)
        assert a.replication_seeds == b.replication_seeds

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_samples_are_the_replications_in_order(self, jobs):
        sc = small_scenario(capacity_per_slot=30.0, replications=3)
        out = simulate_tandem(sc, jobs=jobs)
        traces = [simulate_replication(sc, r) for r in range(sc.replications)]
        assert out.delay_samples.dtype == np.int64
        assert np.array_equal(out.delay_samples, np.concatenate([t.delay_samples for t in traces]))
        assert np.array_equal(out.backlog_samples,
                              np.concatenate([t.backlog_samples for t in traces]))

    def test_different_seed_changes_samples(self):
        # capacity below the 40-bit aggregate peak so queues actually form
        a = simulate_tandem(small_scenario(capacity_per_slot=30.0))
        b = simulate_tandem(small_scenario(capacity_per_slot=30.0, base_seed=12))
        assert a.delay_samples.max() > 0
        assert not np.array_equal(a.delay_samples, b.delay_samples)

    def test_sample_count(self):
        sc = small_scenario()
        out = simulate_tandem(sc)
        assert out.delay_samples.size == sc.measure_slots * sc.replications
        assert out.measured_slots == sc.measure_slots * sc.replications
        assert np.all(out.delay_samples >= 0)
        assert np.all(out.backlog_samples >= 0)

    def test_overload_aborts(self):
        sc = small_scenario(capacity_per_slot=1.0)  # 5 sources, mean ~3 bits/slot
        with pytest.raises(StabilityError, match="exceeds 1"):
            simulate_tandem(sc)

    def test_backlog_guard_aborts(self, monkeypatch):
        # utilization ~0.95 passes the load pre-check, but the tiny guard
        # trips on normal queue excursions
        monkeypatch.setattr(simulator, "BACKLOG_GUARD_BITS", 50.0)
        sc = small_scenario(capacity_per_slot=26.0, measure_slots=5000)
        with pytest.raises(StabilityError, match="guard"):
            simulate_tandem(sc)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -1.0, 0.0])
    def test_capacity_must_be_finite_and_positive(self, capacity):
        with pytest.raises(ValueError, match="capacity_per_slot"):
            small_scenario(capacity_per_slot=capacity)

    @pytest.mark.parametrize("field, value", [
        ("measure_slots", 1000.0), ("hops", 2.0), ("base_seed", 1.5), ("cross_count", True),
        ("through_count", np.float64(3)), ("warmup_slots", 50.0), ("replications", "2"),
        ("hops", 0), ("through_count", 0), ("cross_count", -1), ("measure_slots", 0),
        ("warmup_slots", -1), ("replications", 0), ("base_seed", -1), ("measure_slots", None),
    ])
    def test_counts_must_be_integers_in_range(self, field, value):
        # a float, a bool or a string count once passed and failed deep in
        # numpy with an error that did not name the field, or ran (True as
        # one source)
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer >= ") + r"\d, got "
                           + re.escape(repr(value))):
            small_scenario(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        assert small_scenario(hops=np.int64(2), measure_slots=np.int32(400), base_seed=np.uint64(11)).hops == 2

    def test_default_warmup_is_ten_sojourns(self):
        sc = small_scenario(warmup_slots=None)
        assert sc.resolved_warmup() == int(np.ceil(10.0 / min(0.05, 0.08)))


class TestEmpiricalTail:
    def test_all_zero_samples(self):
        tail = validate_samples(np.zeros(100), "delay", 0.0, 0.5)
        assert tail.frequency == 0.0
        assert 0 < tail.upper_confidence < 0.05

    def test_direct_count(self):
        tail = validate_samples(np.array([1.0, 2.0, 3.0, 4.0]), "delay", 2.0, 0.5)
        assert (tail.exceed_count, tail.sample_count, tail.frequency) == (2, 4, 0.5)

    def test_bernoulli_synthetic(self):
        rng = np.random.default_rng(7)
        samples = (rng.random(10**6) < 0.01).astype(float)
        tail = validate_samples(samples, "backlog", 0.5, 0.01)
        sigma = (0.01 * 0.99 / 10**6) ** 0.5
        assert abs(tail.frequency - 0.01) < 3 * sigma
        assert tail.upper_confidence > tail.frequency

    def test_all_exceed(self):
        tail = validate_exceedances(10, 10, "delay", 1.0, 0.5)
        assert tail.frequency == 1.0
        assert tail.upper_confidence == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_samples(np.array([]), "delay", 1.0, 0.5)
        with pytest.raises(ValueError):
            validate_exceedances(0, 0, "delay", 1.0, 0.5)

    @pytest.mark.parametrize("count", [11, -1, 2.5, 3.0, math.nan, "3"])
    def test_count_outside_0_to_n_rejected(self, count):
        with pytest.raises(ValueError, match=re.escape(f"got {count!r}")):
            validate_exceedances(count, 10, "delay", 1.0, 0.5)

    def test_numpy_integer_count_accepted(self):
        tail = validate_exceedances(np.int64(3), 10, "delay", 1.0, 0.5)
        assert tail.frequency == 0.3


class TestStatisticalDominance:
    def test_analytic_tail_dominates_empirical_lower_bound(self):
        # at the delay bound for epsilon, the empirical frequency's 95% lower
        # confidence limit must not exceed epsilon
        from scipy.stats import beta as beta_dist

        from sncalc import Aggregate, Leftover, MmooTraffic, NetworkPath, delay_bound

        capacity = 8 * 25.6 / 0.8  # utilization 0.8
        scenario = SimScenario(hops=1, capacity_per_slot=capacity, through_count=4,
                               cross_count=4, source=VOICE, measure_slots=60_000,
                               warmup_slots=6000, base_seed=21)
        sim = simulate_tandem(scenario)
        src = MmooTraffic(VOICE)
        path = NetworkPath(Aggregate(4, src), (Leftover(capacity, 4, src),))
        n = sim.delay_samples.size
        for eps in (0.5, 0.1, 0.01):
            threshold = delay_bound(path, eps).value
            k = int(np.count_nonzero(sim.delay_samples > threshold))
            lower = float(beta_dist.ppf(0.05, k, n - k + 1)) if k > 0 else 0.0
            assert lower <= eps


def _scipy_limit(k, n):
    """betaincinv(k + 1, n - k, 0.95), refined by two Newton steps on scipy's
    own betaincc.  betaincinv alone is off by up to 2e-10 relative at
    n >= 1e6 and k < 100 (against a 60-digit root of the binomial sum), and
    by at most 2e-13 elsewhere; the refined value was within 6e-14 at every
    point checked."""
    from scipy.special import betaincc, betaincinv, betaln

    a, b = k + 1, n - k
    x = float(betaincinv(a, b, 0.95))
    for _ in range(2):
        pdf = math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - betaln(a, b))
        x -= (0.05 - float(betaincc(a, b, x))) / pdf
    return x


@st.composite
def binomial_counts(draw):
    """n up to 2e7 and k at 0, 1, a few, about eps*n, about 10*eps*n or n - 1."""
    n = draw(st.one_of(st.integers(1, 100), st.integers(100, 20_000_000),
                       st.sampled_from([10_060_000, 20_000_000])))
    eps = draw(st.floats(1e-7, 0.09))
    k = draw(st.sampled_from([0, 1, draw(st.integers(2, 30)), round(eps * n), round(10 * eps * n),
                              n - 1]))
    return min(max(k, 0), n - 1), n


class TestClopperPearson:
    @given(binomial_counts())
    @settings(max_examples=150, deadline=None)
    def test_equals_scipy(self, kn):
        k, n = kn
        limit = validate_exceedances(k, n, "delay", 1.0, 0.5).upper_confidence
        assert limit == pytest.approx(_scipy_limit(k, n), rel=1e-12, abs=0)
        if k == 0:
            assert limit == -math.expm1(math.log(0.05) / n)
        assert validate_exceedances(k + 1, n, "delay", 1.0, 0.5).upper_confidence > limit

    @pytest.mark.parametrize("k", [100, 1000, 99_900, 1_000_000, 9_999_999])
    def test_equals_betaincinv_beyond_small_counts(self, k):
        from scipy.special import betaincinv

        n = 10**7
        limit = validate_exceedances(k, n, "delay", 1.0, 0.5).upper_confidence
        assert limit == pytest.approx(float(betaincinv(k + 1, n - k, 0.95)), rel=1e-12, abs=0)


class TestValidation:
    def test_pass_fail_and_sensitivity(self):
        # samples concentrated between threshold/2 and threshold: the
        # harness must pass at the bound and fail at the halved bound
        rng = np.random.default_rng(1)
        samples = rng.uniform(60.0, 90.0, size=200_000)
        ok = validate_samples(samples, "delay", 100.0, 1e-2)
        assert ok.verdict == "pass"
        corrupted = validate_samples(samples, "delay", 50.0, 1e-2)
        assert corrupted.verdict == "fail"
        assert corrupted.frequency == 1.0

    def test_inconclusive_when_underpowered(self):
        report = validate_samples(np.zeros(1000), "delay", 1.0, 1e-9)
        assert report.verdict == "inconclusive"
        assert report.warnings


# ---------------------------------------------------------------------------
# randomized conservation and reproducibility properties
# ---------------------------------------------------------------------------

sim_settings = st.builds(
    dict,
    hops=st.integers(min_value=1, max_value=3),
    capacity=st.integers(min_value=8, max_value=64),
    through=st.integers(min_value=1, max_value=4),
    cross=st.integers(min_value=0, max_value=3),
    peak=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32),
)


def _build(cfg, measure=128):
    return SimScenario(
        hops=cfg["hops"], capacity_per_slot=float(cfg["capacity"]),
        through_count=cfg["through"], cross_count=cfg["cross"],
        source=MmooParams(peak_rate=float(cfg["peak"]), r_on_off=0.1, r_off_on=0.12),
        measure_slots=measure, warmup_slots=16, base_seed=cfg["seed"],
    )


@given(sim_settings)
@settings(max_examples=150, deadline=None)
def test_random_scenarios_conserve_flow(cfg):
    trace = simulate_replication(_build(cfg), 0, keep_hops=True)
    cap = float(cfg["capacity"])
    for hop in trace.hops:
        arr, dep = hop.arrivals_total, hop.departures_total
        assert np.all(dep <= arr)
        served = np.diff(dep)
        offered = (arr - dep)[:-1] + np.diff(arr)
        assert np.array_equal(served, np.minimum(offered, cap))
    assert np.all(trace.delay_samples >= 0)
    assert np.all(trace.backlog_samples >= 0)


@given(sim_settings)
@settings(max_examples=60, deadline=None)
def test_random_scenarios_are_reproducible(cfg):
    a = simulate_replication(_build(cfg, measure=64), 0)
    b = simulate_replication(_build(cfg, measure=64), 0)
    assert np.array_equal(a.delay_samples, b.delay_samples)
    assert np.array_equal(a.backlog_samples, b.backlog_samples)


# ---------------------------------------------------------------------------
# closed-form arrivals against the row construction they replaced
# ---------------------------------------------------------------------------

# 0 makes a state absorbing; at 0.95 a source switches in 95% of its slots,
# so runs start at slot 0 and end at the horizon
switch_rates = st.sampled_from([0.0, 1e-3, 0.05, 0.5, 0.95])


@given(count=st.integers(0, 5), total=st.one_of(st.just(1), st.integers(1, 3000)),
       rates=st.tuples(switch_rates, switch_rates).filter(any),
       peak=st.one_of(st.integers(1, 9).map(float), st.floats(0.01, 100.0)),
       seed=st.integers(0, 2**32), chunk=st.sampled_from([7, 1 << 14, 1 << 17]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_closed_form_arrivals_equal_the_row_construction(count, total, rates, peak, seed, chunk, data):
    params = MmooParams(peak, *rates)
    scenario = SimScenario(hops=1, capacity_per_slot=1.0, through_count=1, cross_count=0,
                           source=params, measure_slots=total, warmup_slots=0, base_seed=seed)
    expected = reference_arrival_curve(reference_on_counts(seed, 0, 1, count, params, total), peak)
    arrivals = _Arrivals.of_sources(scenario, 0, 1, count, total)
    row = np.full(total + 1, np.nan)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_CHUNK", chunk)
        for i in range(0, total + 1, chunk):  # one chunk at a time, as the engine evaluates the ingress
            stop = min(i + chunk, total + 1)
            arrivals.fill(np.arange(i, stop, dtype=float), row[i:stop])
    assert np.array_equal(row, expected)
    # consecutive windows of any length, from a single slot to the run, as
    # each hop reads its cross arrivals a chunk at a time
    arrivals, start = _Arrivals.of_sources(scenario, 0, 1, count, total), 0
    while start <= total:
        stop = data.draw(st.integers(start + 1, total + 1))
        got = arrivals.fill(np.arange(start, stop, dtype=float), np.full(stop - start, np.nan))
        assert np.array_equal(got, expected[start:stop])
        start = stop


def test_closed_form_takes_a_few_bytes_per_change():
    # every hop's closed form is held for the whole replication: with
    # sources that switch in 95% of their slots, a group of 3 changes its
    # on-count in nearly every slot, and must keep less than 6 B for each
    # change (x, c and n as 8 B each took 24)
    scenario = SimScenario(hops=1, capacity_per_slot=20.0, through_count=3, cross_count=3,
                           source=MmooParams(1.0, 0.95, 0.95), measure_slots=200_000, warmup_slots=0)
    arrivals = _Arrivals.of_sources(scenario, 0, 1, 3, 200_000)
    assert len(arrivals.x) > 190_000
    kept = arrivals.x.nbytes + arrivals.change.nbytes
    assert kept < 6 * len(arrivals.x)


@given(sim_settings, st.one_of(st.just(0), st.integers(1, 40)), st.integers(1, 3000))
@settings(max_examples=100, deadline=None)
def test_streamed_reductions_equal_numpy_over_the_samples(cfg, warmup, k):
    # the summaries and upper tails that simulate and validate --self-test
    # print are taken chunk by chunk without the samples, and must be what
    # numpy gives over the samples, bit for bit
    sc = _build(cfg).replace(warmup_slots=warmup)
    hops = range(1, sc.hops + 1)

    def all_three(warmup, total):
        return _Both(Samples(warmup, total), SampleStats(warmup, total), UpperTails(k, warmup, total))

    for (delays, backlogs), stats, tails in simulate_replication(sc, 0, reduce=dict.fromkeys(hops, all_three)).reduced.values():
        assert stats == tuple(float(v) for s in (delays, backlogs)
                              for v in (s.mean(), np.percentile(s, 99), s.max()))
        for (values, counts), s in zip(tails, (delays, backlogs)):
            all_values, all_counts = np.unique(s, return_counts=True)
            i = np.searchsorted(all_values, np.sort(s)[max(s.size - k, 0)])  # the k-th largest's entry
            assert values.dtype == s.dtype and counts.dtype == all_counts.dtype
            assert np.array_equal(values, all_values[i:]) and np.array_equal(counts, all_counts[i:])


@given(st.lists(st.tuples(st.booleans(), st.lists(st.integers(0, 40), max_size=80)), min_size=1, max_size=12),
       st.sampled_from([1, 8]), st.integers(1, 300), st.sampled_from([np.int64, np.float64]),
       st.sampled_from([1, 1 << 14]))
@settings(max_examples=300, deadline=None)
def test_upper_tail_keeps_the_distinct_values_from_the_kth_largest(parts, spread, k, dtype, chunk):
    # raw parts and counted parts (distinct ascending values with their
    # counts, as the self-test feeds each replication's tails) in any mix
    # and any size, few values apart or many ties (spread 8), with merges
    # after almost every part (a chunk of 1) or only once k values have
    # come: the tail keeps numpy's distinct values at or above the k-th
    # largest of all of them, with their counts
    tail, seen = _UpperTail(k), []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_CHUNK", chunk)
        for counted, part in parts:
            values = np.array(part, dtype=dtype) // spread
            seen.append(values)
            tail.add(*(np.unique(values, return_counts=True) if counted else (values,)))
        values, counts = tail.kept()
    samples = np.sort(np.concatenate(seen))
    all_values, all_counts = np.unique(samples, return_counts=True)
    i = np.searchsorted(all_values, samples[max(samples.size - k, 0)]) if samples.size else 0
    assert values.dtype == dtype and counts.dtype == all_counts.dtype
    assert np.array_equal(values, all_values[i:]) and np.array_equal(counts, all_counts[i:])
    for rank in range(1, min(k, samples.size) + 1):
        assert tail.largest(rank) == samples[samples.size - rank]


@given(st.integers(1, 40_000), st.integers(0, 62), st.floats(0.0, 1.0), st.integers(1, 20_000),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_summary_equals_numpy_in_any_parts(n, bits, zeros, part, seed):
    # SampleStats sees a prefix's samples a part at a time: its backlog
    # (float) summary must be numpy's over all of them bit for bit, and its
    # delay (integer) mean the exact sum / n, which is numpy's while the sum
    # is below 2**53, where numpy's float sum is exact too
    rng = np.random.default_rng(seed)
    delays = rng.integers(0, 2 ** min(bits, 52) + 1, n)
    backlogs = rng.random(n) * 2.0 ** (bits - 20)
    for values in (delays, backlogs):
        values[rng.random(n) < zeros] = 0
    stats = SampleStats(0, n)
    for i in range(0, n, part):
        stats._took(delays[i:i + part].copy(), backlogs[i:i + part].copy())
    got = stats.result()
    total = sum(delays.tolist())
    assert got[0] == total / n
    if total < 2**53:
        assert got[0] == float(delays.mean())
    assert got[1:3] == (float(np.percentile(delays, 99)), float(delays.max()))
    assert got[3:] == (float(backlogs.mean()), float(np.percentile(backlogs, 99)), float(backlogs.max()))


def _sample_stats_peak(hops, reduced):
    """tracemalloc's peak over one replication of ``hops`` hops whose
    prefixes ``reduced`` are summarized as simulate summarizes them."""
    sc = SimScenario(hops=hops, capacity_per_slot=732.0, through_count=10, cross_count=10,
                     source=VOICE, measure_slots=400_000, warmup_slots=6000, base_seed=5)
    reduce = dict.fromkeys(reduced, SampleStats)
    simulate_replication(sc, 0, reduce=reduce)  # lazy imports and caches first
    tracemalloc.start()
    try:
        simulate_replication(sc, 0, reduce=reduce)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_stats_memory_does_not_grow_with_the_prefixes():
    # a prefix's summary keeps its sums and about 1% of its samples, so five
    # more summarized prefixes of a 6-hop run must add less than 1 B per
    # measured slot each; keeping their samples would add 16
    growth = _sample_stats_peak(6, range(1, 7)) - _sample_stats_peak(6, (6,))
    assert growth < 5 * 400_000


def _validate_peak(measure_slots):
    """tracemalloc's peak over one replication that counts validate's exceedances."""
    sc = SimScenario(hops=2, capacity_per_slot=732.0, through_count=10, cross_count=10,
                     source=VOICE, measure_slots=measure_slots, warmup_slots=6000, base_seed=5)
    reduce = dict.fromkeys((1, 2), partial(Exceedances, (("delay", 10.0), ("backlog", 2000.0))))
    simulate_replication(sc, 0, reduce=reduce)  # lazy imports and caches first
    tracemalloc.start()
    try:
        simulate_replication(sc, 0, reduce=reduce)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validate_replication_memory_grows_by_less_than_4_bytes_a_slot():
    # validate's counts stream each chunk through the hops and keep no curve
    # row: what grows with the horizon is only the closed-form arrivals, one
    # entry per change of a group's on-count (a curve row is 8 B a slot)
    growth = _validate_peak(2_000_000) - _validate_peak(200_000)
    assert growth < 4 * 1_800_000


def test_memory_check_covers_self_test_tails_and_waiting_results(monkeypatch):
    # a self-test hop count's upper tails at k = n, every delay and backlog
    # distinct and fed a chunk at a time, peak within their charge
    n, chunk = 10**6, 1 << 14
    rng = np.random.default_rng(0)
    delays, backlogs = rng.permutation(n), rng.permutation(n) + 0.5
    tracemalloc.start()
    try:
        tails = UpperTails(n, 0, n)
        for i in range(0, n, chunk):
            tails._took(delays[i:i + chunk], backlogs[i:i + chunk])
        tails.result()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert UpperTails.held_bytes(n, n)[0] >= peak
    # at --jobs 2, finished results wait for the oldest: memory for the two
    # live replications and one result is refused before any worker starts,
    # memory for them and every result is not
    sc = small_scenario(replications=6)
    k, slots = sc.measure_slots, sc.resolved_warmup() + sc.measure_slots + 1
    tail_peak, result = UpperTails.held_bytes(k, k)
    live = 16 * simulator._on_count_changes(sc, slots) + (24 * sc.hops + 56) * slots + tail_peak
    for memory, refused in ((2 * live + result, True), (2 * live + 6 * result, False)):
        monkeypatch.setattr(simulator, "_physical_memory", lambda: memory)
        runs = simulator.reduce_replications(sc, {2: partial(UpperTails, k)}, jobs=2)
        if refused:
            with pytest.raises(MemoryError, match="2 replication"):
                next(runs)
        else:
            assert len(list(runs)) == 6


@pytest.mark.parametrize("k", [1, 100, 1000, 2500])
def test_self_test_pool_peaks_within_its_charge(monkeypatch, k):
    # the self-test pools each replication's tails, every value distinct
    # within and across replications and spread over them at random, so a
    # pool keeps the most entries it can and cuts most replications' tails
    # at its floor: beside the results, which the guard charges apart, the
    # pooling peaks within its charge at every k, below, at and above the
    # slots (unmerged cuts, which keep their replications' arrays, did not)
    n, count, hops = 10, 1000, 2
    rng = np.random.default_rng(0)
    spread = [rng.permutation(n * count).reshape(n, count) for _ in range(hops)]
    results = []
    for r in range(n):
        results.append({})
        for h in range(1, hops + 1):
            tails = UpperTails(k, 0, count)
            tails._took(spread[h - 1][r], spread[h - 1][r] + 0.5)
            results[-1][h] = tails.result()
    charged = []

    def replay(scenario, reduce, jobs, pooled):  # the replications, as a simulation yields them
        charged.append(pooled)
        yield from results

    monkeypatch.setattr(simulator, "_reduced", replay)
    sim = small_scenario(measure_slots=count, replications=n)
    wanted = [(h, kind, k) for h in range(1, hops + 1) for kind in ("delay", "backlog")]
    simulator.self_test_thresholds(sim, wanted)  # lazy imports and caches first
    tracemalloc.start()
    try:
        thresholds = simulator.self_test_thresholds(sim, wanted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= charged[-1]
    kth = n * count - k
    assert thresholds == [math.nextafter(kth + offset, -math.inf) for _ in range(hops) for offset in (0, 0.5)]


@pytest.mark.parametrize("hops, on_probability, seed",[(2, 0.5, 1), (4, 0.5, 1), (8, 0.5, 1), (1, 0.005, 4486)])
def test_memory_guard_covers_a_run_long_fifo_lag(monkeypatch, hops, on_probability, seed):
    # the sources never switch (rates of 1e-8 a slot), so from the first hop
    # where two of them are on, at seed 1 hop 2, the queues grow all run, and each
    # hop's through input and window reach back over a lag that grows with
    # the run; at seed 4486 both sources of one hop start on at an on
    # probability of 0.005, and hop 1's lag is about 99% of the run.  A
    # replication's tracemalloc peak stays within the run-size guard's charge
    source = MmooParams(64.0, 1e-8, 1e-8 * on_probability / (1 - on_probability))
    sc = SimScenario(hops=hops, capacity_per_slot=2 * source.mean_rate / 0.9, through_count=1, cross_count=1,
                     source=source, measure_slots=400_000, warmup_slots=0, base_seed=seed)
    on = [stationary_on_state(_source_rng(seed, 0, h, 0), source) for h in range(hops + 1)]
    assert on[0] and any(on[1:])  # the through source and a hop's cross source
    reduce = {hops: SampleStats}
    simulate_replication(sc, 0, reduce=reduce)  # lazy imports and caches first
    tracemalloc.start()
    try:
        simulate_replication(sc, 0, reduce=reduce)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(simulator, "_physical_memory", lambda: peak - 1)
    with pytest.raises(MemoryError, match="1 replication"):
        next(simulator.reduce_replications(sc, reduce))


def test_tail_charges_cover_a_small_run():
    # at 100 measured slots most of the tails' peak is arrays and objects
    # whose size does not grow with the slots (about 11 KB against 6400 B
    # charged per slot): the charge covers it at every k, for distinct
    # samples and for many ties, and for the summaries' tails
    n, rng = 100, np.random.default_rng(0)
    samples = ((rng.permutation(n), rng.permutation(n) + 0.5),
               (rng.integers(0, 5, n), rng.integers(0, 5, n) * 4.0))
    runs = [(partial(UpperTails, k), UpperTails.held_bytes(n, k)[0]) for k in range(1, n + 1)]
    for make, charge in runs + [(SampleStats, SampleStats.held_bytes(n)[0])]:
        for delays, backlogs in samples:
            warm = make(0, n)  # lazy imports and caches first
            warm._took(delays, backlogs)
            warm.result()
            tracemalloc.start()
            try:
                reduction = make(0, n)
                reduction._took(delays, backlogs)
                reduction.result()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= charge


# ---------------------------------------------------------------------------
# curve inversions: only the busy slots, against a search on every slot
# ---------------------------------------------------------------------------

def _hop_input(slots, loads, capacity, peak, seed):
    """Per-slot through and cross on-counts over ``slots`` slots, in equal
    stretches at the offered ``loads`` (mean arrivals per slot over
    capacity) when each count sends ``peak`` bits; a load of 0 sends
    nothing."""
    rng = np.random.default_rng(seed)
    load = np.repeat(loads, -(-slots // len(loads)))[:slots]
    return tuple(rng.poisson(load * capacity / (2 * peak)) for _ in range(2))


def _closed_form(counts, peak):
    """The simulator's closed-form arrivals of per-slot on-counts."""
    counts = np.asarray(counts, dtype=np.int64)
    return _Arrivals(np.arange(len(counts)), np.diff(counts, prepend=0), peak)


def _curves(thr_counts, cross_counts, peak):
    """The through curve as a row (index = slot boundary), and the cross
    arrivals both as a row, for the oracles, and in closed form, for
    :class:`_Hop`."""
    return (reference_arrival_curve(thr_counts, peak), reference_arrival_curve(cross_counts, peak),
            _closed_form(cross_counts, peak))


def _split_every_slot(thr, cross, capacity):
    """The FIFO hop split searched at every slot, busy or idle: the queue,
    D_total and D_through = clip(D - cross[e], thr[e - 1], thr[e]), with e
    capped at max(t, 1) so that slot t reads no arrivals after it."""
    arr = thr + cross
    t = np.arange(len(arr))
    excess = arr - t * capacity
    queue = excess - np.minimum.accumulate(excess)
    dep = arr - queue
    e = np.minimum(np.searchsorted(arr, dep, side="right"), np.maximum(t, 1))
    return queue, dep, np.clip(dep - cross[e], thr[e - 1], thr[e])


# few distinct values give plateaus and ties; any finite float, both zeros too
excess_values = st.one_of(st.integers(-3, 3).map(float), st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(st.tuples(excess_values, st.integers(1, 4)), min_size=1, max_size=200),
       st.sampled_from(["as drawn", "rising", "falling"]), st.one_of(st.just(math.inf), excess_values))
@example([(0.0, 1)], "as drawn", math.inf)
@example([(-0.0, 2), (0.0, 1)], "as drawn", 0.0)
@settings(max_examples=300, deadline=None)
def test_running_min_is_the_serial_scan(runs, order, carry):
    # each value drawn repeats up to 4 times; "rising" makes every slot a
    # run of its own, "falling" the whole excess one run
    excess = np.repeat([value for value, _ in runs], [times for _, times in runs])
    if order == "rising":
        excess = np.unique(excess)
    elif order == "falling":
        excess = np.sort(excess)[::-1].copy()
    out = np.full(len(excess), np.nan)
    carried = simulator._running_min(excess, carry, out)
    scan = np.minimum.accumulate(np.concatenate(([carry], excess)))[1:]
    assert out.tobytes() == scan.tobytes() and np.float64(carried).tobytes() == scan[-1:].tobytes()
    # the carry folded in first: a tie goes to the carry, which changes
    # only the sign of a zero that ties a zero carry
    folded = np.minimum.accumulate(np.minimum(excess, carry))
    assert np.array_equal(out, folded)
    if not np.any((excess == 0) & (carry == 0) & (np.signbit(excess) != np.signbit(carry))):
        assert out.tobytes() == folded.tobytes()


class _Row:
    """A cumulative curve given as a row, with the ``fill`` of :class:`_Arrivals`."""

    def __init__(self, row):
        self.row, self.at = row, 0

    def fill(self, t, out):
        out[:] = self.row[self.at:self.at + len(out)]
        self.at += len(out)
        return out


class _Egress:
    """A reduction to its prefix's egress over every slot."""

    def __init__(self, warmup=0, total=0):
        self.parts = []

    def add(self, lo, ingress, egress):
        self.parts.append(egress.copy())

    def result(self):
        return np.concatenate(self.parts)


class _Both:
    """A reduction that hands every chunk to each of ``reductions``."""

    def __init__(self, *reductions):
        self.reductions = reductions

    def add(self, *chunk):
        for r in self.reductions:
            r.add(*chunk)

    def result(self):
        return tuple(r.result() for r in self.reductions)


def _run(thr, hops, reductions):
    """The engine over the through curve ``thr``, given as a row, and ``hops``:
    each reduction's result."""
    _tandem(_Row(thr), hops, len(thr), reductions)
    return {h: r.result() for h, r in reductions.items()}


def _split(thr, cross, capacity, keep):
    """The engine's largest queue, D_total (NaN unless ``keep``) and
    D_through over one hop."""
    hop = _Hop(cross, capacity, len(thr) if keep else None)
    out = _run(thr, [hop], {1: _Egress()})[1]
    return hop.max_queue, hop.rows[1] if keep else np.full(len(thr), np.nan), out


# 2**16 + 3 slots: several full chunks and a short one, which at load 1.5
# are all busy but for slot 0; at load 0 no chunk has a busy slot, and at
# 0.3 or 0.9 a chunk has busy and idle slots
hop_inputs = dict(
    slots=st.sampled_from([1, 2, 37, 300, (1 << 16) + 3]),
    loads=st.lists(st.sampled_from([0.0, 0.3, 0.9, 1.5]), min_size=1, max_size=4),
    capacity=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)


@given(**hop_inputs, peak=st.integers(1, 9), keep=st.booleans())
@settings(max_examples=60, deadline=None)
def test_hop_split_equals_every_slot_search_on_integer_curves(slots, loads, capacity, seed, peak, keep):
    thr, cross, arrivals = _curves(*_hop_input(slots, loads, capacity, peak, seed), peak)
    queue, dep, dep_thr = _split_every_slot(thr, cross, capacity)
    max_queue, dep_total, out = _split(thr, arrivals, capacity, keep)
    assert np.array_equal(out, dep_thr)
    assert max_queue == queue.max()
    if keep:
        assert np.array_equal(dep_total, dep)


# Slot 40887 of the example has a queue of 7.3e-12 bits, a rounding residue,
# before a stretch without arrivals: a search that does not stop at the slot
# reads into that stretch and puts D_through one ulp above thr_cum.
@given(**hop_inputs, peak=st.floats(0.01, 10.0), rate_scale=st.floats(0.3, 3.0))
@example(slots=(1 << 16) + 3, loads=[0.3, 1.5, 0.0, 0.9], capacity=1, seed=196,
         peak=2.4439031555215096, rate_scale=2.4439031555215096)
@settings(max_examples=60, deadline=None)
def test_hop_split_is_thr_cum_at_idle_slots_for_real_rates(slots, loads, capacity, seed, peak,
                                                          rate_scale):
    capacity *= rate_scale  # a real capacity against real peak rates
    thr, cross, arrivals = _curves(*_hop_input(slots, loads, capacity, peak, seed), peak)
    queue, _, dep_thr = _split_every_slot(thr, cross, capacity)
    max_queue, _, out = _split(thr, arrivals, capacity, False)
    idle = queue == 0
    assert np.array_equal(out[idle], thr[idle])
    assert np.array_equal(out[~idle], dep_thr[~idle])
    assert np.all(out <= thr)
    assert max_queue == queue.max()


@pytest.mark.parametrize("chunk", [7, 1 << 17])
def test_hop_split_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # the pinned example above: with chunks of 2**17 slots, a search that is
    # not capped at the slot runs from slot 40887 past the stretch without
    # arrivals, and out[40887] came out one ulp above thr_cum; with chunks
    # of 7 slots the searches reach back over many chunks
    rate = 2.4439031555215096
    thr_n, cross_n = _hop_input((1 << 16) + 3, [0.3, 1.5, 0.0, 0.9], rate, rate, 196)
    thr = reference_arrival_curve(thr_n, rate)
    expected = _split(thr, _closed_form(cross_n, rate), rate, True)
    monkeypatch.setattr(simulator, "_CHUNK", chunk)
    got = _split(thr, _closed_form(cross_n, rate), rate, True)  # a closed form is read once
    assert got[0] == expected[0]
    assert all(np.array_equal(a, b) for a, b in zip(got[1:], expected[1:]))
    assert np.all(got[2] <= thr)


@pytest.mark.parametrize("load", [0.7, 0.98])
def test_replication_does_not_depend_on_the_chunk_size(monkeypatch, load):
    # the whole chain, one chunk at a time through every hop: exceedance
    # counts, samples, their summaries and upper tails, and kept curves of
    # each prefix of a 3-hop run, with
    # chunks of 7 slots (every busy period crosses chunk edges), of 2**14
    # (the engine's) and of 2**17 (one chunk); at load 0.98 a busy period
    # spans both 2**14-slot chunk edges at every hop, and its seed is the
    # first from 0 on whose paths do so
    source = MmooParams(peak_rate=8.0, r_on_off=0.05, r_off_on=0.08)
    sc = SimScenario(hops=3, capacity_per_slot=8 * source.mean_rate / load, through_count=4,
                     cross_count=4, source=source, measure_slots=33_000, warmup_slots=100,
                     base_seed={0.7: 0, 0.98: 1}[load])
    checks = (("delay", 0.0), ("delay", 2.5), ("delay", 30.0), ("backlog", 0.0), ("backlog", 40.0))

    def counts_and_samples(warmup, total):
        return _Both(Exceedances(checks, warmup, total), Samples(warmup, total),
                     SampleStats(warmup, total), UpperTails(5000, warmup, total))

    runs, reduce = {}, dict.fromkeys((1, 2, 3), counts_and_samples)
    for chunk in (7, 1 << 14, 1 << 17):
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        runs[chunk] = simulate_replication(sc, 0, keep_hops=True, reduce=reduce)
    if load == 0.98:
        for hop in runs[1 << 14].hops:
            queue = hop.arrivals_total - hop.departures_total
            assert all(queue[edge - 1] > 0 and queue[edge] > 0 for edge in (1 << 14, 2 << 14))
    expected = runs.pop(1 << 14)
    assert all(expected.reduced[h][0][1] > 0 for h in (1, 2, 3))
    for run in runs.values():
        for h in (1, 2, 3):
            (counts, samples, stats, tails), expected_h = run.reduced[h], expected.reduced[h]
            assert counts == expected_h[0] and stats == expected_h[2]
            assert all(np.array_equal(a, b) for a, b in zip(samples, expected_h[1]))
            assert all(np.array_equal(a, b) for tail, expected_tail in zip(tails, expected_h[3])
                       for a, b in zip(tail, expected_tail))
        for hop, expected_hop in zip(run.hops, expected.hops):
            assert all(np.array_equal(getattr(hop, f), getattr(expected_hop, f)) for f in HopTrace.__slots__)


def test_hop_split_when_the_queue_drains_in_the_last_slot():
    # 5 bits in slot 0 against a capacity of 4: one bit waits and leaves in
    # slot 1, the last one
    thr, cross, arrivals = _curves([3, 0], [2, 0], 1.0)
    max_queue, dep_total, out = _split(thr, arrivals, 4.0, True)
    assert max_queue == 1.0
    assert np.array_equal(dep_total, [0.0, 4.0, 5.0])
    assert np.array_equal(out, [0.0, 2.0, 3.0])  # cross bits first
    assert np.array_equal(out, _split_every_slot(thr, cross, 4.0)[2])


@pytest.mark.parametrize("start, busy_slots", [
    (0, (1 << 14) - 1), (0, 1 << 14), (0, (1 << 14) + 1),
    (0, (2 << 14) - 1), (0, 2 << 14), (0, (2 << 14) + 1),
    ((1 << 14) - 1, (1 << 14) - 1), ((1 << 14) - 1, (1 << 14) + 1),
])
def test_busy_period_across_chunk_boundaries(start, busy_slots):
    # one bit of through and of cross traffic per slot against a capacity of
    # 3, plus a burst in slot ``start`` that keeps hop 1 busy at the
    # ``busy_slots`` boundaries after it, so its busy period ends next to a
    # chunk edge (chunks are 2**14 slots); hop 2 gets the through departures
    # and its own cross bit per slot, and is busy too
    total = start + busy_slots + 40
    through, crosses = np.ones(total), [np.ones(total), np.ones(total)]
    burst = busy_slots + 1  # the queue drains one bit per slot
    crosses[0][start] += burst // 2
    through[start] += burst - burst // 2
    ingress, egress, dep_thr, arr_tot, dep_tot = reference_curves(through, crosses, 3.0)
    thr_cum = np.concatenate([[0.0], np.cumsum(through)])
    hops = [_Hop(_closed_form(cross, 1.0), 3.0, total + 1) for cross in crosses]
    delays, backlogs = _run(thr_cum, hops, {2: Samples(0, total)})[2]
    for h, hop in enumerate(hops):
        assert np.array_equal(hop.rows[1], dep_tot[h])
        assert np.array_equal(hop.rows[3], dep_thr[h])
    assert np.count_nonzero(arr_tot[0] - dep_tot[0]) == busy_slots
    t = np.arange(1, total + 1)
    assert np.array_equal(backlogs, ingress[t] - egress[t])
    # delays of thousands of slots, too long for virtual_delays' scan
    every_slot = np.maximum(t + 1 - np.searchsorted(ingress, egress[t], side="right"), 0)
    assert np.array_equal(delays, every_slot) and np.count_nonzero(delays) == busy_slots


def test_hop_split_at_real_rates_over_a_busy_period_of_three_chunks():
    # one through and one cross count per slot at a real peak rate against a
    # capacity 0.37 bits a slot above their sum, and a burst in slot 5 that
    # drains over 3.2 chunks; at the first chunk boundary the split's search
    # reaches 5130 slots back, beyond the room its scratch leaves
    peak, chunk = 1.3, 1 << 14
    capacity = 2 * peak + 0.37
    thr_n, cross_n = (np.ones(4 * chunk + 100, dtype=np.int64) for _ in range(2))
    burst = round(0.37 * 3.2 * chunk / peak)
    thr_n[5] += burst // 2
    cross_n[5] += burst - burst // 2
    thr, cross, arrivals = _curves(thr_n, cross_n, peak)
    queue, dep, dep_thr = _split_every_slot(thr, cross, capacity)
    busy = np.flatnonzero(queue > 0)
    assert busy[0] == 6 and busy[-1] > 3 * chunk and len(busy) == busy[-1] - 5
    max_queue, dep_total, out = _split(thr, arrivals, capacity, True)
    assert np.array_equal(out, dep_thr) and np.array_equal(dep_total, dep)
    assert max_queue == queue.max()


@given(**hop_inputs, peak=st.one_of(st.integers(1, 9).map(float), st.floats(0.01, 10.0)),
       warmup=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_delays_equal_every_slot_search(slots, loads, capacity, seed, peak, warmup):
    thr_n, cross_n = _hop_input(slots + warmup, loads, capacity, peak, seed)
    ingress = reference_arrival_curve(thr_n, peak)
    egress = _split(ingress, _closed_form(cross_n, peak), capacity, False)[2]
    n = len(ingress)
    hop = _Hop(_closed_form(cross_n, peak), capacity)  # a closed form is read once
    delays, backlogs = _run(ingress, [hop], {1: Samples(warmup, n - 1)})[1]
    t = np.arange(warmup + 1, n)
    assert np.array_equal(backlogs, ingress[t] - egress[t])
    every_slot = np.maximum(t + 1 - np.searchsorted(ingress, egress[t], side="right"), 0)
    assert delays.dtype == np.int64 and np.array_equal(delays, every_slot)


short_decimal = st.integers(1, 999).map(lambda k: k / 10)  # 6.4, 73.2, ...


@given(peak=st.one_of(short_decimal, st.floats(0.01, 100.0)),
       util=st.one_of(st.none(), st.floats(0.3, 0.98)),
       capacity=short_decimal,
       hops=st.integers(1, 3), through=st.integers(1, 4), cross=st.integers(0, 4),
       seed=st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_inverted_curves_are_nondecreasing(peak, util, capacity, hops, through, cross, seed):
    # the precondition of the right-sided searches that both inversions use
    # at their busy slots: the hop split inverts a hop's total arrivals and the delay
    # inversion inverts the ingress
    source = MmooParams(peak_rate=peak, r_on_off=0.2, r_off_on=0.15)
    if util is not None:
        capacity = (through + cross) * source.mean_rate / util
    scenario = SimScenario(hops=hops, capacity_per_slot=capacity, through_count=through,
                           cross_count=cross, source=source, measure_slots=300,
                           warmup_slots=20, base_seed=seed)
    trace = simulate_replication(scenario, 0, keep_hops=True)
    assert np.all(np.diff(trace.ingress) >= 0)
    for hop in trace.hops:
        assert np.all(np.diff(hop.arrivals_total) >= 0)


# ---------------------------------------------------------------------------
# exceedance counts read off the end-to-end curves
# ---------------------------------------------------------------------------

def _thresholds(draw, samples, horizon):
    """Sample values and their float neighbours on both sides, 0, negative
    values, +inf, NaN, values above the horizon and arbitrary floats."""
    at = st.sampled_from(sorted(set(samples.tolist())))
    near = at.flatmap(lambda v: st.sampled_from([v, math.nextafter(v, -math.inf),
                                                 math.nextafter(v, math.inf)]))
    fixed = st.sampled_from([0.0, -0.0, -0.5, -1.0, -1e300, -math.inf, math.inf, math.nan,
                             horizon, horizon + 0.5, horizon + 1.0, 1e300])
    return draw(st.lists(st.one_of(near, fixed, st.floats(-10.0, 2.0 * horizon)), min_size=1, max_size=12))


@given(sim_settings, st.one_of(st.just(0), st.integers(1, 40)), st.data())
@settings(max_examples=150, deadline=None)
def test_curve_counts_equal_sample_counts(cfg, warmup, data):
    sc = _build(cfg).replace(warmup_slots=warmup)
    hops = range(1, sc.hops + 1)
    kept = simulate_replication(sc, 0, reduce=dict.fromkeys(hops, Samples)).reduced
    horizon = float(warmup + sc.measure_slots)
    thresholds = {h: (_thresholds(data.draw, kept[h][0], horizon),
                      _thresholds(data.draw, kept[h][1], horizon)) for h in hops}

    def counts_and_samples(h, warmup, total):
        delay_t, backlog_t = thresholds[h]
        checks = tuple(("delay", t) for t in delay_t) + tuple(("backlog", t) for t in backlog_t)
        return _Both(Exceedances(checks, warmup, total), Samples(warmup, total))

    trace = simulate_replication(sc, 0, reduce={h: partial(counts_and_samples, h) for h in hops})
    for h in hops:
        counts, samples = trace.reduced[h]
        delay_counts = list(counts[:len(thresholds[h][0])])
        backlog_counts = list(counts[len(thresholds[h][0]):])
        delays, backlogs = kept[h]
        assert delay_counts == [int(np.count_nonzero(delays > t)) for t in thresholds[h][0]]
        assert backlog_counts == [int(np.count_nonzero(backlogs > t)) for t in thresholds[h][1]]
        # counting in the same pass leaves the chunks, and so the samples, as they were
        assert np.array_equal(samples[0], delays) and np.array_equal(samples[1], backlogs)
