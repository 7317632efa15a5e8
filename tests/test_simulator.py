import dataclasses
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sncalc import (
    MmooParams,
    StabilityError,
    SimScenario,
    simulate_replication,
    simulate_tandem,
    validate_samples,
)
from sncalc.simulator import (EndToEnd, _hop_curves, _on_count, _on_runs, _search_right, _source_rng,
                              stationary_on_state, validate_exceedances)
from helpers import ReferenceTandem, mmoo_source_step, reference_curves, virtual_delays

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
        params = MmooParams(peak_rate=3.0, r_on_off=5.0, r_off_on=5.0)
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
        counts = _on_count(123, 0, 0, 8, VOICE, 1_250_000)
        rate = 64.0 * counts.mean() / 8
        assert rate == pytest.approx(25.6, rel=1e-2)


class TestRunGeneration:
    def test_runs_match_stepwise_statistics(self):
        # both generators realize the same chain, whose equilibrium on
        # fraction is p01/(p10+p01) with p = 1 - e^{-rate}
        params = MmooParams(peak_rate=1.0, r_on_off=0.2, r_off_on=0.1)
        p10, p01 = -np.expm1(-0.2), -np.expm1(-0.1)
        equilibrium = p01 / (p10 + p01)
        total = 200_000
        counts = _on_count(7, 0, 0, 1, params, total)
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
        two = _on_count(5, 0, 1, 2, params, 5000)
        three = _on_count(5, 0, 1, 3, params, 5000)
        third_alone = np.zeros(5001, dtype=np.int64)
        s, e = _on_runs(_source_rng(5, 0, 1, 2), params, 5000)
        np.add.at(third_alone, s, 1)
        np.add.at(third_alone, e, -1)
        assert np.array_equal(three, two + np.cumsum(third_alone[:5000]))


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
        through = [peak * int(c) for c in _on_count(scenario.base_seed, 0, 0, n, source, total)]
        crosses = [[peak * int(c) for c in _on_count(scenario.base_seed, 0, h, m, source, total)]
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
        keep = dict.fromkeys((1, 2, 3), lambda e2e: tuple(s.copy() for s in e2e.samples()))
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
        trace = simulate_replication(sc, 0, reduce={2: lambda e2e: e2e.measured_slots})
        assert trace.reduced == {2: sc.measure_slots}


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

    def test_backlog_guard_aborts(self):
        # utilization ~0.95 passes the load pre-check, but the tiny guard
        # trips on normal queue excursions
        sc = small_scenario(capacity_per_slot=26.0, backlog_guard_bits=50.0,
                            measure_slots=5000)
        with pytest.raises(StabilityError, match="guard"):
            simulate_tandem(sc)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -1.0, 0.0])
    def test_capacity_must_be_finite_and_positive(self, capacity):
        with pytest.raises(ValueError, match="capacity_per_slot"):
            small_scenario(capacity_per_slot=capacity)

    @pytest.mark.parametrize("guard", [float("nan"), -1.0, 0.0])
    def test_backlog_guard_must_be_positive(self, guard):
        with pytest.raises(ValueError, match="backlog_guard_bits"):
            small_scenario(backlog_guard_bits=guard)

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
# curve inversions: only the busy slots, against a search on every slot
# ---------------------------------------------------------------------------

@st.composite
def search_inputs(draw):
    """A nondecreasing haystack with flat runs (one may end it) and keys in
    any order at, between, below and above its values."""
    steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=2, max_size=300))
    steps += [0.0] * draw(st.integers(0, 5))
    a = draw(st.floats(-1e3, 1e3)) + np.cumsum(steps)
    kinds = st.sampled_from(["value", "between", "below", "above"])
    keys = []
    for _ in range(draw(st.integers(1, 300))):
        kind, k = draw(kinds), draw(st.integers(0, len(a) - 1))
        keys.append({"value": a[k], "between": (a[k] + a[min(k + 1, len(a) - 1)]) / 2,
                     "below": a[0] - 1.0, "above": a[-1] + 1.0}[kind])
    return a, np.array(keys)


@given(search_inputs())
@settings(max_examples=300, deadline=None)
def test_search_right_equals_searchsorted(inputs):
    a, v = inputs
    assert np.array_equal(_search_right(a, v), np.searchsorted(a, v, side="right"))


def _hop_input(slots, loads, capacity, peak, seed):
    """Cumulative through and cross arrivals (index = slot boundary) over
    ``slots`` slots, in equal stretches at the offered ``loads`` (mean
    arrivals per slot over capacity); a load of 0 sends nothing.  As in the
    simulator, a curve is an integer count times ``peak``."""
    rng = np.random.default_rng(seed)
    load = np.repeat(loads, -(-slots // len(loads)))[:slots]
    thr, cross = (peak * np.concatenate([[0], np.cumsum(rng.poisson(load * capacity / (2 * peak)))])
                  for _ in range(2))
    return thr, cross


def _split_every_slot(thr, cross, capacity):
    """The FIFO hop split searched at every slot, busy or idle: the queue,
    D_total and D_through = clip(D - cross[e], thr[e - 1], thr[e])."""
    arr = thr + cross
    excess = arr - np.arange(len(arr)) * capacity
    queue = excess - np.minimum.accumulate(excess)
    dep = arr - queue
    e = np.searchsorted(arr, dep, side="right")
    lower = thr[e - 1]
    e = np.minimum(e, len(arr) - 1)
    return queue, dep, np.clip(dep - cross[e], lower, thr[e])


def _split(thr, cross, capacity, keep):
    arr, dep, out = (np.full(len(thr), np.nan) for _ in range(3))
    max_queue = _hop_curves(thr, cross, np.arange(len(thr)) * capacity, arr, dep, out, keep)
    return max_queue, arr, dep, out


# 2**16 + 3 slots: several full chunks and a short one, which at load 1.5
# are all busy but for slot 0; at load 0 no chunk has a busy slot, and at
# 0.3 or 0.9 a chunk is mostly idle (searched at its busy slots) or mostly
# busy (on its whole slice)
hop_inputs = dict(
    slots=st.sampled_from([1, 2, 37, 300, (1 << 16) + 3]),
    loads=st.lists(st.sampled_from([0.0, 0.3, 0.9, 1.5]), min_size=1, max_size=4),
    capacity=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)


@given(**hop_inputs, peak=st.integers(1, 9), keep=st.booleans())
@settings(max_examples=60, deadline=None)
def test_hop_split_equals_every_slot_search_on_integer_curves(slots, loads, capacity, seed, peak, keep):
    thr, cross = _hop_input(slots, loads, capacity, peak, seed)
    queue, dep, dep_thr = _split_every_slot(thr, cross, capacity)
    max_queue, arr, dep_total, out = _split(thr, cross, capacity, keep)
    assert np.array_equal(arr, thr + cross)
    assert np.array_equal(out, dep_thr)
    assert max_queue == queue.max()
    if keep:
        assert np.array_equal(dep_total, dep)


@given(**hop_inputs, peak=st.floats(0.01, 10.0), rate_scale=st.floats(0.3, 3.0))
@settings(max_examples=60, deadline=None)
def test_hop_split_is_thr_cum_at_idle_slots_for_real_rates(slots, loads, capacity, seed, peak,
                                                          rate_scale):
    capacity *= rate_scale  # a real capacity against real peak rates
    thr, cross = _hop_input(slots, loads, capacity, peak, seed)
    queue, _, dep_thr = _split_every_slot(thr, cross, capacity)
    max_queue, _, _, out = _split(thr, cross, capacity, False)
    idle = queue == 0
    assert np.array_equal(out[idle], thr[idle])
    assert np.array_equal(out[~idle], dep_thr[~idle])
    assert max_queue == queue.max()


def test_hop_split_when_the_queue_drains_in_the_last_slot():
    # 5 bits in slot 0 against a capacity of 4: one bit waits and leaves in
    # slot 1, the last one
    thr, cross = np.array([0.0, 3.0, 3.0]), np.array([0.0, 2.0, 2.0])
    max_queue, _, dep_total, out = _split(thr, cross, 4.0, True)
    assert max_queue == 1.0
    assert np.array_equal(dep_total, [0.0, 4.0, 5.0])
    assert np.array_equal(out, [0.0, 2.0, 3.0])  # cross bits first
    assert np.array_equal(out, _split_every_slot(thr, cross, 4.0)[2])


@given(**hop_inputs, peak=st.one_of(st.integers(1, 9).map(float), st.floats(0.01, 10.0)),
       warmup=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_delays_equal_every_slot_search(slots, loads, capacity, seed, peak, warmup):
    ingress, cross = _hop_input(slots + warmup, loads, capacity, peak, seed)
    egress = _split(ingress, cross, capacity, False)[3]
    n = len(ingress)
    e2e = EndToEnd(ingress, egress, warmup, np.full(n, -7, dtype=np.int64), np.full(n, np.nan))
    delays, backlogs = e2e.samples()
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
    # the precondition of _search_right, which both inversions use at their
    # busy slots: the hop split inverts a hop's total arrivals and the delay
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
    sc = dataclasses.replace(_build(cfg), warmup_slots=warmup)
    hops = range(1, sc.hops + 1)
    kept = simulate_replication(sc, 0, reduce=dict.fromkeys(
        hops, lambda e2e: tuple(s.copy() for s in e2e.samples()))).reduced
    horizon = float(warmup + sc.measure_slots)
    thresholds = {h: (_thresholds(data.draw, kept[h][0], horizon),
                      _thresholds(data.draw, kept[h][1], horizon)) for h in hops}

    def counts_then_samples(h, e2e):
        delay_t, backlog_t = thresholds[h]
        counts = ([e2e.delay_exceedances(t) for t in delay_t],
                  [e2e.backlog_exceedances(t) for t in backlog_t])
        return counts, tuple(s.copy() for s in e2e.samples())

    trace = simulate_replication(sc, 0, reduce={h: partial(counts_then_samples, h) for h in hops})
    for h in hops:
        (delay_counts, backlog_counts), samples = trace.reduced[h]
        delays, backlogs = kept[h]
        assert delay_counts == [int(np.count_nonzero(delays > t)) for t in thresholds[h][0]]
        assert backlog_counts == [int(np.count_nonzero(backlogs > t)) for t in thresholds[h][1]]
        # counting leaves the samples as they were
        assert np.array_equal(samples[0], delays) and np.array_equal(samples[1], backlogs)
