import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sncalc import (
    Aggregate,
    ConstantRate,
    ConstantServer,
    HorizonError,
    Leftover,
    MmooParams,
    MmooTraffic,
    NetworkPath,
    StabilityError,
    ThetaSearchConfig,
    backlog_bound,
    backlog_violation_at_theta,
    closed_form_backlog,
    closed_form_delay,
    delay_bound,
    delay_violation_at_theta,
    minimize_over_theta,
    stability_margin,
    traffic_effective_bandwidth,
)
from sncalc.bounds import INFINITE_HORIZON as INF
from sncalc.bounds import _log_grid, _log_run_sum
from helpers import brute_force_tail_sum, exhaustive_grid_min

VOICE = MmooParams(peak_rate=64.0, r_on_off=0.0025, r_off_on=1.0 / 600.0)

# hand-derived geometric-series anchors for constant alpha=1, beta=2, theta=1:
#   backlog, x=10:  e^{-5} / (1 - e^{-1/2})
#   delay,   d=3:   e^{-3} / (1 - e^{-1/2})
BACKLOG_ANCHOR = math.exp(-5.0) / (1.0 - math.exp(-0.5))   # 0.0171244524...
DELAY_ANCHOR = math.exp(-3.0) / (1.0 - math.exp(-0.5))     # 0.1265335396...


def unit_path(hops=1, capacity=2.0):
    return NetworkPath(ConstantRate(1.0), (ConstantServer(capacity),) * hops)


def pinned_theta(theta=1.0):
    # a degenerate-width window to evaluate bounds "at" one theta
    return ThetaSearchConfig(theta * (1 - 1e-9), theta * (1 + 1e-9), 8, 1e-7)


class TestViolationAtTheta:
    def test_backlog_geometric_anchor(self):
        got = backlog_violation_at_theta(unit_path(), 10.0, INF, 1.0)
        assert got == pytest.approx(BACKLOG_ANCHOR, rel=1e-12)
        assert got == pytest.approx(0.017125, rel=1e-4)

    def test_backlog_finite_horizon_matches_geometric(self):
        # truncating at 1e4 slots leaves a vanishing tail
        inf_val = backlog_violation_at_theta(unit_path(), 10.0, INF, 1.0)
        fin_val = backlog_violation_at_theta(unit_path(), 10.0, 10_000, 1.0)
        assert fin_val == pytest.approx(inf_val, rel=1e-9)

    def test_backlog_zero_threshold_drops_decay_factor(self):
        p = unit_path()
        base = backlog_violation_at_theta(p, 0.0, INF, 1.0)
        shifted = backlog_violation_at_theta(p, 4.0, INF, 1.0)
        assert shifted == pytest.approx(base * math.exp(-2.0), rel=1e-12)

    def test_zero_margin_finite_horizon_counts_terms(self):
        # alpha == beta: every term is 1, the raw bound is t + 1
        p = NetworkPath(ConstantRate(1.0), (ConstantServer(1.0),))
        raw = backlog_violation_at_theta(p, 0.0, 9, 1.0)
        assert raw == pytest.approx(10.0, rel=1e-12)
        assert min(1.0, raw) == 1.0

    def test_divergent_infinite_series_yields_trivial_bound(self):
        p = NetworkPath(ConstantRate(3.0), (ConstantServer(2.0),))
        assert backlog_violation_at_theta(p, 100.0, INF, 1.0) == 1.0
        assert delay_violation_at_theta(p, 5.0, INF, 1.0) == 1.0

    def test_delay_geometric_anchor(self):
        got = delay_violation_at_theta(unit_path(), 3.0, INF, 1.0)
        assert got == pytest.approx(DELAY_ANCHOR, rel=1e-12)
        assert got == pytest.approx(0.12653, rel=1e-4)

    def test_delay_zero_equals_backlog_zero_single_hop(self):
        p = unit_path()
        assert delay_violation_at_theta(p, 0.0, INF, 1.0) == \
            backlog_violation_at_theta(p, 0.0, INF, 1.0)

    def test_two_hop_homogeneous_hand_value(self):
        p = unit_path(hops=2)
        raw = delay_violation_at_theta(p, 0.0, INF, 1.0)
        assert raw == pytest.approx(1.0 / (1.0 - math.exp(-0.5)), rel=1e-12)
        assert min(1.0, raw) == 1.0

    def test_rejects_bad_arguments(self):
        p = unit_path()
        with pytest.raises(ValueError):
            backlog_violation_at_theta(p, -1.0, INF, 1.0)
        with pytest.raises(ValueError):
            delay_violation_at_theta(p, 5.0, 3, 1.0)
        with pytest.raises(ValueError):
            backlog_violation_at_theta(p, 1.0, INF, 0.0)


class TestHomogeneousCollapse:
    def test_backlog_collapse_is_exact(self):
        theta, x, hops = 0.8, 5.0, 4
        p = NetworkPath(ConstantRate(1.0), (ConstantServer(2.0),) * hops)
        for horizon in (INF, 500):
            log_s = _log_run_sum(0.5 * theta * (1.0 - 2.0), horizon)
            expected = math.exp(log_s - 0.5 * theta * x / hops)
            assert backlog_violation_at_theta(p, x, horizon, theta) == expected

    def test_delay_collapse_is_exact(self):
        theta, d, hops = 0.8, 2.0, 4
        p = NetworkPath(ConstantRate(1.0), (ConstantServer(2.0),) * hops)
        for horizon in (INF, 500):
            tail = horizon if math.isinf(horizon) else horizon - d
            log_s = _log_run_sum(0.5 * theta * (1.0 - 2.0), horizon)
            log_t = -0.5 * theta * d * 2.0 + _log_run_sum(0.5 * theta * (1.0 - 2.0), tail)
            expected = math.exp(((hops - 1) * log_s + log_t) / hops)
            assert delay_violation_at_theta(p, d, horizon, theta) == expected

    def test_heterogeneous_product_of_roots(self):
        theta, x = 0.6, 3.0
        caps = (2.0, 2.5, 3.0)
        p = NetworkPath(ConstantRate(1.0), tuple(ConstantServer(c) for c in caps))
        logs = [_log_run_sum(0.5 * theta * (1.0 - c), INF) for c in caps]
        expected = math.exp(math.fsum(logs) / 3 - 0.5 * theta * x / 3)
        got = backlog_violation_at_theta(p, x, INF, theta)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_mixed_service_types_invert_consistently(self):
        # a plain server next to a leftover server, exercised end to end
        src = MmooTraffic(VOICE)
        p = NetworkPath(
            Aggregate(10, src),
            (ConstantServer(400.0), Leftover(650.0, 8, src)),
        )
        for eps in (1e-2, 1e-5):
            res = backlog_bound(p, eps)
            assert res.stable_at_theta_star
            assert len(res.hop_margins) == 2 and res.hop_margins[0] != res.hop_margins[1]
            back = backlog_violation_at_theta(p, res.value, INF, res.theta_star)
            assert back <= eps * (1 + 1e-9)
            d = delay_bound(p, eps)
            tail = delay_violation_at_theta(p, d.value, INF, d.theta_star)
            assert min(1.0, tail) <= eps * (1 + 1e-9)


class TestSeriesSum:
    def test_finite_matches_brute_force(self):
        for r, n in [(-0.5, 200), (0.17, 300), (0.0, 9), (-3.0, 50)]:
            assert _log_run_sum(r, n) == pytest.approx(brute_force_tail_sum(r, n), rel=1e-12)

    @pytest.mark.parametrize("r", [1e-12, -1e-12, 50.0, -50.0, 750.0])
    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_finite_edge_ratios_match_brute_force(self, r, n):
        # 750 lies above expm1's overflow point: the sum must stay finite
        got = _log_run_sum(r, n)
        assert math.isfinite(got)
        assert got == pytest.approx(brute_force_tail_sum(r, n), rel=1e-12)

    def test_fractional_length_truncates(self):
        # the delay series runs over horizon - d slots, fractional for a
        # fractional d; the sum stops at the last whole slot
        for r in (-0.5, 0.17):
            assert _log_run_sum(r, 300 - 2.5) == pytest.approx(brute_force_tail_sum(r, 297), rel=1e-12)

    def test_truncation_convergence(self):
        # once the tail is negligible, doubling the horizon changes nothing
        s1 = _log_run_sum(-0.5, 100)
        s2 = _log_run_sum(-0.5, 200)
        assert abs(math.exp(s2) - math.exp(s1)) <= 1e-9 * math.exp(s1)


class TestMinimizeOverTheta:
    def test_quadratic_minimum(self):
        cfg = ThetaSearchConfig(0.1, 10.0)
        res = minimize_over_theta(lambda th: (th - 1.0) ** 2 + 3.0, cfg)
        assert res.theta_star == pytest.approx(1.0, rel=1e-3)
        assert res.value == pytest.approx(3.0, abs=1e-6)
        assert not res.at_boundary

    def test_monotone_objective_flags_boundary(self):
        cfg = ThetaSearchConfig(0.1, 10.0)
        res = minimize_over_theta(lambda th: 1.0 / th, cfg)
        assert res.at_boundary
        assert res.theta_star == pytest.approx(10.0, rel=1e-4)

    def test_flat_objective_prefers_smallest_theta(self):
        cfg = ThetaSearchConfig(0.5, 2.0)
        res = minimize_over_theta(lambda th: 5.0, cfg)
        assert res.theta_star == cfg.theta_min

    def test_all_infinite_raises_stability_error(self):
        cfg = ThetaSearchConfig(0.1, 10.0)
        with pytest.raises(StabilityError, match="stability"):
            minimize_over_theta(lambda th: math.inf, cfg)

    def test_matches_exhaustive_grid_on_bound_objective(self):
        # optimizer value within 0.5% of a 1e4-point exhaustive grid scan
        src = MmooTraffic(VOICE)
        result = closed_form_delay(781, src, 1953, src, 100_000.0, 1, 1e-9)
        cfg = ThetaSearchConfig(1e-13, 0.0056)

        def objective(th):
            margin = stability_margin(781, src, 1953, src, 100_000.0, th)
            if margin <= 0:
                return math.inf
            log_q = math.log(-math.expm1(-0.5 * th * margin))
            beta = 100_000.0 - 1953 * traffic_effective_bandwidth(src, th)
            return (2.0 / (th * beta)) * (-math.log(1e-9) - log_q)

        _, oracle_value = exhaustive_grid_min(objective, cfg, points=10_000)
        assert result.value == pytest.approx(oracle_value, rel=5e-3)

    @staticmethod
    def _preset_windows():
        from sncalc.scenario import builtin_preset_names, parse_scenario_file, resolve_scenario_path

        for name in builtin_preset_names():
            sc = parse_scenario_file(resolve_scenario_path(name))
            for n, m in sc.flow_points():
                cfg = sc.build_theta_search(sc.build_path(1, n, m))
                yield cfg.theta_min, cfg.theta_max, cfg.coarse_grid_points

    @staticmethod
    def _random_windows(count=500):
        rng = random.Random(11)
        for _ in range(count):
            lo = 10.0 ** rng.uniform(-20.0, 2.0)
            yield lo, lo * 10.0 ** rng.uniform(0.5, 15.0), rng.choice((8, 64, rng.randint(9, 300)))

    @pytest.mark.parametrize("windows", ["_preset_windows", "_random_windows"])
    def test_grid_tracks_numpy_geomspace(self, windows):
        # the pure-Python grid keeps numpy's exact endpoints; inside, a
        # one-ulp log10 difference is amplified by 10**y, so the comparison
        # is relative, not in ulps
        count = 0
        for lo, hi, points in getattr(self, windows)():
            grid = _log_grid(lo, hi, points)
            assert len(grid) == points and grid[0] == lo and grid[-1] == hi
            assert all(a < b for a, b in zip(grid, grid[1:]))
            reference = np.geomspace(lo, hi, points)
            assert all(abs(g - r) <= 1e-12 * r for g, r in zip(grid, reference.tolist()))
            count += 1
        assert count >= 20

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThetaSearchConfig(1.0, 0.5)
        with pytest.raises(ValueError):
            ThetaSearchConfig(0.1, 1.0, coarse_grid_points=4)


class TestBacklogBound:
    def test_hand_value_at_fixed_theta(self):
        # x(theta=1) = 2 * log( (1/eps) / (1 - e^{-1/2}) )
        res = backlog_bound(unit_path(), 0.1, INF, pinned_theta(1.0))
        expected = 2.0 * math.log(1.0 / (0.1 * (1.0 - math.exp(-0.5))))
        assert res.value == pytest.approx(expected, rel=1e-6)

    def test_bisection_oracle_agrees(self):
        # invert the violation curve numerically and compare
        res = backlog_bound(unit_path(), 0.1, INF, pinned_theta(1.0))
        lo, hi = 0.0, 100.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if backlog_violation_at_theta(unit_path(), mid, INF, 1.0) > 0.1:
                lo = mid
            else:
                hi = mid
        assert res.value == pytest.approx(hi, abs=1e-6)

    def test_inverse_consistency(self):
        for eps in (0.3, 1e-2, 1e-6):
            res = backlog_bound(unit_path(), eps)
            back = backlog_violation_at_theta(unit_path(), res.value, INF, res.theta_star)
            assert back <= eps * (1 + 1e-9)

    def test_epsilon_one_clamps_to_zero(self):
        res = backlog_bound(unit_path(), 1.0)
        assert res.value == 0.0
        assert res.violation_probability <= 1.0
        # with theta pinned the per-theta formula stays positive, so the
        # trivial-threshold clamp must kick in and be flagged
        pinned = backlog_bound(unit_path(), 1.0, INF, pinned_theta(1.0))
        assert pinned.value == 0.0
        assert pinned.clamped

    def test_per_theta_threshold_never_negative(self):
        from sncalc.bounds import _hop_runs, _per_hop_threshold
        # the inner series starts at 1, so even eps = 1 keeps the log >= 0
        p = unit_path()
        for theta in (0.3, 1.0, 4.0):
            assert _per_hop_threshold(p.through, _hop_runs(p), 1, INF, theta, math.log(1.0), False) >= 0.0

    def test_unstable_path_raises(self):
        p = NetworkPath(ConstantRate(5.0), (ConstantServer(4.0),))
        with pytest.raises(StabilityError):
            backlog_bound(p, 1e-3)


class TestDelayBound:
    def test_inverts_hand_anchor(self):
        # the real root of e^{-d} / (1 - e^{-1/2}) = 0.127
        res = delay_bound(unit_path(), 0.127, INF, pinned_theta(1.0))
        assert res.value == pytest.approx(2.9963203183236664, rel=1e-9)

    def test_epsilon_one_gives_zero(self):
        res = delay_bound(unit_path(), 1.0)
        assert res.value == 0.0

    def test_monotone_in_epsilon(self):
        d1 = delay_bound(unit_path(), 1e-2).value
        d2 = delay_bound(unit_path(), 1e-3).value
        assert d2 >= d1

    def test_result_consistency(self):
        res = delay_bound(unit_path(), 1e-3)
        tail = delay_violation_at_theta(unit_path(), res.value, INF, res.theta_star)
        assert min(1.0, tail) <= 1e-3 * (1 + 1e-9)
        if res.value >= 1:
            tail_below = delay_violation_at_theta(unit_path(), res.value - 1, INF, res.theta_star)
            assert min(1.0, tail_below) > 1e-3

    def test_horizon_too_small(self):
        # keep theta bounded so the 10-slot horizon cannot suppress the tail
        p = NetworkPath(ConstantRate(1.0), (ConstantServer(1.05),))
        with pytest.raises(HorizonError):
            delay_bound(p, 1e-9, horizon=10, theta_search=ThetaSearchConfig(1e-3, 1.0))

    def test_unstable_raises_stability_error(self):
        p = NetworkPath(ConstantRate(5.0), (ConstantServer(4.0),))
        with pytest.raises(StabilityError):
            delay_bound(p, 1e-3)


class TestClosedForms:
    def test_backlog_hand_value_at_fixed_theta(self):
        res = closed_form_backlog(1, ConstantRate(2.0), 0, None, 4.0, 1, 0.1, pinned_theta(1.0))
        expected = 2.0 * math.log(1.0 / (0.1 * (1.0 - math.exp(-1.0))))  # 5.52252...
        assert res.value == pytest.approx(expected, rel=1e-6)

    def test_delay_hand_value_at_fixed_theta(self):
        res = closed_form_delay(1, ConstantRate(2.0), 0, None, 4.0, 1, 0.1, pinned_theta(1.0))
        expected = 0.5 * math.log(1.0 / (0.1 * (1.0 - math.exp(-1.0))))  # 1.38063...
        assert res.value == pytest.approx(expected, rel=1e-6)

    def test_deterministic_underload_delay_shrinks_with_theta_max(self):
        # constant-rate under-capacity traffic: the infimum drifts to 0 as
        # the admissible theta range grows
        small = closed_form_delay(1, ConstantRate(2.0), 0, None, 4.0, 1, 0.1,
                                  ThetaSearchConfig(1e-6, 10.0))
        large = closed_form_delay(1, ConstantRate(2.0), 0, None, 4.0, 1, 0.1,
                                  ThetaSearchConfig(1e-6, 300.0))
        assert large.value < small.value
        assert large.at_theta_boundary

    def test_hop_scaling_exact_with_identical_theta(self):
        src = MmooTraffic(VOICE)
        base = closed_form_backlog(781, src, 1953, src, 100_000.0, 1, 1e-9)
        for hops in (2, 5, 10):
            scaled = closed_form_backlog(781, src, 1953, src, 100_000.0, hops, 1e-9)
            assert scaled.value == hops * base.value
            assert scaled.theta_star == base.theta_star
        d_base = closed_form_delay(781, src, 1953, src, 100_000.0, 1, 1e-9)
        d5 = closed_form_delay(781, src, 1953, src, 100_000.0, 5, 1e-9)
        assert d5.value == 5 * d_base.value

    def test_backlog_matches_general_bound(self):
        src = MmooTraffic(VOICE)
        for hops in (1, 3):
            cf = closed_form_backlog(50, src, 100, src, 8000.0, hops, 1e-6)
            path = NetworkPath(Aggregate(50, src), (Leftover(8000.0, 100, src),) * hops)
            general = backlog_bound(path, 1e-6)
            assert cf.value == pytest.approx(general.value, rel=1e-6)

    def test_delay_matches_general_bound_up_to_rounding(self):
        src = MmooTraffic(VOICE)
        cf = closed_form_delay(50, src, 100, src, 8000.0, 2, 1e-6)
        path = NetworkPath(Aggregate(50, src), (Leftover(8000.0, 100, src),) * 2)
        general = delay_bound(path, 1e-6)
        assert general.value == pytest.approx(cf.value, rel=1e-12)

    def test_delay_satisfies_implicit_inequality(self):
        # the real-valued closed-form threshold reproduces the target tail
        # exactly; its ceiling satisfies the original implicit inequality
        src = MmooTraffic(VOICE)
        for hops, eps in [(1, 1e-9), (4, 1e-4)]:
            cf = closed_form_delay(781, src, 1953, src, 100_000.0, hops, eps)
            path = NetworkPath(Aggregate(781, src), (Leftover(100_000.0, 1953, src),) * hops)
            tail = delay_violation_at_theta(path, cf.value, INF, cf.theta_star)
            assert tail == pytest.approx(eps, rel=1e-9)
            tail_int = delay_violation_at_theta(path, math.ceil(cf.value), INF, cf.theta_star)
            assert tail_int <= eps * (1 + 1e-9)

    def test_voice_network_bound_is_finite_and_stable(self):
        src = MmooTraffic(VOICE)
        res = closed_form_delay(781, src, 1953, src, 100_000.0, 1, 1e-9)
        assert 0 < res.value < 1e4
        assert res.stable_at_theta_star
        assert res.theta_star > 0

    def test_overload_raises(self):
        src = MmooTraffic(VOICE)
        with pytest.raises(StabilityError):
            closed_form_delay(3000, src, 3000, src, 100_000.0, 1, 1e-9)


class TestStabilityMargin:
    def test_voice_margin_near_mean_rates(self):
        src = MmooTraffic(VOICE)
        margin = stability_margin(781, src, 1953, src, 100_000.0, 1e-9)
        assert margin == pytest.approx(100_000.0 - 2734 * 25.6, rel=1e-3)

    def test_empty_network_returns_capacity(self):
        assert stability_margin(0, ConstantRate(1.0), 0, None, 42.0, 0.5) == 42.0

    def test_margin_nonincreasing_in_theta(self):
        src = MmooTraffic(VOICE)
        values = [stability_margin(10, src, 10, src, 1000.0, th)
                  for th in (1e-6, 1e-4, 1e-2, 1.0)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9


class TestQueries:
    def test_finite_horizon_query_records_truncation(self):
        p = unit_path()
        res = backlog_bound(p, 0.1, 500)
        assert res.truncation_horizon_used == 500
        inf_res = backlog_bound(p, 0.1)
        assert inf_res.truncation_horizon_used is None
        assert res.value == pytest.approx(inf_res.value, rel=1e-6)

    def test_finite_horizon_cost_is_horizon_independent(self):
        # the finite geometric sum is exact and O(1), so a horizon of 10**9
        # slots is as cheap as 10**4 and, the tails being negligible at
        # both, gives the same bounds
        src = MmooTraffic(VOICE)
        path = NetworkPath(Aggregate(781, src), (Leftover(100_000.0, 1953, src),) * 10)
        for horizon in (10**4, 10**9):
            assert delay_bound(path, 1e-9, horizon).value == 376.55895209193767
            assert backlog_bound(path, 1e-9, horizon).value == 11176303.247672644

    @pytest.mark.parametrize("hops", [1, 10])
    def test_finite_horizon_delay_is_a_valid_bound(self, hops):
        # the inversion bounds the last hop by its full-horizon series, so
        # the exact (horizon - d)-term tail at the returned d stays <= eps
        src = MmooTraffic(VOICE)
        path = NetworkPath(Aggregate(781, src), (Leftover(100_000.0, 1953, src),) * hops)
        res = delay_bound(path, 1e-9, 10**4)
        assert delay_violation_at_theta(path, res.value, 10**4, res.theta_star) <= 1e-9 * (1 + 1e-9)

    def test_objective_cost_is_hop_count_independent(self, monkeypatch):
        # each theta evaluates every run of equal hops once, so a
        # homogeneous path costs the same per theta at any hop count
        import sncalc.bounds as bounds
        calls = [0]
        real_capacity, real_search = bounds.service_effective_capacity, bounds.minimize_over_theta

        def capacity(*args):
            calls[0] += 1
            return real_capacity(*args)

        def search(objective, config):
            def counted(theta):
                before = calls[0]
                value = objective(theta)
                per_eval.add(calls[0] - before)
                return value
            return real_search(counted, config)

        monkeypatch.setattr(bounds, "service_effective_capacity", capacity)
        monkeypatch.setattr(bounds, "minimize_over_theta", search)
        src = MmooTraffic(VOICE)
        seen = {}
        for hops in (1, 21):
            per_eval = set()
            path = NetworkPath(Aggregate(781, src), (Leftover(100_000.0, 1953, src),) * hops)
            delay_bound(path, 1e-9, 10**4)
            seen[hops] = per_eval
        assert seen[1] == seen[21] == {1}

    def test_paths_accept_list_hops(self):
        p = NetworkPath(ConstantRate(1.0), [ConstantServer(2.0), ConstantServer(3.0)])
        assert p.hop_count == 2
        assert len(set(p.hops)) > 1
        assert isinstance(p.hops, tuple)


# ---------------------------------------------------------------------------
# randomized bound properties
# ---------------------------------------------------------------------------

@st.composite
def stable_voice_settings(draw):
    util = draw(st.floats(min_value=0.2, max_value=0.95))
    n = draw(st.integers(min_value=1, max_value=400))
    m = draw(st.integers(min_value=0, max_value=800))
    eps = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 1e-2]))
    hops = draw(st.integers(min_value=1, max_value=8))
    capacity = (n + m) * 25.6 / util
    return n, m, capacity, eps, hops


@given(stable_voice_settings())
@settings(max_examples=60, deadline=None)
def test_closed_form_results_are_clamped_and_stable(params):
    n, m, capacity, eps, hops = params
    src = MmooTraffic(VOICE)
    res = closed_form_delay(n, src, m, src, capacity, hops, eps)
    assert res.value >= 0
    assert 0 <= res.violation_probability <= 1
    assert res.stable_at_theta_star
