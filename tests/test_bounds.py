import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    default_theta_search,
    delay_bound,
    delay_violation_at_theta,
    minimize_over_theta,
    service_effective_capacity,
    stability_margin,
    traffic_effective_bandwidth,
)
from sncalc.bounds import INFINITE_HORIZON as INF
from sncalc.bounds import (_GRID_POINTS, _log_grid, _log_run_sum, default_theta_window, hop_sweep,
                           peak_rate_stable)
from helpers import (brute_force_tail_sum, exhaustive_grid_min, fluid_queue_quantile, fluid_queue_tail,
                     full_grid_minimize)

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
    return ThetaSearchConfig(theta * (1 - 1e-9), theta * (1 + 1e-9))


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
                yield cfg.theta_min, cfg.theta_max, _GRID_POINTS

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
        with pytest.raises(TypeError):  # the window is all there is to set
            ThetaSearchConfig(1e-9, 1e-2, 64)


def _assert_scan_matches_full_grid(objective, config):
    """The top-down scan's result equals the full-grid oracle's, error
    included; returns the scan's and the oracle's evaluation counts."""
    counts = []

    def counted(search):
        calls = []
        outcome = _outcome(search, lambda theta: calls.append(theta) or objective(theta), config)
        counts.append(len(calls))
        return outcome

    assert counted(minimize_over_theta) == counted(full_grid_minimize)
    return counts


def _plateau(theta):
    return max(1.0, abs(math.log(theta)))


def _finite_between(theta):
    return math.log(theta) ** 2 + 1.0 if 1e-2 < theta < 1e2 else math.inf


class TestTopDownScan:
    """The scan from theta_max down, stopping at the first rise, returns what
    a scan of the whole grid returns for a quasi-convex objective."""

    WINDOW = ThetaSearchConfig(1e-6, 1e6)

    @pytest.mark.parametrize("objective, expect_theta, boundary", [
        (lambda th: 5.0, 1e-6, True),                    # one plateau: theta_min still wins
        (_plateau, None, False),                         # a flat bottom: its smallest theta wins
        (_finite_between, 1.0, False),                   # +inf above and below a finite interval
        (lambda th: th, 1e-6, True),                     # minimum at the lower edge
        (lambda th: 1.0 / th, 1e6, True),                # minimum at the upper edge
        (lambda th: 1.0 / th if th < 1.0 else math.inf, None, False),  # +inf above, falling to it
    ])
    def test_hand_made_objectives(self, objective, expect_theta, boundary):
        scan_calls, full_calls = _assert_scan_matches_full_grid(objective, self.WINDOW)
        res = minimize_over_theta(objective, self.WINDOW)
        assert res.at_boundary == boundary and scan_calls <= full_calls
        if expect_theta is not None:
            assert res.theta_star == pytest.approx(expect_theta, rel=1e-5)

    def test_flat_bottom_keeps_its_smallest_theta(self):
        _assert_scan_matches_full_grid(_plateau, self.WINDOW)
        res = minimize_over_theta(_plateau, self.WINDOW)
        grid = _log_grid(self.WINDOW.theta_min, self.WINDOW.theta_max, _GRID_POINTS)
        first_flat = min(t for t in grid if _plateau(t) == 1.0)
        assert res.value == 1.0 and res.theta_star <= first_flat

    def test_all_infinite_raises(self):
        assert _assert_scan_matches_full_grid(lambda th: math.inf, self.WINDOW) == [_GRID_POINTS] * 2

    def test_minimum_at_the_top_costs_two_grid_points(self):
        grid = set(_log_grid(self.WINDOW.theta_min, self.WINDOW.theta_max, _GRID_POINTS))
        seen = []
        minimize_over_theta(lambda th: seen.append(th) or 1.0 / th, self.WINDOW)
        assert sum(th in grid for th in seen) == 2


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
        from sncalc.bounds import _log_terms
        from sncalc.envelopes import _PathEnvelopes
        # the inner series starts at 1, so the mean log-sum L is >= 0 and
        # even eps = 1 keeps the threshold share v = 2 (L - ln eps) / theta >= 0
        p = unit_path()
        for theta in (0.3, 1.0, 4.0):
            assert _log_terms(_PathEnvelopes(p.through, p.hops), (1.0,), INF, theta)[0] >= 0.0

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

    @pytest.mark.parametrize("n, m, stable", [(781, 781, True), (781, 782, False), (1, 0, True)])
    def test_peak_rate_stable_needs_every_hop(self, n, m, stable):
        # 1562 voice flows at 64 bits per slot fit 100 000; one more does not
        src = MmooTraffic(VOICE)
        fits = Leftover(100_000.0, m, src)
        path = NetworkPath(Aggregate(n, src), (fits,) * 3)
        assert peak_rate_stable(path) is stable
        assert not peak_rate_stable(NetworkPath(path.through, path.hops + (ConstantServer(63.0),)))


# each model kind's peak rate and one flow's burst, worked out by hand from
# its fields: an on-off flow's burst is peak_rate / r_on_off, or one slot's
# peak when it never leaves the on state; an aggregate of count flows has
# count times the peak and one flow's burst
ON_OFF = MmooParams(peak_rate=64.0, r_on_off=0.25, r_off_on=0.5)
STAYS_ON = MmooParams(peak_rate=64.0, r_on_off=0.0, r_off_on=0.5)
MODEL_KINDS = {
    "constant": (ConstantRate(40.0), 40.0, 40.0),
    "on-off": (MmooTraffic(ON_OFF), 64.0, 256.0),
    "stays-on": (MmooTraffic(STAYS_ON), 64.0, 64.0),
    "aggregate-constant": (Aggregate(3, ConstantRate(40.0)), 120.0, 40.0),
    "aggregate-on-off": (Aggregate(5, MmooTraffic(ON_OFF)), 320.0, 256.0),
    "aggregate-stays-on": (Aggregate(5, MmooTraffic(STAYS_ON)), 320.0, 64.0),
}
HOP_KINDS = [pytest.param(None, 0, id="constant-server")] + [
    pytest.param(cross, m, id=f"leftover-{m}x{cross}") for cross in MODEL_KINDS for m in (0, 2)]


@pytest.mark.parametrize("cross, m", HOP_KINDS)
@pytest.mark.parametrize("through", MODEL_KINDS)
def test_window_facts_of_every_model_kind(through, cross, m):
    # the window is (1e-9 / largest burst, 700 / largest peak) over the
    # through flow and each hop's cross flows, which a hop without cross
    # flows does not have; a path is peak-rate stable when each hop's
    # capacity covers its through peak plus its cross peaks
    model, peak, burst = MODEL_KINDS[through]
    peaks, bursts = [peak], [burst]
    if cross is None:
        hop = ConstantServer
    else:
        cross_model, cross_peak, cross_burst = MODEL_KINDS[cross]
        hop = lambda capacity: Leftover(capacity, m, cross_model)
        if m:
            peaks.append(m * cross_peak)
            bursts.append(cross_burst)
    tight = sum(peaks)
    path = NetworkPath(model, (hop(2 * tight), hop(tight)))
    assert default_theta_window(path) == (1e-9 / max(bursts), 700.0 / max(peaks))
    assert peak_rate_stable(path)
    below = math.nextafter(tight, 0.0)
    assert not peak_rate_stable(NetworkPath(model, (hop(2 * tight), hop(below))))
    assert not peak_rate_stable(NetworkPath(model, (hop(below), hop(2 * tight))))


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

    @staticmethod
    def _per_objective_call(monkeypatch, count, path):
        """The set of ``count()`` increments over each objective call of a
        delay search of ``path`` at a horizon of 10**4 slots."""
        import sncalc.bounds as bounds
        real_search, seen = bounds.minimize_over_theta, set()

        def search(objective, config):
            def counted(theta):
                before = count()
                value = objective(theta)
                seen.add(count() - before)
                return value
            return real_search(counted, config)

        monkeypatch.setattr(bounds, "minimize_over_theta", search)
        delay_bound(path, 1e-9, 10**4)
        return seen

    def test_objective_cost_is_hop_count_independent(self, monkeypatch):
        # each theta evaluates every run of equal hops once, so a
        # homogeneous path gets one beta per theta at any hop count
        from sncalc.envelopes import _PathEnvelopes
        betas, real_at = [0], _PathEnvelopes.at

        def at(self, theta):
            alpha, run_betas = real_at(self, theta)
            betas[0] += len(run_betas)
            return alpha, run_betas

        monkeypatch.setattr(_PathEnvelopes, "at", at)
        src = MmooTraffic(VOICE)
        for hops in (1, 21):
            path = NetworkPath(Aggregate(781, src), (Leftover(100_000.0, 1953, src),) * hops)
            assert self._per_objective_call(monkeypatch, lambda: betas[0], path) == {1}

    def test_through_and_cross_share_one_on_off_envelope(self, monkeypatch):
        # the through and cross flows of a voice path are one on-off source,
        # so each objective call evaluates its envelope once, not once each
        import sncalc.envelopes as envelopes
        calls, real_eb = [0], envelopes._mmoo_eb

        def eb(params, theta):
            calls[0] += 1
            return real_eb(params, theta)

        monkeypatch.setattr(envelopes, "_mmoo_eb", eb)
        src = MmooTraffic(VOICE)
        path = NetworkPath(Aggregate(781, src), (Leftover(100_000.0, 1953, src),) * 3)
        assert self._per_objective_call(monkeypatch, lambda: calls[0], path) == {1}

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


@st.composite
def heterogeneous_queries(draw):
    """A voice aggregate over 1-6 mixed constant-rate and leftover hops
    (runs of equal hops included), with a target, horizon and kind."""
    src = MmooTraffic(VOICE)
    n = draw(st.integers(min_value=1, max_value=300))
    hops = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if hops and draw(st.booleans()):
            hops.append(hops[-1])
            continue
        capacity = n * 25.6 / draw(st.floats(min_value=0.2, max_value=0.95))
        m = draw(st.integers(min_value=0, max_value=300))
        if draw(st.booleans()):
            hops.append(ConstantServer(capacity))
        else:
            hops.append(Leftover(capacity + m * 25.6 / draw(st.floats(min_value=0.3, max_value=0.95)), m, src))
    eps = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 1e-2, 1.0]))
    horizon = draw(st.sampled_from([INF, 10**4, 500]))
    return NetworkPath(Aggregate(n, src), hops), eps, horizon, draw(st.sampled_from(["backlog", "delay"]))


@given(heterogeneous_queries())
@settings(max_examples=150, deadline=None)
def test_diagnostics_match_the_per_theta_functions(query):
    # the achieved violation probability and the per-hop margins at theta*
    # are what the public per-theta functions and envelopes give there
    path, eps, horizon, kind = query
    bound, at_theta = {"backlog": (backlog_bound, backlog_violation_at_theta),
                       "delay": (delay_bound, delay_violation_at_theta)}[kind]
    try:
        res = bound(path, eps, horizon)
    except HorizonError:
        return  # no delay within the horizon: nothing to compare
    theta = res.theta_star
    assert res.violation_probability == min(1, max(0, at_theta(path, res.value, horizon, theta)))
    alpha = traffic_effective_bandwidth(path.through, theta)
    assert res.hop_margins == tuple(service_effective_capacity(hop, theta) - alpha for hop in path.hops)


def _outcome(fn, *args):
    """repr of a bound, or the type and message of the error it raises."""
    try:
        return repr(fn(*args))
    except (StabilityError, HorizonError) as exc:
        return type(exc), str(exc)


def _repeated(path, r):
    """``path`` with every hop replaced by ``r`` consecutive copies of itself."""
    return NetworkPath(path.through, tuple(hop for hop in path.hops for _ in range(r)))


def _assert_sweep_matches_per_path(path, repeats, kind, eps, horizon, search):
    bound = backlog_bound if kind == "backlog" else delay_bound
    swept = hop_sweep(path, repeats, kind, eps, horizon, search)
    assert len(swept) == len(repeats)
    for r, result in zip(repeats, swept):
        got = (type(result), str(result)) if isinstance(result, Exception) else repr(result)
        assert got == _outcome(bound, _repeated(path, r), eps, horizon, search)


@st.composite
def homogeneous_sweeps(draw):
    """One Leftover hop repeated over a list of hop counts with repeats and
    gaps, at a load from light to unstable, with a target, horizon and kind."""
    src = MmooTraffic(VOICE)
    n = draw(st.integers(min_value=1, max_value=400))
    m = draw(st.integers(min_value=0, max_value=800))
    capacity = (n + m) * 25.6 / draw(st.floats(min_value=0.2, max_value=1.1))
    one = NetworkPath(Aggregate(n, src), (Leftover(capacity, m, src),))
    hop_counts = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8))
    eps = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 1e-2, 1.0]))
    horizon = draw(st.sampled_from([INF, 10**4, 500]))
    search = draw(st.sampled_from([None, default_theta_search(one)]))
    return one, hop_counts, draw(st.sampled_from(["backlog", "delay"])), eps, horizon, search


@given(homogeneous_sweeps())
@settings(max_examples=150, deadline=None)
def test_hop_sweep_equals_per_path_inversion(sweep):
    # one theta search of the one-hop path gives, for every hop count, the
    # result or the error of the per-path call
    _assert_sweep_matches_per_path(*sweep)


@st.composite
def two_run_sweeps(draw):
    """A path of two runs of equal hops, a then b hops or the reverse, with
    repeats k: repeating every hop k times gives runs of a*k and b*k hops,
    whose shares count/H equal the path's own."""
    src = MmooTraffic(VOICE)
    n = draw(st.integers(min_value=1, max_value=300))
    first = ConstantServer(n * 25.6 / draw(st.floats(min_value=0.2, max_value=0.95)))
    m = draw(st.integers(min_value=0, max_value=300))
    second = Leftover(n * 25.6 / 0.9 + m * 25.6 / draw(st.floats(min_value=0.3, max_value=0.95)), m, src)
    hops = (first,) * draw(st.integers(1, 3)) + (second,) * draw(st.integers(1, 3))
    path = NetworkPath(Aggregate(n, src), hops[::-1] if draw(st.booleans()) else hops)
    repeats = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    eps = draw(st.sampled_from([1e-9, 1e-3, 1.0]))
    horizon = draw(st.sampled_from([INF, 10**4, 500]))
    return path, repeats, draw(st.sampled_from(["backlog", "delay"])), eps, horizon, None


@given(two_run_sweeps())
@settings(max_examples=100, deadline=None)
def test_hop_sweep_shares_heterogeneous_shapes_exactly(sweep):
    _assert_sweep_matches_per_path(*sweep)


def test_hop_sweep_searches_once_per_shape(monkeypatch):
    import sncalc.bounds as bounds
    searches = []
    real = bounds.minimize_over_theta
    monkeypatch.setattr(bounds, "minimize_over_theta",
                        lambda objective, config: searches.append(config) or real(objective, config))
    src = MmooTraffic(VOICE)
    one = NetworkPath(Aggregate(781, src), (Leftover(100_000.0, 1953, src),))
    # one search at every horizon: a finite-horizon delay checks H v* <= horizon after it
    for kind, horizon in [("backlog", INF), ("delay", INF), ("backlog", 10**4), ("delay", 10**4)]:
        searches.clear()
        hop_sweep(one, (1, 5, 2, 5, 21), kind, 1e-9, horizon)
        assert len(searches) == 1, (kind, horizon)
    with pytest.raises(ValueError):
        hop_sweep(one, (1,), "throughput", 1e-9)


@pytest.mark.parametrize("repeat", [0, -1, 2.5, True, "2", None])
def test_hop_sweep_rejects_a_repeat_that_is_not_a_positive_int(repeat):
    # the rule of every count: an int or numpy integer of at least 1, never a bool
    with pytest.raises(ValueError, match="each repeat must be an int >= 1"):
        hop_sweep(unit_path(), (1, repeat), "backlog", 1e-3)


def test_hop_sweep_takes_a_numpy_integer_repeat_as_its_int():
    # the very result of the int: Python floats throughout, no numpy scalar
    path = NetworkPath(ConstantRate(1.0), (ConstantServer(2.0), ConstantServer(3.0)))
    for kind in ("backlog", "delay"):
        by_numpy, by_int = hop_sweep(path, (np.int64(3), 3), kind, 1e-3)
        assert repr(by_numpy) == repr(by_int) and type(by_numpy.value) is float


@given(name=st.sampled_from(["desk-validation", "voice-fig3"]), hops=st.integers(1, 12),
       horizon=st.integers(10, 10**5), log_eps=st.floats(-12.0, -1.0))
@settings(max_examples=200, deadline=None)
def test_finite_horizon_delay_is_hop_count_times_the_share(name, hops, horizon, log_eps):
    # v is quasi-convex and the rule H v <= horizon is its sublevel set
    # {v <= horizon / H}, so an H-hop delay exists iff H v* <= horizon, and
    # is then H v*, bit for bit, at the one-hop theta*
    import sncalc.bounds as bounds
    from sncalc.envelopes import _PathEnvelopes
    from sncalc.scenario import parse_scenario_file, resolve_scenario_path
    sc = parse_scenario_file(resolve_scenario_path(name))
    n, m, eps = sc.traffic.through_flows, sc.traffic.cross_flows, 10.0 ** log_eps
    one, path = sc.build_path(1, n, m), sc.build_path(hops, n, m)
    share = bounds._search(_PathEnvelopes(one.through, one.hops), (1.0,), eps, horizon,
                           default_theta_search(one), "delay")
    if hops * share.value > horizon:
        with pytest.raises(HorizonError):
            delay_bound(path, eps, horizon)
        return
    res = delay_bound(path, eps, horizon)
    assert (res.value, res.theta_star) == (hops * share.value, share.theta_star)
    assert res.value == hops * delay_bound(one, eps, horizon).value
    assert delay_violation_at_theta(path, res.value, horizon, res.theta_star) <= eps * (1 + 1e-9)


@st.composite
def scan_paths(draw):
    """Paths over which :func:`hop_sweep`'s theta searches are checked: on-off
    (peak to mean ratio and switching rate log-uniform), constant-rate and
    aggregate through traffic over runs of leftover and constant-rate hops,
    at loads from light to unstable, with epsilon in [1e-12, 1]."""
    def traffic(constant):
        if constant:
            return ConstantRate(draw(st.floats(min_value=0.0, max_value=1e4)))
        peak, on, switching = (10.0 ** draw(st.floats(min_value=lo, max_value=hi))
                               for lo, hi in ((-2.0, 5.0), (-3.0, 0.0), (-5.0, 0.7)))
        return MmooTraffic(MmooParams(peak, (1.0 - on) * switching, on * switching))

    def mean(model):
        return model.rate if isinstance(model, ConstantRate) else model.params.mean_rate

    inner = traffic(draw(st.integers(0, 3)) == 0)
    count = draw(st.integers(min_value=1, max_value=2000))
    through = Aggregate(count, inner) if draw(st.booleans()) else inner
    load = (count if isinstance(through, Aggregate) else 1) * mean(inner)
    hops = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        run = draw(st.integers(min_value=1, max_value=3))
        utilization = draw(st.floats(min_value=0.05, max_value=1.2))
        if draw(st.booleans()):
            hops += [ConstantServer(max(load, 1e-3) / utilization)] * run
        else:
            cross, m = traffic(draw(st.integers(0, 3)) == 0), draw(st.integers(min_value=0, max_value=2000))
            hops += [Leftover(max(load + m * mean(cross), 1e-3) / utilization, m, cross)] * run
    hop_counts = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
    return [NetworkPath(through, hops * k) for k in hop_counts], draw(st.floats(min_value=1e-12, max_value=1.0))


# a finite horizon down to one slot: the log-sums are then finite geometric
# sums, which stay finite where the infinite ones diverge
@pytest.mark.parametrize("kind", ["backlog", "delay"])
@pytest.mark.parametrize("horizons", [st.just(INF), st.integers(min_value=1, max_value=10**6)],
                         ids=["infinite", "finite"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_scan_matches_the_full_grid_on_bound_objectives(kind, horizons, data):
    # every search hop_sweep makes returns the full-grid oracle's result
    import sncalc.bounds as bounds
    paths, eps = data.draw(scan_paths())
    horizon = data.draw(horizons)
    searches = []

    def checked(objective, config):
        searches.append(config)
        _assert_scan_matches_full_grid(objective, config)
        return minimize_over_theta(objective, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "minimize_over_theta", checked)
        for path in paths:
            hop_sweep(path, (1,), kind, eps, horizon)
    assert len(searches) == len(paths)


def test_cli_sweep_objective_evaluations(monkeypatch, capsys):
    # the two sweeps of the benchmark's cli-sweep pass: 1981 evaluations
    # with a scan of the whole grid, 846 with the top-down scan
    import sncalc.bounds as bounds
    from sncalc.cli import main
    calls = []
    real = bounds.minimize_over_theta

    def counted(objective, config):
        return real(lambda theta: calls.append(theta) or objective(theta), config)

    monkeypatch.setattr(bounds, "minimize_over_theta", counted)
    for argv in (["sweep-hops", "--scenario", "voice-fig3"], ["sweep-flows", "--scenario", "voice-fig4-H10"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) <= 1000


# ---------------------------------------------------------------------------
# the exact single-node tail of the fluid model the bound describes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("peak, mu, lam, capacity", [
    (5.0, 0.3, 0.2, 2.5), (0.7, 0.9, 0.002, 0.5), (1.0, 1e-3, 1e-3, 0.6)])
def test_fluid_tail_of_one_source_is_its_closed_form(peak, mu, lam, capacity):
    # P(Q > x) = p lambda / ((lambda + mu) C) e^{-(mu / (p - C) - lambda / C) x}
    (z,), (w,) = fluid_queue_tail(1, MmooParams(peak, mu, lam), capacity)
    assert z == pytest.approx(-(mu / (peak - capacity) - lam / capacity), rel=1e-12)
    assert w == pytest.approx(peak * lam / ((lam + mu) * capacity), rel=1e-12)


def test_fluid_quantiles_at_desk_validation():
    # 20 voice sources into 732 kbit/s, in kbit and seconds
    desk = MmooParams(64.0, 1 / 0.4, 1 / 0.6)
    assert fluid_queue_quantile(20, desk, 732.0, 1e-2) == pytest.approx(28.86, abs=0.005)
    assert fluid_queue_quantile(20, desk, 732.0, 1e-9) == pytest.approx(373.7, abs=0.05)


unit_rates = st.floats(1e-3, 1.0)


@st.composite
def fluid_nodes(draw, max_through, max_cross):
    """N through and M cross sources of one law at a utilization in [0.05,
    0.97] of the capacity, and an epsilon in [1e-12, 0.5]."""
    n, m = draw(st.integers(1, max_through)), draw(st.integers(0, max_cross))
    params = MmooParams(draw(unit_rates), draw(unit_rates), draw(unit_rates))
    capacity = (n + m) * params.mean_rate / draw(st.floats(0.05, 0.97))
    slots = capacity / params.peak_rate
    assume(abs(slots - round(slots)) > 1e-9)  # no on-count with zero drift
    return n, m, params, capacity, 10.0 ** draw(st.floats(-12.0, math.log10(0.5)))


@given(fluid_nodes(20, 20))
@settings(max_examples=300, deadline=None)
def test_delay_bound_dominates_the_exact_fluid_delay(node):
    # a FIFO fluid queue at rate C delays every bit by Q / C
    n, m, params, capacity, epsilon = node
    source = MmooTraffic(params)
    path = NetworkPath(Aggregate(n, source), (Leftover(capacity, m, source),))
    exact = fluid_queue_quantile(n + m, params, capacity, epsilon) / capacity
    assert delay_bound(path, epsilon).value >= exact


@given(fluid_nodes(40, 0))
@settings(max_examples=300, deadline=None)
def test_backlog_bound_dominates_the_exact_fluid_queue(node):
    # without cross traffic the through backlog is the whole queue
    n, _, params, capacity, epsilon = node
    source = MmooTraffic(params)
    path = NetworkPath(Aggregate(n, source), (Leftover(capacity, 0, source),))
    assert backlog_bound(path, epsilon).value >= fluid_queue_quantile(n, params, capacity, epsilon)
