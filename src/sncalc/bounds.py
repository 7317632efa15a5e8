"""Probabilistic end-to-end backlog and delay bounds for tandem paths.

The tail bounds have a Chernoff product form: one exponential series per
hop, combined across the H hops through H-th roots, times a factor that
decays in the backlog threshold x (or, via the last hop's shifted series,
in the delay threshold d).  All series are evaluated in log domain because
the raw exponents theta*u*(alpha-beta)/2 routinely exceed the range of
``exp``.  The free parameter theta is optimized by a coarse log-spaced grid
scan followed by golden-section refinement; any theta whose series diverges
contributes a vacuous bound and is skipped.

Conventions
-----------
* horizon: number of slots the series runs over; ``math.inf`` selects the
  geometric closed form (series must decay, i.e. the per-hop stability
  margin beta(theta) - alpha(theta) must be positive).  A finite horizon
  uses the exact closed form of the finite geometric sum, so it costs the
  same as ``math.inf`` however many slots it spans.
* violation probabilities returned by the ``*_at_theta`` functions are raw
  (may exceed 1); the engine clamps final results into [0, 1].
* bound values are never negative; inversions that reach the trivial
  threshold are clamped to 0 and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .envelopes import (
    Aggregate,
    ConstantRate,
    Leftover,
    MmooTraffic,
    ServiceModel,
    TrafficModel,
    service_effective_capacity,
    traffic_effective_bandwidth,
    traffic_peak_rate,
)

__all__ = [
    "INFINITE_HORIZON",
    "StabilityError",
    "HorizonError",
    "SeriesTruncationError",
    "NetworkPath",
    "ThetaSearchConfig",
    "ThetaSearchResult",
    "BoundResult",
    "BoundQuery",
    "backlog_violation_at_theta",
    "delay_violation_at_theta",
    "minimize_over_theta",
    "backlog_bound",
    "delay_bound",
    "backlog_violation",
    "delay_violation",
    "closed_form_backlog",
    "closed_form_delay",
    "stability_margin",
    "default_theta_search",
    "evaluate_query",
    "log_series_sum",
]

INFINITE_HORIZON = math.inf

# exp() overflows just above 709; stay clearly below when exponentiating.
_EXP_CAP = 700.0

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

_STABILITY_HINT = (
    "every candidate theta makes the bound series divergent; the stability "
    "condition (each hop's effective capacity must exceed the through "
    "effective bandwidth, i.e. C > N*alpha(theta) + M*alpha_c(theta) for "
    "leftover service) fails on the whole grid"
)


class StabilityError(RuntimeError):
    """No admissible theta: the bound series diverges everywhere."""


class HorizonError(RuntimeError):
    """No delay threshold within the requested finite horizon meets the target."""


class SeriesTruncationError(RuntimeError):
    """Series accumulation hit the term cap while terms were still growing."""


@dataclass(frozen=True)
class NetworkPath:
    """Ordered tandem of service models traversed by one through flow."""

    through: TrafficModel
    hops: tuple

    def __post_init__(self):
        object.__setattr__(self, "hops", tuple(self.hops))
        if len(self.hops) < 1:
            raise ValueError("a path needs at least one hop")

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    @property
    def homogeneous(self) -> bool:
        """True iff all hops are structurally identical."""
        first = self.hops[0]
        return all(h == first for h in self.hops[1:])


@dataclass(frozen=True)
class ThetaSearchConfig:
    """Search window and resolution for the theta optimization (1/bits)."""

    theta_min: float
    theta_max: float
    coarse_grid_points: int = 64
    refine_tolerance: float = 1e-6

    def __post_init__(self):
        if not (0 < self.theta_min < self.theta_max):
            raise ValueError(
                f"need 0 < theta_min < theta_max, got [{self.theta_min!r}, {self.theta_max!r}]"
            )
        if self.coarse_grid_points < 8:
            raise ValueError("coarse_grid_points must be >= 8")
        if not (0 < self.refine_tolerance < 1):
            raise ValueError("refine_tolerance must be in (0, 1)")


class ThetaSearchResult(NamedTuple):
    theta_star: float
    value: float
    at_boundary: bool


@dataclass(frozen=True)
class BoundResult:
    """Outcome of a bound computation.

    value                   backlog bits or delay slots (inversion queries),
                            or the echoed threshold (violation queries)
    theta_star              optimizing theta, 1/bits
    violation_probability   clamped into [0, 1]
    stable_at_theta_star    all per-hop stability margins positive at theta*
    truncation_horizon_used last slot index summed to, or None when every
                            series was evaluated by its exact closed form
    hop_margins             beta_i(theta*) - alpha(theta*) per hop
    at_theta_boundary       theta* sits at the edge of the search window
    clamped                 the returned value was clamped to 0
    """

    kind: str
    value: float
    theta_star: float
    violation_probability: float
    stable_at_theta_star: bool
    truncation_horizon_used: Optional[int]
    hop_margins: tuple
    at_theta_boundary: bool = False
    clamped: bool = False


@dataclass(frozen=True)
class BoundQuery:
    """One bound question: invert for epsilon, or evaluate at a threshold."""

    kind: str
    threshold: Optional[float] = None
    epsilon: Optional[float] = None
    horizon: float = INFINITE_HORIZON
    theta_search: Optional[ThetaSearchConfig] = None

    def __post_init__(self):
        if self.kind not in ("backlog", "delay"):
            raise ValueError(f"kind must be 'backlog' or 'delay', got {self.kind!r}")
        if (self.threshold is None) == (self.epsilon is None):
            raise ValueError("provide exactly one of threshold, epsilon")
        if self.epsilon is not None and not (0 < self.epsilon <= 1):
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon!r}")
        if self.threshold is not None and self.threshold < 0:
            raise ValueError("threshold must be >= 0")
        _check_horizon(self.horizon)
        if (
            self.kind == "delay"
            and self.threshold is not None
            and not math.isinf(self.horizon)
            and self.horizon < self.threshold
        ):
            raise ValueError("finite horizon must be >= the delay threshold")


def _check_horizon(horizon) -> None:
    if math.isinf(horizon):
        return
    if horizon < 0 or horizon != int(horizon):
        raise ValueError(f"horizon must be a non-negative slot count or inf, got {horizon!r}")


def _check_epsilon(epsilon: float) -> None:
    if not (0 < epsilon <= 1):
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon!r}")


# ---------------------------------------------------------------------------
# series primitives
# ---------------------------------------------------------------------------

def _log_run_sum(log_ratio: float, n: float) -> float:
    """log( sum_{u=0}^{n} exp(u * log_ratio) ), n inf or a slot count
    (a fractional n is truncated to int).

    Finite n uses the exact finite geometric sum, so the cost does not
    depend on n.  Returns +inf for a divergent infinite series
    (log_ratio >= 0).
    """
    if math.isinf(n):
        if log_ratio < 0:
            # geometric closed form 1 / (1 - e^{log_ratio})
            return -math.log(-math.expm1(log_ratio))
        return math.inf
    n = int(n)
    if log_ratio == 0.0:
        return math.log(n + 1)
    if log_ratio < 0:
        # (1 - q^{n+1}) / (1 - q) with q = e^{log_ratio} < 1
        return math.log(-math.expm1((n + 1) * log_ratio)) - math.log(-math.expm1(log_ratio))
    # factor out the largest term q^n so that expm1 only sees negative
    # arguments and cannot overflow
    return n * log_ratio + math.log(-math.expm1(-(n + 1) * log_ratio)) - math.log(-math.expm1(-log_ratio))


def log_series_sum(
    log_term: Callable[[int], float],
    start: int = 0,
    rel_floor: float = 1e-12,
    consecutive: int = 10,
    cap: int = 10**6,
) -> tuple[float, int]:
    """Accumulate log(sum exp(log_term(u))) until the tail is negligible.

    Terms are added from ``start`` upward; accumulation stops once the last
    ``consecutive`` terms each contributed less than ``rel_floor`` of the
    running sum.  If the cap is reached while terms are still nondecreasing
    the series is treated as divergent and :class:`SeriesTruncationError`
    is raised.  Returns (log_sum, last_index_added).
    """
    log_floor = math.log(rel_floor)
    log_sum = -math.inf
    small_streak = 0
    prev_term = -math.inf
    u = start
    while True:
        lt = log_term(u)
        if lt == -math.inf:
            negligible = True  # a zero term contributes nothing
        else:
            if log_sum == -math.inf:
                log_sum = lt
            else:
                peak = max(log_sum, lt)
                log_sum = peak + math.log1p(math.exp(-abs(log_sum - lt)))
            negligible = (lt - log_sum) < log_floor
        if negligible:
            small_streak += 1
            if small_streak >= consecutive:
                return log_sum, u
        else:
            small_streak = 0
        if u - start + 1 >= cap:
            if lt >= prev_term:
                raise SeriesTruncationError(
                    f"series still growing after {cap} terms (last exponent {lt:.3g})"
                )
            return log_sum, u
        prev_term = lt
        u += 1


class _ThetaState(NamedTuple):
    """The threshold-independent part of a path evaluation at one theta.

    Built once per theta, so the delay bisection and the threshold
    inversions pay for the envelopes and per-hop series only once.
    """

    theta: float
    horizon: float
    logs: tuple               # per-hop standard log-sums over the horizon
    last_log_ratio: float     # log ratio of the last hop's series
    beta_last: float
    margins: tuple            # beta_i - alpha per hop
    diverged: bool            # some hop series diverges: the bound is vacuous

    @property
    def truncation(self) -> Optional[int]:
        return None if math.isinf(self.horizon) else int(self.horizon)


def _theta_state(path: NetworkPath, horizon: float, theta: float) -> _ThetaState:
    alpha = traffic_effective_bandwidth(path.through, theta)
    betas = [service_effective_capacity(h, theta) for h in path.hops]
    ratios = [0.5 * theta * (alpha - b) for b in betas]
    logs = tuple(_log_run_sum(r, horizon) for r in ratios)
    return _ThetaState(
        theta, horizon, logs, ratios[-1], betas[-1],
        tuple(b - alpha for b in betas), any(math.isinf(v) for v in logs),
    )


def _combine_root_logs(standard_logs: Sequence[float], last_log: Optional[float], hop_count: int) -> float:
    """Mean of per-hop log sums = log of the product of H-th roots.

    Identical per-hop values collapse without a divide so that a path of
    structurally equal hops reproduces the single-series form bit for bit.
    """
    if last_log is None:
        first = standard_logs[0]
        if all(v == first for v in standard_logs[1:]):
            return first
        return math.fsum(standard_logs) / hop_count
    if not standard_logs:
        return last_log
    first = standard_logs[0]
    if all(v == first for v in standard_logs[1:]):
        return ((hop_count - 1) * first + last_log) / hop_count
    return (math.fsum(standard_logs) + last_log) / hop_count


def _backlog_eval(state: _ThetaState, x: float) -> float:
    """Log tail bound on P{backlog > x}; +inf when a hop series diverges."""
    if state.diverged:
        return math.inf
    hop_count = len(state.logs)
    return _combine_root_logs(state.logs, None, hop_count) - 0.5 * state.theta * x / hop_count


def _delay_eval(state: _ThetaState, d: float) -> float:
    """Log tail bound on P{delay > d}; +inf when a hop series diverges."""
    if state.diverged:
        return math.inf
    # Last hop sums e^{(theta/2)((u-d) alpha - u beta)} for u from d; with
    # v = u - d this is e^{-theta d beta / 2} times the standard series.
    horizon = state.horizon
    tail_len = horizon if math.isinf(horizon) else horizon - d
    last = -0.5 * state.theta * d * state.beta_last + _log_run_sum(state.last_log_ratio, tail_len)
    return _combine_root_logs(state.logs[:-1], last, len(state.logs))


def _safe_exp(log_value: float) -> float:
    if log_value > _EXP_CAP:
        return math.inf
    return math.exp(log_value)


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, p))


# ---------------------------------------------------------------------------
# per-theta operations
# ---------------------------------------------------------------------------

def backlog_violation_at_theta(path: NetworkPath, x: float, horizon: float, theta: float) -> float:
    """Raw tail bound on P{end-to-end backlog > x} at a fixed theta.

    The value may exceed 1 (callers clamp); a divergent series yields the
    trivial bound 1.
    """
    if x < 0:
        raise ValueError("backlog threshold must be >= 0")
    _check_horizon(horizon)
    state = _theta_state(path, horizon, theta)
    if state.diverged:
        return 1.0
    return _safe_exp(_backlog_eval(state, x))


def delay_violation_at_theta(path: NetworkPath, d: float, horizon: float, theta: float) -> float:
    """Raw tail bound on P{end-to-end delay > d slots} at a fixed theta.

    ``d`` may be fractional (the last-hop series shifts continuously);
    inversion still returns integer slot counts.  Divergence yields 1.
    """
    if d < 0:
        raise ValueError("delay threshold must be >= 0")
    _check_horizon(horizon)
    if not math.isinf(horizon) and horizon < d:
        raise ValueError("finite horizon must be >= the delay threshold")
    state = _theta_state(path, horizon, theta)
    if state.diverged:
        return 1.0
    return _safe_exp(_delay_eval(state, d))


# ---------------------------------------------------------------------------
# theta optimization
# ---------------------------------------------------------------------------

def minimize_over_theta(objective: Callable[[float], float], config: ThetaSearchConfig) -> ThetaSearchResult:
    """Minimize a scalar objective over theta > 0.

    Scans a log-spaced coarse grid, then golden-section refines inside the
    bracket around the grid minimum until the bracket's relative width drops
    below ``refine_tolerance``.  Inadmissible thetas must be signalled with
    ``math.inf``.  Deterministic for a fixed configuration; exact ties keep
    the smaller theta.  Raises :class:`StabilityError` when the objective is
    infinite on the whole grid.
    """
    grid = np.geomspace(config.theta_min, config.theta_max, config.coarse_grid_points)
    values = [objective(float(t)) for t in grid]
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        raise StabilityError(
            f"no admissible theta in [{config.theta_min:g}, {config.theta_max:g}]: "
            + _STABILITY_HINT
        )
    best_idx = min(range(len(values)), key=lambda i: (values[i], grid[i]))
    best_theta = float(grid[best_idx])
    best_value = values[best_idx]
    at_boundary = best_idx in (0, len(grid) - 1)

    lo = math.log(grid[max(best_idx - 1, 0)])
    hi = math.log(grid[min(best_idx + 1, len(grid) - 1)])

    def consider(theta: float, value: float) -> None:
        nonlocal best_theta, best_value
        if value < best_value or (value == best_value and theta < best_theta):
            best_theta, best_value = theta, value

    # golden-section on log(theta); +inf values are legal and compare high
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = objective(math.exp(c))
    fd = objective(math.exp(d))
    consider(math.exp(c), fc)
    consider(math.exp(d), fd)
    tol = math.log1p(config.refine_tolerance)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(math.exp(c))
            consider(math.exp(c), fc)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(math.exp(d))
            consider(math.exp(d), fd)
    return ThetaSearchResult(best_theta, best_value, at_boundary)


def default_theta_search(path: NetworkPath) -> ThetaSearchConfig:
    """Search window derived from the path's rate scales.

    theta_max keeps theta * peak-rate * one-slot exponents representable
    (<= 700); theta_min is 1e-9 scaled down by the largest single-flow
    burst so the near-mean-rate regime is always covered.
    """
    peaks = [traffic_peak_rate(path.through)]
    bursts = [_single_flow_burst(path.through)]
    for hop in path.hops:
        if isinstance(hop, Leftover) and hop.cross_count > 0:
            peaks.append(hop.cross_count * traffic_peak_rate(hop.cross))
            bursts.append(_single_flow_burst(hop.cross))
    peak_ref = max(max(peaks), 1e-12)
    burst_ref = max(max(bursts), 1e-12)
    return ThetaSearchConfig(theta_min=1e-9 / burst_ref, theta_max=_EXP_CAP / peak_ref)


def _single_flow_burst(model: TrafficModel) -> float:
    if isinstance(model, ConstantRate):
        return model.rate
    if isinstance(model, MmooTraffic):
        p = model.params
        return p.peak_rate / p.r_on_off if p.r_on_off > 0 else p.peak_rate
    if isinstance(model, Aggregate):
        return _single_flow_burst(model.inner)
    raise TypeError(f"unsupported traffic model: {model!r}")


# ---------------------------------------------------------------------------
# inversion: bound value for a target violation probability
# ---------------------------------------------------------------------------

def _backlog_threshold_at_theta(path: NetworkPath, epsilon: float, horizon: float, theta: float) -> float:
    # the log bound at x = 0 is the mean per-hop log-sum (+inf if divergent);
    # each series starts at 1, so it is >= 0 and the threshold is >= 0
    mean_log = _backlog_eval(_theta_state(path, horizon, theta), 0.0)
    return (2.0 * path.hop_count / theta) * (mean_log - math.log(epsilon))


def backlog_bound(
    path: NetworkPath,
    epsilon: float,
    horizon: float = INFINITE_HORIZON,
    theta_search: Optional[ThetaSearchConfig] = None,
) -> BoundResult:
    """Smallest backlog threshold x with tail bound <= epsilon, over theta."""
    _check_epsilon(epsilon)
    _check_horizon(horizon)
    config = theta_search or default_theta_search(path)
    res = minimize_over_theta(lambda th: _backlog_threshold_at_theta(path, epsilon, horizon, th), config)
    value, clamped = res.value + 0.0, False  # normalize -0.0
    if epsilon >= 1.0 and value > 0.0:
        # the trivial bound P <= 1 already holds at threshold 0
        value, clamped = 0.0, True
    if value < 0.0:
        value, clamped = 0.0, True
    state = _theta_state(path, horizon, res.theta_star)
    return BoundResult(
        kind="backlog",
        value=value,
        theta_star=res.theta_star,
        violation_probability=_clamp01(_safe_exp(_backlog_eval(state, value))),
        stable_at_theta_star=all(m > 0 for m in state.margins),
        truncation_horizon_used=state.truncation,
        hop_margins=state.margins,
        at_theta_boundary=res.at_boundary,
        clamped=clamped,
    )


def _smallest_delay_at_theta(path: NetworkPath, epsilon: float, horizon: float, theta: float) -> tuple[float, str]:
    """Least integer d with clamped delay bound <= epsilon at this theta.

    Returns (d, "ok"), (inf, "diverged") or (inf, "horizon").  Relies on the
    bound being nonincreasing in d, which holds whenever the series converge
    and the last hop's effective capacity is positive.
    """
    state = _theta_state(path, horizon, theta)
    if state.diverged:
        return math.inf, "diverged"

    def clamped_bound(d: float) -> float:
        return _clamp01(_safe_exp(_delay_eval(state, d)))

    if clamped_bound(0) <= epsilon:
        return 0.0, "ok"
    if state.beta_last <= 0:
        # the last-hop series no longer decays in d; no threshold can work
        return math.inf, "diverged"

    hi = 1
    hi_cap = horizon if not math.isinf(horizon) else None
    while True:
        if hi_cap is not None and hi >= hi_cap:
            hi = int(hi_cap)
            if clamped_bound(hi) > epsilon:
                return math.inf, "horizon"
            break
        if clamped_bound(hi) <= epsilon:
            break
        hi *= 2
        if hi > 2**62:
            raise RuntimeError("delay bisection failed to bracket a finite threshold")
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if clamped_bound(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return float(hi), "ok"


def delay_bound(
    path: NetworkPath,
    epsilon: float,
    horizon: float = INFINITE_HORIZON,
    theta_search: Optional[ThetaSearchConfig] = None,
) -> BoundResult:
    """Smallest integer delay d (slots) with tail bound <= epsilon, over theta."""
    _check_epsilon(epsilon)
    _check_horizon(horizon)
    config = theta_search or default_theta_search(path)
    saw_horizon_failure = False

    def objective(theta: float) -> float:
        nonlocal saw_horizon_failure
        d, status = _smallest_delay_at_theta(path, epsilon, horizon, theta)
        if status == "horizon":
            saw_horizon_failure = True
        return d

    try:
        res = minimize_over_theta(objective, config)
    except StabilityError:
        if saw_horizon_failure:
            raise HorizonError(
                f"no delay threshold within the {horizon:g}-slot horizon reaches "
                f"a violation bound of {epsilon:g}; increase the horizon"
            ) from None
        raise
    state = _theta_state(path, horizon, res.theta_star)
    return BoundResult(
        kind="delay",
        value=res.value,
        theta_star=res.theta_star,
        violation_probability=_clamp01(_safe_exp(_delay_eval(state, res.value))),
        stable_at_theta_star=all(m > 0 for m in state.margins),
        truncation_horizon_used=state.truncation,
        hop_margins=state.margins,
        at_theta_boundary=res.at_boundary,
        clamped=False,
    )


# ---------------------------------------------------------------------------
# violation-probability queries (threshold given, minimize the tail bound)
# ---------------------------------------------------------------------------

def _violation_result(path, kind, threshold, horizon, theta_search, eval_fn) -> BoundResult:
    config = theta_search or default_theta_search(path)
    res = minimize_over_theta(lambda th: eval_fn(_theta_state(path, horizon, th), threshold), config)
    state = _theta_state(path, horizon, res.theta_star)
    return BoundResult(
        kind=kind,
        value=threshold,
        theta_star=res.theta_star,
        violation_probability=_clamp01(_safe_exp(res.value)),
        stable_at_theta_star=all(m > 0 for m in state.margins),
        truncation_horizon_used=state.truncation,
        hop_margins=state.margins,
        at_theta_boundary=res.at_boundary,
        clamped=False,
    )


def backlog_violation(
    path: NetworkPath,
    x: float,
    horizon: float = INFINITE_HORIZON,
    theta_search: Optional[ThetaSearchConfig] = None,
) -> BoundResult:
    """Best (smallest) tail bound on P{backlog > x} over theta."""
    if x < 0:
        raise ValueError("backlog threshold must be >= 0")
    _check_horizon(horizon)
    return _violation_result(path, "backlog", x, horizon, theta_search, _backlog_eval)


def delay_violation(
    path: NetworkPath,
    d: float,
    horizon: float = INFINITE_HORIZON,
    theta_search: Optional[ThetaSearchConfig] = None,
) -> BoundResult:
    """Best (smallest) tail bound on P{delay > d} over theta."""
    if d < 0:
        raise ValueError("delay threshold must be >= 0")
    _check_horizon(horizon)
    if not math.isinf(horizon) and horizon < d:
        raise ValueError("finite horizon must be >= the delay threshold")
    return _violation_result(path, "delay", d, horizon, theta_search, _delay_eval)


def evaluate_query(path: NetworkPath, query: BoundQuery) -> BoundResult:
    """Dispatch a :class:`BoundQuery` to the matching bound operation."""
    if query.epsilon is not None:
        fn = backlog_bound if query.kind == "backlog" else delay_bound
        return fn(path, query.epsilon, query.horizon, query.theta_search)
    fn = backlog_violation if query.kind == "backlog" else delay_violation
    return fn(path, query.threshold, query.horizon, query.theta_search)


# ---------------------------------------------------------------------------
# stationary closed forms (homogeneous leftover-service tandems, infinite horizon)
# ---------------------------------------------------------------------------

def stability_margin(
    n_through: int,
    through: TrafficModel,
    m_cross: int,
    cross: Optional[TrafficModel],
    capacity: float,
    theta: float,
) -> float:
    """C - N*alpha(theta) - M*alpha_c(theta); positive means convergent series."""
    total = n_through * traffic_effective_bandwidth(through, theta) if n_through else 0.0
    if m_cross:
        total += m_cross * traffic_effective_bandwidth(cross, theta)
    return capacity - total


def _closed_form(
    n_through: int,
    through: TrafficModel,
    m_cross: int,
    cross: Optional[TrafficModel],
    capacity: float,
    hop_count: int,
    epsilon: float,
    theta_search: Optional[ThetaSearchConfig],
    kind: str,
) -> BoundResult:
    _check_epsilon(epsilon)
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if hop_count < 1:
        raise ValueError("hop count must be >= 1")
    if m_cross > 0 and cross is None:
        raise ValueError("cross model required when m_cross > 0")
    cross_model = cross if cross is not None else ConstantRate(0.0)
    config = theta_search or default_theta_search(
        NetworkPath(
            through=Aggregate(max(n_through, 1), through),
            hops=(Leftover(capacity, m_cross, cross_model),),
        )
    )
    log_eps = math.log(epsilon)

    def single_hop_value(theta: float) -> float:
        margin = stability_margin(n_through, through, m_cross, cross_model, capacity, theta)
        if margin <= 0:
            return math.inf
        log_q = math.log(-math.expm1(-0.5 * theta * margin))  # log(1 - e^{-theta*margin/2})
        if kind == "backlog":
            return (2.0 / theta) * (-log_eps - log_q)
        beta = capacity - m_cross * traffic_effective_bandwidth(cross_model, theta)
        return (2.0 / (theta * beta)) * (-log_eps - log_q)

    # hop_count is a plain multiplier of the objective: optimize the single
    # hop form once and scale, which keeps theta* identical for every H and
    # the linear scaling exact.
    res = minimize_over_theta(single_hop_value, config)
    value = hop_count * res.value + 0.0  # normalize -0.0
    clamped = False
    if epsilon >= 1.0 and value > 0.0:
        value, clamped = 0.0, True
    if value < 0.0:
        value, clamped = 0.0, True
    theta = res.theta_star
    margin = stability_margin(n_through, through, m_cross, cross_model, capacity, theta)
    log_q = math.log(-math.expm1(-0.5 * theta * margin)) if margin > 0 else math.inf
    if kind == "backlog":
        log_violation = -log_q - 0.5 * theta * value / hop_count
    else:
        beta = capacity - m_cross * traffic_effective_bandwidth(cross_model, theta)
        log_violation = -log_q - 0.5 * theta * beta * value / hop_count
    return BoundResult(
        kind=kind,
        value=value,
        theta_star=theta,
        violation_probability=_clamp01(_safe_exp(log_violation)),
        stable_at_theta_star=margin > 0,
        truncation_horizon_used=None,
        hop_margins=(margin,) * hop_count,
        at_theta_boundary=res.at_boundary,
        clamped=clamped,
    )


def closed_form_backlog(
    n_through: int,
    through: TrafficModel,
    m_cross: int,
    cross: Optional[TrafficModel],
    capacity: float,
    hop_count: int,
    epsilon: float,
    theta_search: Optional[ThetaSearchConfig] = None,
) -> BoundResult:
    """Backlog bound (bits) for H identical hops serving N through flows at
    constant rate C with M fresh cross flows per hop, infinite horizon."""
    return _closed_form(n_through, through, m_cross, cross, capacity, hop_count, epsilon, theta_search, "backlog")


def closed_form_delay(
    n_through: int,
    through: TrafficModel,
    m_cross: int,
    cross: Optional[TrafficModel],
    capacity: float,
    hop_count: int,
    epsilon: float,
    theta_search: Optional[ThetaSearchConfig] = None,
) -> BoundResult:
    """Delay bound (slots, real-valued) for the same homogeneous setting."""
    return _closed_form(n_through, through, m_cross, cross, capacity, hop_count, epsilon, theta_search, "delay")
