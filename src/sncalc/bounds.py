"""Probabilistic end-to-end backlog and delay bounds for tandem paths.

The tail bounds have a Chernoff product form: one exponential series per
hop, combined across the H hops through H-th roots, times a factor that
decays in the backlog threshold x (or, via the last hop's shifted series,
in the delay threshold d).  All series are evaluated in log domain because
the raw exponents theta*u*(alpha-beta)/2 routinely exceed the range of
``exp``.  The free parameter theta is optimized by a coarse log-spaced grid
scan followed by golden-section refinement; any theta whose series diverges
contributes a vacuous bound and is skipped.

One engine inverts for epsilon: at each theta the threshold has the closed
form H * v(theta), where v is one hop's share (see ``_per_hop_threshold``),
and v is minimized over theta.  So a homogeneous path's bound is exactly H
times the single-hop bound, at one theta* for every H.  ``closed_form_*``
are thin wrappers that build the homogeneous leftover-service path and call
this engine.

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
* delays are real-valued slot counts at every horizon.  At a finite horizon
  the delay inversion bounds the last hop by its full-horizon series, an
  upper bound on the horizon - d terms it runs over, so the result stays a
  valid bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, NamedTuple, Optional

from .envelopes import (
    Aggregate,
    ConstantRate,
    Leftover,
    MmooTraffic,
    TrafficModel,
    service_effective_capacity,
    traffic_effective_bandwidth,
    traffic_peak_rate,
)

__all__ = [
    "INFINITE_HORIZON",
    "StabilityError",
    "HorizonError",
    "NetworkPath",
    "ThetaSearchConfig",
    "ThetaSearchResult",
    "BoundResult",
    "backlog_violation_at_theta",
    "delay_violation_at_theta",
    "minimize_over_theta",
    "backlog_bound",
    "delay_bound",
    "closed_form_backlog",
    "closed_form_delay",
    "stability_margin",
    "default_theta_search",
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

    value                   backlog bits or real-valued delay slots
                            (inversion queries, any horizon), or the echoed
                            threshold (violation queries)
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


def _hop_runs(path: NetworkPath) -> tuple:
    """(hop, count) per run of equal consecutive hops, in path order.

    Equal hops have equal envelopes, so a theta evaluation visits each run
    once: a homogeneous path is one run and costs the same at any H.
    """
    return tuple((hop, len(list(run))) for hop, run in groupby(path.hops))


class _ThetaState(NamedTuple):
    """The threshold-independent part of a path evaluation at one theta.

    Holds one entry per run of equal hops (see :func:`_hop_runs`), so the
    inversions and tail evaluations that read it pay for the envelopes and
    per-hop series once per run, however many hops the path has.
    """

    hop_count: int
    runs: tuple               # (hop, count) per run of equal hops
    theta: float
    horizon: float
    alpha: float
    betas: tuple              # effective capacity per run
    logs: tuple               # standard log-sum over the horizon per run

    @property
    def diverged(self) -> bool:
        """Some hop series diverges: the bound is vacuous."""
        return math.inf in self.logs

    @property
    def truncation(self) -> Optional[int]:
        return None if math.isinf(self.horizon) else int(self.horizon)

    @property
    def margins(self) -> tuple:
        """beta_i - alpha per hop of the path."""
        margins = ()
        for (_, count), beta in zip(self.runs, self.betas):
            margins += (beta - self.alpha,) * count
        return margins


def _theta_state(path: NetworkPath, horizon: float, theta: float, runs: Optional[tuple] = None) -> _ThetaState:
    runs = runs or _hop_runs(path)
    alpha = traffic_effective_bandwidth(path.through, theta)
    betas = tuple([service_effective_capacity(hop, theta) for hop, _ in runs])
    logs = tuple([_log_run_sum(0.5 * theta * (alpha - b), horizon) for b in betas])
    return _ThetaState(path.hop_count, runs, theta, horizon, alpha, betas, logs)


def _backlog_eval(state: _ThetaState, x: float) -> float:
    """Log tail bound on P{backlog > x}; +inf when a hop series diverges.

    The mean per-hop log-sum is the log of the product of the H-th roots;
    a single run (a homogeneous path) gives its log-sum exactly.
    """
    mean_log = 0.0
    for (_, count), log in zip(state.runs, state.logs):
        mean_log += count / state.hop_count * log
    return mean_log - 0.5 * state.theta * x / state.hop_count


def _delay_eval(state: _ThetaState, d: float) -> float:
    """Log tail bound on P{delay > d}; +inf when a hop series diverges."""
    if state.diverged:
        return math.inf
    # Last hop sums e^{(theta/2)((u-d) alpha - u beta)} for u from d; with
    # v = u - d this is e^{-theta d beta / 2} times the standard series.
    horizon, beta_last = state.horizon, state.betas[-1]
    tail_len = horizon if math.isinf(horizon) else horizon - d
    last = -0.5 * state.theta * d * beta_last + _log_run_sum(0.5 * state.theta * (state.alpha - beta_last), tail_len)
    counts = [count for _, count in state.runs]
    counts[-1] -= 1  # the last hop's standard series is replaced by the shifted one
    for count, log in zip(counts, state.logs):
        last += count * log
    return last / state.hop_count


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

    ``d`` may be fractional (the last-hop series shifts continuously and
    runs over the horizon - d slots left).  Divergence yields 1.
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

def _log_grid(lo: float, hi: float, points: int) -> list:
    """``numpy.geomspace(lo, hi, points)`` in pure Python, endpoints exact;
    inner points may differ from it in the last bits."""
    start = math.log10(lo)
    step = (math.log10(hi) - start) / (points - 1)
    grid = [10.0 ** (i * step + start) for i in range(points)]
    grid[0], grid[-1] = float(lo), float(hi)
    return grid


def minimize_over_theta(objective: Callable[[float], float], config: ThetaSearchConfig) -> ThetaSearchResult:
    """Minimize a scalar objective over theta > 0.

    Scans a log-spaced coarse grid, then golden-section refines inside the
    bracket around the grid minimum until the bracket's relative width drops
    below ``refine_tolerance``.  Inadmissible thetas must be signalled with
    ``math.inf``.  Deterministic for a fixed configuration; exact ties keep
    the smaller theta.  Raises :class:`StabilityError` when the objective is
    infinite on the whole grid.
    """
    grid = _log_grid(config.theta_min, config.theta_max, config.coarse_grid_points)
    values = [objective(t) for t in grid]
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        raise StabilityError(
            f"no admissible theta in [{config.theta_min:g}, {config.theta_max:g}]: "
            + _STABILITY_HINT
        )
    best_idx = min(range(len(values)), key=lambda i: (values[i], grid[i]))
    best_theta = grid[best_idx]
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

def _per_hop_threshold(through: TrafficModel, runs: tuple, hop_count: int, horizon: float,
                       theta: float, log_eps: float, delay: bool) -> float:
    """v(theta) = 2 (L - ln eps) / (theta w), one hop's share of the threshold.

    L is the mean per-hop standard log-sum over the horizon, and w is 1 for
    backlog and the last hop's effective capacity for delay.  The log tail
    bound L - theta w x / (2H) reaches ln eps at x = H v; for delay this
    bounds the last hop by its full-horizon series.  +inf marks an
    inadmissible theta: a divergent series or w <= 0.

    This is the theta search's objective, so it builds no state: the same
    sums as :func:`_theta_state` and :func:`_backlog_eval`, inline.
    """
    alpha = traffic_effective_bandwidth(through, theta)
    mean_log = 0.0
    for hop, count in runs:
        beta = service_effective_capacity(hop, theta)
        mean_log += count / hop_count * _log_run_sum(0.5 * theta * (alpha - beta), horizon)
    w = beta if delay else 1.0  # the last run's beta is the last hop's
    if w <= 0.0 or mean_log == math.inf:
        return math.inf
    return (2.0 / (theta * w)) * (mean_log - log_eps)


def _invert(path: NetworkPath, epsilon: float, horizon: float,
            theta_search: Optional[ThetaSearchConfig], kind: str) -> BoundResult:
    """Smallest threshold H v(theta) over theta; the per-hop value is
    minimized, so theta* does not depend on H for a homogeneous path."""
    _check_epsilon(epsilon)
    _check_horizon(horizon)
    config = theta_search or default_theta_search(path)
    through, runs, hop_count = path.through, _hop_runs(path), path.hop_count
    log_eps, delay = math.log(epsilon), kind == "delay"
    saw_horizon_failure = False

    def objective(theta: float) -> float:
        nonlocal saw_horizon_failure
        v = _per_hop_threshold(through, runs, hop_count, horizon, theta, log_eps, delay)
        if delay and math.isfinite(v) and hop_count * v > horizon:
            saw_horizon_failure = True
            return math.inf
        return v

    try:
        res = minimize_over_theta(objective, config)
    except StabilityError:
        if saw_horizon_failure:
            raise HorizonError(
                f"no delay threshold within the {horizon:g}-slot horizon reaches "
                f"a violation bound of {epsilon:g}; increase the horizon"
            ) from None
        raise
    value, clamped = hop_count * res.value + 0.0, False  # normalize -0.0
    if (epsilon >= 1.0 and value > 0.0) or value < 0.0:
        # at epsilon = 1 the trivial bound P <= 1 already holds at threshold 0
        value, clamped = 0.0, True
    state = _theta_state(path, horizon, res.theta_star, runs)
    log_violation = (_delay_eval if delay else _backlog_eval)(state, value)
    margins = state.margins  # expanded only here, not in the theta search
    return BoundResult(
        kind=kind,
        value=value,
        theta_star=res.theta_star,
        violation_probability=_clamp01(_safe_exp(log_violation)),
        stable_at_theta_star=all(m > 0 for m in margins),
        truncation_horizon_used=state.truncation,
        hop_margins=margins,
        at_theta_boundary=res.at_boundary,
        clamped=clamped,
    )


def backlog_bound(
    path: NetworkPath,
    epsilon: float,
    horizon: float = INFINITE_HORIZON,
    theta_search: Optional[ThetaSearchConfig] = None,
) -> BoundResult:
    """Smallest backlog threshold x (bits) with tail bound <= epsilon, over theta."""
    return _invert(path, epsilon, horizon, theta_search, "backlog")


def delay_bound(
    path: NetworkPath,
    epsilon: float,
    horizon: float = INFINITE_HORIZON,
    theta_search: Optional[ThetaSearchConfig] = None,
) -> BoundResult:
    """Smallest delay d with tail bound <= epsilon, over theta.

    d is in real-valued slots at every horizon.  A finite horizon bounds
    the last hop's series by its full-horizon sum (an upper bound on the
    horizon - d terms it runs over), and a theta whose d exceeds the
    horizon is inadmissible; :class:`HorizonError` is raised when that
    leaves no theta.
    """
    return _invert(path, epsilon, horizon, theta_search, "delay")


# ---------------------------------------------------------------------------
# homogeneous leftover-service tandems: thin wrappers over the engine
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


def _homogeneous(
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
    # Leftover and NetworkPath reject a non-positive capacity or hop count
    if m_cross > 0 and cross is None:
        raise ValueError("cross model required when m_cross > 0")
    hops = (Leftover(capacity, m_cross, cross if cross is not None else ConstantRate(0.0)),) * hop_count
    # the search window treats an empty through aggregate as one flow
    config = theta_search or default_theta_search(NetworkPath(Aggregate(max(n_through, 1), through), hops))
    path = NetworkPath(Aggregate(n_through, through) if n_through else ConstantRate(0.0), hops)
    return _invert(path, epsilon, INFINITE_HORIZON, config, kind)


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
    constant rate C with M fresh cross flows per hop, infinite horizon.

    A wrapper that builds the homogeneous path and calls :func:`backlog_bound`'s
    engine: the result is H times the single-hop value, at one theta* for
    every H."""
    return _homogeneous(n_through, through, m_cross, cross, capacity, hop_count, epsilon, theta_search, "backlog")


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
    """Delay bound (slots, real-valued) for the same homogeneous setting;
    a wrapper over :func:`delay_bound`'s engine."""
    return _homogeneous(n_through, through, m_cross, cross, capacity, hop_count, epsilon, theta_search, "delay")
