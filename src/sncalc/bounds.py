"""Probabilistic end-to-end backlog and delay bounds for tandem paths.

The tail bounds have a Chernoff product form: one exponential series per
hop, combined across the H hops through H-th roots, times a factor that
decays in the backlog threshold x (or, via the last hop's shifted series,
in the delay threshold d).  All series are evaluated in log domain because
the raw exponents theta*u*(alpha-beta)/2 routinely exceed the range of
``exp``.  The free parameter theta is optimized by a log-spaced grid scan
from theta_max down, which stops at the first rise, followed by
golden-section refinement; any theta whose series diverges contributes a
vacuous bound (+inf) and is passed over.  Every objective the engine
builds is quasi-convex in theta, so the first rise marks the minimum of
the whole grid (see :func:`minimize_over_theta`).

One engine serves every query.  ``_log_terms`` evaluates a path at one
theta (the envelopes and one log-sum per run of equal hops) and
``_log_tail`` turns that into the backlog or delay log tail; the per-theta
tail functions, the theta search and the diagnostics at theta* all read
them.  Inverting for epsilon, the threshold at each theta has the closed
form H * v(theta), where v is one hop's share, and v is minimized over
theta.  So a homogeneous path's bound is exactly H times the single-hop
bound, at one theta* for every H.  ``hop_sweep`` uses this for the hop
sweeps: it takes one path and repeat counts r, searches theta once, and
gives for each r the bound r H v* of the path with every hop repeated r
times.  Repeating every hop leaves each run's share count/H unchanged, bit
for bit, so all the repeats share theta* and v*, at every horizon.  A
finite-horizon delay needs H v <= horizon, which is v's own sublevel set
{v <= horizon / H}; v being quasi-convex, the minimum over that set is the
unconstrained v* whenever the set is not empty, so r H v* is checked after
the search.  ``closed_form_*`` are thin wrappers that build the homogeneous
leftover-service path and call this engine.  It dispatches on no model
class: it reads alpha(theta) and beta(theta) through an
:class:`.envelopes._PathEnvelopes` built once per search, and a model's peak
rate and burst and a hop's cross peak and burst through :mod:`.envelopes`.

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
from itertools import groupby
from typing import Callable, NamedTuple, Optional

from ._record import Record, integer, set_field
from .envelopes import (  # noqa: F401 -- perfbench/tracing.py wraps both envelope names here
    Aggregate,
    ConstantRate,
    Leftover,
    MmooParams,
    MmooTraffic,
    TrafficModel,
    _check_theta,
    _cross_peak_and_burst,
    _PathEnvelopes,
    _peak_and_burst,
    service_effective_capacity,
    traffic_effective_bandwidth,
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
    "hop_sweep",
    "closed_form_backlog",
    "closed_form_delay",
    "stability_margin",
    "default_theta_search",
    "default_theta_window",
    "peak_rate_stable",
]

INFINITE_HORIZON = math.inf

# exp() overflows just above 709; stay clearly below when exponentiating.
_EXP_CAP = 700.0

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# the theta search's resolution: coarse grid points, then a relative bracket
_GRID_POINTS = 64
_REFINE_TOLERANCE = 1e-6

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


class NetworkPath(Record):
    """Ordered tandem of service models traversed by one through flow."""

    __slots__ = ("through", "hops")

    def _validate(self):
        set_field(self, "hops", tuple(self.hops))
        if len(self.hops) < 1:
            raise ValueError("a path needs at least one hop")

    @property
    def hop_count(self) -> int:
        return len(self.hops)


def _on_off_tandem(source: MmooParams, capacity: float, hops: int, n_through: int,
                   m_cross: int) -> NetworkPath:
    """``n_through`` flows of on-off ``source`` through ``hops`` hops of ``capacity``, each
    shared with ``m_cross`` fresh flows of it: the tandem a scenario's bounds and simulation read."""
    flow = MmooTraffic(source)
    return NetworkPath(Aggregate(n_through, flow), (Leftover(capacity, m_cross, flow),) * hops)


class ThetaSearchConfig(Record):
    """Search window for the theta optimization (1/bits); the resolution is fixed."""

    __slots__ = ("theta_min", "theta_max")

    def _validate(self):
        if not (0 < self.theta_min < self.theta_max):
            raise ValueError(
                f"need 0 < theta_min < theta_max, got [{self.theta_min!r}, {self.theta_max!r}]"
            )


class ThetaSearchResult(NamedTuple):
    theta_star: float
    value: float
    at_boundary: bool


class BoundResult(Record):
    """Outcome of a bound computation.

    kind                    "backlog" or "delay"
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

    __slots__ = ("kind", "value", "theta_star", "violation_probability", "stable_at_theta_star",
                 "truncation_horizon_used", "hop_margins", "at_theta_boundary", "clamped")
    _defaults = {"at_theta_boundary": False, "clamped": False}


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


def _log_terms(envelopes: _PathEnvelopes, shares: tuple, horizon: float, theta: float) -> tuple:
    """(L, alpha, betas): the threshold-independent part of the tail at theta.

    ``envelopes`` gives alpha and each run's effective capacity, and L is
    the mean per hop of each run's standard log-sum over the horizon (+inf
    for a divergent series) weighted by its share count/H, the log of the
    product of the H-th roots; a single run (a homogeneous path) gives its
    log-sum exactly.  One log-sum per run of equal hops (see
    :func:`_hop_runs`), however many hops the path has.
    """
    alpha, betas = envelopes.at(theta)
    mean_log = 0.0
    for share, beta in zip(shares, betas):
        mean_log += share * _log_run_sum(0.5 * theta * (alpha - beta), horizon)
    return mean_log, alpha, betas


def _log_tail(terms: tuple, runs: tuple, hop_count: int, horizon: float,
              theta: float, x: float, delay: bool) -> float:
    """Log tail bound on P{backlog > x} or, with ``delay``, P{delay > x slots}.

    Backlog is L - theta x / (2H).  Delay replaces the last hop's standard
    series by a shifted one: it sums e^{(theta/2)((u-x) alpha - u beta)}
    for u from x, which with v = u - x is e^{-theta x beta / 2} times the
    standard series over the horizon - x slots left.  A divergent series
    gives 0, the trivial bound 1.
    """
    mean_log, alpha, betas = terms
    if mean_log == math.inf:
        return 0.0
    if not delay:
        return mean_log - 0.5 * theta * x / hop_count
    beta_last = betas[-1]
    tail_len = horizon if math.isinf(horizon) else horizon - x
    last = -0.5 * theta * x * beta_last + _log_run_sum(0.5 * theta * (alpha - beta_last), tail_len)
    counts = [count for _, count in runs]
    counts[-1] -= 1  # the last hop's standard series is replaced by the shifted one
    for count, beta in zip(counts, betas):
        last += count * _log_run_sum(0.5 * theta * (alpha - beta), horizon)
    return last / hop_count


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
    return _violation_at_theta(path, x, horizon, theta, False)


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
    return _violation_at_theta(path, d, horizon, theta, True)


def _violation_at_theta(path: NetworkPath, x: float, horizon: float, theta: float, delay: bool) -> float:
    _check_theta(theta)
    runs = _hop_runs(path)
    envelopes = _PathEnvelopes(path.through, [hop for hop, _ in runs])
    terms = _log_terms(envelopes, tuple(count / path.hop_count for _, count in runs), horizon, theta)
    return _safe_exp(_log_tail(terms, runs, path.hop_count, horizon, theta, x, delay))


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
    """Minimize a quasi-convex scalar objective over theta in the configured window.

    Scans a log-spaced grid of ``_GRID_POINTS`` points from theta_max down
    and stops at the first finite point below which the objective rises,
    then golden-section refines inside the bracket around it until the
    bracket's relative width drops below ``_REFINE_TOLERANCE``.
    Inadmissible thetas must be signalled with ``math.inf``.  Deterministic
    for a fixed window; exact ties keep the smaller theta.  Raises
    :class:`StabilityError` when the objective is infinite on the whole
    grid, which is then scanned to its bottom.

    The first rise is the minimum of the whole grid when every sublevel set
    {theta : objective(theta) <= c} is an interval, the +inf set included:
    the grid values then fall (weakly) to the minimum and rise (weakly)
    after it.  Every objective that the bound inversion builds is such a
    function, v(theta) = 2 (L(theta) - ln eps) / (theta w(theta)), for every
    through model (on-off, constant-rate, an aggregate of either), every
    run of leftover and constant-rate hops, backlog and delay, and any
    horizon and eps in (0, 1]:

    * L is a mean of log-sums of exp(u (theta alpha - theta beta) / 2) over
      u >= 0.  theta alpha(theta) is convex: the log spectral radius of the
      tilted on-off chain (Kingman 1961), linear for a constant rate, and
      n times either for an aggregate of n.  theta beta(theta) is linear or
      concave (capacity less convex cross terms).  So L is convex.
    * L >= 0, since each sum holds its u = 0 term, and -ln eps >= 0.
    * theta w(theta) is positive and concave: theta for backlog and
      theta beta(theta) for delay.
    * So {v <= c} = {2 (L - ln eps) <= c theta w} is an interval for every
      c >= 0, and the thetas with v = +inf (a divergent series or w <= 0)
      lie outside one.  A finite-horizon delay's rule H v <= horizon is the
      sublevel set for c = horizon / H, so it needs no search of its own.
    """
    grid = _log_grid(config.theta_min, config.theta_max, _GRID_POINTS)
    best_idx = len(grid) - 1
    best_value = objective(grid[best_idx])
    for i in range(best_idx - 1, -1, -1):  # downward until the first rise
        value = objective(grid[i])
        if value > best_value:
            break
        best_idx, best_value = i, value
    if best_value == math.inf:
        raise StabilityError(
            f"no admissible theta in [{config.theta_min:g}, {config.theta_max:g}]: "
            + _STABILITY_HINT
        )
    best_theta = grid[best_idx]
    at_boundary = best_idx in (0, len(grid) - 1)

    def probe(log_theta: float) -> float:
        nonlocal best_theta, best_value
        theta = math.exp(log_theta)
        value = objective(theta)
        if value < best_value or (value == best_value and theta < best_theta):
            best_theta, best_value = theta, value
        return value

    # golden-section on log(theta); +inf values are legal and compare high.
    # While b - a exceeds the tolerance, c and d are over 2.3e-7 apart, far
    # wider than the 1.1e-13 spacing of doubles at |log theta| <= 745.
    a = math.log(grid[max(best_idx - 1, 0)])
    b = math.log(grid[min(best_idx + 1, len(grid) - 1)])
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = probe(c), probe(d)
    tol = math.log1p(_REFINE_TOLERANCE)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = probe(d)
    return ThetaSearchResult(best_theta, best_value, at_boundary)


def default_theta_window(path: NetworkPath) -> tuple:
    """(theta_min, theta_max) derived from the path's rate scales.

    theta_max keeps theta * peak-rate * one-slot exponents representable
    (<= 700); theta_min is 1e-9 scaled down by the largest single-flow
    burst so the near-mean-rate regime is always covered.  theta_min is 0
    when that division underflows, for a burst beyond about 1e314 bits.
    """
    hops = [hop for hop, _ in _hop_runs(path)]  # each run of equal hops once
    peaks, bursts = zip(_peak_and_burst(path.through), *map(_cross_peak_and_burst, hops))
    return 1e-9 / max(*bursts, 1e-12), _EXP_CAP / max(*peaks, 1e-12)


def default_theta_search(path: NetworkPath) -> ThetaSearchConfig:
    """Search over :func:`default_theta_window`."""
    return ThetaSearchConfig(*default_theta_window(path))


def peak_rate_stable(path: NetworkPath) -> bool:
    """Every hop's capacity covers the peak rates of all the flows it serves.

    Such a path never queues, so its exact backlog and delay are 0; its
    bound falls towards 0 as theta grows, which puts theta* at or near the
    window's upper edge.
    """
    through = _peak_and_burst(path.through)[0]
    return all(through + _cross_peak_and_burst(hop)[0] <= hop.capacity for hop, _ in _hop_runs(path))


# ---------------------------------------------------------------------------
# inversion: bound value for a target violation probability
# ---------------------------------------------------------------------------

def _search(envelopes: _PathEnvelopes, shares: tuple, epsilon: float, horizon: float,
            config: ThetaSearchConfig, kind: str) -> ThetaSearchResult:
    """theta*, one hop's share v* = v(theta*) and the boundary flag, of the
    path shape that ``envelopes`` and ``shares`` describe.

    The per-hop share is minimized, so theta* does not depend on H for a
    homogeneous path, and neither does v* at a finite horizon: the delay
    rule H v <= horizon is left to the caller (see :func:`hop_sweep`).
    Raises :class:`StabilityError` when no theta is admissible.
    """
    _check_theta(config.theta_max)  # every theta searched lies in the window
    log_eps, delay = math.log(epsilon), kind == "delay"

    def objective(theta: float) -> float:
        """v(theta) = 2 (L - ln eps) / (theta w), one hop's share of the threshold.

        w is 1 for backlog and the last hop's effective capacity for delay:
        the log tail L - theta w x / (2H) reaches ln eps at x = H v, and for
        delay this bounds the last hop by its full-horizon series.  +inf
        marks an inadmissible theta: a divergent series or w <= 0.
        """
        mean_log, _, betas = _log_terms(envelopes, shares, horizon, theta)
        w = betas[-1] if delay else 1.0
        if w <= 0.0 or mean_log == math.inf:
            return math.inf
        return (2.0 / (theta * w)) * (mean_log - log_eps)

    return minimize_over_theta(objective, config)


def _finish(runs: tuple, hop_count: int, envelopes: _PathEnvelopes, shares: tuple, epsilon: float,
            horizon: float, res: ThetaSearchResult, kind: str) -> BoundResult:
    """The bound H v* of the path of ``runs`` ((hop, count) per run of equal
    hops, :func:`_hop_runs`) and ``hop_count`` H hops, from a theta search of
    its shares, with the diagnostics at theta* evaluated for this H."""
    value, clamped = hop_count * res.value + 0.0, False  # normalize -0.0
    if (epsilon >= 1.0 and value > 0.0) or value < 0.0:
        # at epsilon = 1 the trivial bound P <= 1 already holds at threshold 0
        value, clamped = 0.0, True
    terms = _log_terms(envelopes, shares, horizon, res.theta_star)
    _, alpha, betas = terms
    log_violation = _log_tail(terms, runs, hop_count, horizon, res.theta_star, value, kind == "delay")
    margins = ()  # beta_i - alpha per hop, expanded only here
    for (_, count), beta in zip(runs, betas):
        margins += (beta - alpha,) * count
    return BoundResult(
        kind=kind,
        value=value,
        theta_star=res.theta_star,
        violation_probability=_clamp01(_safe_exp(log_violation)),
        stable_at_theta_star=all(m > 0 for m in margins),
        truncation_horizon_used=None if math.isinf(horizon) else int(horizon),
        hop_margins=margins,
        at_theta_boundary=res.at_boundary,
        clamped=clamped,
    )


def hop_sweep(
    path: NetworkPath,
    repeats,
    kind: str,
    epsilon: float,
    horizon: float = INFINITE_HORIZON,
    theta_search: Optional[ThetaSearchConfig] = None,
) -> list:
    """For each r of ``repeats``, :func:`backlog_bound` or :func:`delay_bound`
    (``kind``) of ``path`` with every hop replaced by r consecutive copies of
    itself, from one theta search.

    Each repeat is an int (or numpy integer, not a bool) of at least 1, else
    ``ValueError``.  Repeating every hop r times multiplies each run's count
    and H by r, so each run's share count/H is bit-identical and so is
    v(theta): every repeat shares theta* and v*, the default theta window
    too, and each result equals the per-path call.  That holds at a finite
    horizon too: a delay of r H hops exists there iff r H v* <= horizon, the
    sublevel set {v <= horizon / (r H)} of the quasi-convex v being empty
    otherwise, and then its minimum is v* itself.  A repeat without a bound
    gets a :class:`HorizonError` in place of a result, and every repeat gets
    the :class:`StabilityError` of a search without an admissible theta.
    """
    if kind not in ("backlog", "delay"):
        raise ValueError(f"kind must be 'backlog' or 'delay', got {kind!r}")
    _check_epsilon(epsilon)
    _check_horizon(horizon)
    repeats = [integer(r, 1, "each repeat must be an int >= 1") for r in repeats]
    runs = _hop_runs(path)
    shares = tuple(count / path.hop_count for _, count in runs)
    config = theta_search or default_theta_search(path)
    envelopes = _PathEnvelopes(path.through, [hop for hop, _ in runs])
    try:
        res = _search(envelopes, shares, epsilon, horizon, config, kind)
    except StabilityError as exc:
        return [exc] * len(repeats)
    results = []
    for r in repeats:
        hop_count = r * path.hop_count
        if kind == "delay" and hop_count * res.value > horizon:
            results.append(HorizonError(
                f"no delay threshold within the {horizon:g}-slot horizon reaches "
                f"a violation bound of {epsilon:g}; increase the horizon"))
        else:
            repeated = tuple((hop, count * r) for hop, count in runs)
            results.append(_finish(repeated, hop_count, envelopes, shares, epsilon, horizon, res, kind))
    return results


def _one_path(path: NetworkPath, kind: str, epsilon: float, horizon: float,
              theta_search: Optional[ThetaSearchConfig]) -> BoundResult:
    """:func:`hop_sweep` of one path, raising the error it returns in place of a result."""
    (result,) = hop_sweep(path, (1,), kind, epsilon, horizon, theta_search)
    if isinstance(result, Exception):
        raise result
    return result


def backlog_bound(
    path: NetworkPath,
    epsilon: float,
    horizon: float = INFINITE_HORIZON,
    theta_search: Optional[ThetaSearchConfig] = None,
) -> BoundResult:
    """Smallest backlog threshold x (bits) with tail bound <= epsilon, over theta."""
    return _one_path(path, "backlog", epsilon, horizon, theta_search)


def delay_bound(
    path: NetworkPath,
    epsilon: float,
    horizon: float = INFINITE_HORIZON,
    theta_search: Optional[ThetaSearchConfig] = None,
) -> BoundResult:
    """Smallest delay d with tail bound <= epsilon, over theta.

    d is in real-valued slots at every horizon.  A finite horizon bounds
    the last hop's series by its full-horizon sum (an upper bound on the
    horizon - d terms it runs over).  d = H v* for the unconstrained
    minimum v* of one hop's share; :class:`HorizonError` is raised when
    that exceeds the horizon, as v is quasi-convex and then no theta gives
    a d within it.
    """
    return _one_path(path, "delay", epsilon, horizon, theta_search)


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


def _homogeneous(n_through: int, through: TrafficModel, m_cross: int, cross: Optional[TrafficModel],
                 capacity: float, hop_count: int, epsilon: float, theta_search: Optional[ThetaSearchConfig],
                 kind: str) -> BoundResult:
    # Leftover and NetworkPath reject a non-positive capacity or hop count
    if m_cross > 0 and cross is None:
        raise ValueError("cross model required when m_cross > 0")
    hops = (Leftover(capacity, m_cross, cross if cross is not None else ConstantRate(0.0)),) * hop_count
    # the search window treats an empty through aggregate as one flow
    config = theta_search or default_theta_search(NetworkPath(Aggregate(max(n_through, 1), through), hops))
    path = NetworkPath(Aggregate(n_through, through) if n_through else ConstantRate(0.0), hops)
    return _one_path(path, kind, epsilon, INFINITE_HORIZON, config)


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
