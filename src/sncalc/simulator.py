"""Discrete-time tandem FIFO simulator with Markov-modulated on-off sources.

Topology: N identical through sources feed hop 1; every hop also receives M
fresh cross sources and serves the shared queue work-conservingly at a fixed
capacity per slot.  Cross traffic leaves after its hop, through departures
cascade to the next hop within the same slot.  Within one slot, cross
arrivals enqueue ahead of through arrivals, which is the harsher order for
the through flow and keeps bound validation conservative.

The per-hop queue dynamics use cumulative curves only: each hop's through
departures are the next hop's through arrivals as they are, and departures
are A - queue, which equals the arrivals exactly at an empty queue for any
real rates.  The test suite cross-checks them against a literal chunk-queue
implementation, also in rational arithmetic.  End-to-end measurements
follow the cumulative-curve definitions: backlog B(t) = A(t) - D(t) and
virtual delay W(t) = inf{d >= 0 : A(t - d) <= D(t)}.

Randomness: every source draws from its own counter-based Philox stream
keyed by (base_seed, replication, hop, source index), so adding sources,
hops or replications never perturbs existing streams.  Hop key 0 is the
through-source block at the ingress; cross sources use their hop number.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import StabilityError
from .envelopes import MmooParams

__all__ = [
    "SimScenario",
    "SimResult",
    "ReplicationTrace",
    "EndToEnd",
    "HopTrace",
    "ValidationReport",
    "stationary_on_state",
    "simulate_replication",
    "reduce_replications",
    "simulate_tandem",
    "validate_exceedances",
    "validate_samples",
]


@dataclass(frozen=True)
class SimScenario:
    """Simulation description; all quantities in bits and slots.

    ``warmup_slots=None`` selects the default of 10x the longer of the two
    mean sojourn times, rounded up.  Samples taken during warmup are
    discarded.
    """

    hops: int
    capacity_per_slot: float
    through_count: int
    cross_count: int
    source: MmooParams
    measure_slots: int
    warmup_slots: Optional[int] = None
    replications: int = 1
    base_seed: int = 0
    backlog_guard_bits: float = 1e12

    def __post_init__(self):
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if not (math.isfinite(self.capacity_per_slot) and self.capacity_per_slot > 0):
            raise ValueError("capacity_per_slot must be finite and positive")
        if self.through_count < 1:
            raise ValueError("through_count must be >= 1")
        if self.cross_count < 0:
            raise ValueError("cross_count must be >= 0")
        if self.measure_slots < 1:
            raise ValueError("measure_slots must be >= 1")
        if self.warmup_slots is not None and self.warmup_slots < 0:
            raise ValueError("warmup_slots must be >= 0")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be a non-negative integer")
        if not self.backlog_guard_bits > 0:
            raise ValueError("backlog_guard_bits must be positive")

    def resolved_warmup(self) -> int:
        if self.warmup_slots is not None:
            return self.warmup_slots
        p = self.source
        sojourns = [1.0 / r for r in (p.r_on_off, p.r_off_on) if r > 0]
        return int(math.ceil(10.0 * max(sojourns))) if sojourns else 0

    def utilization(self) -> float:
        load = (self.through_count + self.cross_count) * self.source.mean_rate
        return load / self.capacity_per_slot


@dataclass(frozen=True, eq=False)
class HopTrace:
    """Cumulative curves for one hop (arrays of length T + 1, index = slot)."""

    arrivals_total: np.ndarray
    departures_total: np.ndarray
    arrivals_through: np.ndarray
    departures_through: np.ndarray
    through_per_slot: np.ndarray
    cross_per_slot: np.ndarray


@dataclass(frozen=True, eq=False)
class ReplicationTrace:
    ingress: np.ndarray           # cumulative through arrivals at hop 1
    egress: np.ndarray            # cumulative through departures from hop H
    delay_samples: Optional[np.ndarray]    # int slots, one per measured slot; None when reduced
    backlog_samples: Optional[np.ndarray]  # bits, one per measured slot; None when reduced
    hops: tuple                   # HopTrace per hop when requested, else ()
    reduced: dict                 # hop count -> result of its reduction


@dataclass(frozen=True, eq=False)
class SimResult:
    delay_samples: np.ndarray
    backlog_samples: np.ndarray
    replication_seeds: tuple
    measured_slots: int


# ---------------------------------------------------------------------------
# source processes
# ---------------------------------------------------------------------------

def stationary_on_state(rng: np.random.Generator, params: MmooParams) -> bool:
    """Draw the initial state from the stationary on-probability."""
    return bool(rng.random() < params.on_probability)


def _source_rng(base_seed: int, replication: int, hop: int, index: int) -> np.random.Generator:
    seq = np.random.SeedSequence([base_seed, replication, hop, index])
    return np.random.Generator(np.random.Philox(seq))


def _on_runs(rng: np.random.Generator, params: MmooParams, total: int):
    """On-intervals [start, end) of one source over ``total`` slots.

    Sojourns are geometric with parameter 1 - e^{-rate}; a zero rate makes
    the corresponding state absorbing.
    """
    p_leave_on = -math.expm1(-params.r_on_off)
    p_leave_off = -math.expm1(-params.r_off_on)
    on = stationary_on_state(rng, params)

    if p_leave_on == 0.0:  # on state absorbs
        if on:
            return np.array([0]), np.array([total])
        first_off = int(rng.geometric(p_leave_off))
        if first_off >= total:
            return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        return np.array([first_off]), np.array([total])
    if p_leave_off == 0.0:  # off state absorbs
        if not on:
            return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        first_on = int(rng.geometric(p_leave_on))
        return np.array([0]), np.array([min(first_on, total)])

    cycle = 1.0 / p_leave_on + 1.0 / p_leave_off
    block = max(16, int(1.2 * total / cycle) + 4)
    starts_parts, ends_parts = [], []
    t = 0
    while t < total:
        cur = rng.geometric(p_leave_on if on else p_leave_off, block)
        alt = rng.geometric(p_leave_off if on else p_leave_on, block)
        lengths = np.empty(2 * block, dtype=np.int64)
        lengths[0::2] = cur
        lengths[1::2] = alt
        # a sojourn of total slots already ends the run; the cap keeps a
        # saturated draw (2**63 - 1) from wrapping the cumsum negative
        np.minimum(lengths, total, out=lengths)
        ends = t + np.cumsum(lengths)
        starts = np.empty_like(ends)
        starts[0] = t
        starts[1:] = ends[:-1]
        sel = slice(0, None, 2) if on else slice(1, None, 2)
        starts_parts.append(starts[sel])
        ends_parts.append(ends[sel])
        t = int(ends[-1])  # even number of sojourns: state unchanged
    starts = np.concatenate(starts_parts)
    ends = np.concatenate(ends_parts)
    keep = starts < total
    return starts[keep], np.minimum(ends[keep], total)


def _on_count(base_seed: int, replication: int, hop: int, count: int,
              params: MmooParams, total: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """On sources per slot among ``count`` sources, as ``out[:total]`` (int64, total + 1 long)."""
    out = np.empty(total + 1, dtype=np.int64) if out is None else out
    out.fill(0)
    for j in range(count):
        rng = _source_rng(base_seed, replication, hop, j)
        starts, ends = _on_runs(rng, params, total)
        np.add.at(out, starts, 1)
        np.add.at(out, ends, -1)
    return np.cumsum(out[:total], out=out[:total])


def _arrival_curve(scenario: SimScenario, replication: int, hop: int, count: int,
                   out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Cumulative bits of ``count`` sources (index = slot) into ``out``; ``scratch`` is int64."""
    on = _on_count(scenario.base_seed, replication, hop, count, scenario.source, len(out) - 1, scratch)
    np.multiply(np.cumsum(on, out=on), scenario.source.peak_rate, out=out[1:])
    out[0] = 0.0
    return out


# Slots per pass of a curve inversion.  A pass holds up to four arrays of
# this length: at 2**16 slots that was 2 MB, more than anything else a
# replication allocates beside its curves, and it raised desk-validation's
# peak RSS by 0.8 MB.
_CHUNK = 1 << 14


def _search_right(a: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(a, keys, side="right")`` for a nondecreasing ``a`` and nonempty ``keys``.

    Only the part of ``a`` between the answers for the smallest and the
    largest key is searched, which is exact for any key order.
    """
    lo, hi = np.searchsorted(a, (keys.min(), keys.max()), side="right")
    found = np.searchsorted(a[lo:hi], keys, side="right")
    found += lo
    return found


def _busy_part(busy: np.ndarray):
    """Index of a chunk's busy slots, or None when it has none.

    That is their positions, or the whole chunk when most slots are busy:
    a dense chunk is computed on its contiguous slice, without a gather and
    a scatter, and :func:`_put_busy` keeps only its busy slots.
    """
    at = np.flatnonzero(busy)
    if not len(at):
        return None
    return slice(None) if 2 * len(at) > len(busy) else at


def _put_busy(row: np.ndarray, busy: np.ndarray, at, values: np.ndarray) -> None:
    """Write ``values``, computed at ``_busy_part(busy)``, into the busy slots of ``row``."""
    if isinstance(at, slice):
        np.copyto(row, values, where=busy)
    else:
        row[at] = values


# ---------------------------------------------------------------------------
# queueing
# ---------------------------------------------------------------------------

def _hop_curves(thr_cum: np.ndarray, cross_cum: np.ndarray, cap_line: np.ndarray,
                arr_cum: np.ndarray, dep_cum: np.ndarray, out: np.ndarray, keep: bool) -> float:
    """FIFO work-conserving hop over cumulative through and cross arrivals.

    Arrivals of slot s are served from slot s on, cross bits ahead of through
    bits.  With excess = A - C*t (``cap_line`` is C*t), the queue is excess -
    min.accumulate(excess) and the departures D = A - queue are exactly A at
    an empty queue.  There every through bit that arrived before t has left,
    so D_through(t) = thr_cum(t).  At a busy slot, with e the first slot
    boundary where A(e) > D, all slots before e - 1 have left, and slot e - 1
    sends its cross bits before its through bits:
    D_through = clip(D - cross[e], thr[e - 1], thr[e]).  The search for e,
    the only one per busy slot, is exact because A is a nondecreasing
    cumulative curve.  Writes A_total and D_through into ``arr_cum`` and
    ``out``, and D_total into ``dep_cum`` when ``keep`` (else ``dep_cum`` is
    scratch).  Returns the largest queue, 0 when no slot is busy.
    """
    np.add(thr_cum, cross_cum, out=arr_cum)
    excess = np.subtract(arr_cum, cap_line, out=dep_cum)
    np.copyto(out, thr_cum)
    last, run_min, max_queue = len(out) - 1, math.inf, 0.0
    for i in range(0, len(out), _CHUNK):
        c = slice(i, i + _CHUNK)
        low = np.minimum.accumulate(excess[c])
        np.minimum(low, run_min, out=low)
        run_min = low[-1]
        queue = np.subtract(excess[c], low, out=low)
        if keep:
            np.subtract(arr_cum[c], queue, out=dep_cum[c])
        busy = queue > 0
        at = _busy_part(busy)
        if at is None:
            continue
        dep = queue[at]
        max_queue = max(max_queue, float(dep.max()))
        np.subtract(arr_cum[c][at], dep, out=dep)
        e = _search_right(arr_cum, dep)
        lower = thr_cum[e - 1]
        # e is T + 1 where D rounds to A(T); only the upper index is capped,
        # which gives thr_cum[T]
        np.minimum(e, last, out=e)
        dep -= cross_cum[e]
        _put_busy(out[c], busy, at, np.clip(dep, lower, thr_cum[e], out=dep))
    return max_queue


class EndToEnd:
    """End-to-end view of one hop prefix of a replication, given to its reduction.

    ``ingress`` and ``egress`` are the cumulative through arrivals at hop 1
    and through departures from the prefix's last hop, over slots 0..T; the
    measured slots are warmup + 1..T.  Slot t has backlog ingress[t] -
    egress[t] and delay t - s, at least 0, with s the last slot where
    ingress[s] <= egress[t].  Every array here is a row of the replication's
    curve block that the next hop overwrites, so a reduction must not keep
    the view or the arrays it returns.
    """

    def __init__(self, ingress: np.ndarray, egress: np.ndarray, warmup: int, index: np.ndarray,
                 scratch: np.ndarray):
        self.ingress, self.egress, self.warmup = ingress, egress, warmup
        self._index, self._scratch = index, scratch
        self._backlogs = None

    @property
    def measured_slots(self) -> int:
        return len(self.egress) - 1 - self.warmup

    def backlogs(self) -> np.ndarray:
        """Backlog samples (bits) of the measured slots, in the scratch row."""
        if self._backlogs is None:
            w = self.warmup + 1
            self._backlogs = np.subtract(self.ingress[w:], self.egress[w:], out=self._scratch[w:])
        return self._backlogs

    def samples(self) -> tuple:
        """Delay (int slots) and backlog (bits) samples of the measured slots.

        A delay is at least 1 exactly when the backlog is positive, so the
        delays invert the ingress only at those slots, and are 0 elsewhere.
        The search for s is exact because the ingress is a nondecreasing
        cumulative curve.
        """
        w = self.warmup + 1
        backlogs, egress = self.backlogs(), self.egress[w:]
        delays = self._index[w:]
        delays.fill(0)
        for i in range(0, len(delays), _CHUNK):
            c = slice(i, i + _CHUNK)
            busy = backlogs[c] > 0
            at = _busy_part(busy)
            if at is None:
                continue
            # slot t = w + i + position has delay t + 1 - (ingress values <= egress[t])
            found = _search_right(self.ingress, egress[c][at])
            _put_busy(delays[c], busy, at, np.arange(w + i + 1, w + i + 1 + len(busy))[at] - found)
        return delays, backlogs

    def delay_exceedances(self, threshold: float) -> int:
        """Measured slots whose delay exceeds ``threshold``, without inverting the ingress.

        Delays are whole slots, so for d >= 0, delay(t) > d exactly when
        delay(t) >= k = floor(d) + 1, that is when fewer than t + 2 - k
        ingress values are at most egress[t]: ingress[t + 1 - k] > egress[t],
        which no slot t < k - 1 meets.  Every delay exceeds a negative
        threshold; none exceeds +inf or NaN.
        """
        if not threshold < math.inf:  # +inf or NaN
            return 0
        if threshold < 0:
            return self.measured_slots
        k = math.floor(threshold) + 1
        first, last = max(self.warmup + 1, k - 1), len(self.egress) - 1
        if first > last:
            return 0
        return int(np.count_nonzero(self.ingress[first + 1 - k:last + 2 - k] > self.egress[first:]))

    def backlog_exceedances(self, threshold: float) -> int:
        """Measured slots whose backlog exceeds ``threshold``."""
        return int(np.count_nonzero(self.backlogs() > threshold))


def simulate_replication(scenario: SimScenario, replication: int, keep_hops: bool = False,
                         reduce: Optional[dict] = None) -> ReplicationTrace:
    """Run one replication; deterministic in (scenario, replication).

    Every source stream is keyed by its own hop, so the first h hops of this
    run are bit-identical to an h-hop run.  ``reduce`` maps hop counts
    h <= ``scenario.hops`` to functions of that h-hop prefix's
    :class:`EndToEnd` view.  Each is called as soon as hop h is done and its
    result goes to the trace's ``reduced[h]``; the trace then holds no
    samples.  The view's arrays are rows that the next hop overwrites, so a
    reduction must not keep them.  Without ``reduce`` the trace holds the
    samples of all ``scenario.hops`` hops.
    """
    warmup = scenario.resolved_warmup()
    total = warmup + scenario.measure_slots
    # Every curve is a row of one block, so no curve-sized array is freed per hop:
    # freed ones left the heap, and peak memory, different from run to run.
    block = np.empty((8, total + 1))
    ingress, *through, cross_cum, arr_cum, dep_cum, cap_line = block[:7]
    index = block[7].view(np.int64)
    # C*t for t = 0, 1, ..., total: the same values as an int64 ramp times C
    cap_line[0] = 0.0
    np.cumsum(np.broadcast_to(1.0, total), out=cap_line[1:])
    cap_line *= scenario.capacity_per_slot
    thr_cum = _arrival_curve(scenario, replication, 0, scenario.through_count, ingress, index)
    hop_traces, reduced = [], {}
    for hop in range(1, scenario.hops + 1):
        _arrival_curve(scenario, replication, hop, scenario.cross_count, cross_cum, index)
        dep_thr = through[hop % 2]  # the row that thr_cum is not
        max_queue = _hop_curves(thr_cum, cross_cum, cap_line, arr_cum, dep_cum, dep_thr, keep_hops)
        if max_queue > scenario.backlog_guard_bits:
            raise StabilityError(f"hop {hop} queue reached {max_queue:.3g} bits (guard "
                                 f"{scenario.backlog_guard_bits:.3g}); offered load "
                                 f"utilization is {scenario.utilization():.3f}")
        if keep_hops:
            hop_traces.append(HopTrace(arr_cum.copy(), dep_cum.copy(), thr_cum.copy(), dep_thr.copy(),
                                       np.diff(thr_cum), np.diff(cross_cum)))
        thr_cum = dep_thr
        if reduce is not None and hop in reduce:
            reduced[hop] = reduce[hop](EndToEnd(ingress, thr_cum, warmup, index, arr_cum))

    delays, backlogs = ((None, None) if reduce is not None
                        else EndToEnd(ingress, thr_cum, warmup, index, arr_cum).samples())
    return ReplicationTrace(
        ingress=ingress,
        egress=thr_cum,
        delay_samples=delays,
        backlog_samples=backlogs,
        hops=tuple(hop_traces),
        reduced=reduced,
    )


def _reduced_replication(scenario: SimScenario, reduce: dict, replication: int) -> dict:
    return simulate_replication(scenario, replication, reduce=reduce).reduced


def reduce_replications(scenario: SimScenario, reduce: dict, jobs: int = 1):
    """Each replication's ``reduced`` (see :func:`simulate_replication`), in
    replication order, from ``jobs`` worker processes when above 1.

    A generator: one replication's samples are live per worker, and the
    caller holds only what the reductions return.  ``reduce`` and its
    results cross process boundaries, so they must pickle.  Raises
    :class:`StabilityError` when the offered load exceeds the capacity
    (utilization > 1) or a queue outgrows the configured guard.
    """
    util = scenario.utilization()
    if util > 1.0:
        raise StabilityError(
            f"offered load {util:.3f} x capacity per hop exceeds 1; "
            f"{scenario.through_count}+{scenario.cross_count} sources at mean rate "
            f"{scenario.source.mean_rate:.6g} bits/slot against capacity "
            f"{scenario.capacity_per_slot:.6g} bits/slot"
        )
    n = scenario.replications
    with contextlib.ExitStack() as stack:
        mapper = map
        if jobs > 1 and n > 1:
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=jobs)).map
        yield from mapper(_reduced_replication, [scenario] * n, [reduce] * n, range(n))


def simulate_tandem(scenario: SimScenario, jobs: int = 1) -> SimResult:
    """All replications of a scenario, merged in replication order.

    Aborts with :class:`StabilityError` when the offered load exceeds the
    capacity (utilization > 1) or a queue outgrows the configured guard.
    """
    n, k, h = scenario.replications, scenario.measure_slots, scenario.hops
    delays, backlogs = np.empty(n * k, dtype=np.int64), np.empty(n * k)
    # filled one replication at a time, so no second copy of the samples is held
    for r, reduced in enumerate(reduce_replications(scenario, {h: EndToEnd.samples}, jobs)):
        delays[r * k:(r + 1) * k], backlogs[r * k:(r + 1) * k] = reduced[h]
    seeds = tuple((scenario.base_seed, r) for r in range(n))
    return SimResult(
        delay_samples=delays,
        backlog_samples=backlogs,
        replication_seeds=seeds,
        measured_slots=n * k,
    )


# ---------------------------------------------------------------------------
# empirical tails and bound validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    kind: str
    threshold: float
    epsilon: float
    sample_count: int
    exceed_count: int
    frequency: float
    upper_confidence: float
    verdict: str                  # "pass" | "fail" | "inconclusive"
    warnings: tuple


def validate_exceedances(exceed_count: int, sample_count: int, kind: str, threshold: float,
                         epsilon: float) -> ValidationReport:
    """Check that an analytic tail bound dominates the empirical tail, given
    that ``exceed_count`` of ``sample_count`` samples exceed ``threshold``.

    The report carries the exceedance frequency and its one-sided 95%
    Clopper-Pearson upper confidence limit.  Pass means that limit stays at
    or below epsilon.  When the sample budget cannot resolve epsilon (fewer
    than 100 expected exceedances, epsilon * n < 100) the verdict is
    "inconclusive" and a warning is attached.
    """
    if sample_count < 1:
        raise ValueError("samples must be non-empty")
    k, n = exceed_count, sample_count
    if k == n:
        upper = 1.0
    else:
        # imported here so that `import sncalc` and the bound commands do
        # not pay for loading scipy
        from scipy.special import betaincinv

        upper = float(betaincinv(k + 1, n - k, 0.95))
    warnings = []
    if epsilon * n < 100:
        warnings.append(f"sample budget too small for epsilon={epsilon:g}: expected "
                        f"exceedances {epsilon * n:.3g} < 100")
        verdict = "inconclusive"
    else:
        verdict = "pass" if upper <= epsilon else "fail"
    return ValidationReport(
        kind=kind,
        threshold=threshold,
        epsilon=epsilon,
        sample_count=n,
        exceed_count=k,
        frequency=k / n,
        upper_confidence=upper,
        verdict=verdict,
        warnings=tuple(warnings),
    )


def validate_samples(samples: np.ndarray, kind: str, threshold: float, epsilon: float) -> ValidationReport:
    """:func:`validate_exceedances` on the samples strictly above ``threshold``."""
    samples = np.asarray(samples)
    return validate_exceedances(int(np.count_nonzero(samples > threshold)), samples.size, kind,
                                threshold, epsilon)
