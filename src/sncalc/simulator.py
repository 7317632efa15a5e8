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
    "HopTrace",
    "ValidationReport",
    "mmoo_source_step",
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
        if self.capacity_per_slot <= 0:
            raise ValueError("capacity_per_slot must be positive")
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


def mmoo_source_step(on: bool, rng: np.random.Generator, params: MmooParams):
    """One slot of a source: emit by the state at slot start, then switch.

    Per-slot switching probabilities follow the exponential-holding
    discretization 1 - e^{-rate}.  Returns (next_state, emitted_bits).
    """
    bits = params.peak_rate if on else 0.0
    rate = params.r_on_off if on else params.r_off_on
    if rate > 0 and rng.random() < -math.expm1(-rate):
        on = not on
    return on, bits


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


def _search_right(a: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.searchsorted(a, v, side="right")`` into ``out``, 2**16 keys at a time."""
    for i in range(0, len(v), 1 << 16):
        out[i:i + (1 << 16)] = np.searchsorted(a, v[i:i + (1 << 16)], side="right")
    return out


# ---------------------------------------------------------------------------
# queueing
# ---------------------------------------------------------------------------

def _hop_curves(thr_cum: np.ndarray, cross_cum: np.ndarray, capacity: float, slots: np.ndarray,
                arr_cum: np.ndarray, dep_cum: np.ndarray, out: np.ndarray, index: np.ndarray,
                lower: np.ndarray, upper: np.ndarray) -> float:
    """FIFO work-conserving hop over cumulative through and cross arrivals.

    Arrivals of slot s are served from slot s on, cross bits ahead of through
    bits.  With excess = A - C*t, the queue is excess - min.accumulate(excess)
    and the departures D = A - queue are exactly A at an empty queue.  All
    slots before e - 1, with e the first slot boundary where A(e) > D, have
    left, and slot e - 1 sends its cross bits before its through bits.
    Writes A_total, D_total and D_through into ``arr_cum``, ``dep_cum`` and
    ``out`` and returns the largest queue; ``slots`` is 0, 1, ..., T.  The
    scratch curves ``lower`` and ``upper`` may be ``arr_cum`` and ``cross_cum``.
    """
    np.add(thr_cum, cross_cum, out=arr_cum)
    queue = np.subtract(arr_cum, np.multiply(slots, capacity, out=dep_cum), out=dep_cum)
    queue -= np.minimum.accumulate(queue, out=out)
    max_queue = float(queue.max())
    dep_cum = np.subtract(arr_cum, queue, out=dep_cum)
    e = _search_right(arr_cum, dep_cum, index)
    e -= 1  # takes wrap like indexing does; mode "raise" would copy out first
    np.take(thr_cum, e, out=lower, mode="wrap")
    e += 1
    # only the upper index is capped, so a queue that drains in the last
    # slot gives thr_cum[T] exactly
    np.minimum(e, len(e) - 1, out=e)
    dep_thr = np.subtract(dep_cum, np.take(cross_cum, e, out=out, mode="wrap"), out=out)
    np.clip(dep_thr, lower, np.take(thr_cum, e, out=upper, mode="wrap"), out=dep_thr)
    return max_queue


def _end_to_end(ingress: np.ndarray, egress: np.ndarray, warmup: int, slots: np.ndarray,
                index: np.ndarray, out: np.ndarray):
    """Delay (int slots) and backlog (bits) samples of the measured slots, in ``index`` and ``out``."""
    measured = egress[warmup + 1:]
    # slot t has delay t - (last slot s with ingress[s] <= egress[t]), at least 0
    delays = _search_right(ingress, measured, index[warmup + 1:])
    np.subtract(slots[warmup + 1:], delays, out=delays)
    delays += 1
    np.maximum(delays, 0, out=delays)
    return delays, np.subtract(ingress[warmup + 1:], measured, out=out[warmup + 1:])


def simulate_replication(scenario: SimScenario, replication: int, keep_hops: bool = False,
                         reduce: Optional[dict] = None) -> ReplicationTrace:
    """Run one replication; deterministic in (scenario, replication).

    Every source stream is keyed by its own hop, so the first h hops of this
    run are bit-identical to an h-hop run.  ``reduce`` maps hop counts
    h <= ``scenario.hops`` to functions of that h-hop prefix's end-to-end
    ``(delay_samples, backlog_samples)``.  Each is called as soon as hop h is
    done, its result goes to the trace's ``reduced[h]``, and the prefix's
    samples are dropped; the trace then holds no samples.  The samples are
    views that the next hop overwrites, so a reduction must not keep them.
    Without ``reduce`` the trace holds the samples of all ``scenario.hops`` hops.
    """
    warmup = scenario.resolved_warmup()
    total = warmup + scenario.measure_slots
    # Every curve is a row of one block, so no curve-sized array is freed per hop:
    # freed ones left the heap, and peak memory, different from run to run.  Kept
    # hops need two more rows, as their curves must be intact after the hop.
    block = np.empty((10 if keep_hops else 8, total + 1))
    ingress, *through, cross_cum, arr_cum, dep_cum = block[:6]
    slots, index = block[6:8].view(np.int64)
    lower, upper = block[8:] if keep_hops else (arr_cum, cross_cum)
    slots[0] = 0
    np.cumsum(np.broadcast_to(1, total), out=slots[1:])  # 0, 1, ..., total
    thr_cum = _arrival_curve(scenario, replication, 0, scenario.through_count, ingress, index)
    hop_traces, reduced = [], {}
    for hop in range(1, scenario.hops + 1):
        _arrival_curve(scenario, replication, hop, scenario.cross_count, cross_cum, index)
        dep_thr = through[hop % 2]  # the row that thr_cum is not
        max_queue = _hop_curves(thr_cum, cross_cum, scenario.capacity_per_slot, slots,
                                arr_cum, dep_cum, dep_thr, index, lower, upper)
        if max_queue > scenario.backlog_guard_bits:
            raise StabilityError(f"hop {hop} queue reached {max_queue:.3g} bits (guard "
                                 f"{scenario.backlog_guard_bits:.3g}); offered load "
                                 f"utilization is {scenario.utilization():.3f}")
        if keep_hops:
            hop_traces.append(HopTrace(arr_cum.copy(), dep_cum.copy(), thr_cum.copy(), dep_thr.copy(),
                                       np.diff(thr_cum), np.diff(cross_cum)))
        thr_cum = dep_thr
        if reduce is not None and hop in reduce:
            reduced[hop] = reduce[hop](*_end_to_end(ingress, thr_cum, warmup, slots, index, arr_cum))

    delays, backlogs = ((None, None) if reduce is not None
                        else _end_to_end(ingress, thr_cum, warmup, slots, index, arr_cum))
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


def _samples(delays: np.ndarray, backlogs: np.ndarray):
    return delays, backlogs


def simulate_tandem(scenario: SimScenario, jobs: int = 1) -> SimResult:
    """All replications of a scenario, merged in replication order.

    Aborts with :class:`StabilityError` when the offered load exceeds the
    capacity (utilization > 1) or a queue outgrows the configured guard.
    """
    n, k, h = scenario.replications, scenario.measure_slots, scenario.hops
    delays, backlogs = np.empty(n * k, dtype=np.int64), np.empty(n * k)
    # filled one replication at a time, so no second copy of the samples is held
    for r, reduced in enumerate(reduce_replications(scenario, {h: _samples}, jobs)):
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
    slack: float
    verdict: str                  # "pass" | "fail" | "inconclusive"
    warnings: tuple


def validate_exceedances(exceed_count: int, sample_count: int, kind: str, threshold: float,
                         epsilon: float, slack: float = 0.0) -> ValidationReport:
    """Check that an analytic tail bound dominates the empirical tail, given
    that ``exceed_count`` of ``sample_count`` samples exceed ``threshold``.

    The report carries the exceedance frequency and its one-sided 95%
    Clopper-Pearson upper confidence limit.  Pass means that limit stays at
    or below epsilon * (1 + slack).  When the sample budget cannot resolve
    epsilon (fewer than 100 expected exceedances, epsilon * n < 100) the
    verdict is "inconclusive" and a warning is attached.
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
        verdict = "pass" if upper <= epsilon * (1.0 + slack) else "fail"
    return ValidationReport(
        kind=kind,
        threshold=threshold,
        epsilon=epsilon,
        sample_count=n,
        exceed_count=k,
        frequency=k / n,
        upper_confidence=upper,
        slack=slack,
        verdict=verdict,
        warnings=tuple(warnings),
    )


def validate_samples(samples: np.ndarray, kind: str, threshold: float, epsilon: float,
                     slack: float = 0.0) -> ValidationReport:
    """:func:`validate_exceedances` on the samples strictly above ``threshold``."""
    samples = np.asarray(samples)
    return validate_exceedances(int(np.count_nonzero(samples > threshold)), samples.size, kind,
                                threshold, epsilon, slack)
