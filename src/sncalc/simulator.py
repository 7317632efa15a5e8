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
real rates.  A busy slot's through departures come from one search of A
that is capped at the slot itself, so no result depends on the chunks of
slots the curves are computed in.  The test suite cross-checks them
against a literal chunk-queue implementation, also in rational
arithmetic.  End-to-end measurements
follow the cumulative-curve definitions: backlog B(t) = A(t) - D(t) and
virtual delay W(t) = inf{d >= 0 : A(t - d) <= D(t)}.

A replication touches only the curve rows it uses.  Arrivals are closed
forms over the slots where a group's on-count changes, evaluated one chunk
of slots at a time: only the ingress becomes a row.  The cross and total
arrivals, C*t, the excess and the queue of a hop live in chunk-sized
scratch, and D_total, the backlogs and the delay row are written only when
asked for.  The validation statistics' one-sided
Clopper-Pearson limit is computed here too, in numpy, so the package never
imports scipy.

Randomness: every source draws from its own counter-based Philox stream
keyed by (base_seed, replication, hop, source index), so adding sources,
hops or replications never perturbs existing streams.  Hop key 0 is the
through-source block at the ingress; cross sources use their hop number.
"""

from __future__ import annotations

import collections
import math
import numbers
from functools import partial
from typing import Optional

import numpy as np

from ._record import Record
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


class SimScenario(Record):
    """Simulation description; all quantities in bits and slots.

    ``warmup_slots=None`` selects the default of 10x the longer of the two
    mean sojourn times, rounded up.  Samples taken during warmup are
    discarded.
    """

    __slots__ = ("hops", "capacity_per_slot", "through_count", "cross_count", "source",
                 "measure_slots", "warmup_slots", "replications", "base_seed", "backlog_guard_bits")
    _defaults = {"warmup_slots": None, "replications": 1, "base_seed": 0, "backlog_guard_bits": 1e12}

    def _validate(self):
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


class HopTrace(Record, eq=False):
    """Cumulative curves for one hop (arrays of length T + 1, index = slot)."""

    __slots__ = ("arrivals_total", "departures_total", "arrivals_through", "departures_through",
                 "through_per_slot", "cross_per_slot")


class ReplicationTrace(Record, eq=False):
    """One replication's curves and samples.

    ingress           cumulative through arrivals at hop 1
    egress            cumulative through departures from hop H
    delay_samples     int slots, one per measured slot; None when reduced
    backlog_samples   int bits, one per measured slot; None when reduced
    hops              HopTrace per hop when requested, else ()
    reduced           hop count -> result of its reduction
    """

    __slots__ = ("ingress", "egress", "delay_samples", "backlog_samples", "hops", "reduced")


class SimResult(Record, eq=False):
    __slots__ = ("delay_samples", "backlog_samples", "replication_seeds", "measured_slots")


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


class _Arrivals:
    """Cumulative arrivals of a group of sources, in closed form.

    With x_0 = 0 < x_1 < ... the slots where the group's on-count changes
    and n_j the sources on in the slots [x_j, x_{j+1}), the count up to slot
    boundary t in [x_j, x_{j+1}] is c_j + n_j t, and the cumulative
    arrivals are A(t) = peak (c_j + n_j t).  Both terms are integers below
    2**53, exact in float64, so A(t) is the product of the exact count and
    the peak rate.  Only x, c and n are stored, one entry per change of the
    on-count; :meth:`fill` evaluates A over a window of slots and :meth:`at`
    at any slots.
    """

    def __init__(self, edges: np.ndarray, steps: np.ndarray, peak: float):
        """From the slots ``edges`` at which the on-count changes by ``steps``
        (any order, repeats summed), starting from 0 sources on."""
        x, inv = np.unique(np.concatenate(([0], edges)), return_inverse=True)
        change = np.bincount(inv, weights=np.concatenate(([0], steps)), minlength=len(x))
        n = np.cumsum(change).astype(np.int64)
        counted = np.zeros(len(x), dtype=np.int64)  # the count up to x_j
        np.cumsum(n[:-1] * np.diff(x), out=counted[1:])
        self.x, self.peak = x, peak
        self.c, self.n = (counted - n * x).astype(float), n.astype(float)

    @classmethod
    def of_sources(cls, scenario: SimScenario, replication: int, hop: int, count: int,
                   total: int) -> "_Arrivals":
        """The ``count`` sources of ``hop`` over ``total`` slots."""
        runs = [_on_runs(_source_rng(scenario.base_seed, replication, hop, j), scenario.source, total)
                for j in range(count)]
        starts = [s for s, _ in runs]
        ends = [e[e < total] for _, e in runs]  # a run to the end never turns off
        edges = np.concatenate([np.zeros(0, dtype=np.int64), *starts, *ends])
        steps = np.ones(len(edges), dtype=np.int64)
        steps[sum(map(len, starts)):] = -1
        return cls(edges, steps, scenario.source.peak_rate)

    def fill(self, start: int, t: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A(start), ..., A(start + len(out) - 1) into ``out``, given those
        slot numbers as the floats ``t``."""
        stop = start + len(out)
        first, last = np.searchsorted(self.x, (start, stop - 1), side="right")
        # segments first - 1 .. last - 1 cover the window, these many slots each
        lengths = np.diff(np.concatenate(([start], self.x[first:last], [stop])))
        seg = slice(first - 1, last)
        np.multiply(np.repeat(self.n[seg], lengths), t, out=out)
        out += np.repeat(self.c[seg], lengths)
        out *= self.peak
        return out

    def fill_row(self, out: np.ndarray, work: "_Window") -> np.ndarray:
        """A(0), ..., A(len(out) - 1) into ``out``, one chunk at a time."""
        for i in range(0, len(out), _CHUNK):
            stop = min(i + _CHUNK, len(out))
            self.fill(i, work.window(i, stop).t, out[i:stop])
        return out

    def at(self, t: np.ndarray) -> np.ndarray:
        """A at the int64 slot boundaries ``t``, each the same float as :meth:`fill` gives."""
        seg = np.searchsorted(self.x, t, side="right")
        seg -= 1
        out = self.n[seg]
        out *= t
        out += self.c[seg]
        out *= self.peak
        return out


# Slots per pass of a curve inversion.  A pass holds four arrays of a bit
# more than this length (see _Window) and two temporaries of it: at 2**16
# slots that was 2 MB, more than anything else a replication allocates
# beside its curves, and it raised desk-validation's peak RSS by 0.8 MB.
_CHUNK = 1 << 14

# Rows of a replication's float64 curve block, over warmup + measured + 1
# slots; Scenario.build_sim_scenario sizes its memory guard by it.
BLOCK_ROWS = 5


class _Window:
    """Scratch over a window of consecutive slots, kept from chunk to chunk
    of a replication.

    After :meth:`window`, ``t`` holds the window's slot numbers as floats,
    and ``a``, ``b`` and ``c`` are work arrays of the same length.  The
    buffer is replaced only by a window longer than it, and then leaves
    room for the FIFO split's reach back past its chunk (see
    :func:`_hop_curves`).
    """

    def __init__(self):
        self._size = 0

    def window(self, start: int, stop: int) -> "_Window":
        n = stop - start
        if n > self._size:
            # with seed 1, desk-validation's windows reached at most 167 slots
            # back past their chunk, and 4461 at 14 + 14 sources (load 0.98)
            self._size = n + _CHUNK // 4
            # the old buffer and its views go before the larger one exists
            self.t = self.a = self.b = self.c = self._buf = None
            self._buf = np.empty((4, self._size))
            self._buf[0] = np.arange(self._size)
            self._start = 0
        self._buf[0] += start - self._start  # whole numbers below 2**53: exact
        self._start = start
        self.t, self.a, self.b, self.c = self._buf[:, :n]
        return self


def _search_right(a: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(a, keys, side="right")`` for a nondecreasing ``a`` and nonempty ``keys``.

    Only the part of ``a`` between the answers for the smallest and the
    largest key is searched, which is exact for any key order.
    """
    lo, hi = np.searchsorted(a, (keys.min(), keys.max()), side="right")
    found = np.searchsorted(a[lo:hi], keys, side="right")
    found += lo
    return found


# ---------------------------------------------------------------------------
# queueing
# ---------------------------------------------------------------------------

def _hop_curves(thr_cum: np.ndarray, cross: _Arrivals, capacity: float, dep_cum: Optional[np.ndarray],
                out: np.ndarray, work: _Window) -> float:
    """FIFO work-conserving hop over cumulative through arrivals ``thr_cum``
    and the closed-form cross arrivals ``cross``.

    Arrivals of slot s are served from slot s on, cross bits ahead of through
    bits.  With A = thr + cross and excess = A - C*t, the queue is excess -
    min.accumulate(excess) and the departures D = A - queue are exactly A at
    an empty queue.  There every through bit that arrived before t has left,
    so D_through(t) = thr_cum(t).  At a busy slot, with e the first slot
    boundary where A(e) > D, all slots before e - 1 have left, and slot e - 1
    sends its cross bits before its through bits:
    D_through = clip(D - cross[e], thr[e - 1], thr[e]).  The search for e,
    the only one per busy slot, is exact because A is a nondecreasing
    cumulative curve.  A busy slot t has D(t) < A(t), so e <= t, and e is
    capped at t: that changes nothing exact, and where D(t) rounds to A(t)
    it keeps the answer from reading arrivals after t, so no result depends
    on where the chunk boundaries fall.  Writes D_through into ``out``, and
    D_total into ``dep_cum`` unless it is None.  Returns the largest queue,
    0 when no slot is busy.

    Everything runs one chunk of slots at a time in ``work``'s scratch: A,
    C*t, the excess and the queue.  The cross arrivals come from their
    closed form, over the chunk and at the busy slots' e, so neither A nor
    the cross arrivals is ever a row.  D is nondecreasing, and so is e: D
    is A at an idle slot and grows by C per busy slot.  So the search from a
    chunk's slots starts at the chunk itself, or, when the slot before it
    is busy, at that slot's e, and the window of A each chunk evaluates
    reaches back only that far.
    """
    run_min, max_queue = math.inf, 0.0
    e_last = None  # e of the slot before the chunk, when that slot is busy
    for i in range(0, len(out), _CHUNK):
        stop = min(i + _CHUNK, len(out))
        start = i if e_last is None else e_last
        w, k = work.window(start, stop), i - start  # the chunk is w's slots from k on
        arr = cross.fill(start, w.t, w.a)
        arr += thr_cum[start:stop]
        np.copyto(out[i:stop], thr_cum[i:stop])
        # C*t as an exact float ramp times C
        excess = np.multiply(w.t[k:], capacity, out=w.b[k:])
        np.subtract(arr[k:], excess, out=excess)
        low = np.minimum.accumulate(excess, out=w.c[k:])
        np.minimum(low, run_min, out=low)
        run_min = low[-1]
        queue = np.subtract(excess, low, out=low)
        if dep_cum is not None:
            np.subtract(arr[k:], queue, out=dep_cum[i:stop])
        e_last = None
        at = np.flatnonzero(queue > 0)
        if not len(at):
            continue
        dep = queue[at]
        max_queue = max(max_queue, float(dep.max()))
        at += k  # the busy slots' places in the window
        np.subtract(arr[at], dep, out=dep)
        e = _search_right(arr, dep)
        np.minimum(e, at, out=e)
        e += start
        dep -= cross.at(e)
        out[at + start] = np.clip(dep, thr_cum[e - 1], thr_cum[e], out=dep)
        if at[-1] == stop - 1 - start:
            e_last = int(e[-1])
    return max_queue


class EndToEnd:
    """End-to-end view of one hop prefix of a replication, given to its reduction.

    ``ingress`` and ``egress`` are the cumulative through arrivals at hop 1
    and through departures from the prefix's last hop, over slots 0..T; the
    measured slots are warmup + 1..T.  Slot t has backlog ingress[t] -
    egress[t] and delay t - s, at least 0, with s the last slot where
    ingress[s] <= egress[t].  The exceedance counts read only ``ingress``
    and ``egress``, a chunk at a time; :meth:`samples` writes the backlogs
    into ``scratch`` and the delays into ``index``.  Every array here is a
    row of the replication's curve block that the next hop overwrites, so a
    reduction must not keep the view or the arrays it returns.
    """

    def __init__(self, ingress: np.ndarray, egress: np.ndarray, warmup: int, index: np.ndarray,
                 scratch: np.ndarray):
        self.ingress, self.egress, self.warmup = ingress, egress, warmup
        self._index, self._scratch = index, scratch

    @property
    def measured_slots(self) -> int:
        return len(self.egress) - 1 - self.warmup

    def samples(self) -> tuple:
        """Delay (int slots) and backlog (bits) samples of the measured slots.

        A delay is at least 1 exactly when the backlog is positive, so the
        delays invert the ingress only at those slots, and are 0 elsewhere.
        The search for s is exact because the ingress is a nondecreasing
        cumulative curve.
        """
        w = self.warmup + 1
        backlogs = np.subtract(self.ingress[w:], self.egress[w:], out=self._scratch[w:])
        egress = self.egress[w:]
        delays = self._index[w:]
        delays.fill(0)
        for i in range(0, len(delays), _CHUNK):
            at = np.flatnonzero(backlogs[i:i + _CHUNK] > 0)
            if not len(at):
                continue
            at += i
            # slot t = w + position has delay t + 1 - (ingress values <= egress[t])
            found = _search_right(self.ingress, egress[at])
            delays[at] = at + (w + 1) - found
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
        count = 0
        for i in range(max(self.warmup + 1, k - 1), len(self.egress), _CHUNK):
            stop = min(i + _CHUNK, len(self.egress))
            count += int(np.count_nonzero(self.ingress[i + 1 - k:stop + 1 - k] > self.egress[i:stop]))
        return count

    def backlog_exceedances(self, threshold: float) -> int:
        """Measured slots whose backlog exceeds ``threshold``, counted one
        chunk at a time without a backlog row."""
        count, buf = 0, np.empty(min(_CHUNK, self.measured_slots))
        for i in range(self.warmup + 1, len(self.egress), _CHUNK):
            stop = min(i + _CHUNK, len(self.egress))
            backlogs = np.subtract(self.ingress[i:stop], self.egress[i:stop], out=buf[:stop - i])
            count += int(np.count_nonzero(backlogs > threshold))
        return count


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
    # Arrivals are closed forms, never rows.  The last two rows hold the
    # backlog samples and the int64 delays when samples are taken, and the
    # last one D_total when the hops are kept, so validate's counts touch
    # only the ingress and the two through rows.
    block = np.empty((BLOCK_ROWS, total + 1))
    ingress, *through, scratch, spare = block
    index = spare.view(np.int64)
    dep_cum = spare if keep_hops else None
    work = _Window()
    through_arrivals = _Arrivals.of_sources(scenario, replication, 0, scenario.through_count, total)
    thr_cum = through_arrivals.fill_row(ingress, work)
    hop_traces, reduced = [], {}
    for hop in range(1, scenario.hops + 1):
        cross = _Arrivals.of_sources(scenario, replication, hop, scenario.cross_count, total)
        dep_thr = through[hop % 2]  # the row that thr_cum is not
        max_queue = _hop_curves(thr_cum, cross, scenario.capacity_per_slot, dep_cum, dep_thr, work)
        if max_queue > scenario.backlog_guard_bits:
            raise StabilityError(f"hop {hop} queue reached {max_queue:.3g} bits (guard "
                                 f"{scenario.backlog_guard_bits:.3g}); offered load "
                                 f"utilization is {scenario.utilization():.3f}")
        if keep_hops:
            cross_cum = cross.fill_row(np.empty(total + 1), work)
            hop_traces.append(HopTrace(thr_cum + cross_cum, dep_cum.copy(), thr_cum.copy(), dep_thr.copy(),
                                       np.diff(thr_cum), np.diff(cross_cum)))
        thr_cum = dep_thr
        if reduce is not None and hop in reduce:
            reduced[hop] = reduce[hop](EndToEnd(ingress, thr_cum, warmup, index, scratch))

    delays, backlogs = ((None, None) if reduce is not None
                        else EndToEnd(ingress, thr_cum, warmup, index, scratch).samples())
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
    run = partial(_reduced_replication, scenario, reduce)
    if jobs < 2 or n < 2:
        yield from map(run, range(n))
        return
    from concurrent.futures import ProcessPoolExecutor

    # at most 2 * jobs replications are submitted ahead of the one awaited,
    # so however many there are, only that many futures are held
    pool, pending = ProcessPoolExecutor(max_workers=jobs), collections.deque()
    try:
        for r in range(n):
            pending.append(pool.submit(run, r))
            if len(pending) > 2 * jobs:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


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

class ValidationReport(Record):
    """``verdict`` is "pass", "fail" or "inconclusive"."""

    __slots__ = ("kind", "threshold", "epsilon", "sample_count", "exceed_count", "frequency",
                 "upper_confidence", "verdict", "warnings")


# one-sided 95% confidence: the limit is the p with P(Bin(n, p) <= k) = _ALPHA
_ALPHA = 0.05
_LN_2PI = math.log(2.0 * math.pi)


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n / e)^n) for n >= 1, accurate to about 1e-16."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * _LN_2PI
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x / m) + m - x, by its series in (x - m) / (x + m) when x is near m."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    total, term, j = (x - m) * v, 2.0 * x * v, 1
    while True:
        term *= v * v
        nxt = total + term / (2 * j + 1)
        if nxt == total:
            return total
        total, j = nxt, j + 1


def _log_binomial_cdf(k: int, n: int, p: float) -> tuple:
    """log P(Bin(n, p) <= k) and log P(Bin(n, p) = k), for 0 < k < n and k/n <= p < 1.

    The pmf at k is Loader's saddle-point form ("Fast and accurate
    computation of binomial probabilities", 2000), which has no lgamma
    differences: at n = 2e7 those lose about 1e-7 of log C(n, k).  Below k
    the pmf is stepped down by pmf(j - 1) / pmf(j) = j (1 - p) / ((n - j + 1) p)
    over about 40 standard deviations.  With np >= k the pmf rises up to k,
    so the terms left out are below e^-800 of pmf(k), and the cost is
    O(sqrt(n p (1 - p))), not O(k).
    """
    q = 1.0 - p
    log_pmf = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
               - 0.5 * (_LN_2PI + math.log(k) + math.log1p(-k / n)))
    j = np.arange(k, max(k - int(40.0 * math.sqrt(n * p * q)) - 40, 0), -1, dtype=float)
    steps = np.log(j / (n + 1.0 - j))
    steps += math.log(q / p)
    below = np.cumsum(steps, out=steps)  # log pmf(j - 1) - log pmf(k) for each j
    return log_pmf + math.log1p(float(np.exp(below).sum())), log_pmf


def _clopper_pearson_upper(k: int, n: int) -> float:
    """One-sided 95% Clopper-Pearson upper limit for k successes in n trials.

    That is the p with P(Bin(n, p) <= k) = 0.05, the 0.95 quantile of
    Beta(k + 1, n - k) (Clopper & Pearson, 1934).  A Newton step on
    log P(Bin(n, p) <= k), kept inside a shrinking bracket by bisection,
    starts from the Wilson score limit.
    """
    if k == 0:
        return -math.expm1(math.log(_ALPHA) / n)  # (1 - p)^n = alpha
    if k == n:
        return 1.0
    # at p = k/n the median of Bin(n, p) is k, at p = 1 no count is <= k < n
    lo, hi = k / n, 1.0
    z2 = 1.6448536269514722 ** 2  # the standard normal 0.95 quantile, squared
    wilson = (k + z2 / 2 + math.sqrt(z2 * (k * (n - k) / n + z2 / 4))) / (n + z2)
    p = wilson if lo < wilson < hi else (lo + hi) / 2
    for _ in range(100):
        log_cdf, log_pmf = _log_binomial_cdf(k, n, p)
        gap = log_cdf - math.log(_ALPHA)
        if gap > 0:
            lo = p
        else:
            hi = p
        # d/dp log P(Bin(n, p) <= k) = -(n - k) pmf(k) / ((1 - p) cdf(k))
        step = gap * (1.0 - p) / ((n - k) * math.exp(log_pmf - log_cdf))
        if abs(step) <= 4e-16 * p:
            return p + step
        p = p + step if lo < p + step < hi else (lo + hi) / 2
    return p


def validate_exceedances(exceed_count: int, sample_count: int, kind: str, threshold: float,
                         epsilon: float) -> ValidationReport:
    """Check that an analytic tail bound dominates the empirical tail, given
    that ``exceed_count`` of ``sample_count`` samples exceed ``threshold``.

    The report carries the exceedance frequency and its one-sided 95%
    Clopper-Pearson upper confidence limit, computed here without scipy and
    within about 1e-15 relative of the exact root.  Pass means that limit
    stays at or below epsilon.  When the sample budget cannot resolve epsilon
    (fewer than 100 expected exceedances, epsilon * n < 100) the verdict is
    "inconclusive" and a warning is attached.
    """
    if sample_count < 1:
        raise ValueError("samples must be non-empty")
    k, n = exceed_count, sample_count
    if not (isinstance(k, numbers.Integral) and 0 <= k <= n):
        raise ValueError(f"exceed_count must be an integer in 0..{n}, got {k!r}")
    upper = _clopper_pearson_upper(int(k), int(n))  # Python ints: k (n - k) overflows int64
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
