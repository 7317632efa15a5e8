"""Discrete-time tandem FIFO simulator with Markov-modulated on-off sources.

Topology: :attr:`SimScenario.path`, the hop and traffic records the bounds
read.  A new traffic or service kind is taught to :mod:`.envelopes`, whose
walks give the on-off flows: the through model's feed hop 1, and every hop
adds its record's cross flows and serves the shared queue work-conservingly
at its record's capacity per slot.  Cross traffic leaves after its hop,
through departures cascade to the next hop within the same slot.  Within a
slot, cross arrivals enqueue ahead of through arrivals, the harsher order
for the through flow, which keeps bound validation conservative.

The per-hop queue dynamics use cumulative curves only: each hop's through
departures are the next hop's through arrivals as they are, and departures
are A - queue, which equals the arrivals exactly at an empty queue for any
real rates.  The queue is the excess A - C*t less its running minimum,
whose serial scan visits only the last slot of each run over which the
excess does not rise (see :func:`_running_min`).  A busy slot's through
departures come from one search of A that is capped at the slot itself, so
no result depends on the chunks of slots the curves are computed in.  The
test suite cross-checks them against a literal chunk-queue implementation,
also in rational arithmetic.  End-to-end measurements follow the
cumulative-curve definitions: backlog B(t) = A(t) - D(t) and virtual delay
W(t) = inf{d >= 0 : A(t - d) <= D(t)}.

A replication is streamed one chunk of slots at a time: the chunk's
ingress is evaluated once, run through hop 1, hop 2, ... in turn, and each
requested hop prefix's ingress and egress over the chunk go to that
prefix's reduction, an accumulator: :class:`Exceedances` counts the
exceedances of thresholds (``validate``'s, and its self-test's),
:class:`Samples` keeps the samples, and :class:`UpperTails` (the self-test's
thresholds) and :class:`SampleStats` (``simulate``'s statistics) keep only
their upper tails, distinct values with counts (:class:`_UpperTail`), the
latter with sums.  The chunk loop makes the chunk's slot numbers once, and
the arrivals and each hop's C*t read them: arrivals are closed forms over
the slots where a group's on-count changes, read forward one chunk at a
time, and a hop carries its cross arrivals over its FIFO lag.  The cross
and total arrivals, C*t, the excess and the queue of a hop live in
chunk-sized scratch, and every other curve is kept only from the first
slot still read on, so beside the closed forms a replication holds only
what its reductions keep, what its FIFO lags still read, and each hop's
curves when asked for.  The run-size guard in :func:`reduce_replications`
charges that for each replication held at once and refuses, with
:class:`MemoryError`, a run that would not fit physical memory.  The
validation statistics' one-sided Clopper-Pearson limit is computed here
too, in numpy, so the package never imports scipy.

Randomness: every source draws from its own counter-based Philox stream
keyed by (base_seed, replication, hop, source index), so adding sources,
hops or replications never perturbs existing streams.  Hop key 0 is the
through-source block at the ingress; cross sources use their hop number.
"""

from __future__ import annotations

import collections
import math
import numbers
import os
from functools import partial
from typing import Optional

import numpy as np

from ._record import Record, integer_field
from .bounds import NetworkPath, StabilityError, _hop_runs, _on_off_tandem
from .envelopes import MmooParams, _cross_traffic, _on_off_flows

__all__ = [
    "SimScenario",
    "SimResult",
    "ReplicationTrace",
    "HopTrace",
    "ValidationReport",
    "stationary_on_state",
    "Samples",
    "SampleStats",
    "UpperTails",
    "Exceedances",
    "simulate_replication",
    "reduce_replications",
    "self_test_thresholds",
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
                 "measure_slots", "warmup_slots", "replications", "base_seed")
    _defaults = {"warmup_slots": None, "replications": 1, "base_seed": 0}

    def _validate(self):
        for name, least in (("hops", 1), ("through_count", 1), ("cross_count", 0), ("measure_slots", 1),
                            ("warmup_slots", 0), ("replications", 1), ("base_seed", 0)):
            if getattr(self, name) is not None or name != "warmup_slots":
                integer_field(self, name, least, f"{name} must be an integer >= {least}")
        if not (math.isfinite(self.capacity_per_slot) and self.capacity_per_slot > 0):
            raise ValueError("capacity_per_slot must be finite and positive")
        if max(self.source.r_on_off, self.source.r_off_on) > 1:
            raise ValueError("a source switches at most once per slot: its rates must be <= 1, got "
                             f"{self.source.r_on_off!r} and {self.source.r_off_on!r}")

    @property
    def path(self) -> NetworkPath:
        """The tandem's records, all that a run reads of it, as :meth:`Scenario.build_path` builds them."""
        return _on_off_tandem(self.source, self.capacity_per_slot, self.hops, self.through_count, self.cross_count)

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

    ingress           cumulative through arrivals at hop 1; None unless the hops are kept
    egress            cumulative through departures from hop H; None unless the hops are kept
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


def _switch_law(params: MmooParams) -> tuple:
    """The probabilities that a source leaves the on, and the off, state in
    a slot, its rates (so a sojourn lasts 1/rate slots on average, and the
    chain's effective bandwidth stays at or below the bounds' fluid form),
    and its mean on-off cycle, inf if one absorbs."""
    leave = (params.r_on_off, params.r_off_on)
    return (*leave, 1.0 / leave[0] + 1.0 / leave[1] if min(leave) > 0 else math.inf)


def _on_runs(rng: np.random.Generator, params: MmooParams, total: int):
    """On-intervals [start, end) of one source over ``total`` slots.

    Sojourns are geometric with the state's leave probability
    (:func:`_switch_law`); a zero rate makes the corresponding state
    absorbing: a sojourn in it lasts the run.
    """
    p_leave_on, p_leave_off, cycle = _switch_law(params)
    on = stationary_on_state(rng, params)
    block = max(16, int(1.2 * total / cycle) + 4)
    starts_parts, ends_parts = [], []
    t = 0
    while t < total:
        # the current state's sojourns, each followed by one of the other state
        lengths = np.stack([rng.geometric(p, block) if p > 0 else np.full(block, total, dtype=np.int64)
                            for p in ((p_leave_on, p_leave_off) if on else (p_leave_off, p_leave_on))],
                           axis=1).ravel()
        # a sojourn of total slots already ends the run; the cap keeps a
        # saturated draw (2**63 - 1) from wrapping the cumsum negative
        np.minimum(lengths, total, out=lengths)
        ends = t + np.cumsum(lengths)
        starts_parts.append((ends - lengths)[int(not on)::2])
        ends_parts.append(ends[int(not on)::2])
        t = int(ends[-1])  # even number of sojourns: state unchanged
    starts = np.concatenate(starts_parts)
    ends = np.concatenate(ends_parts)
    keep = starts < total
    return starts[keep], np.minimum(ends[keep], total)


def _replication_bytes(scenario: SimScenario, slots: float) -> float:
    """Bytes a live replication of ``slots`` slots holds beside chunk scratch
    and its reductions.  Its closed forms take at most 16 B per slot that
    starts with a change of a group's on-count (a source switches twice per
    mean on-off cycle, or twice when a state absorbs).  Its FIFO lags (see
    :func:`_tandem` and :class:`_Hop`) keep each of the H hops' through
    inputs, the ingress first, from the slot its oldest queued bit arrived
    in (the ingress also back to where an end-to-end delay reaches), and
    over a hop's lag its carry of cross arrivals and the window of four rows
    that its step evaluates.  A lag may span the run, so per slot the H
    curves take 16 B each (a :class:`_Tail` is at most twice its values) and
    one 16 B more while it moves, the H carries 8 B each and one 8 B more
    while it is replaced, and the window 32 B: 24 H + 56 B."""
    path, changes = scenario.path, 0.0
    for model, n in ((path.through, 1), *((_cross_traffic(hop), n) for hop, n in _hop_runs(path))):
        if model is not None:  # n groups of sources
            sources, params = _on_off_flows(model)
            changes += n * min(slots, sources * (2 + 2 * slots / _switch_law(params)[2]))
    return 16 * changes + (24 * path.hop_count + 56) * slots


class _Arrivals:
    """Cumulative arrivals of a group of sources, in closed form, read
    forward one window of slots at a time.

    With x_0 = 0 < x_1 < ... the slots where the group's on-count changes
    and n_j the sources on in the slots [x_j, x_{j+1}), the count up to slot
    boundary t in [x_j, x_{j+1}] is c_j + n_j t, and the cumulative
    arrivals are A(t) = peak (c_j + n_j t).  Both terms are integers below
    2**53, exact in float64, so A(t) is the product of the exact count and
    the peak rate.  Only x and the changes of n are stored, in the narrowest
    integer types that hold them: a few bytes per change of the on-count, as
    every hop's arrivals are held at once.  :meth:`fill` carries j, n_j and
    c_j from one window to the next.
    """

    def __init__(self, x: np.ndarray, change: np.ndarray, peak: float):
        """From the int64 slots ``x``, ascending and distinct from x_0 = 0 on,
        and the on-count's integer ``change`` at each, from 0 sources on."""
        self.x = x.astype(np.int32 if x[-1] < 2**31 - 1 else np.int64)
        self._top = int(np.iinfo(self.x.dtype).max)
        # from -max - 1, so that the type holds +max too (int8 holds -128, not +128)
        self.change = change.astype(np.min_scalar_type(-int(np.abs(change).max()) - 1))
        self.peak = peak
        # the next slot, its segment j, n_j and -c_j (c_0 = 0: x_0 = 0)
        self._at, self._j, self._n, self._minus_c = 0, 0, int(change[0]), 0

    @classmethod
    def of_sources(cls, model, key: tuple, total: int) -> "_Arrivals":
        """The on-off flows of traffic ``model`` (None for none) over ``total``
        slots, flow j drawing from the stream keyed by ``key`` + (j,)."""
        count, params = (0, None) if model is None else _on_off_flows(model)
        runs = [_on_runs(_source_rng(*key, j), params, total) for j in range(count)]
        # one sorted key per switch, 2x + 1 for a source turning on at slot
        # x and 2x for one turning off, after a leading 0 that only makes
        # x_0 = 0; a run to the end never turns off
        keys = np.concatenate([np.zeros(1, dtype=np.int64), *(2 * s + 1 for s, _ in runs),
                               *(2 * e[e < total] for _, e in runs)])
        keys.sort()
        steps = 2 * (keys & 1) - 1
        steps[0] = 0
        keys >>= 1  # now the slots
        at = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        return cls(keys[at], np.add.reduceat(steps, at), params.peak_rate if count else 0.0)

    def fill(self, t: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A over the next ``len(out)`` slots, from slot 0 at the first call,
        into ``out``; ``t`` is the chunk's slot numbers, as floats, that
        :func:`_tandem` makes."""
        start, j, stop = self._at, self._j, self._at + len(out)
        # a key of x's own type, so the search casts no copy of x; a key past
        # x's range finds what the type's largest value finds, len(x)
        last = int(np.searchsorted(self.x, self.x.dtype.type(min(stop - 1, self._top)), side="right"))
        # segments j .. last - 1 cover the window: n_k - n_{k-1} is the
        # change at x_k, and c_k - c_{k-1} = -(that change) x_k, as the count
        # is continuous there
        x = self.x[j:last].astype(np.int64)
        steps = self.change[j:last].astype(np.int64)
        steps[0] = self._n
        n = np.cumsum(steps)
        steps *= x
        steps[0] = self._minus_c
        minus_c = np.cumsum(steps)
        self._at, self._j, self._n, self._minus_c = stop, last - 1, int(n[-1]), int(minus_c[-1])
        # these many slots of each segment
        lengths = np.empty_like(x)
        np.subtract(x[1:], x[:-1], out=lengths[:-1])
        lengths[-1] = stop - x[-1]
        lengths[0] -= start - x[0]
        np.multiply(np.repeat(n.astype(float), lengths), t, out=out)
        out -= np.repeat(minus_c.astype(float), lengths)
        out *= self.peak
        return out


# Slots per chunk of the engine.  A chunk's window holds four rows of a bit
# more than this length (see _Window), the chunk's slot numbers one of it,
# each curve tail one more, and a hop two temporaries of it: at 2**16 slots
# the window alone was 2 MB, more than anything else a replication allocated
# beside its curves then, and it raised desk-validation's peak RSS by 0.8 MB.
_CHUNK = 1 << 14

# A hop queue beyond this many bits ends a run as unstable (see _tandem).
BACKLOG_GUARD_BITS = 1e12


class _Window:
    """Work rows over a window of consecutive slots, kept from chunk to chunk
    of a replication.

    :meth:`window` returns four work rows of a given length.  The buffer is
    replaced only by a window longer than it, and then leaves room for the
    FIFO split's reach back past its chunk (see :class:`_Hop`).
    """

    def __init__(self):
        self._size = 0

    def window(self, n: int) -> np.ndarray:
        if n > self._size:
            # with seed 1, desk-validation's windows reached at most 167 slots
            # back past their chunk, and 4461 at 14 + 14 sources (load 0.98)
            self._size = n + _CHUNK // 4
            self._buf = None  # the old buffer goes before the larger one exists
            self._buf = np.empty((4, self._size))
        return self._buf[:, :n]


class _Tail:
    """A cumulative curve over the slots [start, stop) that are still read,
    extended one chunk at a time and cut from the front.

    The values are a slice of one buffer.  A cut moves only the slice's
    start; an extension that does not fit moves the values to the buffer's
    front when they take at most half of it, and otherwise moves them into
    a new buffer twice their new length.  So each value is copied a bounded
    number of times on average, and the buffer is at most twice the values
    and the extension it last had to hold.
    """

    def __init__(self):
        self.start, self._buf, self._lo, self._hi = 0, np.empty(0), 0, 0

    @property
    def values(self) -> np.ndarray:
        return self._buf[self._lo:self._hi]

    @property
    def stop(self) -> int:
        return self.start + self._hi - self._lo

    def since(self, slot: int) -> np.ndarray:
        """The values of the slots [slot, stop)."""
        return self._buf[self._lo + slot - self.start:self._hi]

    def extend(self, n: int) -> np.ndarray:
        """The next ``n`` slots, to be written into."""
        kept = self._hi - self._lo
        if self._hi + n > len(self._buf):
            if 2 * (kept + n) > len(self._buf):
                buf = np.empty(2 * (kept + n))
            else:  # the values start past the half they move to: no overlap
                buf = self._buf
            buf[:kept] = self.values
            self._buf, self._lo, self._hi = buf, 0, kept
        self._hi += n
        return self._buf[self._hi - n:self._hi]

    def drop_before(self, slot: int) -> None:
        self._lo += slot - self.start
        self.start = slot


# ---------------------------------------------------------------------------
# queueing
# ---------------------------------------------------------------------------

def _running_min(excess: np.ndarray, carry: float, out: np.ndarray) -> float:
    """The running minimum of ``carry`` followed by a non-empty ``excess``,
    from excess[0] on, into ``out``; returns its last value, the next carry.

    The slots where the excess rises above the slot before cut it into runs
    over which it never increases, so within a run the running minimum is
    the lesser of the minimum before the run and the excess itself.  Only
    the minima before the runs take a serial scan, over the runs' last
    values.  ``min`` never rounds, so ``out`` is ``np.minimum.accumulate``
    of ``carry`` and ``excess`` bit for bit.
    """
    ends = np.flatnonzero(excess[1:] > excess[:-1])  # the last slot of each run but the last
    before = np.empty(len(ends) + 2)  # the minimum before each run, then the next carry
    before[0], before[-1] = carry, excess[-1]
    np.take(excess, ends, out=before[1:-1])
    np.minimum.accumulate(before, out=before)
    bounds = np.empty(len(ends) + 2, dtype=np.intp)
    bounds[0], bounds[1:-1], bounds[-1] = -1, ends, len(excess) - 1
    np.minimum(np.repeat(before[:-1], np.diff(bounds)), excess, out=out)
    return before[-1]


class _Hop:
    """FIFO work-conserving hop over cumulative through arrivals and the
    closed-form cross arrivals ``cross``, stepped one chunk of slots at a time.

    Arrivals of slot s are served from slot s on, cross bits ahead of through
    bits.  With A = thr + cross and excess = A - C*t, the queue is the excess
    less its running minimum, taken run by run (:func:`_running_min`), and
    the departures D = A - queue are exactly A at an empty queue.  There
    every through bit that arrived before t has left, so D_through(t) =
    thr(t).  At a busy slot, with e the first slot boundary where A(e) > D,
    all slots before e - 1 have left, and slot e - 1 sends its cross bits
    before its through bits:
    D_through = clip(D - cross[e], thr[e - 1], thr[e]).  The search for e,
    the only one per busy slot, is exact because A is a nondecreasing
    cumulative curve.  A busy slot t has D(t) < A(t), so e <= t, and e is
    capped at t: that changes nothing exact, and where D(t) rounds to A(t)
    it keeps the answer from reading arrivals after t, so no result depends
    on where the chunk boundaries fall.

    Each step gets the chunk's slot numbers from :func:`_tandem` and runs in
    ``work``'s four rows: the cross arrivals, A, C*t and then the excess,
    and the queue.  D is nondecreasing, and so is e: D is A at an idle slot
    and grows by C per busy slot.  So the search from a chunk's slots starts
    at the chunk itself, or, when the slot before it is busy, at that slot's
    e.  That is ``start``, and the window of A a step evaluates reaches back
    only that far; the through arrivals are read from ``start - 1`` on, and
    the cross arrivals before the chunk from ``carry``: only the chunk's are
    read from the closed form.  ``run_min``, ``start`` and ``carry``, the
    cross arrivals from ``start`` on, pass from chunk to chunk, and
    ``max_queue`` is the largest queue so far, 0 while no slot has been
    busy.  With ``slots``, the hop's curves over that many slots are kept as
    rows of ``rows``: A, D, thr, D_through and the cross arrivals.
    """

    def __init__(self, cross: _Arrivals, capacity: float, slots: Optional[int] = None):
        self.cross, self.capacity = cross, capacity
        self.rows = None if slots is None else np.empty((5, slots))
        self.run_min, self.max_queue, self.start, self.carry = math.inf, 0.0, 0, np.empty(0)

    def step(self, thr: _Tail, t: np.ndarray, out: np.ndarray, work: _Window) -> None:
        """D_through of the slots [thr.stop - len(out), thr.stop), whose slot
        numbers are the floats ``t``, into ``out``."""
        stop, start = thr.stop, self.start
        i = stop - len(out)
        k = i - start  # the chunk is the window's slots from k on
        cross, arr, excess, low = work.window(stop - start)
        cross[:k] = self.carry
        self.cross.fill(t, cross[k:])
        np.add(cross, thr.since(start), out=arr)
        np.copyto(out, thr.since(i))
        # C*t as an exact float ramp times C
        excess = np.multiply(t, self.capacity, out=excess[k:])
        np.subtract(arr[k:], excess, out=excess)
        low = low[k:]
        self.run_min = _running_min(excess, self.run_min, low)
        queue = np.subtract(excess, low, out=low)
        self.start = stop
        at = np.flatnonzero(queue > 0)
        if len(at):
            dep = queue[at]
            self.max_queue = max(self.max_queue, float(dep.max()))
            at += k  # the busy slots' places in the window
            np.subtract(arr[at], dep, out=dep)
            e = np.searchsorted(arr, dep, side="right")
            np.minimum(e, at, out=e)
            dep -= cross[e]
            e += start - thr.start  # now places in thr.values
            out[at - k] = np.clip(dep, thr.values[e - 1], thr.values[e], out=dep)
            if at[-1] == len(arr) - 1:
                self.start = thr.start + int(e[-1])
        self.carry = cross[self.start - start:].copy()
        if self.rows is not None:
            rows = self.rows[:, i:stop]
            rows[0], rows[2], rows[3], rows[4] = arr[k:], thr.since(i), out, cross[k:]
            np.subtract(arr[k:], queue, out=rows[1])

    def trace(self) -> "HopTrace":
        arr, dep, thr, dep_thr, cross = self.rows
        return HopTrace(arr, dep, thr, dep_thr, np.diff(thr), np.diff(cross))


def _tandem(through: _Arrivals, hops: list, slots: int, reductions: dict,
            scenario: Optional[SimScenario] = None) -> None:
    """Run ``through`` over ``slots`` slot boundaries through ``hops`` one
    chunk of slots at a time.

    A chunk evaluates the ingress once from its closed form, then runs
    through hop 1, hop 2, ... in turn: each hop's through departures are the
    next hop's through arrivals.  After hop h, ``reductions[h]``, if there
    is one, gets ``add(lo, ingress, egress)``: the ingress over the slots
    [lo, stop) and the egress of that h-hop prefix over the chunk's slots,
    where lo, 0 at the first chunk, is the first slot whose ingress exceeds
    the prefix's egress at the slot before the chunk.  So every ingress
    value before lo is at most the chunk's first egress value, and no delay
    in the chunk reaches back past lo.  Both arrays are scratch that the
    next chunk replaces.  Each curve is kept only from the first slot still
    read on: a hop's input from its ``start - 1``, and the ingress from
    there or the smallest lo.  With a ``scenario``, a chunk after which a
    hop's queue has exceeded ``BACKLOG_GUARD_BITS`` raises
    :class:`StabilityError`.  The loop alone makes the chunk's slot numbers,
    and hands them to the ingress and to every hop.
    """
    tails = [_Tail() for _ in range(len(hops) + 1)]  # the ingress, then each hop's D_through
    reach = dict.fromkeys(reductions, 0)
    guard = math.inf if scenario is None else BACKLOG_GUARD_BITS
    # the chunk's slot numbers, whole floats below 2**53 and so exact
    clock, work = np.arange(-_CHUNK, 0.0), _Window()
    for i in range(0, slots, _CHUNK):
        stop = min(i + _CHUNK, slots)
        clock += _CHUNK
        t = clock[:stop - i]
        through.fill(t, tails[0].extend(stop - i))
        for h, hop in enumerate(hops, 1):
            egress = tails[h].extend(stop - i)
            hop.step(tails[h - 1], t, egress, work)
            if h > 1:
                tails[h - 1].drop_before(hop.start - 1)
            if h in reductions:
                ingress = tails[0].since(reach[h])
                reductions[h].add(reach[h], ingress, egress)
                reach[h] += int(np.searchsorted(ingress, egress[-1], side="right"))
            if hop.max_queue > guard:
                raise StabilityError(f"hop {h} queue reached {hop.max_queue:.3g} bits (guard "
                                     f"{guard:.3g}); offered load utilization is "
                                     f"{scenario.utilization():.3f}")
        tails[0].drop_before(min(hops[0].start - 1, *reach.values()))
        tails[-1].drop_before(stop)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

class _SampleReduction:
    """Base of the reductions of one hop prefix's measured slots, which
    :meth:`add` passes to :meth:`_measured` a chunk at a time (see
    :func:`_tandem`); by default as delay (int slots) and backlog (bits)
    samples, one per measured slot, in slot order, to ``_took``.

    Slot t has backlog ingress(t) - egress(t) and delay t + 1 - r, with r
    the number of ingress values at most egress(t), floored at 0.  A delay
    is at least 1 exactly when the backlog is positive, so the delays invert
    the ingress only at those slots, and are 0 elsewhere.  The search for r
    is exact because the ingress is a nondecreasing cumulative curve.
    """

    def __init__(self, warmup: int, total: int):
        self.first, self.count = warmup + 1, total - warmup

    @classmethod
    def held_bytes(cls, count: int, *args) -> tuple:
        """Bytes held at the peak beside chunk scratch, and in the result, by
        a reduction made with ``args`` over ``count`` measured slots."""
        return 0, 0

    def add(self, lo: int, ingress: np.ndarray, egress: np.ndarray) -> None:
        stop = lo + len(ingress)
        start = max(stop - len(egress), self.first)
        if start < stop:
            self._measured(lo, ingress, start, egress[start - stop:])

    def _measured(self, lo: int, ingress: np.ndarray, start: int, egress: np.ndarray) -> None:
        delays = np.zeros(len(egress), dtype=np.int64)
        backlogs = np.subtract(ingress[start - lo:], egress)
        at = np.flatnonzero(backlogs > 0)
        if len(at):
            # slot t = start + position has delay t + 1 - lo - (values of ``ingress`` <= egress[t])
            found = np.searchsorted(ingress, egress[at], side="right")
            delays[at] = at + (start + 1 - lo) - found
        self._took(delays, backlogs)


class Samples(_SampleReduction):
    """Reduction of one hop prefix to its delay and backlog samples, in slot
    order (see :class:`_SampleReduction`): 16 B per measured slot."""

    def __init__(self, warmup: int, total: int):
        super().__init__(warmup, total)
        self.delays, self.backlogs = np.empty(self.count, dtype=np.int64), np.empty(self.count)
        self._filled = 0

    @classmethod
    def held_bytes(cls, count: int) -> tuple:
        return 16 * count, 16 * count

    def _took(self, delays: np.ndarray, backlogs: np.ndarray) -> None:
        i, self._filled = self._filled, self._filled + len(delays)
        self.delays[i:self._filled], self.backlogs[i:self._filled] = delays, backlogs

    def result(self) -> tuple:
        return self.delays, self.backlogs


class _UpperTail:
    """The distinct values at or above the k-th largest of values that
    arrive a part at a time, with their counts.  A part is raw values, made
    distinct at once (``np.unique``), or distinct ascending values with
    counts.  Values below a floor, the k-th largest of some of them and so
    at most the final one, are dropped as they arrive, so :meth:`largest`
    is exact for ranks up to k.  Parts are merged, and the floor raised,
    once k values, or more entries than the last merge kept and a chunk's,
    have come since."""

    def __init__(self, k: int):
        self.k, self.floor = k, None
        self._parts = []  # distinct ascending (values, counts), the first one merged
        self._kept = self._new = self._came = 0  # entries merged; entries and values come since

    def add(self, values: np.ndarray, counts: Optional[np.ndarray] = None) -> None:
        if counts is None:
            values, counts = np.unique(values if self.floor is None else values[values >= self.floor],
                                       return_counts=True)
        elif self.floor is not None:
            i = np.searchsorted(values, self.floor)
            values, counts = values[i:], counts[i:]
        self._parts.append((values, counts))
        self._new, self._came = self._new + len(values), self._came + int(counts.sum())
        del values, counts  # a merge frees the part, held only in _parts
        if self._came >= self.k or self._new > max(self._kept, _CHUNK):
            self._merge()

    def _merge(self) -> None:
        values, counts = (np.concatenate(column) for column in zip(*self._parts))
        self._parts = None  # the parts go before their sorted copies exist
        # one index array at a time: the sort order, then each value's first place
        at = np.argsort(values, kind="stable")  # the parts are sorted runs
        values, counts = values[at], counts[at]
        at = np.flatnonzero(np.concatenate(([len(values) > 0], values[1:] != values[:-1])))
        values, counts = values[at], np.add.reduceat(counts, at)
        self._parts = [(values, counts)]
        if counts.sum() >= self.k:  # at least k values: their k-th largest is a floor
            self.floor = self.largest(self.k)
            i = np.searchsorted(values, self.floor)
            self._parts = [(values[i:].copy(), counts[i:].copy())]  # no view holds the values cut
        self._kept, self._new, self._came = len(self._parts[0][0]), 0, 0

    def kept(self) -> tuple:
        """The values kept, ascending, and their counts."""
        if len(self._parts) > 1:
            self._merge()
        return self._parts[0]

    def largest(self, r: int):
        """The r-th largest value, for r <= k (the least kept if fewer came)."""
        values, counts = self.kept()
        j = int(np.searchsorted(np.cumsum(counts[::-1]), r))
        return values[max(len(values) - 1 - j, 0)]


class UpperTails(_SampleReduction):
    """Reduction of one hop prefix to, for its delays and then its backlogs,
    the distinct samples at or above the k-th largest, ascending, and their
    counts, without keeping the samples (see :class:`_UpperTail`)."""

    def __init__(self, k: int, warmup: int, total: int):
        super().__init__(warmup, total)
        self.kinds = (_UpperTail(k), _UpperTail(k))

    @classmethod
    def held_bytes(cls, count: int, k: int) -> tuple:
        """A tail's result is at most min(k, count) entries, a value and a
        count each.  It holds fewer than 2k + a chunk's, and at most count,
        and merges them at 40 B an entry at most; with the other tail's, 56
        B an entry (56.0 at k = count, all distinct), and 64 are charged.
        The arrays and objects whose size does not grow with the entries
        take about 5 to 7 KB more (a peak of 11 KB at 100 slots), and 16 KiB
        are charged."""
        return 16384 + 64 * min(count, 2 * k + 3 * _CHUNK), 32 * min(k, count)

    def _took(self, delays: np.ndarray, backlogs: np.ndarray) -> None:
        for tail, samples in zip(self.kinds, (delays, backlogs)):
            tail.add(samples)

    def result(self) -> tuple:
        return tuple(tail.kept() for tail in self.kinds)


class _PairwiseSum:
    """``np.add.reduce`` of ``n`` float64 values that arrive in order, a part
    at a time, bit for bit, keeping fewer than 128 of them.

    numpy adds a float64 array pairwise: a block of at most 128 values as
    one leaf, a longer one as its first length // 16 * 8 values plus the
    rest.  Every subtree's sum is ``np.add.reduce`` of its values alone, so
    each is taken as soon as its values have arrived.
    """

    def __init__(self, n: int):
        self.total = 0.0
        self._pending, self._at = np.empty(0), 0  # the values not yet summed, from value _at on
        self._stack = [[0, n, None]]  # [offset, length, its left half's sum or None], root first

    def add(self, values: np.ndarray) -> None:
        buf = np.concatenate((self._pending, values))
        ready, stack = self._at + len(buf), self._stack
        while stack:
            off, length, _ = stack[-1]
            if off + length <= ready:
                total = float(np.add.reduce(buf[off - self._at:off + length - self._at]))
                stack.pop()
                while stack and stack[-1][2] is not None:  # the right half of its parent
                    total = stack.pop()[2] + total
                if stack:  # the left half: its sibling is next
                    stack[-1][2] = total
                    off, length, _ = stack[-1]
                    stack.append([off + length // 16 * 8, length - length // 16 * 8, None])
                else:
                    self.total = total
            elif length <= 128:
                break
            else:
                stack.append([off, length // 16 * 8, None])
        start = stack[-1][0] if stack else ready
        self._pending, self._at = buf[start - self._at:].copy(), start


class SampleStats(UpperTails):
    """Reduction of one hop prefix to the mean, 99th percentile and maximum
    of its delays, then of its backlogs, as floats, from sums and upper
    tails.  numpy's percentile at v = 0.99 (n - 1) interpolates between the
    sorted values at lo = floor(v) and lo + 1, the k-th and (k - 1)-th
    largest for k = n - lo, with weight v - lo, as ``np.quantile`` of the
    two does.  The backlogs' mean is ``mean()``'s bit for bit (see
    :class:`_PairwiseSum`); the integer delays' is the exact sum / n, which
    is ``mean()``'s whenever the sum is below 2**53."""

    def __init__(self, warmup: int, total: int):
        n = total - warmup
        self.virtual = (n - 1) * 0.99
        super().__init__(n - math.floor(self.virtual), warmup, total)
        self.delay_sum, self.backlog_sum = 0, _PairwiseSum(n)

    @classmethod
    def held_bytes(cls, count: int) -> tuple:
        return super().held_bytes(count, count - math.floor((count - 1) * 0.99))[0], 0

    def _took(self, delays: np.ndarray, backlogs: np.ndarray) -> None:
        super()._took(delays, backlogs)
        # in 32-bit halves, neither of which overflows an int64 sum
        self.delay_sum += (int((delays >> 32).sum()) << 32) + int((delays & 0xFFFFFFFF).sum())
        self.backlog_sum.add(backlogs)

    def result(self) -> tuple:
        weight, stats = self.virtual - math.floor(self.virtual), []
        for tail, total in zip(self.kinds, (self.delay_sum, self.backlog_sum.total)):
            pair = np.array([tail.largest(tail.k), tail.largest(max(tail.k - 1, 1))])
            stats += [total / self.count, float(np.quantile(pair, weight)), float(tail.largest(1))]
        return tuple(stats)


class Exceedances(_SampleReduction):
    """Reduction of one hop prefix to the number of measured slots whose
    delay or backlog exceeds each (kind, threshold) of ``thresholds``, in
    order, without samples.

    Delays are whole slots, so for d >= 0, delay(t) > d exactly when
    delay(t) >= k = floor(d) + 1, that is when fewer than t + 2 - k ingress
    values are at most egress(t): ingress(t + 1 - k) > egress(t).  That
    fails wherever t + 1 - k is before the chunk's lo (see :func:`_tandem`).
    Every delay exceeds a negative threshold; none exceeds +inf or NaN.
    """

    def __init__(self, thresholds: tuple, warmup: int, total: int):
        super().__init__(warmup, total)
        self.thresholds, self.counts = thresholds, [0] * len(thresholds)

    def _measured(self, lo: int, ingress: np.ndarray, start: int, egress: np.ndarray) -> None:
        stop, backlogs = start + len(egress), None
        for j, (kind, threshold) in enumerate(self.thresholds):
            if kind != "delay":
                if backlogs is None:
                    backlogs = np.subtract(ingress[start - lo:], egress)
                self.counts[j] += int(np.count_nonzero(backlogs > threshold))
            elif threshold < 0:
                self.counts[j] += stop - start
            elif threshold < math.inf:  # not +inf or NaN
                k = math.floor(threshold) + 1
                first = max(start, lo + k - 1)
                if first < stop:
                    shifted = ingress[first + 1 - k - lo:stop + 1 - k - lo]
                    self.counts[j] += int(np.count_nonzero(shifted > egress[first - start:]))

    def result(self) -> tuple:
        return tuple(self.counts)


def simulate_replication(scenario: SimScenario, replication: int, keep_hops: bool = False,
                         reduce: Optional[dict] = None) -> ReplicationTrace:
    """Run one replication; deterministic in (scenario, replication).

    Every source stream is keyed by its own hop, so the first h hops of this
    run are bit-identical to an h-hop run.  ``reduce`` maps hop counts
    h <= ``scenario.hops`` to factories of that h-hop prefix's reduction,
    such as :class:`Samples`, :class:`SampleStats`, :class:`UpperTails` and
    :class:`Exceedances`: each is called as
    ``reduce[h](warmup, total)`` for a fresh accumulator, which gets every
    chunk of slots through ``add`` (see :func:`_tandem`), and its
    ``result()`` goes to the trace's ``reduced[h]``; the trace then holds no
    samples.  Without ``reduce`` the trace holds the samples of all
    ``scenario.hops`` hops.  Only closed forms, chunk-sized scratch and what
    the reductions keep live over the whole run; ``keep_hops`` adds each
    hop's curves, and the ingress and egress with them.
    """
    path, key = scenario.path, (scenario.base_seed, replication)
    warmup = scenario.resolved_warmup()
    total = warmup + scenario.measure_slots
    hop_range, samples = range(1, scenario.hops + 1), reduce is None
    reduce = {scenario.hops: Samples} if samples else reduce
    accumulators = {h: make(warmup, total) for h, make in reduce.items() if h in hop_range}
    through = _Arrivals.of_sources(path.through, (*key, 0), total)
    hops = [_Hop(_Arrivals.of_sources(_cross_traffic(hop), (*key, h), total), hop.capacity,
                 total + 1 if keep_hops else None) for h, hop in enumerate(path.hops, 1)]
    _tandem(through, hops, total + 1, accumulators, scenario)
    reduced = {h: acc.result() for h, acc in accumulators.items()}
    delays, backlogs = reduced.pop(scenario.hops) if samples else (None, None)
    hop_traces = tuple(hop.trace() for hop in hops) if keep_hops else ()
    return ReplicationTrace(
        ingress=hop_traces[0].arrivals_through if keep_hops else None,
        egress=hop_traces[-1].departures_through if keep_hops else None,
        delay_samples=delays,
        backlog_samples=backlogs,
        hops=hop_traces,
        reduced=reduced,
    )


def _reduced_replication(scenario: SimScenario, reduce: dict, replication: int) -> dict:
    return simulate_replication(scenario, replication, reduce=reduce).reduced


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def reduce_replications(scenario: SimScenario, reduce: dict, jobs: int = 1):
    """Each replication's ``reduced`` (see :func:`simulate_replication`), in
    replication order, from ``jobs`` worker processes when above 1.

    A generator: one replication is live per worker, and the caller holds
    only what the reductions return.  ``reduce``'s factories, reductions of
    this module or partials of them, and their results cross process
    boundaries, so they must pickle.  Raises :class:`StabilityError` when
    the offered load exceeds the capacity (utilization > 1) or a queue
    outgrows ``BACKLOG_GUARD_BITS``.

    Before the first replication and the load check, a run that would not
    fit physical memory raises :class:`MemoryError`: a live replication holds
    its reductions' peaks (``held_bytes``) and :func:`_replication_bytes`,
    the caller one result, and 2 ``jobs`` may wait.
    """
    return _reduced(scenario, reduce, jobs, 0.0)


def _reduced(scenario: SimScenario, reduce: dict, jobs: int, pooled: float):
    """:func:`reduce_replications`, whose caller holds ``pooled`` bytes more."""
    n, count = scenario.replications, scenario.measure_slots
    parallel = jobs >= 2 and n >= 2
    live, held = (min(jobs, n), min(2 * jobs + 1, n)) if parallel else (1, 1)
    try:
        warmup = scenario.resolved_warmup()
    except OverflowError:  # a mean sojourn beyond the float range
        warmup = math.inf
    slots = warmup + count + 1
    # each factory is a reduction class or a partial of one
    sizes = [getattr(f, "func", f).held_bytes(count, *getattr(f, "args", ())) for f in reduce.values()]
    need = (live * (_replication_bytes(scenario, slots) + sum(size[0] for size in sizes))
            + held * sum(size[1] for size in sizes) + pooled)
    memory = _physical_memory()
    if not need <= memory:  # nan too: a slot count beyond the float range
        raise MemoryError(
            f"sim.warmup_slots/sim.measure_slots: {warmup:.4g} warmup and {count} measured slots need "
            f"{need / 2**30:.4g} GiB for {live} replication(s) at once, {held} finished result(s)"
            f"{' and the pooled upper tails' if pooled else ''}, more than the {memory / 2**30:.4g} "
            f"GiB of physical memory (the default warmup is 10x the longer mean sojourn)")
    util = scenario.utilization()
    if util > 1.0:
        raise StabilityError(
            f"offered load {util:.3f} x capacity per hop exceeds 1; "
            f"{scenario.through_count}+{scenario.cross_count} sources at mean rate "
            f"{scenario.source.mean_rate:.6g} bits/slot against capacity "
            f"{scenario.capacity_per_slot:.6g} bits/slot"
        )
    run = partial(_reduced_replication, scenario, reduce)
    if not parallel:
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


def self_test_thresholds(scenario: SimScenario, wanted, jobs: int = 1) -> list:
    """For each (h, kind, rank) of ``wanted``, a threshold just below the
    rank-th largest of the h-hop prefix's delays or backlogs, so at least
    rank samples exceed it whatever the ties.  Every replication's
    :class:`UpperTails`, at k the largest rank, feeds one tail per
    (h, kind), whose k-th largest, and so every rank up to k, is exact.
    Each tail is merged after every replication, so it keeps at most k
    entries and no view of a replication's arrays."""
    k = max(rank for _, _, rank in wanted)
    reduce = dict.fromkeys((h for h, _, _ in wanted), partial(UpperTails, k))
    pools = {(h, kind): _UpperTail(k) for h in reduce for kind in ("delay", "backlog")}
    # per (h, kind), 16 B an entry of the pool and 1 KiB of objects; once, a
    # merge of those and one replication's entries, 40 B each, and 16 KiB
    tail, part = min(k, scenario.replications * scenario.measure_slots), min(k, scenario.measure_slots)
    pooled = 16384 + 2 * len(reduce) * (1024 + 16 * tail) + 40 * (tail + part)
    for tails in _reduced(scenario, reduce, jobs, pooled):
        for (h, kind), pool in pools.items():
            pool.add(*tails[h][kind == "backlog"])
            pool.kept()
    return [math.nextafter(float(pools[h, kind].largest(rank)), -math.inf) for h, kind, rank in wanted]


def simulate_tandem(scenario: SimScenario, jobs: int = 1) -> SimResult:
    """All replications of a scenario, merged in replication order.

    Aborts with :class:`StabilityError` when the offered load exceeds the
    capacity (utilization > 1) or a queue outgrows ``BACKLOG_GUARD_BITS``.
    """
    n, k, h = scenario.replications, scenario.measure_slots, scenario.hops
    delays, backlogs = np.empty(n * k, dtype=np.int64), np.empty(n * k)
    # filled one replication at a time, so no second copy of the samples is held
    for r, reduced in enumerate(reduce_replications(scenario, {h: Samples}, jobs)):
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
