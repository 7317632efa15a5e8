"""Shared test oracles, independent of the implementation paths they check."""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import yaml

from sncalc import MmooParams, StabilityError, ThetaSearchConfig, ThetaSearchResult
from sncalc.bounds import _GRID_POINTS, _INV_PHI, _REFINE_TOLERANCE, _STABILITY_HINT, _log_grid

# libyaml's loader where PyYAML has it, and the pure-Python fallback
LOADERS = [loader for loader in (getattr(yaml, "CSafeLoader", None), yaml.SafeLoader) if loader]


def exhaustive_grid_min(objective, config: ThetaSearchConfig, points: int = 10**4):
    """Brute-force log-grid minimizer used as the optimizer oracle."""
    grid = np.geomspace(config.theta_min, config.theta_max, points)
    best_theta, best_value = None, math.inf
    for th in grid:
        v = objective(float(th))
        if v < best_value:
            best_theta, best_value = float(th), v
    return best_theta, best_value


def full_grid_minimize(objective, config: ThetaSearchConfig) -> ThetaSearchResult:
    """The theta search as it was before the top-down scan: every grid point
    evaluated, the smallest value (the smaller theta on a tie) taken, then
    the same golden-section refinement.  The oracle for
    ``minimize_over_theta``, which must return an equal result."""
    grid = _log_grid(config.theta_min, config.theta_max, _GRID_POINTS)
    values = [objective(t) for t in grid]
    if not any(math.isfinite(v) for v in values):
        raise StabilityError(
            f"no admissible theta in [{config.theta_min:g}, {config.theta_max:g}]: " + _STABILITY_HINT
        )
    best_idx = min(range(len(values)), key=lambda i: (values[i], grid[i]))
    best_theta = grid[best_idx]
    best_value = values[best_idx]
    at_boundary = best_idx in (0, len(grid) - 1)

    def probe(log_theta: float) -> float:
        nonlocal best_theta, best_value
        theta = math.exp(log_theta)
        value = objective(theta)
        if value < best_value or (value == best_value and theta < best_theta):
            best_theta, best_value = theta, value
        return value

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


def brute_force_tail_sum(log_ratio: float, n_terms: int) -> float:
    """sum_{u=0}^{n} e^{u*log_ratio} by direct accumulation (log domain)."""
    peak = max(0.0, n_terms * log_ratio)
    acc = 0.0
    for u in range(n_terms + 1):
        acc += math.exp(u * log_ratio - peak)
    return peak + math.log(acc)


def mmoo_source_step(on: bool, rng: np.random.Generator, params: MmooParams):
    """One slot of a source: emit by the state at slot start, then switch.

    The literal one-slot reference for the simulator's run-length sources:
    the source leaves its state with probability equal to its rate.
    Returns (next_state, emitted_bits).
    """
    bits = params.peak_rate if on else 0.0
    rate = params.r_on_off if on else params.r_off_on
    if rate > 0 and rng.random() < rate:
        on = not on
    return on, bits


def mc_effective_bandwidth(params: MmooParams, theta: float, t: int,
                           n_paths: int, seed: int) -> float:
    """Monte-Carlo estimate of (1/(theta*t)) * log E[e^{theta*A(t)}].

    Simulates n_paths independent on-off sample paths with stationary
    initialization and a switch probability of rate per slot, then
    averages the exponentiated cumulative arrivals in a numerically stable
    way.
    """
    rng = np.random.default_rng(seed)
    on = rng.random(n_paths) < params.on_probability
    arrived = np.zeros(n_paths)
    for _ in range(t):
        arrived += np.where(on, params.peak_rate, 0.0)
        flip = rng.random(n_paths) < np.where(on, params.r_on_off, params.r_off_on)
        on = on ^ flip
    exponents = theta * arrived
    peak = exponents.max()
    log_mean = peak + math.log(np.exp(exponents - peak).mean())
    return log_mean / (theta * t)


def chain_effective_bandwidth(peak: float, leave_on: float, leave_off: float, theta: float) -> float:
    """log rho(P diag(1, e^{theta peak})) / theta: the effective bandwidth of
    the slotted on-off chain that emits ``peak`` bits in an on slot and
    leaves the on (off) state with probability ``leave_on`` (``leave_off``)
    per slot, P being its transition matrix over (off, on).

    With u = e^{theta peak} - 1, rho = 1 + x for the largest root x of
    x^2 + b x - leave_off u = 0, b = leave_on + leave_off - (1 - leave_on) u.
    x is taken in the form that adds terms of one sign, and log1p keeps its
    relative precision, so the result stays exact to rounding as theta -> 0.
    """
    u = math.expm1(theta * peak)
    b = leave_on + leave_off - (1.0 - leave_on) * u
    root = math.hypot(b, 2.0 * math.sqrt(leave_off * u))
    x = 2.0 * leave_off * u / (b + root) if b > 0 else (root - b) / 2.0
    return math.log1p(x) / theta


def reference_on_counts(base_seed: int, replication: int, hop: int, count: int,
                        params: MmooParams, total: int) -> np.ndarray:
    """Sources on per slot among ``count`` sources over ``total`` slots.

    The row construction the closed-form arrivals replaced: +1 at each on
    run's start and -1 at its end with ``np.add.at`` (a run to the end never
    turns off), then a cumsum.
    """
    from sncalc.simulator import _on_runs, _source_rng

    deltas = np.zeros(total, dtype=np.int64)
    for j in range(count):
        starts, ends = _on_runs(_source_rng(base_seed, replication, hop, j), params, total)
        np.add.at(deltas, starts, 1)
        np.add.at(deltas, ends[ends < total], -1)
    return np.cumsum(deltas)


def reference_arrival_curve(counts, peak: float) -> np.ndarray:
    """Cumulative bits (index = slot boundary) of per-slot on-counts: the
    second cumsum, in int64, then times the peak rate."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64))) * peak


class ReferenceTandem:
    """Literal chunk-queue tandem used to cross-check the vectorized hops.

    Each hop keeps an ordered queue of (is_through, bits) chunks.  Per slot
    and per hop: enqueue the cross arrivals first, then the through
    arrivals, then serve up to the capacity from the queue head.  Through
    departures of a hop become the next hop's through arrivals in the same
    slot; cross departures leave the network.
    """

    def __init__(self, capacity: float, hops: int):
        self.capacity = capacity
        self.hops = hops
        self.queues = [deque() for _ in range(hops)]
        # zero of the capacity's type, so Fraction inputs stay exact
        zero = capacity * 0
        self.cum_through_dep = [zero] * hops
        self.cum_arr_total = [zero] * hops
        self.cum_dep_total = [zero] * hops

    def step(self, through_bits: float, cross_bits_per_hop):
        """Advance one slot; returns per-hop cumulative through departures."""
        incoming = through_bits
        for h in range(self.hops):
            q = self.queues[h]
            cross = cross_bits_per_hop[h]
            if cross > 0:
                q.append([False, cross])
            if incoming > 0:
                q.append([True, incoming])
            self.cum_arr_total[h] += cross + incoming
            budget = self.capacity
            through_out = served = self.capacity * 0
            while budget > 0 and q:
                chunk = q[0]
                take = min(budget, chunk[1])
                chunk[1] -= take
                budget -= take
                served += take
                if chunk[0]:
                    through_out += take
                if chunk[1] == 0:
                    q.popleft()
            self.cum_dep_total[h] += served
            self.cum_through_dep[h] += through_out
            incoming = through_out
        return list(self.cum_through_dep)


def reference_curves(through_per_slot, cross_per_slot_by_hop, capacity):
    """Cumulative ingress/egress and per-hop curves from the chunk queue."""
    hops = len(cross_per_slot_by_hop)
    total = len(through_per_slot)
    sim = ReferenceTandem(capacity, hops)
    ingress = np.zeros(total + 1)
    egress = np.zeros(total + 1)
    dep_thr = np.zeros((hops, total + 1))
    arr_tot = np.zeros((hops, total + 1))
    dep_tot = np.zeros((hops, total + 1))
    for t in range(total):
        ingress[t + 1] = ingress[t] + through_per_slot[t]
        sim.step(through_per_slot[t], [c[t] for c in cross_per_slot_by_hop])
        for h in range(hops):
            dep_thr[h, t + 1] = sim.cum_through_dep[h]
            arr_tot[h, t + 1] = sim.cum_arr_total[h]
            dep_tot[h, t + 1] = sim.cum_dep_total[h]
        egress[t + 1] = sim.cum_through_dep[hops - 1]
    return ingress, egress, dep_thr, arr_tot, dep_tot


def virtual_delays(ingress, egress, slots):
    """W(t) = inf{d >= 0 : A(t-d) <= D(t)} by direct backward scan."""
    out = []
    for t in slots:
        d = 0
        while ingress[t - d] > egress[t]:
            d += 1
        out.append(d)
    return np.array(out)
