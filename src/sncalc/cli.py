"""Command-line interface.

Subcommands: ``bound`` and ``sweep-hops`` (bounds at the scenario's flow
point, one row per hop count), ``sweep-flows`` (one row per (N, M) sweep
point), ``simulate`` (per-replication sample statistics) and ``validate``
(simulate and compare empirical tails against the analytic bounds).

Exit codes: 0 success or inconclusive-by-design, 1 usage, parse or file
error, 2 instability, 3 validation failure.  A row whose bound does not exist
(unstable load, or no delay within a finite horizon) is still written,
flagged ``stable=false`` with ``bound_value=inf`` and no ``theta_star``; its
reason goes to stderr and the command exits 2.  ``validate`` exits 3 on a
failed check even when a row is flagged.  A simulation whose offered load
exceeds the capacity ends the command with exit 2 and no rows.  A theta*
at an edge of its search window is warned about on stderr.
``validate --self-test`` replaces each bound by a threshold that at least
10 epsilon n of the n samples exceed, so it exits 3 when epsilon is resolved.

Flat flags override scenario fields (--epsilon, --hops, --through, --cross,
--seed); command-line values take precedence.  ``sweep-flows`` takes its
(N, M) points from the scenario only.  ``--jobs`` runs simulation
replications in parallel; the bound commands accept it and run in one
process.  ``--scenario`` accepts a file path, a name resolved in
``$SNC_PRESET_DIR``, or a built-in preset name.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import replace
from functools import partial

from .bounds import StabilityError, hop_sweep
# not called here: perfbench/tracing.py patches these names on this module
from .bounds import backlog_bound, closed_form_backlog, closed_form_delay, delay_bound  # noqa: F401
from .scenario import (
    ResultRow,
    Scenario,
    ScenarioError,
    parse_scenario_file,
    resolve_scenario_path,
    write_results_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSTABLE = 2
EXIT_VALIDATION = 3

SIM_CSV_HEADER = (
    "scenario_id", "H", "N", "M", "replication", "seed", "measured_slots",
    "delay_mean", "delay_p99", "delay_max", "backlog_mean", "backlog_p99", "backlog_max",
)


class _UsageError(Exception):
    pass


# Looked up here at call time (tests and perfbench/tracing.py patch them);
# each loads the simulator, and numpy, on first call.  simulate and validate
# call only validate_exceedances; the other two stay for the tracer.
def simulate_tandem(*args, **kwargs):
    from . import simulator
    return simulator.simulate_tandem(*args, **kwargs)


def validate_samples(*args, **kwargs):
    from . import simulator
    return simulator.validate_samples(*args, **kwargs)


def validate_exceedances(*args, **kwargs):
    from . import simulator
    return simulator.validate_exceedances(*args, **kwargs)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sncalc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("bound", "backlog/delay bounds at the scenario's flow point"),
        ("sweep-hops", "bounds for every hop count in the scenario"),
        ("sweep-flows", "bounds for every (N, M) point in the flow sweep"),
        ("simulate", "run the tandem simulation, per-replication statistics"),
        ("validate", "simulate and check bounds against empirical tails"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--scenario", required=True, help="scenario file or preset name")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--epsilon", type=float, help="override the scenario epsilon list")
        p.add_argument("--hops", type=int, help="override the hop-count list")
        p.add_argument("--through", type=int, help="override the through-flow count N")
        p.add_argument("--cross", type=int, help="override the cross-flow count M")
        p.add_argument("--seed", type=int, help="override the simulation base seed, >= 0")
        p.add_argument("--jobs", type=int, default=1, help="parallel simulation workers, >= 1 (default 1)")
        p.add_argument("-v", "--verbose", action="store_true", help="progress on stderr")
        if name == "validate":
            p.add_argument("--self-test", action="store_true",
                           help="check against a threshold that at least 10*epsilon of the "
                                "samples exceed, so the check must fail (exit 3)")
    return parser


def _log(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _load(args) -> Scenario:
    return parse_scenario_file(resolve_scenario_path(args.scenario))


def _hop_list(sc: Scenario, args) -> tuple:
    if args.hops is not None:
        if args.hops < 1:
            raise _UsageError("--hops must be >= 1")
        return (args.hops,)
    return sc.network.hop_counts


def _flow_point(sc: Scenario, args) -> tuple:
    n = args.through if args.through is not None else sc.traffic.through_flows
    m = args.cross if args.cross is not None else sc.traffic.cross_flows
    if n < 1 or m < 0:
        raise _UsageError("--through must be >= 1 and --cross >= 0")
    return n, m


def _epsilons(sc: Scenario, args) -> tuple:
    if args.epsilon is not None:
        if not (0 < args.epsilon <= 1):
            raise _UsageError("--epsilon must be in (0, 1]")
        return (args.epsilon,)
    if sc.bound is None:
        raise _UsageError("scenario has no bound block and no --epsilon override given")
    return sc.bound.epsilons


def _bound_rows(sc: Scenario, args, flow_points) -> tuple:
    """One row per (H, (N, M), kind, epsilon), in that nesting order.

    Each (N, M) gets one theta window and one :func:`hop_sweep` per kind
    and epsilon, over every hop count, so paths of one shape share a theta
    search.  A bound that does not exist (a :class:`StabilityError` or
    :class:`HorizonError` in place of a result) becomes a flagged row
    (``stable=false``, ``bound_value=inf``, no ``theta_star``) and its
    message goes to stderr.  Returns the rows and whether any was flagged.
    """
    hops, epsilons = _hop_list(sc, args), _epsilons(sc, args)
    kinds, horizon = (sc.bound.kinds, sc.bound.horizon) if sc.bound else (("delay",), math.inf)
    rows, flagged, sweeps = [], False, {}
    for i, h in enumerate(hops):
        for n, m in flow_points:
            if (n, m) not in sweeps:  # at the first H, in the order rows are written
                paths = [sc.build_path(hop_count, n, m) for hop_count in hops]
                search = sc.build_theta_search(paths[0])
                sweeps[n, m] = search, {(kind, eps): hop_sweep(paths, kind, eps, horizon, search)
                                        for kind in kinds for eps in epsilons}
            search, results = sweeps[n, m]
            for kind in kinds:
                unit, scale = ("s", sc.units.slot_length_s) if kind == "delay" else ("bits", 1.0)
                for eps in epsilons:
                    where = f"H={h} N={n} M={m} {kind} epsilon={eps:g}"
                    result = results[kind, eps][i]
                    if isinstance(result, Exception):
                        theta, value, stable, flagged = None, math.inf, False, True
                        print(f"{where}: no bound: {result}", file=sys.stderr)
                    else:
                        theta, value = result.theta_star, result.value * scale
                        stable = result.stable_at_theta_star
                        if result.at_theta_boundary:
                            lo, hi = search.theta_min, search.theta_max
                            edge = "lower" if theta * theta < lo * hi else "upper"
                            print(f"warning: {where}: theta*={theta:.6g} is at the {edge} edge "
                                  f"of the theta window [{lo:.6g}, {hi:.6g}]", file=sys.stderr)
                    rows.append(ResultRow(
                        scenario_id=sc.scenario_id, kind=kind, hops=h, through_flows=n,
                        cross_flows=m, epsilon=eps, theta_star=theta, bound_value=value,
                        bound_unit=unit, stable=stable,
                    ))
    return rows, flagged


def _replications(sc: Scenario, args, n: int, m: int, reduce: dict):
    """Run max(H) hops once per replication and hand each hop count H's
    end-to-end view to ``reduce[H]`` (see ``simulate_replication``).
    Returns the SimScenario and a generator of per-replication ``{H: result}``.
    """
    from .simulator import reduce_replications

    sim = sc.build_sim_scenario(max(reduce), n, m, base_seed=args.seed)
    _log(args, f"simulating H={','.join(map(str, reduce))} in one {sim.hops}-hop pass: "
               f"{sim.replications} x {sim.measure_slots} slots "
               f"(utilization {sim.utilization():.3f})")
    return sim, reduce_replications(sim, reduce, jobs=args.jobs)


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bound(sc: Scenario, args) -> int:
    """``bound``, ``sweep-hops`` and ``sweep-flows``."""
    if args.command != "sweep-flows":
        flow_points = [_flow_point(sc, args)]
    elif sc.network.flow_totals is None and sc.network.flow_pairs is None:
        raise _UsageError("sweep-flows needs network.flow_totals or network.flow_pairs")
    elif args.through is not None or args.cross is not None:
        raise _UsageError("sweep-flows takes (N, M) from network.flow_totals or "
                          "network.flow_pairs, not from --through/--cross")
    else:
        flow_points = sc.flow_points()
    rows, flagged = _bound_rows(sc, args, flow_points)
    _emit(write_results_csv(rows), args)
    return EXIT_UNSTABLE if flagged else EXIT_OK


def _sample_stats(e2e) -> list:
    """Mean, 99th percentile and maximum of the delays, then of the
    backlogs, as CSV fields."""
    import numpy as np
    delays, backlogs = e2e.samples()
    return [repr(float(v)) for s in (delays, backlogs) for v in (s.mean(), np.percentile(s, 99), s.max())]


def _cmd_simulate(sc: Scenario, args) -> int:
    if sc.sim is None:
        raise _UsageError("simulate needs a sim block in the scenario")
    n, m = _flow_point(sc, args)
    hops = _hop_list(sc, args)
    sim, results = _replications(sc, args, n, m, dict.fromkeys(hops, _sample_stats))
    per_rep = list(results)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SIM_CSV_HEADER)
    for h in hops:
        for rep, stats in enumerate(per_rep):
            writer.writerow([sc.scenario_id, h, n, m, rep, sim.base_seed, sim.measure_slots, *stats[h]])
    _emit(buf.getvalue(), args)
    return EXIT_OK


def _self_test_rank(epsilon: float, n: int) -> int:
    return min(n, math.ceil(10 * epsilon * n))


def _kth_largest_index(values, counts, k: int) -> int:
    """Index of the first entry equal to the k-th largest of the multiset
    with ``counts[i]`` copies of ``values[i]`` (0 when it has fewer than k
    elements); ``values`` ascending, equal values possibly in several entries."""
    import numpy as np
    j = int(np.searchsorted(np.cumsum(counts[::-1]), k))
    return 0 if j >= values.size else int(np.searchsorted(values, values[values.size - 1 - j]))


def _self_test_threshold(tail, epsilon: float, sample_count: int) -> float:
    """Just below the ceil(10 epsilon n)-th largest of n = ``sample_count``
    samples, so at least 10 epsilon n of them exceed it whatever the ties.
    ``tail`` holds the distinct values at or above it, ascending, and their
    counts."""
    values, counts = tail
    i = _kth_largest_index(values, counts, _self_test_rank(epsilon, sample_count))
    return math.nextafter(float(values[i]), -math.inf)


def _exceedances(thresholds, e2e) -> tuple:
    """Samples strictly above each (kind, threshold), in order, counted on
    the end-to-end curves."""
    return tuple(e2e.delay_exceedances(t) if kind == "delay" else e2e.backlog_exceedances(t)
                 for kind, t in thresholds)


def _upper_tails(k: int, delays, backlogs) -> tuple:
    """Per kind, the distinct samples at or above the k-th largest,
    ascending, and their counts."""
    import numpy as np
    tails = []
    for samples in (delays, backlogs):
        values, counts = np.unique(samples, return_counts=True)
        i = _kth_largest_index(values, counts, k)
        tails.append((values[i:], counts[i:]))
    return tuple(tails)


def _sample_tails(k: int, e2e) -> tuple:
    return _upper_tails(k, *e2e.samples())


class _TailPool:
    """The distinct samples at or above the k-th largest seen so far, with
    their count per replication.  A sample is dropped only below the k-th
    largest of some of the samples, so strictly below the k-th largest of
    all of them: the pool keeps every sample at or above any final threshold
    of rank <= k, ties included.
    """

    def __init__(self, k: int):
        self.k = k
        self.values = self.counts = self.replications = None

    def add(self, replication: int, values, counts) -> None:
        import numpy as np
        reps = np.full(values.size, replication)
        if self.values is not None:
            values = np.concatenate([self.values, values])
            order = np.argsort(values)
            values = values[order]
            counts = np.concatenate([self.counts, counts])[order]
            reps = np.concatenate([self.replications, reps])[order]
        i = _kth_largest_index(values, counts, self.k)
        self.values, self.counts, self.replications = values[i:], counts[i:], reps[i:]

    def exceedances(self, threshold: float, replications: int) -> tuple:
        """Samples strictly above ``threshold`` per replication; exact for a
        threshold just below a value of rank <= k."""
        import numpy as np
        above = self.values > threshold
        per_rep = np.bincount(self.replications[above], weights=self.counts[above],
                              minlength=replications)
        return tuple(int(c) for c in per_rep)


def _self_test_counts(sc: Scenario, args, n: int, m: int, rows) -> tuple:
    """Self-test thresholds of the rows and their per-replication exceedance
    counts, from a running pool of each (H, kind)'s upper tail."""
    sample_count = sc.sim.replications * sc.sim.measure_slots
    k = max(_self_test_rank(row.epsilon, sample_count) for row in rows)
    sim, results = _replications(sc, args, n, m,
                                 dict.fromkeys(_hop_list(sc, args), partial(_sample_tails, k)))
    pools = {}
    for rep, tails in enumerate(results):
        for h, pair in tails.items():
            for kind, tail in zip(("delay", "backlog"), pair):
                pools.setdefault((h, kind), _TailPool(k)).add(rep, *tail)
    thresholds, counts = [], []
    for row in rows:
        pool = pools[row.hops, row.kind]
        thresholds.append(_self_test_threshold((pool.values, pool.counts), row.epsilon, sample_count))
        counts.append(pool.exceedances(thresholds[-1], sim.replications))
    return sim, thresholds, counts


def _bound_counts(sc: Scenario, args, n: int, m: int, rows) -> tuple:
    """The rows' bounds as thresholds and their per-replication exceedance
    counts; validation happens in internal units (slots / bits)."""
    slot = sc.units.slot_length_s
    thresholds = [row.bound_value / slot if row.kind == "delay" else row.bound_value for row in rows]
    members = {}
    for i, row in enumerate(rows):
        members.setdefault(row.hops, []).append(i)
    reduce = {h: partial(_exceedances, tuple((rows[i].kind, thresholds[i]) for i in idx))
              for h, idx in members.items()}
    sim, results = _replications(sc, args, n, m, reduce)
    per_rep = list(results)
    counts = [None] * len(rows)
    for h, idx in members.items():
        for j, i in enumerate(idx):
            counts[i] = tuple(reduced[h][j] for reduced in per_rep)
    return sim, thresholds, counts


def _cmd_validate(sc: Scenario, args) -> int:
    if sc.sim is None:
        raise _UsageError("validate needs a sim block in the scenario")
    n, m = _flow_point(sc, args)
    rows, flagged = _bound_rows(sc, args, [(n, m)])
    sim, thresholds, counts = (_self_test_counts if args.self_test else _bound_counts)(sc, args, n, m, rows)
    scenario_id = sc.scenario_id + ("#selftest" if args.self_test else "")
    slot = sc.units.slot_length_s
    any_fail = False
    per_kind = {}
    for i, (row, threshold, per_rep) in enumerate(zip(rows, thresholds, counts)):
        delay = row.kind == "delay"
        report = validate_exceedances(sum(per_rep), sim.replications * sim.measure_slots, row.kind,
                                      threshold, row.epsilon)
        for warning in report.warnings:
            print(f"warning: H={row.hops} {row.kind}: {warning}", file=sys.stderr)
        any_fail = any_fail or report.verdict == "fail"
        rows[i] = replace(row, scenario_id=scenario_id,
                          bound_value=threshold * slot if delay else threshold,
                          empirical_frequency=report.frequency,
                          confidence_limit=report.upper_confidence)
        _log(args, f"H={row.hops} {row.kind} eps={row.epsilon:g}: verdict={report.verdict} "
                   f"freq={report.frequency:.3g} ucl={report.upper_confidence:.3g}")
        per_kind.setdefault((row.hops, row.kind), []).append(
            f"eps={row.epsilon:g}: {' '.join(map(str, per_rep))}")
    for (h, kind), parts in per_kind.items():
        _log(args, f"H={h} {kind} exceedances per replication: {'; '.join(parts)}")
    _emit(write_results_csv(rows), args)
    return EXIT_VALIDATION if any_fail else EXIT_UNSTABLE if flagged else EXIT_OK


_COMMANDS = {
    "bound": _cmd_bound,
    "sweep-hops": _cmd_bound,
    "sweep-flows": _cmd_bound,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.jobs < 1:
            raise _UsageError("--jobs must be >= 1")
        if args.seed is not None and args.seed < 0:
            raise _UsageError("--seed must be >= 0")
        return _COMMANDS[args.command](_load(args), args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ScenarioError) as exc:  # scenario or --out file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
