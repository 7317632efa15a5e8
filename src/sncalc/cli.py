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
failed check even when a row is flagged.  A simulation too large for
physical memory ends the command with exit 1, and one whose offered load
exceeds the capacity with exit 2, both with no rows.  A theta* at an edge
of its search window is warned about on stderr.
``validate --self-test`` replaces each bound by a threshold that at least
10 epsilon n of the n samples exceed, so it exits 3 when epsilon is resolved.
A first pass over the replications pools their upper tails for the
thresholds; a second counts them through the counter every ``validate`` uses.

Flat flags override scenario fields (--epsilon, --hops, --through, --cross,
--seed): right after loading, each given flag replaces its field, checked by
that field's own rule (``Scenario.with_flags``), and every command reads the
result.  ``sweep-flows`` takes its (N, M) points from the scenario only.
``--jobs`` runs simulation replications in parallel; the bound commands
accept it and run in one process.  ``--scenario`` accepts a file path, a
name resolved in ``$SNC_PRESET_DIR``, or a built-in preset name.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from functools import cache, partial

from .bounds import NetworkPath, StabilityError, hop_sweep, peak_rate_stable
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


@cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process on first use; each
    ``parse_args`` returns a fresh namespace, so calls share no state."""
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
    """The scenario with the command's override flags in place."""
    sc = parse_scenario_file(resolve_scenario_path(args.scenario))
    try:
        return sc.with_flags(vars(args))
    except ScenarioError as exc:
        raise _UsageError("; ".join(exc.problems)) from None


def _bound_rows(sc: Scenario, flow_points) -> tuple:
    """One row per (H, (N, M), kind, epsilon), in that nesting order.

    Each (N, M) gets one theta window and one :func:`hop_sweep` per kind
    and epsilon, over every hop count, so paths of one shape share a theta
    search.  A bound that does not exist (a :class:`StabilityError` or
    :class:`HorizonError` in place of a result) becomes a flagged row
    (``stable=false``, ``bound_value=inf``, no ``theta_star``) and its
    message goes to stderr.  A theta* at an edge of its window is warned
    about; at the upper edge the warning says when the path is peak-rate
    stable (:func:`peak_rate_stable`).  Returns the rows and whether any was
    flagged.
    """
    if sc.bound is None:
        raise _UsageError("scenario has no bound block and no --epsilon override given")
    hops, kinds, epsilons = sc.network.hop_counts, sc.bound.kinds, sc.bound.epsilons
    rows, flagged, sweeps = [], False, {}
    for i, h in enumerate(hops):
        for n, m in flow_points:
            if (n, m) not in sweeps:  # at the first H, in the order rows are written
                one = sc.build_path(1, n, m)
                paths = [NetworkPath(one.through, one.hops * hop_count) for hop_count in hops]
                search = sc.build_theta_search(paths[0])
                sweeps[n, m] = search, peak_rate_stable(one), {
                    (kind, eps): hop_sweep(paths, kind, eps, sc.bound.horizon, search)
                    for kind in kinds for eps in epsilons}
            search, peak_stable, results = sweeps[n, m]
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
                            note = ("; the path is peak-rate stable, so its exact delay and backlog are 0"
                                   if edge == "upper" and peak_stable else "")
                            print(f"warning: {where}: theta*={theta:.6g} is at the {edge} edge "
                                  f"of the theta window [{lo:.6g}, {hi:.6g}]{note}", file=sys.stderr)
                    rows.append(ResultRow(
                        scenario_id=sc.scenario_id, kind=kind, hops=h, through_flows=n,
                        cross_flows=m, epsilon=eps, theta_star=theta, bound_value=value,
                        bound_unit=unit, stable=stable,
                    ))
    return rows, flagged


def _simulation(sc: Scenario, args):
    """The simulation at the scenario's flow point that runs its largest hop
    count once per replication; without a sim block, a :class:`ScenarioError`."""
    hops = sc.network.hop_counts
    sim = sc.build_sim_scenario(max(hops), sc.traffic.through_flows, sc.traffic.cross_flows)
    _log(args, f"simulating H={','.join(map(str, hops))} in one {sim.hops}-hop pass: "
               f"{sim.replications} x {sim.measure_slots} slots "
               f"(utilization {sim.utilization():.3f})")
    return sim


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bound(sc: Scenario, args) -> int:
    """``bound``, ``sweep-hops`` and ``sweep-flows``."""
    if args.command != "sweep-flows":
        flow_points = [(sc.traffic.through_flows, sc.traffic.cross_flows)]
    elif sc.network.flow_totals is None:
        raise _UsageError("sweep-flows needs network.flow_totals")
    elif args.through is not None or args.cross is not None:
        raise _UsageError("sweep-flows takes (N, M) from network.flow_totals, not from --through/--cross")
    else:
        flow_points = sc.flow_points()
    rows, flagged = _bound_rows(sc, flow_points)
    _emit(write_results_csv(rows), args)
    return EXIT_UNSTABLE if flagged else EXIT_OK


def _cmd_simulate(sc: Scenario, args) -> int:
    sim = _simulation(sc, args)
    from .simulator import SampleStats, reduce_replications
    hops = sc.network.hop_counts
    per_rep = list(reduce_replications(sim, dict.fromkeys(hops, SampleStats), jobs=args.jobs))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SIM_CSV_HEADER)
    for h in hops:
        for rep, stats in enumerate(per_rep):
            writer.writerow([sc.scenario_id, h, sim.through_count, sim.cross_count, rep, sim.base_seed,
                             sim.measure_slots, *map(repr, stats[h])])
    _emit(buf.getvalue(), args)
    return EXIT_OK


def _bound_counts(sim, rows, thresholds, jobs: int) -> list:
    """The per-replication exceedance counts of the rows' thresholds, taken
    on the end-to-end curves without samples."""
    from .simulator import Exceedances, reduce_replications
    members = {}
    for i, row in enumerate(rows):
        members.setdefault(row.hops, []).append(i)
    reduce = {h: partial(Exceedances, tuple((rows[i].kind, thresholds[i]) for i in idx))
              for h, idx in members.items()}
    per_rep = list(reduce_replications(sim, reduce, jobs=jobs))
    counts = [None] * len(rows)
    for h, idx in members.items():
        for j, i in enumerate(idx):
            counts[i] = tuple(reduced[h][j] for reduced in per_rep)
    return counts


def _cmd_validate(sc: Scenario, args) -> int:
    sim = _simulation(sc, args)  # a scenario the simulator refuses pays for no bound
    rows, flagged = _bound_rows(sc, [(sc.traffic.through_flows, sc.traffic.cross_flows)])
    slot, sample_count = sc.units.slot_length_s, sim.replications * sim.measure_slots
    if args.self_test:  # thresholds each exceeded by at least 10 epsilon of the samples
        from .simulator import self_test_thresholds
        wanted = [(row.hops, row.kind, min(sample_count, math.ceil(10 * row.epsilon * sample_count)))
                  for row in rows]
        thresholds = self_test_thresholds(sim, wanted, jobs=args.jobs)
    else:  # validation happens in internal units (slots / bits)
        thresholds = [row.bound_value / slot if row.kind == "delay" else row.bound_value for row in rows]
    counts = _bound_counts(sim, rows, thresholds, args.jobs)
    scenario_id = sc.scenario_id + ("#selftest" if args.self_test else "")
    any_fail = False
    per_kind = {}
    for i, (row, threshold, per_rep) in enumerate(zip(rows, thresholds, counts)):
        delay = row.kind == "delay"
        report = validate_exceedances(sum(per_rep), sample_count, row.kind, threshold, row.epsilon)
        for warning in report.warnings:
            print(f"warning: H={row.hops} {row.kind}: {warning}", file=sys.stderr)
        any_fail = any_fail or report.verdict == "fail"
        rows[i] = row.replace(scenario_id=scenario_id,
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
        return _COMMANDS[args.command](_load(args), args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ScenarioError, MemoryError) as exc:  # scenario or --out file; run size
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
