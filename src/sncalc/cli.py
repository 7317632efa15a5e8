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
exceeds the capacity ends the command with exit 2 and no rows.

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

import numpy as np

from .bounds import HorizonError, StabilityError, backlog_bound, delay_bound
# not called here: perfbench/tracing.py patches these names on this module
from .bounds import closed_form_backlog, closed_form_delay  # noqa: F401
from .scenario import (
    ResultRow,
    Scenario,
    ScenarioError,
    parse_scenario_file,
    resolve_scenario_path,
    write_results_csv,
)
from .simulator import simulate_tandem, validate_samples

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
        p.add_argument("--seed", type=int, help="override the simulation base seed")
        p.add_argument("--jobs", type=int, default=1, help="parallel simulation workers (default 1)")
        p.add_argument("-v", "--verbose", action="store_true", help="progress on stderr")
        if name == "validate":
            p.add_argument("--self-test", action="store_true",
                           help="halve the bound thresholds to exercise harness sensitivity")
            p.add_argument("--slack", type=float, default=0.0,
                           help="relative slack on epsilon for the pass criterion")
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

    A bound that raises :class:`StabilityError` or :class:`HorizonError`
    becomes a flagged row (``stable=false``, ``bound_value=inf``, no
    ``theta_star``) and its message goes to stderr.  Returns the rows and
    whether any was flagged.
    """
    hops, epsilons = _hop_list(sc, args), _epsilons(sc, args)
    kinds, horizon = (sc.bound.kinds, sc.bound.horizon) if sc.bound else (("delay",), math.inf)
    rows, flagged = [], False
    for h in hops:
        for n, m in flow_points:
            path = sc.build_path(h, n, m)
            search = sc.build_theta_search(path)
            for kind in kinds:
                fn, unit, scale = ((delay_bound, "s", sc.units.slot_length_s) if kind == "delay"
                                   else (backlog_bound, "bits", 1.0))
                for eps in epsilons:
                    try:
                        result = fn(path, eps, horizon, search)
                        theta, value = result.theta_star, result.value * scale
                        stable = result.stable_at_theta_star
                    except (StabilityError, HorizonError) as exc:
                        theta, value, stable, flagged = None, math.inf, False, True
                        print(f"H={h} N={n} M={m} {kind} epsilon={eps:g}: no bound: {exc}",
                              file=sys.stderr)
                    rows.append(ResultRow(
                        scenario_id=sc.scenario_id, kind=kind, hops=h, through_flows=n,
                        cross_flows=m, epsilon=eps, theta_star=theta, bound_value=value,
                        bound_unit=unit, stable=stable,
                    ))
    return rows, flagged


def _simulations(sc: Scenario, args, n: int, m: int):
    """(SimScenario, SimResult) per hop count, replications in order."""
    for h in _hop_list(sc, args):
        sim = sc.build_sim_scenario(h, n, m, base_seed=args.seed)
        _log(args, f"simulating H={h}: {sim.replications} x {sim.measure_slots} slots "
                   f"(utilization {sim.utilization():.3f})")
        yield sim, simulate_tandem(sim, jobs=args.jobs)


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


def _stats(samples) -> list:
    """Mean, 99th percentile and maximum, as CSV fields."""
    return [repr(float(v)) for v in (samples.mean(), np.percentile(samples, 99), samples.max())]


def _cmd_simulate(sc: Scenario, args) -> int:
    if sc.sim is None:
        raise _UsageError("simulate needs a sim block in the scenario")
    n, m = _flow_point(sc, args)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SIM_CSV_HEADER)
    for sim, result in _simulations(sc, args, n, m):
        k = sim.measure_slots
        for rep in range(sim.replications):
            writer.writerow([sc.scenario_id, sim.hops, n, m, rep, sim.base_seed, k,
                             *_stats(result.delay_samples[rep * k:(rep + 1) * k]),
                             *_stats(result.backlog_samples[rep * k:(rep + 1) * k])])
        del result
    _emit(buf.getvalue(), args)
    return EXIT_OK


def _cmd_validate(sc: Scenario, args) -> int:
    if sc.sim is None:
        raise _UsageError("validate needs a sim block in the scenario")
    n, m = _flow_point(sc, args)
    rows, flagged = _bound_rows(sc, args, [(n, m)])
    scenario_id = sc.scenario_id + ("#selftest" if args.self_test else "")
    slot = sc.units.slot_length_s
    any_fail = False
    for sim, result in _simulations(sc, args, n, m):
        for i, row in enumerate(rows):
            if row.hops != sim.hops:
                continue
            delay = row.kind == "delay"
            # validation happens in internal units (slots / bits)
            threshold = row.bound_value / slot if delay else row.bound_value
            if args.self_test:
                threshold *= 0.5
            report = validate_samples(result.delay_samples if delay else result.backlog_samples,
                                      row.kind, threshold, row.epsilon, slack=args.slack)
            for warning in report.warnings:
                print(f"warning: H={row.hops} {row.kind}: {warning}", file=sys.stderr)
            any_fail = any_fail or report.verdict == "fail"
            rows[i] = replace(row, scenario_id=scenario_id,
                              bound_value=threshold * slot if delay else threshold,
                              empirical_frequency=report.frequency,
                              confidence_limit=report.upper_confidence)
            _log(args, f"H={row.hops} {row.kind} eps={row.epsilon:g}: verdict={report.verdict} "
                       f"freq={report.frequency:.3g} ucl={report.upper_confidence:.3g}")
        # release this hop count's samples before the next one is simulated
        del result
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
