"""Command-line interface.

Subcommands: ``bound`` and ``sweep-hops`` (bounds at the scenario's flow
point, one row per hop count), ``sweep-flows`` (one row per (N, M) sweep
point), ``simulate`` (per-replication sample statistics) and ``validate``
(simulate and compare empirical tails against the analytic bounds).

Exit codes: 0 success or inconclusive-by-design, 1 usage/parse error,
2 instability, 3 validation failure.

Flat flags override scenario fields (--epsilon, --hops, --through, --cross,
--seed); command-line values take precedence.  ``--scenario`` accepts a file
path, a name resolved in ``$SNC_PRESET_DIR``, or a built-in preset name.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from concurrent.futures import ProcessPoolExecutor

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
from .simulator import simulate_replication, simulate_tandem, validate_samples

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
        p.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
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


def _kinds(sc: Scenario) -> tuple:
    return sc.bound.kinds if sc.bound is not None else ("delay",)


def _horizon(sc: Scenario) -> float:
    return sc.bound.horizon if sc.bound is not None else math.inf


def _bound_row(task) -> ResultRow:
    sc, kind, hops, n, m, eps = task
    path = sc.build_path(hops, n, m)
    fn = delay_bound if kind == "delay" else backlog_bound
    result = fn(path, eps, _horizon(sc), sc.build_theta_search(path))
    if kind == "delay":
        value, unit = result.value * sc.units.slot_length_s, "s"
    else:
        value, unit = result.value, "bits"
    return ResultRow(
        scenario_id=sc.scenario_id, kind=kind, hops=hops, through_flows=n,
        cross_flows=m, epsilon=eps, theta_star=result.theta_star,
        bound_value=value, bound_unit=unit, stable=result.stable_at_theta_star,
    )


def _map_tasks(tasks, args):
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            return list(pool.map(_bound_row, tasks))
    return [_bound_row(t) for t in tasks]


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bound(sc: Scenario, args) -> int:
    """``bound`` and ``sweep-hops``: one row per hop count, kind and epsilon."""
    if sc.bound is None and args.epsilon is None:
        raise _UsageError(f"{args.command} needs a bound block or --epsilon")
    n, m = _flow_point(sc, args)
    tasks = [(sc, kind, h, n, m, eps)
             for h in _hop_list(sc, args)
             for kind in _kinds(sc)
             for eps in _epsilons(sc, args)]
    rows = _map_tasks(tasks, args)
    _emit(write_results_csv(rows), args)
    return EXIT_OK


def _cmd_sweep_flows(sc: Scenario, args) -> int:
    if sc.network.flow_totals is None and sc.network.flow_pairs is None:
        raise _UsageError("sweep-flows needs network.flow_totals or network.flow_pairs")
    if sc.bound is None and args.epsilon is None:
        raise _UsageError("sweep-flows needs a bound block or --epsilon")
    rows = []
    for h in _hop_list(sc, args):
        for n, m in sc.flow_points():
            for kind in _kinds(sc):
                for eps in _epsilons(sc, args):
                    try:
                        rows.append(_bound_row((sc, kind, h, n, m, eps)))
                    except StabilityError:
                        unit = "s" if kind == "delay" else "bits"
                        rows.append(ResultRow(
                            scenario_id=sc.scenario_id, kind=kind, hops=h,
                            through_flows=n, cross_flows=m, epsilon=eps,
                            theta_star=None, bound_value=math.inf, bound_unit=unit,
                            stable=False,
                        ))
                        _log(args, f"flow point N={n} M={m}: unstable, bound diverges")
    _emit(write_results_csv(rows), args)
    return EXIT_OK


def _sim_row(task):
    sc, hops, n, m, seed, rep = task
    sim = sc.build_sim_scenario(hops, n, m, base_seed=seed)
    trace = simulate_replication(sim, rep)
    d, b = trace.delay_samples, trace.backlog_samples
    return [
        sc.scenario_id, str(hops), str(n), str(m), str(rep), str(sim.base_seed),
        str(d.size),
        repr(float(d.mean())), repr(float(np.percentile(d, 99))), repr(float(d.max())),
        repr(float(b.mean())), repr(float(np.percentile(b, 99))), repr(float(b.max())),
    ]


def _cmd_simulate(sc: Scenario, args) -> int:
    if sc.sim is None:
        raise _UsageError("simulate needs a sim block in the scenario")
    n, m = _flow_point(sc, args)
    seed = args.seed if args.seed is not None else sc.sim.base_seed
    tasks = [(sc, h, n, m, seed, rep)
             for h in _hop_list(sc, args)
             for rep in range(sc.sim.replications)]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sim_row, tasks))
    else:
        rows = [_sim_row(t) for t in tasks]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SIM_CSV_HEADER)
    writer.writerows(rows)
    _emit(buf.getvalue(), args)
    return EXIT_OK


def _cmd_validate(sc: Scenario, args) -> int:
    if sc.sim is None:
        raise _UsageError("validate needs a sim block in the scenario")
    if sc.bound is None and args.epsilon is None:
        raise _UsageError("validate needs a bound block or --epsilon")
    n, m = _flow_point(sc, args)
    seed = args.seed if args.seed is not None else None
    epsilons = _epsilons(sc, args)
    kinds = _kinds(sc)
    scenario_id = sc.scenario_id + ("#selftest" if args.self_test else "")
    rows = []
    any_fail = False
    for h in _hop_list(sc, args):
        sim_scenario = sc.build_sim_scenario(h, n, m, base_seed=seed)
        _log(args, f"simulating H={h}: {sim_scenario.replications} x "
                   f"{sim_scenario.measure_slots} slots "
                   f"(utilization {sim_scenario.utilization():.3f})")
        sim = simulate_tandem(sim_scenario, jobs=args.jobs)
        for kind in kinds:
            samples = sim.delay_samples if kind == "delay" else sim.backlog_samples
            for eps in epsilons:
                bound = _bound_row((sc, kind, h, n, m, eps))
                # validation happens in internal units (slots / bits)
                threshold = (bound.bound_value / sc.units.slot_length_s
                             if kind == "delay" else bound.bound_value)
                if args.self_test:
                    threshold *= 0.5
                report = validate_samples(samples, kind, threshold, eps, slack=args.slack)
                for warning in report.warnings:
                    print(f"warning: H={h} {kind}: {warning}", file=sys.stderr)
                if report.verdict == "fail":
                    any_fail = True
                shown = threshold * sc.units.slot_length_s if kind == "delay" else threshold
                rows.append(ResultRow(
                    scenario_id=scenario_id, kind=kind, hops=h, through_flows=n,
                    cross_flows=m, epsilon=eps, theta_star=bound.theta_star,
                    bound_value=shown, bound_unit=bound.bound_unit, stable=bound.stable,
                    empirical_frequency=report.frequency,
                    confidence_limit=report.upper_confidence,
                ))
                _log(args, f"H={h} {kind} eps={eps:g}: verdict={report.verdict} "
                           f"freq={report.frequency:.3g} ucl={report.upper_confidence:.3g}")
        # release this hop count's samples before the next one is simulated
        del sim, samples
    _emit(write_results_csv(rows), args)
    return EXIT_VALIDATION if any_fail else EXIT_OK


_COMMANDS = {
    "bound": _cmd_bound,
    "sweep-hops": _cmd_bound,
    "sweep-flows": _cmd_sweep_flows,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        sc = _load(args)
    except (FileNotFoundError, ScenarioError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](sc, args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except HorizonError as exc:
        print(f"horizon too small: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
