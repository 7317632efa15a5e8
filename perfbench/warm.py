"""Warm worker: runs a workload's commands through ``sncalc.cli.main`` in one process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports sncalc,
makes one untimed warm-up pass and prints a JSON line.  Then it answers
requests read one per line from standard input, each with one JSON line:

  sample   time the workload's ``warm_repeats`` passes; seconds per pass
  pair     (with ``--trace``) one untraced and one traced pass, checking that
           both print the same bytes
  end      print the summary (operations, failures, and with ``--trace`` the
           per-layer metrics) and exit
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import checks
import workloads


def run_pass(main, commands, reference):
    """Run every command once: (outputs, problems per command)."""
    outputs, problems = [], []
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(command.argv))
            except Exception as exc:  # a crash is a failed operation, not a failed benchmark
                code = f"{type(exc).__name__}: {exc}"
        outputs.append(out.getvalue())
        problems.append(checks.check_output(command, code, out.getvalue(), reference))
    return outputs, problems


def slot_hops(commands) -> int:
    """Simulated slot-hops one pass delivers: (warmup + measure) x replications x sum(H)."""
    from sncalc.scenario import parse_scenario_file, resolve_scenario_path

    total = 0
    for command in commands:
        if command.argv[0] != "validate":
            continue
        argv = list(command.argv)
        sc = parse_scenario_file(resolve_scenario_path(argv[argv.index("--scenario") + 1]))
        for hops in sc.network.hop_counts:
            sim = sc.build_sim_scenario(hops, sc.traffic.through_flows, sc.traffic.cross_flows)
            total += (sim.resolved_warmup() + sim.measure_slots) * sim.replications * hops
    return total


def reply(obj) -> None:
    print(json.dumps(obj), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="SPANS_FILE", help="trace passes; write spans here at the end")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()

    from sncalc.cli import main as cli_main

    workload = workloads.WORKLOADS[args.workload]
    commands = workload.commands(args.seed)
    reference = checks.load_reference()
    problems = []   # one list per invocation

    def timed(repeats, main=cli_main):
        start = time.perf_counter()
        results = [run_pass(main, commands, reference) for _ in range(repeats)]
        elapsed = time.perf_counter() - start
        for _, found in results:
            problems.extend(found)
        return elapsed / repeats, results[0]

    _, (first, _) = timed(1)    # the untimed warm-up pass
    reply({"digest": checks.digest(first), "slot_hops": slot_hops(commands)})

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.run_id)
        traced_main = tracer.wrap("cli.main", cli_main)
    for request in sys.stdin:
        request = request.strip()
        if request == "sample":
            reply({"seconds": timed(workload.warm_repeats)[0]})
        elif request == "pair" and tracer is not None:
            untraced, _ = timed(1)
            with tracer.patched():
                traced, (outputs, found) = timed(1, traced_main)
            for command, output, expected, bad in zip(commands, outputs, first, found):
                if output != expected:
                    bad.append(f"{command.ref}: traced output differs from the untraced one")
            tracer.current_pass += 1
            reply({"untraced": untraced, "traced": traced})
        elif request == "end":
            break
        else:
            raise SystemExit(f"unknown request {request!r}")

    summary = {"attempted": len(problems), "failed": sum(1 for found in problems if found),
               "problems": [p for found in problems for p in found][:20]}
    if tracer is not None:
        from tracing import summarize

        tracer.write(args.trace)
        summary["layers"], summary["counts_repeat"] = summarize(tracer.pass_metrics())
        summary["spans"] = len(tracer.spans)
    reply(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
