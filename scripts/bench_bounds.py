#!/usr/bin/env python3
"""Time the bound engine's layers over the cli-sweep and finite-horizon commands.

Runs, in this process, the two sweeps of the benchmark's cli-sweep pass
(``sweep-hops --scenario voice-fig3`` and ``sweep-flows --scenario
voice-fig4-H10``) and its finite-horizon bound
(``bound --scenario perfbench/scenarios/finite-horizon.yaml``), each after
one untimed pass for imports and caches.  It times these layers by
wrapping them from outside the package:

  envelopes    ``traffic_effective_bandwidth`` and
               ``service_effective_capacity`` as the engine calls them
  path_eval    ``_log_terms``: one path at one theta, less its envelopes
  search       ``minimize_over_theta``: the grid scan, the golden-section
               refinement and the objective around ``_log_terms``
  finish       ``_finish``: the bound and its diagnostics at theta*

Each layer's time is its own, less that of the layers it calls; ``other``
is the rest of each command's ``cli.main`` (parsing, the CLI, the CSV).
Besides the calls of each layer it counts the objective evaluations of the
searches.  A wrapped pass runs slower than a plain one, so ``pass_s`` is
timed separately, unwrapped.  Prints the median over ``--repeats`` passes
of each and writes them, with the counts and the host, to ``--out``:

    PYTHONPATH=src python scripts/bench_bounds.py --repeats 50
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import time

from layer_timer import LayerTimer
from sncalc import bounds, cli

FINITE_SCENARIO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                               "perfbench", "scenarios", "finite-horizon.yaml")
WORKLOADS = {
    "cli-sweep": (("sweep-hops", "--scenario", "voice-fig3"),
                  ("sweep-flows", "--scenario", "voice-fig4-H10")),
    "finite-horizon": (("bound", "--scenario", FINITE_SCENARIO),),
}
LAYERS = ("envelopes", "path_eval", "search", "finish")


@contextlib.contextmanager
def _wrapped(timer):
    search = bounds.minimize_over_theta

    def counted_search(objective, config):
        def counted(theta):
            timer.calls["objective_evals"] += 1
            return objective(theta)
        return search(counted, config)

    targets = [
        (bounds, "traffic_effective_bandwidth", timer.wrap("envelopes", bounds.traffic_effective_bandwidth)),
        (bounds, "service_effective_capacity", timer.wrap("envelopes", bounds.service_effective_capacity)),
        (bounds, "_log_terms", timer.wrap("path_eval", bounds._log_terms)),
        (bounds, "minimize_over_theta", timer.wrap("search", counted_search)),
        (bounds, "_finish", timer.wrap("finish", bounds._finish)),
        (cli, "main", timer.wrap("other", cli.main)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, fn in targets:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def _run(commands):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in commands:
            code = cli.main(list(argv))
            if code != cli.EXIT_OK:
                sys.exit(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def _bench(commands, repeats):
    _run(commands)  # imports and caches first
    plain, runs = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        _run(commands)
        plain.append(time.perf_counter() - start)
        timer = LayerTimer()
        with _wrapped(timer):
            _run(commands)
        runs.append(timer)
    return {
        "pass_s": statistics.median(plain),
        "layer_s": {layer: statistics.median(run.own[layer] for run in runs) for layer in LAYERS + ("other",)},
        "calls": {name: runs[0].calls[name] for name in LAYERS + ("objective_evals",)},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=20, help="timed passes per workload (default 20)")
    ap.add_argument("--out", default="BENCH_bounds.json", help="JSON result (default BENCH_bounds.json)")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    result = {"repeats": args.repeats, "workloads": {}}
    for name, commands in WORKLOADS.items():
        bench = result["workloads"][name] = _bench(commands, args.repeats)
        calls = bench["calls"]
        print(f"{name}: pass {bench['pass_s'] * 1e3:.3f} ms unwrapped, {calls['search']} searches, "
              f"{calls['objective_evals']} objective evaluations (median of {args.repeats})")
        wrapped = sum(bench["layer_s"].values())
        for layer, seconds in bench["layer_s"].items():
            count = f" {calls[layer]:6d} calls" if layer in calls else ""
            print(f"  {layer:<10} {seconds * 1e3:8.3f} ms {seconds / wrapped:6.1%}{count}")
    result["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                      "cpus": os.cpu_count()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
