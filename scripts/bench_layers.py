#!/usr/bin/env python3
"""Time and count the bound engine's and the simulator's layers over the benchmark's workloads.

Runs each workload of ``perfbench/workloads.py``, its commands for
``--seed``, through ``sncalc.cli.main`` in this process: one untimed pass
for imports and caches, then ``--repeats`` plain passes, each followed by
one pass with these layers wrapped from outside the package:

  envelopes    ``traffic_effective_bandwidth`` and ``service_effective_capacity``
               as the bound engine calls them
  path_eval    ``bounds._log_terms``: one path at one theta, less its envelopes
  search       ``bounds.minimize_over_theta``: the grid scan and golden section
               around the objective, whose calls count as ``objective_evals``
  finish       ``bounds._finish``: the bound and its diagnostics at theta*
  sources      ``_Arrivals.of_sources``: every source's on-runs, in closed form
  arrivals     ``_Arrivals.fill``: the ingress and cross arrivals, chunk by chunk
  hop_step     ``_Hop.step``: the FIFO split, less the cross arrivals it reads
  reductions   the reductions' ``add``: validate's exceedance counts
  replication  ``simulate_replication``: the rest of a replication
  other        ``cli.main``: the rest of each command (parsing, CLI, CSV)

A layer's time is its own, less that of the wrapped layers it calls;
``pass_s`` times the plain passes, as wrapping slows a pass.  Every pass's
outputs must pass ``perfbench/checks.py`` against the benchmark's
reference, or the script exits 1 and writes nothing.  Prints, and writes
to ``--out``, each time's median over the passes, one wrapped pass's call
counts and the host.  Run it from the repository root, as the
finite-horizon command names its scenario by a path from there:

    PYTHONPATH=src python scripts/bench_layers.py --repeats 5
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import warm  # noqa: E402
import workloads  # noqa: E402
from sncalc import bounds, cli, simulator  # noqa: E402

# each layer and the (owner, name) of every function it wraps
LAYERS = {
    "envelopes": ((bounds, "traffic_effective_bandwidth"), (bounds, "service_effective_capacity")),
    "path_eval": ((bounds, "_log_terms"),),
    "search": ((bounds, "minimize_over_theta"),),
    "finish": ((bounds, "_finish"),),
    "sources": ((simulator._Arrivals, "of_sources"),),
    "arrivals": ((simulator._Arrivals, "fill"),),
    "hop_step": ((simulator._Hop, "step"),),
    "reductions": ((simulator._SampleReduction, "add"),),
    "replication": ((simulator, "simulate_replication"),),
    "other": ((cli, "main"),),
}
SIMULATOR = ("sources", "arrivals", "hop_step", "reductions", "replication")


class LayerTimer:
    """Own time and calls per layer; a layer's time excludes the layers it calls."""

    def __init__(self):
        self.own, self.calls, self._child = Counter(), Counter(), [0.0]

    def wrap(self, layer, fn):
        if isinstance(fn, classmethod):
            return classmethod(self.wrap(layer, fn.__func__))
        if layer == "search":
            fn = self._counting_search(fn)

        def timed(*args, **kwargs):
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self.own[layer] += took - self._child.pop()
                self.calls[layer] += 1
                self._child[-1] += took
        return timed

    def _counting_search(self, search):
        def counted_search(objective, config):
            def counted(theta):
                self.calls["objective_evals"] += 1
                return objective(theta)
            return search(counted, config)
        return counted_search


@contextlib.contextmanager
def wrapped(timer):
    """Every layer's functions wrapped by ``timer``, and restored on exit.
    Each is looked up on entry, so a name that is gone raises here."""
    saved = [(owner, name, layer, vars(owner)[name]) for layer, targets in LAYERS.items()
             for owner, name in targets]
    try:
        for owner, name, layer, fn in saved:
            setattr(owner, name, timer.wrap(layer, fn))
        yield
    finally:
        for owner, name, _, fn in saved:
            setattr(owner, name, fn)


def run_pass(commands, reference):
    """One pass of ``commands``; exits 1 with the problems if an output fails its check."""
    _, problems = warm.run_pass(cli.main, commands, reference)
    found = [problem for command in problems for problem in command]
    if found:
        sys.exit("outputs fail the benchmark's check:\n  " + "\n  ".join(found))


def bench(commands, repeats, reference):
    """``pass_s``, and each layer's median own time and its calls, over ``repeats`` passes."""
    run_pass(commands, reference)  # imports and caches first
    plain, runs = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        run_pass(commands, reference)
        plain.append(time.perf_counter() - start)
        timer = LayerTimer()
        with wrapped(timer):
            run_pass(commands, reference)
        runs.append(timer)
    return {
        "pass_s": statistics.median(plain),
        "layer_s": {layer: statistics.median(run.own[layer] for run in runs) for layer in LAYERS},
        "calls": {name: runs[0].calls[name] for name in (*LAYERS, "objective_evals")},
    }


def report(name, result, repeats):
    calls = result["calls"]
    print(f"{name}: pass {result['pass_s'] * 1e3:.3f} ms unwrapped, {calls['search']} searches, "
          f"{calls['objective_evals']} objective evaluations (median of {repeats})")
    wrapped_s = sum(result["layer_s"].values())
    for layer, seconds in result["layer_s"].items():
        if not calls[layer]:
            continue
        per = f" {seconds / calls['replication'] * 1e3:9.3f} ms per replication" if layer in SIMULATOR else ""
        print(f"  {layer:<11} {seconds * 1e3:9.3f} ms {seconds / wrapped_s:6.1%} {calls[layer]:7d} calls{per}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5, help="timed passes per workload (default 5)")
    ap.add_argument("--seed", type=int, default=1, help="the workloads' seed (default 1)")
    ap.add_argument("--out", default="BENCH_layers.json", help="JSON result (default BENCH_layers.json)")
    args = ap.parse_args()
    if args.repeats < 1 or args.seed < 0:
        ap.error("--repeats must be >= 1 and --seed >= 0")

    reference = checks.load_reference()
    result = {"seed": args.seed, "repeats": args.repeats, "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        result["workloads"][name] = bench(workload.commands(args.seed), args.repeats, reference)
        report(name, result["workloads"][name], args.repeats)
    result["host"] = {"python": platform.python_version(), "numpy": np.__version__,
                      "machine": platform.machine(), "cpus": os.cpu_count()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
