#!/usr/bin/env python3
"""Time the simulator's layers over one desk-validation replication.

Runs ``sncalc validate`` in this process on a copy of the desk-validation
preset with one replication of ``--slots`` measured slots, after one
untimed run for imports and caches, and times these layers by wrapping
them from outside the package:

  sources      ``_Arrivals.of_sources``: the on-off flows a traffic record
               gives, every source's on-runs, and the closed forms built
               from them
  arrivals     ``_Arrivals.fill``: the ingress and each hop's cross
               arrivals over each chunk, in order
  hop_step     ``_Hop.step``: the FIFO split, less the cross arrivals it
               evaluates
  reductions   the reductions' ``add``: validate's exceedance counts per
               hop count

Each layer's time is its own, less that of the layers it calls; ``other``
is the rest of the replication.  Prints the median over ``--repeats`` runs
of each and writes them, with the call counts and the host, to ``--out``:

    PYTHONPATH=src python scripts/bench_simulator.py --repeats 7
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile

import numpy as np
import yaml

from layer_timer import LayerTimer
from sncalc import cli, simulator
from sncalc.scenario import resolve_scenario_path

LAYERS = ("sources", "arrivals", "hop_step", "reductions")


@contextlib.contextmanager
def _wrapped(timer):
    targets = [
        (simulator._Arrivals, "of_sources", "sources"),
        (simulator._Arrivals, "fill", "arrivals"),
        (simulator._Hop, "step", "hop_step"),
        (simulator._SampleReduction, "add", "reductions"),
        (simulator, "simulate_replication", "replication"),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    try:
        for (owner, attr, layer), (_, _, fn) in zip(targets, saved):
            if isinstance(fn, classmethod):
                setattr(owner, attr, classmethod(timer.wrap(layer, fn.__func__)))
            else:
                setattr(owner, attr, timer.wrap(layer, fn))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def _validate(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code not in (cli.EXIT_OK, cli.EXIT_VALIDATION):
        sys.exit(f"validate exited {code}: {err.getvalue().strip()}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--slots", type=int, default=1_000_000, help="measured slots (default: the preset's 1e6)")
    ap.add_argument("--repeats", type=int, default=5, help="timed runs (default 5)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="BENCH_simulator.json", help="JSON result (default BENCH_simulator.json)")
    args = ap.parse_args()
    if args.slots < 1 or args.repeats < 1:
        ap.error("--slots and --repeats must be >= 1")

    with open(resolve_scenario_path("desk-validation"), encoding="utf-8") as fh:
        preset = yaml.safe_load(fh)
    preset["sim"].update(measure_slots=args.slots, replications=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "desk-validation.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(preset, fh)
        argv = ["validate", "--scenario", path, "--seed", str(args.seed)]
        _validate(argv)  # imports and caches first
        runs = []
        for _ in range(args.repeats):
            timer = LayerTimer()
            with _wrapped(timer):
                _validate(argv)
            runs.append(timer)

    replication = [run.own["replication"] + sum(run.own[layer] for layer in LAYERS) for run in runs]
    median = {layer: statistics.median(run.own[layer] for run in runs) for layer in LAYERS}
    median["other"] = statistics.median(run.own["replication"] for run in runs)
    replication_s = statistics.median(replication)
    hops = max(preset["network"]["hops"])
    slots = preset["sim"]["warmup_slots"] + args.slots + 1
    result = {
        "scenario": "desk-validation",
        "seed": args.seed,
        "measured_slots": args.slots,
        "hops": hops,
        "repeats": args.repeats,
        "replication_s": replication_s,
        "slot_hops_per_s": slots * hops / replication_s,
        "layer_s": median,
        "calls": dict(runs[0].calls),
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
    }
    for layer, seconds in median.items():
        calls = f" {runs[0].calls[layer]:7d} calls" if layer in LAYERS else ""
        print(f"{layer:<11} {seconds * 1e3:9.2f} ms {seconds / replication_s:6.1%}{calls}")
    print(f"replication {replication_s * 1e3:9.2f} ms, {result['slot_hops_per_s']:.3g} slot-hops/s "
          f"(median of {args.repeats})")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
