"""sncalc benchmark: end-to-end CLI times per workload, or per-layer metrics from a traced run.

Run from the repository root (sncalc need not be installed; ``src`` is put
on ``PYTHONPATH`` of every child interpreter):

    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 26 --trace 0

``--trace 0`` measures, with tracing off:
  setup_s      a fresh interpreter imports sncalc and parses the workload's
               scenario files (median of SETUP_SAMPLES);
  cold_wall_s  one pass of the workload's commands, each ``python -m
               sncalc.cli ...`` in a fresh interpreter, start to exit (mean);
  warm_wall_s  one pass through ``sncalc.cli.main`` in a warm process (mean
               of samples of ``warm_repeats`` passes, after a warm-up pass);
  peak_rss_mb  peak RSS of each cold child (median over children).
The two wall times are means, total time over passes: the host alternates
between a fast and a slow speed for tens of seconds at a time, and a mean
follows the share of each smoothly where a median jumps between them.
``--trace 1`` reports the per-layer metrics instead: import times from
``python -X importtime`` and spans from a warm worker that alternates
untraced and traced passes.

Every CLI invocation is an operation and is checked (``checks.py``); the last
line of standard output is the JSON result.  Run records and spans go to
``.perfbench/`` in the repository root.  Exits non-zero without a result
when sncalc cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WARM_WORKER = Path(__file__).resolve().parent / "warm.py"

SETUP_SAMPLES = 3
MIN_SAMPLES = 3
WARM_PER_COLD = 0.7     # warm sampling time per second of cold pass
IMPORTTIME_RUNS = 3
TRACE_MAX_PASSES = 5

SETUP_CODE = (
    "import sys, sncalc\n"
    "from sncalc.scenario import parse_scenario_file, resolve_scenario_path\n"
    "for name in sys.argv[1:]:\n"
    "    parse_scenario_file(resolve_scenario_path(name))\n"
)

MEAN_METRICS = ("cold_wall_s", "warm_wall_s")   # the others are medians
END_TO_END = {"setup_s": "s", "cold_wall_s": "s", "warm_wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.sncalc_s": "s", "import.scipy_stats_s": "s", "import.yaml_s": "s", "import.numpy_s": "s",
    "scenario.parse_calls": "count", "scenario.parse_s": "s",
    "cli.self_s": "s",
    "bounds.closed_form_calls": "count", "bounds.closed_form_self_s": "s",
    "bounds.general_calls": "count", "bounds.general_self_s": "s",
    "bounds.theta_searches": "count", "bounds.objective_evals": "count", "bounds.objective_eval_us": "us",
    "envelopes.eb_calls": "count", "envelopes.eb_self_s": "s",
    "simulator.replications": "count", "simulator.hop_passes": "count",
    "simulator.replication_s": "s", "simulator.validate_samples_s": "s",
    "simulator.sample_bytes": "bytes", "simulator.slot_hops_per_s": "1/s",
    "trace.warm_untraced_s": "s", "trace.warm_traced_s": "s", "trace.overhead_s": "s",
}
IMPORT_MODULES = {"sncalc": "import.sncalc_s", "scipy.stats": "import.scipy_stats_s",
                  "yaml": "import.yaml_s", "numpy": "import.numpy_s"}


class Child(NamedTuple):
    seconds: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Bench:
    """Child processes of one run, all started from the repository root."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.argvs = []   # every command started, for the manifest

    def run(self, argv) -> Child:
        """Run one child to completion; wall time start to exit and its own peak RSS."""
        self.argvs.append(list(argv))
        out_path, err_path = self.work_dir / "stdout", self.work_dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(seconds, usage.ru_maxrss / 1024.0, proc.returncode,
                     out_path.read_text(encoding="utf-8", errors="replace"),
                     err_path.read_text(encoding="utf-8", errors="replace"))

    def setup(self, workload) -> Child:
        return self.run([sys.executable, "-c", SETUP_CODE, *workload.scenarios])


class Worker:
    """A warm worker process (``warm.py``) that answers one request at a time."""

    def __init__(self, bench: Bench, args):
        argv = [sys.executable, str(WARM_WORKER), *args]
        bench.argvs.append(argv)
        self.stderr = open(bench.work_dir / "worker-stderr", "w+b")
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=bench.env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        try:
            self.ready = self._read()   # sent after import and the warm-up pass
        except BaseException:
            self.__exit__()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.stderr.seek(0)
            raise SystemExit("warm worker failed:\n" + self.stderr.read().decode(errors="replace"))
        return json.loads(line)

    def ask(self, request: str) -> dict:
        try:
            self.proc.stdin.write(request + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass    # the worker died; _read reports its stderr
        return self._read()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.stderr):
            stream.close()


def cold_pass(bench: Bench, commands, reference) -> tuple:
    """One pass of cold commands: (wall seconds, [rss], outputs, [problems per command])."""
    wall, rss, outputs, problems = 0.0, [], [], []
    for command in commands:
        child = bench.run([sys.executable, "-m", "sncalc.cli", *command.argv])
        wall += child.seconds
        rss.append(child.rss_mb)
        outputs.append(child.stdout)
        problems.append(checks.check_output(command, child.code, child.stdout, reference))
    return wall, rss, outputs, problems


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of each module first imported, from ``-X importtime``."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = (field.strip() for field in line.split(":", 1)[1].split("|"))
        if cumulative.isdigit():
            times.setdefault(name, int(cumulative) / 1e6)
    return times


def manifest(workload, args, run_id: str) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    git = None
    if (ROOT / ".git").exists():
        def git_out(*cmd):
            return subprocess.run(["git", "--no-optional-locks", *cmd], cwd=ROOT,
                                  capture_output=True, text=True).stdout.strip()
        git = {"sha": git_out("rev-parse", "HEAD"), "dirty": bool(git_out("status", "--porcelain"))}
    return {
        "run_id": run_id, "workload": workload.name, "why": workload.why,
        "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git": git, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": version("numpy"), "scipy": version("scipy"),
        "PyYAML": version("PyYAML"),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(bench: Bench, workload, args) -> tuple:
    """End-to-end metrics with tracing off.

    Rounds of (set-up sample while fewer than SETUP_SAMPLES, one cold pass,
    warm samples for WARM_PER_COLD of that pass's time) repeat for
    ``--seconds`` and at least MIN_SAMPLES times, so every metric samples
    the whole run rather than one stretch of it.
    """
    reference = checks.load_reference()
    commands = workload.commands(args.seed)
    setup, walls, rss, warm, problems, first = [], [], [], [], [], None
    with Worker(bench, ["--workload", workload.name, "--seed", str(args.seed)]) as worker:
        deadline = time.perf_counter() + args.seconds
        while len(walls) < MIN_SAMPLES or time.perf_counter() < deadline:
            if len(setup) < SETUP_SAMPLES:
                child = bench.setup(workload)
                if child.code != 0:
                    raise SystemExit(f"cannot import sncalc or parse the scenarios:\n{child.stderr}")
                setup.append(child.seconds)
            wall, pass_rss, outputs, found = cold_pass(bench, commands, reference)
            walls.append(wall)
            rss += pass_rss
            problems += found
            first = first or outputs
            warm_until = time.perf_counter() + wall * WARM_PER_COLD
            warm.append(worker.ask("sample")["seconds"])
            while time.perf_counter() < warm_until:
                warm.append(worker.ask("sample")["seconds"])
        summary = worker.ask("end")

    attempted = len(problems) + summary["attempted"]
    failed = sum(1 for found in problems if found) + summary["failed"]
    notes = [p for found in problems for p in found][:20] + summary["problems"]
    if worker.ready["digest"] != checks.digest(first):
        notes.append("warm outputs differ from the cold ones")
    samples = {"setup_s": setup, "cold_wall_s": walls, "warm_wall_s": warm, "peak_rss_mb": rss}
    metrics = {name: (statistics.fmean if name in MEAN_METRICS else statistics.median)(values)
               for name, values in samples.items()}
    extra = {"error_rate": (failed / attempted, "1")}
    slot_hops = worker.ready["slot_hops"]
    if slot_hops:
        extra["slot_hops_per_s"] = (slot_hops / metrics["warm_wall_s"], "1/s")
    record = {"samples": samples, "warm_repeats": workload.warm_repeats,
              "slot_hops": slot_hops, "problems": notes}
    return failed == 0 and not notes, attempted, failed, metrics, extra, record


def trace(bench: Bench, workload, args, run_id: str) -> tuple:
    """Per-layer metrics from ``-X importtime`` and a warm worker's traced passes."""
    imports = {}
    for _ in range(IMPORTTIME_RUNS):
        child = bench.run([sys.executable, "-X", "importtime", "-c", "import sncalc"])
        if child.code != 0:
            raise SystemExit(f"cannot import sncalc:\n{child.stderr}")
        for module, seconds in parse_importtime(child.stderr).items():
            imports.setdefault(module, []).append(seconds)
    spans_file = OUT_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl.gz"
    pairs = []
    with Worker(bench, ["--workload", workload.name, "--seed", str(args.seed),
                        "--trace", str(spans_file), "--run-id", run_id]) as worker:
        deadline = time.perf_counter() + args.seconds
        while len(pairs) < MIN_SAMPLES or (
                time.perf_counter() < deadline and len(pairs) < TRACE_MAX_PASSES):
            pairs.append(worker.ask("pair"))
        summary = worker.ask("end")

    untraced = statistics.median(p["untraced"] for p in pairs)
    traced = statistics.median(p["traced"] for p in pairs)
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update({key: statistics.median(imports[module])
                    for module, key in IMPORT_MODULES.items() if module in imports})
    metrics.update({k: v for k, v in summary["layers"].items() if k in PER_LAYER})
    metrics.update({
        "simulator.slot_hops_per_s": worker.ready["slot_hops"] / untraced,
        "trace.warm_untraced_s": untraced, "trace.warm_traced_s": traced,
        "trace.overhead_s": traced - untraced,
    })
    notes = summary["problems"]
    if not summary["counts_repeat"]:
        notes.append("per-layer counts differ between traced passes")
    record = {"pairs": pairs, "imports": {m: imports.get(m) for m in IMPORT_MODULES},
              "spans": summary["spans"], "spans_file": spans_file.name, "problems": notes}
    return summary["failed"] == 0 and not notes, summary["attempted"], summary["failed"], metrics, {}, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=26)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    workload = workloads.WORKLOADS[args.workload]
    if not (ROOT / "src" / "sncalc" / "__init__.py").is_file():
        print(f"sncalc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        bench = Bench(Path(work))
        info = manifest(workload, args, run_id)
        if args.trace:
            ok, attempted, failed, metrics, extra, record = trace(bench, workload, args, run_id)
            units = PER_LAYER
        else:
            ok, attempted, failed, metrics, extra, record = measure(bench, workload, args)
            units = END_TO_END
        info["argv"] = bench.argvs
    record.update(manifest=info, metrics=metrics, extra=extra, attempted=attempted, failed=failed)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}")
    counts = {name: len(values) for name, values in record.get("samples", {}).items()}
    for name, value in metrics.items():
        count = ""
        if name in MEAN_METRICS:
            median = statistics.median(record["samples"][name])
            count = f"  (mean of {counts[name]}; median {median:.6g})"
        elif name in counts:
            count = f"  (median of {counts[name]})"
        print(f"{workload.name:15s} {name:28s} {value:14.6g} {units[name]}{count}")
    for name, (value, unit) in extra.items():
        print(f"{workload.name:15s} {name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
