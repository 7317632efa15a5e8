"""Self-test of the benchmark's checks: broken outputs must count as failures, not crash.

Run from the repository root:

    python3 perfbench/selftest.py

It perturbs recorded-good CSV text in the ways the checks guard against,
runs a cold CLI command that exits non-zero through the same code path as a
measured run, and makes the tracer's self-time arithmetic meet a hand-made
span tree.  Exits 1 and names the case on the first surprise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads
from tracing import Tracer, summarize


def good_csv(command, reference) -> str:
    """CSV text that passes: the reference rows in CLI format."""
    lines = [reference["header"]]
    for row in reference["commands"][command.ref]:
        kind, hops, n, m, eps = row["key"]
        freq = "0.0" if command.check_empirical else ""
        lines.append(f"x,{kind},{hops},{n},{m},{eps!r},0.5,{row['bound_value']!r},s,true,{freq},")
    return "\n".join(lines) + "\n"


def expect(case: str, condition: bool) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {case}")
    print(f"ok  {case}")


def main() -> int:
    reference = checks.load_reference()
    sweep, = [c for c in workloads.WORKLOADS["cli-sweep"].commands(1) if c.ref == "sweep-hops"]
    finite, = workloads.WORKLOADS["finite-horizon"].commands(1)
    validate, = workloads.WORKLOADS["desk-validate"].commands(1)

    text = good_csv(sweep, reference)
    expect("reference rows pass", checks.check_output(sweep, 0, text, reference) == [])
    expect("wrong exit code fails", checks.check_output(sweep, 2, text, reference) != [])
    expect("traceback text instead of an exit code fails",
           checks.check_output(sweep, "ValueError: boom", text, reference) != [])
    expect("changed header fails",
           checks.check_output(sweep, 0, text.replace("bound_value", "value", 1), reference) != [])
    lines = text.splitlines(keepends=True)
    expect("missing row fails", checks.check_output(sweep, 0, "".join(lines[:-1]), reference) != [])
    expect("empty output fails", checks.check_output(sweep, 0, "", reference) != [])
    value = repr(reference["commands"]["sweep-hops"][0]["bound_value"])
    perturbed = text.replace(value, repr(float(value) * (1 + 1e-7)), 1)
    expect("bound_value off by 1e-7 relative fails",
           checks.check_output(sweep, 0, perturbed, reference) != [])
    expect("garbage bound_value fails",
           checks.check_output(sweep, 0, text.replace(value, "nan", 1), reference) != [])

    finite_text = good_csv(finite, reference)
    expect("finite-horizon delay within one slot passes",
           checks.check_output(finite, 0, finite_text.replace(",0.038,", ",0.0389,"), reference) == [])
    expect("finite-horizon delay off by two slots fails",
           checks.check_output(finite, 0, finite_text.replace(",0.038,", ",0.040,"), reference) != [])

    validate_text = good_csv(validate, reference)
    expect("validate rows pass", checks.check_output(validate, 0, validate_text, reference) == [])
    expect("empirical_frequency above epsilon fails",
           checks.check_output(validate, 0, validate_text.replace(",0.0,", ",0.02,", 1), reference) != [])
    expect("empty empirical_frequency fails",
           checks.check_output(validate, 0, validate_text.replace(",0.0,", ",,", 1), reference) != [])

    broken = workloads.Command("sweep-hops", ("sweep-hops", "--scenario", "no-such-scenario"))
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as work:
        wall, rss, outputs, problems = run.cold_pass(run.Bench(Path(work)), [broken], reference)
    expect("a cold command exiting 1 is one failed operation",
           len(problems) == 1 and problems[0] and "exit code 1" in problems[0][0] and wall > 0)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect("BENCHMARK.json lists the workloads and metrics run.py reports",
           {w["name"]: w["why"] for w in spec["workloads"]}
           == {w.name: w.why for w in workloads.WORKLOADS.values()}
           and {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
           and {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER)

    tracer = Tracer("selftest")
    leaf = tracer.wrap("envelopes.traffic_effective_bandwidth", lambda: None)
    root = tracer.wrap("bounds.closed_form_delay", lambda: [leaf() for _ in range(3)])
    tracer.wrap("cli.main", root)()
    per_pass = tracer.pass_metrics()
    summary, repeat = summarize(per_pass)
    spans = {name: (end - start) for name, start, end, _, _ in tracer.spans}
    expect("tracer counts calls and splits self time",
           summary["envelopes.eb_calls"] == 3 and summary["bounds.closed_form_calls"] == 1
           and abs(summary["cli.self_s"] + spans["bounds.closed_form_delay"]
                   - spans["cli.main"]) < 1e-12 and repeat)
    return 0


if __name__ == "__main__":
    sys.exit(main())
