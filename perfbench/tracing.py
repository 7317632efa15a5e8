"""Spans around calls into each sncalc module, recorded from outside the program.

A span is ``(name, start, end, parent, pass)``: the parent is the index of
the enclosing span (-1 at the top) and ``pass`` numbers the traced pass of
the workload's commands.  Spans stay in memory and are written once, as
gzipped JSON lines that all carry the run id.  A span's self time is its duration
minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import time
from collections import Counter

# Entry points of the bound engine; the theta searches, objective calls and
# envelope calls beneath one of them are attributed to its family.
CLOSED_FORM = ("bounds.closed_form_delay", "bounds.closed_form_backlog")
GENERAL = ("bounds.delay_bound", "bounds.backlog_bound")

COUNT_METRICS = (
    "scenario.parse_calls", "bounds.closed_form_calls", "bounds.general_calls",
    "bounds.theta_searches", "bounds.objective_evals", "envelopes.eb_calls",
    "simulator.replications", "simulator.hop_passes", "simulator.sample_bytes",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = Counter()   # (pass, name) -> amount, for counts spans cannot give
        self.current_pass = 0
        self._stack = []

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` with a span around each call; ``on_return(args, result)``
        may return ``{counter: amount}`` to add for that call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.current_pass)
            if on_return is not None:
                for counter, amount in on_return(args, result).items():
                    self.counters[self.current_pass, counter] += amount
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route the module-level names the CLI and engine call through spans.

        Each name is replaced in the module that looks it up, so only calls
        across layers are traced, and all are restored on exit.
        """
        from sncalc import bounds, cli, simulator

        def theta_search(objective, config):
            return original_search(self.wrap("bounds.objective", objective), config)

        original_search = bounds.minimize_over_theta
        targets = [
            (cli, "parse_scenario_file", "scenario.parse_scenario_file", None),
            (cli, "closed_form_delay", "bounds.closed_form_delay", None),
            (cli, "closed_form_backlog", "bounds.closed_form_backlog", None),
            (cli, "delay_bound", "bounds.delay_bound", None),
            (cli, "backlog_bound", "bounds.backlog_bound", None),
            (bounds, "traffic_effective_bandwidth", "envelopes.traffic_effective_bandwidth", None),
            (bounds, "service_effective_capacity", "envelopes.service_effective_capacity", None),
            (cli, "simulate_tandem", "simulator.simulate_tandem",
             lambda args, res: {"simulator.sample_bytes":
                                res.delay_samples.nbytes + res.backlog_samples.nbytes}),
            (simulator, "simulate_replication", "simulator.simulate_replication",
             lambda args, res: {"simulator.hop_passes": args[0].hops}),
            (cli, "validate_samples", "simulator.validate_samples", None),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        saved.append((bounds, "minimize_over_theta", original_search))
        try:
            for module, attr, name, hook in targets:
                setattr(module, attr, self.wrap(name, getattr(module, attr), hook))
            bounds.minimize_over_theta = self.wrap("bounds.theta_search", theta_search)
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def write(self, path) -> None:
        """Gzipped JSON lines: a field list, then one array per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["run", "id", "parent", "pass", "name", "start_s", "end_s"]}) + "\n")
            for index, (name, start, end, parent, pass_no) in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, index, parent, pass_no, name, start, end]) + "\n")

    def pass_metrics(self) -> dict:
        """Per-layer metrics of each traced pass: ``{pass: {metric: value}}``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        family = [None] * len(spans)
        for index, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
            if name in CLOSED_FORM:
                family[index] = "closed_form"
            elif name in GENERAL:
                family[index] = "general"
            elif parent >= 0:
                family[index] = family[parent]

        out = {}
        for index, (name, start, end, parent, pass_no) in enumerate(spans):
            m = out.setdefault(pass_no, Counter())
            duration = end - start
            self_time = duration - child_time[index]
            layer = name.split(".", 1)[0]
            if name == "cli.main":
                m["cli.self_s"] += self_time
            elif layer == "scenario":
                m["scenario.parse_calls"] += 1
                m["scenario.parse_s"] += duration
            elif layer == "bounds":
                m[f"bounds.{family[index]}_self_s"] += self_time
                if name in CLOSED_FORM or name in GENERAL:
                    m[f"bounds.{family[index]}_calls"] += 1
                elif name == "bounds.theta_search":
                    m["bounds.theta_searches"] += 1
                else:
                    m["bounds.objective_evals"] += 1
                    m["bounds.objective_total_s"] += duration
            elif layer == "envelopes":
                m["envelopes.eb_calls"] += 1
                m["envelopes.eb_self_s"] += self_time
            elif name == "simulator.simulate_replication":
                m["simulator.replications"] += 1
                m["simulator.replication_s"] += duration
            elif name == "simulator.validate_samples":
                m["simulator.validate_samples_s"] += duration
        for (pass_no, counter), amount in self.counters.items():
            out.setdefault(pass_no, Counter())[counter] += amount
        for m in out.values():
            evals = m["bounds.objective_evals"]
            m["bounds.objective_eval_us"] = 1e6 * m.pop("bounds.objective_total_s", 0.0) / evals if evals else 0.0
        return out


def summarize(per_pass: dict) -> tuple:
    """Counts of one pass and median times over passes, plus whether every
    pass gave the same counts."""
    passes = [per_pass[k] for k in sorted(per_pass)]
    names = sorted(set().union(*passes)) if passes else []
    summary, counts_repeat = {}, True
    for name in names:
        values = [p[name] for p in passes]
        if name in COUNT_METRICS:
            counts_repeat &= len(set(values)) == 1
            summary[name] = values[0]
        else:
            summary[name] = statistics.median(values)
    return summary, counts_repeat
