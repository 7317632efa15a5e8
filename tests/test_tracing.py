"""The benchmark's tracer (perfbench/tracing.py) against the program it traces.

The traced benchmark run reports per-layer counts only for calls that go
through the names the tracer patches; a call that bypasses them reads 0
without an error.
"""

import importlib.util
from pathlib import Path

from sncalc import cli, simulator

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

SIM = """
id: tiny
units: {slot_length_s: 0.001, rate_unit: bit/s}
traffic:
  peak_rate: 8000.0
  mean_on_time_s: 0.02
  mean_off_time_s: 0.025
  through_flows: 3
  cross_flows: 2
network:
  capacity: 30000.0
  hops: [1, 3]
bound:
  kind: both
  epsilon: [1.0e-2]
sim:
  warmup_slots: 100
  measure_slots: 2000
  replications: 3
  base_seed: 5
"""


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_each_replication_and_its_hops(tmp_path, capsys):
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text(SIM)
    tracer = _tracing().Tracer("test")
    originals = (cli.simulate_tandem, cli.validate_samples, simulator.simulate_replication)
    with tracer.patched():  # looks up every target, so a name that is gone raises here
        code = cli.main(["validate", "--scenario", str(scenario), "--jobs", "1"])
    assert code == cli.EXIT_OK, capsys.readouterr().err
    assert (cli.simulate_tandem, cli.validate_samples, simulator.simulate_replication) == originals
    metrics = tracer.pass_metrics()[0]
    # one 3-hop pass per replication serves both hop counts
    assert metrics["simulator.replications"] == 3
    assert metrics["simulator.hop_passes"] == 3 * 3
    assert metrics["scenario.parse_calls"] == 1
