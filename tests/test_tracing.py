"""The benchmark's tracer (perfbench/tracing.py) and the layer bench
(scripts/bench_layers.py) against the program they wrap.

Both report per-layer counts only for calls that go through the names they
patch; a call that bypasses them reads 0 without an error.
"""

import importlib.util
from pathlib import Path

import pytest

from sncalc import bounds, cli, simulator

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
BENCH_LAYERS = ROOT / "scripts" / "bench_layers.py"

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


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_each_replication_and_its_hops(tmp_path, capsys):
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text(SIM)
    tracer = _load("perfbench_tracing", TRACING).Tracer("test")
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


def test_layer_bench_counts_every_layer_and_restores_it(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text(SIM)
    bench = _load("bench_layers", BENCH_LAYERS)
    targets = [(owner, name) for pairs in bench.LAYERS.values() for owner, name in pairs]
    originals = [vars(owner)[name] for owner, name in targets]
    tracer = bench.tracing.Tracer("test")
    evals = []

    def run(command):
        code = cli.main([command, "--scenario", str(scenario), "--jobs", "1"])
        assert code == cli.EXIT_OK, capsys.readouterr().err

    with bench.wrapped(tracer):  # looks up every target, so a name that is gone raises here
        with monkeypatch.context() as patch:  # count the objective's calls directly
            traced_search = bounds.minimize_over_theta

            def counting_search(objective, config):
                def counted(theta):
                    evals.append(theta)
                    return objective(theta)
                return traced_search(counted, config)

            patch.setattr(bounds, "minimize_over_theta", counting_search)
            run("bound")
        bound_calls = bench.fold(tracer.spans)[1]
        run("validate")
    assert all(vars(owner)[name] is fn for (owner, name), fn in zip(targets, originals))
    assert bound_calls["objective_evals"] == len(evals) > 0
    calls = bench.fold(tracer.spans)[1]
    for name in ("objective_evals", "sources", "arrivals", "hop_step", "reductions", "replication"):
        assert calls[name] > 0, name
    # one 3-hop replication draws the ingress and each hop's cross arrivals
    assert calls["replication"] == 3
    assert calls["sources"] == 3 * 4
    assert calls["other"] == 2


def test_layer_bench_exits_when_an_output_fails_its_check(tmp_path, monkeypatch):
    bench = _load("bench_layers", BENCH_LAYERS)
    reference = bench.checks.load_reference()
    reference["commands"]["sweep-hops"][0]["bound_value"] *= 2
    monkeypatch.setattr(bench.checks, "load_reference", lambda: reference)
    out = tmp_path / "BENCH_layers.json"
    monkeypatch.setattr("sys.argv", ["bench_layers.py", "--repeats", "1", "--out", str(out)])
    with pytest.raises(SystemExit) as exited:
        bench.main()
    assert exited.value.code not in (None, 0)
    assert "sweep-hops" in str(exited.value.code)
    assert not out.exists()
