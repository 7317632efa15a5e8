import contextlib
import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import sncalc.cli as cli
from sncalc.cli import EXIT_OK, EXIT_UNSTABLE, EXIT_USAGE, EXIT_VALIDATION, main
from sncalc.scenario import CSV_HEADER, parse_scenario_file, resolve_scenario_path
from sncalc.simulator import simulate_tandem, validate_samples

FINITE_HORIZON = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "finite-horizon.yaml"

TINY_SIM = """
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
  hops: [1, 2]
bound:
  kind: both
  epsilon: [1.0e-2]
sim:
  warmup_slots: 100
  measure_slots: 8000
  replications: 2
  base_seed: 5
"""


VOICE = """
id: voice
units: {slot_length_s: 0.001, rate_unit: kbit/s}
traffic:
  peak_rate: 64.0
  mean_on_time_s: 0.4
  mean_off_time_s: 0.6
  through_flows: 781
  cross_flows: 1953
network:
  capacity: 100000.0
  hops: [1]
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_rows(text):
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


@pytest.fixture
def tiny(tmp_path):
    f = tmp_path / "tiny.yaml"
    f.write_text(TINY_SIM)
    return str(f)


class TestBoundCommand:
    def test_voice_single_hop_row(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--scenario", "voice-fig3", "--hops", "1")
        assert code == EXIT_OK
        rows = parse_rows(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["kind"] == "delay" and row["stable"] == "true"
        assert float(row["theta_star"]) > 0
        assert 0 < float(row["bound_value"]) < 1.0  # finite delay in seconds
        assert row["bound_unit"] == "s"

    def test_header_is_fixed(self, capsys):
        _, out, _ = run_cli(capsys, "bound", "--scenario", "voice-fig3", "--hops", "1")
        assert out.split("\n")[0] == ",".join(CSV_HEADER)

    def test_overload_override_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--scenario", "voice-fig3",
                               "--hops", "1", "--through", "4000")
        assert code == EXIT_UNSTABLE
        assert "alpha" in err and "C >" in err

    def test_epsilon_one_gives_zero_delay(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--scenario", "voice-fig3",
                               "--hops", "1", "--epsilon", "1.0")
        assert code == EXIT_OK
        assert float(parse_rows(out)[0]["bound_value"]) == 0.0

    def test_output_file(self, capsys, tmp_path, tiny):
        out_file = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "bound", "--scenario", tiny, "--out", str(out_file))
        assert code == EXIT_OK and out == ""
        assert out_file.read_text().startswith(",".join(CSV_HEADER))

    def test_deterministic_output(self, capsys, tiny):
        _, out1, _ = run_cli(capsys, "bound", "--scenario", tiny)
        _, out2, _ = run_cli(capsys, "bound", "--scenario", tiny)
        assert out1 == out2

    @pytest.mark.parametrize("command, scenario, jobs", [
        (("sweep-hops",), "voice-fig3", "3"),
        (("simulate",), None, "2"),
        (("validate",), None, "2"),
        (("validate", "--self-test"), None, "2"),
    ], ids=["sweep-hops", "simulate", "validate", "validate-self-test"])
    def test_parallel_jobs_keep_row_order(self, capsys, tiny, command, scenario, jobs):
        scenario = scenario or tiny
        serial_code, serial, _ = run_cli(capsys, *command, "--scenario", scenario)
        code, parallel, _ = run_cli(capsys, *command, "--scenario", scenario, "--jobs", jobs)
        assert serial == parallel and serial_code == code


class TestSweepHops:
    def test_linear_scaling_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-hops", "--scenario", "voice-fig3")
        assert code == EXIT_OK
        rows = parse_rows(out)
        assert [int(r["H"]) for r in rows] == list(range(1, 22))
        base = float(rows[0]["bound_value"])
        thetas = {r["theta_star"] for r in rows}
        assert len(thetas) == 1
        for r in rows:
            assert float(r["bound_value"]) == pytest.approx(int(r["H"]) * base, rel=1e-9)

    def test_hops_flag_selects_one_hop_count(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-hops", "--scenario", "voice-fig3", "--hops", "3")
        assert code == EXIT_OK
        assert [r["H"] for r in parse_rows(out)] == ["3"]

    def test_single_hop_list_matches_bound(self, capsys, tiny):
        _, out_sweep, _ = run_cli(capsys, "sweep-hops", "--scenario", tiny, "--epsilon", "1e-2")
        _, out_bound, _ = run_cli(capsys, "bound", "--scenario", tiny, "--epsilon", "1e-2")
        assert parse_rows(out_sweep) == parse_rows(out_bound)

    @pytest.mark.parametrize("argv, searches, row_count", [
        (("sweep-hops", "--scenario", "voice-fig3"), 1, 21),
        # one backlog search shared by the 4 hop counts; a finite-horizon
        # delay search stays per hop count
        (("bound", "--scenario", str(FINITE_HORIZON)), 5, 8),
    ])
    def test_one_theta_search_per_path_shape(self, capsys, monkeypatch, argv, searches, row_count):
        import sncalc.bounds as bounds
        calls = []
        real = bounds.minimize_over_theta
        monkeypatch.setattr(bounds, "minimize_over_theta",
                            lambda objective, config: calls.append(config) or real(objective, config))
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert len(parse_rows(out)) == row_count
        assert len(calls) == searches

    def test_rows_match_independent_per_hop_runs(self, capsys):
        _, sweep, _ = run_cli(capsys, "sweep-hops", "--scenario", "voice-fig3")
        rows = []
        for h in range(1, 22):
            _, out, _ = run_cli(capsys, "bound", "--scenario", "voice-fig3", "--hops", str(h))
            rows += out.splitlines()[1:]
        assert sweep.splitlines()[1:] == rows


class TestSweepFlows:
    def test_monotone_and_stable(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-flows", "--scenario", "voice-fig4-H1")
        assert code == EXIT_OK
        rows = parse_rows(out)
        assert len(rows) == 20
        values = [float(r["bound_value"]) for r in rows]
        assert all(r["stable"] == "true" for r in rows)
        assert all(b >= a * (1 - 1e-9) for a, b in zip(values, values[1:]))

    def test_h10_sweep_reproduces_pinned_point(self, capsys):
        # the N = M = 781 point at ten hops matches the frozen grid-oracle
        # value (0.593514... slots, reported in seconds at 1 ms slots)
        code, out, _ = run_cli(capsys, "sweep-flows", "--scenario", "voice-fig4-H10")
        assert code == EXIT_OK
        row = [r for r in parse_rows(out) if r["N"] == "781"][0]
        assert row["M"] == "781" and row["stable"] == "true"
        assert float(row["bound_value"]) == pytest.approx(0.593514105639281e-3, rel=5e-3)

    def test_unstable_point_is_flagged_not_fatal(self, capsys, tmp_path):
        doc = TINY_SIM.replace("hops: [1, 2]", "hops: [1]\n  flow_totals: [4, 40]")
        f = tmp_path / "sweep.yaml"
        f.write_text(doc)
        code, out, _ = run_cli(capsys, "sweep-flows", "--scenario", str(f))
        assert code == EXIT_UNSTABLE
        rows = parse_rows(out)
        flags = {(r["N"], r["stable"]) for r in rows}
        assert ("2", "true") in flags
        assert ("20", "false") in flags
        unstable = [r for r in rows if r["stable"] == "false"]
        assert all(r["bound_value"] == "inf" and r["theta_star"] == "" for r in unstable)

    def test_missing_sweep_is_usage_error(self, capsys, tiny):
        code, _, err = run_cli(capsys, "sweep-flows", "--scenario", tiny)
        assert code == EXIT_USAGE
        assert "flow_totals" in err

    def test_flow_count_flags_are_usage_errors(self, capsys):
        for flag in ("--through", "--cross"):
            code, out, err = run_cli(capsys, "sweep-flows", "--scenario", "voice-fig4-H1", flag, "5")
            assert code == EXIT_USAGE and out == ""
            assert "network.flow_totals" in err and "flow_pairs" in err


class TestFailedRows:
    def test_horizon_failure_flags_only_its_row(self, capsys, tmp_path):
        # at a 300-slot horizon the H=10 delay (about 377 slots) has no bound
        f = tmp_path / "short.yaml"
        f.write_text(VOICE.replace("hops: [1]", "hops: [1, 2, 5, 10]")
                     + "bound: {kind: both, epsilon: 1.0e-9, horizon: 300}\n")
        code, out, err = run_cli(capsys, "bound", "--scenario", str(f))
        assert code == EXIT_UNSTABLE
        rows = parse_rows(out)
        assert len(rows) == 8
        flagged = [(r["H"], r["kind"]) for r in rows if r["stable"] == "false"]
        assert flagged == [("10", "delay")]
        row = rows[-1]
        assert row["bound_value"] == "inf" and row["theta_star"] == ""
        assert "H=10" in err and "horizon" in err
        assert all(math.isfinite(float(r["bound_value"])) for r in rows[:-1])

    def test_overload_row_is_written(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--scenario", "voice-fig3",
                               "--hops", "1", "--through", "4000")
        assert code == EXIT_UNSTABLE
        [row] = parse_rows(out)
        assert (row["stable"], row["bound_value"], row["theta_star"]) == ("false", "inf", "")

    def test_empty_theta_window_exits_1(self, capsys, tmp_path):
        f = tmp_path / "theta.yaml"
        f.write_text(VOICE + "bound: {kind: delay, epsilon: 1.0e-9, theta: {min: 1.0}}\n")
        code, out, err = run_cli(capsys, "bound", "--scenario", str(f))
        assert code == EXIT_USAGE and out == ""
        assert "bound.theta" in err and "theta_min" in err


class TestSimulate:
    def test_replication_rows(self, capsys, tiny):
        code, out, _ = run_cli(capsys, "simulate", "--scenario", tiny)
        assert code == EXIT_OK
        rows = parse_rows(out)
        # 2 hops x 2 replications
        assert len(rows) == 4
        assert {r["replication"] for r in rows} == {"0", "1"}
        for r in rows:
            assert int(r["measured_slots"]) == 8000
            assert float(r["delay_max"]) >= float(r["delay_mean"]) >= 0

    def test_seed_override_changes_results(self, capsys, tiny):
        _, out1, _ = run_cli(capsys, "simulate", "--scenario", tiny)
        _, out2, _ = run_cli(capsys, "simulate", "--scenario", tiny, "--seed", "99")
        assert out1 != out2

    def test_overload_exits_2(self, capsys, tmp_path):
        f = tmp_path / "overload.yaml"
        f.write_text(TINY_SIM.replace("capacity: 30000.0", "capacity: 15000.0"))
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(f))
        assert code == EXIT_UNSTABLE and out == ""
        assert "exceeds 1" in err

    def test_sojourns_beyond_int64(self, capsys, tmp_path):
        # mean on time 1e23 slots: the geometric sojourn draws saturate
        f = tmp_path / "long.yaml"
        f.write_text(TINY_SIM.replace("mean_on_time_s: 0.02", "mean_on_time_s: 1.0e+20")
                     .replace("capacity: 30000.0", "capacity: 50000.0")
                     .replace("warmup_slots: 100", "warmup_slots: 0"))
        code, out, _ = run_cli(capsys, "simulate", "--scenario", str(f))
        assert code == EXIT_OK
        assert len(parse_rows(out)) == 4

    @pytest.mark.parametrize("command, mean_on_time", [
        ("simulate", "1.0e+20"), ("simulate", "1.0e+8"), ("simulate", "1.0e+306"),
        ("validate", "1.0e+20"), ("validate", "1.0e+8"),
    ])
    def test_warmup_beyond_memory_exits_1(self, tmp_path, command, mean_on_time):
        # the default warmup is 10x the mean on time, 1e24 or 1e12 slots (or
        # beyond the float range): far more curve memory than any host has,
        # refused before allocation
        f = tmp_path / "long.yaml"
        f.write_text(TINY_SIM.replace("mean_on_time_s: 0.02", f"mean_on_time_s: {mean_on_time}")
                     .replace("capacity: 30000.0", "capacity: 50000.0")
                     .replace("  warmup_slots: 100\n", ""))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-m", "sncalc.cli", command, "--scenario", str(f)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == EXIT_USAGE and out.stdout == ""
        assert "Traceback" not in out.stderr
        assert "error: " in out.stderr and "sim.warmup_slots/sim.measure_slots" in out.stderr

    def test_requires_sim_block(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "voice-fig3")
        assert code == EXIT_USAGE
        assert "sim block" in err


class TestValidate:
    def test_tiny_scenario_passes(self, capsys, tiny):
        code, out, _ = run_cli(capsys, "validate", "--scenario", tiny)
        assert code == EXIT_OK
        rows = parse_rows(out)
        # 2 hops x 2 kinds x 1 epsilon
        assert len(rows) == 4
        for r in rows:
            assert r["empirical_frequency"] != ""
            assert float(r["confidence_limit"]) <= 1e-2

    def test_self_test_fails(self, capsys, tiny):
        # epsilon * n = 1e-2 * 16000 = 160 resolves epsilon, and the self-test
        # threshold is exceeded by at least 10 * epsilon of the samples
        code, out, _ = run_cli(capsys, "validate", "--scenario", tiny, "--hops", "1", "--self-test")
        assert code == EXIT_VALIDATION
        rows = parse_rows(out)
        assert len(rows) == 2 and all(r["scenario_id"].endswith("#selftest") for r in rows)
        for r in rows:
            assert float(r["empirical_frequency"]) >= 10 * float(r["epsilon"])
            assert float(r["confidence_limit"]) > float(r["epsilon"])

    def test_failing_verdict_exits_3(self, capsys, tiny, monkeypatch):
        # force a failing report through the real code path: every sample
        # counts as an exceedance
        real = cli.validate_exceedances

        def corrupt(exceed_count, sample_count, *args, **kwargs):
            return real(sample_count, sample_count, *args, **kwargs)

        monkeypatch.setattr(cli, "validate_exceedances", corrupt)
        code, out, _ = run_cli(capsys, "validate", "--scenario", tiny, "--hops", "1")
        assert code == EXIT_VALIDATION
        assert all(float(r["empirical_frequency"]) == 1.0 for r in parse_rows(out))

    @pytest.mark.parametrize("mode", ["bounds", "shrunk-bounds", "self-test"])
    def test_rows_match_pooled_reference(self, capsys, tiny, monkeypatch, mode):
        # validate streams one replication at a time; the reference pools
        # every sample of each hop count, as simulate_tandem returns them
        self_test = mode == "self-test"
        if mode == "shrunk-bounds":
            # thresholds that each row's samples exceed a different number of times
            def shrunk(*args, real=cli.hop_sweep):
                return [dataclasses.replace(result, value=result.value / 30) for result in real(*args)]
            monkeypatch.setattr(cli, "hop_sweep", shrunk)
        flags = ("--self-test",) if self_test else ()
        code, out, _ = run_cli(capsys, "validate", "--scenario", tiny, *flags)
        _, bound_out, _ = run_cli(capsys, "bound", "--scenario", tiny)
        sc = parse_scenario_file(tiny)
        slot = sc.units.slot_length_s
        rows, verdicts = parse_rows(out), []
        assert len(rows) == 4
        for row, bound_row in zip(rows, parse_rows(bound_out)):
            kind, h, eps = row["kind"], int(row["H"]), float(row["epsilon"])
            assert (kind, h) == (bound_row["kind"], int(bound_row["H"]))
            sim = simulate_tandem(sc.build_sim_scenario(h, 3, 2))
            samples = sim.delay_samples if kind == "delay" else sim.backlog_samples
            scale = slot if kind == "delay" else 1.0
            if self_test:
                n = samples.size
                k = math.ceil(10 * eps * n)
                threshold = math.nextafter(float(np.partition(samples, n - k)[n - k]), -math.inf)
                tail = np.unique(samples, return_counts=True)
                assert cli._self_test_threshold(tail, eps, n) == threshold
            else:
                threshold = float(bound_row["bound_value"]) / scale
            report = validate_samples(samples, kind, threshold, eps)
            assert float(row["bound_value"]) == threshold * scale
            assert float(row["empirical_frequency"]) == report.frequency
            assert float(row["confidence_limit"]) == report.upper_confidence
            verdicts.append(report.verdict)
        frequencies = {row["empirical_frequency"] for row in rows}
        assert frequencies == {"0.0"} if mode == "bounds" else len(frequencies) == 4
        assert ("fail" in verdicts) == (mode != "bounds")
        assert code == (EXIT_OK if mode == "bounds" else EXIT_VALIDATION)

    def test_verbose_prints_per_replication_counts(self, capsys, tiny):
        _, quiet, _ = run_cli(capsys, "validate", "--scenario", tiny, "--self-test")
        _, out, err = run_cli(capsys, "validate", "--scenario", tiny, "--self-test", "-v")
        assert out == quiet
        lines = [line for line in err.splitlines() if "exceedances per replication" in line]
        keys = [line.split(" exceedances")[0] for line in lines]
        assert keys == ["H=1 backlog", "H=1 delay", "H=2 backlog", "H=2 delay"]
        for line, row in zip(lines, parse_rows(out)):
            counts = [int(c) for c in line.split("eps=0.01: ")[1].split()]
            assert len(counts) == 2
            assert sum(counts) / 16000 == float(row["empirical_frequency"])

    def test_infeasible_epsilon_warns_and_exits_0(self, capsys, tiny):
        code, out, err = run_cli(capsys, "validate", "--scenario", tiny,
                                 "--hops", "1", "--epsilon", "1e-9")
        assert code == EXIT_OK
        assert "sample budget too small" in err
        rows = parse_rows(out)
        assert rows and all(r["empirical_frequency"] != "" for r in rows)


class TestThetaBoundaryWarning:
    def test_sweep_flows_warns_once_per_boundary_row(self, capsys):
        code, out, err = run_cli(capsys, "sweep-flows", "--scenario", "voice-fig4-H10")
        assert code == EXIT_OK
        rows = parse_rows(out)
        warnings = [line for line in err.splitlines() if "edge of the theta window" in line]
        assert len(rows) == 20 and len(warnings) == 8
        sc = parse_scenario_file(resolve_scenario_path("voice-fig4-H10"))
        at_max = []
        for r in rows:
            h, n, m = int(r["H"]), int(r["N"]), int(r["M"])
            if float(r["theta_star"]) == sc.build_theta_search(sc.build_path(h, n, m)).theta_max:
                at_max.append(f"H={h} N={n} M={m} {r['kind']} epsilon={float(r['epsilon']):g}: ")
        assert len(at_max) == 8 and all(k.endswith("delay epsilon=1e-09: ") for k in at_max)
        for key, line in zip(at_max, warnings):
            assert line.startswith("warning: " + key) and "upper edge" in line

    @pytest.mark.parametrize("theta, edge", [("{min: 4.5e-5}", "lower"), ("{max: 3.0e-5}", "upper")])
    def test_names_the_edge(self, capsys, tmp_path, theta, edge):
        # the voice optimum sits near theta = 4.2e-5, and the load is stable
        # only below about 5e-5
        f = tmp_path / "edge.yaml"
        f.write_text(VOICE + f"bound: {{kind: delay, epsilon: 1.0e-9, theta: {theta}}}\n")
        code, out, err = run_cli(capsys, "bound", "--scenario", str(f))
        assert code == EXIT_OK and len(parse_rows(out)) == 1
        assert f"at the {edge} edge of the theta window" in err


class TestUsageAndResolution:
    def test_unknown_scenario_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--scenario", "missing-thing")
        assert code == EXIT_USAGE and "missing-thing" in err

    def test_bad_flag_value_exits_1(self, capsys, tiny):
        code, _, err = run_cli(capsys, "bound", "--scenario", tiny, "--epsilon", "2.0")
        assert code == EXIT_USAGE and "epsilon" in err

    @pytest.mark.parametrize("command, flag", [
        ("validate", "--jobs=-3"), ("simulate", "--jobs=0"), ("bound", "--jobs=0"),
        ("simulate", "--seed=-1"), ("validate", "--seed=-1"),
    ])
    def test_nonsense_jobs_or_seed_exits_1(self, capsys, tiny, command, flag):
        code, out, err = run_cli(capsys, command, "--scenario", tiny, flag)
        assert code == EXIT_USAGE and out == ""
        assert flag.split("=")[0] in err

    @pytest.mark.parametrize("command", ["bound", "validate"])
    def test_burst_beyond_theta_window_exits_1(self, tmp_path, command):
        # a 1e309-slot mean on time: the derived theta window's lower edge,
        # 1e-9 / burst, underflows to 0
        f = tmp_path / "burst.yaml"
        f.write_text(TINY_SIM.replace("mean_on_time_s: 0.02", "mean_on_time_s: 1.0e+306"))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-m", "sncalc.cli", command, "--scenario", str(f)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == EXIT_USAGE and out.stdout == ""
        assert "Traceback" not in out.stderr
        assert "error: " in out.stderr and "traffic.mean_on_time_s" in out.stderr

    def test_theta_min_override_rescues_the_window(self, capsys, tmp_path):
        f = tmp_path / "burst.yaml"
        f.write_text(TINY_SIM.replace("mean_on_time_s: 0.02", "mean_on_time_s: 1.0e+306")
                     .replace("capacity: 30000.0", "capacity: 50000.0")
                     .replace("  epsilon: [1.0e-2]\n", "  epsilon: [1.0e-2]\n  theta: {min: 1.0e-12}\n"))
        code, out, _ = run_cli(capsys, "bound", "--scenario", str(f))
        assert code == EXIT_OK
        assert len(parse_rows(out)) == 4

    def test_missing_subcommand_exits_1(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == EXIT_USAGE

    def test_preset_dir_env(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "custom.yaml"
        target.write_text(TINY_SIM)
        monkeypatch.setenv("SNC_PRESET_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, "bound", "--scenario", "custom")
        assert code == EXIT_OK
        assert parse_rows(out)

    def test_unwritable_output_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "bound", "--scenario", "voice-fig3", "--hops", "1",
                               "--out", str(tmp_path))
        assert code == EXIT_USAGE and str(tmp_path) in err

    def test_parse_error_exits_1(self, capsys, tmp_path):
        f = tmp_path / "broken.yaml"
        f.write_text("id: x\nunits: {slot_length_s: -5, rate_unit: kbit/s}\n")
        code, _, err = run_cli(capsys, "bound", "--scenario", str(f))
        assert code == EXIT_USAGE and "slot_length_s" in err


@st.composite
def cli_scenarios(draw):
    """Valid scenario documents across stable and overloaded loads, finite
    horizons, theta overrides and a simulation of at most 300 slots."""
    n, m = draw(st.integers(1, 30)), draw(st.integers(0, 30))
    peak = draw(st.floats(1.0, 100.0))
    on, off = draw(st.floats(0.002, 0.05)), draw(st.floats(0.002, 0.05))
    utilization = draw(st.floats(0.2, 1.5))
    network = {"capacity": (n + m) * peak * on / (on + off) / utilization,
               "hops": draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))}
    if draw(st.booleans()):
        network["flow_totals"] = draw(st.lists(st.integers(1, 30).map(lambda t: 2 * t),
                                               min_size=1, max_size=3))
    bound = {"kind": draw(st.sampled_from(["backlog", "delay", "both"])),
             "epsilon": draw(st.lists(st.floats(-25.0, 0.0).map(math.exp), min_size=1, max_size=2)),
             "horizon": draw(st.one_of(st.just("inf"), st.integers(0, 3000)))}
    theta = draw(st.fixed_dictionaries({}, optional={
        "min": st.floats(-22.0, 2.0).map(math.exp), "max": st.floats(-22.0, 2.0).map(math.exp),
        "grid_points": st.integers(8, 24), "refine_tolerance": st.floats(1e-6, 1.5)}))
    if "min" in theta and "max" in theta and theta["min"] > theta["max"]:
        theta["min"], theta["max"] = theta["max"], theta["min"]
    if theta:
        bound["theta"] = theta
    sim = {"measure_slots": draw(st.integers(1, 300)), "replications": draw(st.integers(1, 2)),
           "base_seed": draw(st.integers(0, 1000))}
    if draw(st.booleans()):
        sim["warmup_slots"] = draw(st.integers(0, 50))
    return {"id": "prop", "units": {"slot_length_s": 0.001, "rate_unit": "kbit/s"},
            "traffic": {"peak_rate": peak, "mean_on_time_s": on, "mean_off_time_s": off,
                        "through_flows": n, "cross_flows": m},
            "network": network, "bound": bound, "sim": sim}


@given(cli_scenarios())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_command_ends_in_an_exit_code(tmp_path_factory, doc):
    f = tmp_path_factory.mktemp("prop") / "scenario.yaml"
    f.write_text(yaml.safe_dump(doc))
    for command in ("bound", "sweep-hops", "sweep-flows", "simulate", "validate"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--scenario", str(f)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_UNSTABLE, EXIT_VALIDATION), (command, err.getvalue())
        if code == EXIT_OK:
            assert out.getvalue().startswith("scenario_id,"), command


@given(st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=40), min_size=1, max_size=6),
       st.floats(1e-3, 0.1))
@settings(max_examples=200, deadline=None)
def test_tail_pool_is_exact_under_ties(replications, epsilon):
    # the self-test pool keeps each replication's upper tail only, and must
    # give the pooled samples' threshold and per-replication exceedances at
    # the pool's rank and at a smaller one
    samples = [np.array(r, dtype=np.int64) for r in replications]
    pooled = np.concatenate(samples)
    n = pooled.size
    pool = cli._TailPool(cli._self_test_rank(epsilon, n))
    for rep, s in enumerate(samples):
        delay_tail, backlog_tail = cli._upper_tails(pool.k, s, s.astype(float))
        assert np.array_equal(delay_tail[0], backlog_tail[0])
        pool.add(rep, *delay_tail)
    for eps in (epsilon, epsilon / 3):
        k = cli._self_test_rank(eps, n)
        threshold = cli._self_test_threshold((pool.values, pool.counts), eps, n)
        assert threshold == math.nextafter(float(np.sort(pooled)[n - k]), -math.inf)
        expected = tuple(int(np.count_nonzero(s > threshold)) for s in samples)
        assert pool.exceedances(threshold, len(samples)) == expected
        assert sum(expected) >= k


class TestImportCost:
    def test_bound_command_loads_no_numpy(self):
        # the bound path is scalar closed forms; numpy loads only with the
        # simulator
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (
            "import sys, sncalc.cli; "
            "code = sncalc.cli.main(['sweep-hops', '--scenario', 'voice-fig3']); "
            "print(code, 'numpy' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.splitlines()[-1] == "0 False"

    def test_lazy_simulator_names(self):
        import sncalc
        import sncalc.simulator

        assert sncalc.simulate_tandem is sncalc.simulator.simulate_tandem
        assert sncalc.validate_samples is sncalc.simulator.validate_samples
        with pytest.raises(AttributeError, match="no_such_name"):
            sncalc.no_such_name

    def test_cli_import_loads_no_scipy(self):
        # scipy.stats dominates the CLI's import time; only the
        # Clopper-Pearson limit needs scipy, and it imports it lazily
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (
            "import sncalc.cli, sys; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"
