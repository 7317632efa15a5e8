import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import sncalc.cli as cli
import sncalc.scenario as scenario
from sncalc.cli import EXIT_OK, EXIT_UNSTABLE, EXIT_USAGE, EXIT_VALIDATION, main
from sncalc.scenario import CSV_HEADER, parse_scenario_file, resolve_scenario_path
from sncalc import MmooParams, simulator
from sncalc.simulator import SampleStats, SimScenario, UpperTails, _UpperTail, simulate_tandem, validate_samples
from helpers import LOADERS

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

    @pytest.mark.parametrize("off_time", ["1.0e-100", "1.0e-200"])
    def test_overload_at_extreme_switching_rate_exits_2(self, capsys, tmp_path, off_time):
        # sources this quick to turn on are on almost always: 2734 x 64
        # bits/slot exceed the 100 kbit/slot capacity.  The envelope used to
        # cancel into a stable row (1e-100) or overflow into a traceback (1e-200)
        f = tmp_path / "voice-fig3.yaml"
        f.write_text(resolve_scenario_path("voice-fig3").read_text()
                     .replace("mean_off_time_s: 0.6", f"mean_off_time_s: {off_time}"))
        code, out, err = run_cli(capsys, "bound", "--scenario", str(f), "--hops", "1")
        assert code == EXIT_UNSTABLE
        assert parse_rows(out)[0]["bound_value"] == "inf"
        assert "no admissible theta" in err

    def test_finite_horizon_delay_admissible_between_grid_points(self, capsys, tmp_path):
        # at a 3000-slot horizon the H = 2 desk delay, 2997.6 slots, holds
        # only on a theta interval between two of the search's grid points;
        # one search per shape, then H v* <= horizon, finds it
        f = tmp_path / "desk-3000.yaml"
        f.write_text(resolve_scenario_path("desk-validation").read_text()
                     .replace("  horizon: inf\n", "  horizon: 3000\n"))
        assert "  horizon: 3000\n" in f.read_text()
        code, out, err = run_cli(capsys, "bound", "--scenario", str(f))
        assert code == EXIT_OK, err
        delay = {r["H"]: float(r["bound_value"]) for r in parse_rows(out) if r["kind"] == "delay"}
        assert delay["2"] == 2 * delay["1"]

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
        # one backlog and one delay search shared by the 4 hop counts: a
        # finite-horizon delay checks H v* <= horizon after its search
        (("bound", "--scenario", str(FINITE_HORIZON)), 2, 8),
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

    def test_largest_hop_count_is_its_multiple_of_the_one_hop_bound(self, capsys):
        # MAX_HOPS, the largest count the parser takes, builds no path of
        # that many hops: its bound is 10^6 v* at the one-hop theta*, bit for bit
        from sncalc import delay_bound
        code, out, _ = run_cli(capsys, "bound", "--scenario", "voice-fig3", "--hops", str(scenario.MAX_HOPS))
        assert code == EXIT_OK
        [row] = parse_rows(out)
        sc = parse_scenario_file(resolve_scenario_path("voice-fig3"))
        one = delay_bound(sc.build_path(1, sc.traffic.through_flows, sc.traffic.cross_flows), 1e-9)
        assert (row["H"], row["stable"]) == (str(10**6), "true")
        assert float(row["bound_value"]) == (10**6 * one.value) * sc.units.slot_length_s
        assert float(row["theta_star"]) == one.theta_star


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
            assert "network.flow_totals, not from --through/--cross" in err


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

    @pytest.mark.parametrize("key", ["mean_on_time_s", "mean_off_time_s"])
    def test_sojourn_shorter_than_a_slot_exits_1(self, capsys, tmp_path, key):
        # a simulated source switches at most once per slot; the bounds take
        # any sojourn (at a load of at most 0.99 here)
        f = tmp_path / "fast.yaml"
        f.write_text(re.sub(rf"{key}: \S+", f"{key}: 0.0005", TINY_SIM)
                     .replace("capacity: 30000.0", "capacity: 39500.0"))
        for command in ("simulate", "validate"):
            code, out, err = run_cli(capsys, command, "--scenario", str(f))
            assert code == EXIT_USAGE and out == ""
            assert err.endswith(f"error: invalid scenario:\n  - traffic.{key}: shorter than a slot, but a "
                                "simulated source switches at most once per slot\n")
        assert run_cli(capsys, "bound", "--scenario", str(f))[0] == EXIT_OK

    @pytest.mark.parametrize("scenario", ["half-slot", "voice-fig3"])
    def test_refused_validate_computes_no_bound(self, capsys, tmp_path, monkeypatch, scenario):
        # validate builds its simulation first: a scenario the simulator
        # refuses (a mean on time of half a slot, whose peak-rate stable
        # rows warn at the upper theta edge, or no sim block) exits 1 with
        # its error alone, before any theta search
        if scenario == "half-slot":
            scenario = tmp_path / "half-slot.yaml"
            scenario.write_text(TINY_SIM.replace("mean_on_time_s: 0.02", "mean_on_time_s: 0.0005")
                                .replace("capacity: 30000.0", "capacity: 50000.0"))
        searched, sweep = [], cli.hop_sweep
        monkeypatch.setattr(cli, "hop_sweep", lambda *a: searched.append(a) or sweep(*a))
        code, out, err = run_cli(capsys, "validate", "--scenario", str(scenario))
        assert code == EXIT_USAGE and out == "" and searched == []
        assert err.startswith("error: invalid scenario:\n") and "warning: " not in err
        assert run_cli(capsys, "bound", "--scenario", str(scenario), "--hops", "1")[0] == EXIT_OK
        assert searched

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

    def test_memory_guard_counts_one_block_per_live_replication(self, capsys, tiny, monkeypatch):
        # a replication is sized by its closed-form arrivals and what its
        # FIFO lags may keep over 100 warmup + 8000 measured + 1 slots at
        # H = 2 (simulator._replication_bytes), and by the peaks of its
        # reductions, one per hop count; --jobs 4 holds both of
        # the 2 replications at once.  validate --self-test first reduces
        # each hop count to upper tails at rank 1600 (10 epsilon of 16000
        # samples) and pools them as well
        sim = parse_scenario_file(tiny).build_sim_scenario(2, 3, 2)
        slots = 100 + 8000 + 1
        base = simulator._replication_bytes(sim, slots)
        block = base + 2 * SampleStats.held_bytes(8000)[0]
        monkeypatch.setattr(simulator, "_physical_memory", lambda: block)
        code, out, _ = run_cli(capsys, "simulate", "--scenario", tiny, "--jobs", "1")
        assert code == EXIT_OK and len(parse_rows(out)) == 4
        code, out, err = run_cli(capsys, "simulate", "--scenario", tiny, "--jobs", "4")
        assert code == EXIT_USAGE and out == ""
        assert "error: " in err and "sim.warmup_slots/sim.measure_slots" in err
        assert "2 replication(s) at once" in err
        code, out, err = run_cli(capsys, "validate", "--scenario", tiny, "--self-test")
        assert code == EXIT_USAGE and "pooled upper tails" in err
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**30)
        code, out, _ = run_cli(capsys, "validate", "--scenario", tiny, "--self-test", "--jobs", "4")
        assert code == EXIT_VALIDATION and len(parse_rows(out)) == 4
        # each replication's tails keep up to 1600 values and counts, and
        # merge them with as many more; per hop count and kind, the pool
        # keeps up to 1600 entries, 16 B each, and 1 KiB of objects, and one
        # pool at a time merges them with one replication's 1600, 40 B each
        # (tracemalloc: test_self_test_pool_peaks_within_its_charge), beside
        # 16 KiB
        tail_peak, result = UpperTails.held_bytes(8000, 1600)
        assert result == 2 * 16 * 1600 and tail_peak > 2 * result
        pools = 16384 + 2 * 2 * (1024 + 16 * 1600) + 40 * (1600 + 1600)
        rows = [(h, kind, 1600) for h in (1, 2) for kind in ("delay", "backlog")]
        for jobs, live, held in ((1, 1, 1), (4, 2, 2)):
            need = live * (base + 2 * tail_peak) + held * 2 * result + pools
            monkeypatch.setattr(simulator, "_physical_memory", lambda: need)
            assert len(simulator.self_test_thresholds(sim, rows, jobs=jobs)) == 4
            monkeypatch.setattr(simulator, "_physical_memory", lambda: need - 1)
            with pytest.raises(MemoryError, match="sim.warmup_slots/sim.measure_slots"):
                simulator.self_test_thresholds(sim, rows, jobs=jobs)

    @pytest.mark.parametrize("command, field, flags, named", [
        ("simulate", ("replications: 2", "replications: " + "9" * 401), ["--jobs", "2"],
         "sim.replications"),
        ("bound", ("hops: [1, 2]", "hops: " + "9" * 401), [], "network.hops"),
        ("validate", None, ["--hops", "9" * 401], "--hops"),
        ("bound", None, ["--hops", "100000000000"], "--hops"),
        ("bound", None, ["--hops", str(scenario.MAX_HOPS + 1)], "--hops"),
    ])
    def test_huge_counts_exit_1(self, capsys, tmp_path, command, field, flags, named):
        # a count past sys.maxsize fits no list or tuple, and 1e11 hops would
        # take 800 GB of hop objects: each is refused as a field or flag
        f = tmp_path / "huge.yaml"
        f.write_text(TINY_SIM if field is None else TINY_SIM.replace(*field))
        code, out, err = run_cli(capsys, command, "--scenario", str(f), *flags)
        assert code == EXIT_USAGE and out == ""
        assert named in err and "must be <=" in err

    @pytest.mark.parametrize("command, field, named", [
        ("bound", ("hops: [1, 2]", "hops: [2, 1, 2]"), "network.hops[2]: 2 repeats item 0"),
        ("sweep-flows", ("hops: [1, 2]", "hops: [1, 2]\n  flow_totals: [4, 4]"),
         "network.flow_totals[1]: 4 repeats item 0"),
        ("bound", ("epsilon: [1.0e-2]", "epsilon: [1.0e-2, 0.5, 0.01]"), "bound.epsilon[2]: 0.01 repeats item 0"),
    ], ids=["hops", "flow_totals", "epsilon"])
    def test_repeated_list_items_exit_1(self, capsys, tmp_path, command, field, named):
        # a repeated hop count, flow point or epsilon would write its rows twice
        f = tmp_path / "repeated.yaml"
        f.write_text(TINY_SIM.replace(*field))
        code, out, err = run_cli(capsys, command, "--scenario", str(f))
        assert code == EXIT_USAGE and out == ""
        assert named in err

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

    def test_self_test_counts_through_the_validation_counter(self, capsys, monkeypatch):
        # the self-test counts its exceedances with the counter every
        # validation counts with, so a counter that counts nothing passes
        # it: the self-test cannot fail where that counter is broken
        monkeypatch.setattr(simulator.Exceedances, "_measured", lambda self, *args: None)
        code, out, _ = run_cli(capsys, "validate", "--scenario", "desk-validation", "--self-test",
                               "--hops", "1", "--seed", "1")
        assert code == EXIT_OK
        rows = parse_rows(out)
        assert len(rows) == 2 and all(float(r["empirical_frequency"]) == 0.0 for r in rows)

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
                return [result.replace(value=result.value / 30) for result in real(*args)]
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

    def test_upper_edge_names_peak_rate_stable_paths(self, capsys):
        # voice-fig4-H10's upper-edge rows are those with (N + M) 64 <= 100 000
        # bits per slot, which never queue
        code, _, err = run_cli(capsys, "sweep-flows", "--scenario", "voice-fig4-H10")
        assert code == EXIT_OK
        warnings = [line for line in err.splitlines() if "edge of the theta window" in line]
        assert len(warnings) == 8
        for line in warnings:
            n, m = (int(re.search(rf" {flag}=(\d+) ", line).group(1)) for flag in "NM")
            assert (n + m) * 64 <= 100_000
            assert line.endswith("; the path is peak-rate stable, so its exact delay and backlog are 0")

    @pytest.mark.parametrize("theta, edge", [("{min: 4.5e-5}", "lower"), ("{max: 3.0e-5}", "upper")])
    def test_names_the_edge(self, capsys, tmp_path, monkeypatch, theta, edge):
        # the voice optimum sits near theta = 4.2e-5, and the load is stable
        # only below about 5e-5; the derived window is narrowed to ``theta``
        narrowed, derived = yaml.safe_load(theta), scenario.default_theta_window
        monkeypatch.setattr(scenario, "default_theta_window", lambda path: (
            narrowed.get("min", derived(path)[0]), narrowed.get("max", derived(path)[1])))
        f = tmp_path / "edge.yaml"
        f.write_text(VOICE + "bound: {kind: delay, epsilon: 1.0e-9}\n")
        code, out, err = run_cli(capsys, "bound", "--scenario", str(f))
        assert code == EXIT_OK and len(parse_rows(out)) == 1
        assert f"at the {edge} edge of the theta window" in err
        assert "peak-rate stable" not in err  # the voice load queues


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

    BIG = "9" * 401  # beyond the float range
    HUGE = [  # command, text replaced in TINY_SIM and its replacement, flags, field
        ("bound", "capacity: 30000.0", f"capacity: {BIG}", (), "network.capacity"),
        ("bound", "peak_rate: 8000.0", f"peak_rate: {BIG}", (), "traffic.peak_rate"),
        ("bound", "epsilon: [1.0e-2]", f"epsilon: [{BIG}]", (), "bound.epsilon[0]"),
        ("bound", "epsilon: [1.0e-2]", f"epsilon: {BIG}", (), "bound.epsilon[0]"),
        ("bound", "epsilon: [1.0e-2]", f"epsilon: [1.0e-2]\n  horizon: {BIG}", (), "bound.horizon"),
        ("bound", "through_flows: 3", f"through_flows: {BIG}", (), "traffic.through_flows"),
        ("bound", "cross_flows: 2", f"cross_flows: {BIG}", (), "traffic.cross_flows"),
        ("sweep-flows", "hops: [1, 2]", f"hops: [1, 2]\n  flow_totals: [{BIG}8]", (),  # even
         "network.flow_totals[0]"),
        ("bound", "slot_length_s: 0.001", f"slot_length_s: {BIG}", (), "units.slot_length_s"),
        ("simulate", "measure_slots: 8000", f"measure_slots: {BIG}", (), "sim.measure_slots"),
        ("simulate", "warmup_slots: 100", f"warmup_slots: {BIG}", (), "sim.warmup_slots"),
        ("bound", "", "", ("--through", BIG), "--through"),
        ("validate", "", "", ("--cross", BIG), "--cross"),
        ("simulate", "", "", ("--through", BIG), "--through"),
        # past 4300 digits the YAML loader cannot build the integer
        ("bound", "capacity: 30000.0", "capacity: " + "9" * 5000, (), "YAML parse error"),
    ]

    @pytest.mark.parametrize("command, old, new, flags, field", HUGE,
                             ids=[f"{case[0]}-{case[4]}-{i}" for i, case in enumerate(HUGE)])
    def test_huge_integer_is_a_field_error(self, capsys, tmp_path, command, old, new, flags, field):
        f = tmp_path / "huge.yaml"
        f.write_text(TINY_SIM.replace(old, new) if old else TINY_SIM)
        code, out, err = run_cli(capsys, command, "--scenario", str(f), *flags)
        assert code == EXIT_USAGE and out == ""
        assert field in err

    def test_empty_derived_window_exits_1(self, capsys):
        # 10**15 through flows: 1e-9 / burst is above 700 / (N peak_rate)
        code, out, err = run_cli(capsys, "bound", "--scenario", "voice-fig3", "--hops", "1",
                                 "--through", str(10**15))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: invalid scenario:\n  - traffic.mean_on_time_s: ") and "empty" in err

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

    BROKEN = [  # bytes of a scenario file, and what its error names
        (TINY_SIM.replace("rate_unit: bit/s", "rate_unit: [bit/s]").encode(),
         "units.rate_unit: must be one of ['Mbit/s', 'bit/s', 'kbit/s'], got ['bit/s']"),
        ((TINY_SIM + "bound: {kind: delay, epsilon: 0.5}\n").encode(),
         "document: repeated key 'bound' at line 21, column 1"),
        (b"id: x\xff\n", "document: not UTF-8 text: "),
    ]

    @pytest.mark.parametrize("command", ["bound", "simulate"])
    @pytest.mark.parametrize("text, named", BROKEN, ids=["rate-unit-list", "repeated-bound", "not-utf8"])
    def test_broken_file_exits_1(self, capsys, tmp_path, command, text, named):
        # each once ended in a traceback, or, for the repeated block, in rows
        # of the later block only
        f = tmp_path / "broken.yaml"
        f.write_bytes(text)
        code, out, err = run_cli(capsys, command, "--scenario", str(f))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: invalid scenario:\n") and f"  - {named}" in err

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("old, new, named", [
        ("epsilon: [1.0e-2]", "epsilon: [1.0e-2]\n  theta: {grid_points: 64}", "bound.theta"),
        ("epsilon: [1.0e-2]", "epsilon: [1.0e-2]\n  theta: {refine_tolerance: 1.0e-6}", "bound.theta"),
        ("epsilon: [1.0e-2]", "epsilon: [1.0e-2]\n  theta: {min: 1.0e-9}", "bound.theta"),
        ("hops: [1, 2]", "hops: [1, 2]\n  flow_pairs: [[1, 2]]", "network.flow_pairs"),
    ], ids=["grid_points", "refine_tolerance", "theta", "flow_pairs"])
    def test_removed_fields_are_unknown_keys(self, capsys, tmp_path, monkeypatch, loader, old, new, named):
        # the theta window is derived from the path, and flow sweeps take flow_totals
        monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
        f = tmp_path / "removed.yaml"
        f.write_text(TINY_SIM.replace(old, new))
        code, out, err = run_cli(capsys, "bound", "--scenario", str(f))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: invalid scenario:\n  - {named}: unknown key\n"

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-yaml"])
    def test_deep_nesting_exits_1(self, tmp_path, libyaml):
        # libyaml's composer recurses in C, where too deep a document kills
        # the process (SIGSEGV), so the command runs in a child process
        f = tmp_path / "deep.yaml"
        f.write_text("[" * 30000 + "\n")
        block = "" if libyaml else "sys.modules['yaml._yaml'] = None; "
        code = f"import sys; {block}from sncalc.cli import main; sys.exit(main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", code, "bound", "--scenario", str(f)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == EXIT_USAGE and out.stdout == ""
        assert out.stderr == f"error: invalid scenario:\n  - document: nested deeper than {scenario.MAX_DEPTH} levels\n"

    def test_parse_error_exits_1(self, capsys, tmp_path):
        f = tmp_path / "broken.yaml"
        f.write_text("id: x\nunits: {slot_length_s: -5, rate_unit: kbit/s}\n")
        code, _, err = run_cli(capsys, "bound", "--scenario", str(f))
        assert code == EXIT_USAGE and "slot_length_s" in err


class TestParserReuse:
    """One parser serves every main() call in a process; no call may see
    another's arguments."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_earlier_call_leaves_no_state(self, capsys, tiny):
        cli._build_parser.cache_clear()
        alone = run_cli(capsys, "bound", "--scenario", tiny)
        cli._build_parser.cache_clear()
        assert len(parse_rows(run_cli(capsys, "bound", "--scenario", tiny, "--hops", "1")[1])) == 2
        assert run_cli(capsys, "bound", "--scenario", tiny) == alone
        assert alone[0] == EXIT_OK and len(parse_rows(alone[1])) == 4

    @pytest.mark.parametrize("bad", [("--jobs", "0"), ("--hops", "x"), ("--no-such-flag",)])
    def test_usage_error_leaves_no_state(self, capsys, tiny, bad):
        cli._build_parser.cache_clear()
        alone = run_cli(capsys, "bound", "--scenario", tiny)
        code, out, _ = run_cli(capsys, "bound", "--scenario", tiny, *bad)
        assert code == EXIT_USAGE and out == ""
        assert run_cli(capsys, "bound", "--scenario", tiny) == alone
        assert alone[0] == EXIT_OK


@st.composite
def cli_scenarios(draw):
    """Valid scenario documents across stable and overloaded loads, finite
    horizons and a simulation of at most 300 slots."""
    n, m = draw(st.integers(1, 30)), draw(st.integers(0, 30))
    peak = draw(st.floats(1.0, 100.0))
    on, off = draw(st.floats(0.002, 0.05)), draw(st.floats(0.002, 0.05))
    utilization = draw(st.floats(0.2, 1.5))
    network = {"capacity": (n + m) * peak * on / (on + off) / utilization,
               "hops": draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))}
    if draw(st.booleans()):
        network["flow_totals"] = draw(st.lists(st.integers(1, 30).map(lambda t: 2 * t),
                                               min_size=1, max_size=3, unique=True))
    bound = {"kind": draw(st.sampled_from(["backlog", "delay", "both"])),
             "epsilon": draw(st.lists(st.floats(-25.0, 0.0).map(math.exp), min_size=1, max_size=2,
                                      unique=True)),
             "horizon": draw(st.one_of(st.just("inf"), st.integers(0, 3000)))}
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


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# YAML reads a float only with a dot and a signed exponent; 17 digits
# give the float back exactly
EPSILONS = st.floats(-30.0, 0.0).map(math.exp).map("{:.17e}".format)

# each override flag: valid values, TINY_SIM's field text, that text with
# the value in place, and the path of a problem with the value
FLAG_FIELDS = {
    "--hops": (st.integers(1, 4), "hops: [1, 2]", "hops: {}", "network.hops[0]"),
    "--through": (st.integers(1, 6), "through_flows: 3", "through_flows: {}", "traffic.through_flows"),
    "--cross": (st.integers(0, 6), "cross_flows: 2", "cross_flows: {}", "traffic.cross_flows"),
    "--epsilon": (EPSILONS, "epsilon: [1.0e-2]", "epsilon: [{}]", "bound.epsilon[0]"),
    "--seed": (st.integers(0, 2**64), "base_seed: 5", "base_seed: {}", "sim.base_seed"),
}

OUT_OF_RANGE = {
    "--hops": st.one_of(st.integers(max_value=0), st.integers(min_value=scenario.MAX_HOPS + 1)),
    "--through": st.one_of(st.integers(max_value=0), st.integers(min_value=2**1024)),
    "--cross": st.one_of(st.integers(max_value=-1), st.integers(min_value=2**1024)),
    "--epsilon": st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True),
                           st.just(math.nan)),
    "--seed": st.integers(max_value=-1),
}


def _flag_values(table, values):
    return st.sampled_from(sorted(table)).flatmap(
        lambda flag: st.tuples(st.just(flag), values(table[flag]).map(str)))


@given(_flag_values(FLAG_FIELDS, lambda entry: entry[0]))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_flag_is_its_field(tmp_path_factory, flag_value):
    flag, value = flag_value
    _, field, edit, _ = FLAG_FIELDS[flag]
    folder = tmp_path_factory.mktemp("flag")
    (folder / "tiny.yaml").write_text(TINY_SIM)
    (folder / "edited.yaml").write_text(TINY_SIM.replace(field, edit.format(value)))
    for command in ("bound", "sweep-hops", "simulate"):
        flagged = _main(command, "--scenario", str(folder / "tiny.yaml"), f"{flag}={value}")
        edited = _main(command, "--scenario", str(folder / "edited.yaml"))
        assert flagged[:2] == edited[:2], (command, flagged[2], edited[2])


@given(EPSILONS)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_epsilon_flag_without_bound_block_is_a_delay_bound(tmp_path_factory, value):
    folder = tmp_path_factory.mktemp("epsilon")
    bare = TINY_SIM.replace("bound:\n  kind: both\n  epsilon: [1.0e-2]\n", "")
    assert "bound" not in bare
    (folder / "bare.yaml").write_text(bare)
    (folder / "edited.yaml").write_text(bare + f"bound: {{kind: delay, epsilon: {value}}}\n")
    for command in ("bound", "sweep-hops"):
        flagged = _main(command, "--scenario", str(folder / "bare.yaml"), "--epsilon", value)
        assert flagged[0] == EXIT_OK
        assert flagged[:2] == _main(command, "--scenario", str(folder / "edited.yaml"))[:2]


@given(_flag_values(OUT_OF_RANGE, lambda values: values), st.sampled_from(["bound", "simulate"]))
@settings(max_examples=100, deadline=None)
def test_an_out_of_range_flag_exits_1_naming_it(flag_value, command):
    flag, value = flag_value
    code, out, err = _main(command, "--scenario", "desk-validation", f"{flag}={value}")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"usage error: {flag}: "), err


@given(st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(lambda flag: st.tuples(st.just(flag), OUT_OF_RANGE[flag])))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_rejected_flag_reads_as_its_field(tmp_path_factory, flag_value):
    # the same rule rejects a value given by flag or in the file, in the same words
    flag, value = flag_value
    _, field, edit, path = FLAG_FIELDS[flag]
    folder = tmp_path_factory.mktemp("rejected")
    (folder / "tiny.yaml").write_text(TINY_SIM)
    (folder / "edited.yaml").write_text(TINY_SIM.replace(field, edit.format(yaml.safe_dump(value).split("\n")[0])))
    flagged = _main("bound", "--scenario", str(folder / "tiny.yaml"), f"{flag}={value}")
    edited = _main("bound", "--scenario", str(folder / "edited.yaml"))
    assert flagged[0] == edited[0] == EXIT_USAGE
    assert flagged[2].startswith(f"usage error: {flag}: "), flagged[2]
    assert edited[2].startswith(f"error: invalid scenario:\n  - {path}: "), edited[2]
    assert flagged[2].split(f"{flag}: ", 1)[1] == edited[2].split(f"{path}: ", 1)[1]


@given(st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=40), min_size=1, max_size=6),
       st.floats(1e-3, 0.1), st.sampled_from([1, 1 << 14]))
@settings(max_examples=200, deadline=None)
def test_tail_pool_is_exact_under_ties(replications, epsilon, chunk):
    # the self-test pools each replication's upper tail only, and must give
    # the pooled samples' threshold at the pool's rank and at a smaller one
    # (its per-replication counts come from Exceedances, checked against
    # the samples by test_curve_counts_equal_sample_counts and
    # test_rows_match_pooled_reference).  The float samples tie within and
    # across replications; the self-test's pools are fed each replication's
    # tails, a second pool its raw samples, and with merges after every
    # part (a chunk of 1) the floors rise part by part
    samples = [np.array(r, dtype=float) for r in replications]
    pooled = np.concatenate(samples)
    n = pooled.size
    k = min(n, math.ceil(10 * epsilon * n))
    raw_pool = _UpperTail(k)

    def reduced(scenario, reduce, jobs, pooled_bytes):  # the replications, as a simulation yields them
        for s in samples:
            tails = reduce[1](0, s.size)
            for part in np.array_split(s, 3):  # a replication comes a chunk at a time
                tails._took(part.astype(np.int64), part)
                raw_pool.add(part)
            delay_tail, backlog_tail = tails.result()
            assert np.array_equal(delay_tail[0], backlog_tail[0])
            assert np.array_equal(delay_tail[1], backlog_tail[1])
            yield {1: (delay_tail, backlog_tail)}

    ranks = (k, max(1, k // 3))
    sim = SimScenario(hops=1, capacity_per_slot=1.0, through_count=1, cross_count=0,
                      source=MmooParams(1.0, 0.5, 0.5), measure_slots=n, replications=len(samples))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_CHUNK", chunk)
        patch.setattr(simulator, "_reduced", reduced)
        found = simulator.self_test_thresholds(sim, [(1, kind, r) for r in ranks for kind in ("delay", "backlog")])
    for i, rank in enumerate(ranks):
        threshold = math.nextafter(float(np.sort(pooled)[n - rank]), -math.inf)
        assert np.count_nonzero(pooled > threshold) >= rank
        assert found[2 * i] == found[2 * i + 1] == threshold
        assert raw_pool.largest(rank) == np.sort(pooled)[n - rank]


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

    def test_cli_import_loads_no_dataclasses(self):
        # the model and result types are slotted records: the dataclasses
        # machinery and the inspect/ast modules it loads cost a cold bound
        # command more than its computation
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sncalc.cli, sys; "
                "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_lazy_simulator_names(self):
        import sncalc
        import sncalc.simulator

        assert sncalc.simulate_tandem is sncalc.simulator.simulate_tandem
        assert sncalc.validate_samples is sncalc.simulator.validate_samples
        with pytest.raises(AttributeError, match="no_such_name"):
            sncalc.no_such_name

    def test_cli_import_loads_no_scipy(self, tiny):
        # scipy is a test dependency only: the Clopper-Pearson limit is
        # computed in numpy, so validate runs with scipy blocked from import
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (
            "import sncalc.cli, sys; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"
        code = (
            "import sys; sys.modules['scipy'] = None; import sncalc.cli; "
            f"codes = [sncalc.cli.main(['validate', '--scenario', {tiny!r}, *flags]) "
            "for flags in ([], ['--self-test'])]; "
            "print(codes, sorted(m for m, v in sys.modules.items() "
            "if m.split('.')[0] == 'scipy' and v is not None))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.splitlines()[-1] == "[0, 3] []"
