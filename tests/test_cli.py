import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sncalc.cli as cli
from sncalc.cli import EXIT_OK, EXIT_UNSTABLE, EXIT_USAGE, EXIT_VALIDATION, main
from sncalc.scenario import CSV_HEADER

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

    def test_parallel_jobs_keep_row_order(self, capsys):
        _, serial, _ = run_cli(capsys, "sweep-hops", "--scenario", "voice-fig3")
        _, parallel, _ = run_cli(capsys, "sweep-hops", "--scenario", "voice-fig3", "--jobs", "3")
        assert serial == parallel


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
        assert code == EXIT_OK
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

    def test_self_test_halves_thresholds(self, capsys, tiny):
        _, plain_out, _ = run_cli(capsys, "validate", "--scenario", tiny, "--hops", "1")
        code, self_out, _ = run_cli(capsys, "validate", "--scenario", tiny,
                                    "--hops", "1", "--self-test")
        plain = parse_rows(plain_out)
        corrupted = parse_rows(self_out)
        assert all(r["scenario_id"].endswith("#selftest") for r in corrupted)
        for a, b in zip(plain, corrupted):
            assert float(b["bound_value"]) == pytest.approx(0.5 * float(a["bound_value"]), rel=1e-12)
        assert code in (EXIT_OK, EXIT_VALIDATION)

    def test_failing_verdict_exits_3(self, capsys, tiny, monkeypatch):
        # force a failing report through the real code path
        real = cli.validate_samples

        def corrupt(samples, kind, threshold, epsilon, slack=0.0):
            return real(samples, kind, -1.0, epsilon, slack=slack)

        monkeypatch.setattr(cli, "validate_samples", corrupt)
        code, out, _ = run_cli(capsys, "validate", "--scenario", tiny, "--hops", "1")
        assert code == EXIT_VALIDATION
        assert all(float(r["empirical_frequency"]) == 1.0 for r in parse_rows(out))

    def test_infeasible_epsilon_warns_and_exits_0(self, capsys, tiny):
        code, out, err = run_cli(capsys, "validate", "--scenario", tiny,
                                 "--hops", "1", "--epsilon", "1e-9")
        assert code == EXIT_OK
        assert "sample budget too small" in err
        rows = parse_rows(out)
        assert rows and all(r["empirical_frequency"] != "" for r in rows)


class TestUsageAndResolution:
    def test_unknown_scenario_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--scenario", "missing-thing")
        assert code == EXIT_USAGE and "missing-thing" in err

    def test_bad_flag_value_exits_1(self, capsys, tiny):
        code, _, err = run_cli(capsys, "bound", "--scenario", tiny, "--epsilon", "2.0")
        assert code == EXIT_USAGE and "epsilon" in err

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

    def test_parse_error_exits_1(self, capsys, tmp_path):
        f = tmp_path / "broken.yaml"
        f.write_text("id: x\nunits: {slot_length_s: -5, rate_unit: kbit/s}\n")
        code, _, err = run_cli(capsys, "bound", "--scenario", str(f))
        assert code == EXIT_USAGE and "slot_length_s" in err


class TestImportCost:
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
