import math

import pytest
from hypothesis import given, settings, strategies as st

from sncalc import (
    NetworkPath,
    ResultRow,
    ScenarioError,
    parse_scenario,
    parse_scenario_file,
    write_results_csv,
)
from sncalc.scenario import (
    CSV_HEADER,
    RATE_UNITS,
    bits_per_slot_to_rate,
    builtin_preset_names,
    rate_to_bits_per_slot,
    resolve_scenario_path,
)

MINIMAL = """
id: demo
units: {slot_length_s: 0.001, rate_unit: kbit/s}
traffic:
  peak_rate: 64.0
  mean_on_time_s: 0.4
  mean_off_time_s: 0.6
  through_flows: 10
  cross_flows: 10
network:
  capacity: 732.0
  hops: [1, 2]
"""


class TestParsing:
    def test_minimal_document(self):
        sc = parse_scenario(MINIMAL)
        assert sc.scenario_id == "demo"
        assert sc.capacity_bits_per_slot() == pytest.approx(732.0)
        params = sc.mmoo_per_slot()
        assert params.peak_rate == pytest.approx(64.0)
        assert params.r_on_off == pytest.approx(0.0025)
        assert params.r_off_on == pytest.approx(1.0 / 600.0)

    def test_empty_document_names_all_missing_blocks(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("")
        text = str(err.value)
        for block in ("id", "units", "traffic", "network"):
            assert block in text

    def test_unknown_keys_rejected(self):
        doc = MINIMAL + "\nextra_block: {a: 1}\n"
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(doc)

    def test_epsilon_zero_rejected(self):
        doc = MINIMAL + "\nbound: {kind: delay, epsilon: [0.0]}\n"
        with pytest.raises(ScenarioError, match=r"epsilon\[0\]"):
            parse_scenario(doc)

    def test_all_violations_reported_at_once(self):
        doc = """
id: bad
units: {slot_length_s: -1.0, rate_unit: parsec/s}
traffic:
  peak_rate: 0
  mean_on_time_s: 0.4
  mean_off_time_s: 0.6
  through_flows: 0
  cross_flows: -1
network: {capacity: 0, hops: []}
"""
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert len(err.value.problems) >= 6

    def test_yaml_syntax_error_carries_location(self):
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario("id: [unclosed")

    def test_odd_flow_total_rejected(self):
        doc = MINIMAL + "\nbound: {kind: delay, epsilon: [1.0e-2]}\n"
        doc = doc.replace("hops: [1, 2]", "hops: [1]\n  flow_totals: [5]")
        with pytest.raises(ScenarioError, match="even"):
            parse_scenario(doc)

    def test_horizon_forms(self):
        inf_doc = MINIMAL + "\nbound: {kind: delay, epsilon: [0.5], horizon: inf}\n"
        assert math.isinf(parse_scenario(inf_doc).bound.horizon)
        fin_doc = MINIMAL + "\nbound: {kind: delay, epsilon: [0.5], horizon: 1000}\n"
        assert parse_scenario(fin_doc).bound.horizon == 1000

    def test_unit_conversion_overflow_rejected(self):
        doc = MINIMAL.replace("capacity: 732.0", "capacity: 1.0e+306")
        doc = doc.replace("rate_unit: kbit/s", "rate_unit: Mbit/s")
        with pytest.raises(ScenarioError, match="overflow"):
            parse_scenario(doc)


class TestPresets:
    @pytest.mark.parametrize("name", ["voice-fig3", "voice-fig4-H1", "voice-fig4-H2",
                                      "voice-fig4-H5", "voice-fig4-H10", "desk-validation"])
    def test_presets_parse(self, name):
        sc = parse_scenario_file(resolve_scenario_path(name))
        assert sc.scenario_id == name

    def test_voice_preset_values(self):
        sc = parse_scenario_file(resolve_scenario_path("voice-fig3"))
        assert sc.capacity_bits_per_slot() == pytest.approx(100_000.0)
        assert sc.network.hop_counts == tuple(range(1, 22))
        assert sc.traffic.through_flows == 781
        assert sc.traffic.cross_flows == 1953
        assert sc.bound.epsilons == (1e-9,)
        assert sc.bound.kinds == ("delay",)

    def test_builtin_presets_enumerated(self):
        names = builtin_preset_names()
        assert "voice-fig3" in names and "desk-validation" in names

    def test_build_path_shape(self):
        sc = parse_scenario(MINIMAL)
        path = sc.build_path(2, 10, 10)
        assert isinstance(path, NetworkPath)
        assert path.hop_count == 2
        assert len(set(path.hops)) == 1


class TestUnits:
    @given(
        st.floats(min_value=1e-3, max_value=1e6),
        st.sampled_from(sorted(RATE_UNITS)),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rate_round_trip_within_one_ulp(self, rate, unit, slot):
        bits = rate_to_bits_per_slot(rate, unit, slot)
        back = bits_per_slot_to_rate(bits, unit, slot)
        assert back == pytest.approx(rate, rel=4e-16)


class TestResultCsv:
    def row(self, **overrides):
        base = dict(scenario_id="demo", kind="delay", hops=1, through_flows=10,
                    cross_flows=10, epsilon=1e-2, theta_star=1e-4,
                    bound_value=1.5997504449607713, bound_unit="s", stable=True)
        base.update(overrides)
        return ResultRow(**base)

    def test_single_row_two_lines(self):
        text = write_results_csv([self.row()])
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_HEADER)

    def test_optional_fields_render_empty_cells(self):
        text = write_results_csv([self.row()])
        last = text.strip().split("\n")[1]
        assert last.endswith(",,")
        assert len(last.split(",")) == len(CSV_HEADER)

    def test_floats_round_trip_via_repr(self):
        text = write_results_csv([self.row(bound_value=0.1 + 0.2)])
        cell = text.strip().split("\n")[1].split(",")[7]
        assert float(cell) == 0.1 + 0.2

    def test_empirical_fields_present_when_given(self):
        text = write_results_csv([self.row(empirical_frequency=0.0, confidence_limit=3e-7)])
        cells = text.strip().split("\n")[1].split(",")
        assert cells[-2] == "0.0"
        assert float(cells[-1]) == 3e-7

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            write_results_csv([])


class TestPresetResolution:
    def test_path_passthrough(self, tmp_path):
        f = tmp_path / "x.yaml"
        f.write_text(MINIMAL)
        assert resolve_scenario_path(str(f)) == f

    def test_env_dir_lookup(self, tmp_path, monkeypatch):
        f = tmp_path / "mine.yaml"
        f.write_text(MINIMAL)
        monkeypatch.setenv("SNC_PRESET_DIR", str(tmp_path))
        assert resolve_scenario_path("mine") == f

    def test_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError, match="voice-fig3"):
            resolve_scenario_path("no-such-scenario")
