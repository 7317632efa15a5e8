import math
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, example, given, settings, strategies as st

import sncalc.scenario as scenario
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
from helpers import LOADERS

FINITE_HORIZON = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "finite-horizon.yaml"

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

    def test_yaml_syntax_error_carries_location(self, monkeypatch):
        # the two loaders word the error differently; both give line and column
        for loader in LOADERS:
            monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
            with pytest.raises(ScenarioError, match=r"(?s)YAML parse error: .*line \d+, column \d+"):
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

    @pytest.mark.parametrize("key", ["mean_on_time_s", "mean_off_time_s"])
    def test_switching_rate_overflow_rejected(self, key):
        # 0.001 s / 1e-320 s is an infinite per-slot rate, which MmooParams rejects
        doc = MINIMAL.replace(f"{key}: 0.", f"{key}: 1.0e-320 #")
        with pytest.raises(ScenarioError, match=f"traffic.{key}: conversion to a per-slot"):
            parse_scenario(doc)


# every field of every block, each optional one set, by its path
FULL = yaml.safe_load(MINIMAL + """
  flow_totals: [4, 6]
bound:
  kind: both
  epsilon: [1.0e-2]
  horizon: 1000
  theta: {min: 1.0e-12, max: 10.0}
sim: {warmup_slots: 10, measure_slots: 100, replications: 2, base_seed: 5}
""")
FIELD_PATHS = [("id",)] + [
    (block, key) for block, fields in FULL.items() if isinstance(fields, dict) for key in fields
    if key != "theta"] + [("bound", "theta", key) for key in FULL["bound"]["theta"]]
ODD_VALUES = st.one_of(
    st.sampled_from([None, 0, -1, 1.5, 10**400, "inf"]), st.booleans(), st.text(max_size=8),
    st.lists(st.one_of(st.integers(-2, 3), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _problems(changes) -> tuple:
    """The problems of FULL with each field path in ``changes`` set to its value."""
    doc = yaml.safe_load(yaml.safe_dump(FULL))
    for path, value in changes.items():
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    try:
        parse_scenario(yaml.safe_dump(doc))
    except ScenarioError as exc:
        return exc.problems
    return ()


@given(st.sampled_from(FIELD_PATHS), ODD_VALUES)
@settings(max_examples=400, deadline=None)
def test_an_odd_field_value_is_reported_at_its_path(path, value):
    # the document is accepted, or rejected by problems at that field only
    where = "scenario.id" if path == ("id",) else ".".join(path)
    problems = _problems({path: value})
    assert all(p.startswith((f"{where}:", f"{where}[")) for p in problems), problems
    assert problems or (value is not None and not isinstance(value, (bool, dict))), (where, value)


@given(st.sampled_from(FIELD_PATHS), ODD_VALUES | st.just(1.0e306),
       st.sampled_from(FIELD_PATHS), ODD_VALUES | st.just(1.0e306))
@example(("traffic", "peak_rate"), 1.0e306, ("network", "capacity"), -1)
@example(("network", "capacity"), 1.0e306, ("traffic", "through_flows"), 0)
@settings(max_examples=300, deadline=None)
def test_broken_fields_in_two_blocks_are_both_reported(path, value, other, other_value):
    # 1.0e306 kbit/s overflows in bits per slot.  A check reads only its own
    # blocks, and the units block, which every conversion reads, stays valid.
    assume(path[:-1] != other[:-1] and "units" not in (path[0], other[0]))
    alone = _problems({path: value}), _problems({other: other_value})
    assume(all(alone))
    assert set(alone[0] + alone[1]) <= set(_problems({path: value, other: other_value}))


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


DEEP = f"document: nested deeper than {scenario.MAX_DEPTH} levels"


def _nested_id(levels):
    """MINIMAL with its id nested so that the document is ``levels`` deep."""
    return MINIMAL.replace("id: demo", "id: " + "[" * (levels - 1) + "]" * (levels - 1))


class TestYamlLoaders:
    def test_libyaml_where_pyyaml_has_it(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert scenario._YAML_LOADER is expected

    @pytest.mark.parametrize("name", [*builtin_preset_names(),
                                      pytest.param(str(FINITE_HORIZON), id="finite-horizon.yaml")])
    def test_both_loaders_build_equal_scenarios(self, name, monkeypatch):
        path = resolve_scenario_path(name)
        parsed = []
        for loader in LOADERS:
            monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
            parsed.append(parse_scenario_file(path))
        assert all(sc == parsed[-1] for sc in parsed)
        assert parsed[-1].scenario_id

    REPEATED = [  # a document, and where its repeated key is
        (MINIMAL + "bound: {kind: delay, epsilon: [0.5]}\nbound: {kind: backlog, epsilon: [0.5]}\n",
         "'bound' at line 14, column 1"),
        (MINIMAL.replace("  cross_flows: 10", "  cross_flows: 10\n  peak_rate: 32.0"),
         "'peak_rate' at line 10, column 3"),
        (MINIMAL.replace("rate_unit: kbit/s}", "rate_unit: kbit/s, 'slot_length_s': 1}"),
         "'slot_length_s' at line 3, column 50"),
    ]

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("doc, where", REPEATED, ids=["block", "field", "quoted"])
    def test_repeated_key_is_an_error(self, doc, where, loader, monkeypatch):
        # the later value would silently replace the earlier one
        monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.problems == (f"document: repeated key {where}",)

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("doc, problem", [
        ("&a [*a]", "scenario: expected a mapping, got list"),  # an alias's node is its anchor's, visited once
        ("id: \x01", "document: YAML parse error: unacceptable character #x0001"),
        # a composer recurses once per level: the pure-Python one runs out of
        # stack at 1000 levels, and libyaml's (in C) crashes the process
        ("[" * 1000, DEEP),
        (_nested_id(scenario.MAX_DEPTH + 1), DEEP),
        (_nested_id(scenario.MAX_DEPTH), "scenario.id: expected a non-empty string"),
    ], ids=["alias-cycle", "unprintable", "1000-unclosed", "one-level-too-deep", "at-the-depth-limit"])
    def test_composed_document_errors(self, doc, problem, loader, monkeypatch):
        monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert len(err.value.problems) == 1 and err.value.problems[0].startswith(problem)

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("doc", [
        "[" * (scenario.MAX_DEPTH + 1) + "]" * (scenario.MAX_DEPTH + 1),
        "- " * (scenario.MAX_DEPTH + 1) + "x\n",
        "".join(" " * i + "a:\n" for i in range(scenario.MAX_DEPTH)) + " " * scenario.MAX_DEPTH + "[x]\n",
    ], ids=["flow", "block-sequence", "mixed"])
    def test_one_level_too_deep_with_the_fewest_indicators(self, doc, loader, monkeypatch):
        # MAX_DEPTH + 1 levels need MAX_DEPTH + 1 collection indicators, so
        # the depth pass runs and rejects the document
        monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
        assert sum(map(doc.count, "-:?[{")) == scenario.MAX_DEPTH + 1
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.problems == (DEEP,)

    @pytest.mark.parametrize("name", [*builtin_preset_names(),
                                      pytest.param(str(FINITE_HORIZON), id="finite-horizon.yaml")])
    def test_shallow_text_skips_the_depth_pass(self, name, monkeypatch):
        # the presets have far fewer than MAX_DEPTH collection indicators
        text = Path(resolve_scenario_path(name)).read_text(encoding="utf-8")
        assert sum(map(text.count, "-:?[{")) <= scenario.MAX_DEPTH
        expected = parse_scenario(text)
        monkeypatch.setattr(scenario.yaml, "parse", None)  # a call would raise TypeError
        assert parse_scenario(text) == expected


_YAML_TREES = st.recursive(
    st.none() | st.integers() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=30,
)


@given(_YAML_TREES, st.sampled_from([None, False, True]))
@settings(max_examples=200, deadline=None)
def test_nesting_depth_never_exceeds_the_collection_indicators(tree, flow_style):
    # the necessary condition _depth_problems skips its parse on
    text = yaml.safe_dump(tree, default_flow_style=flow_style)
    depth = deepest = 0
    for event in yaml.parse(text, Loader=yaml.SafeLoader):
        depth += isinstance(event, yaml.CollectionStartEvent) - isinstance(event, yaml.CollectionEndEvent)
        deepest = max(deepest, depth)
    assert deepest <= sum(map(text.count, "-:?[{"))


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
