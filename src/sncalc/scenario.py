"""Scenario files, unit conversion and result serialization.

Scenario documents are YAML trees with four fixed blocks (``units``,
``traffic``, ``network`` and the optional ``bound`` / ``sim`` blocks) plus a
top-level ``id``.  User-facing quantities are expressed in seconds and in the
declared rate unit, and the blocks keep them so; ``Scenario.mmoo_per_slot``
and ``capacity_bits_per_slot`` convert them to bits and slots when a path or
a simulation is built.
One table, ``_BLOCKS``, gives each key its rule: the parser reads every block
from it, and ``Scenario.with_flags`` checks each override flag by its field's
rule, so both reject a value in the same words.  Unknown and repeated keys
are rejected, and so is a document nested deeper than ``MAX_DEPTH``;
validation reports every violation at once, each tagged with its dotted
field path.  A null field is checked by its rule; only a null ``bound`` or
``sim`` block is absent.

A scenario describes the model and the simulation only: the theta window
of each bound is derived from its path (``bounds.default_theta_window``).
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import yaml

from ._record import Record
from .bounds import NetworkPath, ThetaSearchConfig, _on_off_tandem, default_theta_window
from .envelopes import MmooParams

if TYPE_CHECKING:  # the simulator (and numpy) load only when a simulation is built
    from .simulator import SimScenario

# libyaml's loader where PyYAML was built with it, else the pure-Python one;
# both run the same SafeConstructor and resolver, so they build the same objects
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

__all__ = [
    "ScenarioError",
    "Scenario",
    "UnitsBlock",
    "TrafficBlock",
    "NetworkBlock",
    "BoundBlock",
    "SimBlock",
    "ResultRow",
    "CSV_HEADER",
    "RATE_UNITS",
    "parse_scenario",
    "parse_scenario_file",
    "write_results_csv",
    "rate_to_bits_per_slot",
    "bits_per_slot_to_rate",
    "preset_dir",
    "resolve_scenario_path",
    "builtin_preset_names",
]

RATE_UNITS = {"bit/s": 1.0, "kbit/s": 1e3, "Mbit/s": 1e6}

# flow counts, slot counts and a finite horizon enter float arithmetic
_FLOAT_MAX = sys.float_info.max

# A path holds one hop object per hop and a simulation makes one pass per
# hop: 10**9 hops would take gigabytes, and a count past sys.maxsize does
# not fit a tuple at all.
MAX_HOPS = 10**6

# A YAML composer recurses once per level of nesting (libyaml's in C, where
# too deep a document crashes the process); the presets nest 3 deep.
MAX_DEPTH = 100

CSV_HEADER = (
    "scenario_id", "kind", "H", "N", "M", "epsilon", "theta_star",
    "bound_value", "bound_unit", "stable", "empirical_frequency", "confidence_limit",
)


class ScenarioError(ValueError):
    """Parse or validation failure; ``problems`` lists every violation."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {p}" for p in self.problems))


def rate_to_bits_per_slot(value: float, unit: str, slot_length_s: float) -> float:
    return value * RATE_UNITS[unit] * slot_length_s


def bits_per_slot_to_rate(bits_per_slot: float, unit: str, slot_length_s: float) -> float:
    return bits_per_slot / (RATE_UNITS[unit] * slot_length_s)


class UnitsBlock(Record):
    __slots__ = ("slot_length_s", "rate_unit")


class TrafficBlock(Record):
    """``peak_rate`` is in the units block's ``rate_unit``."""

    __slots__ = ("peak_rate", "mean_on_time_s", "mean_off_time_s", "through_flows", "cross_flows")


class NetworkBlock(Record):
    """``capacity`` is in the units block's ``rate_unit``.  ``flow_totals``
    is an N + M sweep keeping N == M."""

    __slots__ = ("capacity", "hop_counts", "flow_totals")
    _defaults = {"flow_totals": None}


class BoundBlock(Record):
    """``kinds`` is a subset of ("backlog", "delay")."""

    __slots__ = ("kinds", "epsilons", "horizon")
    _defaults = {"horizon": math.inf}


class SimBlock(Record):
    __slots__ = ("measure_slots", "replications", "base_seed", "warmup_slots")
    _defaults = {"warmup_slots": None}


class Scenario(Record):
    __slots__ = ("scenario_id", "units", "traffic", "network", "bound", "sim")
    _defaults = {"bound": None, "sim": None}

    # -- conversions to internal units ------------------------------------

    def mmoo_per_slot(self) -> MmooParams:
        delta = self.units.slot_length_s
        return MmooParams(
            peak_rate=rate_to_bits_per_slot(self.traffic.peak_rate, self.units.rate_unit, delta),
            r_on_off=delta / self.traffic.mean_on_time_s,
            r_off_on=delta / self.traffic.mean_off_time_s,
        )

    def capacity_bits_per_slot(self) -> float:
        return rate_to_bits_per_slot(self.network.capacity, self.units.rate_unit, self.units.slot_length_s)

    def flow_points(self) -> tuple:
        """(N, M) sweep points; defaults to the traffic block's counts."""
        if self.network.flow_totals is not None:
            return tuple((t // 2, t // 2) for t in self.network.flow_totals)
        return ((self.traffic.through_flows, self.traffic.cross_flows),)

    def build_path(self, hops: int, n_through: int, m_cross: int) -> NetworkPath:
        return _on_off_tandem(self.mmoo_per_slot(), self.capacity_bits_per_slot(), hops, n_through, m_cross)

    def build_theta_search(self, path: NetworkPath) -> ThetaSearchConfig:
        """The path's derived theta window; a lower edge that underflows to
        0, or one at or above the upper edge, is a :class:`ScenarioError`."""
        lo, hi = default_theta_window(path)
        if lo == 0.0:
            problem = ("is too large for a theta window: its derived lower edge, 1e-9 / burst, "
                       "underflows to 0; shorten the on time")
        elif lo >= hi:
            problem = (f"is too small for a theta window: its derived window [{lo:g}, {hi:g}] is "
                       "empty, as 1e-9 / burst is not below 700 / (the largest aggregate peak rate); "
                       "lengthen the on time or lower the flow counts")
        else:
            return ThetaSearchConfig(lo, hi)
        raise ScenarioError([f"traffic.mean_on_time_s: a flow's burst (peak_rate times "
                             f"mean_on_time_s) {problem}"])

    def with_flags(self, flags) -> Scenario:
        """This scenario with each override flag given in ``flags``, a mapping
        of flag name to value (None when not given), in place of the field it
        overrides (``_FLAGS``), checked by that field's rule; every bad value
        is reported in one :class:`ScenarioError` that names its flag.
        ``epsilon`` without a bound block makes a delay bound at an infinite
        horizon; ``seed`` without a sim block is checked and unused."""
        ck, sc = _Checker(), self
        for flag, (block, key) in _FLAGS.items():
            field, rule, listed = _BLOCKS[block][1][key]
            value = None if flags.get(flag) is None else ck.value(flags[flag], f"--{flag}", rule)
            current = getattr(sc, block) or (BoundBlock(("delay",), ()) if block == "bound" else None)
            if value is not None and current is not None:
                sc = sc.replace(**{block: current.replace(**{field: (value,) if listed else value})})
        if ck.problems:
            raise ScenarioError(ck.problems)
        return sc

    def build_sim_scenario(self, hops: int, n_through: int, m_cross: int) -> SimScenario:
        """The simulation at one flow point.  A simulated source switches at
        most once per slot, so a mean sojourn shorter than a slot, which the
        bounds take, is a :class:`ScenarioError` here."""
        if self.sim is None:
            raise ScenarioError(["sim: simulate and validate need a sim block"])
        if short := [f"traffic.{key}: shorter than a slot, but a simulated source switches at most "
                     "once per slot" for key in ("mean_on_time_s", "mean_off_time_s")
                     if getattr(self.traffic, key) < self.units.slot_length_s]:
            raise ScenarioError(short)
        from .simulator import SimScenario

        sim = self.sim
        return SimScenario(hops=hops, capacity_per_slot=self.capacity_bits_per_slot(), through_count=n_through,
                           cross_count=m_cross, source=self.mmoo_per_slot(), measure_slots=sim.measure_slots,
                           warmup_slots=sim.warmup_slots, replications=sim.replications, base_seed=sim.base_seed)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# A rule takes one value and returns it in internal form, or raises
# ValueError with the problem.

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(minimum: int, maximum: float = math.inf):
    def rule(v):
        if not _is_int(v) or v < minimum:
            raise ValueError(f"expected an integer >= {minimum}, got {v!r}")
        if v > maximum:
            raise ValueError(f"must be <= {maximum:g}, got {v}")
        return v
    return rule


def _choice(choices: dict, names: str):
    def rule(v):
        if isinstance(v, str) and v in choices:
            return choices[v]
        raise ValueError(f"must be {names}, got {v!r}")
    return rule


def _positive(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError("must be finite")
    if value <= 0:
        raise ValueError(f"must be > 0, got {value!r}")
    return value


def _name(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError("expected a non-empty string")
    return value


def _flow_total(total) -> int:
    if _integer(2, _FLOAT_MAX)(total) % 2:
        raise ValueError(f"must be even to keep N == M, got {total}")
    return total


def _epsilon(e) -> float:
    # compared without float(): an integer beyond the float range is simply > 1
    if isinstance(e, bool) or not isinstance(e, (int, float)) or not 0 < e <= 1:
        raise ValueError(f"must be in (0, 1], got {e!r}")
    return float(e)


def _horizon(h) -> float:
    if h in ("inf", "infinite"):
        return math.inf
    if not _is_int(h) or h < 0:
        raise ValueError(f"must be 'inf' or a non-negative integer, got {h!r}")
    if h > _FLOAT_MAX:
        raise ValueError(f"must be 'inf' or at most {_FLOAT_MAX:g} slots, got {h}")
    return float(h)


def _overflows(units, rate) -> bool:
    return not math.isfinite(rate_to_bits_per_slot(rate, units.rate_unit, units.slot_length_s))


_INTEGERS = (int, "expected a non-empty integer or list of integers")

# Each block of a scenario document: its record class; for each document
# key, in reading and reporting order, the record field it fills, its rule
# (or the name of the block it holds) and its list form (None, or the types
# of a value that stands for a one-item list and the problem of a value that
# is no non-empty list); and its checks across fields, (fields, fails, path,
# problem).  A key is required when its field has no default, and a null
# optional block is absent.
_BLOCKS = {
    "scenario": (Scenario, {
        "id": ("scenario_id", _name, None),
        **{block: (block, block, None) for block in ("units", "traffic", "network", "bound", "sim")},
    }, [
        (("units", "traffic"), lambda u, t: not math.isfinite(u.slot_length_s / t.mean_on_time_s),
         "traffic.mean_on_time_s", "conversion to a per-slot switching rate overflows"),
        (("units", "traffic"), lambda u, t: not math.isfinite(u.slot_length_s / t.mean_off_time_s),
         "traffic.mean_off_time_s", "conversion to a per-slot switching rate overflows"),
        (("units", "traffic"), lambda u, t: _overflows(u, t.peak_rate),
         "traffic.peak_rate", "unit conversion to bits/slot overflows"),
        (("units", "network"), lambda u, n: _overflows(u, n.capacity),
         "network.capacity", "unit conversion to bits/slot overflows"),
    ]),
    "units": (UnitsBlock, {
        "slot_length_s": ("slot_length_s", _positive, None),
        "rate_unit": ("rate_unit", _choice({u: u for u in RATE_UNITS}, f"one of {sorted(RATE_UNITS)}"), None),
    }, []),
    "traffic": (TrafficBlock, {
        **{key: (key, _positive, None) for key in ("peak_rate", "mean_on_time_s", "mean_off_time_s")},
        "through_flows": ("through_flows", _integer(1, _FLOAT_MAX), None),
        "cross_flows": ("cross_flows", _integer(0, _FLOAT_MAX), None),
    }, []),
    "network": (NetworkBlock, {
        "capacity": ("capacity", _positive, None),
        "hops": ("hop_counts", _integer(1, MAX_HOPS), _INTEGERS),
        "flow_totals": ("flow_totals", _flow_total, _INTEGERS),
    }, []),
    "bound": (BoundBlock, {
        "kind": ("kinds", _choice({"backlog": ("backlog",), "delay": ("delay",), "both": ("backlog", "delay")},
                                  "'backlog', 'delay' or 'both'"), None),
        "epsilon": ("epsilons", _epsilon, ((int, float), "expected a number or non-empty list of numbers")),
        "horizon": ("horizon", _horizon, None),
    }, []),
    "sim": (SimBlock, {
        "measure_slots": ("measure_slots", _integer(1, _FLOAT_MAX), None),
        # a replication count must fit an index: it sizes ranges and arrays
        "replications": ("replications", _integer(1, sys.maxsize), None),
        "base_seed": ("base_seed", _integer(0), None),
        "warmup_slots": ("warmup_slots", _integer(0, _FLOAT_MAX), None),
    }, []),
}

# each override flag: the block and document key of the field it replaces
_FLAGS = {"hops": ("network", "hops"), "through": ("traffic", "through_flows"),
          "cross": ("traffic", "cross_flows"), "epsilon": ("bound", "epsilon"), "seed": ("sim", "base_seed")}


class _Checker:
    def __init__(self):
        self.problems = []

    def error(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def value(self, raw, path: str, rule, listed=None):
        """``rule(raw)``, or with a list form the tuple of ``rule(item)`` over
        the items of ``raw``, which must be distinct; None, with each problem
        reported, when that fails."""
        if listed is None:
            try:
                return rule(raw)
            except ValueError as exc:
                self.error(path, str(exc))
                return None
        scalar, expected = listed
        if isinstance(raw, scalar) and not isinstance(raw, bool):
            raw = [raw]
        if not isinstance(raw, list) or not raw:
            self.error(path, expected)
            return None
        items = [self.value(item, f"{path}[{i}]", rule) for i, item in enumerate(raw)]
        if None in items:
            return None
        first = {}  # each item's first index
        for i, item in enumerate(items):
            if (j := first.setdefault(item, i)) != i:
                self.error(f"{path}[{i}]", f"{raw[i]!r} repeats item {j}")
        return tuple(items) if len(first) == len(items) else None

    def block(self, node, path: str):
        """Block ``path`` of ``_BLOCKS`` read from ``node``: its record, or None
        when a required field is missing or bad (a bad optional one is left out)."""
        record, rows, checks = _BLOCKS[path]
        required = {key: row[0] for key, row in rows.items() if row[0] not in record._defaults}
        if isinstance(node, dict):
            self.problems += [f"{path}.{key}: unknown key" for key in node if key not in rows]
            self.problems += [f"{path}.{key}: missing required key" for key in sorted(required) if key not in node]
        else:
            self.error(path, f"expected a mapping, got {type(node).__name__}")
            node = {}
        fields = {}
        for key, (field, rule, listed) in rows.items():
            if key not in node or (node[key] is None and isinstance(rule, str) and key not in required):
                continue  # absent, or a null optional block
            value = (self.block(node[key], rule) if isinstance(rule, str)
                     else self.value(node[key], f"{path}.{key}", rule, listed))
            if value is not None:
                fields[field] = value
        for needed, fails, where, problem in checks:
            if all(f in fields for f in needed) and fails(*(fields[f] for f in needed)):
                self.error(where, problem)
        return record(**fields) if all(f in fields for f in required.values()) else None


def _repeated_keys(root) -> list:
    """A problem for each key that repeats an earlier key of its mapping in
    the composed document ``root``, in document order.  Aliases share nodes,
    so each node is visited once."""
    repeats, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if isinstance(node, yaml.CollectionNode) and id(node) not in seen:
            seen.add(id(node))
            pairs = node.value if isinstance(node, yaml.MappingNode) else [(None, v) for v in node.value]
            first = {}  # each scalar key's first index; the constructor rejects the others
            for i, (key, value) in enumerate(pairs):
                stack += (key, value)
                if isinstance(key, yaml.ScalarNode) and first.setdefault((key.tag, key.value), i) != i:
                    repeats.append((key.start_mark.line + 1, key.start_mark.column + 1, key.value))
    return [f"document: repeated key {key!r} at line {line}, column {column}"
            for line, column, key in sorted(repeats)]


def _depth_problems(text: str) -> list:
    """A problem if ``text`` nests collections deeper than ``MAX_DEPTH``,
    found from its parse events, which neither parser takes by recursion.

    Every collection starts at an indicator of its own: a block sequence at
    its first ``-``, a mapping at its first ``:`` or ``?`` and a flow
    collection at its ``[`` or ``{``.  A text with at most ``MAX_DEPTH`` of
    these characters cannot nest deeper, and is not parsed here.
    """
    if sum(map(text.count, "-:?[{")) <= MAX_DEPTH:
        return []
    depth = 0
    for event in yaml.parse(text, Loader=_YAML_LOADER):
        depth += isinstance(event, yaml.CollectionStartEvent) - isinstance(event, yaml.CollectionEndEvent)
        if depth > MAX_DEPTH:
            return [f"document: nested deeper than {MAX_DEPTH} levels"]
    return []


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:  # checked for depth, composed, checked for repeated keys, then constructed
        problems = _depth_problems(text)
        if not problems:
            loader = _YAML_LOADER(text)  # the pure-Python reader rejects unprintable characters here
            try:
                node = loader.get_single_node()
                problems = _repeated_keys(node)
                doc = None if problems or node is None else loader.construct_document(node)
            finally:
                loader.dispose()
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer of over 4300 digits
        raise ScenarioError([f"document: YAML parse error: {exc}"]) from exc
    if problems:
        raise ScenarioError(problems)
    ck = _Checker()
    scenario = ck.block({} if doc is None else doc, "scenario")
    if ck.problems:
        raise ScenarioError(ck.problems)
    return scenario


def parse_scenario_file(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"document: not UTF-8 text: {exc}"]) from None
    return parse_scenario(text)


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------

class ResultRow(Record):
    """One output row; column order is fixed by ``CSV_HEADER``.

    Delay bounds are reported in seconds and backlog bounds in bits;
    ``theta_star`` is in 1/bits.  The two empirical fields stay empty for
    pure bound computations.
    """

    __slots__ = ("scenario_id", "kind", "hops", "through_flows", "cross_flows", "epsilon",
                 "theta_star", "bound_value", "bound_unit", "stable", "empirical_frequency",
                 "confidence_limit")
    _defaults = {"empirical_frequency": None, "confidence_limit": None}

    def as_csv_fields(self) -> list:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            return repr(v) if isinstance(v, float) else str(v)

        return [fmt(v) for v in self._values(self)]


def write_results_csv(rows) -> str:
    """Render rows as CSV with the fixed header, in the given order."""
    rows = list(rows)
    if not rows:
        raise ValueError("rows must be non-empty")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_csv_fields())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def preset_dir() -> Path:
    return Path(__file__).parent / "presets"


def builtin_preset_names() -> tuple:
    return tuple(sorted(p.stem for p in preset_dir().glob("*.yaml")))


def resolve_scenario_path(name_or_path: str) -> Path:
    """Resolve a CLI scenario argument: a file path, a preset in
    ``$SNC_PRESET_DIR``, or a built-in preset name."""
    p = Path(name_or_path)
    if p.is_file():
        return p
    candidates = []
    env_dir = os.environ.get("SNC_PRESET_DIR")
    if env_dir:
        candidates += [Path(env_dir) / name_or_path, Path(env_dir) / f"{name_or_path}.yaml"]
    candidates += [preset_dir() / name_or_path, preset_dir() / f"{name_or_path}.yaml"]
    for c in candidates:
        if c.is_file():
            return c
    raise FileNotFoundError(
        f"scenario {name_or_path!r} not found (not a file, not in SNC_PRESET_DIR, "
        f"not a built-in preset; built-ins: {', '.join(builtin_preset_names())})"
    )
