"""Scenario files, unit conversion and result serialization.

Scenario documents are YAML trees with four fixed blocks (``units``,
``traffic``, ``network`` and the optional ``bound`` / ``sim`` blocks) plus a
top-level ``id``.  User-facing quantities are expressed in seconds and in the
declared rate unit; everything is converted to bits and slots on parse.
Unknown keys are rejected and validation reports every violation at once,
each tagged with its dotted field path.

theta values (the ``bound.theta`` overrides) carry units of 1/bits.
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
from .bounds import NetworkPath, ThetaSearchConfig, default_theta_window
from .envelopes import Aggregate, Leftover, MmooParams, MmooTraffic

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
    "ThetaBlock",
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

# The theta search evaluates the bound at every grid point; 10**4 is the
# resolution of the tests' exhaustive reference search.
MAX_GRID_POINTS = 10**4

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
    is an N + M sweep keeping N == M, ``flow_pairs`` an explicit (N, M) sweep."""

    __slots__ = ("capacity", "hop_counts", "flow_totals", "flow_pairs")
    _defaults = {"flow_totals": None, "flow_pairs": None}


class ThetaBlock(Record):
    __slots__ = ("theta_min", "theta_max", "grid_points", "refine_tolerance")
    _defaults = dict.fromkeys(__slots__)


class BoundBlock(Record):
    """``kinds`` is a subset of ("backlog", "delay")."""

    __slots__ = ("kinds", "epsilons", "horizon", "theta")
    _defaults = {"horizon": math.inf, "theta": None}


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
        if self.network.flow_pairs is not None:
            return self.network.flow_pairs
        if self.network.flow_totals is not None:
            return tuple((t // 2, t // 2) for t in self.network.flow_totals)
        return ((self.traffic.through_flows, self.traffic.cross_flows),)

    def build_path(self, hops: int, n_through: int, m_cross: int) -> NetworkPath:
        source = MmooTraffic(self.mmoo_per_slot())
        cap = self.capacity_bits_per_slot()
        return NetworkPath(
            through=Aggregate(n_through, source),
            hops=(Leftover(cap, m_cross, source),) * hops,
        )

    def build_theta_search(self, path: NetworkPath) -> ThetaSearchConfig:
        """The path's derived theta window with ``bound.theta`` overrides
        merged in; an empty or invalid merged window is a
        :class:`ScenarioError`, and so is a derived lower edge that
        underflows to 0 with no ``bound.theta.min`` to replace it."""
        lo, hi = default_theta_window(path)
        window = {"theta_min": lo, "theta_max": hi}
        overrides = self.bound.theta if self.bound else None
        if overrides is not None:
            fields = {"theta_min": overrides.theta_min, "theta_max": overrides.theta_max,
                      "coarse_grid_points": overrides.grid_points,
                      "refine_tolerance": overrides.refine_tolerance}
            window.update((k, v) for k, v in fields.items() if v is not None)
        if window["theta_min"] == 0.0:
            raise ScenarioError(["traffic.mean_on_time_s: a flow's burst (peak_rate times "
                                 "mean_on_time_s) is too large for a theta window: its derived "
                                 "lower edge, 1e-9 / burst, underflows to 0; shorten the on time "
                                 "or set bound.theta.min"])
        try:
            return ThetaSearchConfig(**window)
        except ValueError as exc:
            raise ScenarioError([f"bound.theta: {exc} (derived window "
                                 f"[{lo:g}, {hi:g}])"]) from None

    def with_flags(self, flags) -> Scenario:
        """This scenario with each override flag given in ``flags``, a mapping
        of flag name to value (None when not given), in place of the field it
        overrides, checked by the parser's rule for that field; every bad
        value is reported in one :class:`ScenarioError` that names its flag.
        ``epsilon`` without a bound block makes a delay bound at an infinite
        horizon; ``seed`` without a sim block is checked and unused."""
        fields = {  # flag: block, field, rule for one value, whether the field is a list
            "hops": ("network", "hop_counts", _int_item(1, MAX_HOPS), True),
            "through": ("traffic", "through_flows", _int_item(1, _FLOAT_MAX), False),
            "cross": ("traffic", "cross_flows", _int_item(0, _FLOAT_MAX), False),
            "epsilon": ("bound", "epsilons", _epsilon_problem, True),
            "seed": ("sim", "base_seed", _int_item(0), False),
        }
        given = {flag: flags[flag] for flag in fields if flags.get(flag) is not None}
        problems = [f"--{flag}: {problem}" for flag, value in given.items()
                    if (problem := fields[flag][2](value)) is not None]
        if problems:
            raise ScenarioError(problems)
        sc = self
        for flag, value in given.items():
            block, field, _, listed = fields[flag]
            current = getattr(sc, block) or (BoundBlock(("delay",), ()) if block == "bound" else None)
            if current is not None:
                sc = sc.replace(**{block: current.replace(**{field: (value,) if listed else value})})
        return sc

    def build_sim_scenario(self, hops: int, n_through: int, m_cross: int) -> SimScenario:
        """The simulation at one flow point."""
        if self.sim is None:
            raise ScenarioError(["sim: simulate and validate need a sim block"])
        from .simulator import SimScenario

        return SimScenario(
            hops=hops,
            capacity_per_slot=self.capacity_bits_per_slot(),
            through_count=n_through,
            cross_count=m_cross,
            source=self.mmoo_per_slot(),
            measure_slots=self.sim.measure_slots,
            warmup_slots=self.sim.warmup_slots,
            replications=self.sim.replications,
            base_seed=self.sim.base_seed,
        )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_item(minimum: int, maximum: float = math.inf):
    """Item check of an integer list for :meth:`_Checker.items`."""
    def problem(v):
        if not _is_int(v) or v < minimum:
            return f"expected an integer >= {minimum}, got {v!r}"
        return f"must be <= {maximum:g}, got {v}" if v > maximum else None
    return problem


def _epsilon_problem(e):
    # compared without float(): an integer beyond the float range is simply > 1
    ok = isinstance(e, (int, float)) and not isinstance(e, bool) and 0 < e <= 1
    return None if ok else f"must be in (0, 1], got {e!r}"


def _pair_problem(pair):
    if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))
            and pair[0] >= 1 and pair[1] >= 0):
        return f"expected [N >= 1, M >= 0], got {pair!r}"
    return f"N and M must be <= {_FLOAT_MAX:g}, got {pair!r}" if max(pair) > _FLOAT_MAX else None


class _Checker:
    def __init__(self):
        self.problems = []

    def error(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def mapping(self, node, path: str, allowed: set, required: set) -> dict:
        if not isinstance(node, dict):
            self.error(path, f"expected a mapping, got {type(node).__name__}")
            return {}
        for key in node:
            if key not in allowed:
                self.error(f"{path}.{key}", "unknown key")
        for key in sorted(required):
            if key not in node:
                self.error(f"{path}.{key}", "missing required key")
        return node

    def number(self, node: dict, path: str, key: str):
        if key not in node:
            return None
        value = node[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(f"{path}.{key}", f"expected a number, got {value!r}")
            return None
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            self.error(f"{path}.{key}", "must be finite")
            return None
        if value <= 0:
            self.error(f"{path}.{key}", f"must be > 0, got {value!r}")
            return None
        return value

    def integer(self, node: dict, path: str, key: str, *, minimum=None, maximum=None):
        if key not in node:
            return None
        value = node[key]
        if not _is_int(value):
            self.error(f"{path}.{key}", f"expected an integer, got {value!r}")
            return None
        if minimum is not None and value < minimum:
            self.error(f"{path}.{key}", f"must be >= {minimum}, got {value}")
            return None
        if maximum is not None and value > maximum:
            self.error(f"{path}.{key}", f"must be <= {maximum:g}, got {value}")
            return None
        return value

    def items(self, node: dict, path: str, key: str, problem, expected: str, scalar=()):
        """``node[key]`` as a tuple, when it is one item of a ``scalar`` type
        or a non-empty list, ``problem(item)`` is None for every item and no
        item equals an earlier one; else None, with the list reported as not
        ``expected`` or each bad or repeated item by its index."""
        if key not in node:
            return None
        raw = node[key]
        if isinstance(raw, scalar) and not isinstance(raw, bool):
            raw = [raw]
        if not isinstance(raw, list) or not raw:
            self.error(f"{path}.{key}", expected)
            return None
        bad = [(i, message) for i, message in enumerate(map(problem, raw)) if message is not None]
        first = {}  # each item's first index, an [N, M] pair as a tuple
        for i, item in enumerate(() if bad else raw):
            if (j := first.setdefault(tuple(item) if isinstance(item, list) else item, i)) != i:
                bad.append((i, f"{item!r} repeats item {j}"))
        for i, message in bad:
            self.error(f"{path}.{key}[{i}]", message)
        return None if bad else tuple(raw)


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document (strict keys)."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer of over 4300 digits
        raise ScenarioError([f"document: YAML parse error: {exc}"]) from exc
    if doc is None:
        doc = {}
    ck = _Checker()
    top = ck.mapping(doc, "scenario", {"id", "units", "traffic", "network", "bound", "sim"},
                     {"id", "units", "traffic", "network"})

    scenario_id = top.get("id")
    if "id" in top and (not isinstance(scenario_id, str) or not scenario_id):
        ck.error("scenario.id", "expected a non-empty string")
        scenario_id = None

    units = _parse_units(ck, top.get("units")) if "units" in top else None
    traffic = _parse_traffic(ck, top.get("traffic")) if "traffic" in top else None
    network = _parse_network(ck, top.get("network")) if "network" in top else None
    bound = _parse_bound(ck, top["bound"]) if top.get("bound") is not None else None
    sim = _parse_sim(ck, top["sim"]) if top.get("sim") is not None else None

    if units is not None and traffic is not None:
        for label, mean_time in (("traffic.mean_on_time_s", traffic.mean_on_time_s),
                                 ("traffic.mean_off_time_s", traffic.mean_off_time_s)):
            if not math.isfinite(units.slot_length_s / mean_time):
                ck.error(label, "conversion to a per-slot switching rate overflows")
    if units is not None and traffic is not None and network is not None:
        for label, value in (("traffic.peak_rate", traffic.peak_rate),
                             ("network.capacity", network.capacity)):
            if not math.isfinite(rate_to_bits_per_slot(value, units.rate_unit, units.slot_length_s)):
                ck.error(label, "unit conversion to bits/slot overflows")
    if ck.problems:
        raise ScenarioError(ck.problems)
    return Scenario(scenario_id=scenario_id, units=units, traffic=traffic,
                    network=network, bound=bound, sim=sim)


def _parse_units(ck: _Checker, node) -> Optional[UnitsBlock]:
    node = ck.mapping(node, "units", {"slot_length_s", "rate_unit"}, {"slot_length_s", "rate_unit"})
    slot = ck.number(node, "units", "slot_length_s")
    unit = node.get("rate_unit")
    if "rate_unit" in node and unit not in RATE_UNITS:
        ck.error("units.rate_unit", f"must be one of {sorted(RATE_UNITS)}, got {unit!r}")
        unit = None
    if slot is None or unit is None:
        return None
    return UnitsBlock(slot_length_s=slot, rate_unit=unit)


def _parse_traffic(ck: _Checker, node) -> Optional[TrafficBlock]:
    keys = {"peak_rate", "mean_on_time_s", "mean_off_time_s", "through_flows", "cross_flows"}
    node = ck.mapping(node, "traffic", keys, keys)
    peak = ck.number(node, "traffic", "peak_rate")
    on_t = ck.number(node, "traffic", "mean_on_time_s")
    off_t = ck.number(node, "traffic", "mean_off_time_s")
    n = ck.integer(node, "traffic", "through_flows", minimum=1, maximum=_FLOAT_MAX)
    m = ck.integer(node, "traffic", "cross_flows", minimum=0, maximum=_FLOAT_MAX)
    if None in (peak, on_t, off_t, n, m):
        return None
    return TrafficBlock(peak_rate=peak, mean_on_time_s=on_t, mean_off_time_s=off_t,
                        through_flows=n, cross_flows=m)


def _parse_network(ck: _Checker, node) -> Optional[NetworkBlock]:
    node = ck.mapping(node, "network", {"capacity", "hops", "flow_totals", "flow_pairs"},
                      {"capacity", "hops"})
    cap = ck.number(node, "network", "capacity")
    integers = "expected a non-empty integer or list of integers"
    hops = ck.items(node, "network", "hops", _int_item(1, MAX_HOPS), integers, int)
    totals = ck.items(node, "network", "flow_totals", _int_item(2, _FLOAT_MAX), integers, int)
    if totals is not None:
        for i, t in enumerate(totals):
            if t % 2 != 0:
                ck.error(f"network.flow_totals[{i}]", f"must be even to keep N == M, got {t}")
                totals = None
                break
    pairs = ck.items(node, "network", "flow_pairs", _pair_problem,
                     "expected a non-empty list of [N, M] pairs")
    pairs = pairs and tuple(map(tuple, pairs))
    if totals is not None and pairs is not None:
        ck.error("network", "give at most one of flow_totals, flow_pairs")
    if cap is None or hops is None:
        return None
    return NetworkBlock(capacity=cap, hop_counts=hops, flow_totals=totals, flow_pairs=pairs)


def _parse_bound(ck: _Checker, node) -> Optional[BoundBlock]:
    node = ck.mapping(node, "bound", {"kind", "epsilon", "horizon", "theta"}, {"kind", "epsilon"})
    kind = node.get("kind")
    kinds = None
    if "kind" in node:
        if kind == "both":
            kinds = ("backlog", "delay")
        elif kind in ("backlog", "delay"):
            kinds = (kind,)
        else:
            ck.error("bound.kind", f"must be 'backlog', 'delay' or 'both', got {kind!r}")
    epsilons = ck.items(node, "bound", "epsilon", _epsilon_problem,
                        "expected a number or non-empty list of numbers", (int, float))
    epsilons = epsilons and tuple(map(float, epsilons))
    horizon = math.inf
    if "horizon" in node:
        raw_h = node["horizon"]
        if raw_h in ("inf", "infinite"):
            horizon = math.inf
        elif _is_int(raw_h) and 0 <= raw_h <= _FLOAT_MAX:
            horizon = float(raw_h)
        elif _is_int(raw_h) and raw_h > _FLOAT_MAX:
            ck.error("bound.horizon", f"must be 'inf' or at most {_FLOAT_MAX:g} slots, got {raw_h}")
        else:
            ck.error("bound.horizon", f"must be 'inf' or a non-negative integer, got {raw_h!r}")
    theta = None
    if node.get("theta") is not None:
        tnode = ck.mapping(node["theta"], "bound.theta",
                           {"min", "max", "grid_points", "refine_tolerance"}, set())
        theta = ThetaBlock(
            theta_min=ck.number(tnode, "bound.theta", "min"),
            theta_max=ck.number(tnode, "bound.theta", "max"),
            grid_points=ck.integer(tnode, "bound.theta", "grid_points", minimum=8, maximum=MAX_GRID_POINTS),
            refine_tolerance=ck.number(tnode, "bound.theta", "refine_tolerance"),
        )
        if (theta.theta_min is not None and theta.theta_max is not None
                and not theta.theta_min < theta.theta_max):
            ck.error("bound.theta", "min must be < max")
    if kinds is None or epsilons is None:
        return None
    return BoundBlock(kinds=kinds, epsilons=epsilons, horizon=horizon, theta=theta)


def _parse_sim(ck: _Checker, node) -> Optional[SimBlock]:
    node = ck.mapping(node, "sim", {"warmup_slots", "measure_slots", "replications", "base_seed"},
                      {"measure_slots", "replications", "base_seed"})
    measure = ck.integer(node, "sim", "measure_slots", minimum=1, maximum=_FLOAT_MAX)
    # a replication count must fit an index: it sizes ranges and arrays
    reps = ck.integer(node, "sim", "replications", minimum=1, maximum=sys.maxsize)
    seed = ck.integer(node, "sim", "base_seed", minimum=0)
    warmup = ck.integer(node, "sim", "warmup_slots", minimum=0, maximum=_FLOAT_MAX)
    if None in (measure, reps, seed):
        return None
    return SimBlock(measure_slots=measure, replications=reps, base_seed=seed, warmup_slots=warmup)


def parse_scenario_file(path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


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

        return [
            self.scenario_id, self.kind, str(self.hops), str(self.through_flows),
            str(self.cross_flows), fmt(self.epsilon), fmt(self.theta_star),
            fmt(self.bound_value), self.bound_unit, fmt(self.stable),
            fmt(self.empirical_frequency), fmt(self.confidence_limit),
        ]


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
