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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import yaml

from .bounds import NetworkPath, ThetaSearchConfig, default_theta_search
from .envelopes import Aggregate, Leftover, MmooParams, MmooTraffic

if TYPE_CHECKING:  # the simulator (and numpy) load only when a simulation is built
    from .simulator import SimScenario

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


@dataclass(frozen=True)
class UnitsBlock:
    slot_length_s: float
    rate_unit: str


@dataclass(frozen=True)
class TrafficBlock:
    peak_rate: float          # in rate_unit
    mean_on_time_s: float
    mean_off_time_s: float
    through_flows: int
    cross_flows: int


@dataclass(frozen=True)
class NetworkBlock:
    capacity: float           # in rate_unit
    hop_counts: tuple
    flow_totals: Optional[tuple] = None     # N + M sweep keeping N == M
    flow_pairs: Optional[tuple] = None      # explicit (N, M) sweep


@dataclass(frozen=True)
class ThetaBlock:
    theta_min: Optional[float] = None
    theta_max: Optional[float] = None
    grid_points: Optional[int] = None
    refine_tolerance: Optional[float] = None


@dataclass(frozen=True)
class BoundBlock:
    kinds: tuple                            # subset of ("backlog", "delay")
    epsilons: tuple
    horizon: float = math.inf
    theta: Optional[ThetaBlock] = None


@dataclass(frozen=True)
class SimBlock:
    measure_slots: int
    replications: int
    base_seed: int
    warmup_slots: Optional[int] = None


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    units: UnitsBlock
    traffic: TrafficBlock
    network: NetworkBlock
    bound: Optional[BoundBlock] = None
    sim: Optional[SimBlock] = None

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
        :class:`ScenarioError`."""
        base = default_theta_search(path)
        overrides = self.bound.theta if self.bound else None
        if overrides is None:
            return base
        fields = {"theta_min": overrides.theta_min, "theta_max": overrides.theta_max,
                  "coarse_grid_points": overrides.grid_points,
                  "refine_tolerance": overrides.refine_tolerance}
        try:
            return replace(base, **{k: v for k, v in fields.items() if v is not None})
        except ValueError as exc:
            raise ScenarioError([f"bound.theta: {exc} (derived window "
                                 f"[{base.theta_min:g}, {base.theta_max:g}])"]) from None

    def build_sim_scenario(self, hops: int, n_through: int, m_cross: int,
                           base_seed: Optional[int] = None) -> SimScenario:
        if self.sim is None:
            raise ScenarioError(["sim: block required for simulation commands"])
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
            base_seed=self.sim.base_seed if base_seed is None else base_seed,
        )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

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

    def number(self, node: dict, path: str, key: str, *, positive=False, nonnegative=False):
        if key not in node:
            return None
        value = node[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(f"{path}.{key}", f"expected a number, got {value!r}")
            return None
        value = float(value)
        if not math.isfinite(value):
            self.error(f"{path}.{key}", "must be finite")
            return None
        if positive and value <= 0:
            self.error(f"{path}.{key}", f"must be > 0, got {value!r}")
            return None
        if nonnegative and value < 0:
            self.error(f"{path}.{key}", f"must be >= 0, got {value!r}")
            return None
        return value

    def integer(self, node: dict, path: str, key: str, *, minimum=None):
        if key not in node:
            return None
        value = node[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.error(f"{path}.{key}", f"expected an integer, got {value!r}")
            return None
        if minimum is not None and value < minimum:
            self.error(f"{path}.{key}", f"must be >= {minimum}, got {value}")
            return None
        return value

    def int_list(self, node: dict, path: str, key: str, *, minimum=1):
        if key not in node:
            return None
        raw = node[key]
        if isinstance(raw, int) and not isinstance(raw, bool):
            raw = [raw]
        if not isinstance(raw, list) or not raw:
            self.error(f"{path}.{key}", "expected a non-empty integer or list of integers")
            return None
        out = []
        for i, v in enumerate(raw):
            if isinstance(v, bool) or not isinstance(v, int) or v < minimum:
                self.error(f"{path}.{key}[{i}]", f"expected an integer >= {minimum}, got {v!r}")
            else:
                out.append(v)
        return tuple(out) if len(out) == len(raw) else None


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document (strict keys)."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
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
    slot = ck.number(node, "units", "slot_length_s", positive=True)
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
    peak = ck.number(node, "traffic", "peak_rate", positive=True)
    on_t = ck.number(node, "traffic", "mean_on_time_s", positive=True)
    off_t = ck.number(node, "traffic", "mean_off_time_s", positive=True)
    n = ck.integer(node, "traffic", "through_flows", minimum=1)
    m = ck.integer(node, "traffic", "cross_flows", minimum=0)
    if None in (peak, on_t, off_t, n, m):
        return None
    return TrafficBlock(peak_rate=peak, mean_on_time_s=on_t, mean_off_time_s=off_t,
                        through_flows=n, cross_flows=m)


def _parse_network(ck: _Checker, node) -> Optional[NetworkBlock]:
    node = ck.mapping(node, "network", {"capacity", "hops", "flow_totals", "flow_pairs"},
                      {"capacity", "hops"})
    cap = ck.number(node, "network", "capacity", positive=True)
    hops = ck.int_list(node, "network", "hops", minimum=1)
    totals = ck.int_list(node, "network", "flow_totals", minimum=2)
    if totals is not None:
        for i, t in enumerate(totals):
            if t % 2 != 0:
                ck.error(f"network.flow_totals[{i}]", f"must be even to keep N == M, got {t}")
                totals = None
                break
    pairs = None
    if "flow_pairs" in node:
        raw = node["flow_pairs"]
        if not isinstance(raw, list) or not raw:
            ck.error("network.flow_pairs", "expected a non-empty list of [N, M] pairs")
        else:
            pairs = []
            for i, pair in enumerate(raw):
                ok = (isinstance(pair, list) and len(pair) == 2
                      and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
                      and pair[0] >= 1 and pair[1] >= 0)
                if not ok:
                    ck.error(f"network.flow_pairs[{i}]", f"expected [N >= 1, M >= 0], got {pair!r}")
                else:
                    pairs.append((pair[0], pair[1]))
            pairs = tuple(pairs) if pairs and len(pairs) == len(raw) else None
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
    raw_eps = node.get("epsilon")
    epsilons = None
    if "epsilon" in node:
        if isinstance(raw_eps, (int, float)) and not isinstance(raw_eps, bool):
            raw_eps = [raw_eps]
        if not isinstance(raw_eps, list) or not raw_eps:
            ck.error("bound.epsilon", "expected a number or non-empty list of numbers")
        else:
            epsilons = []
            for i, e in enumerate(raw_eps):
                if isinstance(e, bool) or not isinstance(e, (int, float)) or not (0 < float(e) <= 1):
                    ck.error(f"bound.epsilon[{i}]", f"must be in (0, 1], got {e!r}")
                else:
                    epsilons.append(float(e))
            epsilons = tuple(epsilons) if len(epsilons) == len(raw_eps) else None
    horizon = math.inf
    if "horizon" in node:
        raw_h = node["horizon"]
        if raw_h in ("inf", "infinite"):
            horizon = math.inf
        elif isinstance(raw_h, int) and not isinstance(raw_h, bool) and raw_h >= 0:
            horizon = float(raw_h)
        else:
            ck.error("bound.horizon", f"must be 'inf' or a non-negative integer, got {raw_h!r}")
    theta = None
    if node.get("theta") is not None:
        tnode = ck.mapping(node["theta"], "bound.theta",
                           {"min", "max", "grid_points", "refine_tolerance"}, set())
        theta = ThetaBlock(
            theta_min=ck.number(tnode, "bound.theta", "min", positive=True),
            theta_max=ck.number(tnode, "bound.theta", "max", positive=True),
            grid_points=ck.integer(tnode, "bound.theta", "grid_points", minimum=8),
            refine_tolerance=ck.number(tnode, "bound.theta", "refine_tolerance", positive=True),
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
    measure = ck.integer(node, "sim", "measure_slots", minimum=1)
    reps = ck.integer(node, "sim", "replications", minimum=1)
    seed = ck.integer(node, "sim", "base_seed", minimum=0)
    warmup = ck.integer(node, "sim", "warmup_slots", minimum=0)
    if None in (measure, reps, seed):
        return None
    return SimBlock(measure_slots=measure, replications=reps, base_seed=seed, warmup_slots=warmup)


def parse_scenario_file(path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    """One output row; column order is fixed by ``CSV_HEADER``.

    Delay bounds are reported in seconds and backlog bounds in bits;
    ``theta_star`` is in 1/bits.  The two empirical fields stay empty for
    pure bound computations.
    """

    scenario_id: str
    kind: str
    hops: int
    through_flows: int
    cross_flows: int
    epsilon: float
    theta_star: Optional[float]
    bound_value: float
    bound_unit: str
    stable: bool
    empirical_frequency: Optional[float] = None
    confidence_limit: Optional[float] = None

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
