import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from sncalc._record import Record
from sncalc.bounds import BoundResult, NetworkPath, ThetaSearchConfig
from sncalc.envelopes import Aggregate, ConstantRate, ConstantServer, Leftover, MmooParams, MmooTraffic
from sncalc.scenario import (
    BoundBlock,
    NetworkBlock,
    ResultRow,
    SimBlock,
    TrafficBlock,
    UnitsBlock,
    parse_scenario_file,
    resolve_scenario_path,
)
from sncalc.simulator import HopTrace, ReplicationTrace, SimResult, SimScenario, ValidationReport

VOICE = MmooParams(peak_rate=64.0, r_on_off=0.0025, r_off_on=1.0 / 600.0)
SOURCE = MmooTraffic(VOICE)
DESK = parse_scenario_file(resolve_scenario_path("desk-validation"))
ROW = ResultRow("voice", "delay", 2, 781, 1953, 1e-9, 4e-5, 0.025, "s", True, 0.001, 0.002)


def _arrays(n):
    return [np.arange(4.0) + i for i in range(n)]


# one instance of every record class, with optional fields set where a
# default would hide them
VALUE_RECORDS = [
    VOICE,
    ConstantRate(2.0),
    SOURCE,
    Aggregate(3, SOURCE),
    ConstantServer(2.0),
    Leftover(100.0, 2, SOURCE),
    NetworkPath(Aggregate(781, SOURCE), [Leftover(1e5, 1953, SOURCE), ConstantServer(5e4)]),
    ThetaSearchConfig(1e-9, 0.01),
    BoundResult("delay", 12.5, 4e-5, 1e-9, True, None, (3.0, 2.5), at_theta_boundary=True),
    UnitsBlock(0.001, "kbit/s"),
    TrafficBlock(64.0, 0.4, 0.6, 781, 1953),
    NetworkBlock(1e5, (1, 2), flow_totals=(4, 6)),
    BoundBlock(("backlog", "delay"), (1e-2, 1e-3), 1e4),
    SimBlock(1000, 2, 5, warmup_slots=10),
    DESK,
    ROW,
    SimScenario(2, 732.0, 10, 10, VOICE, 1000, warmup_slots=20, replications=3, base_seed=7),
    ValidationReport("delay", 40.0, 1e-2, 1000, 3, 0.003, 0.008, "pass", ("few samples",)),
]
ARRAY_RECORDS = [
    HopTrace(*_arrays(6)),
    ReplicationTrace(*_arrays(2), None, None, (), {1: 2}),
    SimResult(*_arrays(2), (11, 12), 8),
]
ALL_RECORDS = VALUE_RECORDS + ARRAY_RECORDS


def _name(record):
    return type(record).__name__


def _values(record):
    return tuple(getattr(record, name) for name in record.__slots__)


def _dataclass_twin(record):
    """The same fields in a frozen dataclass of the same name."""
    twin = dataclasses.make_dataclass(_name(record), record.__slots__, frozen=True)
    return twin(*_values(record))


def test_every_record_class_is_covered():
    assert {cls.__name__ for cls in Record.__subclasses__()} == {_name(r) for r in ALL_RECORDS}


@pytest.mark.parametrize("record", ALL_RECORDS, ids=_name)
def test_slots_are_the_init_parameters_in_order(record):
    # the constructor binds __slots__ by position and by name, or a mix:
    # pickling passes the fields by position, replace by keyword
    cls, values = type(record), _values(record)
    for split in range(len(values) + 1):
        built = cls(*values[:split], **dict(zip(record.__slots__[split:], values[split:])))
        assert type(built) is cls and all(a is b for a, b in zip(_values(built), values, strict=True))
        if record in VALUE_RECORDS:
            assert built == record


@pytest.mark.parametrize("record", ALL_RECORDS, ids=_name)
def test_bad_arguments_raise_type_error_naming_them(record):
    cls, slots, values = type(record), record.__slots__, _values(record)
    kwargs = dict(zip(slots, values))
    for name in slots:
        if name not in cls._defaults:
            with pytest.raises(TypeError, match=f"{_name(record)}\\(\\) missing required argument '{name}'"):
                cls(**{k: v for k, v in kwargs.items() if k != name})
    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        cls(*values, no_such_field=1)
    for i, name in enumerate(slots):
        with pytest.raises(TypeError, match=f"multiple values for argument '{name}'"):
            cls(*values[:i + 1], **dict(zip(slots[i:], values[i:])))
    with pytest.raises(TypeError, match=f"takes {len(slots)} positional arguments "
                                        f"\\({', '.join(slots)}\\) but {len(slots) + 1} were given"):
        cls(*values, None)


def test_no_record_class_defines_init():
    for cls in Record.__subclasses__():
        assert "__init__" not in vars(cls), cls.__name__


@pytest.mark.parametrize("record", ALL_RECORDS, ids=_name)
def test_defaults_are_a_trailing_run_of_immutable_values(record):
    defaults, slots = type(record)._defaults, record.__slots__
    assert tuple(defaults) == slots[len(slots) - len(defaults):]
    assert all(type(v) in (type(None), bool, int, float, str) for v in defaults.values())


@pytest.mark.parametrize("record", ALL_RECORDS, ids=_name)
def test_repr_is_the_dataclass_text(record):
    assert repr(record) == repr(_dataclass_twin(record))


@pytest.mark.parametrize("record", ALL_RECORDS, ids=_name)
def test_fields_are_frozen(record):
    for name in record.__slots__:
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=name):
            setattr(record, name, before)
        with pytest.raises(AttributeError, match=name):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", VALUE_RECORDS, ids=_name)
def test_equal_fields_give_equal_records_and_hashes(record):
    other = type(record)(*_values(record))
    assert other is not record
    assert other == record and not other != record
    assert hash(other) == hash(record)


def test_equality_needs_the_same_class():
    assert ConstantRate(2.0) != ConstantServer(2.0)
    assert ConstantRate(2.0) != 2.0
    assert ConstantRate(2.0) != (2.0,)
    assert SimBlock(1000, 2, 5) != SimBlock(1000, 2, 5, warmup_slots=10)
    assert len({ConstantRate(2.0), ConstantRate(2.0), ConstantServer(2.0)}) == 2


@pytest.mark.parametrize("record", VALUE_RECORDS, ids=_name)
def test_pickle_and_copy_round_trip(record):
    # SimScenario and MmooParams cross into --jobs workers by pickle
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record
        assert repr(clone) == repr(record)


def test_replace_revalidates():
    assert VOICE.replace(peak_rate=32.0) == MmooParams(32.0, VOICE.r_on_off, VOICE.r_off_on)
    with pytest.raises(ValueError, match="peak_rate"):
        VOICE.replace(peak_rate=-1)
    with pytest.raises(ValueError, match="hop"):
        NetworkPath(SOURCE, [ConstantServer(1.0)]).replace(hops=[])
    # a list of hops is made a tuple again
    assert NetworkPath(SOURCE, [ConstantServer(1.0)]).replace(hops=[ConstantServer(2.0)]).hops == (
        ConstantServer(2.0),)


@pytest.mark.parametrize("record", ALL_RECORDS, ids=_name)
def test_replace_rejects_an_unknown_name(record):
    with pytest.raises(TypeError, match="no_such_field"):
        record.replace(no_such_field=1)


@pytest.mark.parametrize("record", VALUE_RECORDS, ids=_name)
def test_replace_without_changes_is_an_equal_copy(record):
    assert record.replace() == record


def test_replace_changes_only_the_named_fields():
    changed = ROW.replace(scenario_id="x#selftest", empirical_frequency=None)
    assert _values(changed) == ("x#selftest", *_values(ROW)[1:10], None, ROW.confidence_limit)
    assert ROW.scenario_id == "voice" and ROW.empirical_frequency == 0.001


@pytest.mark.parametrize("record", ARRAY_RECORDS, ids=_name)
def test_array_records_compare_by_identity(record):
    other = type(record)(*_values(record))
    assert record == record and other != record
    assert hash(record) == object.__hash__(record)
    assert len({record, other}) == 2


def test_defaults_are_kept():
    assert SimBlock(1000, 2, 5).warmup_slots is None
    assert SimScenario(1, 1.0, 1, 0, VOICE, 1).replications == 1
    assert BoundBlock(("delay",), (1e-9,)).horizon == math.inf
