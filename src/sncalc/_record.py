"""Immutable value records, the base of sncalc's model and result types.

A record class declares its fields once, in ``__slots__``, and may add a
``_defaults`` dict for a trailing run of them (immutable values only) and a
``_validate`` method holding its checks.  The constructor and the other
methods are written once here rather than generated per class from source at
import time: that machinery and the modules it loads (``inspect``, ``ast``)
cost a command more start-up time than its bound computation takes.
"""

from __future__ import annotations

from operator import attrgetter, index

# the only way to set a field, since Record.__setattr__ refuses
set_field = object.__setattr__

_UNSET = object()


def integer(value, least: int, problem: str) -> int:
    """``value`` as an int: an int or numpy integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or index(value) < least:
        raise ValueError(f"{problem}, got {value!r}")
    return index(value)


def integer_field(record, name: str, least: int, problem: str) -> None:
    """Store field ``name`` as an int by :func:`integer`'s rule."""
    set_field(record, name, integer(getattr(record, name), least, problem))


class Record:
    """Frozen fields, value equality and hashing, ``Name(field=value, ...)`` repr.

    ``Name(*args, **kwargs)`` binds arguments by position in field order or
    by keyword; a missing, unknown, repeated or surplus one raises ``TypeError``.

    Assigning or deleting a field raises ``AttributeError``.  Two records
    are equal when they are of the same class with equal field tuples, and
    the hash is that tuple's.  A subclass declared with ``eq=False``
    (records holding arrays) compares and hashes by identity instead.
    Records pickle and copy through the constructor, so unpickling validates.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        slots = self.__slots__
        if len(args) > len(slots):
            raise TypeError(f"{self.__class__.__name__}() takes {len(slots)} positional "
                            f"arguments ({', '.join(slots)}) but {len(args)} were given")
        for name, value in zip(slots, args):
            set_field(self, name, value)
        if kwargs or len(args) < len(slots):
            defaults, missing = self._defaults, None
            for name in slots[len(args):]:
                value = kwargs.pop(name, _UNSET)
                if value is _UNSET:
                    value = defaults.get(name, _UNSET)
                if value is not _UNSET:
                    set_field(self, name, value)
                elif missing is None:
                    missing = name
            if kwargs or missing:
                self._reject(kwargs, missing)
        self._validate()

    def _reject(self, unused: dict, missing) -> None:
        """Raise ``TypeError`` naming the first keyword left unbound, else the missing field."""
        cls = self.__class__.__name__
        for name in unused:
            problem = "multiple values for" if name in self.__slots__ else "an unexpected keyword"
            raise TypeError(f"{cls}() got {problem} argument {name!r}")
        raise TypeError(f"{cls}() missing required argument {missing!r}")

    def _validate(self) -> None:
        """The class's checks on its fields, run by the constructor."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated by the constructor
        again; an unknown field name raises ``TypeError``."""
        return self.__class__(**dict(zip(self.__slots__, self._values(self)), **changes))
