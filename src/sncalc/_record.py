"""Immutable value records, the base of sncalc's model and result types.

A record class lists its fields in ``__slots__`` and takes them, in that
order, as the parameters of its ``__init__``, which sets each with
:func:`set_field` and then validates.  The methods are written once here
rather than generated per class from source at import time: that machinery
and the modules it loads (``inspect``, ``ast``) cost a command more start-up
time than its bound computation takes.
"""

from __future__ import annotations

from operator import attrgetter

# the only way to set a field, since Record.__setattr__ refuses
set_field = object.__setattr__


class Record:
    """Frozen fields, value equality and hashing, ``Name(field=value, ...)`` repr.

    Assigning or deleting a field raises ``AttributeError``.  Two records
    are equal when they are of the same class with equal field tuples, and
    the hash is that tuple's.  A subclass declared with ``eq=False``
    (records holding arrays) compares and hashes by identity instead.
    Records pickle and copy through ``__init__``, so unpickling validates.
    """

    __slots__ = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

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
        """A copy with ``changes`` applied, validated by ``__init__`` again;
        an unknown field name raises ``TypeError``."""
        return self.__class__(**dict(zip(self.__slots__, self._values(self)), **changes))
