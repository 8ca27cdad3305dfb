"""Value: the base of charsum's immutable records.

A subclass lists its fields, in order, as __slots__.  The base __init__
takes one positional argument per field; a subclass that converts or
checks its arguments, or is built often enough that the generic loop
shows, sets each field in its own __init__.  Nothing reassigns a field
afterwards.  Slot names that start with an underscore are private caches,
not fields.  Defining a subclass generates no code, unlike a dataclass or
a NamedTuple, so importing charsum stays cheap.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Equal only to an instance of the same class with equal fields, so
    never to a tuple, nor to a record of another class with equal fields;
    hashed as the tuple of its fields; repr'd as a dataclass is."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        get = attrgetter(*fields)
        cls._fields = fields
        # the tuple of fields, read in C; one field reads bare, so is wrapped
        cls._astuple = staticmethod(
            get if len(fields) > 1 else lambda v: (get(v),))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes "
                            f"{len(self._fields)} fields, got {len(values)}")
        for f, v in zip(self._fields, values):
            setattr(self, f, v)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == self._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"
