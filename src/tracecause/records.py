"""Immutable value records: the base of the package's result types and
guard nodes.  They have the value semantics of frozen dataclasses but
generate no code when a class is created, which keeps the package's
import cheap: equality, hashing and ``repr`` read the fields through one
`operator.attrgetter` per class.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__
"""``setfield(record, name, value)``: set a field of a record under
construction, whose own ``__setattr__`` raises."""


class Record:
    """Base of the immutable value records.

    A subclass lists its fields in ``__slots__`` and sets each one in its
    ``__init__`` with `setfield`.  A record equals only a record of its
    exact class whose fields are equal, and equal records hash equal (a
    record with an unhashable field is itself unhashable).  ``repr``
    reads ``Name(field=value, ...)``.  Assigning or deleting an attribute
    raises AttributeError.  The fields are the slots of the class and of
    its bases, bases first; a slot whose name starts with an underscore
    is private, and equality, hashing and ``repr`` ignore it.  Pickling
    and `copy` rebuild a record by calling its class with every slot in
    that order, so ``__init__`` takes them positionally in that order.
    """

    __slots__ = ()
    _slots: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()
    # The field values: a tuple, or the value itself for a single field.
    _values = staticmethod(lambda record: ())

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._slots = tuple(name for c in reversed(cls.__mro__)
                           for name in c.__dict__.get("__slots__", ()))
        cls._fields = tuple(n for n in cls._slots if not n.startswith("_"))
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is type(self):
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        values = self._values(self)
        if len(self._fields) == 1:
            values = (values,)
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._slots)
