"""The one base of scv's immutable records.

Machine values, frames, controls and states, and the syntax, configuration,
solver and result records elsewhere all derive from `Record`.  This module
imports nothing from scv, so any module may build on it.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]

_set = object.__setattr__


class Record:
    """Base of scv's immutable records.

    A subclass names its fields in `__slots__`, in constructor order, and
    may give defaults for trailing fields in `_defaults`.  Each subclass
    with fields gets its own positional `__init__`, generated once when the
    class is made: straight-line code that sets each field, then the hash
    slot, with `_defaults` as its defaults.  So a wrong number of fields
    raises TypeError.  Records hash as the tuple of their `_values`, by
    default all their fields; the hash is computed on first use and kept,
    since records live in large seen-sets and stores.  Two records are
    equal when they have the same class and equal `_values`.  A class that
    compares on fewer fields declares its own `_values`, a function from a
    record to the tuple of those fields.
    """

    __slots__ = ("_hash",)
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__slots__
        if not fields:
            return
        if "_values" not in cls.__dict__:
            if len(fields) == 1:
                get = attrgetter(*fields)
                cls._values = staticmethod(lambda r: (get(r),))
            else:
                cls._values = attrgetter(*fields)
        cls.__init__ = _make_init(cls, fields)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("immutable")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        if self._hash is None:
            _set(self, "_hash", hash(self._values(self)))
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            type(self) is type(other) and self._values(self) == other._values(other)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._values(self)))})"


def _make_init(cls, fields: tuple):
    """The positional constructor of a record class with these fields."""
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    source = f"def __init__(self, {', '.join(fields)}):{body}\n    _set(self, '_hash', None)"
    namespace: dict = {}
    exec(source, {"_set": _set}, namespace)
    init = namespace["__init__"]
    init.__defaults__ = cls._defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
