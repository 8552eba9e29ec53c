"""Immutable records that are cheap to import and to define: every command
loads them, and the standard library's code-generating record decorator
cost each command about 20 ms of start-up (its import pulls in `inspect`,
`ast`, `dis` and `tokenize`).  There is one helper per kind of record.

Most records are `typing.NamedTuple` classes.  One with rules is declared
`@checked class TreeConfig(NamedTuple)` and defines `_check`, which raises
ValueError on a bad field.  `checked` makes the constructor run `_check`,
and so do `_make` and `_replace`, whose NamedTuple forms would build the
tuple without calling `__new__`, and `copy` and `pickle`, which call
`__new__`.

A record read in a hot loop is a `Frozen` `__slots__` class instead: a
slot reads faster than a NamedTuple field, and a NamedTuple subclass
unpacks slower than a plain tuple.
"""

from functools import wraps


def checked(cls):
    """Make a NamedTuple class run its `_check` on every path that builds
    one.  The generated `__new__` keeps the class's name in argument errors
    and its fields in `help()`."""
    new = cls.__new__

    @wraps(new)
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    def _make(cls, iterable):
        return cls(*iterable)

    cls.__new__ = __new__
    cls._make = classmethod(_make)
    return cls


class Frozen:
    """Base of an immutable `__slots__` record.  `_fields` names the fields
    that make up equality, hashing and `repr`; the subclass's `__init__`
    sets every slot with `object.__setattr__`, past the `__setattr__` that
    refuses."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"
