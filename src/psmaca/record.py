"""Immutable records that are cheap to import and to define: every command
loads them, and the standard library's code-generating record decorator
cost each command about 20 ms of start-up (its import pulls in `inspect`,
`ast`, `dis` and `tokenize`).

Most records are `typing.NamedTuple` classes.  One with rules subclasses
`Checked` and a NamedTuple of its fields, as in
`class TreeConfig(Checked, _TreeConfigFields)`, and defines `_check`,
which raises ValueError on a bad field.  The constructor runs `_check`,
and so do `_make` and `_replace`, whose NamedTuple forms would build the
tuple without calling `__new__`.

A record read in a hot loop is a `Frozen` `__slots__` class instead: a
slot reads faster than a NamedTuple field, and a NamedTuple subclass
unpacks slower than a plain tuple.
"""


class Checked:
    """Mixin that runs a NamedTuple record's `_check` on every path that
    builds one."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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
