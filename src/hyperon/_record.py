"""Frozen value records without `dataclasses`.

`Record` gives an annotated class what ``@dataclass(frozen=True)`` gives it:
construction by position, by keyword and from class-level defaults, then
``__post_init__`` (which may still set fields with ``object.__setattr__``);
equality only with the same class, a hash equal to that of the field tuple,
the dataclass ``repr``, and ``AttributeError`` on any assignment or deletion.
There are no ``__slots__``, so copy, deepcopy and pickle restore ``__dict__``
without calling ``__setattr__``.  A record is not subclassed: its fields are
its own annotations.

Importing `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`, a tenth
of a report command that loads no numpy.  The records of `mc`, `pairs`,
`decay`, `qcore` and `cascade` stay dataclasses: those modules load numpy,
which loads `inspect` anyway, and the benchmark checks and the tests call
``dataclasses.fields()`` on `EventTable` and `PairModel`.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]) or len(values) < len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)} once each, "
                            f"got {len(args)} positional and the keywords {', '.join(kwargs) or 'none'}")
        for key in fields:
            object.__setattr__(self, key, values[key])
        self.__post_init__()

    def __post_init__(self):
        pass

    def _astuple(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")
