"""Immutable value records: the base of the package's small value classes
(irrationals, continued fractions, matrices, estimates, reports, tables,
actions).

A subclass of `Record` names its fields once, in `__slots__`, in
constructor order.  Trailing fields may take defaults from the class's
`_defaults` mapping; a callable default is a factory, called once per
instance.  The base's methods are written once for every class, read only
`__slots__` and `_defaults`, and generate no code per class.  They give

- the constructor, which takes each field by position or by name and runs
  the class's `_check(self)`, if it has one, once every field is set, and
  `_trusted(*values)`, the same constructor without `_check`, for values
  already known to pass it;
- `==` (same class only, otherwise `NotImplemented`), `hash` and `repr`
  (`Name(field=value, ...)`) of the field tuple;
- copying and pickling, which rebuild through the constructor;
- `as_jsonable()`, a dict of the fields by name, in order: an `Enum`
  member is written as its value, a field that is None is left out, and
  any other value is kept as it is;

and it refuses assignment and deletion with `AttributeError`.  A missing,
unknown or repeated field, or too many positional values, is a
`TypeError`.  A subclass may write its own `__init__` that normalizes its
inputs and hands the fields to `Record.__init__`.
"""

from enum import Enum


class Record:
    """Base of the frozen value classes; see the module docstring."""

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        self._fill(args, kwargs)
        self._check()

    @classmethod
    def _trusted(cls, *args, **kwargs):
        self = object.__new__(cls)
        self._fill(args, kwargs)
        return self

    def _fill(self, args: tuple, kwargs: dict):
        """Set the fields from constructor arguments."""
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, of a call with keywords, defaults or
        the wrong number of positional values."""
        names, title = cls.__slots__, cls.__qualname__
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} fields, "
                            f"got {len(args)} positional values")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{title}() got an unknown field {name!r}")
            if name in values:
                raise TypeError(f"{title}() got field {name!r} twice")
            values[name] = value
        for name in names:
            if name in values:
                continue
            if name not in cls._defaults:
                raise TypeError(f"{title}() missing field {name!r}")
            default = cls._defaults[name]
            values[name] = default() if callable(default) else default
        return [values[name] for name in names]

    def _check(self):
        """Raise ValueError if the fields do not make a valid value."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def as_jsonable(self) -> dict:
        return {name: value.value if isinstance(value, Enum) else value
                for name, value in zip(self.__slots__, self._values())
                if value is not None}

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
