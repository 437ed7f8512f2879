"""Immutable value records: the base of the package's small value classes
(estimates, reports, tables, actions, matrices).

A subclass of `Record` names its fields once, in `__slots__`, in
constructor order.  Trailing fields may take defaults from the class's
`_defaults` mapping; a callable default is a factory, called once per
instance.  From the field names the base derives

- the constructor, which runs the class's `_check(self)`, if it has one,
  once every field is set, and `_trusted(*values)`, the same constructor
  without `_check`, for values already known to pass it;
- `==` (same class only, otherwise `NotImplemented`), `hash` and `repr`
  (`Name(field=value, ...)`) of the field tuple;
- copying and pickling, which rebuild through the constructor;

and it refuses assignment and deletion with `AttributeError`.
"""

#: Signature default of a field whose default is a factory.
_FACTORY = object()


class Record:
    """Base of the frozen value classes; see the module docstring."""

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name, method in _methods(cls).items():
            setattr(cls, name, method)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _methods(cls) -> dict:
    """__init__, _trusted, __eq__ and __hash__ of the record class cls,
    compiled from its field names, as a dataclass compiles them: one slot
    store per field to construct, one tuple per operand to compare."""
    names = cls.__slots__
    scope = {"_new": object.__new__, "_FACTORY": _FACTORY}
    params, body = [], []
    for name in names:
        scope[f"_set_{name}"] = vars(cls)[name].__set__
        if name in cls._defaults:
            default = cls._defaults[name]
            if callable(default):
                scope[f"_make_{name}"] = default
                default = _FACTORY
                body.append(f"if {name} is _FACTORY: {name} = _make_{name}()")
            scope[f"_default_{name}"] = default
            name = f"{name}=_default_{name}"
        params.append(name)
    body += [f"_set_{name}(self, {name})" for name in names]
    check = ["self._check()"] if hasattr(cls, "_check") else []
    signature = ", ".join(params)

    def fields(obj):
        return "(" + "".join(f"{obj}.{name}, " for name in names) + ")"

    source = "\n".join(
        [f"def __init__(self, {signature}):"]
        + [f"    {line}" for line in body + check]
        + [f"def _trusted(cls, {signature}):", "    self = _new(cls)"]
        + [f"    {line}" for line in body]
        + ["    return self",
           "def __eq__(self, other):",
           "    if other.__class__ is self.__class__:",
           f"        return {fields('self')} == {fields('other')}",
           "    return NotImplemented",
           "def __hash__(self):",
           f"    return hash({fields('self')})"])
    exec(source, scope)
    methods = {name: scope[name]
               for name in ("__init__", "_trusted", "__eq__", "__hash__")}
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    methods["_trusted"] = classmethod(methods["_trusted"])
    return methods
