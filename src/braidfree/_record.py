"""Record classes: the ``dataclasses`` methods this package uses, with one
compiled function per class.

``record`` reads a class's own annotated fields, in order, and gives it
``__init__``, ``__repr__`` and ``__eq__``; a frozen record also gets
``__hash__`` and an ``__setattr__``/``__delattr__`` that raise
``AttributeError``, and any other record is unhashable.  The methods match
what ``dataclass(eq=True)`` generates:

- ``__init__`` is compiled from source with the signature
  ``(self, f1, ..., fk=default)``, so the interpreter binds the arguments
  and raises the ``TypeError`` of a wrong call; it stores each field in the
  instance ``__dict__``, in field order, then calls ``__post_init__`` if
  the class has one;
- ``__eq__`` compares the fields of two instances of the same class and
  returns ``NotImplemented`` otherwise;
- ``__hash__`` is ``hash(tuple(fields))``, so set and dict orders are those
  the dataclasses gave;
- ``repr`` is ``Name(field=value, ...)`` over the fields not marked
  ``repr=False``.

Every field, and every value derived from the fields (the graph masks, the
conditions a report finds), is written straight into the instance
``__dict__``, on a frozen record too.  A method that a class defines itself
is kept.  Inheritance between records, ``ClassVar`` and default factories
are not supported: no record uses them.

It exists because ``import dataclasses`` loads ``inspect``, ``ast`` and
``tokenize``, and ``@dataclass`` compiles about six methods per class:
together about a third of the import time of every fresh command.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class _Field:
    __slots__ = ("default", "repr")

    def __init__(self, default=_MISSING, repr=True):
        self.default = default
        self.repr = repr


def field(*, default=_MISSING, repr: bool = True):
    """Options of one field, as in ``dataclasses.field``."""
    return _Field(default, repr)


def record(cls=None, /, *, frozen: bool = False):
    """Give ``cls`` the methods of a record; use as ``@record`` or
    ``@record(frozen=True)``."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _values(names: tuple):
    """A function from an instance to the tuple of the named attributes."""
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda obj: (get(obj),)
    return attrgetter(*names)


def _init(cls, names: tuple, defaults: dict):
    """The ``__init__`` of the fields ``names``, compiled with their own
    signature.  The default values are read from ``defaults`` when the
    function is defined, never written into the source; field names are
    annotation keys, so they are identifiers."""
    params = "".join(f", {name}=_defaults[{name!r}]" if name in defaults else f", {name}"
                     for name in names)
    lines = [f"def __init__(self{params}):", "    __dict__ = self.__dict__"]
    lines += [f"    __dict__[{name!r}] = {name}" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {"_defaults": defaults}
    exec(compile("\n".join(lines), f"<record {cls.__qualname__}>", "exec"), namespace)
    return namespace["__init__"]


def _build(cls, frozen: bool):
    fields = []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, _Field):
            spec = _Field(spec)
        # the class attribute is the default, as with dataclasses
        if spec.default is not _MISSING:
            setattr(cls, name, spec.default)
        elif name in cls.__dict__:
            delattr(cls, name)
        fields.append((name, spec))

    names = tuple(name for name, spec in fields)
    defaults = {name: spec.default for name, spec in fields if spec.default is not _MISSING}
    shown = tuple(name for name, spec in fields if spec.repr)
    key = _values(names)

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join([f"{name}={getattr(self, name)!r}" for name in shown]) + ")")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    methods = {"__init__": _init(cls, names, defaults), "__repr__": __repr__, "__eq__": __eq__}
    if frozen:
        def __hash__(self):
            return hash(key(self))

        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise AttributeError(f"cannot delete field {name!r}")

        methods.update(__hash__=__hash__, __setattr__=__setattr__, __delattr__=__delattr__)
    else:
        methods["__hash__"] = None
    for name, method in methods.items():
        if name not in cls.__dict__:
            if method is not None:
                method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    return cls
