"""Record classes: the ``dataclasses`` methods this package uses, built from
closures instead of compiled source.

``record`` reads a class's own annotated fields, in order, and gives it
``__init__``, ``__repr__`` and ``__eq__``; a frozen record also gets
``__hash__`` and an ``__setattr__``/``__delattr__`` that raise
``AttributeError``, and any other record is unhashable.  The methods match
what ``dataclass(eq=True)`` generates:

- the constructor takes the init fields positionally or by keyword, with
  their defaults, then calls ``__post_init__`` if the class has one; an
  ``init=False`` field with a default reads it from the class attribute
  until it is set;
- ``__eq__`` compares the compare-fields of two instances of the same class
  and returns ``NotImplemented`` otherwise;
- ``__hash__`` is ``hash(tuple(compare-fields))``, so set and dict orders
  are those the dataclasses gave;
- ``repr`` is ``Name(field=value, ...)`` over the repr-fields.

The constructor sets each field with ``object.__setattr__``, as the frozen
dataclasses did: filling ``__dict__`` directly would be cheaper, but in
CPython 3.11 it leaves a split dict on which attribute reads are not
specialized and take about twice as long.  Every instance still has a
``__dict__`` for the graph builder (``_from_valid_digits``) and cached
conditions to write into.  A method that a class defines itself is kept.
Inheritance between records, ``ClassVar`` and default factories are not
supported: no record uses them.

It exists because ``import dataclasses`` loads ``inspect``, ``ast`` and
``tokenize``, and ``@dataclass`` compiles each method with ``exec``:
together about a third of the import time of every fresh command.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class _Field:
    __slots__ = ("default", "init", "repr", "compare")

    def __init__(self, default=_MISSING, init=True, repr=True, compare=True):
        self.default = default
        self.init = init
        self.repr = repr
        self.compare = compare


def field(*, default=_MISSING, init: bool = True, repr: bool = True, compare: bool = True):
    """Options of one field, as in ``dataclasses.field``."""
    return _Field(default, init, repr, compare)


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


def _bind(cls, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """The init-field values of a call, in field order, or the ``TypeError``
    that a function with this signature raises."""
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{where} takes {len(names) + 1} positional arguments "
                        f"but {len(args) + 1} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
        values[name] = value
    missing = [name for name in names if name not in values and name not in defaults]
    if missing:
        raise TypeError(f"{where} missing required arguments: "
                        + ", ".join(map(repr, missing)))
    return [values[name] if name in values else defaults[name] for name in names]


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

    names = tuple(name for name, spec in fields if spec.init)
    defaults = {name: spec.default for name, spec in fields
                if spec.init and spec.default is not _MISSING}
    shown = tuple(name for name, spec in fields if spec.repr)
    key = _values(tuple(name for name, spec in fields if spec.compare))
    post_init = hasattr(cls, "__post_init__")
    count = len(names)
    setattr_ = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            setattr_(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join([f"{name}={getattr(self, name)!r}" for name in shown]) + ")")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__}
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
