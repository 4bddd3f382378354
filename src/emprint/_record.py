"""Records: classes of named fields whose methods are written once, here.

``dataclasses.dataclass`` writes each method it adds to a class as source
text and compiles it with ``exec``, about 1 ms of import time per class.
``record`` declares a class's fields with
``dataclasses.dataclass(init=False, repr=False, eq=False)``, which adds no
method, so ``dataclasses.fields`` and ``dataclasses.replace`` work as on
any dataclass, and then installs these methods, with dataclass semantics:

* ``__init__`` takes the fields in declaration order, by position or by
  keyword, fills the ones left out from their defaults, raises TypeError on
  a missing, unknown or repeated argument,
  sets the fields with ``object.__setattr__`` and then calls the class's
  ``__post_init__``, if it has one;
* ``__eq__`` compares the tuples of the compared fields of two instances of
  the same class, and ``__repr__`` gives ``Name(field=value!r, ...)``;
* a frozen record (the default) hashes that tuple and raises
  ``dataclasses.FrozenInstanceError`` on assignment and deletion; a mutable
  one (``frozen=False``) is unhashable, as a dataclass with ``eq=True`` is.

Of the field options only ``default``, ``compare`` and ``repr`` are
honoured; no record uses another.
"""

from __future__ import annotations

import dataclasses


def record(cls=None, /, *, frozen: bool = True):
    """Make ``cls`` a record (see the module docstring); used as ``@record``
    or ``@record(frozen=False)``."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    compared = tuple(f.name for f in fields if f.compare)
    shown = tuple(f.name for f in fields if f.repr)
    where = f"{cls.__qualname__}.__init__()"
    post_init = getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(names, args))
        for name in kwargs:
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        values.update(kwargs)
        for f in fields:
            if f.name not in values:
                if f.default is dataclasses.MISSING:
                    raise TypeError(f"{where} missing required argument {f.name!r}")
                values[f.name] = f.default
        return [values[name] for name in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (tuple(getattr(self, name) for name in compared)
                    == tuple(getattr(other, name) for name in compared))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in compared))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in shown) + ")")

    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    if frozen:
        cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    else:
        cls.__hash__ = None
    return cls


def _frozen_setattr(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
