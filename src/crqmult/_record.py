"""Frozen value records, defined without generated code.

`record` gives a class, from its annotated fields in order, the methods that
the standard library's frozen data classes generate: `__init__` taking the
class attributes of those names as defaults, `__eq__` that holds only between
records of one class with equal fields, `__hash__` equal to the hash of the
tuple of fields, `__repr__`, and `__setattr__`/`__delattr__` that refuse
every change.  The methods are closures over the field names, so defining a
record compiles no source, and importing this module loads no other module.

A record that checks or canonicalizes its fields writes its own `__init__`,
which stores them with `object.__setattr__`; there is no hook after the
generated one.
"""

from __future__ import annotations


def record(cls):
    """Install the record methods on cls and return it.

    An annotation that starts with "ClassVar" is not a field.  An `__init__`
    written in the class body is kept.
    """
    names = tuple(n for n, a in cls.__annotations__.items() if not a.startswith("ClassVar"))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    count = len(names)
    title = cls.__qualname__
    setter = object.__setattr__

    def bind(args: tuple, kwargs: dict) -> list:
        if len(args) > count:
            raise TypeError(f"{title}() takes {count} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{title}() missing argument {name!r}")
        if kwargs:
            unexpected = next(iter(kwargs))
            raise TypeError(f"{title}() got an unexpected keyword argument {unexpected!r}")
        return values

    def __init__(self, *args, **kwargs):
        # the common call passes every field by position and binds nothing
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        # object.__setattr__ keeps the values inline; reading self.__dict__ here
        # would build the dict and make every later attribute read slower
        for name, value in zip(names, args):
            setter(self, name, value)

    def fields(self) -> tuple:
        return tuple([getattr(self, n) for n in names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot delete {name!r}")

    methods = [__eq__, __hash__, __repr__, __setattr__, __delattr__]
    if "__init__" not in cls.__dict__:
        methods.append(__init__)
    for method in methods:
        method.__qualname__ = f"{title}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
