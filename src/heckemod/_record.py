"""Frozen record classes, built without importing dataclasses.

`@record` gives a class what @dataclass(frozen=True) would: an
__init__ over the annotated fields in declaration order (positional or
keyword, class-level values as defaults, then __post_init__ if the
class has one), a repr Name(field=value, ...), equality and hash over
the type and the fields, and instances that refuse assignment and
deletion.  The methods are plain closures; importing dataclasses (and
inspect behind it) was a large share of the CLI's start-up.
"""

from operator import attrgetter


def record(cls):
    name = cls.__name__
    names = tuple(cls.__annotations__)
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")
    fields = attrgetter(*names)  # one value, or a tuple of them

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError("%s takes %d fields but %d were given" % (name, len(names), len(args)))
        values = dict(zip(names, args))
        for f in kwargs:
            if f in values or f not in names:
                raise TypeError("%s got a %s field %r" % (name, "repeated" if f in values else "unknown", f))
        values.update(kwargs)
        for f in names:
            if f not in values and f not in defaults:
                raise TypeError("%s is missing field %r" % (name, f))
        return [values[f] if f in values else defaults[f] for f in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return "%s(%s)" % (cls.__qualname__, ", ".join("%s=%r" % (f, getattr(self, f)) for f in names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash((cls, fields(self)))

    def __setattr__(self, f, value):
        raise AttributeError("cannot assign to field %r of a frozen %s" % (f, name))

    def __delattr__(self, f):
        raise AttributeError("cannot delete field %r of a frozen %s" % (f, name))

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = "%s.%s" % (cls.__qualname__, method.__name__)
        setattr(cls, method.__name__, method)
    return cls
