"""Frozen record types, built without per-class code generation.

``@record`` makes a class whose annotations list its fields into an
immutable value type, as ``dataclasses.dataclass(frozen=True)`` would, but
it compiles nothing: every record class gets the same ``__init__``,
``__setattr__``, ``__delattr__`` and ``__repr__`` (and, unless ``eq=False``,
``__eq__`` and ``__hash__``), written once here, which read the class's
field table.  Fields follow the reversed method resolution order, base
fields first; a field a subclass annotates again keeps its place and takes
the new default.  Defaults stay class attributes.  A field annotated
``InitVar[T]`` is passed to ``__post_init__`` and not stored.
"""

from __future__ import annotations

_MISSING = object()


class FrozenRecordError(AttributeError):
    """Raised on assigning to or deleting an attribute of a record."""


class InitVar:
    """Annotation ``InitVar[T]``: an ``__init__`` argument that
    ``__post_init__`` receives and the record does not store."""

    def __class_getitem__(cls, item):
        return cls


class Field:
    """One ``__init__`` parameter of a record: its name and default."""

    __slots__ = ("name", "default", "init_only")

    def __init__(self, name: str, default, init_only: bool) -> None:
        self.name = name
        self.default = default
        self.init_only = init_only


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__record_names__)


def _init(self, *args, **kwargs) -> None:
    cls = type(self)
    params = cls.__record_params__
    if len(args) > len(params):
        raise TypeError(f"{cls.__qualname__}() takes {len(params)} arguments "
                        f"but {len(args)} were given")
    for param, value in zip(params, args):
        if param.name in kwargs:
            raise TypeError(f"{cls.__qualname__}() got multiple values for "
                            f"argument {param.name!r}")
        kwargs[param.name] = value
    state, init_only = vars(self), []
    for param in params:
        value = kwargs.pop(param.name, param.default)
        if value is _MISSING:
            raise TypeError(f"{cls.__qualname__}() missing required argument "
                            f"{param.name!r}")
        if param.init_only:
            init_only.append(value)
        else:
            state[param.name] = value
    if kwargs:
        raise TypeError(f"{cls.__qualname__}() got an unexpected keyword "
                        f"argument {next(iter(kwargs))!r}")
    if hasattr(cls, "__post_init__"):
        self.__post_init__(*init_only)


def _setattr(self, name: str, value) -> None:
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _repr(self) -> str:
    cls = type(self)
    body = ", ".join(f"{name}={getattr(self, name)!r}"
                     for name in cls.__record_names__)
    return f"{cls.__qualname__}({body})"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def record(cls=None, /, *, eq: bool = True):
    """Class decorator: ``@record`` or ``@record(eq=False)``.

    ``eq=False`` keeps identity comparison and hashing.  A method that the
    class body defines itself is kept.
    """
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    params = {}
    for base in reversed(cls.__mro__[1:]):
        for param in getattr(base, "__record_params__", ()):
            params[param.name] = param
    for name, annotation in vars(cls).get("__annotations__", {}).items():
        init_only = (annotation is InitVar or isinstance(annotation, str)
                     and annotation.startswith("InitVar["))
        params[name] = Field(name, vars(cls).get(name, _MISSING), init_only)
    cls.__record_params__ = tuple(params.values())
    cls.__record_names__ = tuple(p.name for p in params.values()
                                 if not p.init_only)
    methods = {"__init__": _init, "__setattr__": _setattr,
               "__delattr__": _delattr, "__repr__": _repr}
    if eq:
        methods |= {"__eq__": _eq, "__hash__": _hash}
    for name, method in methods.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    return cls


def fields(obj) -> tuple[Field, ...]:
    """The stored fields of a record or record class, in order."""
    cls = obj if isinstance(obj, type) else type(obj)
    return tuple(p for p in cls.__record_params__ if not p.init_only)


def replace(obj, /, **changes):
    """A new record with ``changes`` applied; ``__post_init__`` runs again."""
    for field in fields(obj):
        changes.setdefault(field.name, getattr(obj, field.name))
    return type(obj)(**changes)
