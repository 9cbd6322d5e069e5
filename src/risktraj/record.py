"""Immutable records, the package's value types, made without generated code.

A subclass lists its fields as class annotations, with any default as the
class attribute; `class C(Record, kw_only=True)` makes the fields C adds
keyword-only. A record binds its arguments to its class's `__signature__`,
runs `__post_init__` (which may set a field with `object.__setattr__`),
stores each dict field as a read-only copy and then refuses assignment and
deletion. Eq, hash and repr follow the type and the fields, as a frozen
dataclass's do, but defining a record class runs no `exec`.
"""

from inspect import Parameter, Signature
from types import MappingProxyType, SimpleNamespace


class Record:
    # name -> field (name, type as written, default, kw_only), inherited ones
    # first; dataclasses.replace reads it too, with init and _field_type. A
    # record's __dict__ holds its fields in this order and nothing else.
    __dataclass_fields__: dict = {}

    def __init_subclass__(cls, kw_only=False):
        cls.__dataclass_fields__ = table = {**cls.__dataclass_fields__, **{
            name: SimpleNamespace(name=name, type=annotation, kw_only=kw_only, init=True,
                                  default=cls.__dict__.get(name, Parameter.empty),
                                  _field_type=None)
            for name, annotation in cls.__dict__.get("__annotations__", {}).items()}}
        cls.__signature__ = Signature([Parameter(
            f.name, Parameter.KEYWORD_ONLY if f.kw_only else Parameter.POSITIONAL_OR_KEYWORD,
            default=f.default) for f in table.values()])

    def __init__(self, *args, **kwargs):
        bound = self.__signature__.bind(*args, **kwargs)
        bound.apply_defaults()
        for name, value in bound.arguments.items():
            object.__setattr__(self, name, value)
        self.__post_init__()
        for name, value in [*vars(self).items()]:
            if isinstance(value, dict):
                object.__setattr__(self, name, MappingProxyType(dict(value)))

    def __post_init__(self):
        """Check and normalise the fields; a subclass may override it."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        items = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({items})"

    def __reduce__(self):
        # pickle and deepcopy rebuild the record; a read-only copy goes as a dict
        return _build, (type(self), {name: dict(value) if type(value) is MappingProxyType
                                     else value for name, value in vars(self).items()})


def _build(cls, values: dict) -> Record:
    return cls(**values)


def fields(record) -> tuple:
    """The fields of a record or record class in declaration order, each
    with a name and a type (its annotation as written)."""
    return tuple(record.__dataclass_fields__.values())


def replace(record: Record, **changes) -> Record:
    """A copy of the record with some fields changed; every check runs again."""
    return type(record)(**{**vars(record), **changes})
