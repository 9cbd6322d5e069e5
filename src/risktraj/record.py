"""Immutable records, the package's value types, made without generated code.

A subclass lists its fields as class annotations, with any default as the
class attribute; `class C(Record, kw_only=True)` makes the fields C adds
keyword-only. A record binds its arguments to its class's `__signature__`,
runs `__post_init__` (which may set a field with `object.__setattr__`),
stores each dict field as a read-only copy and then refuses assignment and
deletion. Eq, hash and repr follow the type and the fields, as a frozen
dataclass's do, but defining a record class runs no `exec`, and a record
is no dataclass: `dataclasses.fields` and `replace` raise TypeError on it.
"""

from inspect import Parameter, Signature
from types import MappingProxyType


class Record:
    # The one field table: a parameter per field (name, annotation as
    # written, default, kind), inherited ones first. A record's __dict__
    # holds its fields in this order and nothing else.
    __signature__ = Signature()

    def __init_subclass__(cls, kw_only=False):
        kind = Parameter.KEYWORD_ONLY if kw_only else Parameter.POSITIONAL_OR_KEYWORD
        cls.__signature__ = Signature({**cls.__signature__.parameters, **{
            name: Parameter(name, kind, annotation=annotation,
                            default=cls.__dict__.get(name, Parameter.empty))
            for name, annotation in cls.__dict__.get("__annotations__", {}).items()}}.values())

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
    """The fields of a record or record class in declaration order, each an
    inspect.Parameter with a name and an annotation (as written)."""
    return tuple(record.__signature__.parameters.values())


def replace(record: Record, **changes) -> Record:
    """A copy of the record with some fields changed; every check runs again."""
    return type(record)(**{**vars(record), **changes})
