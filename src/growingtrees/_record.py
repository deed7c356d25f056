"""Immutable records: the base class of the package's value types.

A record class lists its fields, in order, as __slots__, and their types in
annotations next to them; a subclass's own __slots__ come after its base's.
Record gives every such class, without generating code for it:

- construction by position or keyword, with the defaults in `_defaults`;
- AttributeError on assignment or deletion;
- equality only with an instance of the very same class, field by field;
- a hash of the field values (TypeError when a field is unhashable);
- the repr "Name(field=value, ...)";
- pickle and copy through __reduce__, which calls the class with the field
  values, so a class that checks its fields in __init__ checks them again.

A class that checks its fields, or whose instances are built in hot loops,
writes its own __init__ and stores each field with object.__setattr__.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values, in order, from a call's arguments and the defaults."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        rest = fields[len(args):]
        for key in kwargs:
            if key not in rest:
                problem = "multiple values for argument" if key in fields else "an unexpected keyword argument"
                raise TypeError(f"{name}() got {problem} {key!r}")
        missing = [key for key in rest if key not in kwargs and key not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        return args + tuple([kwargs[key] if key in kwargs else cls._defaults[key] for key in rest])

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
