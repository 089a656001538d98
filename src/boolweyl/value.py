"""The immutable base of every value class in the package.

A value class lists its fields in __slots__, checks its arguments in
__init__, and stores each field with its slot's setter (see `setters`).
The slots are the only store: each class gets one getter of the tuple of
its fields, in __slots__ order, and equality, hash, repr, pickling and
copying all read that tuple.  A subclass that defines its own __eq__ or
__hash__ keeps it.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the tuple of the class's fields: attrgetter returns a tuple only for two names or more
        names = cls.__slots__
        if len(names) > 1:
            fields = attrgetter(*names)
        elif names:
            fields = lambda value, get=attrgetter(*names): (get(value),)
        else:
            fields = lambda value: ()
        cls._fields = staticmethod(fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the constructor rebuilds the value and runs its checks again
        return type(self), self._fields(self)


def setters(cls: type) -> tuple:
    """The setter of each slot of `cls`, in __slots__ order.  It stores past
    the raising __setattr__, and costs less than object.__setattr__."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)
