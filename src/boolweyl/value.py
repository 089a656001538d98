"""The immutable base of every value class in the package.

A value class lists its fields in __slots__, checks its arguments in
__init__, and stores each field with its slot's setter (see `setters`) and
the tuple of all of them, in __slots__ order, with _set_key.  Equality,
hash, repr, pickling and copying all read that one tuple, so nothing is
compiled per class.  A subclass that defines its own __eq__ or __hash__
keeps it.
"""

from __future__ import annotations


class Value:
    __slots__ = ("_key",)

    def __init_subclass__(cls) -> None:
        # Each class gets its own copy of the comparison code: CPython 3.11+
        # specialises each attribute load of a code object for one class, so
        # on a tree of mixed nodes one shared copy keeps missing its cache
        # (tree == took 1.5 times as long with one copy as with one per class).
        for name in ("__eq__", "__hash__"):
            if name not in cls.__dict__:
                method = Value.__dict__[name]
                setattr(cls, name, type(method)(method.__code__.replace(), method.__globals__, name))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the constructor rebuilds the value and runs its checks again
        return type(self), self._key


_set_key = Value._key.__set__


def setters(cls: type) -> tuple:
    """The setter of each slot of `cls`, in __slots__ order.  It stores past
    the raising __setattr__, and costs less than object.__setattr__."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)
