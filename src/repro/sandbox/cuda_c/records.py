"""Slotted record bases for the CUDA-C stack's tokens, nodes and analysis values.

A ``@dataclass`` generates and ``exec``s its methods each time its module is
imported, and a bytecode cache cannot keep them; these bases are compiled
once with the module.  Each record lists its fields in ``__slots__``, in
constructor order, and writes its own ``__init__`` (a frozen one sets its
fields with ``object.__setattr__``).
"""

from __future__ import annotations

__all__ = ["Record", "FrozenRecord"]


class Record:
    """A mutable record with a dataclass's ``repr``, equality and pickling.

    Equality compares the fields not named in ``_uncompared``, and only
    between instances of the same class.  Unhashable, like a mutable
    dataclass.
    """

    __slots__ = ()
    #: Fields kept out of equality and hashing (still in ``repr``).
    _uncompared: tuple[str, ...] = ()

    def _compared(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name not in self._uncompared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # Rebuild through the constructor: a frozen record refuses the
        # attribute writes that pickle's default slot restore would make.
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class FrozenRecord(Record):
    """An immutable, hashable :class:`Record`, like a frozen dataclass."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._compared())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")
