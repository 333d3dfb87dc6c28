"""The base of the immutable value records (types, expressions, memory items).

A subclass's ``__init__`` sets its fields once, in order, through
``self.__dict__``; after that, assigning or deleting an attribute raises
``AttributeError``. Two records are equal when they are of the same class
and their fields are equal, and a record hashes as the tuple of its fields.
The records are plain classes rather than dataclasses because generating
the dataclass methods dominated the cost of importing the package.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))
