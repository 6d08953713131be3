"""The base class of the package's immutable value classes."""

__all__ = ["Record", "setfield"]

setfield = object.__setattr__


class Record:
    """Field-wise equality, hashing, repr, immutability and pickling.

    A subclass lists its fields, in order, as both ``__slots__`` and
    ``__match_args__``, and its own ``__init__`` stores them with
    ``setfield``; after that, assigning or deleting any attribute raises
    ``AttributeError``.  Two records are equal when they are of the same
    class and their field values are equal, and equal records hash
    alike.  The repr is ``Name(field=value, ...)``; nested records are
    expanded with an explicit stack, so arbitrarily deep values print.
    Pickling and copying rebuild a record by calling its class on its
    field values.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        out: list[str] = []
        stack: list = [self]  # records still to expand, and finished text
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            parts = [f"{type(item).__qualname__}("]
            for k, name in enumerate(item.__match_args__):
                value = getattr(item, name)
                parts.append(f"{', ' if k else ''}{name}=")
                parts.append(value if type(value).__repr__ is Record.__repr__ else repr(value))
            parts.append(")")
            stack += reversed(parts)
        return "".join(out)
