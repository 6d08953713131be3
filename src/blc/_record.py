"""The base class of the package's immutable value classes."""

__all__ = ["Record", "setfield"]

setfield = object.__setattr__


class Record:
    """Field-wise equality, hashing, repr, immutability and pickling.

    A subclass lists its fields, in order, as ``__slots__`` and
    ``__match_args__``.  The generic ``__init__`` takes them by position
    or keyword and raises ``TypeError`` for a missing, extra, unknown or
    repeated one.  The classes built per node of a term or type store
    theirs with ``setfield`` in their own ``__init__`` at a third of the
    cost (``Index`` checks its argument there).  Fields cannot be
    reassigned.

    ``==`` (same class only), ``hash``, ``repr`` and pickling share one
    walk, ``_flat``: each record's class, then its fields in preorder,
    nested records expanded in place with an explicit stack, so any
    depth is handled.  Tuples and other values are leaves; no field
    holds a class.  A pickle or copy is rebuilt from the walk as a tree,
    so a subrecord shared by several fields comes back unshared.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} fields, got {len(args)}")
        for field, value in zip(names, args):
            if field in kwargs:
                raise TypeError(f"{type(self).__name__}() got field {field!r} twice")
            setfield(self, field, value)
        for field in names[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{type(self).__name__}() missing field {field!r}")
            setfield(self, field, kwargs.pop(field))
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got an unknown field {next(iter(kwargs))!r}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _flat(self) -> list:
        out: list = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, Record):
                out.append(type(item))
                for name in reversed(item.__match_args__):
                    stack.append(getattr(item, name))
            else:
                out.append(item)
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._flat() == other._flat()

    def __hash__(self):
        return hash(tuple(self._flat()))

    def __reduce__(self):
        return _rebuild, (self._flat(),)

    def __repr__(self):
        out: list[str] = []
        left: list[list[str]] = []  # per open record, its fields still to print, last first
        for item in self._flat():
            if left:
                out.append(f"{left[-1].pop()}=")
            if isinstance(item, type):
                out.append(f"{item.__qualname__}(")
                left.append(list(reversed(item.__match_args__)))
                continue
            out.append(repr(item))
            while left and not left[-1]:
                left.pop()
                out.append(")")
            if left:
                out.append(", ")
        return "".join(out)


def _rebuild(flat: list) -> Record:
    """The record whose ``_flat`` walk is ``flat``."""
    stack: list = []  # finished values, the next field on top
    for item in reversed(flat):
        if isinstance(item, type):
            item = item(*[stack.pop() for _ in item.__match_args__])
        stack.append(item)
    return stack[0]
