"""The immutable value base shared by the package's data types."""
from operator import attrgetter


class Record:
    """Immutable ``__slots__`` value, equal and hashed by its fields.

    A direct subclass lists its fields in ``__slots__`` in positional order
    and sets them in ``__init__`` with ``object.__setattr__``. A slot whose
    name starts with an underscore holds a derived cache: it stays out of
    equality, hashing and repr. A subclass that stores its fields in another
    form declares ``_fields`` itself and provides each field as a property.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
