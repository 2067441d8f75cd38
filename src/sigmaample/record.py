"""The immutable value base shared by the package's data types."""
from operator import attrgetter


class Record:
    """Immutable ``__slots__`` value, equal and hashed by its fields.

    A direct subclass declares each field once, in ``__slots__``, in
    positional order. The one constructor, ``Record.__init__``, takes the
    fields positionally or by keyword and raises ``TypeError`` when one is
    missing, extra, unknown or given twice. A subclass that checks or
    normalises its arguments, or has a default, writes its own ``__init__``
    with the same parameters and ends it with ``super().__init__(...)``. A
    slot whose name starts with an underscore holds a derived cache: it stays
    out of equality, hashing and repr. A subclass that stores its fields in
    another form declares ``_fields`` itself, provides each field as a
    property and builds its slots in its own constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            name = type(self).__name__
            if len(args) > len(fields):
                raise TypeError(f"{name} takes {len(fields)} fields, {len(args)} given")
            values = dict(zip(fields, args))
            for field, value in kwargs.items():
                if field not in fields:
                    raise TypeError(f"{name} has no field {field!r}")
                if field in values:
                    raise TypeError(f"{name} got field {field!r} twice")
                values[field] = value
            missing = [f for f in fields if f not in values]
            if missing:
                raise TypeError(f"{name} is missing {', '.join(missing)}")
            args = [values[f] for f in fields]
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

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
