"""Immutable value records, the package's frozen value classes.

A subclass of ``Record`` declares its fields as class annotations, in
order; a class attribute of the same name is that field's default.  The
instance takes the fields positionally or by name, runs
``__post_init__`` if the class defines one (which may normalize a field
with ``object.__setattr__``), and is then immutable; two records are equal
when they are of the same class with equal fields, and hash alike then.

This stands in for ``dataclasses.dataclass(frozen=True)``: importing
``dataclasses`` imports ``inspect``, ``ast`` and ``dis``, which cost every
command about 0.9 MB of resident memory and several ms of start-up.
"""


class Record:
    __slots__ = ()
    _fields = ()
    _field_set = frozenset()
    _defaults = {}
    _post_init = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [f for f in cls.__dict__.get("__annotations__", ()) if f not in cls._fields]
        cls._fields = cls._fields + tuple(own)
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        # each field is set as an attribute, not through self.__dict__,
        # which would turn the instance's inline attribute values into a
        # plain dict and slow every later attribute read
        fields = self._fields
        if len(args) > len(fields) or kwargs and not (
                kwargs.keys() <= self._field_set and kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
        for f, value in zip(fields, args):
            object.__setattr__(self, f, value)
        for f, value in kwargs.items():
            object.__setattr__(self, f, value)
        if len(args) + len(kwargs) < len(fields):
            for f in fields[len(args):]:
                if f not in kwargs:
                    if f not in self._defaults:
                        raise TypeError(f"{type(self).__name__}() missing field {f!r}")
                    object.__setattr__(self, f, self._defaults[f])
        if self._post_init is not None:
            self._post_init()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable record")

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
