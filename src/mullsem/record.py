"""Frozen, slotted value classes without ``dataclasses``, whose import and
generated methods cost a fresh CLI interpreter more than many answers."""

from operator import attrgetter


class Record:
    """Base of frozen, slotted value classes.

    A subclass lists its fields in ``__match_args__``, declares the ones
    it adds in ``__slots__``, and may give defaults in ``_defaults``.
    Instances compare and hash by their field values, never equal an
    instance of another class, and raise
    ``dataclasses.FrozenInstanceError`` on assignment or deletion.
    """

    __slots__ = ()
    __match_args__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        fields = self.__match_args__
        values = {**self._defaults, **kwargs, **dict(zip(fields, args))}
        if len(args) > len(fields) or values.keys() != set(fields) \
                or kwargs.keys() & set(fields[:len(args)]):
            raise TypeError(f"{type(self).__qualname__} takes the fields "
                            f"{fields}, got {args!r} and {kwargs!r}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # attrgetter returns the tuple of two or more fields' values
        if len(cls.__match_args__) > 1:
            cls._get_values = staticmethod(attrgetter(*cls.__match_args__))

    def _values(self):
        return tuple([getattr(self, name) for name in self.__match_args__])

    _get_values = staticmethod(_values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get_values(self) == other._get_values(other)

    def __hash__(self):
        return hash(self._get_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
