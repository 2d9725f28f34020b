"""Frozen, slotted value classes without ``dataclasses``, whose import and
generated methods cost a fresh CLI interpreter more than many answers."""


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

    def _values(self):
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

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
