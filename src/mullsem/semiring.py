"""Continuous semirings: Bool, completed naturals, completed non-negative reals.

The multiplication convention is 0 * inf = 0 and x * inf = inf for
x > 0, which keeps matrix composition total.  The real semiring works
on exact rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


class Semiring:
    """Ordered semiring with suprema of ascending sequences."""

    name = "semiring"
    zero = None
    one = None

    def is_value(self, v) -> bool:
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def le(self, a, b) -> bool:
        raise NotImplementedError

    def to_str(self, v) -> str:
        return str(v)

    def sum(self, values):
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    def sample_values(self):
        raise NotImplementedError

    def __repr__(self):
        return f"Semiring({self.name})"

    def __reduce__(self):
        # the module constant bound to this object, so that an unpickled
        # matrix keeps the identity checks on its semiring
        return next(k for k, v in globals().items() if v is self)


class BoolSemiring(Semiring):
    name = "bool"
    zero = False
    one = True

    def is_value(self, v):
        return isinstance(v, bool)

    def add(self, a, b):
        return a or b

    def mul(self, a, b):
        return a and b

    def le(self, a, b):
        return (not a) or b

    def to_str(self, v):
        return "1" if v else "0"

    def sample_values(self):
        return [False, True]


class _ExtendedNumeric(Semiring):
    """Shared arithmetic for the completed numeric semirings.

    inf is taken before adding or multiplying: Python would convert an
    exact value to float first, which overflows past the largest float.
    """

    def add(self, a, b):
        return INF if INF in (a, b) else a + b

    def mul(self, a, b):
        if a == self.zero or b == self.zero:
            return self.zero
        return INF if INF in (a, b) else a * b

    def le(self, a, b):
        return a <= b


class NInfSemiring(_ExtendedNumeric):
    name = "ninf"
    zero = 0
    one = 1

    def is_value(self, v):
        return v == INF or (isinstance(v, int) and not isinstance(v, bool)
                            and v >= 0)

    def sample_values(self):
        return [0, 1, 2, 3, 7, INF]


class RInfSemiring(_ExtendedNumeric):
    name = "rinf"
    zero = Fraction(0)
    one = Fraction(1)

    def is_value(self, v):
        return v == INF or (isinstance(v, Fraction) and v >= 0)

    def parse(self, text):
        if text == "inf":
            return INF
        v = Fraction(text)
        if v < 0:
            raise ValueError(f"negative value {v} is not in the semiring")
        return v

    def sample_values(self):
        return [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                Fraction(7, 3), INF]


BOOL = BoolSemiring()
NINF = NInfSemiring()
RINF = RInfSemiring()

