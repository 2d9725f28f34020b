"""Truncation and iteration budgets threaded through the interpreters."""

from __future__ import annotations

from .record import Record

DEFAULT_DEPTH = 4        # fixpoint unrolling depth k
DEFAULT_BAG = 2          # maximal multiset size m for ! and ?
DEFAULT_CARRIER_CAP = 20000
DEFAULT_ITER_CAP = 10000


class Budgets(Record):
    __slots__ = __match_args__ = ("depth", "bag", "carrier_cap", "iter_cap")

    def __init__(self, depth=DEFAULT_DEPTH, bag=DEFAULT_BAG,
                 carrier_cap=DEFAULT_CARRIER_CAP, iter_cap=DEFAULT_ITER_CAP):
        if depth < 0 or bag < 0:
            raise ValueError("budgets must be non-negative")
        if carrier_cap <= 0 or iter_cap <= 0:
            raise ValueError("caps must be positive")
        super().__init__(depth, bag, carrier_cap, iter_cap)


DEFAULT_BUDGETS = Budgets()
