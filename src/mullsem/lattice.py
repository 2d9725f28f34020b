"""Fixpoints by iteration: the one loop that every model runs through.

Finite lattices and their ``lfp``/``gfp``, which no command runs, live
in ``fibration``.
"""

from __future__ import annotations

import operator

from .errors import IterationBudgetExceeded


def iterate(step, start, budget, same=operator.eq):
    """The first iterate x of step from start with same(step(x), x).

    This is the one fixpoint loop of the workbench: the lattice, totality
    and phase fixpoints and the truncated relational chains all run
    through it.  Raises IterationBudgetExceeded, carrying the last
    iterate, when budget steps pass without stabilizing.
    """
    x = start
    for _ in range(budget):
        y = step(x)
        if same(y, x):
            return x
        x = y
    raise IterationBudgetExceeded(budget, last=x)
