"""Finite complete lattices, monotone operators, and fixpoints by iteration."""

from __future__ import annotations

import operator

from .errors import IterationBudgetExceeded, LatticeError

VALIDATION_SIZE_BOUND = 500


class FiniteLattice:
    """A finite lattice given by an element list and a decidable order.

    Meets and joins are computed by scanning and cached; ``validate``
    checks the lattice laws exhaustively (intended for <= ~500 elements).
    """

    def __init__(self, elements, le, name="lattice"):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise LatticeError("duplicate elements")
        if not self.elements:
            raise LatticeError("a lattice needs at least one element")
        self._le = le
        self.name = name
        self._meet_cache = {}
        self._join_cache = {}
        self.bottom = self._find_bound(lambda a, b: self.le(a, b))
        self.top = self._find_bound(lambda a, b: self.le(b, a))

    def _find_bound(self, below):
        for a in self.elements:
            if all(below(a, b) for b in self.elements):
                return a
        raise LatticeError(f"{self.name}: no global bound")

    def le(self, a, b) -> bool:
        return self._le(a, b)

    def meet(self, a, b):
        key = (a, b)
        if key not in self._meet_cache:
            self._meet_cache[key] = self._bound(a, b, lower=True)
        return self._meet_cache[key]

    def join(self, a, b):
        key = (a, b)
        if key not in self._join_cache:
            self._join_cache[key] = self._bound(a, b, lower=False)
        return self._join_cache[key]

    def _bound(self, a, b, lower):
        if lower:
            cands = [c for c in self.elements if self.le(c, a) and self.le(c, b)]
        else:
            cands = [c for c in self.elements if self.le(a, c) and self.le(b, c)]
        for c in cands:
            if all(self.le(d, c) if lower else self.le(c, d) for d in cands):
                return c
        kind = "meet" if lower else "join"
        raise LatticeError(f"{self.name}: no {kind} of {a!r} and {b!r}")

    def validate(self):
        """Exhaustive check of the poset and lattice laws."""
        els = self.elements
        if len(els) > VALIDATION_SIZE_BOUND:
            raise LatticeError(
                f"{self.name}: validation bound {VALIDATION_SIZE_BOUND} exceeded")
        for a in els:
            if not self.le(a, a):
                raise LatticeError(f"{self.name}: not reflexive at {a!r}")
        for a in els:
            for b in els:
                if a != b and self.le(a, b) and self.le(b, a):
                    raise LatticeError(f"{self.name}: not antisymmetric on {a!r},{b!r}")
                for c in els:
                    if self.le(a, b) and self.le(b, c) and not self.le(a, c):
                        raise LatticeError(
                            f"{self.name}: not transitive on {a!r},{b!r},{c!r}")
        for a in els:
            for b in els:
                self.meet(a, b)  # raises when absent
                self.join(a, b)
        return True

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"FiniteLattice({self.name}, {len(self.elements)} elements)"

    @classmethod
    def chain(cls, n, name=None):
        """The linear order 0 < 1 < ... < n-1."""
        return cls(range(n), lambda a, b: a <= b, name=name or f"chain{n}")

    @classmethod
    def powerset(cls, base, name=None):
        """Subsets of base ordered by inclusion."""
        base = tuple(base)
        subsets = []
        for mask in range(1 << len(base)):
            subsets.append(frozenset(base[i] for i in range(len(base))
                                     if mask >> i & 1))
        return cls(subsets, frozenset.issubset,
                   name=name or f"powerset{len(base)}")


class MonotoneOp:
    """An endofunction on a finite lattice carrying a monotonicity obligation."""

    def __init__(self, lattice: FiniteLattice, fn, name="op"):
        self.lattice = lattice
        self.fn = fn
        self.name = name

    def __call__(self, x):
        return self.fn(x)

    def check_monotone(self):
        """Exhaustive monotonicity check; raises LatticeError on failure."""
        lat = self.lattice
        for a in lat:
            for b in lat:
                if lat.le(a, b) and not lat.le(self.fn(a), self.fn(b)):
                    raise LatticeError(
                        f"{self.name}: not monotone at {a!r} <= {b!r}")
        return True


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


def lfp(op: MonotoneOp):
    """Least fixpoint of a monotone operator, by ascending iteration.

    The result r satisfies op(r) = r and r <= s for every pre-fixpoint
    op(s) <= s.  On a finite lattice the iteration from bottom always
    stabilizes within len(lattice) + 1 steps; the budget guards
    adapters over non-finite fibers.
    """
    return iterate(op, op.lattice.bottom, len(op.lattice) + 1)


def gfp(op: MonotoneOp):
    """Greatest fixpoint, by descending iteration from top (dual of lfp)."""
    return iterate(op, op.lattice.top, len(op.lattice) + 1)
