"""Finite phase semantics: commutative monoids with poles, facts, validity.

Facts are the bipolar-closed subsets of the monoid; every connective
lands on a fact, and fixpoints are computed by iteration inside the
(finite) fact lattice.  A small counter-model search enumerates
commutative monoids up to isomorphism together with all poles.
"""

from __future__ import annotations

from itertools import islice, permutations

from . import _kernels as kernels
from .errors import FileFormatError, UnboundVariable
from .formula import (Bot, Formula, Lolli, Mu, Neg, Nu, OfCourse, One, Par,
                      Plus, Tensor, Top, WhyNot, With, Zero, check_variance,
                      fold, free_vars)
from .lattice import iterate


class PhaseSpace:
    """A finite commutative monoid with a pole subset.

    The monoid laws are checked exhaustively on construction; a
    ValueError carries the full list of violations.
    """

    __slots__ = ("elements", "unit", "pole", "_index", "_table", "_pole_mask",
                 "_unit_index", "_exponential", "_orthogonals")

    def __init__(self, elements, unit, table, pole):
        self.elements = tuple(elements)
        self.unit = unit
        table = dict(table)
        self.pole = frozenset(pole)
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        if len(self._index) != n:
            raise ValueError("duplicate element names")
        violations = []
        if unit not in self._index:
            violations.append(f"unit {unit!r} is not an element")
        for e in self.pole:
            if e not in self._index:
                violations.append(f"pole member {e!r} is not an element")
        flat = [0] * (n * n)
        if not violations:
            for a in self.elements:
                for b in self.elements:
                    if (a, b) not in table and (b, a) not in table:
                        # unit products follow from the unit law
                        if a == unit:
                            table[(a, b)] = b
                        elif b == unit:
                            table[(a, b)] = a
                        else:
                            violations.append(f"product {a!r}*{b!r} is undefined")
                            continue
                    ab = table.get((a, b), table.get((b, a)))
                    if ab not in self._index:
                        violations.append(f"product {a!r}*{b!r} = {ab!r} "
                                          "is not an element")
                        continue
                    flat[self._index[a] * n + self._index[b]] = self._index[ab]
            for (a, b), ab in table.items():
                if (b, a) in table and table[(b, a)] != ab:
                    violations.append(f"commutativity fails on {a!r},{b!r}")
        self._table = tuple(flat)
        self._unit_index = self._index.get(unit, 0)
        self._exponential = None
        self._orthogonals = {}
        self._pole_mask = 0
        for e in self.pole:
            if e in self._index:
                self._pole_mask |= 1 << self._index[e]
        if not violations:
            violations.extend(self._law_violations())
        if violations:
            raise ValueError("not a commutative monoid with pole: "
                             + "; ".join(violations))

    def _with_pole(self, pole_mask: int) -> "PhaseSpace":
        """The same monoid with the pole given as a bitmask of indices.

        Shares this space's already checked table, so the law check of
        the public constructor is not repeated for each pole.
        """
        space = object.__new__(PhaseSpace)
        space.elements = self.elements
        space.unit = self.unit
        space._index = self._index
        space._table = self._table
        space._unit_index = self._unit_index
        space._pole_mask = pole_mask
        # the base of ! and ? and the orthogonals depend on the pole
        space._exponential = None
        space._orthogonals = {}
        space.pole = self.set_of(pole_mask)
        return space

    def _law_violations(self):
        out = []
        n = len(self.elements)
        t = self._table
        u = self._unit_index
        for i in range(n):
            if t[u * n + i] != i or t[i * n + u] != i:
                out.append(f"unit law fails on {self.elements[i]!r}")
        for i in range(n):
            for j in range(n):
                if t[i * n + j] != t[j * n + i]:
                    out.append(f"commutativity fails on "
                               f"{self.elements[i]!r},{self.elements[j]!r}")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[t[i * n + j] * n + k] != t[i * n + t[j * n + k]]:
                        out.append(
                            "associativity fails on "
                            f"{self.elements[i]!r},{self.elements[j]!r},"
                            f"{self.elements[k]!r}")
        return out

    @property
    def size(self):
        return len(self.elements)

    def mul(self, a, b):
        n = len(self.elements)
        return self.elements[self._table[self._index[a] * n + self._index[b]]]

    def mask_of(self, subset):
        m = 0
        for e in subset:
            m |= 1 << self._index[e]
        return m

    def set_of(self, mask):
        return frozenset(e for i, e in enumerate(self.elements) if mask >> i & 1)

    def orthogonal_mask(self, mask):
        """The orthogonal of a subset, computed once per space and mask."""
        out = self._orthogonals.get(mask)
        if out is None:
            out = self._orthogonals[mask] = kernels.phase_orthogonal(
                self._table, len(self.elements), self._pole_mask, mask)
        return out

    def closure_mask(self, mask):
        return self.orthogonal_mask(self.orthogonal_mask(mask))

    def product_mask(self, xm, ym):
        n = len(self.elements)
        out = 0
        for i in range(n):
            if not xm >> i & 1:
                continue
            row = i * n
            m = ym
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                out |= 1 << self._table[row + j]
        return out

    def exponential_mask(self):
        """The base of ! and ?: the idempotents in the closure of the unit."""
        if self._exponential is None:
            n = len(self.elements)
            idempotents = sum(1 << i for i in range(n)
                              if self._table[i * n + i] == i)
            self._exponential = idempotents & self.closure_mask(
                1 << self._unit_index)
        return self._exponential

    def to_dict(self):
        return {
            "elements": list(self.elements),
            "unit": self.unit,
            "table": [[a, b, self.mul(a, b)] for a in self.elements
                      for b in self.elements if
                      self.elements.index(a) <= self.elements.index(b)],
            "pole": sorted(self.pole, key=self.elements.index),
        }

    def __repr__(self):
        return (f"PhaseSpace({'|'.join(self.elements)}, unit={self.unit}, "
                f"pole={{{','.join(sorted(self.pole, key=self.elements.index))}}})")


def fact_closure(space: PhaseSpace, subset) -> frozenset:
    """Double orthogonal of a subset: the least fact containing it."""
    return space.set_of(space.closure_mask(space.mask_of(subset)))


def orthogonal_fact(space: PhaseSpace, subset) -> frozenset:
    return space.set_of(space.orthogonal_mask(space.mask_of(subset)))


def interpret_phase(space: PhaseSpace, f: Formula, env=None) -> frozenset:
    """The fact denoted by a formula (environment entries must be facts).

    f is variance-checked first, with the names in env as constants,
    so an ill-sorted binder raises VarianceError instead of iterating
    a non-monotone body.
    """
    env = env or {}
    check_variance(dict.fromkeys(env), f)
    env_masks = {name: space.mask_of(s) for name, s in env.items()}
    return space.set_of(fold(f, env_masks, PHASE, space))


def _fix(space, node, env):
    least = type(node) is Mu
    start = space.closure_mask(0) if least else (1 << space.size) - 1
    return iterate(
        lambda cur: fold(node.body, {**env, node.var: cur}, PHASE, space),
        start, (1 << space.size) + 2)


# The fact of each constructor as a bitmask over the space's elements,
# given its operands' facts.  ctx is the PhaseSpace.
PHASE = {
    One: lambda space: space.closure_mask(1 << space._unit_index),
    Bot: lambda space: space.orthogonal_mask(1 << space._unit_index),
    Top: lambda space: (1 << space.size) - 1,
    Zero: lambda space: space.closure_mask(0),
    Neg: lambda space, node, env: space.orthogonal_mask(
        fold(node.body, env, PHASE, space)),
    Tensor: lambda space, a, b: space.closure_mask(space.product_mask(a, b)),
    # a | b is (a^~ * b^~)^~
    Par: lambda space, a, b: space.orthogonal_mask(space.product_mask(
        space.orthogonal_mask(a), space.orthogonal_mask(b))),
    Plus: lambda space, a, b: space.closure_mask(a | b),
    With: lambda space, a, b: a & b,
    # a -o b is (a * b^~)^~
    Lolli: lambda space, a, b: space.orthogonal_mask(space.product_mask(
        a, space.orthogonal_mask(b))),
    OfCourse: lambda space, a: space.closure_mask(
        a & space.exponential_mask()),
    # ?a is (!(a^~))^~
    WhyNot: lambda space, a: space.orthogonal_mask(space.closure_mask(
        space.orthogonal_mask(a) & space.exponential_mask())),
    Mu: _fix,
    Nu: _fix,
}


def holds(space: PhaseSpace, f: Formula) -> bool:
    """Validity as membership of the monoid unit in the denoted fact."""
    _check_formula(f)
    return _holds(space, f)


def _check_formula(f):
    """Raise unless f is closed and well-sorted."""
    free = free_vars(f)
    if free:
        raise UnboundVariable(sorted(free)[0])
    check_variance({}, f)


def _holds(space, f) -> bool:
    """holds for a formula already known to be closed."""
    return bool(fold(f, {}, PHASE, space) >> space._unit_index & 1)


# ---------------------------------------------------------------------------
# enumeration of small spaces and counter-model search

_NAMES = ("e", "a", "b", "c", "d", "f", "g", "h")

# the largest monoid order a counter-model search goes through
MAX_SEARCH_SIZE = 6


def enumerate_commutative_monoids(n: int):
    """Multiplication tables of the commutative monoids of order n, up to
    isomorphism, as flat index tuples with element 0 as the unit.

    Orderly generation: the cells above the diagonal are filled row by
    row, and at the end of each row a partial table is dropped as soon
    as some relabelling fixing the unit gives a lexicographically
    smaller prefix of determined cells.  The tables that survive are
    the minimal relabellings of their classes, produced in increasing
    order.
    """
    if n < 1:
        return []
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    # symmetric flat table, -1 for a product not chosen yet; row and
    # column 0 hold the unit law
    table = [-1] * (n * n)
    for i in range(n):
        table[i] = table[i * n] = i
    pairs = [(a * n + b, a * n, b * n)
             for a in range(1, n) for b in range(1, n)]

    def associative_at(i, j):
        # Only triples with a lookup reading the new cell (i, j) or (j, i)
        # can newly fail: every other one was checked when its last cell
        # was set.  In a commutative table (a, b, c) and (c, b, a) state
        # the same equation, so the triples whose ab or (ab)c lookup reads
        # the cell cover, by their mirrors, those reading it in bc or a(bc).
        t = table
        for x, y in {(i, j), (j, i)}:
            xy = t[x * n + y]
            for z in range(1, n):
                yz = t[y * n + z]
                if yz < 0:
                    continue
                left = t[xy * n + z]
                right = t[x * n + yz]
                if left >= 0 and right >= 0 and left != right:
                    return False
        for c in {i, j}:
            ab = i + j - c
            left = t[ab * n + c]
            for a_b, a_row, b_row in pairs:
                if t[a_b] == ab:
                    bc = t[b_row + c]
                    if bc >= 0:
                        right = t[a_row + bc]
                        if right >= 0 and right != left:
                            return False
        return True

    # A table's lexicographic order is that of its cells above the
    # diagonal, in filling order: rows and columns 0 are fixed, and a
    # cell below the diagonal repeats an earlier one.  A relabelling
    # fixing the unit sends element i to position[i]; its reads pair
    # each cell of the relabelled table with the cell it is read from.
    relabellings = []
    for perm in islice(permutations(range(1, n)), 1, None):  # no identity
        position = (0,) + perm
        source = [0] * n
        for i, p in enumerate(position):
            source[p] = i
        relabellings.append((position, [(i * n + j, source[i] * n + source[j])
                                        for i, j in cells]))

    def minimal():
        t = table
        for position, reads in relabellings:
            for k, s in reads:
                mine = t[k]
                theirs = t[s]
                if mine < 0 or theirs < 0:
                    break  # the rest of the prefix is not determined
                theirs = position[theirs]
                if theirs != mine:
                    if theirs < mine:
                        return False
                    break
        return True

    found = []

    def fill(k):
        if k == len(cells):
            found.append(tuple(table))
            return
        i, j = cells[k]
        for val in range(n):
            table[i * n + j] = table[j * n + i] = val
            if associative_at(i, j) and (j < n - 1 or minimal()):
                fill(k + 1)
        table[i * n + j] = table[j * n + i] = -1

    fill(0)
    return found


def space_from_table(flat, n, pole_mask) -> PhaseSpace:
    names = _NAMES[:n]
    table = {(names[i], names[j]): names[flat[i * n + j]]
             for i in range(n) for j in range(n)}
    pole = [names[i] for i in range(n) if pole_mask >> i & 1]
    return PhaseSpace(names, names[0], table, pole)


def enumerate_spaces(max_size: int):
    """All (monoid up to iso, pole) pairs with at most max_size elements."""
    for n in range(1, max_size + 1):
        for flat in enumerate_commutative_monoids(n):
            monoid = space_from_table(flat, n, 0)
            for pole_mask in range(1 << n):
                yield monoid._with_pole(pole_mask)


def search_counter_model(f: Formula, max_size: int = 5):
    """First enumerated space in which f does not hold, or None."""
    if max_size > MAX_SEARCH_SIZE:
        raise ValueError("counter-model search is capped at monoids of "
                         f"size {MAX_SEARCH_SIZE}")
    _check_formula(f)  # once per search, not once per space
    for space in enumerate_spaces(max_size):
        if not _holds(space, f):
            return space
    return None


# ---------------------------------------------------------------------------
# the phase-space file format

def parse_phase_space(text: str) -> PhaseSpace:
    """Parse the structured-text format:

        elements e a
        unit e
        mul a a e        # one line per product; symmetric pairs may be omitted
        pole e

    Raises FileFormatError with a law-violation report when the table is
    not a commutative monoid.
    """
    elements = None
    unit = None
    pole = None
    table = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "elements":
            elements = tuple(args)
        elif kind == "unit":
            if len(args) != 1:
                raise FileFormatError(f"line {lineno}: unit takes one name")
            unit = args[0]
        elif kind == "mul":
            if len(args) != 3:
                raise FileFormatError(f"line {lineno}: mul takes three names")
            a, b, c = args
            if (a, b) in table and table[(a, b)] != c:
                raise FileFormatError(
                    f"line {lineno}: conflicting product for {a} {b}")
            table[(a, b)] = c
        elif kind == "pole":
            pole = tuple(args)
        else:
            raise FileFormatError(f"line {lineno}: unknown directive {kind!r}")
    if elements is None:
        raise FileFormatError("missing 'elements' line")
    if unit is None:
        raise FileFormatError("missing 'unit' line")
    if pole is None:
        raise FileFormatError("missing 'pole' line")
    try:
        return PhaseSpace(elements, unit, table, pole)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def render_phase_space(space: PhaseSpace) -> str:
    lines = ["elements " + " ".join(space.elements), f"unit {space.unit}"]
    for i, a in enumerate(space.elements):
        for b in space.elements[i:]:
            lines.append(f"mul {a} {b} {space.mul(a, b)}")
    lines.append("pole " + " ".join(sorted(space.pole,
                                           key=space.elements.index)))
    return "\n".join(lines) + "\n"
