"""Finite phase semantics: commutative monoids with poles, facts, validity.

Facts are the bipolar-closed subsets of the monoid; every connective
lands on a fact, and fixpoints are computed by iteration inside the
(finite) fact lattice.  A small counter-model search enumerates
commutative monoids up to isomorphism together with all poles.
"""

from __future__ import annotations

from itertools import islice, permutations
from threading import Lock

from . import _kernels as kernels
from .errors import FileFormatError
from .formula import (Bot, Formula, Lolli, Mu, Neg, Nu, OfCourse, One, Par,
                      Plus, Tensor, Top, WhyNot, With, Zero, check_variance,
                      fold)
from .lattice import iterate


class PhaseSpace:
    """A finite commutative monoid with a pole subset.

    A space is its flat table: element i times element j is element
    ``_table[i * n + j]``, and the pole is a bitmask of indices.  The
    monoid laws are checked exhaustively on construction; a ValueError
    carries the full list of violations.
    """

    __slots__ = ("elements", "unit", "_index", "_table", "_pole_mask",
                 "_unit_index", "_batch")

    def __init__(self, elements, unit, table, pole):
        elements = tuple(elements)
        table = dict(table)
        index = {e: i for i, e in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError("duplicate element names")
        pole = frozenset(pole)
        violations = [] if unit in index else [
            f"unit {unit!r} is not an element"]
        violations += [f"pole member {e!r} is not an element"
                       for e in pole if e not in index]
        violations += [f"product {a!r}*{b!r} has a factor that is not an "
                       "element" for a, b in table
                       if a not in index or b not in index]
        pole_mask = sum(1 << index[e] for e in pole if e in index)
        flat = []
        if not violations:
            for a in elements:
                for b in elements:
                    ab = table.get((a, b), table.get((b, a)))
                    if ab is None:
                        # unit products follow from the unit law
                        ab = b if a == unit else a if b == unit else None
                    if ab is None:
                        violations.append(f"product {a!r}*{b!r} is undefined")
                    elif ab not in index:
                        violations.append(f"product {a!r}*{b!r} = {ab!r} "
                                          "is not an element")
                    else:
                        flat.append(index[ab])
        if not violations:
            self._init(elements, index[unit], tuple(flat), pole_mask, index)
            violations = self._law_violations()
        _refuse(violations)

    def _init(self, elements, unit_index, table, pole_mask, index=None):
        """Set every field of a space; the one place that does."""
        self.elements = elements
        self.unit = elements[unit_index]
        self._index = index or {e: i for i, e in enumerate(elements)}
        self._table = table
        self._unit_index = unit_index
        self._pole_mask = pole_mask
        # the facts depend on the pole: each space folds in its own batch
        self._batch = None

    def _with_pole(self, pole_mask: int) -> "PhaseSpace":
        """The same checked monoid under a pole given as a bitmask of
        indices: the law check is not repeated for each pole."""
        space = object.__new__(PhaseSpace)
        space._init(self.elements, self._unit_index, self._table, pole_mask,
                    self._index)
        return space

    def _law_violations(self):
        """The one check of the monoid laws, on the flat table: the
        unit, commutativity and associativity failures in element order."""
        e = self.elements
        n = len(e)
        rows = [self._table[i * n:i * n + n] for i in range(n)]
        u = self._unit_index
        out = [f"unit law fails on {e[i]!r}" for i in range(n)
               if rows[u][i] != i or rows[i][u] != i]
        out += [f"commutativity fails on {e[i]!r},{e[j]!r}"
                for i in range(n) for j in range(n) if rows[i][j] != rows[j][i]]
        out += [f"associativity fails on {e[i]!r},{e[j]!r},{e[k]!r}"
                for i in range(n) for j in range(n) for k in range(n)
                if rows[rows[i][j]][k] != rows[i][rows[j][k]]]
        return out

    @property
    def size(self):
        return len(self.elements)

    @property
    def pole(self):
        return self.set_of(self._pole_mask)

    def mul(self, a, b):
        n = len(self.elements)
        return self.elements[self._table[self._index[a] * n + self._index[b]]]

    def mask_of(self, subset):
        m = 0
        for e in subset:
            m |= 1 << self._index[e]
        return m

    def set_of(self, mask):
        return frozenset(self._names(mask))

    def _names(self, mask):
        """The elements of a bitmask, in element order."""
        return [e for i, e in enumerate(self.elements) if mask >> i & 1]

    def batch(self) -> "PoleBatch":
        """This space as the batch of its one pole, made on first use.

        Its facts are the bitmasks of their subsets.
        """
        batch = self._batch
        if batch is None:
            with _BATCH_LOCK:  # one batch, so one orthogonal memo
                batch = self._batch
                if batch is None:
                    n = len(self.elements)
                    batch = self._batch = PoleBatch(
                        self._table, n, self._unit_index,
                        tuple(self._pole_mask >> z & 1 for z in range(n)), 1)
        return batch

    def orthogonal_mask(self, mask):
        """The orthogonal of a subset, computed once per space and mask."""
        return self.batch().orthogonal(mask)

    def to_dict(self):
        """Elements, unit, products a*b with a not after b, and pole, all
        in element order."""
        e = self.elements
        n = len(e)
        t = self._table
        return {
            "elements": list(e),
            "unit": self.unit,
            "table": [[e[i], e[j], e[t[i * n + j]]]
                      for i in range(n) for j in range(i, n)],
            "pole": self._names(self._pole_mask),
        }

    def __repr__(self):
        return (f"PhaseSpace({'|'.join(self.elements)}, unit={self.unit}, "
                f"pole={{{','.join(self._names(self._pole_mask))}}})")


def _refuse(violations):
    if violations:
        raise ValueError("not a commutative monoid with pole: "
                         + "; ".join(violations))


_BATCH_LOCK = Lock()


class PoleBatch:
    """Poles over one monoid table, folded through at once.

    A fact is bit-sliced: an int holding one word of ``width`` bits per
    element, word i at bits [i * width, (i + 1) * width), where bit k
    of word i is set when element i is in the fact under the k-th pole.
    Each connective reads and writes bit k of its operands' words only,
    so one fold gives a formula's fact under every pole of the batch,
    and a fixpoint's slice k follows exactly the chain it follows in
    the space of pole k alone.  A parsed space is the batch of its one
    pole, of width 1, whose facts are the bitmasks of their subsets.
    """

    __slots__ = ("table", "size", "unit", "pole_words", "width", "full",
                 "top", "unit_point", "_orthogonals", "_exponential")

    def __init__(self, table, size, unit, pole_words, width):
        self.table = table
        self.size = size
        self.unit = unit
        # bit k of pole_words[z]: z is in the k-th pole
        self.pole_words = pole_words
        self.width = width
        self.full = (1 << width) - 1  # one word, every pole
        self.top = (1 << size * width) - 1
        self.unit_point = self.full << unit * width
        self._orthogonals = {}
        self._exponential = None

    @classmethod
    def every_pole(cls, space: PhaseSpace) -> "PoleBatch":
        """The batch of all 2^n poles of a space's monoid, pole mask P at
        bit P."""
        n = space.size
        width = 1 << n
        full = (1 << width) - 1
        # z is in pole P when bit z of P is set: the bits of full in the
        # upper half of each block of 2^(z+1)
        words = tuple(full // ((1 << (1 << z)) + 1) << (1 << z)
                      for z in range(n))
        return cls(space._table, n, space._unit_index, words, width)

    def orthogonal(self, fact):
        """The orthogonal of a fact, computed once per batch and fact."""
        out = self._orthogonals.get(fact)
        if out is None:
            out = self._orthogonals[fact] = kernels.phase_orthogonal(
                self.table, self.size, self.pole_words, fact, self.width)
        return out

    def closure(self, fact):
        return self.orthogonal(self.orthogonal(fact))

    def product(self, x, y):
        n = self.size
        t = self.table
        b = self.width
        full = self.full
        out = 0
        for i in range(n):
            xi = x >> i * b & full
            if xi:
                row = i * n
                for j in range(n):
                    w = xi & y >> j * b
                    if w:
                        out |= w << t[row + j] * b
        return out

    def exponential(self):
        """The base of ! and ?: the idempotents in the closure of the unit."""
        if self._exponential is None:
            n = self.size
            idempotents = sum(self.full << i * self.width for i in range(n)
                              if self.table[i * n + i] == i)
            self._exponential = idempotents & self.closure(self.unit_point)
        return self._exponential


def fact_closure(space: PhaseSpace, subset) -> frozenset:
    """Double orthogonal of a subset: the least fact containing it."""
    return space.set_of(space.batch().closure(space.mask_of(subset)))


def interpret_phase(space: PhaseSpace, f: Formula, env=None) -> frozenset:
    """The fact denoted by a formula (environment entries must be facts).

    f is variance-checked first, with the names in env as constants,
    so an ill-sorted binder raises VarianceError instead of iterating
    a non-monotone body.
    """
    env = env or {}
    check_variance(dict.fromkeys(env), f)
    env_masks = {name: space.mask_of(s) for name, s in env.items()}
    return space.set_of(fold(f, env_masks, SLICED, space.batch()))


def _fix(batch, node, env):
    start = batch.closure(0) if type(node) is Mu else batch.top
    return iterate(
        lambda cur: fold(node.body, {**env, node.var: cur}, SLICED, batch),
        start, (1 << batch.size) + 2)


# The bit-sliced fact of each constructor under a PoleBatch (the ctx),
# given its operands' facts: union and intersection are | and &.
SLICED = {
    One: lambda b: b.closure(b.unit_point),
    Bot: lambda b: b.orthogonal(b.unit_point),
    Top: lambda b: b.top,
    Zero: lambda b: b.closure(0),
    Neg: lambda b, node, env: b.orthogonal(fold(node.body, env, SLICED, b)),
    Tensor: lambda b, x, y: b.closure(b.product(x, y)),
    # x | y is (x^~ * y^~)^~
    Par: lambda b, x, y: b.orthogonal(b.product(b.orthogonal(x),
                                                b.orthogonal(y))),
    Plus: lambda b, x, y: b.closure(x | y),
    With: lambda b, x, y: x & y,
    # x -o y is (x * y^~)^~
    Lolli: lambda b, x, y: b.orthogonal(b.product(x, b.orthogonal(y))),
    OfCourse: lambda b, x: b.closure(x & b.exponential()),
    # ?x is (!(x^~))^~
    WhyNot: lambda b, x: b.orthogonal(b.closure(
        b.orthogonal(x) & b.exponential())),
    Mu: _fix,
    Nu: _fix,
}


def holds(space: PhaseSpace, f: Formula) -> bool:
    """Validity as membership of the monoid unit in the denoted fact."""
    check_variance({}, f)  # raises unless f is closed and well-sorted
    return bool(fold(f, {}, SLICED, space.batch()) >> space._unit_index & 1)


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
    """The space of a flat index table over the first n of _NAMES, with
    element 0 as its unit; ValueError when the laws fail."""
    space = object.__new__(PhaseSpace)
    space._init(_NAMES[:n], 0, tuple(flat), pole_mask)
    _refuse(space._law_violations())
    return space


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
    check_variance({}, f)  # once per search, not once per space
    table = None
    for space in enumerate_spaces(max_size):
        if space._table is not table:  # a new monoid: fold under all poles
            table = space._table
            batch = PoleBatch.every_pole(space)
            # bit P of the unit's word: f holds under pole P
            unit_word = fold(f, {}, SLICED, batch) >> (
                space._unit_index * batch.width)
        if not unit_word >> space._pole_mask & 1:
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
    products = []  # (line number, the names of a mul line)
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
            products.append((lineno, args))
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
    known = set(elements)
    for lineno, names in products:
        for name in names:
            if name not in known:
                raise FileFormatError(
                    f"line {lineno}: {name!r} is not an element")
    try:
        return PhaseSpace(elements, unit, table, pole)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def render_phase_space(space: PhaseSpace) -> str:
    d = space.to_dict()
    lines = ["elements " + " ".join(d["elements"]), f"unit {d['unit']}"]
    lines += [f"mul {a} {b} {ab}" for a, b, ab in d["table"]]
    lines.append("pole " + " ".join(d["pole"]))
    return "\n".join(lines) + "\n"
