"""Weighted matrices and vectors, poles, admissibility and bipolar membership.

Matrices are finite maps on explicit index sets; points are 1-row
matrices.  Membership in a bipolar over the probabilistic pole [0,1]
is decided exactly by linear programming over the polar polytope, with
unbounded directions handled by support analysis instead of numerics.
The ``polar`` and ``admissible`` commands load this module, and not
the polynomial systems of ``newton``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import (DimensionCap, EmptyGenerators, FileFormatError,
                     IndexMismatch)
from .record import Record
from .semiring import BOOL, INF, NINF, RINF, Semiring

VECTOR_ROW = "v"
POLAR_DIMENSION_CAP = 8


class SemiringMatrix:
    """A matrix over a semiring with explicit row and column index sets."""

    __slots__ = ("semiring", "rows", "cols", "entries")

    def __init__(self, semiring: Semiring, rows, cols, entries=()):
        self.semiring = semiring
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        if len(set(self.rows)) != len(self.rows) or \
                len(set(self.cols)) != len(self.cols):
            raise IndexMismatch("duplicate index labels")
        self.entries = {}
        rowset, colset = set(self.rows), set(self.cols)
        for (r, c), v in dict(entries).items():
            if r not in rowset or c not in colset:
                raise IndexMismatch(f"entry ({r!r}, {c!r}) outside the index sets")
            if not semiring.is_value(v):
                raise ValueError(f"{v!r} is not a {semiring.name} value")
            if v != semiring.zero:
                self.entries[(r, c)] = v

    @classmethod
    def _trusted(cls, semiring: Semiring, rows: tuple, cols: tuple,
                 entries: dict) -> "SemiringMatrix":
        """Matrix on duplicate-free index tuples whose entries are known
        to be non-zero semiring values inside rows x cols.

        For results built from validated matrices; everything else goes
        through the checking constructor.
        """
        mat = object.__new__(cls)
        mat.semiring = semiring
        mat.rows = rows
        mat.cols = cols
        mat.entries = entries
        return mat

    def get(self, r, c):
        return self.entries.get((r, c), self.semiring.zero)

    def __eq__(self, other):
        return (isinstance(other, SemiringMatrix)
                and self.semiring is other.semiring
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return (f"SemiringMatrix({self.semiring.name}, "
                f"{len(self.rows)}x{len(self.cols)}, {self.entries})")


def vector(semiring: Semiring, cols, values) -> SemiringMatrix:
    """A point as a 1-row matrix; values may be a mapping or a sequence."""
    cols = tuple(cols)
    if isinstance(values, dict):
        entries = {(VECTOR_ROW, c): v for c, v in values.items()}
    else:
        values = tuple(values)
        if len(values) != len(cols):
            raise IndexMismatch("value count differs from the index set")
        entries = {(VECTOR_ROW, c): v for c, v in zip(cols, values)}
    return SemiringMatrix(semiring, (VECTOR_ROW,), cols, entries)

# ---------------------------------------------------------------------------
# poles and admissibility

class Verdict(Enum):
    ADMISSIBLE = "ADMISSIBLE"
    NOT_ADMISSIBLE = "NOT_ADMISSIBLE"
    INCONCLUSIVE = "INCONCLUSIVE"


class DownsetClosed(Record):
    """Closure evidence: the pole is { v : v <= top }, closed under suprema."""

    __slots__ = __match_args__ = ("top",)


class ChainCounterexample(Record):
    """An ascending chain inside the pole whose supremum escapes it."""

    __slots__ = __match_args__ = ("chain", "sup")


class PoleSpec(Record):
    # member is a predicate on scalars
    __slots__ = __match_args__ = ("name", "semiring", "member", "evidence")
    _defaults = {"evidence": None}

    def contains_zero(self) -> bool:
        return bool(self.member(self.semiring.zero))


class AdmissibilityReport(Record):
    __slots__ = __match_args__ = ("verdict", "reason", "witness_chain",
                                  "witness_sup")
    _defaults = {"witness_chain": (), "witness_sup": None}

    def to_dict(self, semiring=None):
        to_str = semiring.to_str if semiring else str
        return {
            "verdict": self.verdict.value,
            "reason": self.reason,
            "witness_chain": [to_str(v) for v in self.witness_chain],
            "witness_sup": None if self.witness_sup is None
            else to_str(self.witness_sup),
        }


def pcoh_pole() -> PoleSpec:
    return PoleSpec("pcoh", RINF,
                    lambda v: 0 <= v <= 1,
                    DownsetClosed(Fraction(1)))


def nat_pole() -> PoleSpec:
    return PoleSpec("nat", NINF,
                    lambda v: v < INF,
                    ChainCounterexample(tuple(range(6)), INF))


def totality_pole() -> PoleSpec:
    # scalars of the relational model are booleans; the pole keeps only
    # the identity scalar, so the bottom scalar is outside
    return PoleSpec("totality", BOOL, lambda v: v is True, None)


NAMED_POLES = {"pcoh": pcoh_pole, "nat": nat_pole, "totality": totality_pole}


def is_admissible_pole(pole: PoleSpec) -> AdmissibilityReport:
    """Admissibility verdict: bottom membership plus chain-sup closure.

    Closure under suprema of ascending chains is semi-decidable from
    finite evidence, hence the INCONCLUSIVE verdict when the pole
    contains bottom but declares no closure evidence.
    """
    sr = pole.semiring
    if not pole.contains_zero():
        return AdmissibilityReport(
            Verdict.NOT_ADMISSIBLE,
            "the bottom scalar is not in the pole",
            witness_chain=(), witness_sup=sr.zero)
    ev = pole.evidence
    if isinstance(ev, ChainCounterexample):
        chain, sup = ev.chain, ev.sup
        for a, b in zip(chain, chain[1:]):
            if not sr.le(a, b):
                raise ValueError("declared counterexample chain is not ascending")
        if not all(pole.member(v) for v in chain):
            raise ValueError("declared counterexample chain leaves the pole")
        if pole.member(sup):
            raise ValueError("declared counterexample supremum is in the pole")
        return AdmissibilityReport(
            Verdict.NOT_ADMISSIBLE,
            "an ascending chain in the pole has its supremum outside",
            witness_chain=chain, witness_sup=sup)
    if isinstance(ev, DownsetClosed):
        top = ev.top
        if not pole.member(top):
            raise ValueError("declared downset top is not in the pole")
        for v in sr.sample_values():
            if sr.le(v, top) != bool(pole.member(v)):
                raise ValueError(f"pole is not the downset of {top!r} at {v!r}")
        return AdmissibilityReport(
            Verdict.ADMISSIBLE,
            "contains bottom and is a downset, so chain suprema stay inside")
    return AdmissibilityReport(
        Verdict.INCONCLUSIVE,
        "contains bottom, but no closure evidence is declared")


# ---------------------------------------------------------------------------
# bipolar membership over the probabilistic pole

def bipolar_member(generators, x) -> bool:
    """Decide x in G^~~ for the pole [0,1]: sup { <x,y> : y in polar(G) } <= 1.

    Inputs are sequences of non-negative exact rationals of equal
    length.  Coordinates outside the support of every generator make
    the supremum unbounded unless x vanishes there.
    """
    gens = [tuple(Fraction(v) for v in g) for g in generators]
    point = tuple(Fraction(v) for v in x)
    if not gens:
        raise EmptyGenerators()
    dim = len(point)
    if dim > POLAR_DIMENSION_CAP:
        raise DimensionCap(dim, POLAR_DIMENSION_CAP)
    if any(len(g) != dim for g in gens):
        raise IndexMismatch("generator dimension differs from the point")
    if any(v < 0 for g in gens for v in g) or any(v < 0 for v in point):
        raise ValueError("entries must be non-negative rationals")

    live = [j for j in range(dim) if any(g[j] > 0 for g in gens)]
    dead = [j for j in range(dim) if j not in live]
    if any(point[j] > 0 for j in dead):
        return False  # the polar is unbounded in a direction x sees
    if not live:
        return True  # x vanishes everywhere the polar is unconstrained

    a_rows = [[g[j] for j in live] for g in gens]
    b = [Fraction(1)] * len(gens)
    c = [point[j] for j in live]
    # imported here: admissible loads this module but runs no LP
    from .simplex import OPTIMAL, UNBOUNDED, simplex_maximize
    status, value, _ = simplex_maximize(a_rows, b, c)
    if status == UNBOUNDED:
        return False
    assert status == OPTIMAL
    return value <= 1


def bipolar_member_matrix(generators: SemiringMatrix,
                          x: SemiringMatrix) -> bool:
    """Matrix-level wrapper: rows of ``generators`` are the generators."""
    if generators.cols != x.cols:
        raise IndexMismatch("generators and point on different index sets")
    infinite = [(f"generator {r}", c)
                for (r, c), v in generators.entries.items() if v == INF]
    infinite += [("the point", c) for (_, c), v in x.entries.items()
                 if v == INF]
    if infinite:
        name, col = infinite[0]
        raise ValueError(f"{name} is inf at {col}: polar membership needs "
                         "finite rational entries")
    gens = [[generators.get(r, c) for c in generators.cols]
            for r in generators.rows]
    point = [x.get(VECTOR_ROW, c) for c in x.cols]
    return bipolar_member(gens, point)


# ---------------------------------------------------------------------------
# file formats

def parse_matrix(text: str) -> SemiringMatrix:
    """Matrix file: ``rows``/``cols`` headers then ``row col value`` triples,
    with values in the completed non-negative reals.  Each header may
    appear once, a label once in its header, and an entry on one line."""
    headers = {}
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("rows", "cols"):
            if parts[0] in headers:
                raise FileFormatError(f"line {lineno}: repeated "
                                      f"'{parts[0]}' header")
            labels = parts[1:]
            repeated = [x for i, x in enumerate(labels) if x in labels[:i]]
            if repeated:
                raise FileFormatError(f"line {lineno}: repeated label "
                                      f"{repeated[0]!r} in '{parts[0]}'")
            headers[parts[0]] = tuple(labels)
        elif len(parts) == 3:
            triples.append((lineno, parts))
        else:
            raise FileFormatError(f"line {lineno}: expected 'row col value'")
    rows, cols = headers.get("rows"), headers.get("cols")
    if rows is None or cols is None:
        raise FileFormatError("missing 'rows' or 'cols' header")
    entries = {}
    for lineno, (r, c, v) in triples:
        if r not in rows or c not in cols:
            raise FileFormatError(f"line {lineno}: unknown index {r!r},{c!r}")
        if (r, c) in entries:
            raise FileFormatError(f"line {lineno}: repeated entry {r!r},{c!r}")
        try:
            entries[(r, c)] = RINF.parse(v)
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from exc
    return SemiringMatrix(RINF, rows, cols, entries)


def parse_vector(text: str) -> SemiringMatrix:
    mat = parse_matrix(text)
    if len(mat.rows) != 1:
        raise FileFormatError("a vector file must have exactly one row")
    values = {c: mat.get(mat.rows[0], c) for c in mat.cols}
    return vector(RINF, mat.cols, values)
