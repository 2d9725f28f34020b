"""Weighted relations over continuous semirings, poles, and fixpoints.

Matrices are finite maps on explicit index sets; points are 1-row
matrices.  Membership in a bipolar over the probabilistic pole [0,1]
is decided exactly by linear programming over the polar polytope, with
unbounded directions handled by support analysis instead of numerics.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import product as iproduct

from .errors import (BudgetExceeded, DimensionCap, EmptyGenerators,
                     FileFormatError, IndexMismatch, PreconditionFailed)
from .record import Record
from .semiring import BOOL, INF, NINF, RFLOAT, RINF, Semiring
from .simplex import OPTIMAL, UNBOUNDED, simplex_maximize

VECTOR_ROW = "v"
POLAR_DIMENSION_CAP = 8
# bits of a numerator or denominator of an exact fixpoint iterate; on a
# polynomial system they can double at every step
EXACT_BITS_CAP = 1 << 16


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


def identity_matrix(semiring: Semiring, index) -> SemiringMatrix:
    index = tuple(index)
    return SemiringMatrix(semiring, index, index,
                          {(i, i): semiring.one for i in index})


def compose(f: SemiringMatrix, g: SemiringMatrix) -> SemiringMatrix:
    """Matrix composite: (g after f)(a, c) = sum_b f(a, b) * g(b, c)."""
    if f.semiring is not g.semiring:
        raise IndexMismatch("matrices over different semirings")
    if f.cols != g.rows:
        raise IndexMismatch("column index of the first matrix differs "
                            "from row index of the second")
    sr = f.semiring
    out = {}
    by_row = {}
    for (b, c), v in g.entries.items():
        by_row.setdefault(b, []).append((c, v))
    for (a, b), u in f.entries.items():
        for c, v in by_row.get(b, ()):
            key = (a, c)
            out[key] = sr.add(out.get(key, sr.zero), sr.mul(u, v))
    # a product can still be zero (a float underflow)
    return SemiringMatrix._trusted(
        sr, f.rows, g.cols, {k: v for k, v in out.items() if v != sr.zero})


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


def orthogonal_pair(x: SemiringMatrix, y: SemiringMatrix, pole) -> bool:
    """True iff the scalar pairing sum_a x_a * y_a lands in the pole."""
    if x.cols != y.cols:
        raise IndexMismatch("vectors on different index sets")
    sr = x.semiring
    total = sr.sum(sr.mul(x.get(VECTOR_ROW, a), y.get(VECTOR_ROW, a))
                   for a in x.cols)
    return pole.member(total)


# ---------------------------------------------------------------------------
# cross-model bridge with the relational model

def relation_to_matrix(rel) -> SemiringMatrix:
    """Boolean matrix of a relation from the relational model."""
    # a relation's pairs lie in its carriers, whose elements are distinct
    return SemiringMatrix._trusted(BOOL, rel.src.elems, rel.tgt.elems,
                                   {(a, b): True for a, b in rel.pairs})


def matrix_to_relation(mat: SemiringMatrix):
    from .relmodel import Carrier, Relation
    if mat.semiring is not BOOL:
        raise ValueError("only boolean matrices induce relations")
    return Relation._trusted(Carrier(mat.rows), Carrier(mat.cols),
                             frozenset(k for k, v in mat.entries.items() if v))


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
                    lambda v: v is not INF and 0 <= v <= 1,
                    DownsetClosed(Fraction(1)))


def nat_pole() -> PoleSpec:
    return PoleSpec("nat", NINF,
                    lambda v: v is not INF,
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
    declares no closure evidence and sampling finds no violation.
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
    # no declared evidence: finite sampling cannot certify chain closure
    for v in sr.sample_values():
        if pole.member(v) and not pole.member(sr.chain_sup([sr.zero, v])):
            return AdmissibilityReport(
                Verdict.NOT_ADMISSIBLE, "sampling found an escaping chain",
                witness_chain=(sr.zero, v), witness_sup=v)
    return AdmissibilityReport(
        Verdict.INCONCLUSIVE,
        "contains bottom; sampled chains stay inside but no closure "
        "evidence is declared")


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
    gens = [[generators.get(r, c) for c in generators.cols]
            for r in generators.rows]
    point = [x.get(VECTOR_ROW, c) for c in x.cols]
    if any(v is INF for g in gens for v in g) or any(v is INF for v in point):
        raise ValueError("polar membership needs finite rational entries")
    return bipolar_member(gens, point)


# ---------------------------------------------------------------------------
# function expressions and the uniform fixpoint operator

class ScalarExpr(Record):
    __slots__ = ()


class SConst(ScalarExpr):
    __slots__ = __match_args__ = ("value",)


class SCoord(ScalarExpr):
    __slots__ = __match_args__ = ("name",)


class SAdd(ScalarExpr):
    __slots__ = __match_args__ = ("left", "right")


class SMul(ScalarExpr):
    __slots__ = __match_args__ = ("left", "right")


def eval_scalar(expr: ScalarExpr, point: dict, sr: Semiring):
    match expr:
        case SConst(v):
            if sr is RFLOAT and isinstance(v, Fraction):
                return _float(v)
            return v
        case SCoord(name):
            return point[name]
        case SAdd(a, b):
            return sr.add(eval_scalar(a, point, sr), eval_scalar(b, point, sr))
        case SMul(a, b):
            return sr.mul(eval_scalar(a, point, sr), eval_scalar(b, point, sr))
    raise TypeError(f"not a scalar expression: {expr!r}")


def _float(v: Fraction) -> float:
    """The float nearest v; inf past the largest float."""
    try:
        return float(v)
    except OverflowError:
        return float("inf")


def subst_scalar(expr: ScalarExpr, mapping: dict) -> ScalarExpr:
    match expr:
        case SConst(_):
            return expr
        case SCoord(name):
            return mapping[name]
        case SAdd(a, b):
            return SAdd(subst_scalar(a, mapping), subst_scalar(b, mapping))
        case SMul(a, b):
            return SMul(subst_scalar(a, mapping), subst_scalar(b, mapping))
    raise TypeError(f"not a scalar expression: {expr!r}")


class FunExpr(Record):
    """A map between finite coordinate sets, one scalar expression per output.

    ``outputs`` holds pairs (name, ScalarExpr).  Built from constants, +,
    * and composition, so every instance is a monotone continuous
    self-map when inputs and outputs coincide.
    """

    __slots__ = __match_args__ = ("inputs", "outputs")

    def output_names(self):
        return tuple(n for n, _ in self.outputs)

    def is_endo(self):
        return set(self.inputs) == set(self.output_names())

    def eval(self, point: dict, sr: Semiring) -> dict:
        missing = [n for n in self.inputs if n not in point]
        if missing:
            raise IndexMismatch(f"point is missing coordinates {missing}")
        return {n: eval_scalar(e, point, sr) for n, e in self.outputs}

    def compose(self, inner: "FunExpr") -> "FunExpr":
        """self after inner."""
        if set(inner.output_names()) != set(self.inputs):
            raise IndexMismatch("inner outputs do not match outer inputs")
        table = {n: e for n, e in inner.outputs}
        outs = tuple((n, subst_scalar(e, table)) for n, e in self.outputs)
        return FunExpr(inner.inputs, outs)

    @classmethod
    def from_exprs(cls, pairs):
        pairs = tuple(pairs)
        names = tuple(n for n, _ in pairs)
        return cls(names, pairs)


class KleeneResult(Record):
    __slots__ = __match_args__ = ("values", "residual", "iterations",
                                  "stabilized", "mode")

    def to_dict(self):
        return {
            "value": {n: _num_str(v) for n, v in sorted(self.values.items())},
            "residual": _num_str(self.residual),
            "iterations": self.iterations,
            "stabilized": self.stabilized,
            "mode": self.mode,
        }


def _num_str(v):
    if v is INF:
        return "inf"
    if isinstance(v, Fraction):
        return str(v)
    return repr(float(v))


def _diff(sr, lo, hi):
    """hi - lo for ascending scalars, with inf - inf = 0."""
    hi_inf = hi is INF or (isinstance(hi, float) and hi == float("inf"))
    lo_inf = lo is INF or (isinstance(lo, float) and lo == float("inf"))
    if hi_inf and lo_inf:
        return sr.zero
    if hi_inf:
        return INF
    return hi - lo


def _sup_diff(sr, lo, hi, coords):
    """The sup-norm of hi - lo over coords: INF as soon as one
    coordinate's difference is, since INF does not compare with floats."""
    out = sr.zero
    for n in coords:
        d = _diff(sr, lo[n], hi[n])
        if d is INF:
            return INF
        out = max(out, d)
    return out


def kleene_fixpoint(f: FunExpr, tol, max_iter: int = 10000,
                    mode: str = "float") -> KleeneResult:
    """Least fixpoint approximation by iteration from the zero vector.

    Iterates stop when the sup-norm step drops to ``tol``; the returned
    residual is the sup-norm of f(x) - x at the final iterate.  Raises
    BudgetExceeded (carrying the last iterate) past ``max_iter``, and in
    exact mode before a step from an iterate wider than EXACT_BITS_CAP.
    """
    if not f.is_endo():
        raise IndexMismatch("fixpoints need an endo map")
    sr = RFLOAT if mode == "float" else RINF
    tol = float(tol) if mode == "float" else Fraction(tol)
    cur = {n: sr.zero for n in f.inputs}
    for it in range(1, max_iter + 1):
        if mode == "exact" and _widest(cur) > EXACT_BITS_CAP:
            raise BudgetExceeded(
                f"iteration {it}: an exact iterate has more than "
                f"{EXACT_BITS_CAP} bits in a numerator or denominator")
        nxt = f.eval(cur, sr)
        for n in f.inputs:
            if not sr.le(cur[n], nxt[n]):
                raise AssertionError(
                    f"iterates are not ascending at coordinate {n!r}")
        step = _sup_diff(sr, cur, nxt, f.inputs)
        cur = nxt
        if step is not INF and step <= tol:
            return KleeneResult(cur, step, it, True, mode)
    after = f.eval(cur, sr)
    residual = _sup_diff(sr, cur, after, f.inputs)
    last = KleeneResult(cur, residual, max_iter, False, mode)
    err = BudgetExceeded(
        f"no stabilization within {max_iter} iterations "
        f"(residual {_num_str(residual)})")
    err.result = last
    raise err


def _widest(values):
    """Bits of the widest numerator or denominator among exact values."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values.values() if v is not INF), default=0)


def _sample_points(coords, sr):
    grid = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]
    if sr is RFLOAT:
        grid = [float(v) for v in grid]
    pts = []
    for combo in iproduct(grid, repeat=len(coords)):
        pts.append(dict(zip(coords, combo)))
        if len(pts) >= 64:
            break
    return pts


def check_uniformity(h: FunExpr, f: FunExpr, g: FunExpr, tol,
                     max_iter: int = 10000, mode: str = "float") -> bool:
    """Check the uniformity square for the dagger: h . f = g . h on samples,
    then h(fixpoint(f)) = fixpoint(g) within tol.

    Float mode takes each fixpoint from certified_fixpoint (the midpoint
    of its bracket, or Kleene iteration's value where it certifies
    none); exact mode from kleene_fixpoint.

    Raises PreconditionFailed when the square already fails on samples.
    """
    if not f.is_endo() or not g.is_endo():
        raise IndexMismatch("f and g must be endo maps")
    if set(h.inputs) != set(f.inputs) or \
            set(h.output_names()) != set(g.inputs):
        raise IndexMismatch("h must map the domain of f to the domain of g")
    sr = RFLOAT if mode == "float" else RINF
    tolerance = float(tol) if mode == "float" else Fraction(tol)
    hf = h.compose(f)
    gh = g.compose(h)
    for point in _sample_points(f.inputs, sr):
        left = hf.eval(point, sr)
        right = gh.eval(point, sr)
        for n in h.output_names():
            delta = abs(_as_number(left[n]) - _as_number(right[n]))
            if delta > tolerance:
                raise PreconditionFailed(
                    f"h.f = g.h fails at {point} on {n!r} (delta {delta})")
    if mode == "float":
        from .newton import certified_fixpoint
        fdag = certified_fixpoint(f, tol, max_iter)
        gdag = certified_fixpoint(g, tol, max_iter)
    else:
        fdag = kleene_fixpoint(f, tol, max_iter, mode)
        gdag = kleene_fixpoint(g, tol, max_iter, mode)
    mapped = h.eval(fdag.values, sr)
    gap = max((abs(_as_number(mapped[n]) - _as_number(gdag.values[n]))
               for n in h.output_names()), default=0)
    return gap <= tolerance


def _as_number(v):
    if v is INF:
        return float("inf")
    return v


# ---------------------------------------------------------------------------
# file formats

def parse_matrix(text: str) -> SemiringMatrix:
    """Matrix file: ``rows``/``cols`` headers then ``row col value`` triples,
    with values in the completed non-negative reals."""
    rows = cols = None
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "rows":
            rows = tuple(parts[1:])
        elif parts[0] == "cols":
            cols = tuple(parts[1:])
        elif len(parts) == 3:
            triples.append((lineno, parts))
        else:
            raise FileFormatError(f"line {lineno}: expected 'row col value'")
    if rows is None or cols is None:
        raise FileFormatError("missing 'rows' or 'cols' header")
    entries = {}
    for lineno, (r, c, v) in triples:
        if r not in rows or c not in cols:
            raise FileFormatError(f"line {lineno}: unknown index {r!r},{c!r}")
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


def render_matrix(mat: SemiringMatrix) -> str:
    lines = ["rows " + " ".join(str(r) for r in mat.rows),
             "cols " + " ".join(str(c) for c in mat.cols)]
    for r in mat.rows:
        for c in mat.cols:
            v = mat.get(r, c)
            if v != mat.semiring.zero:
                lines.append(f"{r} {c} {mat.semiring.to_str(v)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# expression files:  one "name: expr" line per coordinate

def parse_funexpr(text: str) -> FunExpr:
    pairs = []
    used = {}  # coordinates the expressions read, in order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise FileFormatError(f"line {lineno}: expected 'name: expression'")
        name, body = line.split(":", 1)
        name = name.strip()
        if not name.isidentifier():
            raise FileFormatError(f"line {lineno}: bad coordinate name {name!r}")
        pairs.append((name, _parse_scalar(body, lineno, used)))
    if not pairs:
        raise FileFormatError("empty expression file")
    names = [n for n, _ in pairs]
    if len(set(names)) != len(names):
        raise FileFormatError("duplicate coordinate names")
    for coord in used:
        if coord not in names:
            raise FileFormatError(f"unknown coordinate {coord!r}")
    return FunExpr.from_exprs(pairs)


# Deepest expression a .fx line may hold, within Python's recursion limit:
# the walks over scalar expressions recurse once per level (composition
# adds heights), the parser thrice per "(".
MAX_SCALAR_HEIGHT = 100


def _parse_scalar(src: str, lineno: int, used: dict) -> ScalarExpr:
    tokens = _scal_tokens(src, lineno)
    pos = [0]
    depth = [0]  # open parentheses
    height = {}  # id of each built node (all alive until the end) -> height

    def checked(level):
        if level > MAX_SCALAR_HEIGHT:
            raise FileFormatError(f"line {lineno}: expression nested deeper "
                                  f"than {MAX_SCALAR_HEIGHT} levels")
        return level

    def build(ctor, left, right):
        made = ctor(left, right)
        height[id(made)] = checked(1 + max(height.get(id(left), 0),
                                           height.get(id(right), 0)))
        return made

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        tok = peek()
        pos[0] += 1
        return tok

    def expr():
        node = term()
        while peek() == "+":
            take()
            node = build(SAdd, node, term())
        return node

    def term():
        node = factor()
        while peek() == "*":
            take()
            node = build(SMul, node, factor())
        return node

    def factor():
        tok = take()
        if tok is None:
            raise FileFormatError(f"line {lineno}: unexpected end of expression")
        if tok == "(":
            depth[0] = checked(depth[0] + 1)
            node = expr()
            depth[0] -= 1
            if take() != ")":
                raise FileFormatError(f"line {lineno}: missing ')'")
            return node
        if isinstance(tok, Fraction):
            return SConst(tok)
        if isinstance(tok, str) and tok.isidentifier():
            used[tok] = None
            return SCoord(tok)
        raise FileFormatError(f"line {lineno}: unexpected token {tok!r}")

    node = expr()
    if peek() is not None:
        raise FileFormatError(f"line {lineno}: trailing input {peek()!r}")
    return node


def _scal_tokens(src: str, lineno: int):
    out = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch in "+*()":
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(src) and (src[j].isdigit() or src[j] in "./"):
                j += 1
            try:
                out.append(Fraction(src[i:j]))
            except (ValueError, ZeroDivisionError) as exc:
                raise FileFormatError(
                    f"line {lineno}: bad number {src[i:j]!r}") from exc
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(src[i:j])
            i = j
        else:
            raise FileFormatError(f"line {lineno}: bad character {ch!r}")
    return out
