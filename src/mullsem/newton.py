"""Polynomial systems over the non-negative reals and their least fixpoints.

A ``FunExpr`` maps finite coordinate sets by one scalar expression per
output, built from constants, + and *; ``.fx`` files hold one such
expression per coordinate.  ``kleene_fixpoint`` iterates from zero,
``certified_fixpoint`` brackets the least fixpoint between two exact
rational points by Newton steps, and ``check_uniformity`` checks the
uniformity square of the fixpoint operator.  The ``fix`` command loads
this module, and not the matrices and poles of ``poles``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import product as iproduct

from .errors import (BudgetExceeded, FileFormatError, IndexMismatch,
                     PreconditionFailed)
from .record import Record
from .semiring import INF, RFLOAT, RINF, Semiring

# bits of a numerator or denominator of an exact fixpoint iterate; on a
# polynomial system they can double at every step
EXACT_BITS_CAP = 1 << 16
# bits after the binary point of a Newton iterate, at least; a tolerance
# finer than 2^-32 adds its own bits
NEWTON_BITS = 64
# coordinates past which certified_fixpoint takes no Newton step: each
# step inverts an n x n matrix of Fractions
NEWTON_DIMENSION_CAP = 8


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
        return INF


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
    if isinstance(v, Fraction):
        return str(v)
    return repr(float(v))


def _sup_diff(sr, lo, hi, coords):
    """The sup-norm of hi - lo over coords for ascending scalars; equal
    coordinates count 0, so inf - inf is 0 and not nan."""
    return max((hi[n] - lo[n] for n in coords if hi[n] != lo[n]),
               default=sr.zero)


def kleene_fixpoint(f: FunExpr, tol, max_iter: int = 10000,
                    mode: str = "float") -> KleeneResult:
    """Least fixpoint approximation by iteration from the zero vector.

    Iterates stop when the sup-norm step drops to ``tol``; the returned
    residual is the sup-norm of f(x) - x at the final iterate.  Raises
    BudgetExceeded (carrying the last iterate) past ``max_iter``, and in
    exact mode before a step from an iterate wider than EXACT_BITS_CAP
    and on an answer too wide to print.
    """
    if not f.is_endo():
        raise IndexMismatch("fixpoints need an endo map")
    sr = RFLOAT if mode == "float" else RINF
    tol = float(tol) if mode == "float" else Fraction(tol)
    cur = {n: sr.zero for n in f.inputs}
    for it in range(1, max_iter + 1):
        if mode == "exact" and _widest(cur.values()) > EXACT_BITS_CAP:
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
        if step <= tol:
            return _printable(KleeneResult(cur, step, it, True, mode))
    after = f.eval(cur, sr)
    residual = _sup_diff(sr, cur, after, f.inputs)
    last = _printable(KleeneResult(cur, residual, max_iter, False, mode))
    err = BudgetExceeded(
        f"no stabilization within {max_iter} iterations "
        f"(residual {_num_str(residual)})")
    err.result = last
    raise err


def _widest(values):
    """Bits of the widest numerator or denominator among exact values."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values if v != INF), default=0)


def _printable(result):
    """result, unless str() cannot write one of its exact values: CPython
    3.11 (and 3.10.7) caps the digits of an int it converts to decimal."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no cap
    if result.mode == "float" or not limit:
        return result
    values = [v for v in (*result.values.values(), result.residual)
              if v != INF]
    bound = 10 ** limit
    if all(abs(v.numerator) < bound and v.denominator < bound
           for v in values):
        return result
    raise BudgetExceeded(
        f"iteration {result.iterations}: the exact result has "
        f"{_widest(values)} bits in a numerator or denominator, more than "
        f"the {limit} decimal digits an integer may print as")


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
            delta = abs(left[n] - right[n])
            if delta > tolerance:
                raise PreconditionFailed(
                    f"h.f = g.h fails at {point} on {n!r} (delta {delta})")
    if mode == "float":
        fdag = certified_fixpoint(f, tol, max_iter)
        gdag = certified_fixpoint(g, tol, max_iter)
    else:
        fdag = kleene_fixpoint(f, tol, max_iter, mode)
        gdag = kleene_fixpoint(g, tol, max_iter, mode)
    mapped = h.eval(fdag.values, sr)
    gap = max((abs(mapped[n] - gdag.values[n]) for n in h.output_names()),
              default=0)
    return gap <= tolerance

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

# ---------------------------------------------------------------------------
# least fixpoints certified by Newton steps

class CertifiedResult(KleeneResult):
    """A fixpoint answer with the bracket it proves.

    ``lower`` holds exact rationals with lower <= mu f in every
    coordinate.  ``upper`` is None, or exact rationals with
    mu f <= upper; ``values`` is then the bracket's midpoint and
    ``residual`` its width.
    """

    __slots__ = ("lower", "upper")
    __match_args__ = KleeneResult.__match_args__ + __slots__

    @property
    def certified(self) -> bool:
        return self.upper is not None

    def to_dict(self):
        return {**super().to_dict(),
                "lower": _exact_strs(self.lower),
                "upper": None if self.upper is None
                else _exact_strs(self.upper),
                "certified": self.certified}


def _exact_strs(values):
    return {n: str(v) for n, v in sorted(values.items())}


def certified_fixpoint(f: FunExpr, tol, max_iter: int = 10000
                       ) -> CertifiedResult:
    """Least fixpoint mu f of a polynomial map in an exact bracket, by
    Newton steps from the zero vector.

    Returns lower <= mu f <= upper in every coordinate, both ends exact
    rationals with upper - lower <= tol.  Where no bracket can be
    certified, returns Kleene iteration's answer with ``upper`` None.

    A Newton step solves (I - f'(x)) d = f(x) - x exactly, and is taken
    only when every entry of (I - f'(x))^-1 is non-negative; for the
    non-negative matrix f'(x) that holds exactly when its spectral
    radius is below 1.  Then x <= mu f implies x + d <= mu f: with
    e = mu f - x >= 0, every term of the Taylor expansion of f at x is
    non-negative, because f has non-negative coefficients, so
    mu f = f(x + e) >= f(x) + f'(x) e, that is
    (I - f'(x)) e >= f(x) - x, and multiplying by the non-negative
    inverse keeps the inequality: e >= d.  Each iterate is rounded down
    to B bits after the binary point and kept only where it rises,
    which keeps it below mu f and bounds the size of its numbers.

    An upper candidate u >= lower with u - lower <= tol (the rational
    reconstruction of lower, then lower + tol/2) is accepted only if
    f(u) <= u holds exactly: mu f is the least such point
    (Knaster-Tarski).

    Newton steps count against ``max_iter``.  kleene_fixpoint runs on
    the rest of the budget when a step cannot be certified (spectral
    radius 1 or more, as on x = 1 + 2x whose least fixpoint is
    infinite), when a rounded step no longer rises (a critical point at
    an irrational value), when a constant is not a finite non-negative
    rational, or past NEWTON_DIMENSION_CAP coordinates.  Raises
    BudgetExceeded, carrying the last result, when the budget ends
    first.
    """
    if not f.is_endo():
        raise IndexMismatch("fixpoints need an endo map")
    names = f.inputs
    body = {n: _exact(e) for n, e in f.outputs}
    exact_tol = Fraction(tol)
    if exact_tol <= 0:
        raise ValueError("the tolerance must be positive")
    lower = {n: Fraction(0) for n in names}
    steps = 0
    if None not in body.values() and len(names) <= NEWTON_DIMENSION_CAP:
        bits = max(NEWTON_BITS, math.ceil(1 / exact_tol).bit_length() + 32)
        # fractions with denominators up to D lie 1/D^2 apart, so a lower
        # bound within tol <= 1/(2 D^2) of such a fixpoint snaps onto it
        max_denominator = max(1, math.isqrt(int(1 / (2 * exact_tol))))
        while True:
            upper = _upper_bound(body, lower, exact_tol, max_denominator)
            if upper is not None:
                width = max((upper[n] - lower[n] for n in names),
                            default=Fraction(0))
                mid = {n: _float((lower[n] + upper[n]) / 2) for n in names}
                return CertifiedResult(mid, _float(width), steps, True,
                                       "float", lower, upper)
            linear = [_linearize(body[n], lower) for n in names]
            gap = [image - lower[n] for n, (image, _) in zip(names, linear)]
            if steps == max_iter:
                residual = _float(max(map(abs, gap)))
                err = BudgetExceeded(
                    f"no certified bracket within {max_iter} Newton steps "
                    f"(residual {residual!r})")
                err.result = CertifiedResult(
                    {n: _float(v) for n, v in lower.items()}, residual,
                    steps, False, "float", lower, None)
                raise err
            inverse = _inverse([[int(i == j) - partials.get(j, 0)
                                 for j in names]
                                for i, (_, partials) in zip(names, linear)])
            if inverse is None or any(v < 0 for row in inverse for v in row):
                break
            steps += 1
            rise = {n: _round_down(lower[n] + sum(
                m * g for m, g in zip(row, gap)), bits)
                for n, row in zip(names, inverse)}
            if all(rise[n] <= lower[n] for n in names):
                break
            lower = {n: max(lower[n], rise[n]) for n in names}
    kleene = kleene_fixpoint(f, tol, max_iter - steps, "float")
    return CertifiedResult(kleene.values, kleene.residual,
                           steps + kleene.iterations, kleene.stabilized,
                           "float", lower, None)


def _exact(expr: ScalarExpr):
    """expr with every constant an exact Fraction, or None when a
    constant is not a finite non-negative rational."""
    match expr:
        case SConst(v):
            try:
                v = Fraction(v)
            except (TypeError, ValueError, OverflowError):
                return None
            return SConst(v) if v >= 0 else None
        case SCoord(_):
            return expr
        case SAdd(a, b) | SMul(a, b):
            a, b = _exact(a), _exact(b)
            return None if a is None or b is None else type(expr)(a, b)
    raise TypeError(f"not a scalar expression: {expr!r}")


def _linearize(expr: ScalarExpr, point: dict):
    """f(x) and the non-zero partials {j: df/dx_j (x)} of expr at a
    non-negative exact point, in one forward pass."""
    match expr:
        case SConst(v):
            return v, {}
        case SCoord(n):
            return point[n], {n: 1}
        case SAdd(a, b):
            (va, da), (vb, db) = _linearize(a, point), _linearize(b, point)
            return va + vb, {j: da.get(j, 0) + db.get(j, 0) for j in da | db}
        case SMul(a, b):
            (va, da), (vb, db) = _linearize(a, point), _linearize(b, point)
            # every value is non-negative: only a zero factor drops a partial
            live = (da if vb else {}) | (db if va else {})
            return va * vb, {j: da.get(j, 0) * vb + va * db.get(j, 0)
                             for j in live}
    raise TypeError(f"not a scalar expression: {expr!r}")


def _inverse(matrix):
    """Inverse of a square rational matrix by Gauss-Jordan elimination
    in Fractions, or None when it is singular."""
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(i == j) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _round_down(v: Fraction, bits: int) -> Fraction:
    """The largest multiple of 2^-bits that is at most v."""
    return Fraction((v.numerator << bits) // v.denominator, 1 << bits)


def _upper_bound(body, lower, tol, max_denominator):
    """A point u >= lower with u - lower <= tol and f(u) <= u, checked
    exactly, or None."""
    snapped = {n: max(v, v.limit_denominator(max_denominator))
               for n, v in lower.items()}
    shifted = {n: v + tol / 2 for n, v in lower.items()}
    for u in (snapped, shifted):
        if all(u[n] - lower[n] <= tol for n in u) and \
                all(eval_scalar(body[n], u, RINF) <= u[n] for n in u):
            return u
    return None
