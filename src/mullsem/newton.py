"""Polynomial systems over the non-negative reals and their least fixpoints.

A ``FunExpr`` maps finite coordinate sets by one scalar expression per
output, built from constants, + and *; ``.fx`` files hold one such
expression per coordinate.  ``kleene_fixpoint`` iterates from zero,
``certified_fixpoint`` brackets the least fixpoint between two exact
rational points by Newton steps, ``exact_fixpoint`` proves it equal to
the upper one where it can, and ``check_uniformity`` checks the
uniformity square of the fixpoint operator.  The ``fix`` command loads
this module, and not the matrices and poles of ``poles``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice, product as iproduct

from .errors import (BudgetExceeded, FileFormatError, IndexMismatch,
                     PreconditionFailed)
from .record import Record

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


def eval_scalar(expr: ScalarExpr, point: dict):
    """expr at point, in the numbers of its constants and the point; a
    zero factor is the product, so 0 * inf is 0 and not nan."""
    match expr:
        case SConst(v):
            return v
        case SCoord(name):
            return point[name]
        case SAdd(a, b):
            return eval_scalar(a, point) + eval_scalar(b, point)
        case SMul(a, b):
            a, b = eval_scalar(a, point), eval_scalar(b, point)
            return a and b and a * b
    raise TypeError(f"not a scalar expression: {expr!r}")


def _float(v) -> float:
    """The float nearest v; inf past the largest float."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


class FunExpr(Record):
    """A map between finite coordinate sets, one scalar expression per output.

    ``outputs`` holds pairs (name, ScalarExpr).  Built from constants, +
    and *, so every instance is a monotone continuous self-map when
    inputs and outputs coincide.
    """

    __match_args__ = ("inputs", "outputs")
    # outputs with each constant rounded by _float, as eval reads them
    __slots__ = __match_args__ + ("_floats",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_floats", tuple(
            (n, _constants(e, _float)) for n, e in self.outputs))

    def output_names(self):
        return tuple(n for n, _ in self.outputs)

    def is_endo(self):
        return set(self.inputs) == set(self.output_names())

    def eval(self, point: dict) -> dict:
        """self at a point of floats, in floats."""
        missing = [n for n in self.inputs if n not in point]
        if missing:
            raise IndexMismatch(f"point is missing coordinates {missing}")
        return {n: eval_scalar(e, point) for n, e in self._floats}

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


def _sup_diff(lo, hi, coords):
    """The sup-norm of hi - lo over coords for ascending scalars; equal
    coordinates count 0, so inf - inf is 0 and not nan."""
    return max((hi[n] - lo[n] for n in coords if hi[n] != lo[n]),
               default=0.0)


def kleene_fixpoint(f: FunExpr, tol, max_iter: int = 10000) -> KleeneResult:
    """Least fixpoint approximation by float iteration from zero.

    Iterates stop when the sup-norm step drops to ``tol``; the returned
    residual is the sup-norm of f(x) - x at the final iterate.  Raises
    BudgetExceeded (carrying the last iterate) past ``max_iter``.
    """
    if not f.is_endo():
        raise IndexMismatch("fixpoints need an endo map")
    tol = float(tol)
    cur = {n: 0.0 for n in f.inputs}
    for it in range(1, max_iter + 1):
        nxt = f.eval(cur)
        for n in f.inputs:
            if not cur[n] <= nxt[n]:
                raise AssertionError(
                    f"iterates are not ascending at coordinate {n!r}")
        step = _sup_diff(cur, nxt, f.inputs)
        cur = nxt
        if step <= tol:
            return KleeneResult(cur, step, it, True, "float")
    after = f.eval(cur)
    residual = _sup_diff(cur, after, f.inputs)
    err = BudgetExceeded(
        f"no stabilization within {max_iter} iterations "
        f"(residual {_num_str(residual)})")
    err.result = KleeneResult(cur, residual, max_iter, False, "float")
    raise err


def check_uniformity(h: FunExpr, f: FunExpr, g: FunExpr, tol,
                     max_iter: int = 10000) -> bool:
    """Check the uniformity square for the dagger: h . f = g . h on up
    to 64 grid points, then h(fixpoint(f)) = fixpoint(g) within tol.

    Each fixpoint comes from certified_fixpoint: the midpoint of its
    bracket, or Kleene iteration's value where it certifies none.

    Raises PreconditionFailed when the square already fails on samples.
    """
    if not f.is_endo() or not g.is_endo():
        raise IndexMismatch("f and g must be endo maps")
    if set(h.inputs) != set(f.inputs) or \
            set(h.output_names()) != set(g.inputs):
        raise IndexMismatch("h must map the domain of f to the domain of g")
    tolerance = float(tol)
    grid = (0.0, 0.25, 0.5, 1.0, 2.0)
    for combo in islice(iproduct(grid, repeat=len(f.inputs)), 64):
        point = dict(zip(f.inputs, combo))
        left = h.eval(f.eval(point))
        right = g.eval(h.eval(point))
        for n in h.output_names():
            delta = abs(left[n] - right[n])
            if delta > tolerance:
                raise PreconditionFailed(
                    f"h.f = g.h fails at {point} on {n!r} (delta {delta})")
    fdag = certified_fixpoint(f, tol, max_iter)
    gdag = certified_fixpoint(g, tol, max_iter)
    mapped = h.eval(fdag.values)
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
# the walks over scalar expressions recurse once per level, the parser
# thrice per "(".
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
        try:
            return {**super().to_dict(),
                    "lower": _exact_strs(self.lower),
                    "upper": None if self.upper is None
                    else _exact_strs(self.upper),
                    "certified": self.certified}
        except ValueError as exc:  # str() caps the digits of an int
            raise BudgetExceeded("the answer has a number with more decimal "
                                 "digits than an integer may print as") \
                from exc


def _exact_strs(values):
    return {n: str(v) for n, v in sorted(values.items())}


class ExactResult(CertifiedResult):
    """A bracket with ``exact`` True where upper is proved to be mu f;
    ``values`` is then upper and ``residual`` 0."""

    __slots__ = ("exact",)
    __match_args__ = CertifiedResult.__match_args__ + __slots__

    def to_dict(self):
        return {**super().to_dict(), "exact": self.exact}


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
    body = {n: _constants(e, _fraction) for n, e in f.outputs}
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
            inverse = _monotone_inverse(names, linear)
            if inverse is None:
                break
            steps += 1
            rise = {n: _round_down(lower[n] + sum(
                m * g for m, g in zip(row, gap)), bits)
                for n, row in zip(names, inverse)}
            if all(rise[n] <= lower[n] for n in names):
                break
            lower = {n: max(lower[n], rise[n]) for n in names}
    kleene = kleene_fixpoint(f, tol, max_iter - steps)
    return CertifiedResult(kleene.values, kleene.residual,
                           steps + kleene.iterations, kleene.stabilized,
                           "float", lower, None)


def exact_fixpoint(f: FunExpr, tol, max_iter: int = 10000) -> ExactResult:
    """certified_fixpoint's bracket, proved exact where it has closed
    (upper = lower) or where _is_least(f, upper) holds; otherwise, as at
    an irrational or critical fixpoint, ``exact`` is False."""
    res = certified_fixpoint(f, tol, max_iter)
    exact = res.certified and (res.upper == res.lower
                               or _is_least(f, res.upper))
    values, residual = ((res.upper, Fraction(0)) if exact
                        else (res.values, res.residual))
    return ExactResult(values, residual, res.iterations, res.stabilized,
                       "exact", res.lower, res.upper, exact)


def _is_least(f: FunExpr, u: dict) -> bool:
    """Whether a rational point u >= mu f is mu f, by a sufficient test:
    f(u) = u, and (I - f'(u))^-1 exists with no negative entry.

    For 0 <= y <= u, the Weierstrass product inequality on each monomial
    gives f(y) >= f(u) + f'(u)(y - u).  At y = mu f, that is
    (I - f'(u))(mu f - u) >= 0, and the non-negative inverse gives
    mu f >= u.
    """
    body, names = dict(f.outputs), tuple(u)
    linear = [_linearize(_constants(body[n], _fraction), u)
              for n in names]
    return all(image == u[n] for n, (image, _) in zip(names, linear)) and \
        _monotone_inverse(names, linear) is not None


def _constants(expr: ScalarExpr, number):
    """expr with each constant c replaced by number(c), or None where
    number(c) is None."""
    match expr:
        case SConst(v):
            v = number(v)
            return None if v is None else SConst(v)
        case SCoord(_):
            return expr
        case SAdd(a, b) | SMul(a, b):
            a, b = _constants(a, number), _constants(b, number)
            return None if a is None or b is None else type(expr)(a, b)
    raise TypeError(f"not a scalar expression: {expr!r}")


def _fraction(v):
    """v as an exact Fraction, or None unless it is a finite non-negative
    rational."""
    try:
        v = Fraction(v)
    except (TypeError, ValueError, OverflowError):
        return None
    return v if v >= 0 else None


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


def _monotone_inverse(names, linear):
    """(I - f'(x))^-1 from f's _linearize pairs at x, or None if any < 0."""
    inverse = _inverse([[int(i == j) - partials.get(j, 0) for j in names]
                        for i, (_, partials) in zip(names, linear)])
    if inverse is None or any(v < 0 for row in inverse for v in row):
        return None
    return inverse


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
                all(eval_scalar(body[n], u) <= u[n] for n in u):
            return u
    return None

