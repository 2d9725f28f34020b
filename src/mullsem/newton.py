"""Least fixpoints of polynomial maps, certified by Newton steps.

``certified_fixpoint`` brackets the least fixpoint of a ``wrel.FunExpr``
between two exact rational points.  It lives apart from ``wrel`` so that
the commands that need no fixpoint do not load it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BudgetExceeded, IndexMismatch
from .semiring import RINF
from .wrel import (FunExpr, KleeneResult, SAdd, SConst, SCoord, SMul,
                   ScalarExpr, _float, eval_scalar, kleene_fixpoint)

# bits after the binary point of a Newton iterate, at least; a tolerance
# finer than 2^-32 adds its own bits
NEWTON_BITS = 64
# coordinates past which certified_fixpoint takes no Newton step: each
# step inverts an n x n matrix of Fractions
NEWTON_DIMENSION_CAP = 8


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
