"""Weighted relations over continuous semirings: composition and the
pairing with a pole.

The model's parts live in two modules, so that each command loads only
its own: ``poles`` holds matrices, poles, admissibility and bipolar
membership (the ``polar`` and ``admissible`` commands), ``newton`` the
polynomial systems and their fixpoints (the ``fix`` command).  No
command loads this module.
"""

from __future__ import annotations

from .errors import IndexMismatch
# the model's package-level names; perfbench/tracing.py also looks the
# weighted layers up in this module's namespace
from .newton import FunExpr, check_uniformity, kleene_fixpoint  # noqa: F401
from .poles import (VECTOR_ROW, PoleSpec, SemiringMatrix,  # noqa: F401
                    Verdict, bipolar_member, is_admissible_pole)


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
    # no shipped semiring has zero divisors, and a sum of non-zero values
    # is non-zero in each, so no entry of out is zero
    return SemiringMatrix._trusted(sr, f.rows, g.cols, out)


def orthogonal_pair(x: SemiringMatrix, y: SemiringMatrix, pole) -> bool:
    """True iff the scalar pairing sum_a x_a * y_a lands in the pole."""
    if x.cols != y.cols:
        raise IndexMismatch("vectors on different index sets")
    sr = x.semiring
    total = sr.sum(sr.mul(x.get(VECTOR_ROW, a), y.get(VECTOR_ROW, a))
                   for a in x.cols)
    return pole.member(total)
