"""Weighted relations over continuous semirings: composition, the
pairing with a pole, and the bridge with the relational model.

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
from .semiring import BOOL, Semiring


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
