"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail
line per criterion with its runtime.
"""

import random
import time
from fractions import Fraction as F
from itertools import product as iproduct

from oracles import (brute_orthogonal, brute_upward_closure,
                     certify_final_lifted, certify_initial_lifted,
                     explicit_members, matrix_to_relation, oracle_bipolar,
                     orthogonal_fact, powerset, relation_to_matrix)
from test_fibration import INSTANCES
from test_phase import CORPUS
from mullsem.budgets import Budgets
from mullsem.formula import Mu, Neg, Nu, parse, nnf, substitute
from mullsem.fibration import compose_rel, copoint, point
from mullsem.newton import (FunExpr, SAdd, SConst, SCoord, SMul,
                            check_uniformity, kleene_fixpoint)
from mullsem.phase import enumerate_spaces, fact_closure, interpret_phase
from mullsem.poles import (Verdict, bipolar_member, is_admissible_pole,
                           nat_pole, pcoh_pole, totality_pole)
from mullsem.relmodel import Carrier, Fold, InL, InR, Relation, UNIT
from mullsem.semiring import BOOL
from mullsem.totality import (biclosure, interpret_totality, orthogonal,
                              restrict_antichain)
from mullsem.wrel import compose


def report(number, label, started, limit=None):
    elapsed = time.time() - started
    line = f"ACCEPTANCE {number} {label}: PASS ({elapsed:.2f}s"
    if limit is not None:
        line += f", limit {limit}s"
        assert elapsed < limit, f"criterion {number} exceeded {limit}s"
    print(line + ")")


def all_families(elems):
    subsets = powerset(elems)
    for choice in range(1 << len(subsets)):
        yield frozenset(s for i, s in enumerate(subsets) if choice >> i & 1)


def test_criterion_1_bipolar_suite():
    started = time.time()
    checked = 0
    for size in range(4):
        carrier = Carrier([f"e{i}" for i in range(size)])
        elems = list(carrier.elems)
        for family in all_families(elems):
            closed = biclosure(carrier, family)
            members = explicit_members(closed)
            # X <= X^~~ and the closure is the upward closure, exactly
            assert family <= members
            assert members == brute_upward_closure(elems, family) \
                if family else members == frozenset()
            orth = orthogonal(closed)
            assert explicit_members(orth) == brute_orthogonal(elems, family)
            # X^~ = X^~~~
            assert orthogonal(orthogonal(orth)) == orth
            # biclosure = double orthogonal, on the nose
            assert orthogonal(orth) == closed
            checked += 1
    assert checked == 2 + 4 + 16 + 256
    report(1, f"bipolar suite ({checked} families)", started, limit=10)


def test_criterion_2_reciprocity():
    started = time.time()
    labels = ["0", "1", "2"]
    checked = 0
    for na in range(4):
        for nb in range(4):
            a = Carrier(labels[:na])
            b = Carrier(labels[:nb])
            cells = [(x, y) for x in a for y in b]
            for mask in range(1 << len(cells)):
                f = Relation(a, b, frozenset(
                    c for i, c in enumerate(cells) if mask >> i & 1))
                for xm in range(1 << na):
                    x = point(a, [e for i, e in enumerate(a) if xm >> i & 1])
                    fx = compose_rel(x, f)
                    for um in range(1 << nb):
                        u = copoint(b, [e for i, e in enumerate(b)
                                        if um >> i & 1])
                        uf = compose_rel(f, u)
                        # orthogonality at the identity pole: the scalar
                        # composite must be the identity relation
                        lhs = bool(compose_rel(fx, u).pairs)
                        rhs = bool(compose_rel(x, uf).pairs)
                        assert lhs == rhs
                        checked += 1
    report(2, f"reciprocity ({checked} triples)", started, limit=30)


def test_criterion_3_certified_fixpoint_lifting():
    from mullsem.fibration import lift_final_coalgebra, lift_initial_algebra
    assert len(INSTANCES) >= 3
    for name, (build, a_obj, alg, d_obj, coalg) in sorted(INSTANCES.items()):
        started = time.time()
        lifted = build()
        lifted.poset.base.validate()
        lifted.poset.validate()
        lifted.validate()
        alpha = lifted.poset.base.morphisms[alg]
        lpfp = lift_initial_algebra(lifted, a_obj, alpha)
        assert certify_initial_lifted(lifted, a_obj, alpha, lpfp)
        delta = lifted.poset.base.morphisms[coalg]
        gpfp = lift_final_coalgebra(lifted, d_obj, delta)
        assert certify_final_lifted(lifted, d_obj, delta, gpfp)
        report(3, f"certified fixpoint lifting [{name}]", started, limit=10)


def test_criterion_4_phase_suite():
    started = time.time()
    spaces = list(enumerate_spaces(3))
    assert len(CORPUS) >= 30
    for space in spaces:
        elems = space.elements
        # closure laws, exhaustively over subsets
        for x in powerset(elems):
            cx = fact_closure(space, x)
            assert x <= cx
            assert fact_closure(space, cx) == cx
            for y in powerset(elems):
                if x <= y:
                    assert cx <= fact_closure(space, y)
        for text in CORPUS:
            f = parse(text)
            val = interpret_phase(space, f)
            # every connective lands on a fact
            assert fact_closure(space, val) == val
            # duality oracle on the !-free corpus
            assert interpret_phase(space, nnf(Neg(f))) == \
                orthogonal_fact(space, val)
            if isinstance(f, (Mu, Nu)):
                unfolded = substitute(f.body, f.var, f)
                assert interpret_phase(space, unfolded) == val
                assert interpret_phase(space, Mu(f.var, f.body)) <= \
                    interpret_phase(space, Nu(f.var, f.body))
    report(4, f"phase suite ({len(spaces)} spaces x {len(CORPUS)} formulas)",
           started, limit=60)


def test_criterion_5_totality_fixpoint_stabilization():
    started = time.time()

    def numeral(n):
        e = Fold(InL(UNIT))
        for _ in range(n):
            e = Fold(InR(e))
        return e

    f = parse("mu x. 1 + x")
    spaces = {}
    for k in range(3, 7):
        space = interpret_totality(f, {}, Budgets(depth=k))
        spaces[k] = space
        # hand iteration: S_i adds the singleton of the i-th numeral
        expected = {frozenset([numeral(n)]) for n in range(k)}
        assert set(space.family.min_sets()) == expected
        assert space.stabilized
    for k in range(4, 7):
        bound = k - 1
        assert restrict_antichain(spaces[k].family, bound) == \
            restrict_antichain(spaces[k - 1].family, bound)
        assert restrict_antichain(spaces[k].family, bound) == tuple(
            sorted(({frozenset([numeral(n)]) for n in range(bound - 1)}),
                   key=lambda s: sorted(map(str, s))))
    report(5, "totality fixpoint stabilization (k=3..6)", started)


def test_criterion_6_weighted_fixpoints():
    started = time.time()
    halving = FunExpr.from_exprs(
        [("x", SAdd(SConst(F(1, 2)), SMul(SConst(F(1, 2)), SCoord("x"))))])
    out = kleene_fixpoint(halving, 1e-9, max_iter=10 ** 4)
    assert abs(out.values["x"] - 1) <= 1e-9
    assert out.iterations <= 10 ** 4

    quad = FunExpr.from_exprs(
        [("x", SAdd(SConst(F(1, 4)),
                    SMul(SConst(F(3, 4)), SMul(SCoord("x"), SCoord("x")))))])
    out = kleene_fixpoint(quad, 1e-9, max_iter=10 ** 4)
    assert abs(out.values["x"] - F(1, 3)) <= 1e-9
    assert out.iterations <= 10 ** 4

    h = FunExpr(("x",), (("y", SMul(SConst(F(2)), SCoord("x"))),))
    f = FunExpr.from_exprs(
        [("x", SAdd(SConst(F(1, 4)), SMul(SConst(F(1, 2)), SCoord("x"))))])
    g = FunExpr.from_exprs(
        [("y", SAdd(SConst(F(1, 2)), SMul(SConst(F(1, 2)), SCoord("y"))))])
    assert check_uniformity(h, f, g, 1e-9)
    report(6, "weighted fixpoints and uniformity", started)


def test_criterion_7_pcoh_polar():
    started = time.time()
    assert bipolar_member([(F(1), F(0)), (F(0), F(1))], (F(1, 2), F(1, 2)))
    assert not bipolar_member([(F(1), F(0))], (F(0), F(1)))
    assert bipolar_member([(F(2), F(3))], (F(2), F(3)))

    rng = random.Random(20240817)
    agreements = 0
    for _ in range(200):
        dim = rng.randint(1, 3)

        def rand_vec():
            return tuple(F(rng.randint(0, 8), rng.randint(1, 5))
                         for _ in range(dim))
        gens = [rand_vec() for _ in range(rng.randint(1, 4))]
        x = rand_vec()
        assert bipolar_member(gens, x) == oracle_bipolar(gens, x)
        agreements += 1
    assert agreements == 200
    report(7, "pcoh polar membership (200 instances vs vertex oracle)",
           started)


def test_criterion_8_admissibility_verdicts():
    started = time.time()
    assert is_admissible_pole(pcoh_pole()).verdict is Verdict.ADMISSIBLE
    totality_report = is_admissible_pole(totality_pole())
    assert totality_report.verdict is Verdict.NOT_ADMISSIBLE
    assert totality_report.witness_sup is BOOL.zero  # no bottom scalar
    nat_report = is_admissible_pole(nat_pole())
    assert nat_report.verdict is Verdict.NOT_ADMISSIBLE
    assert nat_report.witness_chain[:3] == (0, 1, 2)
    assert nat_report.witness_sup is not None
    report(8, "admissibility verdicts", started)


def test_criterion_9_cross_model_coherence():
    started = time.time()
    labels = ["0", "1", "2"]
    checked = 0
    for na, nb, nc in iproduct(range(4), repeat=3):
        a, b, c = (Carrier(labels[:n]) for n in (na, nb, nc))
        ab_cells = [(x, y) for x in a for y in b]
        bc_cells = [(x, y) for x in b for y in c]
        ab_rels = [Relation(a, b, frozenset(
            p for i, p in enumerate(ab_cells) if m >> i & 1))
            for m in range(1 << len(ab_cells))]
        bc_rels = [Relation(b, c, frozenset(
            p for i, p in enumerate(bc_cells) if m >> i & 1))
            for m in range(1 << len(bc_cells))]
        bc_mats = [relation_to_matrix(r2) for r2 in bc_rels]
        for r1 in ab_rels:
            m1 = relation_to_matrix(r1)
            for r2, m2 in zip(bc_rels, bc_mats):
                direct = compose_rel(r1, r2)
                weighted = compose(m1, m2)
                assert matrix_to_relation(weighted, a, c) == direct
                checked += 1
    report(9, f"cross-model coherence ({checked} composites)", started)
