import math
import pickle
import random
import sys
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

from oracles import (check_semiring_laws, expanded_partials, expanded_value,
                     identity_matrix, matrix_to_relation, oracle_bipolar,
                     relation_to_matrix, render_matrix, solve_linear)
from mullsem.errors import (BudgetExceeded, DimensionCap, EmptyGenerators,
                            FileFormatError, IndexMismatch, PreconditionFailed)
from mullsem.fibration import compose_rel
from mullsem.newton import (NEWTON_DIMENSION_CAP, CertifiedResult, FunExpr,
                            KleeneResult, SAdd, SConst, SCoord, SMul,
                            _is_least, _linearize, certified_fixpoint,
                            check_uniformity, eval_scalar, exact_fixpoint,
                            kleene_fixpoint, parse_funexpr)
from mullsem.poles import (ChainCounterexample, DownsetClosed, PoleSpec,
                           SemiringMatrix, Verdict, bipolar_member,
                           bipolar_member_matrix, is_admissible_pole,
                           nat_pole, parse_matrix, parse_vector, pcoh_pole,
                           totality_pole, vector)
from mullsem.relmodel import Carrier, Relation
from mullsem import semiring
from mullsem.semiring import BOOL, INF, NINF, RINF
from mullsem.wrel import compose, orthogonal_pair


class TestSemirings:
    def test_laws_spot_checked(self):
        for sr in (BOOL, NINF, RINF):
            assert check_semiring_laws(sr)

    def test_infinity_conventions(self):
        assert NINF.mul(0, INF) == 0
        assert NINF.mul(2, INF) == INF
        assert NINF.add(3, INF) == INF
        assert RINF.mul(F(0), INF) == F(0)
        assert RINF.le(F(5), INF) and not RINF.le(INF, F(5))

    def test_infinity_meets_exact_values_past_the_largest_float(self):
        # Python's + and * would convert 10^400 to float first and overflow
        huge = 10 ** 400
        assert NINF.add(huge, INF) == INF and NINF.mul(INF, huge) == INF
        assert RINF.add(INF, F(huge)) == INF and RINF.mul(F(huge), INF) == INF
        assert RINF.le(F(huge), INF) and not NINF.le(INF, huge)

    def test_infinity_survives_pickle_and_parsing(self):
        assert RINF.parse("inf") == INF
        mat = SemiringMatrix(RINF, ("a", "b"), ("c",),
                             {("a", "c"): F(1, 2), ("b", "c"): INF})
        copy = pickle.loads(pickle.dumps(mat))
        assert copy == mat and copy.semiring is RINF
        assert copy.get("b", "c") == INF


class TestCompose:
    def test_identity_neutral(self):
        m = SemiringMatrix(NINF, ("a", "b"), ("c",),
                           {("a", "c"): 2, ("b", "c"): INF})
        assert compose(identity_matrix(NINF, ("a", "b")), m) == m
        assert compose(m, identity_matrix(NINF, ("c",))) == m

    def test_ninf_example_with_absorption(self):
        f = SemiringMatrix(NINF, ("a",), ("b1", "b2"),
                           {("a", "b1"): 1, ("a", "b2"): 2})
        g = SemiringMatrix(NINF, ("b1", "b2"), ("c",),
                           {("b1", "c"): 3, ("b2", "c"): INF})
        assert compose(f, g).get("a", "c") == INF

    def test_zero_times_inf_column(self):
        f = SemiringMatrix(NINF, ("a",), ("b",), {})
        g = SemiringMatrix(NINF, ("b",), ("c",), {("b", "c"): INF})
        assert compose(f, g).get("a", "c") == 0

    def test_mismatch(self):
        f = SemiringMatrix(BOOL, ("a",), ("b",), {})
        g = SemiringMatrix(BOOL, ("c",), ("d",), {})
        with pytest.raises(IndexMismatch):
            compose(f, g)

    def test_associativity_bool_exhaustive_2(self):
        idx = ("0", "1")
        cells = list(iproduct(idx, idx))
        mats = []
        for mask in range(1 << len(cells)):
            entries = {c: True for i, c in enumerate(cells) if mask >> i & 1}
            mats.append(SemiringMatrix(BOOL, idx, idx, entries))
        sample = mats[:: max(1, len(mats) // 8)]
        for a in sample:
            for b in sample:
                for c in sample:
                    assert compose(compose(a, b), c) == \
                        compose(a, compose(b, c))

    def test_associativity_sampled_numeric(self):
        rng = random.Random(8)
        idx = ("i", "j", "k")
        for sr, pool in ((NINF, [0, 1, 2, INF]),
                         (RINF, [F(0), F(1, 2), F(2), INF])):
            for _ in range(25):
                def rand_mat():
                    return SemiringMatrix(
                        sr, idx, idx,
                        {(r, c): rng.choice(pool)
                         for r in idx for c in idx if rng.random() < 0.6})
                a, b, c = rand_mat(), rand_mat(), rand_mat()
                assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_composite_stores_no_zero_entry(self):
        # compose keeps every sum it forms, so a shipped semiring whose
        # non-zero values can multiply to zero would leave zero entries
        shipped = [v for v in vars(semiring).values()
                   if isinstance(v, semiring.Semiring)]
        assert {BOOL, NINF, RINF} <= set(shipped)
        rng = random.Random(32)
        for sr in shipped:
            pool = sr.sample_values()
            stored = 0
            for _ in range(60):
                rows, mid, cols = (tuple(range(rng.randrange(1, 5)))
                                   for _ in range(3))
                f, g = (SemiringMatrix(sr, r, c, {
                    (i, j): rng.choice(pool) for i in r for j in c})
                    for r, c in ((rows, mid), (mid, cols)))
                out = compose(f, g)
                assert all(v != sr.zero for v in out.entries.values())
                stored += len(out.entries)
            assert stored > 0

    def test_agrees_with_relational_composition(self):
        elems = ("x", "y")
        a = Carrier(elems)
        cells = list(iproduct(elems, elems))
        rels = []
        for mask in range(1 << len(cells)):
            rels.append(Relation(a, a, frozenset(
                c for i, c in enumerate(cells) if mask >> i & 1)))
        for r1 in rels:
            for r2 in rels:
                direct = relation_to_matrix(compose_rel(r1, r2))
                viaw = compose(relation_to_matrix(r1), relation_to_matrix(r2))
                assert direct == viaw
                assert matrix_to_relation(viaw, a, a) == compose_rel(r1, r2)


class TestOrthogonalPair:
    def test_examples(self):
        pole = pcoh_pole()
        cols = ("i", "j")
        half = vector(RINF, cols, [F(1, 2), F(1, 2)])
        ones = vector(RINF, cols, [F(1), F(1)])
        zero = vector(RINF, cols, [F(0), F(0)])
        assert orthogonal_pair(half, ones, pole)
        assert orthogonal_pair(zero, ones, pole)
        assert not orthogonal_pair(ones, ones, pole)

    def test_mismatch(self):
        pole = pcoh_pole()
        with pytest.raises(IndexMismatch):
            orthogonal_pair(vector(RINF, ("i",), [F(1)]),
                            vector(RINF, ("j",), [F(1)]), pole)


class TestBipolarMember:
    def test_worked_examples(self):
        assert bipolar_member([(F(1), F(0)), (F(0), F(1))], (F(1, 2), F(1, 2)))
        assert not bipolar_member([(F(1), F(0))], (F(0), F(1)))
        g = (F(2), F(3))
        assert bipolar_member([g], g)

    def test_self_membership(self):
        rng = random.Random(13)
        for _ in range(50):
            dim = rng.randint(1, 3)
            x = tuple(F(rng.randint(0, 6), rng.randint(1, 6))
                      for _ in range(dim))
            assert bipolar_member([x], x)

    def test_monotone_in_generators(self):
        rng = random.Random(14)
        for _ in range(50):
            dim = rng.randint(1, 3)

            def rand_vec():
                return tuple(F(rng.randint(0, 5), rng.randint(1, 4))
                             for _ in range(dim))
            g1, g2, x = rand_vec(), rand_vec(), rand_vec()
            if bipolar_member([g1], x):
                assert bipolar_member([g1, g2], x)

    def test_against_vertex_oracle(self):
        rng = random.Random(15)
        for _ in range(100):
            dim = rng.randint(1, 3)

            def rand_vec():
                return tuple(F(rng.randint(0, 8), rng.randint(1, 5))
                             for _ in range(dim))
            gens = [rand_vec() for _ in range(rng.randint(1, 4))]
            x = rand_vec()
            assert bipolar_member(gens, x) == oracle_bipolar(gens, x)

    def test_errors(self):
        with pytest.raises(EmptyGenerators):
            bipolar_member([], (F(1),))
        with pytest.raises(DimensionCap):
            bipolar_member([tuple(F(1) for _ in range(9))],
                           tuple(F(1) for _ in range(9)))
        with pytest.raises(ValueError):
            bipolar_member([(F(-1),)], (F(1),))
        with pytest.raises(IndexMismatch):
            bipolar_member([(F(1), F(2))], (F(1),))

    def test_matrix_wrapper(self):
        gens = parse_matrix("rows g1 g2\ncols i j\ng1 i 1\ng2 j 1\n")
        pt = parse_vector("rows v\ncols i j\nv i 1/2\nv j 1/2\n")
        assert bipolar_member_matrix(gens, pt)


def linear_map(coeff, const, name="x"):
    return FunExpr.from_exprs(
        [(name, SAdd(SConst(F(const)), SMul(SConst(F(coeff)), SCoord(name))))])


class TestKleene:
    def test_identity_stays_at_zero(self):
        f = FunExpr.from_exprs([("x", SCoord("x"))])
        out = kleene_fixpoint(f, 1e-9)
        assert out.values["x"] == 0.0
        assert out.iterations == 1
        assert out.stabilized

    def test_halving_walk(self):
        out = kleene_fixpoint(linear_map(F(1, 2), F(1, 2)), 1e-9)
        assert abs(out.values["x"] - 1.0) <= 1e-9
        assert out.residual <= 1e-9
        assert out.iterations <= 10000

    def test_quadratic_walk(self):
        f = FunExpr.from_exprs([("x", SAdd(
            SConst(F(1, 4)), SMul(SConst(F(3, 4)),
                                  SMul(SCoord("x"), SCoord("x")))))])
        out = kleene_fixpoint(f, 1e-9)
        assert abs(out.values["x"] - 1 / 3) <= 1e-9

    def test_budget_exceeded_carries_last(self):
        f = linear_map(F(1, 2), F(1, 2))
        with pytest.raises(BudgetExceeded) as info:
            kleene_fixpoint(f, 1e-9, max_iter=3)
        res = info.value.result
        assert isinstance(res, KleeneResult)
        assert not res.stabilized
        assert res.residual > 1e-9

    def test_multi_coordinate_system(self):
        f = FunExpr.from_exprs([
            ("u", SAdd(SConst(F(1, 4)), SMul(SConst(F(1, 2)), SCoord("v")))),
            ("v", SMul(SCoord("u"), SCoord("u"))),
        ])
        out = kleene_fixpoint(f, 1e-12)
        u = out.values["u"]
        assert abs(u - (F(1, 4) + F(1, 2) * u * u)) <= 1e-9

    def test_divergent_reports_infinite_growth(self):
        f = FunExpr.from_exprs([("x", SAdd(SConst(F(1)), SCoord("x")))])
        with pytest.raises(BudgetExceeded):
            kleene_fixpoint(f, 1e-9, max_iter=50)


class TestUniformity:
    def test_doubling_example(self):
        h = FunExpr(("x",), (("y", SMul(SConst(F(2)), SCoord("x"))),))
        f = linear_map(F(1, 2), F(1, 4), "x")
        g = linear_map(F(1, 2), F(1, 2), "y")
        assert check_uniformity(h, f, g, 1e-9)

    def test_identity_square(self):
        h = FunExpr(("x",), (("x", SCoord("x")),))
        f = linear_map(F(1, 2), F(1, 3))
        assert check_uniformity(h, f, f, 1e-9)

    def test_zero_fixpoints(self):
        h = FunExpr(("x",), (("y", SMul(SConst(F(2)), SCoord("x"))),))
        f = FunExpr.from_exprs([("x", SMul(SConst(F(1, 2)), SCoord("x")))])
        g = FunExpr.from_exprs([("y", SMul(SConst(F(1, 2)), SCoord("y")))])
        assert check_uniformity(h, f, g, 1e-9)

    def test_precondition_failure(self):
        h = FunExpr(("x",), (("y", SMul(SConst(F(3)), SCoord("x"))),))
        f = linear_map(F(1, 2), F(1, 4), "x")
        g = linear_map(F(1, 2), F(1, 2), "y")
        with pytest.raises(PreconditionFailed):
            check_uniformity(h, f, g, 1e-9)


# the coefficient sets of the cli-batch `fix` inputs
FIX_A = ("1/4", "1/3", "1/2", "2/3", "1", "3/2")
FIX_B = ("1/4", "1/3", "2/5", "1/2")
FIX_P = ("1/4", "1/5", "1/3")
FIX_Q = ("1/4", "1/3", "1/2")
FIX_C = ("1/5", "1/3", "1/2", "1")
FIX_D = ("1/4", "1/3", "1/2")


def fix_cases():
    """(text, decide) for every float `fix` input of the cli-batch
    workload, plus critical systems; decide(v) maps each coordinate to
    -1, 0 or 1 as v lies below, at or above the least fixpoint there,
    decided exactly."""
    cases = []

    def exact(lfp):
        return lambda v: {n: (v[n] > w) - (v[n] < w) for n, w in lfp.items()}

    def quadratic(p, q):
        # the lfp is the smaller root of g(x) = q x^2 - x + p, which lies
        # below the vertex 1/(2q); left of the vertex g falls
        def decide(v):
            x = v["x"]
            g = q * x * x - x + p
            below = x <= 1 / (2 * q) and g >= 0
            above = x >= 1 / (2 * q) or g <= 0
            return {"x": above - below}
        return decide

    for a, b in iproduct(FIX_A, FIX_B):
        cases.append((f"x: {a} + {b} * x", exact({"x": F(a) / (1 - F(b))})))
    for p, q in iproduct(FIX_P, FIX_Q):
        cases.append((f"x: {p} + {q} * x * x", quadratic(F(p), F(q))))
    for a, b, c, d in iproduct(FIX_A, FIX_B, FIX_C, FIX_D):
        x = (F(a) + F(b) * F(c)) / (1 - F(b) * F(d))
        cases.append((f"x: {a} + {b} * y\ny: {c} + {d} * x",
                      exact({"x": x, "y": F(c) + F(d) * x})))
    rng = random.Random(16)
    qs = {F(1, 2), F(1, 4), F(3), F(1, 1000)} | {
        F(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(12)}
    for q in sorted(qs):
        cases.append((f"x: {1 / (4 * q)} + {q} * x * x",
                      exact({"x": 1 / (2 * q)})))
    cases.append(("x: 1/2 + 1/2 * y * y\ny: x", exact({"x": F(1), "y": F(1)})))
    cycle = [f"x{i}: 1/2 + 1/2 * x{(i + 1) % 8} * x{(i + 1) % 8}"
             for i in range(8)]
    cases.append(("\n".join(cycle), exact({f"x{i}": F(1) for i in range(8)})))
    cases.append(("x: 2/3", exact({"x": F(2, 3)})))
    return cases


FIX_CASES = fix_cases()


class TestCertifiedFixpoint:
    @pytest.mark.parametrize("text,decide", FIX_CASES, ids=[
        text.replace("\n", "; ") for text, _ in FIX_CASES])
    def test_bracket_holds_the_least_fixpoint(self, text, decide):
        out = certified_fixpoint(parse_funexpr(text), 1e-9)
        assert out.certified and out.stabilized
        assert all(isinstance(v, F) for v in [*out.lower.values(),
                                              *out.upper.values()])
        assert all(side <= 0 for side in decide(out.lower).values())
        assert all(side >= 0 for side in decide(out.upper).values())
        assert all(0 <= out.upper[n] - out.lower[n] <= 1e-9
                   for n in out.lower)
        assert out.residual <= 1e-9
        # the value is the float nearest the midpoint
        assert all(abs(F(v) - out.lower[n]) <= 1e-9 and
                   abs(F(v) - out.upper[n]) <= 1e-9
                   for n, v in out.values.items())
        assert out.iterations <= 64

    def test_critical_system_in_thirty_steps(self):
        out = certified_fixpoint(parse_funexpr("x: 1/2 + 1/2 * x * x"), 1e-9)
        assert out.iterations == 30
        assert out.lower == {"x": 1 - F(1, 2 ** 30)}
        assert out.upper == {"x": 1}

    @pytest.mark.parametrize("text", [
        "x: 1 + 2 * x",
        "x: 1/4 + 3/2 * x + x * x",
    ])
    def test_uncertifiable_step_leaves_kleene_unchanged(self, text):
        # the first Newton step would need a negative inverse, so Kleene
        # iteration runs on the whole budget and answers as it always did
        f = parse_funexpr(text)
        out = certified_fixpoint(f, 1e-9)
        assert not out.certified and out.upper is None
        assert out.lower == {n: 0 for n in f.inputs}
        kleene = kleene_fixpoint(f, 1e-9)
        assert (out.values, out.residual, out.iterations, out.stabilized) \
            == (kleene.values, kleene.residual, kleene.iterations,
                kleene.stabilized)
        assert out.values["x"] == float("inf")

    def test_fallback_keeps_the_newton_lower_bound(self):
        # one certified step reaches x = 1, where f'(1) = 2; the least
        # fixpoint of x = 1 + x^2 is infinite
        out = certified_fixpoint(parse_funexpr("x: 1 + x * x"), 1e-9)
        assert not out.certified
        assert out.lower == {"x": 1}
        assert out.values["x"] == float("inf")

    def test_irrational_critical_point_goes_to_kleene(self):
        # f(x) - x = (x^2 + 2x - 1)^2 / 4, so the lfp sqrt(2) - 1 is a
        # double root and f(u) > u at every other point: no rational
        # upper bound exists, and the rounded Newton steps stall below it
        f = parse_funexpr("x: 1/4 + 1/2*x*x + x*x*x + 1/4*x*x*x*x")
        out = certified_fixpoint(f, 1e-6)
        assert not out.certified
        lower = out.lower["x"]
        assert (lower + 1) ** 2 <= 2 <= (lower + 1 + F(1, 2 ** 40)) ** 2
        newton_steps = out.iterations - kleene_fixpoint(f, 1e-6).iterations
        assert 0 < newton_steps <= 100

    def test_budget_exhaustion_carries_the_lower_bound(self):
        with pytest.raises(BudgetExceeded) as info:
            certified_fixpoint(parse_funexpr("x: 1/2 + 1/2 * x * x"), 1e-9,
                               max_iter=5)
        assert "residual" in str(info.value)
        res = info.value.result
        assert isinstance(res, CertifiedResult)
        assert not res.certified and not res.stabilized
        assert res.iterations == 5
        assert res.lower == {"x": 1 - F(1, 2 ** 5)}

    def test_wide_systems_go_to_kleene(self):
        names = [f"x{i}" for i in range(NEWTON_DIMENSION_CAP + 1)]
        f = parse_funexpr("".join(f"{n}: 1/4 + 1/2 * {n}\n" for n in names))
        out = certified_fixpoint(f, 1e-9)
        assert not out.certified
        assert out.iterations == kleene_fixpoint(f, 1e-9).iterations

    def test_float_constants_are_exact(self):
        f = FunExpr.from_exprs([("x", SAdd(SConst(0.5),
                                           SMul(SConst(0.5), SCoord("x"))))])
        out = certified_fixpoint(f, 1e-9)
        assert out.certified and out.upper == {"x": 1}

    def test_bracket_past_the_largest_float(self):
        big = 10 ** 400
        out = certified_fixpoint(parse_funexpr(f"x: {big} + 1/2 * x"), 1e-9)
        assert out.upper == {"x": 2 * big}
        assert out.values == {"x": float("inf")}

    def test_uniformity_of_critical_maps(self):
        # h . f = g . h for h(x) = 2x; the lfps are 1 and 2, both critical,
        # which Kleene iteration does not reach within its budget
        h = FunExpr(("x",), (("y", SMul(SConst(F(2)), SCoord("x"))),))
        f = parse_funexpr("x: 1/2 + 1/2*x*x")
        g = parse_funexpr("y: 1 + 1/4*y*y")
        assert check_uniformity(h, f, g, 1e-9)


def _linear_text(names, a, b):
    return "".join(f"{n}: {c}" + "".join(f" + {m} * {x}"
                                         for m, x in zip(row, names)) + "\n"
                   for n, c, row in zip(names, b, a))


def _rational_sqrt(v):
    root = F(math.isqrt(v.numerator), math.isqrt(v.denominator))
    assert root * root == v
    return root


class TestExactFixpoint:
    """exact_fixpoint answers mu f itself where its certificate at the
    bracket's upper end holds, compared exactly with closed forms, and
    certified_fixpoint's bracket elsewhere."""

    def test_random_linear_systems(self):
        rng = random.Random(27)
        for _ in range(60):
            names = [f"x{i}" for i in range(rng.randint(1, 3))]
            n = len(names)
            # row sums at most 2/3, so the spectral radius is below 1
            a = [[F(rng.randint(0, 2), 3 * n) for _ in names] for _ in names]
            b = [F(rng.randint(0, 5), rng.randint(1, 6)) for _ in names]
            text = _linear_text(names, a, b)
            closed = solve_linear([[int(i == j) - a[i][j] for j in range(n)]
                                   for i in range(n)], b)
            out = exact_fixpoint(parse_funexpr(text), 1e-9)
            assert out.exact, text
            assert out.values == dict(zip(names, closed)), text
            assert out.residual == 0 and out.mode == "exact"

    def test_linear_pair(self):
        text = _linear_text("xy", [[F(0), F(1, 2)], [F(1, 3), F(0)]],
                            [F(23, 60), F(41, 90)])
        out = exact_fixpoint(parse_funexpr(text), 1e-9)
        assert out.exact and out.values == {"x": F(11, 15), "y": F(7, 10)}

    def test_halving_walk(self):
        out = exact_fixpoint(linear_map(F(1, 2), F(1, 2)), 1e-9)
        assert out.exact and out.values == {"x": 1} == out.upper

    def test_random_quadratics_with_rational_roots(self):
        rng = random.Random(28)
        for _ in range(60):
            q = F(rng.randint(1, 6), rng.randint(1, 6))
            root = F(rng.randint(0, 9), 20) / q  # below the vertex 1/(2q)
            p = root * (1 - q * root)
            closed = (1 - _rational_sqrt(1 - 4 * p * q)) / (2 * q)
            out = exact_fixpoint(parse_funexpr(f"x: {p} + {q} * x * x"),
                                 1e-9)
            assert out.exact and out.values == {"x": closed}, (p, q)

    def test_zero_bracket_is_exact(self):
        # f'(0) = 1 makes I - f'(0) singular, but lower = upper = 0
        out = exact_fixpoint(parse_funexpr("x: x"), 1e-9)
        assert out.exact and out.values == {"x": 0}

    @pytest.mark.parametrize("text", [
        "x: 1/4 + 1/2 * x * x",
        "x: 1/2 + 1/2 * x * x",
        "x: 1/12 + 3 * x * x",
        "x: 1/4 + 1/2 * y * y\ny: 1/3 + 1/3 * x",
        "x: 1 + 2 * x",
        "".join(f"x{i}: 1/4 + 1/2 * x{i}\n"
                for i in range(NEWTON_DIMENSION_CAP + 1)),
    ], ids=["irrational", "critical", "critical-3", "coupled", "divergent",
            "wide"])
    def test_bracket_without_certificate(self, text):
        f = parse_funexpr(text)
        out = exact_fixpoint(f, 1e-9)
        bracket = certified_fixpoint(f, 1e-9)
        assert out.exact is False and out.mode == "exact"
        assert out._values()[:4] + out._values()[5:-1] \
            == bracket._values()[:4] + bracket._values()[5:]

    def test_greater_fixpoint_is_refused(self):
        # x = 3/16 + x^2 has the fixpoints 1/4 and 3/4; f(3/4) = 3/4,
        # but 1 - f'(3/4) = -1/2 has a negative inverse
        f = parse_funexpr("x: 3/16 + x * x")
        assert not _is_least(f, {"x": F(3, 4)})
        assert _is_least(f, {"x": F(1, 4)})
        assert exact_fixpoint(f, 1e-9).values == {"x": F(1, 4)}

    def test_non_fixpoint_is_refused(self):
        # f(1/2) = 1/3 < 1/2 bounds mu f = 1/5 from above, and the
        # inverse 3/2 is positive
        assert not _is_least(parse_funexpr("x: 1/6 + 1/3 * x"),
                             {"x": F(1, 2)})

    def test_bound_too_wide_to_print_is_a_budget_error(self):
        # the bracket proves 3/10, but its lower end is a multiple of
        # 2^-16642, whose numerator has more digits than str() writes
        out = exact_fixpoint(parse_funexpr("x: 1/5 + 1/3 * x"),
                             F("1e-5000"))
        assert out.exact and out.values == {"x": F(3, 10)}
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and limit < 5000:
            with pytest.raises(BudgetExceeded, match=(
                    "^the answer has a number with more decimal digits "
                    "than an integer may print as$")):
                out.to_dict()
        else:
            assert out.to_dict()["value"] == {"x": "3/10"}


def _random_polynomial(rng, leaves):
    """A random scalar expression with the given number of leaves, over
    the coordinates x, y, z and small non-negative constants."""
    if leaves == 1:
        if rng.random() < 0.4:
            return SConst(rng.choice((F(0), F(1, 3), F(1, 2), F(1), F(2))))
        return SCoord(rng.choice("xyz"))
    left = rng.randrange(1, leaves)
    ctor = rng.choice((SAdd, SMul))
    return ctor(_random_polynomial(rng, left),
                _random_polynomial(rng, leaves - left))


def _random_point(rng):
    return {n: rng.choice((F(0), F(1, 4), F(1, 2), F(2, 3), F(1), F(3)))
            for n in "xyz"}


class TestLinearize:
    """A Newton step's image f(x) and Jacobian f'(x) come from one exact
    forward pass, checked against a monomial expansion and against
    eval_scalar, which evaluates exactly at an exact point."""

    def _check(self, expr, point):
        value, partials = _linearize(expr, point)
        assert value == expanded_value(expr, point) == eval_scalar(expr, point)
        assert partials == expanded_partials(expr, point)
        assert all(d > 0 for d in partials.values())

    def test_random_polynomials(self):
        rng = random.Random(20261019)
        for _ in range(300):
            expr = _random_polynomial(rng, rng.randint(1, 12))
            self._check(expr, _random_point(rng))

    def test_product_chain_of_height_100(self):
        rng = random.Random(100)
        for _ in range(5):
            expr = _random_polynomial(rng, 2)
            for _ in range(99):
                factor = _random_polynomial(rng, rng.choice((1, 2)))
                expr = SMul(expr, factor) if rng.random() < 0.5 \
                    else SMul(factor, expr)
            self._check(expr, _random_point(rng))

    def test_zero_factor_drops_partials(self):
        x, y = SCoord("x"), SCoord("y")
        expr = SAdd(SMul(x, y), SMul(SConst(F(0)), x))
        assert _linearize(expr, {"x": F(0), "y": F(0)}) == (0, {})
        assert _linearize(expr, {"x": F(2), "y": F(0)}) == (0, {"y": 2})


class TestAdmissibility:
    def test_pcoh_admissible(self):
        report = is_admissible_pole(pcoh_pole())
        assert report.verdict is Verdict.ADMISSIBLE

    def test_totality_not_admissible_no_bottom(self):
        report = is_admissible_pole(totality_pole())
        assert report.verdict is Verdict.NOT_ADMISSIBLE
        assert report.witness_sup is False

    def test_naturals_not_admissible_with_witness(self):
        report = is_admissible_pole(nat_pole())
        assert report.verdict is Verdict.NOT_ADMISSIBLE
        assert report.witness_chain == (0, 1, 2, 3, 4, 5)
        assert report.witness_sup is INF

    def test_undeclared_evidence_is_inconclusive(self):
        pole = PoleSpec("mystery", RINF, lambda v: v is not INF, None)
        report = is_admissible_pole(pole)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_bad_declarations_rejected(self):
        with pytest.raises(ValueError):
            is_admissible_pole(PoleSpec(
                "bad", NINF, lambda v: v is not INF,
                ChainCounterexample((3, 1, 2), INF)))
        with pytest.raises(ValueError):
            is_admissible_pole(PoleSpec(
                "bad2", RINF, lambda v: v is not INF and v <= 2,
                DownsetClosed(F(1))))


class TestFileFormats:
    def test_matrix_round_trip(self):
        mat = SemiringMatrix(RINF, ("a", "b"), ("c",),
                             {("a", "c"): F(1, 2), ("b", "c"): INF})
        again = parse_matrix(render_matrix(mat))
        assert again == mat

    def test_vector_requires_single_row(self):
        with pytest.raises(FileFormatError):
            parse_vector("rows a b\ncols c\n")

    def test_unknown_index_rejected(self):
        with pytest.raises(FileFormatError):
            parse_matrix("rows a\ncols b\nz b 1\n")

    def test_negative_value_rejected(self):
        with pytest.raises(FileFormatError):
            parse_matrix("rows a\ncols b\na b -1\n")

    def test_repeated_entry_rejected(self):
        # the second line would silently replace the first
        with pytest.raises(FileFormatError,
                           match="^line 4: repeated entry 'v','a'$"):
            parse_vector("rows v\ncols a\nv a 1/2\nv a 1\n")

    @pytest.mark.parametrize("text,message", [
        ("rows g g\ncols a\n", "line 1: repeated label 'g' in 'rows'"),
        ("rows g\n# two columns\ncols a b a\n",
         "line 3: repeated label 'a' in 'cols'"),
    ], ids=["rows", "cols"])
    def test_repeated_label_rejected(self, text, message):
        with pytest.raises(FileFormatError, match=f"^{message}$"):
            parse_matrix(text)

    @pytest.mark.parametrize("text,message", [
        # the second header replaced the first, and the entry before it
        # was blamed for naming an unknown index
        ("rows v\ncols a\nv a 1\ncols b\nv b 1/2\n",
         "line 4: repeated 'cols' header"),
        # a second header that only reorders the labels was accepted
        ("rows v\ncols a b\nv a 1\ncols b a\n",
         "line 4: repeated 'cols' header"),
        ("rows v\n\nrows v\ncols a\n", "line 3: repeated 'rows' header"),
    ], ids=["new-labels", "reordered", "rows"])
    def test_repeated_header_rejected(self, text, message):
        with pytest.raises(FileFormatError, match=f"^{message}$"):
            parse_vector(text)

    def test_funexpr_parsing(self):
        f = parse_funexpr("x: 1/4 + 3/4 * x * x\n")
        assert f.is_endo()
        out = f.eval({"x": 1.0})
        assert out["x"] == 1.0

    def test_funexpr_eval_rounds_a_constant_past_the_largest_float(self):
        # each constant is rounded to the nearest float, inf past the
        # largest, and a zero factor keeps a product at 0, not nan
        f = parse_funexpr(f"x: {10 ** 400} * x + 1/2\ny: {10 ** 400}\n")
        assert f.eval({"x": 0.5, "y": 0.0}) == {"x": math.inf, "y": math.inf}
        assert f.eval({"x": 0.0, "y": 0.0}) == {"x": 0.5, "y": math.inf}

    def test_funexpr_errors(self):
        with pytest.raises(FileFormatError):
            parse_funexpr("x: 1 +\n")
        with pytest.raises(FileFormatError):
            parse_funexpr("x: y + 1\n")
        # the first unknown coordinate in reading order is named
        with pytest.raises(FileFormatError, match="unknown coordinate 'z'"):
            parse_funexpr("x: y * z + w\ny: (w + z) * 1\n")
        with pytest.raises(FileFormatError):
            parse_funexpr("")
        with pytest.raises(FileFormatError):
            parse_funexpr("x: 1/0\n")

    def test_funexpr_multiline_system(self):
        f = parse_funexpr("u: 1/2 * v\nv: u + 1/4\n")
        assert set(f.inputs) == {"u", "v"}
        assert f.is_endo()


class TestSimplexDirect:
    def test_unbounded_detected(self):
        from mullsem.simplex import UNBOUNDED, simplex_maximize
        # maximize y1 with no constraint touching it
        status, _, _ = simplex_maximize([[F(0), F(1)]], [F(1)], [F(1), F(0)])
        assert status == UNBOUNDED

    def test_degenerate_zero_objective(self):
        from mullsem.simplex import OPTIMAL, simplex_maximize
        status, value, y = simplex_maximize([[F(1)]], [F(1)], [F(0)])
        assert status == OPTIMAL and value == 0

    def test_known_optimum(self):
        from mullsem.simplex import OPTIMAL, simplex_maximize
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6; optimum at (8/5, 6/5)
        status, value, y = simplex_maximize(
            [[F(1), F(2)], [F(3), F(1)]], [F(4), F(6)], [F(1), F(1)])
        assert status == OPTIMAL
        assert value == F(14, 5)
        assert y == [F(8, 5), F(6, 5)]

    def test_requires_nonnegative_rhs(self):
        from mullsem.simplex import simplex_maximize
        with pytest.raises(ValueError):
            simplex_maximize([[F(1)]], [F(-1)], [F(1)])
