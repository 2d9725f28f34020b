import gc
import hashlib
import json
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from oracles import (brute_biclosure, brute_orthogonal, brute_upward_closure,
                     element_parts, explicit_members, fixpoint_sample,
                     powerset)
from test_formula import random_formula
from mullsem import _kernels as kernels
from mullsem import relmodel, totality
from mullsem.budgets import Budgets
from mullsem.errors import (BudgetExceeded, CarrierTooLarge,
                            IterationBudgetExceeded, MullsemError,
                            UnsupportedConstructor, VarianceError)
from mullsem.fibration import (check_total_morphism, enumerate_families,
                               family_lattice, functor_on_relations,
                               identity_rel)
from mullsem.formula import (EMPTY_CONTEXT, Mu, check_variance, fold, parse,
                             substitute, to_text)
from mullsem.lattice import iterate
from mullsem.relmodel import (Bag, Carrier, Fold, InL, InR, Pair, Relation,
                              UNIT, bag_carrier, bit_indices, fold_depth,
                              interpret_carrier)
from mullsem.totality import (TotalitySpace, UpFamily, _reindex_along_fold,
                              biclosure, interpret_totality, orthogonal,
                              restrict_antichain)


@pytest.fixture(autouse=True)
def checked_trusted_families(monkeypatch):
    """Every family built without the public check is still verified:
    a sorted, duplicate-free antichain of masks inside its carrier."""
    trusted = UpFamily._trusted.__func__

    def checked(cls, carrier, minima):
        assert isinstance(minima, tuple)
        assert list(minima) == sorted(set(minima))
        assert all(0 <= m < 1 << len(carrier) for m in minima)
        assert kernels.is_antichain(minima)
        return trusted(cls, carrier, minima)
    monkeypatch.setattr(UpFamily, "_trusted", classmethod(checked))


def fam(carrier, *sets):
    return biclosure(carrier, [frozenset(s) for s in sets])


def numeral(n):
    e = Fold(InL(UNIT))
    for _ in range(n):
        e = Fold(InR(e))
    return e


AB = Carrier(["a", "b"])


class TestOrthogonal:
    def test_empty_family_gives_full(self):
        out = orthogonal(UpFamily.empty(AB))
        assert out.is_full_family()
        assert explicit_members(out) == frozenset(powerset("ab"))

    def test_single_singleton(self):
        out = orthogonal(fam(AB, "a"))
        assert out == fam(AB, "a")

    def test_two_singletons_need_both(self):
        out = orthogonal(fam(AB, "a", "b"))
        assert out == fam(AB, "ab")

    def test_family_with_empty_set_gives_empty(self):
        assert orthogonal(UpFamily.full(AB)).is_empty_family()

    def test_carrier_too_large(self):
        big = Carrier([f"e{i}" for i in range(13)])
        with pytest.raises(CarrierTooLarge):
            orthogonal(UpFamily.empty(big), max_carrier=12)


class TestBiclosure:
    def test_singleton(self):
        out = fam(AB, "a")
        assert explicit_members(out) == \
            frozenset({frozenset("a"), frozenset("ab")})

    def test_empty_input_is_bottom(self):
        out = biclosure(AB, [])
        assert out.is_empty_family()

    def test_empty_set_member_is_top(self):
        out = biclosure(AB, [frozenset()])
        assert out.is_full_family()

    def test_equals_double_orthogonal_and_upward_closure(self):
        carrier = Carrier(["x", "y", "z"])
        elems = list(carrier.elems)
        subsets = powerset(elems)
        for choice in range(1 << len(subsets)):
            family = frozenset(s for i, s in enumerate(subsets)
                               if choice >> i & 1)
            closed = biclosure(carrier, family)
            assert explicit_members(closed) == \
                brute_upward_closure(elems, family) if family else True
            via_orth = orthogonal(orthogonal(closed))
            assert via_orth == closed
            if choice % 17 == 0:  # cross-check a sample against brute force
                assert explicit_members(closed) == \
                    brute_biclosure(elems, family)


class TestGaloisLaws:
    def test_exhaustive_up_to_3(self):
        for size in range(4):
            carrier = Carrier([f"e{i}" for i in range(size)])
            elems = list(carrier.elems)
            subsets = powerset(elems)
            for choice in range(1 << len(subsets)):
                family = frozenset(s for i, s in enumerate(subsets)
                                   if choice >> i & 1)
                x = biclosure(carrier, family)
                xo = orthogonal(x)
                xoo = orthogonal(xo)
                # X <= X^~~, X^~ = X^~~~, and antitonicity
                assert x.le(xoo)
                assert orthogonal(xoo) == xo
                assert explicit_members(xo) == brute_orthogonal(elems, family)

    def test_antitone(self):
        x = fam(AB, "a")
        y = fam(AB, "a", "b")
        assert x.le(y)
        assert orthogonal(y).le(orthogonal(x))

    def test_size_4_sampled_against_brute_force(self):
        import random
        rng = random.Random(42)
        carrier = Carrier(["w", "x", "y", "z"])
        elems = list(carrier.elems)
        subsets = powerset(elems)
        for _ in range(150):
            family = frozenset(s for s in subsets if rng.random() < 0.3)
            closed = biclosure(carrier, family)
            if family:
                assert explicit_members(closed) == \
                    brute_upward_closure(elems, family)
            assert explicit_members(orthogonal(closed)) == \
                brute_orthogonal(elems, family)
            assert orthogonal(orthogonal(closed)) == closed


class TestFamilyLattice:
    def test_bottom_and_top(self):
        lat = family_lattice(AB)
        lat.validate()
        assert lat.bottom.is_empty_family()
        assert lat.top.is_full_family()

    def test_meet_join_against_membership(self):
        lat = family_lattice(AB)
        for x in lat:
            for y in lat:
                mt = lat.meet(x, y)
                jn = lat.join(x, y)
                assert explicit_members(mt) == \
                    explicit_members(x) & explicit_members(y)
                assert explicit_members(jn) == \
                    explicit_members(x) | explicit_members(y)
                assert mt == x.meet(y)
                assert jn == x.join(y)

    def test_family_count_is_dedekind(self):
        assert len(enumerate_families(Carrier([]))) == 2
        assert len(enumerate_families(Carrier(["a"]))) == 3
        assert len(enumerate_families(AB)) == 6
        assert len(enumerate_families(Carrier(["a", "b", "c"]))) == 20


class TestInterpret:
    def test_unit(self):
        s = interpret_totality(parse("1"))
        assert s.carrier.as_set() == {UNIT}
        assert s.family == UpFamily(s.carrier, (1,))

    def test_plus_unit_unit(self):
        s = interpret_totality(parse("1 + 1"))
        assert s.carrier.as_set() == {InL(UNIT), InR(UNIT)}
        assert set(s.family.min_sets()) == \
            {frozenset([InL(UNIT)]), frozenset([InR(UNIT)])}

    def test_zero_and_top(self):
        z = interpret_totality(parse("0"))
        assert len(z.carrier) == 0 and z.family.is_empty_family()
        t = interpret_totality(parse("top"))
        assert len(t.carrier) == 0 and t.family.is_full_family()

    def test_with_needs_both_components(self):
        s = interpret_totality(parse("1 & 1"))
        assert set(s.family.min_sets()) == \
            {frozenset([InL(UNIT), InR(UNIT)])}

    def test_tensor_of_units(self):
        s = interpret_totality(parse("1 * 1"))
        assert s.family.min_sets() == (frozenset(s.carrier.elems),)

    def test_par_duality(self):
        # A par B = (A^ tensor B^)^ on the product carrier
        f = parse("(1 + 1) | (1 + 1)")
        s = interpret_totality(f)
        dual = interpret_totality(parse("~(~(1 + 1) * ~(1 + 1))"))
        assert s.family == dual.family

    def test_mu_naturals_antichain(self):
        s = interpret_totality(parse("mu x. 1 + x"), {}, Budgets(depth=3))
        assert set(s.family.min_sets()) == \
            {frozenset([numeral(0)]), frozenset([numeral(1)]),
             frozenset([numeral(2)])}
        assert s.stabilized

    def test_nu_of_plus_is_full(self):
        s = interpret_totality(parse("nu x. 1 + x"), {}, Budgets(depth=3))
        assert s.family.is_full_family()

    def test_mu_vs_nu_identity(self):
        m = interpret_totality(parse("mu x. x"), {}, Budgets(depth=3))
        n = interpret_totality(parse("nu x. x"), {}, Budgets(depth=3))
        assert m.family.is_empty_family()
        assert n.family.is_full_family()
        assert m.carrier == n.carrier

    def test_lolli_rejected(self):
        with pytest.raises(UnsupportedConstructor):
            interpret_totality(parse("1 -o 1"))

    def test_bang_of_unit(self):
        s = interpret_totality(parse("!1"), {}, Budgets(bag=2))
        # total sets must contain all bags over {()} up to the budget
        assert len(s.family.min_sets()) == 1
        member = s.family.min_sets()[0]
        assert len(member) == 3  # sizes 0, 1, 2

    def test_mu_restricted_antichain_stability(self):
        seen = {}
        for k in range(3, 7):
            s = interpret_totality(parse("mu x. 1 + x"), {}, Budgets(depth=k))
            seen[k] = s
            assert s.stabilized
        for k in range(4, 7):
            bound = k - 1
            assert restrict_antichain(seen[k].family, bound) == \
                restrict_antichain(seen[k - 1].family, bound)

    def test_depth_zero_is_never_stabilized(self):
        # the chain takes no step, so no binder can claim its fixpoint;
        # the flag agrees with the carrier's, as in the rel model
        for text in ("mu x. 1 + x", "nu x. 1 + x", "mu x. x", "nu x. x",
                     "1 + mu x. 1 * x", "mu x. nu y. 1 + x * y"):
            f = parse(text)
            s = interpret_totality(f, {}, Budgets(depth=0))
            assert s.stabilized is False, text
            assert interpret_carrier(f, budgets=Budgets(depth=0)) \
                .stabilized is False, text
        assert interpret_totality(parse("1 + 1"), {},
                                  Budgets(depth=0)).stabilized is True

    def test_unfolding_regression_list(self):
        texts = ["mu x. 1 + x", "nu x. 1 + x", "mu x. x", "nu x. x",
                 "mu x. 1 & x", "nu x. 1 & x", "mu x. (1 + x) * 1",
                 "mu x. 1 + (x & x)", "nu x. (1 + x) * (1 + x)"]
        for text in texts:
            f = parse(text)
            # product bodies square the carrier per level; keep those shallow
            k = 2 if "*" in text else 3
            unfolded = substitute(f.body, f.var, f)
            inner = interpret_totality(unfolded, {}, Budgets(depth=k))
            outer = interpret_totality(f, {}, Budgets(depth=k + 1))
            wrapped_carrier = Carrier([Fold(e) for e in inner.carrier])
            assert outer.carrier == wrapped_carrier, text
            wrapped_minima = sorted(
                frozenset(Fold(e) for e in s)
                for s in inner.family.min_sets())
            assert sorted(outer.family.min_sets()) == wrapped_minima, text


class TestTotalMorphisms:
    def test_identity_total(self):
        c = Carrier(["t", "f"])
        space = TotalitySpace(c, biclosure(c, [frozenset(["t"]),
                                               frozenset(["f"])]))
        assert check_total_morphism(identity_rel(c), space, space)

    def test_empty_relation_not_total(self):
        c = Carrier([UNIT])
        space = TotalitySpace(c, UpFamily(c, (1,)))
        empty = Relation(c, c, frozenset())
        assert not check_total_morphism(empty, space, space)

    def test_collapse_to_unit_total(self):
        bools = Carrier(["tt", "ff"])
        space_b = TotalitySpace(
            bools, biclosure(bools, [frozenset(["tt"]), frozenset(["ff"])]))
        unit_c = Carrier([UNIT])
        space_1 = TotalitySpace(unit_c, UpFamily(unit_c, (1,)))
        r = Relation(bools, unit_c,
                     frozenset([("tt", UNIT), ("ff", UNIT)]))
        assert check_total_morphism(r, space_b, space_1)

    def test_composition_preserves_condition(self):
        # category laws: identities are total, composites of total are total
        a = Carrier(["x", "y"])
        spaces = [TotalitySpace(a, f) for f in enumerate_families(a)
                  if not f.is_empty_family()]
        pair_space = [(p, q) for p in a for q in a]
        rels = [Relation(a, a, frozenset(ps))
                for ps in (frozenset(), frozenset([("x", "x")]),
                           frozenset([("x", "x"), ("y", "y")]),
                           frozenset(pair_space),
                           frozenset([("x", "y"), ("y", "x")]))]
        for sa in spaces:
            assert check_total_morphism(identity_rel(a), sa, sa)
            for sb in spaces:
                for sc in spaces:
                    for r1 in rels:
                        if not check_total_morphism(r1, sa, sb):
                            continue
                        for r2 in rels:
                            if check_total_morphism(r2, sb, sc):
                                assert check_total_morphism(
                                    compose_rel_local(r1, r2), sa, sc)


def compose_rel_local(r1, r2):
    from mullsem.fibration import compose_rel
    return compose_rel(r1, r2)


class TestLiftingPremise:
    """The premise of the lifting theorem on the concrete model: a
    formula's action on relations carries total morphisms A -> B to
    total morphisms F(A) -> F(B)."""

    BODIES = ("x", "1 + x", "x + x", "x * x", "1 * x", "x & x", "x | x",
              "!x", "?x", "mu y. 1 + x * y", "nu y. x & y", "mu y. x + y")

    def test_action_preserves_total_morphisms(self):
        budgets = Budgets(depth=2, bag=2)
        # every up-closed family on 0, 1 and 2 labels: 2 + 3 + 6 spaces
        spaces = [TotalitySpace(c, family) for n in range(3)
                  for c in [Carrier([f"l{i}" for i in range(n)])]
                  for family in enumerate_families(c)]
        assert len(spaces) == 11
        total = []
        for a in spaces:
            for b in spaces:
                grid = [(p, q) for p in a.carrier for q in b.carrier]
                for bits in range(1 << len(grid)):
                    r = Relation(a.carrier, b.carrier, frozenset(
                        p for i, p in enumerate(grid) if bits >> i & 1))
                    if check_total_morphism(r, a, b):
                        total.append((r, a, b))
        checks = 0
        for text in self.BODIES:
            f = parse(text)
            lifted = {id(s): interpret_totality(f, {"x": s}, budgets)
                      for s in spaces}
            for r, a, b in total:
                out = functor_on_relations(f, "x", r, budgets=budgets)
                assert check_total_morphism(out, lifted[id(a)],
                                            lifted[id(b)]), (text, r.pairs)
                checks += 1
        assert checks == 5064


class TestErrorsAndEnv:
    def test_mismatched_morphism_endpoints(self):
        a = Carrier(["x"])
        b = Carrier(["y"])
        sa = TotalitySpace(a, UpFamily.full(a))
        sb = TotalitySpace(b, UpFamily.full(b))
        with pytest.raises(Exception) as info:
            check_total_morphism(identity_rel(a), sa, sb)
        from mullsem.errors import CarrierMismatch
        assert isinstance(info.value, CarrierMismatch)

    def test_unbound_variable(self):
        from mullsem.errors import UnboundVariable
        with pytest.raises(UnboundVariable):
            interpret_totality(parse("x"))

    def test_interpret_with_environment(self):
        base = interpret_totality(parse("1 + 1"))
        out = interpret_totality(parse("x & x"), {"x": base})
        assert len(out.carrier) == 4
        assert all(len(s) == 2 for s in out.family.min_sets())

    def test_ill_sorted_binder_is_variance_error(self):
        # without the check, the non-monotone body runs to the iteration
        # cap and the error does not name the binder
        with pytest.raises(VarianceError, match="in 'mu x. 1 \\+ ~x'"):
            interpret_totality(parse("mu x. 1 + ~x"))

    def test_environment_names_are_constants(self):
        # each occurrence of x may take either sort, as a constant may
        base = interpret_totality(parse("1 + 1"))
        out = interpret_totality(parse("nu y. (~x * x) & y"), {"x": base})
        assert len(out.carrier) == 16
        assert out.family.is_empty_family()

    def test_non_antichain_rejected(self):
        with pytest.raises(ValueError):
            UpFamily(AB, (1, 3))  # {a} inside {a,b}

    @pytest.mark.parametrize("carrier,minima", [
        (Carrier(["a"]), (2,)), (AB, (4,)), (AB, (1, 8)), (AB, (-1,)),
        (AB, (-2, 1)), (Carrier([]), (1,))])
    def test_mask_outside_carrier_rejected(self, carrier, minima):
        # only the constructor is called: on such a family min_sets
        # would raise IndexError, and orthogonal loop on a negative mask
        with pytest.raises(ValueError, match="subsets of the carrier"):
            UpFamily(carrier, minima)

    def test_enumeration_bound(self):
        big = Carrier([f"e{i}" for i in range(5)])
        with pytest.raises(CarrierTooLarge):
            enumerate_families(big)

    def test_iteration_budget(self):
        with pytest.raises(IterationBudgetExceeded,
                           match="^no stabilization within 1 iterations$"):
            interpret_totality(parse("mu x. 1 + x"),
                               budgets=Budgets(iter_cap=1))


class TestExponentials:
    def test_whynot_of_booleans(self):
        # ?(1+1) dualizes the multiset promotion of the dual family: the
        # orthogonal of one full bag-set is the antichain of its singletons
        s = interpret_totality(parse("?(1 + 1)"), {}, Budgets(bag=2))
        assert len(s.carrier) == 6
        assert sorted(len(m) for m in s.family.min_sets()) == [1] * 6

    def test_bang_of_booleans(self):
        # one minimal bag-set per minimal total set of the operand
        s = interpret_totality(parse("!(1 + 1)"), {}, Budgets(bag=2))
        assert sorted(len(m) for m in s.family.min_sets()) == [3, 3]

    def test_bang_budget_guard(self):
        from mullsem.errors import BudgetExceeded
        wide = parse("!((1 + 1) * (1 + 1) * (1 + 1))")
        with pytest.raises(BudgetExceeded):
            interpret_totality(wide, {}, Budgets(bag=8, carrier_cap=500))


class TestWithBudget:
    # the & of m and n minimal sets has m * n minima; unguarded, the
    # antichains of such formulas grow past any memory (the CLI tests use
    # the default cap)
    @pytest.mark.parametrize("text", ["mu x. nu y. (1 + x) & (1 + y)",
                                      "mu x. mu y. (1 + 1 + 1) + (x & y)",
                                      "mu x. nu y. (1 + 1) + (x & y)"])
    def test_guard_raises_before_building(self, text):
        message = r"^& of \d+ x \d+ minimal sets .* exceeds cap 2000$"
        with pytest.raises(BudgetExceeded, match=message):
            interpret_totality(parse(text), {},
                               Budgets(depth=3, carrier_cap=2000))

    def test_product_at_the_cap_is_built(self):
        # 2 x 2 minimal sets: allowed at cap 4, refused at cap 3
        text = "(1 + 1) & (1 + 1)"
        s = interpret_totality(parse(text), {}, Budgets(carrier_cap=4))
        assert len(s.family.minima) == 4
        with pytest.raises(BudgetExceeded, match="& of 2 x 2 minimal sets"):
            interpret_totality(parse(text), {}, Budgets(carrier_cap=3))

    @pytest.mark.parametrize("text", [
        "(mu x. 1 + x * x) + (1 + 1 + 1 + 1 + 1)",
        "(mu x. 1 + x * x) & ~(1 + 1 + 1 + 1 + 1)"])
    def test_sum_carriers_keep_the_carrier_cap(self, text):
        # 26 + 5 elements: + and & build their carrier under the same
        # guard as the relational model, which refuses it
        budgets = Budgets(depth=4, carrier_cap=30)
        message = "^carrier of size 31 exceeds cap 30$"
        for interpret in (interpret_carrier, interpret_totality):
            with pytest.raises(BudgetExceeded, match=message):
                interpret(parse(text), budgets=budgets)
        assert len(interpret_totality(parse(text), budgets=Budgets(
            depth=4, carrier_cap=31)).carrier) == 31


class TestForgetfulStrictness:
    """The carrier of every totality interpretation is the relational
    interpretation of the same formula, on the nose."""

    def test_carriers_agree_with_rel_model(self):
        from mullsem.relmodel import interpret_carrier
        texts = ["1", "bot", "0", "top", "1 + 1", "1 & (1 + 0)",
                 "(1 + 1) * (1 + bot)", "(1 + 1) | 1", "~(1 + 1)",
                 "!(1 + 1)", "?(1 & 1)", "mu x. 1 + x", "nu x. 1 + x",
                 "mu x. 1 + !x", "nu x. (1 + x) & 1", "mu x. nu y. x + y"]
        budgets = Budgets(depth=3, bag=2)
        for text in texts:
            f = parse(text)
            tot = interpret_totality(f, {}, budgets)
            rel = interpret_carrier(f, {}, budgets)
            assert tot.carrier == rel, text


class TestDerivedCarriers:
    def test_headline_nested_fixpoint_unchanged(self):
        # values recorded before carriers were shared across iterations
        space = interpret_totality(parse("mu x. nu y. 1 + x * y"), {},
                                   Budgets(depth=3, bag=2))
        carrier = [str(e) for e in space.carrier]
        assert len(carrier) == 13
        assert carrier[0] == "fold(fold(inl(())))"
        assert hashlib.sha256("\n".join(carrier).encode()).hexdigest() == \
            "8ed31a3f31371f3d147c62c9e7df6a5470123ba4ed6c4ad75ab4b63c020c36dd"
        assert [sorted(str(e) for e in s)
                for s in space.family.min_sets()] == [[]]
        assert space.stabilized is True


# ---------------------------------------------------------------------------
# index-arithmetic minima against the element path they replace

def _element_plus(sa, sb):
    carrier = Carrier([InL(x) for x in sa.carrier]
                      + [InR(y) for y in sb.carrier])
    minima = [carrier.mask_of(frozenset(InL(e) for e in s))
              for s in sa.family.min_sets()]
    minima += [carrier.mask_of(frozenset(InR(e) for e in s))
               for s in sb.family.min_sets()]
    return UpFamily(carrier, kernels.minimize_family(minima))


def _element_with(sa, sb):
    carrier = Carrier([InL(x) for x in sa.carrier]
                      + [InR(y) for y in sb.carrier])
    minima = [carrier.mask_of(frozenset(InL(e) for e in x)
                              | frozenset(InR(e) for e in y))
              for x in sa.family.min_sets() for y in sb.family.min_sets()]
    return UpFamily(carrier, kernels.minimize_family(minima))


def _element_tensor(sa, sb):
    carrier = Carrier([Pair(x, y) for x in sa.carrier for y in sb.carrier])
    minima = [carrier.mask_of(frozenset(Pair(p, q) for p in x for q in y))
              for x in sa.family.min_sets() for y in sb.family.min_sets()]
    return UpFamily(carrier, kernels.minimize_family(minima))


def _element_bang(s, bag):
    carrier = bag_carrier(s.carrier, bag)
    minima = [carrier.mask_of(frozenset(bag_carrier(Carrier(x), bag).elems))
              for x in s.family.min_sets()]
    return UpFamily(carrier, kernels.minimize_family(minima))


def _element_reindex(carrier, body_space):
    available = carrier.as_set()
    minima = []
    for s in body_space.family.min_sets():
        wrapped = frozenset(Fold(e) for e in s)
        if wrapped <= available:
            minima.append(carrier.mask_of(wrapped))
    return UpFamily(carrier, kernels.minimize_family(minima))


def _random_spaces(rng, count):
    """Spaces on small carriers: random antichains, plus the empty and
    the full family on each carrier."""
    carriers = [Carrier(()), Carrier(["a"]), Carrier(["b", "c"]),
                Carrier([UNIT, "d", Fold(UNIT)]),
                Carrier([f"e{i}" for i in range(4)]),
                Carrier([InL(UNIT), InR(UNIT), Bag(("p",)), "q", "r"])]
    spaces = []
    for carrier in carriers:
        spaces.append(TotalitySpace(carrier, UpFamily(carrier, ())))
        spaces.append(TotalitySpace(carrier, UpFamily(carrier, (0,))))
    while len(spaces) < count:
        carrier = rng.choice(carriers[1:])
        n = len(carrier)
        masks = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 5))]
        family = UpFamily(carrier, kernels.minimize_family(masks))
        spaces.append(TotalitySpace(carrier, family))
    return spaces


class TestIndexArithmeticMinima:
    def test_binary_connectives(self):
        spaces = _random_spaces(random.Random(7), 30)
        cases = (("x + y", _element_plus), ("x & y", _element_with),
                 ("x * y", _element_tensor))
        for sa in spaces:
            for sb in spaces:
                env = {"x": sa, "y": sb}
                for text, reference in cases:
                    got = interpret_totality(parse(text), env).family
                    want = reference(sa, sb)
                    assert got.carrier.elems == want.carrier.elems, text
                    assert got.minima == want.minima, text

    def test_bang(self):
        for s in _random_spaces(random.Random(8), 24):
            for bag in range(3):
                got = interpret_totality(parse("!x"), {"x": s},
                                         Budgets(bag=bag)).family
                want = _element_bang(s, bag)
                assert got.carrier.elems == want.carrier.elems
                assert got.minima == want.minima

    def test_fold_reindex(self):
        rng = random.Random(9)
        for body in _random_spaces(rng, 40):
            elems = body.carrier.elems
            # the body's carrier is the one Fold maps onto the fixpoint
            # carrier, so the masks carry over
            carrier = Carrier([Fold(e) for e in elems])
            got = _reindex_along_fold(carrier, body)
            assert got.minima == _element_reindex(carrier, body).minima
            # the reference's partial map, onto part of the carrier
            for _ in range(3):
                kept = [e for e in elems if rng.random() < 0.7]
                carrier = Carrier([Fold(e) for e in kept])
                got = _reference_reindex(carrier, body)
                want = _element_reindex(carrier, body)
                assert got.minima == want.minima

    def test_grammar_sample(self):
        # families built on the trusted path are checked by the fixture;
        # nested (x & y) bodies pass through antichains of ~30,000
        # minima, too many for its quadratic check
        texts = [t for t in fixpoint_sample(40, seed=7) if "& y" not in t]
        built = 0
        for text in texts:
            try:
                space = interpret_totality(parse(text), {},
                                           Budgets(depth=3, bag=2,
                                                   carrier_cap=2000))
            except (BudgetExceeded, CarrierTooLarge):
                continue
            assert space.family.carrier is space.carrier
            built += 1
        assert built >= 15  # 18 fit the caps


# ---------------------------------------------------------------------------
# hash-consed elements and the depth restriction

def _restrict_by_members(family, depth_bound):
    """restrict_antichain as it was: fold_depth of every member of every
    minimal set."""
    kept = []
    for s in family.min_sets():
        if all(fold_depth(e) < depth_bound for e in s):
            kept.append(frozenset(s))
    return tuple(sorted(kept, key=lambda s: sorted(map(str, s))))


# the totality formulas of the benchmark's heaviest jobs, and single
# binders whose antichains split by depth; mu x. mu y. 1 + (x & y) is
# left out, as its ~30,000 inner minima are too many for the quadratic
# check of checked_trusted_families
HEADLINE_SPACES = ("mu x. nu y. 1 + x * y", "mu x. mu y. 1 + (x + y)",
                   "nu x. nu y. 1 + (x + y)",
                   "nu x. (1 + 1) + x * (nu y. (1 + 1) + y)",
                   "mu x. (1 + 1) + (x & x)", "mu x. 1 + x * x",
                   "mu x. 1 + x")


class TestRestrictAntichain:
    def test_matches_the_per_member_definition(self):
        built = split = 0
        for text in HEADLINE_SPACES:
            for depth in (2, 3, 4):
                try:
                    # the cap keeps the fixture's antichain checks short
                    space = interpret_totality(
                        parse(text), {},
                        Budgets(depth=depth, bag=2, carrier_cap=1200))
                except BudgetExceeded:
                    continue
                built += 1
                for bound in range(depth + 2):
                    got = restrict_antichain(space.family, bound)
                    want = _restrict_by_members(space.family, bound)
                    assert repr(got) == repr(want), (text, depth, bound)
                    split += 0 < len(got) < len(space.family.minima)
        assert built == 19
        assert split == 21


class TestInterning:
    def test_shared_children_are_carrier_elements(self):
        space = interpret_totality(parse("mu x. 1 + x * x"), {},
                                   Budgets(depth=4))
        members = {id(e) for e in space.carrier}
        pairs = [e.value.value for e in space.carrier
                 if isinstance(e.value, InR)]
        assert len(pairs) == 25
        for p in pairs:
            assert id(p.first) in members and id(p.second) in members

    def test_fixpoint_carriers_share_one_table(self, monkeypatch):
        # every carrier a fixpoint step reads: each chain's last iterate
        # and the iterate it folds
        made = []
        chain = totality._fixpoint_chain

        def recorded(*args):
            carriers = chain(*args)
            made.extend(carriers)
            return carriers
        monkeypatch.setattr(totality, "_fixpoint_chain", recorded)
        interpret_totality(parse("mu x. nu y. 1 + x * y"), {},
                           Budgets(depth=3))
        assert len(made) == 2 * 11
        first = {}
        for c in made:
            for e in c:
                assert first.setdefault(e, e) is e

    def test_previous_depth_pass_runs_each_binder_once(self, monkeypatch):
        # the depth k-1 pass only reads its family, so the binders
        # inside it run at k-1 alone and nothing runs at k-2
        depths = []
        fix_at = totality._fix_at

        def recorded(*args):
            depths.append(next(a.depth for a in args
                               if isinstance(a, Budgets)))
            return fix_at(*args)
        monkeypatch.setattr(totality, "_fix_at", recorded)
        text = "mu a. mu b. mu c. mu d. 1 + a + d"
        interpret_totality(parse(text), {}, Budgets(depth=2))
        assert set(depths) == {1, 2}

    def test_equal_to_separately_built_elements(self):
        budgets = Budgets(depth=3, bag=2)
        for text in HEADLINE_SPACES[:3]:
            space = interpret_totality(parse(text), {}, budgets)
            rel = interpret_carrier(parse(text), budgets=budgets)
            assert space.carrier == rel
            for a, b in zip(space.carrier, rel):
                assert a is not b and a == b and hash(a) == hash(b)

    def test_no_table_survives_the_call(self):
        space = interpret_totality(parse("mu x. nu y. 1 + x * y"), {},
                                   Budgets(depth=3))
        ref = weakref.ref(space.carrier.elems[-1])
        del space
        gc.collect()
        assert ref() is None
        assert relmodel._ELEMENTS.get() is None

    def test_concurrent_interpretations(self):
        jobs = [("mu x. nu y. 1 + x * y", 3), ("mu x. mu y. 1 + !x + y", 2)]

        def job(case):
            text, depth = case
            space = interpret_totality(parse(text), {},
                                       Budgets(depth=depth, bag=2))
            return (space.carrier.elems, space.family.minima,
                    space.stabilized)

        serial = [job(case) for case in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(job, case) for case in jobs * 4]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == serial * 4
        # one table per call: within a result equal parts are one
        # object, and no two results share a part other than UNIT
        owned = set()
        for elems, _, _ in results:
            parts = {id(e) for e in element_parts(elems)} - {id(UNIT)}
            assert not parts & owned
            owned |= parts


# ---------------------------------------------------------------------------
# the fixpoint step folds the body over the penultimate carrier

def _reference_reindex(carrier, body_space):
    """The step's reindexing when the body was folded over the last
    carrier C_k (reference): each minimal set is wrapped in Fold, and
    those that leave C_k are dropped."""
    position = {f.value: i for i, f in enumerate(carrier.elems)}
    target = [position.get(e) for e in body_space.carrier.elems]
    minima = []
    for m in body_space.family.minima:
        mask = 0
        for j in bit_indices(m):
            i = target[j]
            if i is None:
                break
            mask |= 1 << i
        else:
            minima.append(mask)
    return UpFamily._trusted(carrier, tuple(minima))


def _reference_fix_at(table, budgets, node, env):
    """totality._fix_at with the body folded over C_k (reference)."""
    carrier_env = {name: s.carrier for name, s in env.items()}
    carrier = interpret_carrier(node, carrier_env, budgets)
    inner_stable = True

    def step(fam):
        nonlocal inner_stable
        body_space = fold(node.body,
                          {**env, node.var: TotalitySpace(carrier, fam)},
                          table, budgets)
        inner_stable = inner_stable and body_space.stabilized
        return _reference_reindex(carrier, body_space)

    least = type(node) is Mu
    start = UpFamily.empty(carrier) if least else UpFamily.full(carrier)
    fam = iterate(step, start, budgets.iter_cap)
    return TotalitySpace(carrier, fam, inner_stable)


def _outcome(f, budgets):
    """(carrier, minima, flag) of the totality space, or the error."""
    try:
        space = interpret_totality(f, {}, budgets)
    except MullsemError as exc:
        return exc
    return space.carrier.elems, space.family.minima, space.stabilized


def _both(monkeypatch, f, budgets):
    """The outcome of the step, then the reference's."""
    new = _outcome(f, budgets)
    with monkeypatch.context() as m:
        m.setattr(totality, "_fix_at", _reference_fix_at)
        return new, _outcome(f, budgets)


def _benchmark_grammar():
    """Every formula of the totality-fixpoints benchmark grammar: the
    keys of its answered and its skipped jobs."""
    path = (Path(__file__).resolve().parents[1] / "perfbench" / "golden"
            / "totality-fixpoints.json")
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    keys = list(golden["digests"]) + list(golden["skipped"])
    return sorted({k.split("|", 2)[2] for k in keys})


class TestPenultimateStep:
    """Each fixpoint step folds the body over the iterate that C_k folds
    (C_{k-1}, or C_k once the chain stabilized).  It agrees with the
    step that folded the body over C_k wherever the carrier chain
    stabilized, and refuses nothing that step answers."""

    def test_benchmark_grammar_sample(self, monkeypatch):
        # cap 1000 keeps the fixture's antichain checks short
        formulas = random.Random(13).sample(_benchmark_grammar(), 60)
        counts = {"equal": 0, "flag": 0, "new": 0}
        for text in formulas:
            for depth in (2, 3, 4):
                budgets = Budgets(depth=depth, bag=2, carrier_cap=1000)
                new, old = _both(monkeypatch, parse(text), budgets)
                if isinstance(old, MullsemError):
                    counts["new"] += not isinstance(new, MullsemError)
                    continue
                assert not isinstance(new, MullsemError), (text, depth, new)
                if new == old:
                    counts["equal"] += 1
                    continue
                # at depth 2 the flag compares with depth 1, where the
                # step sees only C_0 = {}: the carrier and minima agree,
                # and the flag only ever claims less, on a truncated chain
                assert depth == 2, (text, depth)
                assert new[:2] == old[:2] and (new[2], old[2]) == \
                    (False, True), text
                assert not interpret_carrier(parse(text), {},
                                             budgets).stabilized, text
                counts["flag"] += 1
        # the reference refuses mu x. nu y. 1 + x * (1 + 1) + y at depth 3:
        # its step builds a sum carrier of 1036 elements, past the cap
        assert counts == {"equal": 94, "flag": 1, "new": 32}

    def test_random_formulas_where_the_chain_stabilized(self, monkeypatch):
        rng = random.Random(20261019)
        counts = {"equal": 0, "truncated": 0, "new": 0, "refused": 0}
        differ = 0
        while sum(counts.values()) < 2000:
            f = random_formula(rng, rng.randint(2, 4), frozenset())
            try:
                check_variance(EMPTY_CONTEXT, f)
            except MullsemError:
                continue
            budgets = Budgets(depth=rng.randint(0, 3), bag=2)
            new, old = _both(monkeypatch, f, budgets)
            if isinstance(old, MullsemError):
                counts["refused" if isinstance(new, MullsemError)
                       else "new"] += 1
                continue
            text = to_text(f)
            assert not isinstance(new, MullsemError), (text, new)
            if interpret_carrier(f, {}, budgets).stabilized:
                assert new == old, text
                counts["equal"] += 1
            else:
                counts["truncated"] += 1
                differ += new != old
        assert counts == {"equal": 1223, "truncated": 398, "new": 9,
                          "refused": 370}
        assert differ == 0

    @pytest.mark.parametrize("text, cap, refusal", [
        # the body's carrier F(C_3) is 147 x 147 pairs, over the cap;
        # the answer's carrier holds 147 elements
        pytest.param("mu x. (1 + 1 + 1) + x * x", 20000,
                     "^carrier of size 21609 exceeds cap 20000$",
                     id="mu x. (1 + 1 + 1) + x * x"),
        pytest.param("mu x. mu y. (1 + 1) + (x & y)", 2000,
                     r"^& of \d+ x \d+ minimal sets .* exceeds cap 2000$",
                     id="mu x. mu y. (1 + 1) + (x & y)")])
    def test_now_answers(self, monkeypatch, text, cap, refusal):
        budgets = Budgets(depth=3, bag=2, carrier_cap=cap)
        space = interpret_totality(parse(text), {}, budgets)
        assert space.carrier == interpret_carrier(parse(text), {}, budgets)
        monkeypatch.setattr(totality, "_fix_at", _reference_fix_at)
        with pytest.raises(BudgetExceeded, match=refusal):
            interpret_totality(parse(text), {}, budgets)

    def test_wider_product_answer(self):
        space = interpret_totality(parse("mu x. (1 + 1 + 1) + x * x"), {},
                                   Budgets(depth=3, bag=2))
        assert len(space.carrier) == 147
        # every element is total on its own
        assert len(space.family.minima) == 147
        assert all(m.bit_count() == 1 for m in space.family.minima)
        assert space.stabilized is True

    def test_truncated_carrier_under_a_dualizing_connective(self,
                                                            monkeypatch):
        # restriction to C_{k-1} does not commute with the orthogonal,
        # so on a truncated chain the two steps may differ; about one
        # random formula in a few thousand does
        f = parse("mu x. ?(!x * (0 + top))")
        one = Budgets(depth=1, bag=2)
        assert interpret_carrier(f, {}, one).stabilized is False
        new, old = _both(monkeypatch, f, one)
        total = Fold(Bag(()))
        assert new[0] == old[0] == (total,)
        assert (new[1], old[1]) == ((1,), (0,))  # {{fold([])}}, {{}}
        new, old = _both(monkeypatch, f, Budgets(depth=2, bag=2))
        assert new[:2] == old[:2] == ((total,), (0,))
        assert (new[2], old[2]) == (False, True)
        new, old = _both(monkeypatch, f, Budgets(depth=3, bag=2))
        assert new == old == ((total,), (0,), True)

    def test_depth_zero_keeps_only_the_empty_minimum(self, monkeypatch):
        # C_0 is empty and folds nothing: the empty set is total iff the
        # body over C_0 holds it, as before
        for text, minima in (("mu x. 1 + x", ()), ("nu x. 1 + x", (0,)),
                             ("mu x. x", ()), ("nu x. x", (0,)),
                             ("nu x. 1 & x", ()), ("nu x. !x", ()),
                             ("nu x. ?x", (0,))):
            new, old = _both(monkeypatch, parse(text),
                             Budgets(depth=0, bag=2))
            assert new == old == ((), minima, False), text


def test_stabilized_flag_holds_two_depths_deeper():
    """What totality's ``stabilized: true`` claims at depth k: the
    minimal antichain restricted below depth k-1 agrees with depth k-1.
    On a sample of the benchmark grammar it also agrees at depths k+1
    and k+2; refused answers are skipped."""
    def answer(f, depth):
        try:
            return interpret_totality(
                f, {}, Budgets(depth=depth, bag=2, carrier_cap=1000))
        except MullsemError:
            return None

    formulas = random.Random(7).sample(_benchmark_grammar(), 60)
    compared = 0
    for text in formulas:
        f = parse(text)
        for depth in (2, 3):
            space = answer(f, depth)
            if space is None or not space.stabilized:
                continue
            expected = restrict_antichain(space.family, depth - 1)
            for deeper in (answer(f, depth + 1), answer(f, depth + 2)):
                if deeper is not None:
                    assert restrict_antichain(deeper.family, depth - 1) \
                        == expected, (text, depth, deeper.carrier)
                    compared += 1
    assert compared > 0
