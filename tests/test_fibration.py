"""Lifted-functor machinery over small finitely presented bases.

Three synthetic instances with genuinely initial/final base
(co)algebras drive the enumeration certificates; a one-object group
base exercises the homomorphism-lifting property where no initial
algebra exists.
"""

import pytest

from oracles import (certify_final_lifted, certify_initial_lifted,
                     mall_isomorphisms)
from mullsem.budgets import Budgets
from mullsem.errors import NotInvertible
from mullsem.fibration import (Endofunctor, FinCategory, FiniteLattice,
                               IndexedPoset, LiftedFunctor, Morphism,
                               direct_image_family, enumerate_families,
                               family_lattice, lift_final_coalgebra,
                               lift_initial_algebra, preimage_family)
from mullsem.relmodel import Carrier, Relation
from mullsem.totality import UpFamily


# ---------------------------------------------------------------------------
# instance 1: terminal base, 4-chain fiber, strictly inflating action

def chain_step_instance():
    base = FinCategory(["s"], [], {})
    functor = Endofunctor(base, {"s": "s"}, {})
    poset = IndexedPoset(base, {"s": FiniteLattice.chain(4)})
    action = {"s": lambda x: {0: 1, 1: 2, 2: 2, 3: 3}[x]}
    return LiftedFunctor(poset, functor, action)


# ---------------------------------------------------------------------------
# instance 2: arrow base a -> b; a initial, b terminal

def arrow_instance():
    u = Morphism("u", "a", "b")
    base = FinCategory(["a", "b"], [u], {})
    functor = Endofunctor(base, {"a": "a", "b": "b"}, {"u": "u"})
    fiber_a = FiniteLattice.powerset("pq", name="Pa")
    fiber_b = FiniteLattice.chain(3, name="Rb")
    reindex_u = {0: frozenset(), 1: frozenset("p"), 2: frozenset("pq")}
    poset = IndexedPoset(base, {"a": fiber_a, "b": fiber_b}, {"u": reindex_u})
    action = {"a": lambda s: s | frozenset("p"),
              "b": lambda t: {0: 1, 1: 1, 2: 2}[t]}
    return LiftedFunctor(poset, functor, action)


# ---------------------------------------------------------------------------
# instance 3: isomorphic pair of objects with the swapping endofunctor

def swap_instance():
    u = Morphism("u", "a", "b")
    v = Morphism("v", "b", "a")
    base = FinCategory(["a", "b"], [u, v],
                       {("v", "u"): "id_a", ("u", "v"): "id_b"})
    functor = Endofunctor(base, {"a": "b", "b": "a"}, {"u": "v", "v": "u"})
    chain = FiniteLattice.chain(4)
    ident = {i: i for i in range(4)}
    poset = IndexedPoset(base, {"a": chain, "b": chain},
                         {"u": ident, "v": ident})
    step = {0: 1, 1: 2, 2: 2, 3: 3}
    action = {"a": step.__getitem__, "b": step.__getitem__}
    return LiftedFunctor(poset, functor, action)


INSTANCES = {
    "chain-step": (chain_step_instance, "s", "id_s", "s", "id_s"),
    "arrow": (arrow_instance, "a", "id_a", "b", "id_b"),
    "swap": (swap_instance, "a", "v", "a", "u"),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_instances_validate(name):
    build, *_ = INSTANCES[name]
    lifted = build()
    lifted.poset.base.validate()
    lifted.poset.validate()
    assert lifted.validate()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_initial_algebra_certified(name):
    build, obj, alg, _, _ = INSTANCES[name]
    lifted = build()
    alpha = lifted.poset.base.morphisms[alg]
    lpfp = lift_initial_algebra(lifted, obj, alpha)
    assert lpfp in lifted.poset.fiber(obj).elements
    assert certify_initial_lifted(lifted, obj, alpha, lpfp)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_final_coalgebra_certified(name):
    build, _, _, obj, coalg = INSTANCES[name]
    lifted = build()
    delta = lifted.poset.base.morphisms[coalg]
    gpfp = lift_final_coalgebra(lifted, obj, delta)
    assert gpfp in lifted.poset.fiber(obj).elements
    assert certify_final_lifted(lifted, obj, delta, gpfp)


class TestComputedValues:
    def test_chain_step_values(self):
        lifted = chain_step_instance()
        ident = lifted.poset.base.id("s")
        assert lift_initial_algebra(lifted, "s", ident) == 2
        assert lift_final_coalgebra(lifted, "s", ident) == 3

    def test_swap_values(self):
        lifted = swap_instance()
        v = lifted.poset.base.morphisms["v"]
        u = lifted.poset.base.morphisms["u"]
        assert lift_initial_algebra(lifted, "a", v) == 2
        assert lift_final_coalgebra(lifted, "a", u) == 3

    def test_identity_functor_identity_action_gives_bottom_and_top(self):
        base = FinCategory(["s"], [], {})
        functor = Endofunctor(base, {"s": "s"}, {})
        poset = IndexedPoset(base, {"s": FiniteLattice.chain(4)})
        lifted = LiftedFunctor(poset, functor, {"s": lambda x: x})
        ident = base.id("s")
        assert lift_initial_algebra(lifted, "s", ident) == 0
        assert lift_final_coalgebra(lifted, "s", ident) == 3

    def test_constant_action_one_step(self):
        # constant fiber action: the fixpoint is the reindexed constant
        lifted = chain_step_instance()
        lifted.fiber_action["s"] = lambda x: 2
        ident = lifted.poset.base.id("s")
        assert lift_initial_algebra(lifted, "s", ident) == 2
        assert lift_final_coalgebra(lifted, "s", ident) == 2

    def test_constant_functor_constant_action(self):
        # base functor constant at one object of an isomorphic pair, with
        # a constant fiber action: one-step stabilization at the
        # reindexed constant
        u = Morphism("u", "a", "b")
        v = Morphism("v", "b", "a")
        base = FinCategory(["a", "b"], [u, v],
                           {("v", "u"): "id_a", ("u", "v"): "id_b"})
        functor = Endofunctor(base, {"a": "b", "b": "b"},
                              {"u": "id_b", "v": "id_b"})
        functor.validate()
        chain = FiniteLattice.chain(4)
        ident = {i: i for i in range(4)}
        poset = IndexedPoset(base, {"a": chain, "b": chain},
                             {"u": ident, "v": ident})
        top = 3
        lifted = LiftedFunctor(poset, functor, {"a": lambda _: top,
                                                "b": lambda _: top})
        lifted.validate()
        # alpha = v: F a = b -> a, with inverse u; lpfp = u*(top)
        assert lift_initial_algebra(lifted, "a", v) == poset.reindex(u)(top)
        # delta = u: a -> F a = b; gpfp = u*(top)
        assert lift_final_coalgebra(lifted, "a", u) == poset.reindex(u)(top)

    def test_not_invertible(self):
        lifted = arrow_instance()
        u = lifted.poset.base.morphisms["u"]
        with pytest.raises(NotInvertible):
            lifted.poset.base.inverse(u)
        with pytest.raises(ValueError):
            # u is not even an algebra on "a"
            lift_initial_algebra(lifted, "a", u)


class TestHomLiftingOnGroupBase:
    """One-object base whose two non-identity endomorphisms are
    idempotent-free; no algebra is initial here, but every
    coalgebra-to-algebra homomorphism must lift."""

    def build(self):
        s = Morphism("s", "g", "g")
        s2 = Morphism("s2", "g", "g")
        base = FinCategory(["g"], [s, s2],
                           {("s", "s"): "s2", ("s", "s2"): "id_g",
                            ("s2", "s"): "id_g", ("s2", "s2"): "s"})
        functor = Endofunctor(base, {"g": "g"}, {"s": "s", "s2": "s2"})
        chain = FiniteLattice.chain(4)
        ident = {i: i for i in range(4)}
        poset = IndexedPoset(base, {"g": chain}, {"s": ident, "s2": ident})
        step = {0: 1, 1: 2, 2: 2, 3: 3}
        return LiftedFunctor(poset, functor, {"g": step.__getitem__})

    def test_validates_and_endos_not_idempotent(self):
        lifted = self.build()
        base = lifted.poset.base
        base.validate()
        lifted.poset.validate()
        lifted.validate()
        s, s2 = base.morphisms["s"], base.morphisms["s2"]
        assert base.compose(s, s) != s
        assert base.compose(s2, s2) != s2

    def test_lpfp_value(self):
        lifted = self.build()
        alpha = lifted.poset.base.morphisms["s"]
        assert lift_initial_algebra(lifted, "g", alpha) == 2

    def test_homomorphism_lifting(self):
        lifted = self.build()
        base, poset = lifted.poset.base, lifted.poset
        alpha = base.morphisms["s"]
        lpfp = lift_initial_algebra(lifted, "g", alpha)
        gamma = base.inverse(alpha)  # the induced coalgebra
        fiber = poset.fiber("g")
        for delta in base.hom("g", "g"):
            liftings = [t for t in fiber
                        if fiber.le(lifted.action("g")(t),
                                    poset.reindex(delta)(t))]
            homs = [h for h in base.hom("g", "g")
                    if base.compose(delta, base.compose(
                        lifted.functor.map(h), gamma)) == h]
            for t in liftings:
                for h in homs:
                    assert fiber.le(lpfp, poset.reindex(h)(t))


class TestExistsAlong:
    def test_identity_is_identity(self):
        lifted = arrow_instance()
        poset = lifted.poset
        ident = poset.base.id("a")
        for x in poset.fiber("a"):
            assert poset.exists_along(ident, x) == x

    def test_adjointness_exhaustive(self):
        lifted = arrow_instance()
        poset = lifted.poset
        u = poset.base.morphisms["u"]
        pull = poset.reindex(u)
        src, tgt = poset.fiber("a"), poset.fiber("b")
        for x in src:
            ex = poset.exists_along(u, x)
            for y in tgt:
                assert tgt.le(ex, y) == src.le(x, pull(y))

    def test_galois_idempotence(self):
        lifted = arrow_instance()
        poset = lifted.poset
        u = poset.base.morphisms["u"]
        pull = poset.reindex(u)
        for x in poset.fiber("a"):
            once = poset.exists_along(u, x)
            again = poset.exists_along(u, pull(once))
            assert once == again


class TestLiftedMorphismCheck:
    def test_identity_cases(self):
        lifted = chain_step_instance()
        poset = lifted.poset
        ident = poset.base.id("s")
        # ident carries r into s iff r <= ident*(s)
        fiber, pull = poset.fiber("s"), poset.reindex(ident)
        assert fiber.le(1, pull(1))
        assert not fiber.le(3, pull(0))


# ---------------------------------------------------------------------------
# the totality model as an indexed poset over explicit relations

class TotalityPoset(IndexedPoset):
    def __init__(self, base, carriers, relations):
        super().__init__(base)
        self.carriers = carriers
        self.relations = relations
        self._lattices = {name: family_lattice(c)
                          for name, c in carriers.items()}

    def fiber(self, c):
        return self._lattices[c]

    def reindex(self, f):
        if self.base.is_identity(f):
            return lambda y: y
        rel = self.relations[f.name]
        return lambda fam: preimage_family(rel, fam)

    def exists_along(self, f, x):
        if self.base.is_identity(f):
            return x
        return direct_image_family(self.relations[f.name], x)


def totality_instance():
    small = Carrier(["a"])
    big = Carrier(["a", "b"])
    r = Relation(small, big, frozenset([("a", "a")]))
    f = Morphism("r", "small", "big")
    base = FinCategory(["small", "big"], [f], {})
    return TotalityPoset(base, {"small": small, "big": big}, {"r": r}), f, \
        small, big, r


class TestTotalityInstance:
    def test_exists_along_spec_example(self):
        poset, f, small, big, _ = totality_instance()
        up_a = UpFamily(small, (1,))  # up{{a}} on {a}
        out = poset.exists_along(f, up_a)
        assert out.min_sets() == (frozenset(["a"]),)
        assert out == UpFamily(big, (big.mask_of(["a"]),))

    def test_adjointness_scan_small_carriers(self):
        poset, f, small, big, r = totality_instance()
        pull = poset.reindex(f)
        for x in enumerate_families(small):
            ex = poset.exists_along(f, x)
            for y in enumerate_families(big):
                assert ex.le(y) == x.le(pull(y))

    def test_scan_agrees_with_direct_image(self):
        # the generic exists_along scans the computed fibers
        poset, f, small, _, _ = totality_instance()
        for x in enumerate_families(small):
            assert IndexedPoset.exists_along(poset, f, x) == \
                poset.exists_along(f, x)

    def test_exists_reindex_exists_idempotent(self):
        poset, f, small, _, _ = totality_instance()
        pull = poset.reindex(f)
        for x in enumerate_families(small):
            once = poset.exists_along(f, x)
            assert poset.exists_along(f, pull(once)) == once

    def test_empty_relation_is_not_a_lifted_morphism(self):
        # the empty relation out of ({*}, up{{*}}) is not total
        unit = Carrier(["*"])
        up_star = UpFamily(unit, (1,))
        empty_rel = Relation(unit, unit, frozenset())
        pulled = preimage_family(empty_rel, up_star)
        assert not up_star.le(pulled)

    def test_reindex_functorial(self):
        poset, f, small, big, _ = totality_instance()
        poset.validate()


class TestAdjointnessAcrossRelationShapes:
    """Direct-image existentials are left adjoint to preimage reindexing
    for every relation, exhaustively on 2-element carriers."""

    def test_all_relations_2x2(self):
        a = Carrier(["a0", "a1"])
        b = Carrier(["b0", "b1"])
        cells = [(x, y) for x in a for y in b]
        fams_a = enumerate_families(a)
        fams_b = enumerate_families(b)
        for mask in range(1 << len(cells)):
            r = Relation(a, b, frozenset(
                p for i, p in enumerate(cells) if mask >> i & 1))
            for x in fams_a:
                ex = direct_image_family(r, x)
                for y in fams_b:
                    assert ex.le(y) == x.le(preimage_family(r, y))


def test_mall_isomorphisms_are_total_morphisms_both_ways():
    """Each isomorphism schema of MALL maps rel carriers bijectively and
    is a total morphism both ways on every answered instance; the false
    A * (B & C) = (A * B) & (A * C) fails one way on some instance.  The
    carrier cap keeps check_total_morphism's scans small; what it and
    the transversal bound refuse is counted."""
    results = mall_isomorphisms(150, seed=1, budgets=Budgets(carrier_cap=100))
    for name, (isomorphic, tally) in results.items():
        print(f"{name}: {dict(tally)}")
        if isomorphic:
            assert set(tally) <= {"both", "refused"}, name
            assert tally["both"] >= 50, name
        else:
            assert set(tally) <= {"both", "there", "refused"}, name
            assert tally["there"] >= 1, name
