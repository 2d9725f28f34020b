import gc
import json
import pickle
import random
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError
from itertools import combinations_with_replacement
from itertools import product as iproduct
from math import comb
from pathlib import Path

import pytest

from oracles import element_parts, fixpoint_sample
from test_formula import random_formula
from mullsem.budgets import Budgets
from mullsem.errors import BudgetExceeded, CarrierMismatch
from mullsem.fibration import (compose_rel, copoint, functor_on_relations,
                               identity_rel, point)
from mullsem.formula import (Bot, Mu, Neg, Nu, OfCourse, One, Par, Plus,
                             Tensor, Top, WhyNot, With, Zero, fold, nnf,
                             parse, to_text)
from mullsem import relmodel
from mullsem.relmodel import (Bag, Carrier, EMPTY_CARRIER, Fold, InL, InR,
                              Pair, Relation, UNIT, Unit, bag_carrier,
                              fold_depth, interpret_carrier,
                              pair_carrier, render_elem, sort_key,
                              sum_carrier)
from mullsem.totality import interpret_totality


def rel(src, tgt, pairs):
    return Relation(Carrier(src), Carrier(tgt), frozenset(pairs))


def numeral(n):
    e = Fold(InL(UNIT))
    for _ in range(n):
        e = Fold(InR(e))
    return e


class TestComposeRel:
    def test_identity_neutral(self):
        g = rel("ab", "cd", [("a", "c"), ("b", "d")])
        assert compose_rel(identity_rel(g.src), g) == g
        assert compose_rel(g, identity_rel(g.tgt)) == g

    def test_empty_second(self):
        f = rel("a", "b", [("a", "b")])
        g = rel("b", "c", [])
        assert compose_rel(f, g).pairs == frozenset()

    def test_merging(self):
        f = rel("a", ["b", "b'"], [("a", "b"), ("a", "b'")])
        g = rel(["b", "b'"], "c", [("b", "c")])
        assert compose_rel(f, g).pairs == frozenset([("a", "c")])

    def test_mismatch(self):
        f = rel("a", "b", [])
        g = rel("c", "d", [])
        with pytest.raises(CarrierMismatch):
            compose_rel(f, g)

    def test_associative_exhaustive_size2(self):
        a = Carrier("xy")
        pair_space = list(iproduct(a.elems, a.elems))
        rels = []
        for mask in range(1 << len(pair_space)):
            pairs = frozenset(p for i, p in enumerate(pair_space)
                              if mask >> i & 1)
            rels.append(Relation(a, a, pairs))
        sampled = rels[:: max(1, len(rels) // 10)]
        for f in sampled:
            for g in sampled:
                for h in sampled:
                    assert compose_rel(compose_rel(f, g), h) == \
                        compose_rel(f, compose_rel(g, h))


class TestInterpretCarrier:
    def test_plus_units(self):
        c = interpret_carrier(parse("1 + 1"))
        assert c.as_set() == {InL(UNIT), InR(UNIT)}

    def test_mu_identity_empty(self):
        for k in (1, 2, 5):
            c = interpret_carrier(parse("mu x. x"), budgets=Budgets(depth=k))
            assert c.as_set() == frozenset()
            assert c.stabilized

    def test_naturals_at_depth_3(self):
        c = interpret_carrier(parse("mu x. 1 + x"), budgets=Budgets(depth=3))
        assert c.as_set() == {numeral(0), numeral(1), numeral(2)}
        assert not c.stabilized

    def test_nu_same_carrier_as_mu(self):
        for text in ("mu x. 1 + x", "mu x. x", "mu x. 1 * x + 1"):
            m = interpret_carrier(parse(text), budgets=Budgets(depth=3))
            n = interpret_carrier(parse(text.replace("mu", "nu", 1)),
                                  budgets=Budgets(depth=3))
            assert m == n

    def test_constants(self):
        assert interpret_carrier(parse("1")).as_set() == {UNIT}
        assert interpret_carrier(parse("bot")).as_set() == {UNIT}
        assert interpret_carrier(parse("0")).as_set() == frozenset()
        assert interpret_carrier(parse("top")).as_set() == frozenset()

    def test_tensor_and_bags(self):
        c = interpret_carrier(parse("1 * (1 + 1)"))
        assert c.as_set() == {Pair(UNIT, InL(UNIT)), Pair(UNIT, InR(UNIT))}
        b = interpret_carrier(parse("!(1 + 1)"), budgets=Budgets(bag=1))
        assert b.as_set() == {Bag(()), Bag((InL(UNIT),)), Bag((InR(UNIT),))}

    def test_neg_identity_on_carriers(self):
        f = parse("!(1 + 1) * ~(1 & 0)")
        assert interpret_carrier(Neg(f)) == interpret_carrier(f)

    def test_lolli_is_pair_product(self):
        c = interpret_carrier(parse("(1 + 1) -o 1"))
        assert c.as_set() == {Pair(InL(UNIT), UNIT), Pair(InR(UNIT), UNIT)}

    def test_approximant_monotone_in_depth_and_bag(self):
        texts = ["mu x. 1 + x", "mu x. 1 + !x", "nu x. (1 + x) * (1 + x)",
                 "mu x. nu y. x + y"]
        for text in texts:
            f = parse(text)
            for k in range(4):
                small = interpret_carrier(f, budgets=Budgets(depth=k, bag=1))
                big_k = interpret_carrier(f, budgets=Budgets(depth=k + 1, bag=1))
                big_m = interpret_carrier(f, budgets=Budgets(depth=k, bag=2))
                assert small.as_set() <= big_k.as_set()
                assert small.as_set() <= big_m.as_set()

    def test_budget_cap(self):
        with pytest.raises(BudgetExceeded):
            interpret_carrier(parse("!(1+1+1+1) * !(1+1+1+1)"),
                              budgets=Budgets(bag=4, carrier_cap=100))

    def test_truncated_chain_returns_last_iterate(self):
        for k in range(4):
            c = interpret_carrier(parse("mu x. 1 + x"), budgets=Budgets(depth=k))
            assert c.as_set() == {numeral(i) for i in range(k)}
            assert not c.stabilized

    def test_rel_degeneracy_nnf_duality(self):
        rng = random.Random(11)
        texts = ["1", "mu x. 1 + x", "!(1 + bot)", "nu x. 1 & x",
                 "(1 + 1) * (1 + 1)", "mu x. ?x + 1", "~(1 * 1)",
                 "mu x. ~(~x + ~1)"]
        for text in texts:
            f = parse(text)
            a = interpret_carrier(f, budgets=Budgets(depth=3, bag=2))
            b = interpret_carrier(nnf(Neg(f)), budgets=Budgets(depth=3, bag=2))
            assert a == b, text


class TestFunctorOnRelations:
    def setup_method(self):
        self.a = Carrier(["u1", "u2"])
        self.b = Carrier(["w1", "w2"])

    def test_spec_example_plus(self):
        r = rel(["a0"], ["b0"], [("a0", "b0")])
        out = functor_on_relations(parse("1 + x"), "x", r)
        assert out.pairs == {(InL(UNIT), InL(UNIT)), (InR("a0"), InR("b0"))}

    def test_identity_preserved(self):
        env = {"y": self.b}
        for text in ("1 + x", "x * x", "!x", "x * y", "mu t. 1 + x * t"):
            f = parse(text)
            out = functor_on_relations(f, "x", identity_rel(self.a), env,
                                       Budgets(depth=2, bag=2))
            assert out == identity_rel(out.src), text

    def test_identity_preserved_exhaustive_carriers_up_to_4(self):
        for size in range(5):
            carrier = Carrier([f"c{i}" for i in range(size)])
            for text in ("1 + x", "x * x", "!x", "~x | 1",
                         "mu t. 1 + x * t"):
                out = functor_on_relations(parse(text), "x",
                                           identity_rel(carrier), {},
                                           Budgets(depth=2, bag=2))
                assert out == identity_rel(out.src), (size, text)

    def test_composition_preserved(self):
        c = Carrier(["z1", "z2"])
        rng = random.Random(5)
        texts = ("1 + x", "x * x", "!x", "mu t. 1 + x * t")
        for text in texts:
            f = parse(text)
            for _ in range(10):
                r1 = Relation(self.a, self.b,
                              frozenset((x, y) for x in self.a for y in self.b
                                        if rng.random() < 0.5))
                r2 = Relation(self.b, c,
                              frozenset((x, y) for x in self.b for y in c
                                        if rng.random() < 0.5))
                budgets = Budgets(depth=2, bag=2)
                lhs = functor_on_relations(f, "x", compose_rel(r1, r2), {},
                                           budgets)
                rhs = compose_rel(
                    functor_on_relations(f, "x", r1, {}, budgets),
                    functor_on_relations(f, "x", r2, {}, budgets))
                assert lhs == rhs, text

    def test_bag_action_includes_doubled(self):
        r = rel(["a0"], ["b0"], [("a0", "b0")])
        out = functor_on_relations(parse("!x"), "x", r, {}, Budgets(bag=2))
        assert (Bag(("a0", "a0")), Bag(("b0", "b0"))) in out.pairs
        assert (Bag(()), Bag(())) in out.pairs

    def test_bags_of_pairs_guarded_before_enumeration(self):
        # 12 elements at bag 3 give carriers of C(15, 3) = 455 bags, but a
        # full relation has 144 pairs and C(147, 3) = 518,665 bags of pairs
        c = Carrier([f"c{i:02}" for i in range(12)])
        full = Relation(c, c, frozenset(iproduct(c, c)))
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="518665 exceeds cap 20000"):
            functor_on_relations(parse("!x"), "x", full, budgets=Budgets(bag=3))
        assert time.perf_counter() - started < 1.0

    def test_truncated_chain_returns_last_iterate(self):
        one = interpret_carrier(parse("1"))
        f = parse("mu y. 1 + x * y")
        for k in range(4):
            budgets = Budgets(depth=k)
            r = functor_on_relations(f, "x", identity_rel(one), budgets=budgets)
            assert r == identity_rel(interpret_carrier(f, {"x": one}, budgets))
            assert len(r.pairs) == k
            assert not r.src.stabilized and not r.tgt.stabilized

    def test_stable_chain_keeps_the_flag(self):
        one = interpret_carrier(parse("1"))
        r = functor_on_relations(parse("mu y. 1 + x"), "x", identity_rel(one))
        assert len(r.pairs) == 2
        assert r.src.stabilized and r.tgt.stabilized

    def test_negated_variable_even_depth(self):
        r = rel(["a0", "a1"], ["b0"], [("a0", "b0")])
        out = functor_on_relations(parse("~(~x)"), "x", r)
        assert out.pairs == r.pairs

    def test_lolli_reads_as_negation_par(self):
        r = rel(["a0", "a1"], ["b0", "b1"], [("a0", "b0"), ("a1", "b0")])
        env = {"y": Carrier(["c0", "c1"])}
        for text, read in (("x -o 1", "~x | 1"), ("x -o y", "~x | y"),
                           ("y -o (x * y)", "~y | (x * y)")):
            assert functor_on_relations(parse(text), "x", r, env) == \
                functor_on_relations(parse(read), "x", r, env), text

    def test_non_formula_rejected(self):
        r = rel(["a0"], ["b0"], [("a0", "b0")])
        for bad in (42, Tensor(One(), "1")):
            with pytest.raises(TypeError, match="not a formula"):
                functor_on_relations(bad, "x", r)

    def test_square_of_a_full_relation_is_guarded(self):
        # the carriers of x * x hold 12^2 = 144 elements each, but x * x
        # at the graph of the relation's 144 pairs holds 144^2 = 20,736
        c = Carrier([f"c{i:02}" for i in range(12)])
        full = Relation(c, c, frozenset(iproduct(c, c)))
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded,
                           match="carrier of size 20736 exceeds cap 20000"):
            functor_on_relations(parse("x * x"), "x", full)
        assert time.perf_counter() - started < 1.0


# The action as an interpreter of its own over relations: a copy of the
# connective table the relation lifting replaced, kept as its reference.
def _converse(r):
    return Relation(r.tgt, r.src, frozenset((b, a) for a, b in r.pairs))


def _ref_converse(budgets, node, rels):
    flipped = {n: _converse(r) for n, r in rels.items()}
    return _converse(fold(node.body, flipped, _REFERENCE, budgets))


def _ref_product(budgets, ra, rb):
    relmodel._guard(max(len(ra.src) * len(rb.src),
                        len(ra.tgt) * len(rb.tgt)), budgets)
    pairs = frozenset((Pair(a1, b1), Pair(a2, b2))
                      for a1, a2 in ra.pairs for b1, b2 in rb.pairs)
    return Relation(pair_carrier(ra.src, rb.src),
                    pair_carrier(ra.tgt, rb.tgt), pairs)


def _ref_sum(budgets, ra, rb):
    relmodel._guard(max(len(ra.src) + len(rb.src),
                        len(ra.tgt) + len(rb.tgt)), budgets)
    pairs = frozenset((InL(a1), InL(a2)) for a1, a2 in ra.pairs) | \
        frozenset((InR(b1), InR(b2)) for b1, b2 in rb.pairs)
    return Relation(sum_carrier(ra.src, rb.src),
                    sum_carrier(ra.tgt, rb.tgt), pairs)


def _ref_bag(budgets, rb):
    k = budgets.bag
    relmodel._guard(comb(max(len(rb.src), len(rb.tgt)) + k, k), budgets)
    relmodel._guard(comb(len(rb.pairs) + k, k), budgets)
    pairs = {(Bag(tuple(p[0] for p in combo)), Bag(tuple(p[1] for p in combo)))
             for n in range(k + 1)
             for combo in combinations_with_replacement(sorted(rb.pairs), n)}
    return Relation(bag_carrier(rb.src, k), bag_carrier(rb.tgt, k),
                    frozenset(pairs))


def _ref_fixpoint(budgets, node, rels):
    def step(cur):
        layer = fold(node.body, {**rels, node.var: cur}, _REFERENCE, budgets)
        return Relation(
            relmodel._folded(layer.src), relmodel._folded(layer.tgt),
            frozenset((Fold(a), Fold(b)) for a, b in layer.pairs))

    empty = Relation(EMPTY_CARRIER, EMPTY_CARRIER, frozenset())
    cur, stabilized = relmodel._chain(step, empty, budgets)
    if stabilized:
        return cur
    return Relation(Carrier._ordered(cur.src.elems, False),
                    Carrier._ordered(cur.tgt.elems, False), cur.pairs)


_REFERENCE = {
    One: lambda budgets: identity_rel(relmodel.UNIT_CARRIER),
    Bot: lambda budgets: identity_rel(relmodel.UNIT_CARRIER),
    Zero: lambda budgets: identity_rel(EMPTY_CARRIER),
    Top: lambda budgets: identity_rel(EMPTY_CARRIER),
    Neg: _ref_converse,
    Tensor: _ref_product,
    Par: _ref_product,
    Plus: _ref_sum,
    With: _ref_sum,
    OfCourse: _ref_bag,
    WhyNot: _ref_bag,
    Mu: _ref_fixpoint,
    Nu: _ref_fixpoint,
}


def _reference_action(f, x, r, env, budgets):
    rels = {name: identity_rel(c) for name, c in env.items()}
    rels[x] = r
    return fold(f, rels, _REFERENCE, budgets)


def _answer(action, *args):
    try:
        return action(*args)
    except BudgetExceeded as exc:
        return exc


class TestRelationLifting:
    """functor_on_relations is the relation lifting of the carrier fold;
    it agrees with the interpreter it replaced."""

    CARRIERS = [Carrier([f"l{i}" for i in range(n)]) for n in range(4)] + [
        interpret_carrier(parse(text), budgets=Budgets(depth=2, bag=1))
        for text in ("1 + 1", "mu t. 1 + t", "!(1 + 1)", "1 * (1 + 1)")]

    def test_matches_the_reference_interpreter(self):
        rng = random.Random(20261019)
        both = refused = 0
        for _ in range(400):
            f = random_formula(rng, 3, frozenset("xy"))
            budgets = Budgets(depth=rng.randint(0, 3), bag=rng.randint(1, 2),
                              carrier_cap=rng.randint(50, 3000))
            src, tgt, fixed = (rng.choice(self.CARRIERS) for _ in range(3))
            r = Relation(src, tgt, frozenset(
                p for p in iproduct(src, tgt) if rng.random() < 0.5))
            env = {"y": fixed}
            new = _answer(functor_on_relations, f, "x", r, env, budgets)
            old = _answer(_reference_action, f, "x", r, env, budgets)
            if isinstance(new, BudgetExceeded) or \
                    isinstance(old, BudgetExceeded):
                refused += 1
                continue
            both += 1
            text = to_text(f)
            assert new.pairs == old.pairs, text
            assert new.src == old.src and new.tgt == old.tgt, text
            # the carriers and their flags are interpret_carrier's
            for out, end in ((new.src, src), (new.tgt, tgt)):
                ref = interpret_carrier(f, {**env, "x": end}, budgets)
                assert out == ref and out.stabilized == ref.stabilized, text
        # the sample is not vacuous
        assert both > 300 and refused > 0


class TestReciprocity:
    def test_exhaustive_size_2(self):
        elems = ["0", "1"]
        for na in range(3):
            for nb in range(3):
                a = Carrier(elems[:na])
                b = Carrier(elems[:nb])
                pair_space = [(x, y) for x in a for y in b]
                for mask in range(1 << len(pair_space)):
                    f = Relation(a, b, frozenset(
                        p for i, p in enumerate(pair_space) if mask >> i & 1))
                    for xm in range(1 << na):
                        x = frozenset(e for i, e in enumerate(a) if xm >> i & 1)
                        for um in range(1 << nb):
                            u = frozenset(e for i, e in enumerate(b)
                                          if um >> i & 1)
                            lhs = bool(f.image(x) & u)
                            rhs = bool(x & f.preimage(u))
                            assert lhs == rhs


class TestPointsAndDepth:
    def test_point_copoint_composite_is_identity_iff_meet(self):
        a = Carrier(["p", "q"])
        x = point(a, ["p"])
        u = copoint(a, ["q"])
        assert compose_rel(x, u).pairs == frozenset()
        u2 = copoint(a, ["p", "q"])
        assert compose_rel(x, u2).pairs == {(UNIT, UNIT)}

    def test_fold_depth(self):
        assert fold_depth(numeral(0)) == 1
        assert fold_depth(numeral(3)) == 4
        assert fold_depth(Bag((numeral(1), numeral(2)))) == 3
        assert fold_depth(Pair(numeral(2), Bag((numeral(0),)))) == 3

    def test_fold_depth_of_a_deep_element(self):
        # chains of Fold, InL and InR take no stack frame per constructor
        deep = numeral(5000)
        assert fold_depth(deep) == 5001
        assert fold_depth(Pair(Bag((numeral(1),)), InL(deep))) == 5001

    def test_enumeration_stable(self):
        c = interpret_carrier(parse("mu x. 1 + x"), budgets=Budgets(depth=4))
        assert list(c) == sorted(c, key=lambda e: str(e)) or True
        assert list(c.elems) == list(Carrier(reversed(c.elems)).elems)

    def test_bag_carrier_budget(self):
        out = bag_carrier(Carrier(["a", "b"]), 2)
        assert len(out) == 1 + 2 + 3


def _recursive_sort_key(e):
    """The element order as a key recomputed on every call (reference)."""
    match e:
        case Unit():
            return (0,)
        case InL(v):
            return (1, _recursive_sort_key(v))
        case InR(v):
            return (2, _recursive_sort_key(v))
        case Pair(a, b):
            return (3, _recursive_sort_key(a), _recursive_sort_key(b))
        case Bag(items):
            return (4, len(items),
                    tuple(_recursive_sort_key(i) for i in items))
        case Fold(v):
            return (5, _recursive_sort_key(v))
    return (-1, repr(e))


def _flat_key(key):
    """A nested reference key as the flat preorder code of sort_key."""
    return tuple(part for item in key
                 for part in (_flat_key(item) if isinstance(item, tuple)
                              else (item,)))


def _random_elem(rng, depth):
    """A random nested element; plain labels (str or int) at the leaves."""
    kind = rng.choice(["label", "unit", "inl", "inr", "fold", "pair", "bag"]
                      if depth else ["label", "unit"])
    if kind == "label":
        return rng.choice(["a", "b", "c", 0, 1, 2])
    if kind == "unit":
        return UNIT
    if kind == "pair":
        return Pair(_random_elem(rng, depth - 1), _random_elem(rng, depth - 1))
    if kind == "bag":
        return Bag(tuple(_random_elem(rng, depth - 1)
                         for _ in range(rng.randrange(3))))
    ctor = {"inl": InL, "inr": InR, "fold": Fold}[kind]
    return ctor(_random_elem(rng, depth - 1))


def _rebuild(e):
    """A structurally equal element made of freshly constructed parts."""
    match e:
        case Unit():
            return Unit()
        case InL(v) | InR(v) | Fold(v):
            return type(e)(_rebuild(v))
        case Pair(a, b):
            return Pair(_rebuild(a), _rebuild(b))
        case Bag(items):
            return Bag(tuple(_rebuild(i) for i in reversed(items)))
    return e


class TestElemInvariants:
    def test_bag_equality_is_multiset_equality(self):
        assert Bag(("b", "a")) == Bag(("a", "b"))
        assert Bag(("a", "a", "b")) != Bag(("a", "b", "b"))
        assert hash(Bag(("b", "a"))) == hash(Bag(("a", "b")))

    def test_pair_with_equal_labels(self):
        x = InL(UNIT)
        assert Pair(1, x) == Pair(1.0, x)
        assert hash(Pair(1, x)) == hash(Pair(1.0, x))

    def test_injections_and_fold_pairwise_unequal(self):
        x = Pair(UNIT, "a")
        wrapped = [InL(x), InR(x), Fold(x)]
        for i, a in enumerate(wrapped):
            for j, b in enumerate(wrapped):
                assert (a == b) == (i == j)
                assert (a != b) == (i != j)

    def test_bag_items_in_canonical_order(self):
        items = (Fold(UNIT), InR(UNIT), "b", Pair(UNIT, UNIT), InL(UNIT),
                 UNIT, "a", InL(UNIT))
        expected = ("a", "b", UNIT, InL(UNIT), InL(UNIT), InR(UNIT),
                    Pair(UNIT, UNIT), Fold(UNIT))
        rng = random.Random(5)
        for _ in range(20):
            shuffled = list(items)
            rng.shuffle(shuffled)
            bag = Bag(tuple(shuffled))
            assert bag.items == expected
            assert bag == Bag(items) and hash(bag) == hash(Bag(items))

    def test_cached_key_orders_like_recursive_key(self):
        rng = random.Random(20261018)
        elems = [_random_elem(rng, 4) for _ in range(80)]
        old = [_recursive_sort_key(e) for e in elems]
        new = [sort_key(e) for e in elems]
        for i in range(len(elems)):
            for j in range(len(elems)):
                assert (old[i] < old[j]) == (new[i] < new[j]), \
                    (elems[i], elems[j])
        assert sorted(elems, key=sort_key) == \
            sorted(elems, key=_recursive_sort_key)

    def test_equal_structure_gives_equal_hash(self):
        rng = random.Random(7)
        for _ in range(200):
            e = _random_elem(rng, 4)
            copy = _rebuild(e)
            assert copy == e and hash(copy) == hash(e)
            assert sort_key(copy) == sort_key(e)
            assert pickle.loads(pickle.dumps(e)) == e

    def test_relation_pairs_validated(self):
        a = Carrier(["x"])
        with pytest.raises(CarrierMismatch):
            Relation(a, a, frozenset([("x", "zzz")]))

    def test_unbound_variable(self):
        from mullsem.errors import UnboundVariable
        with pytest.raises(UnboundVariable):
            interpret_carrier(parse("y"))


def _sorted_copy(c):
    """The same elements through the public, sorting constructor."""
    return Carrier(list(reversed(c.elems)), stabilized=c.stabilized)


class TestCanonicalOrder:
    """Builders emit their elements already in sort_key order, so the
    sorting public constructor leaves them where they are."""

    def test_grammar_sample_at_depths_3_and_4(self):
        built = 0
        for text in fixpoint_sample(30, seed=3):
            for depth in (3, 4):
                try:
                    c = interpret_carrier(parse(text),
                                          budgets=Budgets(depth=depth, bag=2,
                                                          carrier_cap=4000))
                except BudgetExceeded:
                    continue
                assert c.elems == _sorted_copy(c).elems, text
                built += 1
        assert built >= 40  # 44 of the 60 fit the cap

    def test_derived_carriers(self):
        labels = Carrier(["b", 2, "a", 10])
        numerals = Carrier([numeral(i) for i in (3, 0, 2)], stabilized=False)
        mixed = Carrier([UNIT, "z", Pair("a", UNIT), Bag(("a", "a"))])
        carriers = [EMPTY_CARRIER, Carrier([UNIT]), labels, numerals, mixed]
        for a in carriers:
            for b in carriers:
                for built in (pair_carrier(a, b), sum_carrier(a, b)):
                    assert built.elems == _sorted_copy(built).elems
                    assert built.stabilized == (a.stabilized
                                                and b.stabilized)
            for k in range(4):
                bags = bag_carrier(a, k)
                assert bags.elems == _sorted_copy(bags).elems
                # every multiset of size <= k over a, each once
                expected = {Bag(m) for n in range(k + 1) for m in
                            combinations_with_replacement(a.elems, n)}
                assert len(bags) == len(expected)
                assert set(bags.elems) == expected
                assert bags.stabilized == a.stabilized

    def test_index_layout(self):
        a, b = Carrier(["p", "q", "r"]), Carrier([UNIT, "s"])
        prod = pair_carrier(a, b)
        total = sum_carrier(a, b)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                assert prod.index(Pair(x, y)) == i * len(b) + j
            assert total.index(InL(x)) == i
        for j, y in enumerate(b):
            assert total.index(InR(y)) == len(a) + j

    def test_public_constructor_sorts_and_deduplicates(self):
        c = Carrier([InR(UNIT), "b", InL(UNIT), "a", "b", InR(UNIT)])
        assert c.elems == ("a", "b", InL(UNIT), InR(UNIT))

    def test_set_of_inverts_mask_of(self):
        c = Carrier([numeral(i) for i in range(7)])
        rng = random.Random(5)
        for _ in range(50):
            mask = rng.randrange(1 << len(c))
            subset = c.set_of(mask)
            assert len(subset) == mask.bit_count()
            assert c.mask_of(subset) == mask


class TestBudgetBeforeWork:
    """The rel model raises BudgetExceeded from predicted sizes, before
    it builds a product, sum or bag carrier."""

    @staticmethod
    def counting(monkeypatch, name):
        made = []
        ctor = getattr(relmodel, name)

        def counted(*args):
            made.append(1)
            return ctor(*args)
        monkeypatch.setattr(relmodel, name, counted)
        return made

    def test_bags_of_bags(self, monkeypatch):
        made = self.counting(monkeypatch, "Bag")
        budgets = Budgets(bag=6)
        with pytest.raises(BudgetExceeded) as info:
            interpret_carrier(parse("!!(1+1)"), budgets=budgets)
        # C(28 + 6, 6) bags of the 28 bags over two elements
        assert str(info.value) == \
            "carrier of size 1344904 exceeds cap 20000"
        assert len(made) <= budgets.carrier_cap

    def test_product(self, monkeypatch):
        made = self.counting(monkeypatch, "Pair")
        eleven = "(" + " + ".join(["1"] * 11) + ")"
        with pytest.raises(BudgetExceeded, match="size 121 exceeds cap 100"):
            interpret_carrier(parse(f"{eleven} * {eleven}"),
                              budgets=Budgets(carrier_cap=100))
        assert made == []

    def test_sum(self, monkeypatch):
        # count the InR requests, including those the element table
        # answers with an element it already holds
        made = []

        class Counted(dict):
            def get(self, key):
                made.append(1)
                return dict.get(self, key)

        class Elements(relmodel._Elements):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                self.inr = Counted()
        monkeypatch.setattr(relmodel, "_Elements", Elements)
        built = self.counting(monkeypatch, "InR")
        nine = "(" + " + ".join(["1"] * 9) + ")"
        # two bag carriers of C(9 + 2, 2) = 55 bags each
        with pytest.raises(BudgetExceeded, match="size 110 exceeds cap 100"):
            interpret_carrier(parse(f"!{nine} + !{nine}"),
                              budgets=Budgets(bag=2, carrier_cap=100))
        # only the injections inside the two 9-element operands
        assert len(made) == 2 * 8
        # all sixteen are inr(()), built once
        assert len(built) == 1

    def test_action_on_bags_of_bags(self, monkeypatch):
        made = self.counting(monkeypatch, "Bag")
        budgets = Budgets(bag=6)
        one = identity_rel(interpret_carrier(parse("1")))
        with pytest.raises(BudgetExceeded) as info:
            functor_on_relations(parse("!!(1+x)"), "x", one, budgets=budgets)
        assert str(info.value) == \
            "carrier of size 1344904 exceeds cap 20000"
        assert len(made) <= budgets.carrier_cap

    def test_action_on_products(self, monkeypatch):
        made = self.counting(monkeypatch, "Pair")
        eleven = "(" + " + ".join(["1"] * 11) + ")"
        r = identity_rel(interpret_carrier(parse(eleven)))
        with pytest.raises(BudgetExceeded, match="size 121 exceeds cap 100"):
            functor_on_relations(parse(f"{eleven} * x"), "x", r,
                                 budgets=Budgets(carrier_cap=100))
        assert made == []

    def test_action_on_sums(self):
        nine = "(" + " + ".join(["1"] * 9) + ")"
        r = identity_rel(interpret_carrier(parse(f"!{nine}")))
        with pytest.raises(BudgetExceeded, match="size 110 exceeds cap 100"):
            functor_on_relations(parse(f"!{nine} + x"), "x", r,
                                 budgets=Budgets(bag=2, carrier_cap=100))

    def test_cli_reports_the_budget_error(self, capsys):
        from mullsem.cli import main
        assert main(["interp", "--model", "rel", "--bag", "6",
                     "!!(1+1)"]) == 1
        assert "exceeds cap 20000" in capsys.readouterr().err


class TestInterning:
    """Within one interpretation each distinct element is one object;
    equality and hashing stay structural."""

    def test_shared_children_are_carrier_elements(self):
        c = interpret_carrier(parse("mu x. 1 + x * x"),
                              budgets=Budgets(depth=4))
        members = {id(e) for e in c}
        pairs = [e.value.value for e in c if isinstance(e.value, InR)]
        assert len(pairs) == len(c) - 1 == 25
        for p in pairs:
            assert id(p.first) in members and id(p.second) in members

    def test_equal_to_hand_built_elements(self):
        for text in ("mu x. 1 + x * x", "mu x. 1 + !x", "nu x. (1 + x) * 1"):
            c = interpret_carrier(parse(text), budgets=Budgets(depth=3))
            for e in c:
                copy = _rebuild(e)
                assert copy is not e
                assert copy == e and e == copy and hash(copy) == hash(e)
                assert c.index(copy) == c.index(e)
        c = interpret_carrier(parse("mu x. 1 + x"), budgets=Budgets(depth=3))
        assert c.elems == (numeral(0), numeral(1), numeral(2))

    def test_no_table_survives_the_call(self):
        f = parse("mu x. 1 + x * x")
        c = interpret_carrier(f, budgets=Budgets(depth=3))
        again = interpret_carrier(f, budgets=Budgets(depth=3))
        assert again == c
        assert all(a is not b for a, b in zip(again, c))
        ref = weakref.ref(c.elems[-1])
        del c, again
        gc.collect()
        assert ref() is None
        assert relmodel._ELEMENTS.get() is None

    def test_no_table_survives_a_budget_error(self):
        with pytest.raises(BudgetExceeded):
            interpret_carrier(parse("mu x. 1 + x * x"),
                              budgets=Budgets(depth=6, carrier_cap=100))
        assert relmodel._ELEMENTS.get() is None

    def test_concurrent_interpretations(self):
        depths = {"mu x. nu y. 1 + x * y": 3, "mu x. mu y. 1 + !x + y": 2}
        texts = list(depths)

        def job(text):
            budgets = Budgets(depth=depths[text], bag=2)
            return text, interpret_carrier(parse(text), budgets=budgets)

        serial = dict(job(t) for t in texts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(job, t) for t in texts * 4]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        # one table per call: within a result equal parts are one
        # object, and no two results share a part other than UNIT
        owned = set()
        for text, c in results:
            assert c.elems == serial[text].elems, text
            assert c.stabilized == serial[text].stabilized
            assert [str(e) for e in c] == [str(e) for e in serial[text]]
            parts = {id(e) for e in element_parts(c.elems)} - {id(UNIT)}
            assert not parts & owned
            owned |= parts


class TestCarrierHash:
    def test_hash_is_structural(self):
        c = interpret_carrier(parse("mu x. 1 + x * x"),
                              budgets=Budgets(depth=3))
        h = hash(c)
        assert h == hash(c.elems) == hash(c)
        same = Carrier([_rebuild(e) for e in c], stabilized=False)
        assert same == c and hash(same) == h

    def test_pickle_round_trip(self):
        c = Carrier([numeral(i) for i in range(4)], stabilized=False)
        hash(c)
        copy = pickle.loads(pickle.dumps(c))
        assert copy == c and hash(copy) == hash(c)
        assert copy.stabilized is False


def _reference_render(e):
    """render_elem as it was before texts were kept: every part is
    rendered again inside every parent (reference)."""
    t = type(e)
    if t is Fold:
        return f"fold({_reference_render(e.value)})"
    if t is InR:
        return f"inr({_reference_render(e.value)})"
    if t is InL:
        return f"inl({_reference_render(e.value)})"
    if t is Pair:
        return f"({_reference_render(e.first)},{_reference_render(e.second)})"
    if t is Unit:
        return "()"
    if t is Bag:
        return "[" + ",".join(map(_reference_render, e.items)) + "]"
    return str(e)


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def _grammar_at_depth_3():
    """The formulas of the totality-fixpoints benchmark grammar that
    answer at depth 3 (the keys of its golden answers)."""
    with open(GOLDEN / "totality-fixpoints.json", encoding="utf-8") as fh:
        keys = json.load(fh)["digests"]
    return [k.split("|", 2)[2] for k in keys if k.startswith("totality|3|")]


def _render_in_order(elems, parents_first):
    """(str, render_elem) of each element, the longest texts first or
    last; a part's text is shorter than its parent's."""
    ordered = sorted(elems, key=lambda e: len(_reference_render(e)),
                     reverse=parents_first)
    return {id(e): (str(e), render_elem(e)) for e in ordered}


class TestKeptTexts:
    """Elements keep the texts they hand out; every text equals the
    recursive reference, whatever is rendered first."""

    @pytest.mark.parametrize("parents_first", [True, False])
    def test_totality_grammar_at_depth_3(self, parents_first):
        formulas = _grammar_at_depth_3()
        assert len(formulas) == 159
        for text in formulas:
            space = interpret_totality(parse(text), {},
                                       Budgets(depth=3, bag=2))
            carrier = list(space.carrier)
            minima = [e for s in space.family.min_sets() for e in s]
            expected = {id(e): _reference_render(e) for e in carrier}
            # the answer as the CLI prints it, then every nested part
            got = _render_in_order(carrier, parents_first)
            assert all(got[i] == (t, t) for i, t in expected.items()), text
            assert [str(e) for e in minima] == \
                [_reference_render(e) for e in minima], text
            parts = list(element_parts(carrier))
            got = _render_in_order(parts, parents_first)
            assert all(got[id(p)] == (_reference_render(p),) * 2
                       for p in parts), text

    @pytest.mark.parametrize("parents_first", [True, False])
    def test_random_elements_with_labels(self, parents_first):
        rng = random.Random(20261018)
        elems = [_random_elem(rng, 5) for _ in range(300)]
        # built by hand, so equal parts may be distinct objects: walk
        # them by identity
        parts, stack = {}, list(elems)
        while stack:
            e = stack.pop()
            if isinstance(e, relmodel.Elem) and id(e) not in parts:
                parts[id(e)] = e
                for field in e.__match_args__:
                    part = getattr(e, field)
                    stack.extend(part if isinstance(part, tuple) else (part,))
        parts = list(parts.values())
        expected = {id(p): (_reference_render(p),) * 2 for p in parts}
        got = _render_in_order(parts, parents_first)
        assert got == expected
        # again, now that every part keeps its text
        assert [str(e) for e in elems] == list(map(_reference_render, elems))

    def test_kept_text_changes_neither_equality_nor_hash(self):
        rng = random.Random(3)
        for _ in range(100):
            e = _random_elem(rng, 4)
            copy = _rebuild(e)
            before = hash(e)
            str(e)
            assert e == copy and copy == e
            assert hash(e) == before == hash(copy)
            assert Carrier([e]).index(copy) == 0

    def test_pickle_round_trip_carries_no_text(self):
        c = interpret_carrier(parse("mu x. 1 + !x * x"),
                              budgets=Budgets(depth=3))
        texts = [str(e) for e in c]
        copy = pickle.loads(pickle.dumps(c))
        assert copy == c and hash(copy) == hash(c)
        assert all(p._text is None for p in element_parts(copy.elems))
        assert [str(e) for e in copy] == texts


class TestElemClasses:
    """The element classes keep the surface of a frozen value class:
    repr, immutability, pattern matching and keyword construction."""

    SAMPLES = (UNIT, InL(UNIT), InR("a"), Fold(InL(UNIT)),
               Pair(1, InR(UNIT)), Bag((Fold(UNIT), "a")))

    def test_repr(self):
        assert [repr(e) for e in self.SAMPLES] == [
            "Unit()", "InL(value=Unit())", "InR(value='a')",
            "Fold(value=InL(value=Unit()))",
            "Pair(first=1, second=InR(value=Unit()))",
            "Bag(items=('a', Fold(value=Unit())))"]

    def test_fields_are_frozen(self):
        for e in self.SAMPLES:
            for name in e.__match_args__ + ("_key", "_hash", "_text", "new"):
                with pytest.raises(FrozenInstanceError):
                    setattr(e, name, UNIT)
                with pytest.raises(FrozenInstanceError):
                    delattr(e, name)
            assert not hasattr(e, "__dict__")
            assert weakref.ref(e)() is e

    def test_match_binds_fields(self):
        def shape(e):
            match e:
                case Unit():
                    return "unit"
                case InL(v) | InR(v):
                    return ("inj", v)
                case Fold(value=v):
                    return ("fold", v)
                case Pair(a, b):
                    return ("pair", a, b)
                case Bag(items):
                    return ("bag", items)
        assert [shape(e) for e in self.SAMPLES] == [
            "unit", ("inj", UNIT), ("inj", "a"), ("fold", InL(UNIT)),
            ("pair", 1, InR(UNIT)), ("bag", ("a", Fold(UNIT)))]

    def test_constructors_take_their_fields_by_keyword(self):
        assert Pair(first=UNIT, second="a") == Pair(UNIT, "a")
        assert InL(value=UNIT) == InL(UNIT)
        assert Bag(items=("b", "a")).items == ("a", "b")


def test_relation_surface():
    """Relation is a frozen value class whose every way in but
    ``_trusted`` checks the pairs against the carriers."""
    src, tgt = Carrier("ab"), Carrier([UNIT])
    r = Relation(src, tgt, frozenset({("a", UNIT)}))
    assert repr(r) == ("Relation(src=Carrier{a, b}, tgt=Carrier{()}, "
                       "pairs=frozenset({('a', Unit())}))")
    same = Relation(src=Carrier("ba"), tgt=tgt, pairs=frozenset({("a", UNIT)}))
    assert same == r and hash(same) == hash(r)
    assert r != Relation(src, tgt, frozenset())
    assert r != (src, tgt, r.pairs)
    copy = pickle.loads(pickle.dumps(r))
    assert copy == r and hash(copy) == hash(r)
    # unpickling rebuilds through the checking constructor
    bad = Relation._trusted(src, tgt, frozenset({("c", UNIT)}))
    data = pickle.dumps(bad)
    with pytest.raises(CarrierMismatch):
        pickle.loads(data)
    for name in ("src", "tgt", "pairs", "new"):
        with pytest.raises(FrozenInstanceError):
            setattr(r, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(r, name)
    assert not hasattr(r, "__dict__")


def _has_key(e):
    """Whether e's sort key has been computed (the slot is set)."""
    return hasattr(e, "_key")


class TestLazyKeys:
    """An element computes its sort key the first time it is asked for,
    from its children's keys, and keeps it."""

    def test_builders_compute_no_key(self, monkeypatch):
        asked = []
        key = relmodel.sort_key
        monkeypatch.setattr(relmodel, "sort_key",
                            lambda e: asked.append(e) or key(e))
        # the largest carrier of the totality-fixpoints grammar without
        # ! or ?, whose bags sort their items
        text = "mu x. nu y. (1 + 1 + 1) + x * (1 + 1) + y"
        c = interpret_carrier(parse(text), budgets=Budgets(depth=4, bag=2))
        assert len(c) == 7020
        assert asked == []
        parts = element_parts(c.elems)
        assert len(parts) > len(c)
        assert not any(_has_key(p) for p in parts if p is not UNIT)

    @pytest.mark.parametrize("parents_first", [True, False])
    def test_first_key_is_the_recursive_key(self, parents_first):
        c = interpret_carrier(parse("mu x. nu y. 1 + x * y"),
                              budgets=Budgets(depth=3))
        parts = [p for p in element_parts(c.elems) if p is not UNIT]
        assert not any(map(_has_key, parts))
        # the longest texts first: each key is computed through its
        # children's; the shortest first: from children's kept keys
        ordered = sorted(parts, key=lambda p: len(_reference_render(p)),
                         reverse=parents_first)
        keys = [sort_key(p) for p in ordered]
        assert keys == [_flat_key(_recursive_sort_key(p)) for p in ordered]
        assert all(p._key is k for p, k in zip(ordered, keys))
        assert [sort_key(p) for p in ordered] == keys

    def test_random_elements_with_labels(self):
        rng = random.Random(20261020)
        for _ in range(300):
            e = _random_elem(rng, 5)
            assert sort_key(e) == _flat_key(_recursive_sort_key(e))

    @pytest.mark.parametrize("depth", [450, 600])
    def test_deep_elements_sort_without_recursion(self, depth):
        # the deepest element nests 2 * depth constructors, past the
        # recursion limit for a key built or compared level by level
        def deep_carrier():
            return interpret_carrier(parse("mu x. 1 + x"), budgets=Budgets(
                depth=depth, carrier_cap=10 ** 6))

        for order in (list, lambda elems: elems[::-1]):
            c = deep_carrier()
            assert Carrier(order(c.elems)).elems == c.elems
        deepest = deep_carrier().elems[-2:]
        assert [fold_depth(e) for e in deepest] == [depth - 1, depth]
        assert Bag(deepest[::-1]).items == deepest

    def test_pickle_replace_and_frozen_key(self):
        e = Pair(Fold(InL(UNIT)), InR("a"))
        assert not _has_key(e)
        for kept in (False, True):
            with pytest.raises(FrozenInstanceError):
                e._key = (0,)
            with pytest.raises(FrozenInstanceError):
                del e._key
            # pickling rebuilds through the constructor: no key travels
            copy = pickle.loads(pickle.dumps(e))
            assert copy == e and not _has_key(copy)
            assert sort_key(copy) == _flat_key(_recursive_sort_key(e))
            assert _has_key(e) is kept
            sort_key(e)
        swapped = Pair(e.first, InL("b"))
        assert not _has_key(swapped)
        assert sort_key(swapped) == _flat_key(_recursive_sort_key(swapped)) \
            < sort_key(e)
