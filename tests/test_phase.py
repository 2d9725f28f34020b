import re
from itertools import permutations

import pytest

from oracles import (brute_commutative_monoid_count, orthogonal_fact,
                     phase_fact, phase_orthogonal_set, powerset,
                     random_phase_formulas)
from mullsem import _kernels as kernels
from mullsem import phase
from mullsem.errors import (FileFormatError, IterationBudgetExceeded,
                            UnboundVariable, VarianceError)
from mullsem.formula import Mu, Neg, Nu, fold, parse, nnf, substitute
from mullsem.phase import (PhaseSpace, PoleBatch,
                           enumerate_commutative_monoids,
                           enumerate_spaces, fact_closure, holds,
                           interpret_phase, parse_phase_space, render_phase_space,
                           search_counter_model, space_from_table)

SIGN = PhaseSpace(("1", "-1"), "1",
                  {("1", "1"): "1", ("1", "-1"): "-1", ("-1", "-1"): "1"},
                  ("1",))

# closed formulas of the multiplicative/additive fragment with fixpoints;
# the acceptance suite reuses this corpus
CORPUS = [
    "1", "bot", "0", "top",
    "1 * 1", "1 | bot", "1 + 0", "1 & top", "bot | bot", "top * 1",
    "~1", "~(1 * 1)", "~(1 + 0)", "1 * (bot | 1)", "(1 & top) + 0",
    "1 -o 1", "(1 + 0) -o top", "bot -o bot",
    "mu x. x", "nu x. x", "mu x. 1 + x", "nu x. 1 & x",
    "mu x. x + x", "nu x. x & x", "mu x. 1 * x", "nu x. bot | x",
    "mu x. (1 + x) * 1", "mu x. top & (0 + x)", "nu x. (x | bot) & top",
    "mu x. nu y. x + y", "mu x. mu y. x + y", "nu x. mu y. x & (1 + y)",
    "mu x. ~(~x + ~1)", "nu x. ~(~x * ~bot)",
]


def all_small_spaces():
    return list(enumerate_spaces(2))


class TestFactClosure:
    def test_sign_examples(self):
        assert fact_closure(SIGN, {"1"}) == {"1"}
        assert fact_closure(SIGN, set()) == set()
        assert fact_closure(SIGN, {"1", "-1"}) == {"1", "-1"}

    def test_closure_laws_exhaustive_small(self):
        for space in enumerate_spaces(3):
            elems = space.elements
            for x in powerset(elems):
                cx = fact_closure(space, x)
                assert x <= cx
                assert fact_closure(space, cx) == cx
                for y in powerset(elems):
                    if x <= y:
                        assert cx <= fact_closure(space, y)

    def test_closure_laws_exhaustive_size_4(self):
        # every commutative monoid of order 4 up to iso, with every pole
        for space in enumerate_spaces(4):
            if space.size < 4:
                continue
            subsets = powerset(space.elements)
            closures = {x: fact_closure(space, x) for x in subsets}
            for x in subsets:
                assert x <= closures[x]
                assert fact_closure(space, closures[x]) == closures[x]
                for y in subsets:
                    if x <= y:
                        assert closures[x] <= closures[y]


class TestInterpret:
    def test_sign_values(self):
        assert interpret_phase(SIGN, parse("1")) == {"1"}
        assert interpret_phase(SIGN, parse("mu x. x")) == set()
        assert interpret_phase(SIGN, parse("nu x. x")) == {"1", "-1"}
        assert interpret_phase(SIGN, parse("1 * bot")) == {"1"}

    def test_every_connective_output_is_a_fact(self):
        for space in all_small_spaces():
            for text in CORPUS:
                fact = interpret_phase(space, parse(text))
                assert fact_closure(space, fact) == fact, (space, text)

    def test_unfolding_law(self):
        for space in all_small_spaces():
            for text in CORPUS:
                f = parse(text)
                if isinstance(f, (Mu, Nu)):
                    unfolded = substitute(f.body, f.var, f)
                    assert interpret_phase(space, f) == \
                        interpret_phase(space, unfolded), (space, text)

    def test_mu_below_nu(self):
        for space in all_small_spaces():
            for text in CORPUS:
                f = parse(text)
                if isinstance(f, (Mu, Nu)):
                    mu_val = interpret_phase(space, Mu(f.var, f.body))
                    nu_val = interpret_phase(space, Nu(f.var, f.body))
                    assert mu_val <= nu_val, (space, text)

    def test_duality_oracle_validates_nnf(self):
        for space in all_small_spaces():
            for text in CORPUS:
                f = parse(text)
                lhs = interpret_phase(space, nnf(Neg(f)))
                rhs = orthogonal_fact(space, interpret_phase(space, f))
                assert lhs == rhs, (space, text)

    def test_lolli_equals_classical_encoding(self):
        for space in all_small_spaces():
            f = interpret_phase(space, parse("(1 + 0) -o bot"))
            g = interpret_phase(space, parse("~(1 + 0) | bot"))
            assert f == g


class TestFixpointBudget:
    def test_oscillating_body_exhausts_the_budget(self):
        # ~x is not monotone: from the least fact the iterates alternate,
        # so the chain stops at its budget of 2^n + 2 steps, in the batch
        # of one pole as in that of all poles.  The public calls refuse
        # such a body, so this folds through the table.
        space = space_from_table((0, 1, 1, 0), 2, 1)
        for batch in (space.batch(), PoleBatch.every_pole(space)):
            with pytest.raises(IterationBudgetExceeded,
                               match="^no stabilization within 6 "
                                     "iterations$"):
                fold(parse("mu x. ~x"), {}, phase.SLICED, batch)

    def test_ill_sorted_binder_is_variance_error(self, monkeypatch):
        space = space_from_table((0, 1, 1, 0), 2, 1)
        f = parse("mu x. ~x")
        folds = []
        original = phase.fold
        monkeypatch.setattr(phase, "fold",
                            lambda *args: folds.append(1) or original(*args))
        for call in (lambda: interpret_phase(space, f),
                     lambda: holds(space, f),
                     lambda: search_counter_model(f, 3)):
            with pytest.raises(VarianceError, match="'mu x. ~x'"):
                call()
        assert folds == []

    def test_environment_names_are_constants(self):
        # x is bound to a fact, so ~x is a constant and the body is
        # monotone in y
        space = space_from_table((0, 1, 1, 0), 2, 1)
        x = interpret_phase(space, parse("1"))
        assert interpret_phase(space, parse("nu y. (~x * x) & y"), {"x": x}) \
            == interpret_phase(space, parse("~x * x"), {"x": x})


class TestHolds:
    def test_examples(self):
        assert holds(SIGN, parse("1"))
        assert not holds(SIGN, parse("0"))
        assert holds(SIGN, parse("top"))
        for space in all_small_spaces():
            assert holds(space, parse("top"))
            assert holds(space, parse("1"))


class TestSearch:
    def test_bot_counter_model_is_trivial_monoid(self):
        space = search_counter_model(parse("bot"), 3)
        assert space is not None
        assert space.size == 1
        assert space.pole == frozenset()

    def test_top_and_one_have_none(self):
        assert search_counter_model(parse("top"), 3) is None
        assert search_counter_model(parse("1"), 3) is None

    def test_deterministic(self):
        a = search_counter_model(parse("bot | bot"), 3)
        b = search_counter_model(parse("bot | bot"), 3)
        assert render_phase_space(a) == render_phase_space(b)

    def test_cap(self):
        with pytest.raises(ValueError):
            search_counter_model(parse("1"), 7)

    def test_free_variables_checked_once_per_search(self, monkeypatch):
        sorts = []
        check = phase.check_variance
        monkeypatch.setattr(phase, "check_variance",
                            lambda ctx, f: sorts.append(f) or check(ctx, f))
        assert search_counter_model(parse("1"), 3) is None
        assert len(sorts) == 1
        with pytest.raises(UnboundVariable, match="'x'"):
            search_counter_model(parse("1 * x"), 3)
        with pytest.raises(UnboundVariable, match="'x'"):
            holds(SIGN, parse("1 * x"))
        # the first free variable in reading order, as the CLI names it
        with pytest.raises(UnboundVariable, match="'y'"):
            holds(SIGN, parse("y * x"))
        with pytest.raises(UnboundVariable, match="'y'"):
            search_counter_model(parse("y * x"), 3)


def reference_commutative_monoids(n):
    """Reference enumerator: after each cell is chosen, every triple of
    non-unit elements is checked again for associativity, through a
    dict-backed product; canonical forms by brute-force relabelling."""
    if n < 1:
        return []
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    table = {}

    def mul(a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        return table.get((a, b) if a <= b else (b, a))

    def consistent():
        for a in range(1, n):
            for b in range(1, n):
                ab = mul(a, b)
                if ab is None:
                    continue
                for c in range(1, n):
                    bc = mul(b, c)
                    if bc is None:
                        continue
                    left = mul(ab, c)
                    right = mul(a, bc)
                    if None not in (left, right) and left != right:
                        return False
        return True

    def canonical(flat):
        best = None
        for perm in permutations(range(1, n)):
            position = (0,) + perm
            cand = [0] * (n * n)
            for i in range(n):
                for j in range(n):
                    cand[position[i] * n + position[j]] = \
                        position[flat[i * n + j]]
            if best is None or tuple(cand) < best:
                best = tuple(cand)
        return best

    found = set()

    def fill(k):
        if k == len(cells):
            found.add(canonical(tuple(mul(i, j) for i in range(n)
                                      for j in range(n))))
            return
        for val in range(n):
            table[cells[k]] = val
            if consistent():
                fill(k + 1)
        del table[cells[k]]

    fill(0)
    return sorted(found)


class TestEnumeration:
    def test_counts_match_brute_force(self):
        for n in (1, 2, 3, 4):
            assert len(enumerate_commutative_monoids(n)) == \
                brute_commutative_monoid_count(n)

    def test_frozen_counts(self):
        # OEIS A058131: commutative monoids of order n up to isomorphism
        assert [len(enumerate_commutative_monoids(n))
                for n in (1, 2, 3, 4, 5, 6)] == [1, 2, 5, 19, 78, 421]

    def test_tables_match_reference(self):
        for n in range(6):
            assert enumerate_commutative_monoids(n) == \
                reference_commutative_monoids(n), n

    def test_tables_are_valid_spaces(self):
        for n in (1, 2, 3, 4, 5):
            for flat in enumerate_commutative_monoids(n):
                space_from_table(flat, n, 0)  # ValueError when laws fail

    def test_order_6_tables_are_minimal_and_increasing(self):
        # beyond the reference's reach: each table is checked against
        # all 120 relabellings fixing the unit, by brute force
        n = 6
        tables = enumerate_commutative_monoids(n)
        assert len(tables) == 421
        assert all(a < b for a, b in zip(tables, tables[1:]))
        cells = [(i, j) for i in range(n) for j in range(n)]
        for flat in tables:
            space_from_table(flat, n, 0)  # ValueError when laws fail
            for perm in permutations(range(1, n)):
                position = (0,) + perm
                relabelled = [0] * (n * n)
                for i, j in cells:
                    relabelled[position[i] * n + position[j]] = \
                        position[flat[i * n + j]]
                assert tuple(relabelled) >= flat, (flat, position)

    def test_pole_variants_match_checked_spaces(self):
        # enumerate_spaces checks each table once and shares it between
        # the poles; every variant equals the fully checked space
        checked = [space_from_table(flat, n, mask) for n in (1, 2, 3, 4)
                   for flat in enumerate_commutative_monoids(n)
                   for mask in range(1 << n)]
        shared = list(enumerate_spaces(4))
        assert len(shared) == len(checked) == 354
        formulas = [parse(text) for text in CORPUS]
        for got, want in zip(shared, checked):
            assert got.to_dict() == want.to_dict()
            assert repr(got) == repr(want)
            assert [holds(got, f) for f in formulas] == \
                [holds(want, f) for f in formulas], want


def pole_slice(batch, fact, p):
    """The bitmask of the subset a bit-sliced fact holds under pole p."""
    return sum((fact >> i * batch.width + p & 1) << i
               for i in range(batch.size))


class TestOrthogonalMemo:
    @pytest.mark.parametrize("descending", [False, True])
    def test_memo_matches_the_oracle(self, monkeypatch, descending):
        # each space computes the orthogonal of a mask once, in its batch
        # of one pole, whatever the order in which the masks are asked
        calls = []
        original = kernels.phase_orthogonal
        monkeypatch.setattr(kernels, "phase_orthogonal",
                            lambda *args: calls.append(args) or
                            original(*args))
        spaces = 0
        for space in enumerate_spaces(4):
            spaces += 1
            n = space.size
            masks = list(range(1 << n))
            if descending:
                masks.reverse()
            before = len(calls)
            for mask in (*masks, *masks):
                want = phase_orthogonal_set(space, space.set_of(mask))
                assert space.orthogonal_mask(mask) == space.mask_of(want), \
                    (space, mask)
            assert len(calls) - before == 1 << n, space
            assert {args[3] for args in calls[before:]} == set(masks)
        assert spaces == 354

    def test_one_call_per_fact_of_a_monoid(self, monkeypatch):
        # the batch of every pole of a monoid computes the orthogonal of
        # a fact once, and its slice P is the orthogonal in the space of
        # pole P
        calls = []
        original = kernels.phase_orthogonal
        monkeypatch.setattr(kernels, "phase_orthogonal",
                            lambda *args: calls.append(args) or
                            original(*args))
        for n in (1, 2, 3, 4):
            for flat in enumerate_commutative_monoids(n):
                monoid = space_from_table(flat, n, 0)
                batch = PoleBatch.every_pole(monoid)
                spaces = [monoid._with_pole(p) for p in range(1 << n)]
                # one fact per subset: slice P holds subset P ^ mask
                facts = [sum(((p ^ mask) >> i & 1) << i * batch.width + p
                             for p in range(1 << n) for i in range(n))
                         for mask in range(1 << n)]
                before = len(calls)
                for fact in (*facts, *reversed(facts)):
                    got = batch.orthogonal(fact)
                    for p, space in enumerate(spaces):
                        mine = space.set_of(pole_slice(batch, fact, p))
                        want = phase_orthogonal_set(space, mine)
                        assert pole_slice(batch, got, p) == \
                            space.mask_of(want)
                    assert got >> n * batch.width == 0
                assert len(calls) - before == len(set(facts)), flat


class TestAgainstOracle:
    """interpret_phase and the search against the set-based oracle."""

    FORMULAS = [parse(text) for text in
                random_phase_formulas(80, 18) + CORPUS
                + ["!1 -o !1", "bot -o ?bot", "(1 & bot) -o 1",
                   "mu x. ?x", "nu x. !x", "nu x. mu y. !(x | ?y)",
                   # first counter-models past the smallest spaces
                   "nu x. x & ?(~bot & (0 | x))",
                   "~((mu x. (top & bot) -o x) * ~((bot | 1) & ~bot))",
                   "(bot * (~(1 & 1) & (nu x. !bot))) -o "
                   "~((nu x. x | x) & (~top + bot))",
                   "?((top & (1 | ~bot)) | (((mu x. x) + (bot + 1)) "
                   "& (top & (bot -o top))))"]]

    def test_interpret_on_every_space_up_to_size_3(self):
        spaces = list(enumerate_spaces(3))
        assert len(spaces) == 50
        for space in spaces:
            for f in self.FORMULAS:
                assert interpret_phase(space, f) == phase_fact(space, f), \
                    (space, f)

    def test_every_pole_batch_up_to_size_3(self):
        # the search's fold: one per monoid, slice P under pole P
        for n in (1, 2, 3):
            for flat in enumerate_commutative_monoids(n):
                monoid = space_from_table(flat, n, 0)
                batch = PoleBatch.every_pole(monoid)
                for f in self.FORMULAS:
                    fact = fold(f, {}, phase.SLICED, batch)
                    for p in range(1 << n):
                        space = monoid._with_pole(p)
                        got = space.set_of(pole_slice(batch, fact, p))
                        assert got == phase_fact(space, f), (space, f)

    def test_search_finds_the_oracles_first_failing_space(self):
        spaces = list(enumerate_spaces(4))
        found = set()
        for f in self.FORMULAS:
            want = next((s for s in spaces
                         if s.unit not in phase_fact(s, f)), None)
            got = search_counter_model(f, 4)
            if want is None:
                assert got is None, f
            else:
                assert (repr(got), got.to_dict()) == \
                    (repr(want), want.to_dict()), f
                found.add(repr(want))
        # the counter-models are spread over sizes and poles
        assert len(found) >= 7


class TestFileFormat:
    def test_round_trip(self):
        text = render_phase_space(SIGN)
        again = parse_phase_space(text)
        assert render_phase_space(again) == text

    def test_symmetric_entries_optional(self):
        space = parse_phase_space(
            "elements e a\nunit e\nmul a a a\npole e a\n")
        assert space.mul("a", "e") == "a"

    def test_law_violation_reported(self):
        with pytest.raises(FileFormatError) as info:
            parse_phase_space(
                "elements e a b\nunit e\n"
                "mul a a b\nmul a b a\nmul b b a\npole e\n")
        assert "associativity" in str(info.value)

    def test_missing_product_reported(self):
        with pytest.raises(FileFormatError) as info:
            parse_phase_space("elements e a\nunit e\npole e\n")
        assert "undefined" in str(info.value)

    def test_unknown_directive(self):
        with pytest.raises(FileFormatError):
            parse_phase_space("monoid e\n")

    def test_conflicting_product(self):
        with pytest.raises(FileFormatError):
            parse_phase_space(
                "elements e a\nunit e\nmul a a e\nmul a a a\npole\n")

    @pytest.mark.parametrize("line,name", [
        ("mul x a a", "x"), ("mul a y a", "y"), ("mul a e q", "q")])
    def test_product_naming_a_non_element(self, line, name):
        with pytest.raises(FileFormatError,
                           match=re.escape(f"line 4: {name!r} is not an element")):
            parse_phase_space(f"elements e a\nunit e\nmul a a a\n{line}\n"
                              "pole e\n")

    def test_empty_pole_allowed(self):
        space = parse_phase_space(
            "elements e\nunit e\nmul e e e\npole\n")
        assert space.pole == frozenset()

    def test_input_diagnostics(self):
        for args, message in [
                ((("e", "a"), "x", {}, ()), "unit 'x' is not an element"),
                ((("e", "a"), "e", {}, ("z",)),
                 "pole member 'z' is not an element"),
                ((("e", "a"), "e", {("a", "a"): "q"}, ()),
                 "product 'a'*'a' = 'q' is not an element"),
                ((("e", "a"), "e", {("a", "a"): "a", ("x", "y"): "q"}, ()),
                 "product 'x'*'y' has a factor that is not an element"),
                ((("e", "a", "a"), "e", {}, ()), "duplicate element names")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                PhaseSpace(*args)
        # omitted unit products follow from the unit law
        space = PhaseSpace(("e", "a"), "e", {("a", "a"): "a"}, ("a",))
        assert space.to_dict()["table"] == [["e", "e", "e"], ["e", "a", "a"],
                                            ["a", "a", "a"]]


class TestFlatPath:
    """Spaces built from flat tables against the same spaces parsed from
    their rendered text."""

    FORMULAS = [parse(text) for text in
                ("1", "bot", "1 -o bot", "!1 -o !1", "bot -o ?bot",
                 "nu x. 1 & x", "mu x. ?x", "(1 + bot) * ~bot")]

    def test_every_space_up_to_order_4_matches_its_text(self):
        count = 0
        for n in (1, 2, 3, 4):
            names = phase._NAMES[:n]
            for flat in enumerate_commutative_monoids(n):
                products = [[names[i], names[j], names[flat[i * n + j]]]
                            for i in range(n) for j in range(i, n)]
                for mask in range(1 << n):
                    space = space_from_table(flat, n, mask)
                    text = render_phase_space(space)
                    parsed = parse_phase_space(text)
                    assert space.to_dict() == parsed.to_dict() == {
                        "elements": list(names), "unit": "e",
                        "table": products,
                        "pole": [x for i, x in enumerate(names)
                                 if mask >> i & 1]}
                    assert repr(space) == repr(parsed)
                    assert render_phase_space(parsed) == text
                    assert [interpret_phase(space, f) for f in self.FORMULAS] \
                        == [interpret_phase(parsed, f) for f in self.FORMULAS]
                    count += 1
        assert count == 354

    @pytest.mark.parametrize("flat, n, law", [
        ((1, 1, 1, 0), 2, "unit law fails on 'e'"),
        # a left-zero band with a unit: associative, not commutative
        ((0, 1, 2, 1, 1, 1, 2, 2, 2), 3,
         "commutativity fails on 'a','b'; commutativity fails on 'b','a'"),
        # test_law_violation_reported's table
        ((0, 1, 2, 1, 2, 1, 2, 1, 1), 3, "associativity fails on 'a','a','b'"),
    ])
    def test_broken_law_is_named(self, flat, n, law):
        with pytest.raises(ValueError) as flat_error:
            space_from_table(flat, n, 0)
        assert str(flat_error.value).startswith(
            "not a commutative monoid with pole: ")
        assert law in str(flat_error.value)
        # the named constructor runs the same check on the same table
        names = phase._NAMES[:n]
        with pytest.raises(ValueError) as named_error:
            PhaseSpace(names, "e", {(names[i], names[j]): names[flat[i * n + j]]
                                    for i in range(n) for j in range(n)}, ())
        assert str(named_error.value) == str(flat_error.value)


class TestVarianceOfCorpus:
    def test_corpus_is_well_sorted(self):
        from mullsem.formula import EMPTY_CONTEXT, check_variance
        for text in CORPUS:
            check_variance(EMPTY_CONTEXT, parse(text))

    def test_corpus_size(self):
        assert len(CORPUS) >= 30


class TestExponentials:
    """The exponential uses idempotents inside the unit fact; excluded
    from the duality oracle by design."""

    def test_sign_space_values(self):
        # idempotents of the sign space inside the unit fact: just the unit
        assert interpret_phase(SIGN, parse("!1")) == {"1"}
        assert interpret_phase(SIGN, parse("!top")) == {"1"}
        assert interpret_phase(SIGN, parse("!0")) == set()
        assert interpret_phase(SIGN, parse("?bot")) == {"1"}
        assert interpret_phase(SIGN, parse("?1")) == {"1"}

    def test_pole_variants_keep_their_own_base(self):
        # with a * a = a the base of ! is {e, a} under the empty pole and
        # {e} under the pole {e}; it is cached per space, and a pole
        # variant must not reuse the cache of the space it came from
        table = (0, 1, 1, 1)
        empty = space_from_table(table, 2, 0)
        assert interpret_phase(empty, parse("!top")) == {"e", "a"}
        unit = empty._with_pole(1)
        assert interpret_phase(unit, parse("!top")) == {"e"}
        assert interpret_phase(unit._with_pole(0), parse("!top")) == {"e", "a"}
        for mask in range(4):
            variant = empty._with_pole(mask)
            checked = space_from_table(table, 2, mask)
            for text in ("!top", "?0", "!(1 + 0)", "?(1 & top)"):
                assert interpret_phase(variant, parse(text)) == \
                    interpret_phase(checked, parse(text)), (mask, text)
        # the orthogonals depend on the pole too: a variant answers from
        # its own memo, never from that of the space it came from, even
        # when the pole is the same
        source = space_from_table(table, 2, 0)
        source.batch()._orthogonals.update(dict.fromkeys(range(4), -1))
        for pole in range(4):
            variant = source._with_pole(pole)
            for mask in range(4):
                want = phase_orthogonal_set(variant, variant.set_of(mask))
                assert variant.orthogonal_mask(mask) == variant.mask_of(want)
            assert -1 not in variant.batch()._orthogonals.values()
        assert source.batch()._orthogonals == dict.fromkeys(range(4), -1)

    def test_bang_under_fixpoint(self):
        assert interpret_phase(SIGN, parse("mu x. !x")) == set()

    def test_exponential_outputs_are_facts(self):
        for space in all_small_spaces():
            for text in ("!1", "?bot", "!(1 + 0)", "?(1 & top)",
                         "mu x. !x", "nu x. ?x"):
                val = interpret_phase(space, parse(text))
                assert fact_closure(space, val) == val, (space, text)

    def test_bang_below_plain(self):
        # !A <= A in phase semantics (promotion shrinks)
        for space in all_small_spaces():
            for text in ("1", "top", "1 + 0", "1 & top"):
                f = parse(text)
                bang = interpret_phase(space, parse(f"!({text})"))
                plain = interpret_phase(space, f)
                assert bang <= plain, (space, text)
