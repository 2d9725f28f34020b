import random
import time

import pytest

from mullsem import formula, phase, relmodel, totality
from mullsem.budgets import Budgets
from mullsem.errors import (BudgetExceeded, CarrierTooLarge, ParseError,
                            UnboundVariable, VarianceError)
from mullsem.formula import (Bot, Context, EMPTY_CONTEXT, Formula, Lolli,
                             MAX_NESTING, Mu, Neg, Nu, OfCourse, One, Par,
                             Plus, Sort, Tensor, Top, Var, WhyNot, With, Zero,
                             alpha_eq, check_variance, fold, free_vars, nnf,
                             parse, substitute, to_text)
from mullsem.relmodel import Carrier, InL, InR, UNIT, interpret_carrier
from mullsem.totality import interpret_totality

POS, NEG = Sort.POS, Sort.NEG


class TestParse:
    def test_binder_extends_right(self):
        assert parse("mu x. 1 + x") == Mu("x", Plus(One(), Var("x")))

    def test_unary_binds_tighter(self):
        assert parse("!a * b") == Tensor(OfCourse(Var("a")), Var("b"))

    def test_malformed_input_position(self):
        with pytest.raises(ParseError) as info:
            parse("mu x. x +")
        err = info.value
        assert err.offset == 9 and err.line == 1
        assert "a formula" in err.expected

    def test_atoms_and_connectives(self):
        assert parse("1") == One()
        assert parse("0") == Zero()
        assert parse("top") == Top()
        assert parse("bot") == Bot()
        assert parse("~x") == Neg(Var("x"))
        assert parse("?x") == WhyNot(Var("x"))
        assert parse("a | b") == Par(Var("a"), Var("b"))
        assert parse("a & b") == With(Var("a"), Var("b"))
        assert parse("a -o b") == Lolli(Var("a"), Var("b"))
        assert parse("nu t. t") == Nu("t", Var("t"))

    def test_precedence_layers(self):
        assert parse("a * b + c") == Plus(Tensor(Var("a"), Var("b")), Var("c"))
        assert parse("a + b -o c") == Lolli(Plus(Var("a"), Var("b")), Var("c"))
        assert parse("a -o b -o c") == \
            Lolli(Var("a"), Lolli(Var("b"), Var("c")))
        assert parse("a * b | c") == Par(Tensor(Var("a"), Var("b")), Var("c"))

    def test_parens_override(self):
        assert parse("a * (b + c)") == Tensor(Var("a"), Plus(Var("b"), Var("c")))
        assert parse("(mu x. x) * y") == Tensor(Mu("x", Var("x")), Var("y"))

    def test_binder_as_right_operand(self):
        assert parse("1 + mu x. x + 1") == \
            Plus(One(), Mu("x", Plus(Var("x"), One())))

    def test_identifier_charset(self):
        assert parse("x'") == Var("x'")
        assert parse("mu x1. x1") == Mu("x1", Var("x1"))

    def test_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse("1 @ 2")
        with pytest.raises(ParseError):
            parse("(1")
        with pytest.raises(ParseError):
            parse("1 2")

    def test_empty_input(self):
        with pytest.raises(ParseError) as info:
            parse("")
        assert info.value.offset == 0


class TestNestingLimit:
    # the error points at the operator or bracket one level too deep
    @pytest.mark.parametrize("text, offset", [
        ("!" * 3000 + "1", MAX_NESTING),
        ("(" * 3000 + "1" + ")" * 3000, MAX_NESTING),
        ("1 -o " * 3000 + "1", 5 * MAX_NESTING + 2),
        ("mu x. " * 3000 + "x", 6 * MAX_NESTING),
        # left-associative chains nest without parser recursion
        (" * ".join(["1"] * 3000), 4 * MAX_NESTING + 2),
        # 60 brackets around 60 sums, then the 41st tensor is one too many
        ("(" * 60 + "1" + " + 1)" * 60 + " * 1" * 60,
         60 + 1 + 5 * 60 + 4 * 40 + 1),
    ], ids=["bang", "parens", "lolli", "binders", "chain", "mixed"])
    def test_too_deep_is_positioned_parse_error(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert "nested deeper than" in str(info.value)
        assert info.value.offset == offset and info.value.line == 1

    @pytest.mark.parametrize("text", [
        "!" * MAX_NESTING + "1",
        "~" * MAX_NESTING + "1",
        "?" * MAX_NESTING + "bot",
        "(" * MAX_NESTING + "1" + ")" * MAX_NESTING,
        "1 -o " * MAX_NESTING + "1",
        " * ".join(["1"] * (MAX_NESTING + 1)),
        "".join(f"mu x{i}. " for i in range(MAX_NESTING)) + "1",
    ], ids=["bang", "neg", "whynot", "parens", "lolli", "chain", "binders"])
    def test_recursive_passes_fit_at_the_limit(self, text):
        f = parse(text)
        assert parse(to_text(f)) == f
        nnf(Neg(f))
        budgets = Budgets(depth=1, bag=0)
        interpret_carrier(f, budgets=budgets)
        check_variance(EMPTY_CONTEXT, f)
        if "mu" in text:
            # each totality binder here folds its body at least twice,
            # one step off the empty family and one to see the
            # fixpoint, so n nested binders cost at least 2^n folds
            return
        if "-o" not in text:  # the totality model rejects lolli
            try:
                interpret_totality(f, {}, budgets)
            except (BudgetExceeded, CarrierTooLarge):
                pass


def random_formula(rng, depth, scope):
    choices = ["const", "unary"]
    if scope:
        choices.append("var")
    if depth > 0:
        choices += ["binary", "binder", "binary", "binder"]
    kind = rng.choice(choices)
    if kind == "const":
        return rng.choice([One(), Zero(), Top(), Bot()])
    if kind == "var":
        return Var(rng.choice(sorted(scope)))
    if kind == "unary":
        inner = random_formula(rng, depth - 1, scope) if depth else One()
        return rng.choice([Neg, OfCourse, WhyNot])(inner)
    if kind == "binary":
        ctor = rng.choice([Tensor, Par, Plus, With, Lolli])
        return ctor(random_formula(rng, depth - 1, scope),
                    random_formula(rng, depth - 1, scope))
    name = rng.choice(["x", "y", "z", "w"])
    ctor = rng.choice([Mu, Nu])
    return ctor(name, random_formula(rng, depth - 1, scope | {name}))


class TestPrintRoundTrip:
    def test_round_trip_generated(self):
        rng = random.Random(20240817)
        for _ in range(400):
            f = random_formula(rng, 4, frozenset())
            assert alpha_eq(parse(to_text(f)), f), to_text(f)

    def test_examples(self):
        for text in ["mu x. 1 + x", "!a * b", "(a + b) * c",
                     "a -o b -o c", "~(a | b)", "nu x. !x & top"]:
            f = parse(text)
            assert parse(to_text(f)) == f


class TestVariance:
    def test_var_rule(self):
        assert check_variance(Context([("x", POS)]), Var("x")) is POS

    def test_negation_dualizes(self):
        assert check_variance(Context([("x", POS)]), Neg(Var("x"))) is NEG

    def test_mu_rule(self):
        assert check_variance(EMPTY_CONTEXT, parse("mu x. 1 + x")) is POS

    def test_mu_negative_body_rejected(self):
        with pytest.raises(VarianceError) as info:
            check_variance(EMPTY_CONTEXT, parse("mu x. ~x"))
        assert "sort -" in str(info.value)

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            check_variance(EMPTY_CONTEXT, Var("q"))

    def test_constants_positive(self):
        for f in (One(), Zero(), Top(), Bot()):
            assert check_variance(EMPTY_CONTEXT, f) is POS

    def test_lolli_dualizes_left(self):
        ctx = Context([("x", NEG), ("y", POS)])
        assert check_variance(ctx, Lolli(Var("x"), Var("y"))) is POS
        with pytest.raises(VarianceError):
            check_variance(Context([("x", POS), ("y", POS)]),
                           Lolli(Var("x"), Var("y")))

    def test_binary_needs_equal_sorts(self):
        ctx = Context([("x", POS), ("y", NEG)])
        with pytest.raises(VarianceError):
            check_variance(ctx, Tensor(Var("x"), Var("y")))

    def test_both_sorts_prefer_positive(self):
        # mu x. x is derivable at either sort; the checker commits to +
        assert check_variance(EMPTY_CONTEXT, parse("mu x. x")) is POS

    def test_deterministic_and_total_on_closed_sorted(self):
        rng = random.Random(7)
        seen = 0
        for _ in range(300):
            f = random_formula(rng, 4, frozenset())
            try:
                first = check_variance(EMPTY_CONTEXT, f)
            except VarianceError:
                continue
            seen += 1
            assert check_variance(EMPTY_CONTEXT, f) is first
        assert seen > 50

    def test_nnf_preserves_sort(self):
        rng = random.Random(99)
        for _ in range(300):
            f = random_formula(rng, 4, frozenset())
            try:
                s = check_variance(EMPTY_CONTEXT, f)
            except VarianceError:
                continue
            if s is POS:
                assert check_variance(EMPTY_CONTEXT, nnf(f)) is POS

    def test_unfolding_preserves_sort(self):
        for text in ["mu x. 1 + x", "nu x. 1 & x", "mu x. (1 + x) * 1",
                     "mu x. nu y. x + y"]:
            f = parse(text)
            sort = check_variance(EMPTY_CONTEXT, f)
            unfolded = substitute(f.body, f.var, f)
            assert check_variance(EMPTY_CONTEXT, unfolded) is sort


def _reference_sorts(f, env):
    """Exhaustive variance checker: every binder body is checked under
    both sorts of its variable.

    n nested binders cost 2^n body checks, so this serves only as the
    reference that the one-pass ``formula._sorts`` must agree with.
    """
    def show(sorts):
        if not sorts:
            return "(none)"
        return "/".join(str(s) for s in sorted(sorts, key=lambda s: s.value))

    match f:
        case Var(name):
            if name not in env:
                raise UnboundVariable(name)
            return {env[name]}
        case One() | Zero() | Top() | Bot():
            return {POS, NEG}
        case Neg(b):
            return {s.dual() for s in _reference_sorts(b, env)}
        case OfCourse(b) | WhyNot(b):
            return _reference_sorts(b, env)
        case Tensor(a, b) | Par(a, b) | Plus(a, b) | With(a, b):
            sa, sb = _reference_sorts(a, env), _reference_sorts(b, env)
            meet = sa & sb
            if not meet:
                raise VarianceError(
                    f, f"operands derive {show(sa)} vs {show(sb)}")
            return meet
        case Lolli(a, b):
            sa = {s.dual() for s in _reference_sorts(a, env)}
            sb = _reference_sorts(b, env)
            meet = sa & sb
            if not meet:
                raise VarianceError(
                    f, "left operand derives "
                       f"{show({s.dual() for s in sa})} "
                       f"(needs the dual sort) vs right {show(sb)}")
            return meet
        case Mu(x, b) | Nu(x, b):
            derivable = set()
            failures = []
            for v in (POS, NEG):
                try:
                    got = _reference_sorts(b, {**env, x: v})
                except VarianceError as err:
                    failures.append(
                        f"under {x}:{v} the body fails ({err.detail})")
                    continue
                if v in got:
                    derivable.add(v)
                else:
                    failures.append(f"body has sort {show(got)} under {x}:{v}")
            if not derivable:
                raise VarianceError(f, "; ".join(failures))
            return derivable
    raise TypeError(f"not a formula: {f!r}")


def _sorts_or_error(sorts, f, env):
    try:
        return sorts(f, env)
    except VarianceError as err:
        return err.subterm


class TestOnePassVariance:
    def test_agrees_with_the_exhaustive_checker(self):
        # random contexts over a, b, c with random sorts; the result is
        # the derivable sort set, or the subterm a VarianceError names
        rng = random.Random(2026)
        rejected = 0
        for _ in range(20000):
            env = {n: rng.choice((POS, NEG)) for n in "abc"
                   if rng.random() < 0.7}
            f = random_formula(rng, 4, frozenset(env))
            want = _sorts_or_error(_reference_sorts, f, env)
            assert _sorts_or_error(formula._sorts, f, env) == want, \
                (to_text(f), env)
            rejected += isinstance(want, Formula)
        assert 1000 < rejected < 10000

    def test_top_level_error_texts_kept(self):
        for ctx, text in [({}, "mu x. ~x"), ({"x": POS, "y": NEG}, "x * y"),
                          ({"x": POS, "y": POS}, "x -o y"),
                          ({"x": POS}, "1 + (x | ~x)")]:
            f = parse(text)
            with pytest.raises(VarianceError) as want:
                _reference_sorts(f, ctx)
            with pytest.raises(VarianceError) as got:
                check_variance(Context(ctx.items()), f)
            assert str(got.value) == str(want.value)

    def test_hundred_nested_binders(self):
        # mu x0. ... mu x99. x0 * ... * x99, built directly: its height
        # exceeds the parser's nesting limit.  The exhaustive checker
        # would try 2^100 sort assignments.
        def nested(last):
            f = Var("x0")
            for i in range(1, 99):
                f = Tensor(f, Var(f"x{i}"))
            f = Tensor(f, last)
            for i in reversed(range(100)):
                f = Mu(f"x{i}", f)
            return f

        start = time.perf_counter()
        assert check_variance(EMPTY_CONTEXT, nested(Var("x99"))) is POS
        with pytest.raises(VarianceError):  # x99 used at the dual sort
            check_variance(EMPTY_CONTEXT, nested(Neg(Var("x99"))))
        assert time.perf_counter() - start < 1.0


# the connective table of each model, with a context and an environment
# of two values for a and b to fold formulas in
def _tables():
    budgets = Budgets(depth=2)
    two = Carrier([InL(UNIT), InR(UNIT)])
    # a two-element monoid under all four of its poles at once
    poles = phase.PoleBatch.every_pole(
        next(s for s in phase.enumerate_spaces(2) if s.size == 2))
    spaces = {"a": interpret_totality(parse("1 + 1")),
              "b": interpret_totality(parse("1"))}
    return {
        "rel carriers": (relmodel.CARRIERS, budgets,
                         {"a": two, "b": Carrier([UNIT])}),
        "totality": (totality.TOTALITY, budgets, spaces),
        "totality families": (totality._FAMILIES, budgets, spaces),
        "phase": (phase.SLICED, poles,
                  {"a": poles.closure(poles.full << poles.width),
                   "b": poles.closure(poles.unit_point)}),
    }


class TestFold:
    @pytest.mark.parametrize("model", sorted(_tables()))
    def test_table_is_complete(self, model):
        table, ctx, env = _tables()[model]
        constructors = set(Formula.__subclasses__()) - {Var}
        assert set(table) <= constructors
        missing = constructors - set(table)
        assert missing <= {Lolli}
        if missing:  # read as ~a | b
            assert fold(parse("a -o b"), env, table, ctx) == \
                fold(parse("~a | b"), env, table, ctx)

    @pytest.mark.parametrize("model", sorted(_tables()))
    def test_non_formula_rejected(self, model):
        table, ctx, env = _tables()[model]
        for bad in (42, Tensor(One(), "1")):
            with pytest.raises(TypeError, match="not a formula"):
                fold(bad, env, table, ctx)

    def test_environment_flags_are_not_read(self):
        opened = Carrier([UNIT], stabilized=False)
        assert interpret_carrier(Var("x"), {"x": opened}).stabilized is True


class TestNnf:
    def test_tensor_demorgan(self):
        f = nnf(Neg(Tensor(Var("a"), Var("b"))))
        assert f == Par(Neg(Var("a")), Neg(Var("b")))

    def test_double_negation(self):
        assert nnf(Neg(Neg(Var("a")))) == Var("a")

    def test_mu_dual(self):
        f = nnf(Neg(parse("mu x. 1 + x")))
        assert f == Nu("x", With(Bot(), Var("x")))

    def test_constants(self):
        assert nnf(Neg(One())) == Bot()
        assert nnf(Neg(Zero())) == Top()
        assert nnf(Neg(OfCourse(Var("a")))) == WhyNot(Neg(Var("a")))

    def test_lolli_dual(self):
        f = nnf(Neg(Lolli(Var("a"), Var("b"))))
        assert f == Tensor(Var("a"), Neg(Var("b")))

    def test_neg_only_on_variables(self):
        rng = random.Random(3)

        def negs_ok(f):
            match f:
                case Neg(Var(_)):
                    return True
                case Neg(_):
                    return False
                case Mu(_, b) | Nu(_, b) | OfCourse(b) | WhyNot(b):
                    return negs_ok(b)
                case Tensor(a, b) | Par(a, b) | Plus(a, b) | With(a, b) \
                        | Lolli(a, b):
                    return negs_ok(a) and negs_ok(b)
                case _:
                    return True

        for _ in range(300):
            f = random_formula(rng, 4, frozenset())
            assert negs_ok(nnf(f)), to_text(f)

    def test_involution(self):
        rng = random.Random(4)
        for _ in range(200):
            f = random_formula(rng, 3, frozenset())
            once = nnf(f)
            assert nnf(nnf(Neg(Neg(f)))) == once == nnf(once)


class TestSubstitute:
    def test_simple(self):
        assert substitute(Plus(One(), Var("x")), "x", Zero()) == \
            Plus(One(), Zero())

    def test_bound_untouched(self):
        f = Mu("x", Var("x"))
        assert substitute(f, "x", One()) == f

    def test_capture_avoided(self):
        out = substitute(Mu("y", Var("x")), "x", Var("y"))
        assert isinstance(out, Mu)
        assert out.var != "y"
        assert out.body == Var("y")
        assert alpha_eq(out, Mu("fresh", Var("y")))

    def test_free_vars(self):
        f = parse("mu x. x + y")
        assert free_vars(f) == {"y"}


class TestContext:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Context([("x", POS), ("x", NEG)])

    def test_lookup_and_extend(self):
        ctx = Context([("x", POS)]).extend("y", NEG)
        assert ctx.lookup("y") is NEG
        assert ctx.lookup("x") is POS
        assert ctx.lookup("z") is None


class TestUnicodeInput:
    def test_unicode_identifiers(self):
        f = parse("mu α. 1 + α")
        assert f == Mu("α", Plus(One(), Var("α")))
        assert parse(to_text(f)) == f

    def test_unicode_in_context(self):
        ctx = Context([("β", NEG)])
        assert check_variance(ctx, Neg(Var("β"))) is POS
