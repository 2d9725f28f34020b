"""The value classes built on ``record.Record``: construction, equality,
hashing, text, pattern matching, pickling and immutability."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from mullsem.budgets import Budgets
from mullsem.fibration import Morphism
from mullsem.formula import (ONE, Mu, One, Plus, Tensor, Var, With, Zero,
                             parse)
from mullsem.newton import (CertifiedResult, FunExpr, KleeneResult, SAdd,
                            SConst, SCoord, SMul)
from mullsem.poles import AdmissibilityReport, PoleSpec, Verdict
from mullsem.record import Record
from mullsem.semiring import NINF

X = Var("x")


def _values():
    kleene = KleeneResult({"x": 0.5}, 0.0, 3, True, "float")
    certified = CertifiedResult({"x": 0.5}, 0.0, 3, True, "float",
                                {"x": Fraction(1, 2)}, {"x": Fraction(1, 2)})
    return [ONE, X, Tensor(ONE, X), Mu("x", Plus(ONE, X)), Budgets(),
            Budgets(1, 0, 5, 7), SAdd(SConst(Fraction(1, 4)), SCoord("x")),
            FunExpr(("x",), (("x", SCoord("x")),)), kleene, certified,
            AdmissibilityReport(Verdict.ADMISSIBLE, "closed"),
            Morphism("f", "a", "b")]


class TestEquality:
    def test_equal_fields_compare_and_hash_equal(self):
        for value in _values():
            twin = copy.copy(value)
            assert twin == value and not twin != value
            if not isinstance(value, KleeneResult):  # those hold dicts
                assert hash(twin) == hash(value)

    @pytest.mark.parametrize("a,b", [
        (Plus(ONE, X), With(ONE, X)),
        (SAdd(SCoord("x"), SCoord("y")), SMul(SCoord("x"), SCoord("y"))),
        (One(), Zero()),
        (KleeneResult({}, 0, 0, True, "float"),
         CertifiedResult({}, 0, 0, True, "float", {}, None)),
    ])
    def test_another_class_with_the_same_fields_is_not_equal(self, a, b):
        assert a != b and b != a
        assert a != a._values()

    def test_hash_is_the_hash_of_the_field_tuple(self):
        # as a frozen dataclass hashes: the class does not enter the hash
        assert hash(Plus(ONE, X)) == hash((ONE, X)) == hash(With(ONE, X))
        assert hash(ONE) == hash(())
        assert len({Plus(ONE, X), With(ONE, X), Plus(ONE, X)}) == 2

    def test_unhashable_field_makes_the_record_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(KleeneResult({"x": 1}, 0, 1, True, "float"))


class TestText:
    def test_repr_names_each_field(self):
        assert repr(Tensor(ONE, X)) == "Tensor(left=One(), right=Var(name='x'))"
        assert repr(Budgets()) == ("Budgets(depth=4, bag=2, carrier_cap=20000, "
                                   "iter_cap=10000)")
        assert repr(Morphism("f", "a", "b")) == "f: a -> b"  # its own

    def test_str_of_a_formula_is_its_text(self):
        assert str(parse("mu x. 1 + x * x")) == "mu x. 1 + x * x"


class TestConstruction:
    def test_keywords_and_defaults(self):
        report = AdmissibilityReport(reason="closed",
                                     verdict=Verdict.ADMISSIBLE)
        assert report == AdmissibilityReport(Verdict.ADMISSIBLE, "closed",
                                             (), None)
        assert report.witness_chain == () and report.witness_sup is None
        pole = PoleSpec("nat", NINF, bool)
        assert pole.evidence is None
        assert PoleSpec("nat", NINF, bool, evidence=1).evidence == 1
        assert Tensor(right=X, left=ONE) == Tensor(ONE, X)

    @pytest.mark.parametrize("args,kwargs", [
        ((ONE, X, X), {}),          # too many
        ((ONE,), {}),               # missing
        ((ONE, X), {"left": ONE}),  # repeated
        ((ONE,), {"middle": X}),    # unknown
        ((), {"left": ONE}),        # missing, by keyword
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Tensor(*args, **kwargs)

    def test_missing_field_without_default_raises(self):
        with pytest.raises(TypeError, match="takes the fields"):
            PoleSpec("nat", NINF)

    def test_budgets_validate(self):
        assert Budgets(depth=0, bag=0).depth == 0
        assert Budgets(3, 1) == Budgets(depth=3, bag=1)
        for bad in ({"depth": -1}, {"bag": -1}, {"carrier_cap": 0},
                    {"iter_cap": 0}):
            with pytest.raises(ValueError):
                Budgets(**bad)


class TestMatch:
    def test_positional_and_keyword_patterns(self):
        match Tensor(ONE, X):
            case Tensor(One(), Var(name)):
                assert name == "x"
            case _:
                pytest.fail("positional pattern did not match")
        match Mu("y", X):
            case Mu(body=Var(name="x"), var=var):
                assert var == "y"
            case _:
                pytest.fail("keyword pattern did not match")
        match CertifiedResult({}, 0, 1, True, "float", {}, None):
            case KleeneResult(_, _, iterations, upper=None):
                assert iterations == 1
            case _:
                pytest.fail("subclass pattern did not match")


class TestPickleAndFreeze:
    def test_pickle_round_trip(self):
        for value in _values():
            copied = pickle.loads(pickle.dumps(value))
            assert type(copied) is type(value) and copied == value

    def test_assignment_and_deletion_raise(self):
        for value in _values():
            for name in value.__match_args__ + ("other",):
                with pytest.raises(FrozenInstanceError):
                    setattr(value, name, None)
                with pytest.raises(FrozenInstanceError):
                    delattr(value, name)

    def test_instances_have_no_dict(self):
        for value in _values():
            assert isinstance(value, Record)
            assert not hasattr(value, "__dict__")
