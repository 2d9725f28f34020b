import pytest

from oracles import (check_monotone, greatest_postfixpoint_scan,
                     least_prefixpoint_scan)
from mullsem.errors import IterationBudgetExceeded, LatticeError
from mullsem.fibration import FiniteLattice, gfp, lfp
from mullsem.lattice import iterate


def chain4():
    return FiniteLattice.chain(4)


class TestFiniteLattice:
    def test_chain_and_powerset_validate(self):
        assert chain4().validate()
        assert FiniteLattice.powerset("abc").validate()

    def test_bounds(self):
        lat = FiniteLattice.powerset("ab")
        assert lat.bottom == frozenset()
        assert lat.top == frozenset("ab")
        assert lat.meet(frozenset("a"), frozenset("b")) == frozenset()
        assert lat.join(frozenset("a"), frozenset("b")) == frozenset("ab")

    def test_non_lattice_rejected(self):
        # two maximal elements: no top
        with pytest.raises(LatticeError):
            FiniteLattice([0, 1], lambda a, b: a == b)

    def test_missing_join_detected(self):
        # diamond without top: {bot, a, b} with a, b incomparable
        le = {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)}
        with pytest.raises(LatticeError):
            lat = FiniteLattice([0, 1, 2], lambda a, b: (a, b) in le)
            lat.validate()

    def test_monotonicity_checker(self):
        lat = chain4()
        check_monotone(lat, lambda x: min(x + 1, 3))
        with pytest.raises(LatticeError):
            check_monotone(lat, lambda x: {0: 1, 1: 0, 2: 2, 3: 3}[x])


class TestFixpoints:
    def test_identity(self):
        lat = chain4()
        assert lfp(lat, lambda x: x) == 0
        assert gfp(lat, lambda x: x) == 3

    def test_constant(self):
        lat = chain4()
        assert lfp(lat, lambda x: 2) == 2
        assert gfp(lat, lambda x: 2) == 2

    def test_chain_example_against_scan(self):
        lat = chain4()
        table = {0: 1, 1: 2, 2: 2, 3: 3}
        op = table.__getitem__
        check_monotone(lat, op)
        assert lfp(lat, op) == 2
        assert gfp(lat, op) == 3
        assert least_prefixpoint_scan(lat, op) == 2
        assert greatest_postfixpoint_scan(lat, op) == 3

    def test_results_are_exact_fixpoints(self):
        lat = FiniteLattice.powerset("abc")

        def op(s):
            return s | frozenset("a")

        r = lfp(lat, op)
        assert op(r) == r
        assert r == least_prefixpoint_scan(lat, op)
        q = gfp(lat, op)
        assert op(q) == q

    def test_least_greatest_certified_exhaustively(self):
        lat = FiniteLattice.powerset("ab")

        def op(s):
            return s | (frozenset("b") if "a" in s else frozenset())

        check_monotone(lat, op)
        assert lfp(lat, op) == least_prefixpoint_scan(lat, op)
        assert gfp(lat, op) == greatest_postfixpoint_scan(lat, op)

    def test_budget_on_non_stabilizing_adapter(self):
        # adapter over an unbounded chain: never stabilizes
        lat = chain4()
        with pytest.raises(IterationBudgetExceeded) as info:
            lfp(lat, lambda x: x + 1)  # deliberately escapes the lattice
        assert info.value.budget == len(lat) + 1
        assert info.value.last is not None


class TestIterate:
    def test_returns_the_first_fixed_iterate(self):
        assert iterate(lambda x: min(x + 1, 5), 0, 10) == 5
        # five steps reach 5, the sixth confirms it
        assert iterate(lambda x: min(x + 1, 5), 0, 6) == 5

    def test_budget_carries_the_last_iterate(self):
        with pytest.raises(IterationBudgetExceeded) as info:
            iterate(lambda x: min(x + 1, 5), 0, 5)
        assert str(info.value) == "no stabilization within 5 iterations"
        assert info.value.last == 5

    def test_zero_budget_returns_nothing(self):
        with pytest.raises(IterationBudgetExceeded) as info:
            iterate(lambda x: x, "start", 0)
        assert info.value.last == "start"

    def test_custom_sameness(self):
        # stop once a step adds nothing, without comparing the items
        def grow(xs):
            return xs + [object()] if len(xs) < 3 else list(xs)
        assert len(iterate(grow, [], 10, lambda y, x: len(y) == len(x))) == 3


class TestMidScaleCertification:
    def test_powerset_64_certified_by_scan(self):
        base = "abcdef"
        lat = FiniteLattice.powerset(base)  # 64 elements
        anchor = frozenset("ab")

        def op(s):
            return s | (anchor if "c" in s else frozenset("c"))

        check_monotone(lat, op)
        assert lfp(lat, op) == least_prefixpoint_scan(lat, op)
        assert gfp(lat, op) == greatest_postfixpoint_scan(lat, op)

    def test_chain_500(self):
        lat = FiniteLattice.chain(500)

        def op(x):
            return min(x + 7, 341)

        # 341 is the only fixpoint: everything below climbs to it and
        # everything above falls onto it
        assert lfp(lat, op) == 341
        assert gfp(lat, op) == 341
        assert least_prefixpoint_scan(lat, op) == 341
        assert greatest_postfixpoint_scan(lat, op) == 341
