import pytest

from oracles import greatest_postfixpoint_scan, least_prefixpoint_scan
from mullsem.errors import IterationBudgetExceeded, LatticeError
from mullsem.fibration import FiniteLattice, MonotoneOp, gfp, lfp
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
        MonotoneOp(lat, lambda x: min(x + 1, 3)).check_monotone()
        bad = MonotoneOp(lat, lambda x: {0: 1, 1: 0, 2: 2, 3: 3}[x])
        with pytest.raises(LatticeError):
            bad.check_monotone()


class TestFixpoints:
    def test_identity(self):
        lat = chain4()
        ident = MonotoneOp(lat, lambda x: x)
        assert lfp(ident) == 0
        assert gfp(ident) == 3

    def test_constant(self):
        lat = chain4()
        const = MonotoneOp(lat, lambda x: 2)
        assert lfp(const) == 2
        assert gfp(const) == 2

    def test_chain_example_against_scan(self):
        lat = chain4()
        table = {0: 1, 1: 2, 2: 2, 3: 3}
        op = MonotoneOp(lat, table.__getitem__)
        op.check_monotone()
        assert lfp(op) == 2
        assert gfp(op) == 3
        assert least_prefixpoint_scan(lat, op.fn) == 2
        assert greatest_postfixpoint_scan(lat, op.fn) == 3

    def test_results_are_exact_fixpoints(self):
        lat = FiniteLattice.powerset("abc")
        op = MonotoneOp(lat, lambda s: s | frozenset("a"))
        r = lfp(op)
        assert op(r) == r
        assert r == least_prefixpoint_scan(lat, op.fn)
        q = gfp(op)
        assert op(q) == q

    def test_least_greatest_certified_exhaustively(self):
        lat = FiniteLattice.powerset("ab")

        def op(s):
            return s | (frozenset("b") if "a" in s else frozenset())

        mono = MonotoneOp(lat, op)
        mono.check_monotone()
        assert lfp(mono) == least_prefixpoint_scan(lat, op)
        assert gfp(mono) == greatest_postfixpoint_scan(lat, op)

    def test_budget_on_non_stabilizing_adapter(self):
        # adapter over an unbounded chain: never stabilizes
        lat = chain4()
        op = MonotoneOp(lat, lambda x: x)
        op.fn = lambda x: x + 1  # deliberately escapes the lattice
        with pytest.raises(IterationBudgetExceeded) as info:
            lfp(op)
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

        mono = MonotoneOp(lat, op)
        mono.check_monotone()
        assert lfp(mono) == least_prefixpoint_scan(lat, op)
        assert gfp(mono) == greatest_postfixpoint_scan(lat, op)

    def test_chain_500(self):
        lat = FiniteLattice.chain(500)
        op = MonotoneOp(lat, lambda x: min(x + 7, 341))
        # 341 is the only fixpoint: everything below climbs to it and
        # everything above falls onto it
        assert lfp(op) == 341
        assert gfp(op) == 341
        assert least_prefixpoint_scan(lat, op.fn) == 341
        assert greatest_postfixpoint_scan(lat, op.fn) == 341
