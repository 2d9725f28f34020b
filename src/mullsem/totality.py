"""Non-uniform totality spaces: bipolar-closed up-families over finite carriers.

A family of "total" subsets is stored as the antichain of its minimal
members; the orthogonal of a family is the family of its minimal
transversals, and on finite carriers the double orthogonal is exactly
the upward closure.  Fixpoint totalities are least/greatest fixpoints
of the fold-reindexed body operator on the family lattice.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import _kernels as kernels
from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import (BudgetExceeded, CarrierMismatch, CarrierTooLarge,
                     UnsupportedConstructor)
from .formula import (Bot, Formula, Lolli, Mu, Neg, Nu, OfCourse, One, Par,
                      Plus, Tensor, Top, WhyNot, With, Zero, check_variance,
                      fold)
from .lattice import iterate
from .relmodel import (Carrier, EMPTY_CARRIER, UNIT_CARRIER, _bag,
                       _fixpoint_chain, _interning, _product, _sum,
                       bit_indices, fold_depth)

TRANSVERSAL_BOUND = 12


class UpFamily:
    """An up-closed (equivalently bipolar-closed) family of subsets.

    Stored as the antichain of minimal members, as bitmasks relative to
    the carrier's canonical element order: bit i stands for
    ``carrier.elems[i]``.  The carrier builders fix that order (see
    ``pair_carrier``, ``sum_carrier`` and ``bag_carrier``), so the
    minima of a product or sum are computed from its factors' minima by
    index arithmetic alone.
    """

    __slots__ = ("carrier", "minima")

    def __init__(self, carrier: Carrier, minima):
        self.carrier = carrier
        minima = tuple(sorted(set(minima)))
        if minima and (minima[0] < 0 or minima[-1] >> len(carrier)):
            raise ValueError("minima must be masks of subsets of the carrier")
        if not kernels.is_antichain(minima):
            raise ValueError("minima must form an antichain; "
                             "use biclosure() to normalize")
        self.minima = minima

    @classmethod
    def _trusted(cls, carrier: Carrier, minima: tuple) -> "UpFamily":
        """Family of minima known to be a sorted duplicate-free antichain.

        For kernel output and for minima that are antichains by
        construction; everything else goes through the checking
        constructor.
        """
        family = object.__new__(cls)
        family.carrier = carrier
        family.minima = minima
        return family

    @classmethod
    def empty(cls, carrier):
        """The family with no members (bottom of the lattice)."""
        return cls(carrier, ())

    @classmethod
    def full(cls, carrier):
        """All subsets, including the empty one (top of the lattice)."""
        return cls(carrier, (0,))

    def contains_mask(self, mask: int) -> bool:
        return any(m & mask == m for m in self.minima)

    def contains(self, subset) -> bool:
        return self.contains_mask(self.carrier.mask_of(subset))

    def min_sets(self):
        return tuple(self.carrier.set_of(m) for m in self.minima)

    def is_empty_family(self):
        return not self.minima

    def is_full_family(self):
        return self.minima == (0,)

    def le(self, other: "UpFamily") -> bool:
        """Family inclusion."""
        if self.carrier != other.carrier:
            raise CarrierMismatch("families live on different carriers")
        return all(other.contains_mask(m) for m in self.minima)

    def meet(self, other: "UpFamily") -> "UpFamily":
        """Family intersection; minimal members are minimal pairwise unions."""
        if self.carrier != other.carrier:
            raise CarrierMismatch("families live on different carriers")
        unions = [a | b for a in self.minima for b in other.minima]
        return UpFamily._trusted(self.carrier, kernels.minimize_family(unions))

    def join(self, other: "UpFamily") -> "UpFamily":
        """Family union (already bipolar closed on finite carriers)."""
        if self.carrier != other.carrier:
            raise CarrierMismatch("families live on different carriers")
        return UpFamily._trusted(
            self.carrier, kernels.minimize_family(self.minima + other.minima))

    def __eq__(self, other):
        return (isinstance(other, UpFamily)
                and self.carrier == other.carrier
                and self.minima == other.minima)

    def __hash__(self):
        return hash((self.carrier, self.minima))

    def __repr__(self):
        sets = ["{" + ",".join(str(e) for e in sorted(s)) + "}"
                for s in self.min_sets()]
        return "UpFamily(min: " + ", ".join(sets) + ")" if sets \
            else "UpFamily(empty)"


def orthogonal(family: UpFamily, max_carrier: int = TRANSVERSAL_BOUND) -> UpFamily:
    """The orthogonal family: all subsets meeting every member.

    Its minimal antichain is the set of minimal transversals of the
    input antichain.  The empty family maps to the full family and any
    family containing the empty set maps to the empty family.
    """
    n = len(family.carrier)
    if n > max_carrier:
        raise CarrierTooLarge(n, max_carrier)
    return UpFamily._trusted(family.carrier,
                             kernels.minimal_transversals(family.minima, n))


def biclosure(carrier: Carrier, sets, max_carrier: int = TRANSVERSAL_BOUND,
              ) -> UpFamily:
    """Double-orthogonal closure of an arbitrary family of subsets.

    On a finite carrier this is the upward closure: the minimal
    antichain consists of the inclusion-minimal members.
    """
    if len(carrier) > max_carrier:
        raise CarrierTooLarge(len(carrier), max_carrier)
    masks = [carrier.mask_of(s) for s in sets]
    return UpFamily._trusted(carrier, kernels.minimize_family(masks))


class TotalitySpace:
    """A carrier together with its bipolar-closed family of total subsets."""

    __slots__ = ("carrier", "family", "stabilized")

    def __init__(self, carrier: Carrier, family: UpFamily, stabilized=True):
        if family.carrier != carrier:
            raise CarrierMismatch("family carrier differs from the space carrier")
        self.carrier = carrier
        self.family = family
        self.stabilized = stabilized

    def __eq__(self, other):
        return (isinstance(other, TotalitySpace)
                and self.carrier == other.carrier
                and self.family == other.family)

    def __hash__(self):
        return hash((self.carrier, self.family))

    def __repr__(self):
        return f"TotalitySpace({self.carrier!r}, {self.family!r})"


# ---------------------------------------------------------------------------
# interpretation

def interpret_totality(f: Formula, env=None,
                       budgets: Budgets = DEFAULT_BUDGETS) -> TotalitySpace:
    """Interpret a classical formula as a totality space.

    The carrier is the relational interpretation; the family follows
    the connective table of this model, with mu as the least and nu as
    the greatest fixpoint of the fold-reindexed body operator.  The
    carriers of its fixpoints share one element table (see
    ``relmodel._Elements``).

    f is variance-checked first, with the names in env as constants,
    so an ill-sorted binder raises VarianceError instead of iterating
    a non-monotone body.
    """
    env = env or {}
    check_variance(dict.fromkeys(env), f)
    with _interning():
        return fold(f, env, TOTALITY, budgets)


def _antichain_space(carrier, minima: tuple, stabilized=True):
    """Space whose minima are a sorted antichain by construction."""
    return TotalitySpace(carrier, UpFamily._trusted(carrier, minima),
                         stabilized)


def _bag_supports(n: int, max_size: int) -> tuple:
    """Member masks of the bags over n elements, in ``bag_carrier`` order."""
    return tuple([sum({1 << i for i in combo})
                  for k in range(max_size + 1)
                  for combo in combinations_with_replacement(range(n), k)])


def _dual(s: TotalitySpace) -> TotalitySpace:
    return TotalitySpace(s.carrier, orthogonal(s.family), s.stabilized)


def _tensor(budgets, sa: TotalitySpace, sb: TotalitySpace) -> TotalitySpace:
    carrier = _product(budgets, sa.carrier, sb.carrier)
    fa, fb = sa.family, sb.family
    if fa.is_empty_family() or fb.is_empty_family():
        minima = ()
    elif fa.is_full_family() or fb.is_full_family():
        minima = (0,)  # every product with the empty set is empty
    else:
        # x * y is the union of the rows y << i * nb for the members i
        # of x; on nonempty sets it is monotone and reflects inclusion,
        # so the products of two antichains form an antichain
        nb = len(sb.carrier)
        products = []
        for x in fa.minima:
            shifts = [i * nb for i in bit_indices(x)]
            products += [sum(y << s for s in shifts) for y in fb.minima]
        minima = tuple(sorted(products))
    return _antichain_space(carrier, minima, sa.stabilized and sb.stabilized)


def _plus(budgets, sa: TotalitySpace, sb: TotalitySpace) -> TotalitySpace:
    carrier = _sum(budgets, sa.carrier, sb.carrier)
    if sa.family.is_full_family() or sb.family.is_full_family():
        minima = (0,)  # the empty set absorbs the other side
    else:
        # nonempty minima on disjoint supports, left side first
        na = len(sa.carrier)
        minima = sa.family.minima + tuple(m << na for m in sb.family.minima)
    return _antichain_space(carrier, minima, sa.stabilized and sb.stabilized)


def _with(budgets, sa: TotalitySpace, sb: TotalitySpace) -> TotalitySpace:
    ma, mb = len(sa.family.minima), len(sb.family.minima)
    if ma * mb > budgets.carrier_cap:
        raise BudgetExceeded(
            f"& of {ma} x {mb} minimal sets ({ma * mb}) exceeds "
            f"cap {budgets.carrier_cap}")
    carrier = _sum(budgets, sa.carrier, sb.carrier)
    na = len(sa.carrier)
    # antichains on disjoint supports: their product is an antichain,
    # and ascending in (y, x) is ascending as masks
    minima = tuple([x | y << na for y in sb.family.minima
                    for x in sa.family.minima])
    return _antichain_space(carrier, minima, sa.stabilized and sb.stabilized)


def _bang(budgets, s: TotalitySpace) -> TotalitySpace:
    carrier = _bag(budgets, s.carrier)
    supports = _bag_supports(len(s.carrier), budgets.bag)
    # x promotes to the bags whose members all lie in x
    minima = [sum(1 << i for i, sup in enumerate(supports) if sup | x == x)
              for x in s.family.minima]
    return _antichain_space(carrier, kernels.minimize_family(minima),
                            s.stabilized)


def _lolli(budgets, sa, sb):
    raise UnsupportedConstructor("lolli", "totality")


def _fix(budgets, node, env):
    """Fixpoint totality at the current truncation depth.

    The stabilization flag compares the antichain against the family at
    depth k-1, restricted to elements of fold depth < k-1.  That pass
    folds in ``_FAMILIES``, so the binders inside it run once each.  At
    depth 0 there is nothing to compare; the flag is the carrier
    chain's, which is false for every binder.
    """
    space = _fix_at(TOTALITY, budgets, node, env)
    if budgets.depth == 0:
        return TotalitySpace(space.carrier, space.family,
                             space.stabilized and space.carrier.stabilized)
    bound = budgets.depth - 1
    prev = _fix_at(_FAMILIES, Budgets(bound, budgets.bag, budgets.carrier_cap,
                                      budgets.iter_cap), node, env)
    stable = space.stabilized and (restrict_antichain(space.family, bound)
                                   == restrict_antichain(prev.family, bound))
    return TotalitySpace(space.carrier, space.family, stable)


def _fix_at(table, budgets, node, env):
    """The fixpoint family at ``budgets.depth``, its body folded in table.

    The carrier is the last iterate C_k of the rel chain.  Each step
    restricts the family to the iterate that C_k folds and folds the
    body over that restriction, so the body's carrier is the one that
    Fold maps onto C_k.
    """
    carrier, folded = _fixpoint_chain(
        budgets, node, {name: s.carrier for name, s in env.items()})
    # folded is a subset of carrier in the same order, so renumbering the
    # bits of the minimal sets inside it keeps them sorted
    rank = {carrier.index(e): j for j, e in enumerate(folded.elems)}
    outside = (1 << len(carrier)) - 1 - sum(1 << i for i in rank)
    inner_stable = True

    def step(fam):
        nonlocal inner_stable
        restricted = UpFamily._trusted(folded, tuple([
            sum(1 << rank[i] for i in bit_indices(m))
            for m in fam.minima if not m & outside]))
        body_space = fold(node.body,
                          {**env, node.var: TotalitySpace(folded, restricted)},
                          table, budgets)
        inner_stable = inner_stable and body_space.stabilized
        return _reindex_along_fold(carrier, body_space)

    least = type(node) is Mu
    start = UpFamily.empty(carrier) if least else UpFamily.full(carrier)
    fam = iterate(step, start, budgets.iter_cap)
    return TotalitySpace(carrier, fam, inner_stable)


# The totality space of each constructor, given its operands' spaces.
# ctx is the Budgets, and every carrier comes from the rel builders.
# The par, ? and ~ entries are the duals of tensor and !.
TOTALITY = {
    One: lambda ctx: _antichain_space(UNIT_CARRIER, (1,)),
    Bot: lambda ctx: _antichain_space(UNIT_CARRIER, (1,)),
    Zero: lambda ctx: TotalitySpace(EMPTY_CARRIER,
                                    UpFamily.empty(EMPTY_CARRIER)),
    Top: lambda ctx: TotalitySpace(EMPTY_CARRIER,
                                   UpFamily.full(EMPTY_CARRIER)),
    Neg: lambda ctx, node, env: _dual(fold(node.body, env, TOTALITY, ctx)),
    Tensor: _tensor,
    Par: lambda ctx, sa, sb: _dual(_tensor(ctx, _dual(sa), _dual(sb))),
    Plus: _plus,
    With: _with,
    # the model has no linear implication; the operands are folded first
    Lolli: _lolli,
    OfCourse: _bang,
    WhyNot: lambda ctx, s: _dual(_bang(ctx, _dual(s))),
    Mu: _fix,
    Nu: _fix,
}

# The depth k-1 pass of _fix: only its family is read, so each binder
# runs one _fix_at, and negated bodies stay in this table.
_FAMILIES = {
    **TOTALITY,
    Neg: lambda ctx, node, env: _dual(fold(node.body, env, _FAMILIES, ctx)),
    Mu: lambda ctx, node, env: _fix_at(_FAMILIES, ctx, node, env),
    Nu: lambda ctx, node, env: _fix_at(_FAMILIES, ctx, node, env),
}


def _reindex_along_fold(carrier: Carrier, body_space: TotalitySpace
                        ) -> UpFamily:
    """Pull the body family back along the inverse of the fold wrapping.

    Fold maps the body's carrier onto the fixpoint carrier in order, so
    each minimal set keeps its mask.  At depth 0 the fixpoint carrier is
    the empty C_0, which folds nothing: only the empty minimal set is a
    subset of it.
    """
    minima = body_space.family.minima
    if len(body_space.carrier) != len(carrier) and minima != (0,):
        minima = ()
    return UpFamily._trusted(carrier, minima)


def restrict_antichain(family: UpFamily, depth_bound: int) -> tuple:
    """Minimal sets whose members all have fold depth below the bound."""
    # test each member of a minimal set once, not once per set
    carrier = family.carrier
    members = 0
    for m in family.minima:
        members |= m
    deep = 0
    for i in bit_indices(members):
        if fold_depth(carrier.elems[i]) >= depth_bound:
            deep |= 1 << i
    kept = [carrier.set_of(m) for m in family.minima if not m & deep]
    return tuple(sorted(kept, key=lambda s: sorted(map(str, s))))
