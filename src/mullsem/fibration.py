"""Indexed posets over finitely presented categories and fixpoint
lifting, with the morphism side of the concrete models.

A lifted endofunctor pairs a base endofunctor with a monotone action on
the fibers; least pre-fixpoints of the induced operators interpret
initial-algebra liftings, greatest post-fixpoints interpret
final-coalgebra liftings.  Everything here is finite and exhaustively
checkable; the concrete models use specialized representations and only
meet this module through the same contracts.

The morphism side of the models lives here as well: finite lattices
with their least and greatest fixpoints, the identities, composites,
points and functorial action of relations, and total morphisms with
reindexing and the family lattice of totality spaces.  No command runs
any of it, so no command loads this module; the package exports it as
the API of the lifting theorems.
"""

from __future__ import annotations

from itertools import product as iproduct

from . import _kernels as kernels
from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import (CarrierMismatch, CarrierTooLarge, LatticeError,
                     NotInvertible)
from .formula import Formula
from .lattice import iterate
from .record import Record
from .relmodel import (UNIT, UNIT_CARRIER, Bag, Carrier, Elem, Pair, Relation,
                       Unit, interpret_carrier)
from .totality import TotalitySpace, UpFamily, biclosure

# ---------------------------------------------------------------------------
# finite lattices and their fixpoints

VALIDATION_SIZE_BOUND = 500


def _least(candidates, le, missing):
    """The candidate below every other under le, by scanning; raises
    LatticeError(missing) when none is."""
    for c in candidates:
        if all(le(c, d) for d in candidates):
            return c
    raise LatticeError(missing)


class FiniteLattice:
    """A finite lattice given by an element list and a decidable order.

    Bounds, meets and joins are computed by scanning; ``validate`` checks
    the lattice laws exhaustively (intended for <= ~500 elements).
    """

    def __init__(self, elements, le, name="lattice"):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise LatticeError("duplicate elements")
        if not self.elements:
            raise LatticeError("a lattice needs at least one element")
        self.le = le
        self.name = name
        self.bottom = _least(self.elements, le, f"{name}: no global bound")
        self.top = _least(self.elements, lambda a, b: le(b, a),
                          f"{name}: no global bound")

    def meet(self, a, b):
        return _least([c for c in self if self.le(c, a) and self.le(c, b)],
                      lambda c, d: self.le(d, c),
                      f"{self.name}: no meet of {a!r} and {b!r}")

    def join(self, a, b):
        return _least([c for c in self if self.le(a, c) and self.le(b, c)],
                      self.le, f"{self.name}: no join of {a!r} and {b!r}")

    def validate(self):
        """Exhaustive check of the poset and lattice laws."""
        els = self.elements
        if len(els) > VALIDATION_SIZE_BOUND:
            raise LatticeError(
                f"{self.name}: validation bound {VALIDATION_SIZE_BOUND} exceeded")
        for a in els:
            if not self.le(a, a):
                raise LatticeError(f"{self.name}: not reflexive at {a!r}")
        for a in els:
            for b in els:
                if a != b and self.le(a, b) and self.le(b, a):
                    raise LatticeError(f"{self.name}: not antisymmetric on {a!r},{b!r}")
                for c in els:
                    if self.le(a, b) and self.le(b, c) and not self.le(a, c):
                        raise LatticeError(
                            f"{self.name}: not transitive on {a!r},{b!r},{c!r}")
        for a in els:
            for b in els:
                self.meet(a, b)  # raises when absent
                self.join(a, b)
        return True

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"FiniteLattice({self.name}, {len(self.elements)} elements)"

    @classmethod
    def chain(cls, n, name=None):
        """The linear order 0 < 1 < ... < n-1."""
        return cls(range(n), lambda a, b: a <= b, name=name or f"chain{n}")

    @classmethod
    def powerset(cls, base, name=None):
        """Subsets of base ordered by inclusion."""
        base = tuple(base)
        subsets = []
        for mask in range(1 << len(base)):
            subsets.append(frozenset(base[i] for i in range(len(base))
                                     if mask >> i & 1))
        return cls(subsets, frozenset.issubset,
                   name=name or f"powerset{len(base)}")


def lfp(lattice: FiniteLattice, fn):
    """Least fixpoint of a monotone fn on a lattice, by ascending iteration.

    The result r satisfies fn(r) = r and r <= s for every pre-fixpoint
    fn(s) <= s.  On a finite lattice the iteration from bottom always
    stabilizes within len(lattice) + 1 steps; the budget guards a fn
    that leaves the lattice.
    """
    return iterate(fn, lattice.bottom, len(lattice) + 1)


def gfp(lattice: FiniteLattice, fn):
    """Greatest fixpoint, by descending iteration from top (dual of lfp)."""
    return iterate(fn, lattice.top, len(lattice) + 1)


# ---------------------------------------------------------------------------
# relations: identities, composites and points

def identity_rel(carrier: Carrier) -> Relation:
    return Relation(carrier, carrier, frozenset((e, e) for e in carrier))


def compose_rel(f: Relation, g: Relation) -> Relation:
    """Relational composition g after f: pairs (a, c) with a f b g c."""
    if f.tgt != g.src:
        raise CarrierMismatch("target of the first relation differs from "
                              "source of the second")
    by_src = {}
    for b, c in g.pairs:
        by_src.setdefault(b, set()).add(c)
    pairs = {(a, c) for a, b in f.pairs for c in by_src.get(b, ())}
    return Relation._trusted(f.src, g.tgt, frozenset(pairs))


def point(carrier: Carrier, subset) -> Relation:
    """A subset of the carrier viewed as a relation from the unit carrier."""
    return Relation(UNIT_CARRIER, carrier,
                    frozenset((UNIT, e) for e in subset))


def copoint(carrier: Carrier, subset) -> Relation:
    """A subset viewed as a relation into the unit carrier."""
    return Relation(carrier, UNIT_CARRIER,
                    frozenset((e, UNIT) for e in subset))


# ---------------------------------------------------------------------------
# morphism interpretation (the functorial action)

def functor_on_relations(f: Formula, x: str, r: Relation, env=None,
                         budgets: Budgets = DEFAULT_BUDGETS) -> Relation:
    """Action of the interpretation functor of f (in the variable x) on r.

    The remaining free variables of f are held fixed at the carriers in
    ``env`` (acting by their identity relations).  The result relates
    the interpretations of f at the source and target carriers of r.

    The action is the relation lifting of the carrier fold: f is
    interpreted at the graph of r, where x is the carrier of r's pairs
    and each fixed variable is its diagonal, and every element of that
    carrier is mapped along the two projections of its leaves.  So the
    action has the object part's builders and budget guards, and its
    carriers report the same ``stabilized`` flags.  Negation, the
    identity on objects, acts as the identity: every constructor's
    action commutes with taking converses.
    """
    env = env or {}
    src = interpret_carrier(f, {**env, x: r.src}, budgets)
    tgt = interpret_carrier(f, {**env, x: r.tgt}, budgets)
    graph = {name: Carrier([(e, e) for e in c]) for name, c in env.items()}
    graph[x] = Carrier(r.pairs)
    return Relation(src, tgt, frozenset(
        map(_projections, interpret_carrier(f, graph, budgets))))


def _projections(e) -> tuple:
    """Both projections of an element built over a graph: e with each
    leaf, a pair (a, b) of the graph, replaced by a and by b."""
    t = type(e)
    if t is Pair:
        (a1, b1), (a2, b2) = _projections(e.first), _projections(e.second)
        return Pair(a1, a2), Pair(b1, b2)
    if t is Bag:
        sides = [_projections(item) for item in e.items]
        return Bag([a for a, _ in sides]), Bag([b for _, b in sides])
    if t is Unit:
        return e, e
    if isinstance(e, Elem):  # InL, InR or Fold
        a, b = _projections(e.value)
        return t(a), t(b)
    return e


# ---------------------------------------------------------------------------
# totality: total morphisms, reindexing and the family lattice

def check_total_morphism(r: Relation, a: TotalitySpace, b: TotalitySpace) -> bool:
    """True iff the image of every total subset of a is total in b.

    Checking the minimal members suffices: images are monotone and the
    target family is up-closed.
    """
    if r.src != a.carrier or r.tgt != b.carrier:
        raise CarrierMismatch("relation endpoints do not match the spaces")
    return all(b.family.contains(r.image(s)) for s in a.family.min_sets())


def preimage_family(r: Relation, fam: UpFamily) -> UpFamily:
    """Reindexing along r: the subsets whose image under r is in fam.

    This is the fiber action of the orthogonality fibration on a base
    morphism (pullback of a closed family along post-composition).
    """
    if r.tgt != fam.carrier:
        raise CarrierMismatch("family does not live on the relation's target")
    src = r.src
    candidates = set()
    for mset in fam.min_sets():
        choices = []
        feasible = True
        for b in mset:
            pre = sorted(r.preimage((b,)))
            if not pre:
                feasible = False
                break
            choices.append(pre)
        if not feasible:
            continue
        for combo in iproduct(*choices):
            candidates.add(src.mask_of(combo))
        if not mset:
            candidates.add(0)
    return UpFamily._trusted(src, kernels.minimize_family(candidates))


def direct_image_family(r: Relation, fam: UpFamily) -> UpFamily:
    """Existential quantification along r: biclosure of the direct image."""
    if r.src != fam.carrier:
        raise CarrierMismatch("family does not live on the relation's source")
    return biclosure(r.tgt, [r.image(s) for s in fam.min_sets()])


def enumerate_families(carrier: Carrier):
    """All up-closed families on the carrier (feasible for tiny carriers)."""
    n = len(carrier)
    if n > 4:
        raise CarrierTooLarge(n, 4)
    subsets = list(range(1 << n))
    out = []
    for choice in range(1 << len(subsets)):
        minima = tuple(m for i, m in enumerate(subsets) if choice >> i & 1)
        if kernels.is_antichain(minima):
            out.append(UpFamily._trusted(carrier, minima))
    return out


def family_lattice(carrier: Carrier):
    """The complete lattice D(A) of closed families, as a FiniteLattice."""
    return FiniteLattice(enumerate_families(carrier),
                         lambda x, y: x.le(y),
                         name=f"D({len(carrier)})")


# ---------------------------------------------------------------------------
# finitely presented categories, indexed posets and lifting

class Morphism(Record):
    __slots__ = __match_args__ = ("name", "dom", "cod")

    def __repr__(self):
        return f"{self.name}: {self.dom} -> {self.cod}"


class FinCategory:
    """A category presented by explicit object, morphism, and composition tables.

    ``compose_table`` maps (g.name, f.name) to the name of g after f for
    every composable non-identity pair; identities are implicit.
    """

    def __init__(self, objects, morphisms, compose_table, name="category"):
        self.name = name
        self.objects = tuple(objects)
        self.morphisms = {}
        for m in morphisms:
            if m.name in self.morphisms:
                raise ValueError(f"duplicate morphism name {m.name}")
            self.morphisms[m.name] = m
        for obj in self.objects:
            ident = Morphism(f"id_{obj}", obj, obj)
            self.morphisms.setdefault(ident.name, ident)
        self._compose = dict(compose_table)

    def id(self, obj) -> Morphism:
        return self.morphisms[f"id_{obj}"]

    def is_identity(self, f: Morphism) -> bool:
        return f.name == f"id_{f.dom}" and f.dom == f.cod

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        """g after f."""
        if f.cod != g.dom:
            raise ValueError(f"cannot compose {g!r} after {f!r}")
        if self.is_identity(f):
            return g
        if self.is_identity(g):
            return f
        key = (g.name, f.name)
        if key not in self._compose:
            raise ValueError(f"composition table missing {g.name} after {f.name}")
        return self.morphisms[self._compose[key]]

    def hom(self, dom, cod):
        return [m for m in self.morphisms.values()
                if m.dom == dom and m.cod == cod]

    def validate(self):
        for m in self.morphisms.values():
            if m.dom not in self.objects or m.cod not in self.objects:
                raise ValueError(f"{m!r} has unknown endpoints")
        for f in self.morphisms.values():
            for g in self.morphisms.values():
                if f.cod != g.dom:
                    continue
                gf = self.compose(g, f)
                if (gf.dom, gf.cod) != (f.dom, g.cod):
                    raise ValueError(f"composite {gf!r} has wrong endpoints")
                for h in self.morphisms.values():
                    if g.cod != h.dom:
                        continue
                    if self.compose(h, self.compose(g, f)) != \
                            self.compose(self.compose(h, g), f):
                        raise ValueError(
                            f"associativity fails on {h.name},{g.name},{f.name}")
        return True

    def inverse(self, f: Morphism) -> Morphism:
        """Two-sided inverse of f, or raise NotInvertible."""
        for g in self.hom(f.cod, f.dom):
            if self.compose(g, f) == self.id(f.dom) and \
                    self.compose(f, g) == self.id(f.cod):
                return g
        raise NotInvertible(f"{f!r} has no two-sided inverse")


class Endofunctor(Record):
    """Object and morphism maps of an endofunctor on a FinCategory;
    ``on_morphisms`` maps morphism names to morphism names."""

    __slots__ = __match_args__ = ("category", "on_objects", "on_morphisms")

    def obj(self, c):
        return self.on_objects[c]

    def map(self, f: Morphism) -> Morphism:
        cat = self.category
        if cat.is_identity(f):
            return cat.id(self.obj(f.dom))
        return cat.morphisms[self.on_morphisms[f.name]]

    def validate(self):
        cat = self.category
        for c in cat.objects:
            if self.obj(c) not in cat.objects:
                raise ValueError(f"F({c}) is not an object")
        for f in cat.morphisms.values():
            ff = self.map(f)
            if (ff.dom, ff.cod) != (self.obj(f.dom), self.obj(f.cod)):
                raise ValueError(f"F({f.name}) has wrong endpoints")
        for f in cat.morphisms.values():
            for g in cat.morphisms.values():
                if f.cod != g.dom:
                    continue
                if self.map(cat.compose(g, f)) != \
                        cat.compose(self.map(g), self.map(f)):
                    raise ValueError(f"F breaks composition on {g.name},{f.name}")
        return True


class IndexedPoset:
    """Contravariant assignment of finite lattices to the objects of a base.

    ``fibers`` maps each object to its lattice, and ``reindex_maps`` each
    non-identity morphism's name to its table from fiber(f.cod) to
    fiber(f.dom); a subclass may compute them instead.  Reindexing must be
    functorial and monotone.  Existential quantification, its left
    adjoint, is found by scanning the finite fibers.
    """

    def __init__(self, base: FinCategory, fibers=(), reindex_maps=()):
        self.base = base
        self._fibers = dict(fibers)
        self._reindex = {name: dict(table)
                         for name, table in dict(reindex_maps).items()}

    def fiber(self, c) -> FiniteLattice:
        return self._fibers[c]

    def reindex(self, f: Morphism):
        if self.base.is_identity(f):
            return lambda y: y
        return self._reindex[f.name].__getitem__

    def exists_along(self, f: Morphism, x):
        """Left adjoint to reindex(f): the least y with x <= f*(y)."""
        src, tgt, pull = self.fiber(f.dom), self.fiber(f.cod), self.reindex(f)
        return _least([y for y in tgt if src.le(x, pull(y))], tgt.le,
                      f"no least element above {x!r} along {f!r}")

    def validate(self):
        base = self.base
        for c in base.objects:
            self.fiber(c).validate()
        for f in base.morphisms.values():
            pull = self.reindex(f)
            src, tgt = self.fiber(f.dom), self.fiber(f.cod)
            for y in tgt:
                if pull(y) not in set(src.elements):
                    raise ValueError(f"reindex({f.name}) leaves the fiber")
            for y1 in tgt:
                for y2 in tgt:
                    if tgt.le(y1, y2) and not src.le(pull(y1), pull(y2)):
                        raise ValueError(f"reindex({f.name}) is not monotone")
        for c in base.objects:
            pull = self.reindex(base.id(c))
            for x in self.fiber(c):
                if pull(x) != x:
                    raise ValueError(f"reindex(id_{c}) is not the identity")
        for f in base.morphisms.values():
            for g in base.morphisms.values():
                if f.cod != g.dom:
                    continue
                gf = base.compose(g, f)
                for z in self.fiber(g.cod):
                    if self.reindex(gf)(z) != self.reindex(f)(self.reindex(g)(z)):
                        raise ValueError(
                            f"reindexing breaks composition on {g.name},{f.name}")
        return True


class LiftedFunctor:
    """A base endofunctor together with a monotone action on the fibers.

    ``fiber_action[c]`` maps fiber(c) into fiber(F c).  ``validate``
    checks monotonicity of every action and the lax naturality square
    action_c(f*(S)) <= (F f)*(action_d(S)) for every f: c -> d.
    """

    def __init__(self, poset: IndexedPoset, functor: Endofunctor, fiber_action):
        self.poset = poset
        self.functor = functor
        self.fiber_action = dict(fiber_action)

    def action(self, c):
        return self.fiber_action[c]

    def validate(self):
        self.functor.validate()
        poset, functor = self.poset, self.functor
        for c in poset.base.objects:
            act = self.action(c)
            src, tgt = poset.fiber(c), poset.fiber(functor.obj(c))
            tgt_elems = set(tgt.elements)
            for x in src:
                if act(x) not in tgt_elems:
                    raise ValueError(f"action at {c} leaves the fiber")
            for a in src:
                for b in src:
                    if src.le(a, b) and not tgt.le(act(a), act(b)):
                        raise ValueError(f"action at {c} is not monotone")
        for f in poset.base.morphisms.values():
            self._check_lax_naturality(f)
        return True

    def _check_lax_naturality(self, f: Morphism):
        poset, functor = self.poset, self.functor
        c, d = f.dom, f.cod
        pull_f = poset.reindex(f)
        pull_ff = poset.reindex(functor.map(f))
        fc_fiber = poset.fiber(functor.obj(c))
        for s in poset.fiber(d):
            left = self.action(c)(pull_f(s))
            right = pull_ff(self.action(d)(s))
            if not fc_fiber.le(left, right):
                raise ValueError(
                    f"lax naturality fails along {f.name} at {s!r}")


def lift_initial_algebra(lifted: LiftedFunctor, a, alpha: Morphism):
    """The fiber element over an invertible algebra alpha: F a -> a that
    makes it initial among lifted algebras: the least fixpoint of
    (alpha^-1)* . action_a on fiber(a)."""
    if (alpha.dom, alpha.cod) != (lifted.functor.obj(a), a):
        raise ValueError(f"{alpha!r} is not an algebra on {a}")
    pull = lifted.poset.reindex(lifted.poset.base.inverse(alpha))
    act = lifted.action(a)
    return lfp(lifted.poset.fiber(a), lambda s: pull(act(s)))


def lift_final_coalgebra(lifted: LiftedFunctor, d, delta: Morphism):
    """The fiber element over an invertible coalgebra delta: d -> F d that
    makes it final among lifted coalgebras: the greatest fixpoint of
    delta* . action_d on fiber(d)."""
    lifted.poset.base.inverse(delta)  # NotInvertible when absent
    if (delta.dom, delta.cod) != (d, lifted.functor.obj(d)):
        raise ValueError(f"{delta!r} is not a coalgebra on {d}")
    pull = lifted.poset.reindex(delta)
    act = lifted.action(d)
    return gfp(lifted.poset.fiber(d), lambda s: pull(act(s)))
