"""Indexed posets over finitely presented categories and fixpoint lifting.

A lifted endofunctor pairs a base endofunctor with a monotone action on
the fibers; least pre-fixpoints of the induced operators interpret
initial-algebra liftings, greatest post-fixpoints interpret
final-coalgebra liftings.  Everything here is finite and exhaustively
checkable; the concrete models use specialized representations and only
meet this module through the same contracts.
"""

from __future__ import annotations

from .errors import LatticeError, NotInvertible, NotSupported
from .lattice import FiniteLattice, MonotoneOp, gfp, lfp
from .record import Record


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
    """Contravariant assignment of finite lattices to objects.

    ``reindex(f)`` maps fiber(f.cod) to fiber(f.dom) and must be
    functorial and monotone; subclasses may declare existential
    quantification (a left adjoint to every reindexing).
    """

    supports_exists = False

    def __init__(self, base: FinCategory):
        self.base = base

    def fiber(self, c) -> FiniteLattice:
        raise NotImplementedError

    def reindex(self, f: Morphism):
        raise NotImplementedError

    def exists_along(self, f: Morphism, x):
        """Left adjoint to reindex(f): the least y with x <= f*(y)."""
        if not self.supports_exists:
            raise NotSupported(
                "this indexed poset does not declare existential quantification")
        src, tgt = self.fiber(f.dom), self.fiber(f.cod)
        pull = self.reindex(f)
        candidates = [y for y in tgt if src.le(x, pull(y))]
        for y in candidates:
            if all(tgt.le(y, z) for z in candidates):
                return y
        raise LatticeError(f"no least element above {x!r} along {f!r}")

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


class TabularIndexedPoset(IndexedPoset):
    """Indexed poset with explicit fiber lattices and reindexing tables."""

    def __init__(self, base, fibers, reindex_maps, supports_exists=False,
                 exists_maps=None):
        super().__init__(base)
        self._fibers = dict(fibers)
        self._reindex = {name: dict(table) for name, table in reindex_maps.items()}
        self.supports_exists = supports_exists
        self._exists = exists_maps or {}

    def fiber(self, c):
        return self._fibers[c]

    def reindex(self, f: Morphism):
        if self.base.is_identity(f):
            return lambda y: y
        table = self._reindex[f.name]
        return lambda y: table[y]

    def exists_along(self, f, x):
        if f.name in self._exists:
            return self._exists[f.name][x]
        return super().exists_along(f, x)


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


def initial_algebra_operator(lifted: LiftedFunctor, a, alpha: Morphism) -> MonotoneOp:
    """The operator (alpha^-1)* . action_a on fiber(a)."""
    functor = lifted.functor
    if (alpha.dom, alpha.cod) != (functor.obj(a), a):
        raise ValueError(f"{alpha!r} is not an algebra on {a}")
    alpha_inv = lifted.poset.base.inverse(alpha)
    pull = lifted.poset.reindex(alpha_inv)
    act = lifted.action(a)
    return MonotoneOp(lifted.poset.fiber(a), lambda s: pull(act(s)),
                      name=f"initial-algebra operator at {a}")


def final_coalgebra_operator(lifted: LiftedFunctor, d, delta: Morphism) -> MonotoneOp:
    """The operator delta* . action_d on fiber(d)."""
    functor = lifted.functor
    if (delta.dom, delta.cod) != (d, functor.obj(d)):
        raise ValueError(f"{delta!r} is not a coalgebra on {d}")
    pull = lifted.poset.reindex(delta)
    act = lifted.action(d)
    return MonotoneOp(lifted.poset.fiber(d), lambda s: pull(act(s)),
                      name=f"final-coalgebra operator at {d}")


def lift_initial_algebra(lifted: LiftedFunctor, a, alpha: Morphism):
    """Least pre-fixpoint over an invertible algebra alpha: F a -> a.

    Returns (a, r) where r is the least fixpoint of (alpha^-1)* . action_a;
    the pair with structure map alpha is initial among lifted algebras.
    """
    return a, lfp(initial_algebra_operator(lifted, a, alpha))


def lift_final_coalgebra(lifted: LiftedFunctor, d, delta: Morphism):
    """Greatest post-fixpoint over an invertible coalgebra delta: d -> F d."""
    lifted.poset.base.inverse(delta)  # NotInvertible when absent
    return d, gfp(final_coalgebra_operator(lifted, d, delta))


def check_lifted_morphism(poset: IndexedPoset, f: Morphism, r, s) -> bool:
    """True iff f carries the fiber element r into s, i.e. r <= f*(s)."""
    return poset.fiber(f.dom).le(r, poset.reindex(f)(s))


def exists_along(poset: IndexedPoset, f: Morphism, x):
    """Existential quantification along f (left adjoint to reindexing)."""
    return poset.exists_along(f, x)
