"""The relational model: symbolic carriers, relations, and functorial actions.

Fixpoint carriers are depth-truncated approximants of the colimit
chain; every result records whether the chain stabilized inside the
budget, so truncation is visible rather than silent.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import combinations_with_replacement
from math import comb

from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceeded, CarrierMismatch, IterationBudgetExceeded
from .formula import (Bot, Formula, Mu, Neg, Nu, OfCourse, One, Par, Plus,
                      Tensor, Top, WhyNot, With, Zero, fold)
from .lattice import iterate
from .record import Record


class Elem(Record):
    """Base class of carrier elements; immutable, totally ordered.

    Each constructor caches the element's hash, built from its
    children's cached hashes, so it costs O(1) however deeply the
    element nests.  The sort key is computed on first use, from the
    children's keys, and kept (see ``sort_key``): most elements are
    never ordered.  Equality stays structural; the carrier builders
    also share equal elements within an interpretation (``_Elements``),
    so there equality is mostly identity.  An element keeps the text
    ``str`` hands out for it, and ``render_elem`` keeps the texts of
    ``Pair`` and ``Bag`` components, so a shared part is rendered once.
    Pickling rebuilds an element through its constructor, so the caches
    are recomputed and no kept text travels.
    """

    # each constructor writes the fields, hash and text through the
    # slots' setters, past the frozen __setattr__; _key stays unset
    # until sort_key is first asked
    __slots__ = ("_key", "_hash", "_text", "__weakref__")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or (
            self._hash == other._hash and self._values() == other._values())

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return sort_key(self) < sort_key(other)

    def __str__(self):
        return _kept_text(self)


_set_key = Elem._key.__set__
_set_hash = Elem._hash.__set__
_set_text = Elem._text.__set__


class Unit(Elem):
    __slots__ = ()

    def __init__(self):
        _set_hash(self, hash((0,)))
        _set_text(self, None)


class _Wrapper(Elem):
    """An element holding one value under the constructor tag _TAG."""

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value):
        # the child's hash inlined: a __hash__ call per child would cost
        # about as much again
        h = value._hash if isinstance(value, Elem) else hash(value)
        _set_value(self, value)
        _set_hash(self, hash((self._TAG, h)))
        _set_text(self, None)


_set_value = _Wrapper.value.__set__


class InL(_Wrapper):
    __slots__ = ()
    _TAG = 1


class InR(_Wrapper):
    __slots__ = ()
    _TAG = 2


class Pair(Elem):
    __slots__ = __match_args__ = ("first", "second")

    def __init__(self, first, second):
        # the hashes inlined per component, as in _Wrapper
        h1 = first._hash if isinstance(first, Elem) else hash(first)
        h2 = second._hash if isinstance(second, Elem) else hash(second)
        _set_first(self, first)
        _set_second(self, second)
        _set_hash(self, hash((3, h1, h2)))
        _set_text(self, None)


_set_first = Pair.first.__set__
_set_second = Pair.second.__set__


class Bag(Elem):
    """Finite multiset, kept in canonical sorted order."""

    __slots__ = __match_args__ = ("items",)

    def __init__(self, items):
        items = tuple(sorted(items, key=sort_key))
        _set_items(self, items)
        # the items' hashes as in _Wrapper
        _set_hash(self, hash((4, *[x._hash if isinstance(x, Elem)
                                   else hash(x) for x in items])))
        _set_text(self, None)


_set_items = Bag.items.__set__


class Fold(_Wrapper):
    __slots__ = ()
    _TAG = 5


UNIT = Unit()


def sort_key(e):
    """Total-order key of a carrier member: a flat preorder code, each
    constructor's tag (a Bag's also its size) before its children's.

    No code is a prefix of another, so the codes order elements as the
    nested tuples (tag, child keys...) would, in one C loop at any depth.
    A key is built from the children's keys on first use, and kept.
    Plain labels (symbolic finite sets) order by repr before elements.
    """
    if not isinstance(e, Elem):
        return (-1, repr(e))
    key = getattr(e, "_key", None)
    if key is not None:
        return key
    # loops down chains of Fold, InR and InL to a kept key, as
    # fold_depth does, and recurses only at Pair and Bag
    x, tags = e, []
    while isinstance(x, _Wrapper) and not hasattr(x, "_key"):
        tags.append(x._TAG)
        x = x.value
    t = type(x)
    if x is not e:
        tail = sort_key(x)
    elif t is Pair:
        tail = (3, *sort_key(x.first), *sort_key(x.second))
    elif t is Bag:
        tail = (4, len(x.items), *[k for i in x.items for k in sort_key(i)])
    else:  # Unit
        tail = (0,)
    key = (*tags, *tail)
    _set_key(e, key)
    return key


def fold_depth(e) -> int:
    """Maximal nesting of Fold constructors inside e."""
    # loops down chains of Fold, InL and InR and recurses only at Pair
    # and Bag, so a deep fixpoint element takes no frame per constructor;
    # dispatch on the exact type, as render_elem does: class patterns in
    # a match statement cost several times more per level
    depth = 0
    while True:
        t = type(e)
        if t is Fold:
            depth += 1
            e = e.value
        elif t is InR or t is InL:
            e = e.value
        elif t is Pair:
            return depth + max(fold_depth(e.first), fold_depth(e.second))
        elif t is Bag:
            return depth + max(map(fold_depth, e.items), default=0)
        else:
            return depth


def render_elem(e) -> str:
    """The text of a carrier member, with the kept text of each part
    that has one; keeps the texts of Pair and Bag components."""
    # one frame per level, most frequent constructors first
    t = type(e)
    if t is Fold:
        return e._text or f"fold({render_elem(e.value)})"
    if t is InR:
        return e._text or f"inr({render_elem(e.value)})"
    if t is InL:
        return e._text or f"inl({render_elem(e.value)})"
    if t is Pair:
        return e._text or f"({_kept_text(e.first)},{_kept_text(e.second)})"
    if t is Unit:
        return "()"
    if t is Bag:
        return e._text or "[" + ",".join(map(_kept_text, e.items)) + "]"
    return str(e)


def _kept_text(e) -> str:
    """render_elem(e), kept on e when e is an element."""
    if isinstance(e, Elem):
        text = e._text
        if text is None:
            text = render_elem(e)
            _set_text(e, text)
        return text
    return str(e)


def bit_indices(mask: int) -> list:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Carrier:
    """A finite element set with stable duplicate-free enumeration.

    ``stabilized`` reports whether every fixpoint chain met inside the
    interpretation stabilized within its depth budget (True for
    fixpoint-free carriers).
    """

    __slots__ = ("elems", "stabilized", "_index")

    def __init__(self, elems, stabilized=True):
        # dict.fromkeys drops duplicates but keeps the input order, so
        # already-ordered runs survive into sorted, where a set would
        # shuffle them
        self.elems = tuple(sorted(dict.fromkeys(elems), key=sort_key))
        self.stabilized = stabilized
        self._index = None

    @classmethod
    def _ordered(cls, elems: tuple, stabilized=True) -> "Carrier":
        """Carrier of distinct elements already in ``sort_key`` order.

        The builders of this module produce their elements in that order
        by construction, so they skip the sort and the duplicate check.
        """
        carrier = object.__new__(cls)
        carrier.elems = elems
        carrier.stabilized = stabilized
        carrier._index = None
        return carrier

    def index(self, e: Elem) -> int:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elems)}
        return self._index[e]

    def mask_of(self, subset) -> int:
        m = 0
        for e in subset:
            m |= 1 << self.index(e)
        return m

    def set_of(self, mask: int) -> frozenset:
        elems = self.elems
        return frozenset([elems[i] for i in bit_indices(mask)])

    def __contains__(self, e):
        return e in self.as_set()

    def as_set(self) -> frozenset:
        return frozenset(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __len__(self):
        return len(self.elems)

    def __eq__(self, other):
        return isinstance(other, Carrier) and self.elems == other.elems

    def __hash__(self):
        return hash(self.elems)

    def __reduce__(self):
        # the element index is rebuilt on first use, so it is not pickled
        return Carrier._ordered, (self.elems, self.stabilized)

    def __repr__(self):
        inner = ", ".join(render_elem(e) for e in self.elems)
        return f"Carrier{{{inner}}}"


EMPTY_CARRIER = Carrier._ordered(())
UNIT_CARRIER = Carrier._ordered((UNIT,))


class Relation(Record):
    """A finite relation between two carriers."""

    __slots__ = __match_args__ = ("src", "tgt", "pairs")

    def __init__(self, src: Carrier, tgt: Carrier, pairs: frozenset):
        in_src, in_tgt = src.as_set(), tgt.as_set()
        for a, b in pairs:
            if a not in in_src or b not in in_tgt:
                raise CarrierMismatch(f"pair ({a}, {b}) outside the carriers")
        super().__init__(src, tgt, pairs)

    @classmethod
    def _trusted(cls, src: Carrier, tgt: Carrier, pairs: frozenset
                 ) -> "Relation":
        """Relation whose pairs are known to lie in src x tgt.

        For results built from validated relations or matrices;
        everything else goes through the checking constructor.
        """
        rel = object.__new__(cls)
        object.__setattr__(rel, "src", src)
        object.__setattr__(rel, "tgt", tgt)
        object.__setattr__(rel, "pairs", pairs)
        return rel

    def image(self, subset) -> frozenset:
        subset = set(subset)
        return frozenset(b for a, b in self.pairs if a in subset)

    def preimage(self, subset) -> frozenset:
        subset = set(subset)
        return frozenset(a for a, b in self.pairs if b in subset)


# ---------------------------------------------------------------------------
# hash-consing: each distinct element is built once per interpretation

class _Elements:
    """The elements built in one interpretation, by constructor and
    children.

    The carrier builders take their elements from here, so a repeated
    element costs one dict lookup and equal elements are one object.
    Unary constructors are keyed by their child, ``Pair`` by its first
    and then its second component (a dict per first component) and
    ``Bag`` by its sorted items.
    """

    __slots__ = ("inl", "inr", "pair", "bag", "fold")

    def __init__(self):
        self.inl, self.inr, self.pair, self.bag, self.fold = {}, {}, {}, {}, {}


# the table of the interpretation running in this context; threads
# start with an empty context, so they never share one
_ELEMENTS = ContextVar("mullsem_elements", default=None)


def _elements() -> _Elements:
    """The running interpretation's table, or one for a single builder
    call made outside an interpretation."""
    return _ELEMENTS.get() or _Elements()


@contextmanager
def _interning():
    """A fresh table for the outermost interpretation; nested ones share
    it, and it is dropped when the outermost one returns."""
    if _ELEMENTS.get() is not None:
        yield
        return
    token = _ELEMENTS.set(_Elements())
    try:
        yield
    finally:
        _ELEMENTS.reset(token)


def _bags(base, max_size: int) -> tuple:
    # over a base in sort_key order, combinations_with_replacement yields
    # each size's bags in key order, and sizes are emitted in key order
    made = _elements().bag
    return tuple([made.get(combo) or made.setdefault(combo, Bag(combo))
                  for n in range(max_size + 1)
                  for combo in combinations_with_replacement(base, n)])


# ---------------------------------------------------------------------------
# object interpretation

def interpret_carrier(f: Formula, env=None, budgets: Budgets = DEFAULT_BUDGETS,
                      ) -> Carrier:
    """Interpret a formula as a carrier; negation is the identity on objects.

    Fixpoints produce the union of the Kleene chain wrapped in Fold,
    truncated at ``budgets.depth``; ! and ? produce bags of size at most
    ``budgets.bag``.  The ``stabilized`` flags of the carriers in
    ``env`` are not read: the result reports the chains of f alone.
    """
    env = {name: Carrier._ordered(c.elems) for name, c in (env or {}).items()}
    with _interning():
        return fold(f, env, CARRIERS, budgets)


def _guard(size, budgets):
    """Raise before a carrier of the predicted size is built."""
    if size > budgets.carrier_cap:
        raise BudgetExceeded(
            f"carrier of size {size} exceeds cap {budgets.carrier_cap}")


def _product(budgets, a, b):
    _guard(len(a) * len(b), budgets)
    return pair_carrier(a, b)


def _sum(budgets, a, b):
    _guard(len(a) + len(b), budgets)
    return sum_carrier(a, b)


def _bag(budgets, c):
    # multisets of size at most k over n elements: C(n + k, k)
    _guard(comb(len(c) + budgets.bag, budgets.bag), budgets)
    return bag_carrier(c, budgets.bag)


def _chain(step, start, budgets, same=operator.eq):
    """Last iterate of the chain cut at the depth budget; if it stabilized."""
    try:
        return iterate(step, start, budgets.depth, same), True
    except IterationBudgetExceeded as exc:
        return exc.last, False


def _fixpoint_chain(budgets, node, env):
    """The Kleene chain of the body from the empty carrier, cut at the
    depth budget, with each layer wrapped in Fold.

    Returns its last iterate C_k and the iterate that C_k is the fold
    of: C_{k-1}, or C_k itself when the chain stabilized.  Fold maps the
    body's carrier at that iterate onto C_k in order.  At depth 0 no
    step runs, and the second carrier is the empty C_0, which folds
    nothing.
    """
    inner_stable = True
    folded = EMPTY_CARRIER

    def step(cur):
        nonlocal inner_stable, folded
        folded = cur
        layer = fold(node.body, {**env, node.var: cur}, CARRIERS, budgets)
        inner_stable = inner_stable and layer.stabilized
        _guard(len(layer), budgets)
        return _folded(layer)

    # every connective is monotone in x, so the chain only grows and an
    # iterate with no new element equals its predecessor
    cur, stabilized = _chain(step, EMPTY_CARRIER, budgets,
                             lambda nxt, cur: len(nxt) == len(cur))
    return Carrier._ordered(cur.elems, stabilized and inner_stable), folded


# The carrier of each constructor (the fold reads a -o b as ~a | b).
# ctx is the Budgets; every size is guarded before its carrier is built.
CARRIERS = {
    One: lambda budgets: UNIT_CARRIER,
    Bot: lambda budgets: UNIT_CARRIER,
    Zero: lambda budgets: EMPTY_CARRIER,
    Top: lambda budgets: EMPTY_CARRIER,
    # negation is the identity on objects
    Neg: lambda budgets, node, env: fold(node.body, env, CARRIERS, budgets),
    Tensor: _product,
    Par: _product,
    Plus: _sum,
    With: _sum,
    OfCourse: _bag,
    WhyNot: _bag,
    Mu: lambda budgets, node, env: _fixpoint_chain(budgets, node, env)[0],
    Nu: lambda budgets, node, env: _fixpoint_chain(budgets, node, env)[0],
}


def pair_carrier(a: Carrier, b: Carrier) -> Carrier:
    """The product carrier, in canonical order.

    ``Pair(a[i], b[j])`` has index ``i * len(b) + j``.
    """
    made = _elements().pair
    pairs = []
    for x in a.elems:
        row = made.get(x)
        if row is None:
            row = made[x] = {}
        pairs += [row.get(y) or row.setdefault(y, Pair(x, y))
                  for y in b.elems]
    return Carrier._ordered(tuple(pairs), a.stabilized and b.stabilized)


def sum_carrier(a: Carrier, b: Carrier) -> Carrier:
    """The disjoint-sum carrier, in canonical order.

    ``InL(a[i])`` has index ``i`` and ``InR(b[j])`` index ``len(a) + j``.
    """
    made = _elements()
    inl, inr = made.inl, made.inr
    return Carrier._ordered(
        tuple([inl.get(x) or inl.setdefault(x, InL(x)) for x in a.elems]
              + [inr.get(y) or inr.setdefault(y, InR(y)) for y in b.elems]),
        a.stabilized and b.stabilized)


def bag_carrier(c: Carrier, max_size: int) -> Carrier:
    """Multisets of size <= max_size over c, in canonical order.

    Bags come by size, then in ``combinations_with_replacement`` order
    of their members' indices in c.
    """
    return Carrier._ordered(_bags(c.elems, max_size), c.stabilized)


def _folded(c: Carrier) -> Carrier:
    # Fold keeps its argument's order
    made = _elements().fold
    return Carrier._ordered(
        tuple([made.get(e) or made.setdefault(e, Fold(e)) for e in c.elems]),
        c.stabilized)
