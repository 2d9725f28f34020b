"""Type expressions of linear logic with least/greatest fixpoints.

Grammar (ASCII):

    atoms       1  0  top  bot
    variables   identifiers (letters, digits, _, ', unicode word chars)
    prefix      !F  ?F  ~F            (bind tighter than any infix)
    infix       F * F   F | F         (tensor / par)
                F + F   F & F         (plus / with, looser)
                F -o F                (lolli, loosest infix, right assoc)
    binders     mu x. F   nu x. F     (body extends maximally right)

Same-level infix operators associate to the left and may be mixed, so
``a * b | c`` reads ``(a * b) | c``.
"""

from __future__ import annotations

from enum import Enum

from .errors import ParseError, UnboundVariable, VarianceError
from .record import Record


class Sort(Enum):
    POS = "+"
    NEG = "-"

    def dual(self) -> "Sort":
        return Sort.NEG if self is Sort.POS else Sort.POS

    def __str__(self):
        return self.value


POS = Sort.POS
NEG = Sort.NEG


class Formula(Record):
    """Base class of the formula tree; instances are immutable."""

    __slots__ = ()

    def __str__(self):
        return to_text(self)


class One(Formula):
    __slots__ = ()


class Zero(Formula):
    __slots__ = ()


class Top(Formula):
    __slots__ = ()


class Bot(Formula):
    __slots__ = ()


class Var(Formula):
    __slots__ = __match_args__ = ("name",)


class Neg(Formula):
    __slots__ = __match_args__ = ("body",)


class OfCourse(Formula):
    __slots__ = __match_args__ = ("body",)


class WhyNot(Formula):
    __slots__ = __match_args__ = ("body",)


class Tensor(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Par(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Plus(Formula):
    __slots__ = __match_args__ = ("left", "right")


class With(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Lolli(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Mu(Formula):
    __slots__ = __match_args__ = ("var", "body")


class Nu(Formula):
    __slots__ = __match_args__ = ("var", "body")


ONE = One()
ZERO = Zero()
TOP = Top()
BOT = Bot()

_BINARY = {Tensor: "*", Par: "|", Plus: "+", With: "&", Lolli: "-o"}
_UNARY = {OfCourse: "!", WhyNot: "?", Neg: "~"}
_PREFIX = {op: ctor for ctor, op in _UNARY.items()}
_BINDERS = (Mu, Nu)


class Context:
    """Ordered variable context with pairwise-distinct names."""

    __slots__ = ("items",)

    def __init__(self, items=()):
        items = tuple(items)
        names = [n for n, _ in items]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate names in context: {names}")
        for _, s in items:
            if not isinstance(s, Sort):
                raise TypeError("context entries must be (name, Sort)")
        object.__setattr__(self, "items", items)

    def lookup(self, name):
        for n, s in self.items:
            if n == name:
                return s
        return None

    def extend(self, name, sort):
        kept = tuple((n, s) for n, s in self.items if n != name)
        return Context(kept + ((name, sort),))

    def __iter__(self):
        return iter(self.items)

    def __repr__(self):
        inner = ", ".join(f"{n}:{s}" for n, s in self.items)
        return f"Context({inner})"


EMPTY_CONTEXT = Context()


# ---------------------------------------------------------------------------
# parsing

_KEYWORDS = {"mu", "nu", "top", "bot"}


def _is_ident_start(ch):
    return ch == "_" or ch.isalpha()


def _is_ident_char(ch):
    return ch == "_" or ch == "'" or ch.isalnum()


class _Token:
    __slots__ = ("kind", "text", "line", "column", "offset")

    def __init__(self, kind, text, line, column, offset):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self.offset = offset


def _tokenize(text):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        two = text[i:i + 2]
        if two == "-o":
            tokens.append(_Token("-o", two, line, col, i))
            i += 2
            col += 2
            continue
        if ch in "!?~*|+&().01":
            tokens.append(_Token(ch, ch, line, col, i))
            i += 1
            col += 1
            continue
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, line, col, i))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col, i)
    tokens.append(_Token("eof", "", line, col, n))
    return tokens


# Deepest formula nesting the parser accepts.  Every recursive pass over
# formulas (check_variance, nnf, to_text, the interpreters) spends at most
# a few stack frames per level, and the parser six per parenthesis, so
# this keeps them all inside Python's default recursion limit of 1000.
MAX_NESTING = 100


class _Parser:
    """Recursive-descent parser with a nesting limit.

    ``open`` counts the prefix operators, parentheses, binders and lolli
    operands the parser is inside of, which bounds its own recursion;
    ``height`` maps each built node (by id) to its tree height, which
    bounds the recursion of later passes, since left-associative chains
    such as ``1 * 1 * ...`` grow the tree without parser recursion.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.open = 0
        self.height = {}

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            self.fail({kind})
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        what = "end of input" if tok.kind == "eof" else repr(tok.text)
        raise ParseError(f"unexpected {what}", tok.line, tok.column, tok.offset,
                         expected=expected)

    def too_deep(self, tok):
        raise ParseError(f"formula nested deeper than {MAX_NESTING} levels",
                         tok.line, tok.column, tok.offset)

    def nested(self, tok, parse):
        """parse(), counted as one more open level at tok."""
        self.open += 1
        if self.open > MAX_NESTING:
            self.too_deep(tok)
        node = parse()
        self.open -= 1
        return node

    def node(self, tok, ctor, *parts):
        """ctor(*parts), failing at tok if the tree grows too high."""
        height = 1 + max(self.height.get(id(p), 0) for p in parts)
        if height > MAX_NESTING:
            self.too_deep(tok)
        node = ctor(*parts)
        self.height[id(node)] = height
        return node

    def formula(self):
        return self.lolli()

    def lolli(self):
        left = self.additive()
        tok = self.peek()
        if tok.kind == "-o":
            self.take("-o")
            return self.node(tok, Lolli, left, self.nested(tok, self.lolli))
        return left

    def additive(self):
        node = self.multiplicative()
        while self.peek().kind in ("+", "&"):
            op = self.take(self.peek().kind)
            rhs = self.multiplicative()
            node = self.node(op, Plus if op.kind == "+" else With, node, rhs)
        return node

    def multiplicative(self):
        node = self.unary()
        while self.peek().kind in ("*", "|"):
            op = self.take(self.peek().kind)
            rhs = self.unary()
            node = self.node(op, Tensor if op.kind == "*" else Par, node, rhs)
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind in _PREFIX:
            self.take(tok.kind)
            return self.node(tok, _PREFIX[tok.kind],
                             self.nested(tok, self.unary))
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind == "1":
            self.take("1")
            return ONE
        if tok.kind == "0":
            self.take("0")
            return ZERO
        if tok.kind == "top":
            self.take("top")
            return TOP
        if tok.kind == "bot":
            self.take("bot")
            return BOT
        if tok.kind == "ident":
            self.take("ident")
            return Var(tok.text)
        if tok.kind == "(":
            self.take("(")
            inner = self.nested(tok, self.formula)
            self.take(")")
            return inner
        if tok.kind in ("mu", "nu"):
            self.take(tok.kind)
            name = self.take("ident").text
            self.take(".")
            body = self.nested(tok, self.formula)  # extends maximally right
            return self.node(tok, Mu if tok.kind == "mu" else Nu, name, body)
        self.fail({"a formula"})


def parse(text: str) -> Formula:
    """Parse a formula, or raise ParseError with position and expectations."""
    parser = _Parser(_tokenize(text))
    node = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail({"end of input"})
    return node


# ---------------------------------------------------------------------------
# printing

_LOLLI, _ADD, _MUL, _UNARY_LVL = 0, 1, 2, 3
_LEVEL = {Tensor: _MUL, Par: _MUL, Plus: _ADD, With: _ADD, Lolli: _LOLLI}
_ATOMS = {One: "1", Zero: "0", Top: "top", Bot: "bot"}


def to_text(f: Formula) -> str:
    """Render with minimal parentheses; parse(to_text(f)) is alpha-equal to f."""
    return _print(f, _LOLLI, True)


def _print(f, level, right_edge):
    t = type(f)
    if t is Var:
        return f.name
    if t in _ATOMS:
        return _ATOMS[t]
    if t in _UNARY:
        return _UNARY[t] + _print(f.body, _UNARY_LVL, right_edge)
    if t in _BINDERS:
        kw = "mu" if t is Mu else "nu"
        s = f"{kw} {f.var}. " + _print(f.body, _LOLLI, True)
        return s if right_edge else f"({s})"
    if t not in _BINARY:
        raise TypeError(f"not a formula: {f!r}")
    # * | + & associate to the left and -o to the right
    own = _LEVEL[t]
    left, right = (own + 1, own) if t is Lolli else (own, own + 1)
    s = (_print(f.left, left, False) + f" {_BINARY[t]} "
         + _print(f.right, right, right_edge))
    return s if level <= own else f"({s})"


# ---------------------------------------------------------------------------
# the walk over subformulas, and the fold the models evaluate through

# the constructors whose fold entries walk their body themselves, under
# the environment they need
_SCOPED = (Neg, Mu, Nu)


def operands(f: Formula) -> tuple:
    """The immediate subformulas of f, left to right."""
    t = type(f)
    if t in _BINARY:
        return (f.left, f.right)
    if t in _UNARY or t in _BINDERS:
        return (f.body,)
    if t in _ATOMS or t is Var:
        return ()
    raise TypeError(f"not a formula: {f!r}")


def fold(f: Formula, env, table, ctx):
    """The value of f in the model given by a connective table.

    The rel, totality and phase models evaluate formulas through this
    one fold.  A model is a table from constructor classes to entries,
    and ``ctx`` is what its entries share (the budgets, a phase space).

    - A ``Var`` is looked up in ``env``; UnboundVariable if absent.
    - The ``Neg``, ``Mu`` and ``Nu`` entries get ``(ctx, node, env)``
      and fold the body themselves, under the environment they need.
    - Every other entry gets ``ctx`` and the values of the operands,
      left to right.
    - A table without a ``Lolli`` entry reads ``a -o b`` as ``~a | b``.
    """
    t = type(f)
    if t is Var:
        if f.name not in env:
            raise UnboundVariable(f.name)
        return env[f.name]
    entry = table.get(t)
    if entry is None:
        if t is Lolli:
            return fold(Par(Neg(f.left), f.right), env, table, ctx)
        raise TypeError(f"not a formula: {f!r}")
    # the operands() walk, unrolled: this is the models' inner loop
    if t in _BINARY:
        return entry(ctx, fold(f.left, env, table, ctx),
                     fold(f.right, env, table, ctx))
    if t in _SCOPED:
        return entry(ctx, f, env)
    if t in _UNARY:
        return entry(ctx, fold(f.body, env, table, ctx))
    return entry(ctx)


# ---------------------------------------------------------------------------
# free variables, substitution, alpha-equivalence

def free_vars(f: Formula) -> frozenset[str]:
    if type(f) is Var:
        return frozenset((f.name,))
    free = frozenset().union(*map(free_vars, operands(f)))
    return free - {f.var} if type(f) in _BINDERS else free


def fresh_name(base: str, avoid) -> str:
    """Smallest primed variant of base not in avoid."""
    candidate = base
    while candidate in avoid:
        candidate += "'"
    return candidate


def substitute(f: Formula, x: str, g: Formula) -> Formula:
    """Capture-avoiding substitution of g for free occurrences of x in f."""
    t = type(f)
    if t is Var:
        return g if f.name == x else f
    if t in _BINDERS:
        y, b = f.var, f.body
        if y == x or x not in free_vars(b):
            return f
        if y in free_vars(g):
            y2 = fresh_name(y, free_vars(b) | free_vars(g) | {x})
            b = substitute(b, y, Var(y2))
            y = y2
        return t(y, substitute(b, x, g))
    parts = operands(f)
    return t(*[substitute(p, x, g) for p in parts]) if parts else f


def alpha_eq(f: Formula, g: Formula) -> bool:
    """Structural equality up to renaming of bound variables."""
    return _alpha(f, g, {}, {}, [0])


def _alpha(f, g, envf, envg, counter):
    t = type(f)
    if t is not type(g):
        return False
    if t is Var:
        return (envf.get(f.name, ("free", f.name))
                == envg.get(g.name, ("free", g.name)))
    if t in _BINDERS:
        tag = ("bound", counter[0])
        counter[0] += 1
        envf, envg = {**envf, f.var: tag}, {**envg, g.var: tag}
    return all(_alpha(a, b, envf, envg, counter)
               for a, b in zip(operands(f), operands(g)))


# ---------------------------------------------------------------------------
# variance checking

def _show_sorts(sorts):
    return "/".join(sorted(s.value for s in sorts))


def _sorts(f, env):
    """Set of sorts derivable for f under env (name -> Sort, or None).

    One pass: every rule equates the sort of a subformula with the sort
    of another or with its dual, so a parity union-find over one
    unknown per constant and binder solves them all.  A handle (u, p)
    is the sort of unknown u, dualized when p is 1.  Unknown 0 is the
    sort +; an unknown not joined to it is free, derivable at both.  A
    name bound to None is a constant: each occurrence is a new unknown.
    """
    parent, parity = [0], [0]  # an unknown's sort is its parent's ^ parity

    def new():
        parent.append(len(parent))
        parity.append(0)
        return (len(parent) - 1, 0)

    def find(h):
        u, p = h
        while parent[u] != u:  # path halving: u skips its parent
            v = parent[u]
            parent[u], parity[u] = parent[v], parity[u] ^ parity[v]
            p ^= parity[u]
            u = parent[u]
        return u, p

    def sorts(h):
        root, p = find(h)
        return {POS, NEG} if root else {NEG if p else POS}

    def equate(a, b):
        """Give a and b one sort; False if they always differ."""
        (ra, pa), (rb, pb) = find(a), find(b)
        if ra == rb:
            return pa == pb
        if not ra:  # unknown 0 stays a root
            ra, rb = rb, ra
        parent[ra], parity[ra] = rb, pa ^ pb
        return True

    def fail(g, detail, binder):
        # a conflict inside binders fails the body under both sorts of
        # every binder around it; the error names the outermost one
        if binder is None:
            raise VarianceError(g, detail)
        raise VarianceError(binder, f"under {binder.var}:+ and {binder.var}:- "
                                    f"the body fails ({detail} in '{g}')")

    def walk(g, scope, binder):
        """Handle of g's sort; binder is the outermost binder around g."""
        t = type(g)
        if t is Var:
            if g.name not in scope:
                raise UnboundVariable(g.name)
            return scope[g.name] or new()
        if t in _BINDERS:
            x = new()
            body = walk(g.body, {**scope, g.var: x}, binder or g)
            if not equate(x, body):  # the body has the dual sort of x
                forced = sorts(x)
                if len(forced) == 2:
                    detail = (f"body has sort - under {g.var}:+; "
                              f"body has sort + under {g.var}:-")
                else:  # the free variables fix the sort of x
                    (v,) = forced
                    detail = (f"body has sort {v.dual()} under {g.var}:{v}; "
                              f"under {g.var}:{v.dual()} the body fails")
                fail(g, detail, binder)
            return x
        parts = [walk(p, scope, binder) for p in operands(g)]
        if not parts:
            # constants denote constant functors, covariant and
            # contravariant alike; this also makes negation normal form
            # sort-preserving (~1 has sort -, and its normal form bot
            # must be derivable there)
            return new()
        if t is Neg:
            return (parts[0][0], parts[0][1] ^ 1)
        if len(parts) == 1:
            return parts[0]
        a, b = parts
        if equate((a[0], a[1] ^ 1) if t is Lolli else a, b):
            return b
        sa, sb = sorts(a), sorts(b)
        fixed = len(sa) == 1  # a and b share a root: both or neither are
        if t is Lolli:
            detail = (f"left operand derives {_show_sorts(sa)} (needs the "
                      f"dual sort) vs right {_show_sorts(sb)}" if fixed else
                      "left operand derives the sort of the right (needs "
                      "the dual sort)")
        else:
            detail = (f"operands derive {_show_sorts(sa)} vs {_show_sorts(sb)}"
                      if fixed else "operands derive dual sorts")
        fail(g, detail, binder)

    scope = {name: s and (0, int(s is NEG)) for name, s in env.items()}
    return sorts(walk(f, scope, None))


def check_variance(ctx: Context, f: Formula) -> Sort:
    """Sort of f in ctx per the variance rules.

    Constants are derivable at both sorts (constant functors are
    bivariant), binary connectives require equal sorts on both
    operands, negation dualizes, lolli dualizes its left operand, and a
    fixpoint binder requires the body to have the sort assumed for its
    variable.  Formulas derivable at both sorts (constants,
    ``mu x. x``) report the positive one.  A name mapped to None in ctx
    is a constant: each of its occurrences is derivable at both sorts.
    """
    env = dict(ctx.items) if isinstance(ctx, Context) else dict(ctx)
    derivable = _sorts(f, env)
    return POS if POS in derivable else NEG


# ---------------------------------------------------------------------------
# negation normal form

# the De Morgan dual of each constructor that negation passes through
_DUAL = {One: Bot, Bot: One, Zero: Top, Top: Zero, OfCourse: WhyNot,
         WhyNot: OfCourse, Tensor: Par, Par: Tensor, Plus: With, With: Plus,
         Mu: Nu, Nu: Mu}


def nnf(f: Formula) -> Formula:
    """Push negation to the variables via the De Morgan dualities.

    The result contains Neg only directly on variables and denotes the
    same fact in every finite phase space.
    """
    t = type(f)
    if t is Neg:
        return _nnf_neg(f.body)
    if t in _BINDERS:
        return t(f.var, nnf(f.body))
    parts = operands(f)
    return t(*map(nnf, parts)) if parts else f


def _nnf_neg(f):
    """Negation normal form of Neg(f)."""
    t = type(f)
    if t is Var:
        return Neg(f)
    if t is Neg:
        return nnf(f.body)
    if t is Lolli:
        return Tensor(nnf(f.left), _nnf_neg(f.right))
    if t in _BINDERS:
        # (mu x. b)^~ = nu x. (b[~x/x])^~; the substitution keeps the
        # bound variable on the dual side so double negations cancel.
        return _DUAL[t](f.var, _nnf_neg(substitute(f.body, f.var,
                                                   Neg(Var(f.var)))))
    parts = [_nnf_neg(p) for p in operands(f)]
    return _DUAL[t](*parts)
