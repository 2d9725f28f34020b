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

from dataclasses import dataclass
from enum import Enum

from .errors import ParseError, UnboundVariable, VarianceError


class Sort(Enum):
    POS = "+"
    NEG = "-"

    def dual(self) -> "Sort":
        return Sort.NEG if self is Sort.POS else Sort.POS

    def __str__(self):
        return self.value


POS = Sort.POS
NEG = Sort.NEG


class Formula:
    """Base class of the formula tree; instances are immutable."""

    __slots__ = ()

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True, slots=True)
class One(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Zero(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bot(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class OfCourse(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class WhyNot(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class Tensor(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Par(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Plus(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class With(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Lolli(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Mu(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, slots=True)
class Nu(Formula):
    var: str
    body: Formula


ONE = One()
ZERO = Zero()
TOP = Top()
BOT = Bot()

_BINARY = {Tensor: "*", Par: "|", Plus: "+", With: "&", Lolli: "-o"}
_UNARY = {OfCourse: "!", WhyNot: "?", Neg: "~"}
_PREFIX = {op: ctor for ctor, op in _UNARY.items()}


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
_SYMBOLS = ("-o", "!", "?", "~", "*", "|", "+", "&", "(", ")", ".")


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

_LOLLI, _ADD, _MUL, _UNARY_LVL, _ATOM = 0, 1, 2, 3, 4


def to_text(f: Formula) -> str:
    """Render with minimal parentheses; parse(to_text(f)) is alpha-equal to f."""
    return _print(f, _LOLLI, True)


def _print(f, level, right_edge):
    match f:
        case One():
            return "1"
        case Zero():
            return "0"
        case Top():
            return "top"
        case Bot():
            return "bot"
        case Var(name):
            return name
        case Neg(b) | OfCourse(b) | WhyNot(b):
            return _UNARY[type(f)] + _print(b, _UNARY_LVL, right_edge)
        case Tensor(a, b) | Par(a, b):
            s = (_print(a, _MUL, False) + f" {_BINARY[type(f)]} "
                 + _print(b, _MUL + 1, right_edge))
            return s if level <= _MUL else f"({s})"
        case Plus(a, b) | With(a, b):
            s = (_print(a, _ADD, False) + f" {_BINARY[type(f)]} "
                 + _print(b, _ADD + 1, right_edge))
            return s if level <= _ADD else f"({s})"
        case Lolli(a, b):
            s = _print(a, _ADD, False) + " -o " + _print(b, _LOLLI, right_edge)
            return s if level <= _LOLLI else f"({s})"
        case Mu(x, b) | Nu(x, b):
            kw = "mu" if isinstance(f, Mu) else "nu"
            s = f"{kw} {x}. " + _print(b, _LOLLI, True)
            return s if right_edge else f"({s})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# free variables, substitution, alpha-equivalence

def free_vars(f: Formula) -> frozenset[str]:
    match f:
        case Var(name):
            return frozenset((name,))
        case One() | Zero() | Top() | Bot():
            return frozenset()
        case Neg(b) | OfCourse(b) | WhyNot(b):
            return free_vars(b)
        case Tensor(a, b) | Par(a, b) | Plus(a, b) | With(a, b) | Lolli(a, b):
            return free_vars(a) | free_vars(b)
        case Mu(x, b) | Nu(x, b):
            return free_vars(b) - {x}
    raise TypeError(f"not a formula: {f!r}")


def fresh_name(base: str, avoid) -> str:
    """Smallest primed variant of base not in avoid."""
    candidate = base
    while candidate in avoid:
        candidate += "'"
    return candidate


def substitute(f: Formula, x: str, g: Formula) -> Formula:
    """Capture-avoiding substitution of g for free occurrences of x in f."""
    match f:
        case Var(name):
            return g if name == x else f
        case One() | Zero() | Top() | Bot():
            return f
        case Neg(b):
            return Neg(substitute(b, x, g))
        case OfCourse(b):
            return OfCourse(substitute(b, x, g))
        case WhyNot(b):
            return WhyNot(substitute(b, x, g))
        case Tensor(a, b):
            return Tensor(substitute(a, x, g), substitute(b, x, g))
        case Par(a, b):
            return Par(substitute(a, x, g), substitute(b, x, g))
        case Plus(a, b):
            return Plus(substitute(a, x, g), substitute(b, x, g))
        case With(a, b):
            return With(substitute(a, x, g), substitute(b, x, g))
        case Lolli(a, b):
            return Lolli(substitute(a, x, g), substitute(b, x, g))
        case Mu(y, b) | Nu(y, b):
            ctor = type(f)
            if y == x or x not in free_vars(b):
                return f
            if y in free_vars(g):
                y2 = fresh_name(y, free_vars(b) | free_vars(g) | {x})
                b = substitute(b, y, Var(y2))
                y = y2
            return ctor(y, substitute(b, x, g))
    raise TypeError(f"not a formula: {f!r}")


def alpha_eq(f: Formula, g: Formula) -> bool:
    """Structural equality up to renaming of bound variables."""
    return _alpha(f, g, {}, {}, [0])


def _alpha(f, g, envf, envg, counter):
    if type(f) is not type(g):
        return False
    match f, g:
        case (Var(a), Var(b)):
            return envf.get(a, ("free", a)) == envg.get(b, ("free", b))
        case (One(), _) | (Zero(), _) | (Top(), _) | (Bot(), _):
            return True
        case (Neg(a), Neg(b)) | (OfCourse(a), OfCourse(b)) | (WhyNot(a), WhyNot(b)):
            return _alpha(a, b, envf, envg, counter)
        case ((Tensor(a1, a2), Tensor(b1, b2)) | (Par(a1, a2), Par(b1, b2))
              | (Plus(a1, a2), Plus(b1, b2)) | (With(a1, a2), With(b1, b2))
              | (Lolli(a1, a2), Lolli(b1, b2))):
            return (_alpha(a1, b1, envf, envg, counter)
                    and _alpha(a2, b2, envf, envg, counter))
        case (Mu(x, a), Mu(y, b)) | (Nu(x, a), Nu(y, b)):
            tag = ("bound", counter[0])
            counter[0] += 1
            return _alpha(a, b, {**envf, x: tag}, {**envg, y: tag}, counter)
    return False


# ---------------------------------------------------------------------------
# variance checking

def _show_sorts(sorts):
    if not sorts:
        return "(none)"
    return "/".join(str(s) for s in sorted(sorts, key=lambda s: s.value))


def _sorts(f, env):
    """Set of sorts derivable for f under env (name -> Sort)."""
    match f:
        case Var(name):
            if name not in env:
                raise UnboundVariable(name)
            return {env[name]}
        case One() | Zero() | Top() | Bot():
            # constants denote constant functors, covariant and
            # contravariant alike; this also makes negation normal form
            # sort-preserving (~1 has sort -, and its normal form bot
            # must be derivable there)
            return {POS, NEG}
        case Neg(b):
            return {s.dual() for s in _sorts(b, env)}
        case OfCourse(b) | WhyNot(b):
            return _sorts(b, env)
        case Tensor(a, b) | Par(a, b) | Plus(a, b) | With(a, b):
            sa, sb = _sorts(a, env), _sorts(b, env)
            meet = sa & sb
            if not meet:
                raise VarianceError(
                    f, f"operands derive {_show_sorts(sa)} vs {_show_sorts(sb)}")
            return meet
        case Lolli(a, b):
            sa = {s.dual() for s in _sorts(a, env)}
            sb = _sorts(b, env)
            meet = sa & sb
            if not meet:
                raise VarianceError(
                    f, "left operand derives "
                       f"{_show_sorts({s.dual() for s in sa})} "
                       f"(needs the dual sort) vs right {_show_sorts(sb)}")
            return meet
        case Mu(x, b) | Nu(x, b):
            derivable = set()
            failures = []
            for v in (POS, NEG):
                try:
                    got = _sorts(b, {**env, x: v})
                except VarianceError as err:
                    failures.append(f"under {x}:{v} the body fails ({err.detail})")
                    continue
                if v in got:
                    derivable.add(v)
                else:
                    failures.append(f"body has sort {_show_sorts(got)} under {x}:{v}")
            if not derivable:
                raise VarianceError(f, "; ".join(failures))
            return derivable
    raise TypeError(f"not a formula: {f!r}")


def check_variance(ctx: Context, f: Formula) -> Sort:
    """Sort of f in ctx per the variance rules.

    Constants are derivable at both sorts (constant functors are
    bivariant), binary connectives require equal sorts on both
    operands, negation dualizes, lolli dualizes its left operand, and a
    fixpoint binder requires the body to have the sort assumed for its
    variable.  Formulas derivable at both sorts (constants,
    ``mu x. x``) report the positive one.
    """
    env = dict(ctx.items) if isinstance(ctx, Context) else dict(ctx)
    derivable = _sorts(f, env)
    return POS if POS in derivable else NEG


# ---------------------------------------------------------------------------
# negation normal form

def nnf(f: Formula) -> Formula:
    """Push negation to the variables via the De Morgan dualities.

    The result contains Neg only directly on variables and denotes the
    same fact in every finite phase space.
    """
    match f:
        case Neg(b):
            return _nnf_neg(b)
        case One() | Zero() | Top() | Bot() | Var(_):
            return f
        case OfCourse(b):
            return OfCourse(nnf(b))
        case WhyNot(b):
            return WhyNot(nnf(b))
        case Tensor(a, b):
            return Tensor(nnf(a), nnf(b))
        case Par(a, b):
            return Par(nnf(a), nnf(b))
        case Plus(a, b):
            return Plus(nnf(a), nnf(b))
        case With(a, b):
            return With(nnf(a), nnf(b))
        case Lolli(a, b):
            return Lolli(nnf(a), nnf(b))
        case Mu(x, b):
            return Mu(x, nnf(b))
        case Nu(x, b):
            return Nu(x, nnf(b))
    raise TypeError(f"not a formula: {f!r}")


def _nnf_neg(f):
    """Negation normal form of Neg(f)."""
    match f:
        case One():
            return BOT
        case Bot():
            return ONE
        case Zero():
            return TOP
        case Top():
            return ZERO
        case Var(_):
            return Neg(f)
        case Neg(b):
            return nnf(b)
        case OfCourse(b):
            return WhyNot(_nnf_neg(b))
        case WhyNot(b):
            return OfCourse(_nnf_neg(b))
        case Tensor(a, b):
            return Par(_nnf_neg(a), _nnf_neg(b))
        case Par(a, b):
            return Tensor(_nnf_neg(a), _nnf_neg(b))
        case Plus(a, b):
            return With(_nnf_neg(a), _nnf_neg(b))
        case With(a, b):
            return Plus(_nnf_neg(a), _nnf_neg(b))
        case Lolli(a, b):
            return Tensor(nnf(a), _nnf_neg(b))
        case Mu(x, b):
            # (mu x. b)^~ = nu x. (b[~x/x])^~; the substitution keeps the
            # bound variable on the dual side so double negations cancel.
            return Nu(x, _nnf_neg(substitute(b, x, Neg(Var(x)))))
        case Nu(x, b):
            return Mu(x, _nnf_neg(substitute(b, x, Neg(Var(x)))))
    raise TypeError(f"not a formula: {f!r}")
