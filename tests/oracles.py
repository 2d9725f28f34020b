"""Independent oracles used by the test suite.

Everything here recomputes expected values by brute force (explicit
powerset scans, exhaustive enumeration, Gaussian elimination) without
touching the code paths under test.  The helpers that only tests call
live here too: the Boolean bridge between relations and matrices, the
semiring law check, a matrix renderer and a phase orthogonal.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations


def powerset(iterable):
    items = list(iterable)
    return [frozenset(c) for r in range(len(items) + 1)
            for c in combinations(items, r)]


def element_parts(elems):
    """Every carrier element nested in elems, mapped to itself.

    Fails if two equal parts are different objects, which the element
    table of one interpretation rules out.  Labels are not walked.
    """
    seen = {}
    stack = list(elems)
    while stack:
        e = stack.pop()
        if not hasattr(e, "__match_args__"):
            continue
        if e in seen:
            assert seen[e] is e, f"two objects for {e}"
            continue
        seen[e] = e
        for field in e.__match_args__:
            part = getattr(e, field)
            stack.extend(part if isinstance(part, tuple) else (part,))
    return seen


# ---------------------------------------------------------------------------
# families of subsets (totality side), explicit representation

def brute_orthogonal(carrier, family):
    """{ y | forall x in family: x and y intersect }, over all subsets."""
    return frozenset(y for y in powerset(carrier)
                     if all(y & x for x in family))


def brute_biclosure(carrier, family):
    return brute_orthogonal(carrier, brute_orthogonal(carrier, family))


def brute_upward_closure(carrier, family):
    return frozenset(s for s in powerset(carrier)
                     if any(x <= s for x in family))


def explicit_members(fam):
    """All member sets of an UpFamily, via the powerset of its carrier."""
    return frozenset(s for s in powerset(fam.carrier.elems) if fam.contains(s))


# ---------------------------------------------------------------------------
# fixpoint scans on finite lattices

def least_prefixpoint_scan(lattice, fn):
    pre = [x for x in lattice if lattice.le(fn(x), x)]
    for x in pre:
        if all(lattice.le(x, y) for y in pre):
            return x
    raise AssertionError("no least pre-fixpoint")


def greatest_postfixpoint_scan(lattice, fn):
    post = [x for x in lattice if lattice.le(x, fn(x))]
    for x in post:
        if all(lattice.le(y, x) for y in post):
            return x
    raise AssertionError("no greatest post-fixpoint")


# ---------------------------------------------------------------------------
# initiality / finality certification by exhaustive enumeration

def base_initial_algebra_check(cat, functor, a, alpha):
    """alpha: F a -> a has exactly one homomorphism to every base algebra."""
    for d in cat.objects:
        for delta in cat.hom(functor.obj(d), d):
            homs = [f for f in cat.hom(a, d)
                    if cat.compose(f, alpha) == cat.compose(delta, functor.map(f))]
            if len(homs) != 1:
                return False, (d, delta, homs)
    return True, None


def certify_initial_lifted(lifted, a, alpha, lpfp):
    """Initiality of (a, lpfp, alpha) among lifted algebras, exhaustively.

    For every object d, base algebra delta: F d -> d, and fiber element
    S with action_d(S) <= delta*(S): the unique base homomorphism u
    satisfies lpfp <= u*(S), and u is the only lifting morphism.
    """
    cat, functor, poset = lifted.poset.base, lifted.functor, lifted.poset
    ok, witness = base_initial_algebra_check(cat, functor, a, alpha)
    assert ok, f"alpha is not initial in the base: {witness}"
    for d in cat.objects:
        fiber_d = poset.fiber(d)
        for delta in cat.hom(functor.obj(d), d):
            pull_delta = poset.reindex(delta)
            liftings = [s for s in fiber_d
                        if poset.fiber(functor.obj(d)).le(
                            lifted.action(d)(s), pull_delta(s))]
            for s in liftings:
                homs = [f for f in cat.hom(a, d)
                        if cat.compose(f, alpha)
                        == cat.compose(delta, functor.map(f))]
                assert len(homs) == 1
                u = homs[0]
                assert poset.fiber(a).le(lpfp, poset.reindex(u)(s)), \
                    f"induction fails for {d}, {delta.name}, {s!r}"
                lifted_homs = [f for f in homs
                               if poset.fiber(a).le(lpfp, poset.reindex(f)(s))]
                assert lifted_homs == [u]
    return True


def base_final_coalgebra_check(cat, functor, d, delta):
    for c in cat.objects:
        for gamma in cat.hom(c, functor.obj(c)):
            homs = [f for f in cat.hom(c, d)
                    if cat.compose(delta, f) == cat.compose(functor.map(f), gamma)]
            if len(homs) != 1:
                return False, (c, gamma, homs)
    return True, None


def certify_final_lifted(lifted, d, delta, gpfp):
    """Finality of (d, gpfp, delta) among lifted coalgebras, exhaustively."""
    cat, functor, poset = lifted.poset.base, lifted.functor, lifted.poset
    ok, witness = base_final_coalgebra_check(cat, functor, d, delta)
    assert ok, f"delta is not final in the base: {witness}"
    for c in cat.objects:
        fiber_c = poset.fiber(c)
        for gamma in cat.hom(c, functor.obj(c)):
            pull_gamma = poset.reindex(gamma)
            liftings = [r for r in fiber_c
                        if fiber_c.le(r, pull_gamma(lifted.action(c)(r)))]
            for r in liftings:
                homs = [f for f in cat.hom(c, d)
                        if cat.compose(delta, f)
                        == cat.compose(functor.map(f), gamma)]
                assert len(homs) == 1
                u = homs[0]
                assert fiber_c.le(r, poset.reindex(u)(gpfp)), \
                    f"coinduction fails for {c}, {gamma.name}, {r!r}"
    return True


# ---------------------------------------------------------------------------
# exact linear algebra for the polar-vertex oracle

def solve_linear(rows, rhs):
    """Solve a square rational system by Gaussian elimination.

    Returns the solution vector or None when the system is singular.
    """
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        expected = aug[col][col]
        aug[col] = [v / expected for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def monomial_expansion(expr):
    """A polynomial scalar expression expanded into {monomial:
    coefficient}, a monomial being a sorted tuple of (coordinate,
    exponent) pairs."""
    from mullsem.newton import SAdd, SConst, SCoord, SMul
    match expr:
        case SConst(v):
            return {(): Fraction(v)} if v else {}
        case SCoord(name):
            return {((name, 1),): Fraction(1)}
        case SAdd(a, b):
            out = dict(monomial_expansion(a))
            for mono, coef in monomial_expansion(b).items():
                out[mono] = out.get(mono, 0) + coef
            return out
        case SMul(a, b):
            out = {}
            for ma, ca in monomial_expansion(a).items():
                for mb, cb in monomial_expansion(b).items():
                    powers = dict(ma)
                    for name, k in mb:
                        powers[name] = powers.get(name, 0) + k
                    mono = tuple(sorted(powers.items()))
                    out[mono] = out.get(mono, 0) + ca * cb
            return out
    raise TypeError(expr)


def expanded_value(expr, point):
    """A polynomial scalar expression at point, in exact rationals, term
    by term from its expansion."""
    total = Fraction(0)
    for mono, coef in monomial_expansion(expr).items():
        for name, e in mono:
            coef *= Fraction(point[name]) ** e
        total += coef
    return total


def expanded_partials(expr, point):
    """The non-zero partial derivatives {j: df/dx_j} of a polynomial
    scalar expression at point, term by term from its expansion."""
    partials = {}
    for mono, coef in monomial_expansion(expr).items():
        for j, k in mono:
            term = coef * k
            for name, e in mono:
                term *= Fraction(point[name]) ** (e - (name == j))
            partials[j] = partials.get(j, 0) + term
    return {j: d for j, d in partials.items() if d}


def oracle_bipolar(gens, x):
    """Vertex-enumeration decision of x in G^~~ over the pole [0,1].

    The polar { y >= 0 : <g, y> <= 1 } is a polytope once coordinates
    outside every generator's support are removed, so the supremum of
    <x, y> is attained at a vertex, i.e. at dim-many tight constraints.
    """
    dim = len(x)
    live = [j for j in range(dim) if any(g[j] > 0 for g in gens)]
    if any(x[j] > 0 for j in range(dim) if j not in live):
        return False
    if not live:
        return True
    gens = [[Fraction(g[j]) for j in live] for g in gens]
    point = [Fraction(x[j]) for j in live]
    d = len(live)
    constraints = [(g, Fraction(1)) for g in gens]
    for j in range(d):
        row = [Fraction(int(i == j)) for i in range(d)]
        constraints.append((row, Fraction(0)))
    best = Fraction(0)  # y = 0 is always feasible
    for combo in combinations(range(len(constraints)), d):
        rows = [constraints[i][0] for i in combo]
        rhs = [constraints[i][1] for i in combo]
        v = solve_linear(rows, rhs)
        if v is None:
            continue
        if any(c < 0 for c in v):
            continue
        if any(sum(gc * vc for gc, vc in zip(g, v)) > 1 for g in gens):
            continue
        val = sum(pc * vc for pc, vc in zip(point, v))
        best = max(best, val)
    return best <= 1


# ---------------------------------------------------------------------------
# brute-force monoid enumeration (cross-check for the phase module)

def brute_commutative_monoid_count(n):
    """Count commutative monoids of order n up to isomorphism, by filtering
    every symmetric table and deduplicating under relabelling."""
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    tables = set()

    def product_fn(assign):
        def mul(a, b):
            if a == 0:
                return b
            if b == 0:
                return a
            return assign[(a, b) if a <= b else (b, a)]
        return mul

    def all_assignments(idx, assign):
        if idx == len(cells):
            yield dict(assign)
            return
        for v in range(n):
            assign[cells[idx]] = v
            yield from all_assignments(idx + 1, assign)
        del assign[cells[idx]]

    for assign in all_assignments(0, {}):
        mul = product_fn(assign)
        if all(mul(mul(a, b), c) == mul(a, mul(b, c))
               for a in range(n) for b in range(n) for c in range(n)):
            flat = tuple(mul(i, j) for i in range(n) for j in range(n))
            best = None
            for perm in permutations(range(1, n)):
                relabel = (0,) + perm
                pos = {old: new for new, old in enumerate(relabel)}
                cand = tuple(pos[flat[i * n + j]]
                             for a in range(n) for b in range(n)
                             for i, j in [(relabel[a], relabel[b])])
                if best is None or cand < best:
                    best = cand
            tables.add(best)
    return len(tables)


# ---------------------------------------------------------------------------
# formula corpus: one or two binders over units, sums, products and !,
# as in the totality-fixpoints benchmark grammar

_LEAVES = ("1", "(1 + 1)")
_SINGLE = ("{L} + x", "{L} + x * x", "{L} + x * {L}", "{L} + !x",
          "{L} + (x & x)", "{L} + x * (mu y. {L} + y)", "{L} + ?x",
          "({L} + x) * {L}", "{L} + (x | x)")
_NESTED = ("{L} + x * y", "{L} + (x + y)", "{L} + !x + y", "{L} + (x & y)",
           "{L} + y * y + x")


def fixpoint_sample(count, seed):
    """A seeded sample of closed fixpoint formulas, as text."""
    formulas = [f"{b} x. " + body.format(L=leaf)
                for body in _SINGLE for b in ("mu", "nu") for leaf in _LEAVES]
    formulas += [f"{o} x. {i} y. " + body.format(L=leaf)
                 for body in _NESTED for o in ("mu", "nu")
                 for i in ("mu", "nu") for leaf in _LEAVES]
    return random.Random(seed).sample(formulas, count)


# ---------------------------------------------------------------------------
# weighted matrices: the Boolean bridge with rel, the semiring laws and
# the matrix file format

def identity_matrix(semiring, index):
    from mullsem.poles import SemiringMatrix
    index = tuple(index)
    return SemiringMatrix(semiring, index, index,
                          {(i, i): semiring.one for i in index})


def relation_to_matrix(rel):
    """Boolean matrix of a relation from the relational model."""
    from mullsem.poles import SemiringMatrix
    from mullsem.semiring import BOOL
    # a relation's pairs lie in its carriers, whose elements are distinct
    return SemiringMatrix._trusted(BOOL, rel.src.elems, rel.tgt.elems,
                                   {(a, b): True for a, b in rel.pairs})


def matrix_to_relation(mat, src, tgt):
    """The relation src -> tgt of a Boolean matrix indexed by the
    elements of src and tgt, such as a composite of relation_to_matrix
    results."""
    from mullsem.relmodel import Relation
    from mullsem.semiring import BOOL
    assert mat.semiring is BOOL, "only boolean matrices induce relations"
    assert mat.rows == src.elems and mat.cols == tgt.elems, \
        "the matrix is not indexed by the carriers"
    assert all(mat.entries.values()), "a zero entry is stored"
    return Relation._trusted(src, tgt, frozenset(mat.entries))


def check_semiring_laws(sr):
    """Spot-check the semiring laws on the declared sample values."""
    vals = sr.sample_values()
    for a in vals:
        if sr.add(a, sr.zero) != a or sr.mul(a, sr.one) != a:
            raise AssertionError(f"{sr.name}: unit laws fail at {a!r}")
        if sr.mul(a, sr.zero) != sr.zero:
            raise AssertionError(f"{sr.name}: absorption fails at {a!r}")
    for a in vals:
        for b in vals:
            if sr.add(a, b) != sr.add(b, a) or sr.mul(a, b) != sr.mul(b, a):
                raise AssertionError(f"{sr.name}: commutativity fails")
            for c in vals:
                if sr.add(sr.add(a, b), c) != sr.add(a, sr.add(b, c)):
                    raise AssertionError(f"{sr.name}: + associativity fails")
                if sr.mul(sr.mul(a, b), c) != sr.mul(a, sr.mul(b, c)):
                    raise AssertionError(f"{sr.name}: * associativity fails")
                if sr.mul(a, sr.add(b, c)) != sr.add(sr.mul(a, b), sr.mul(a, c)):
                    raise AssertionError(f"{sr.name}: distributivity fails")
                if sr.le(a, b) and not sr.le(sr.add(a, c), sr.add(b, c)):
                    raise AssertionError(f"{sr.name}: + not monotone")
                if sr.le(a, b) and not sr.le(sr.mul(a, c), sr.mul(b, c)):
                    raise AssertionError(f"{sr.name}: * not monotone")
    return True


def render_matrix(mat):
    """A matrix in the file format that poles.parse_matrix reads."""
    lines = ["rows " + " ".join(str(r) for r in mat.rows),
             "cols " + " ".join(str(c) for c in mat.cols)]
    for r in mat.rows:
        for c in mat.cols:
            v = mat.get(r, c)
            if v != mat.semiring.zero:
                lines.append(f"{r} {c} {mat.semiring.to_str(v)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# phase semantics on explicit sets (reference for the phase module)

def orthogonal_fact(space, subset):
    """The orthogonal of a subset, through the space's own batch."""
    return space.set_of(space.orthogonal_mask(space.mask_of(subset)))


def phase_orthogonal_set(space, xs):
    """{ y | forall x in xs. xy in P }, the orthogonal of a set of names."""
    pole = frozenset(space.pole)
    return frozenset(y for y in space.elements
                     if all(space.mul(x, y) in pole for x in xs))


def phase_fact(space, f, env=None):
    """The fact of f in a phase space, from the textbook definitions.

    Facts are frozensets of element names.  Only the space's elements,
    unit, pole and product are read: X^~ = { y | forall x in X. xy in P },
    every connective is its definition over such sets, and mu / nu
    iterate their body from the least fact / the whole monoid until it
    repeats a set.
    """
    from mullsem import formula as fm

    elems = frozenset(space.elements)
    mul = space.mul

    def orth(xs):
        return phase_orthogonal_set(space, xs)

    def close(xs):
        return orth(orth(xs))

    def times(xs, ys):
        return frozenset(mul(x, y) for x in xs for y in ys)

    def bang(xs):
        # ! keeps the idempotents of the unit's fact
        base = frozenset(x for x in close({space.unit}) if mul(x, x) == x)
        return close(xs & base)

    def value(g, env):
        match g:
            case fm.Var(name):
                return env[name]
            case fm.One():
                return close({space.unit})
            case fm.Bot():
                return orth({space.unit})
            case fm.Top():
                return elems
            case fm.Zero():
                return close(frozenset())
            case fm.Neg(body):
                return orth(value(body, env))
            case fm.Tensor(a, b):
                return close(times(value(a, env), value(b, env)))
            case fm.Par(a, b):
                return orth(times(orth(value(a, env)), orth(value(b, env))))
            case fm.Plus(a, b):
                return close(value(a, env) | value(b, env))
            case fm.With(a, b):
                return value(a, env) & value(b, env)
            case fm.Lolli(a, b):
                xs, ys = value(a, env), value(b, env)
                return frozenset(z for z in elems
                                 if all(mul(x, z) in ys for x in xs))
            case fm.OfCourse(body):
                return bang(value(body, env))
            case fm.WhyNot(body):
                return orth(bang(orth(value(body, env))))
            case fm.Mu(var, body) | fm.Nu(var, body):
                cur = close(frozenset()) if type(g) is fm.Mu else elems
                seen = {cur}
                while True:
                    nxt = value(body, {**env, var: cur})
                    if nxt == cur:
                        return cur
                    assert nxt not in seen, f"{g} cycles"
                    seen.add(nxt)
                    cur = nxt
        raise TypeError(f"not a formula: {g!r}")

    return value(f, dict(env or {}))


def random_phase_formulas(count, seed):
    """A seeded sample of closed, well-sorted formulas, as text.

    Binders nest up to three deep, and every connective, negation and
    both exponentials occur.  A variable is used only where its sort
    allows: positive occurrences of its binder's sort, so that ~ and
    the left of -o flip which variables are usable.
    """
    from mullsem.errors import VarianceError
    from mullsem.formula import check_variance, parse

    rng = random.Random(seed)
    atoms = ("1", "bot", "0", "top")

    def gen(depth, usable, hidden, binders):
        # usable: variables at their binder's polarity here; hidden: the
        # rest of the bound variables
        if depth == 0 or rng.random() < 0.15:
            if usable and rng.random() < 0.6:
                return rng.choice(usable)
            return rng.choice(atoms)
        kind = rng.randrange(10)
        if kind < 2 and binders < 3:
            var = f"x{binders}"
            body = gen(depth - 1, usable + [var], hidden, binders + 1)
            return f"({rng.choice(('mu', 'nu'))} {var}. {body})"
        if kind == 2:
            return f"~{gen(depth - 1, hidden, usable, binders)}"
        if kind == 3:
            return f"{rng.choice('!?')}{gen(depth - 1, usable, hidden, binders)}"
        if kind == 4:
            left = gen(depth - 1, hidden, usable, binders)
            return f"({left} -o {gen(depth - 1, usable, hidden, binders)})"
        op = rng.choice(("*", "|", "+", "&"))
        return (f"({gen(depth - 1, usable, hidden, binders)} {op} "
                f"{gen(depth - 1, usable, hidden, binders)})")

    out = []
    while len(out) < count:
        text = gen(5, [], [], 0)
        try:
            check_variance({}, parse(text))
        except VarianceError:
            continue
        if "x" in text:  # every sample has a binder
            out.append(text)
    return out
