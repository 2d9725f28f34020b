"""Reference checks that do not call mullsem.

Each function recomputes or verifies an answer with its own code:
bitmask checks for dualization, vertex enumeration for polar
membership, closed forms for least fixpoints, and digests of golden
outputs recorded beside the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations


class Mismatch(Exception):
    """An answer that differs from its reference."""


def digest(answer) -> str:
    """Stable digest of a JSON-able answer."""
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def expect_digest(answer, golden, key):
    want = golden.get(key)
    if want is None:
        raise Mismatch(f"no golden answer for {key!r}")
    got = digest(answer)
    if got != want:
        raise Mismatch(f"{key}: digest {got} differs from golden {want}")


# ---------------------------------------------------------------------------
# dualization: families of subsets as int bitmasks

def minimal_members(masks):
    """Inclusion-minimal members, by a quadratic scan."""
    uniq = set(masks)
    return sorted(m for m in uniq
                  if not any(o != m and o & m == o for o in uniq))


def check_minimal_transversals(edges, out, what):
    """Every output set meets every edge, and no proper subset does."""
    if len(set(out)) != len(out):
        raise Mismatch(f"{what}: repeated sets")
    for t in out:
        if any(t & e == 0 for e in edges):
            raise Mismatch(f"{what}: {t:#x} misses an input set")
        rest = t
        while rest:
            bit = rest & -rest
            rest ^= bit
            smaller = t ^ bit
            if all(smaller & e for e in edges):
                raise Mismatch(f"{what}: {t:#x} is not minimal")


def check_dualization(edges, closure, first, second):
    """Biclosure is the minimal members; orthogonals are transversals.

    ``closure`` is the biclosure of ``edges``, ``first`` its orthogonal
    and ``second`` the orthogonal of ``first``; all are bitmask lists.
    """
    if sorted(closure) != minimal_members(edges):
        raise Mismatch("biclosure differs from the minimal input sets")
    check_minimal_transversals(closure, first, "orthogonal")
    check_minimal_transversals(first, second, "double orthogonal")
    if sorted(second) != sorted(closure):
        raise Mismatch("double orthogonal differs from the biclosure")


# ---------------------------------------------------------------------------
# polar membership over the [0,1] pole, by vertex enumeration

def _solve(rows, rhs):
    """Exact solution of a square system, or None when it is singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def polar_member(generators, point) -> bool:
    """x in G°° for the pole [0,1]: max { <x,y> : y >= 0, <g,y> <= 1 } <= 1.

    Coordinates that no generator uses leave y unbounded there, so x
    must vanish on them.  On the other coordinates the polytope is
    bounded and the maximum sits at a vertex: every vertex solves a
    square system of tight constraints.
    """
    gens = [[Fraction(v) for v in g] for g in generators]
    x = [Fraction(v) for v in point]
    dim = len(x)
    live = [j for j in range(dim) if any(g[j] > 0 for g in gens)]
    if any(x[j] > 0 for j in range(dim) if j not in live):
        return False
    if not live:
        return True
    d = len(live)
    # constraints a . y <= b over the live coordinates
    cons = [([g[j] for j in live], Fraction(1)) for g in gens]
    cons += [([Fraction(-1) if j == i else Fraction(0) for j in range(d)],
              Fraction(0)) for i in range(d)]
    best = Fraction(0)
    for tight in combinations(cons, d):
        y = _solve([a for a, _ in tight], [b for _, b in tight])
        if y is None:
            continue
        if all(sum(a_j * y_j for a_j, y_j in zip(a, y)) <= b for a, b in cons):
            best = max(best, sum(x[j] * y_i for j, y_i in zip(live, y)))
    return best <= 1


# ---------------------------------------------------------------------------
# least fixpoints with closed forms

def quadratic_lfp(p, q) -> float:
    """Least non-negative root of x = p + q x^2 (needs 4pq <= 1)."""
    p, q = float(p), float(q)
    if q == 0:
        return p
    return (1 - math.sqrt(1 - 4 * p * q)) / (2 * q)


def check_fix_values(report, expected):
    """Each reported coordinate lies within the claimed tolerance."""
    tol = float(report["tolerance"])
    values = report["value"]
    if sorted(values) != sorted(expected):
        raise Mismatch(f"coordinates {sorted(values)} differ from "
                       f"{sorted(expected)}")
    for name, want in expected.items():
        got = float(Fraction(values[name]))
        if not abs(got - float(want)) <= tol:
            raise Mismatch(f"{name} = {got!r}, least fixpoint {float(want)!r}, "
                           f"error {abs(got - float(want)):.3g} > tol {tol:g}")
