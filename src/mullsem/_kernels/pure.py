"""Pure-Python bitmask kernels: subset families and phase-space closure.

A family of subsets of an n-element carrier is a sequence of int
bitmasks.  These loops dominate the totality and phase interpreters.
"""

BACKEND = "pure"


def minimize_family(masks):
    """Inclusion-minimal members of the family, deduplicated and sorted."""
    return _minimal(masks)


def _minimal(masks):
    # the kernels call this, not minimize_family, so that a tracer
    # wrapping the public name sees only the models' calls
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    out = []
    for cand in uniq:
        if not any(kept & cand == kept for kept in out):
            out.append(cand)
    return tuple(sorted(out))


def minimal_transversals(masks, nbits):
    """Minimal hitting sets of the family (incremental antichain update).

    The empty family has the single minimal transversal 0; a family
    containing the empty set has none.
    """
    trs = [0]
    for edge in sorted(set(masks)):
        if edge == 0:
            return ()
        hit = []
        miss = []
        for t in trs:
            (hit if t & edge else miss).append(t)
        grown = set(hit)
        e = edge
        while e:
            bit = e & -e
            e ^= bit
            for t in miss:
                grown.add(t | bit)
        trs = list(_minimal(grown))
    return tuple(sorted(trs))


def phase_orthogonal(table, n, pole_mask, x_mask):
    """{ y | forall i in x: product(i, y) in pole }, all sets as bitmasks.

    ``table`` is the flat n*n multiplication table of element indices.
    """
    res = 0
    for y in range(n):
        row = y  # column offset; table[i * n + y]
        ok = True
        m = x_mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            if not (pole_mask >> table[i * n + row]) & 1:
                ok = False
                break
        if ok:
            res |= 1 << y
    return res


def is_antichain(masks):
    seen = list(masks)
    for i, a in enumerate(seen):
        for j, b in enumerate(seen):
            if i != j and a & b == a:
                return False
    return True
