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


def phase_orthogonal(table, n, pole_words, x, width):
    """The orthogonal of a bit-sliced fact under a batch of poles.

    ``table`` is the flat n*n multiplication table of element indices.
    Bit k of a word stands for the k-th pole of the batch: bit k of
    ``pole_words[z]`` is set when z is in pole k.  A fact holds one
    word of ``width`` bits per element, word i at bit i * width, whose
    bit k is set when i is in the fact under pole k.  Under pole k, y
    is in the orthogonal when every i in the fact has product(i, y) in
    the pole, so with X[i] the words of x:

        out[y] = AND_i (~X[i] | pole_words[table[i * n + y]])
    """
    full = (1 << width) - 1
    out = [full] * n
    row = 0
    while x:
        xi = x & full
        if xi:
            for y in range(n):
                out[y] &= ~xi | pole_words[table[row + y]]
        x >>= width
        row += n
    fact = 0
    for word in reversed(out):
        fact = fact << width | word
    return fact


def is_antichain(masks):
    seen = list(masks)
    for i, a in enumerate(seen):
        for j, b in enumerate(seen):
            if i != j and a & b == a:
                return False
    return True
