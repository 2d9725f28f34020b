"""Cross-checks: the bitmask kernels vs brute force."""

import random
from itertools import combinations

from mullsem._kernels import pure


def brute_minimize(masks):
    uniq = set(masks)
    return tuple(sorted(m for m in uniq
                        if not any(o != m and o & m == o for o in uniq)))


def brute_transversals(masks, nbits):
    hits = []
    for cand in range(1 << nbits):
        if all(cand & e for e in masks):
            hits.append(cand)
    return brute_minimize(hits) if masks else (0,)


def brute_phase_orth(table, n, pole_mask, x_mask):
    out = 0
    for y in range(n):
        if all((pole_mask >> table[i * n + y]) & 1
               for i in range(n) if x_mask >> i & 1):
            out |= 1 << y
    return out


def random_family(rng, nbits, count):
    return [rng.randrange(1 << nbits) for _ in range(count)]


class TestPureAgainstBruteForce:
    def test_minimize(self):
        rng = random.Random(101)
        for _ in range(200):
            fam = random_family(rng, 6, rng.randint(0, 10))
            assert pure.minimize_family(fam) == brute_minimize(fam)

    def test_transversals_exhaustive_small(self):
        for nbits in range(4):
            universe = list(range(1 << nbits))
            for count in range(3):
                for fam in combinations(universe, count):
                    assert pure.minimal_transversals(fam, nbits) == \
                        brute_transversals(list(fam), nbits)

    def test_transversals_random(self):
        rng = random.Random(102)
        for _ in range(100):
            nbits = rng.randint(1, 8)
            fam = [m for m in random_family(rng, nbits, rng.randint(0, 6))]
            assert pure.minimal_transversals(fam, nbits) == \
                brute_transversals(fam, nbits)

    def test_transversal_semantics(self):
        # every output hits every edge and is minimal with that property
        rng = random.Random(103)
        for _ in range(50):
            nbits = rng.randint(1, 7)
            fam = [m | 1 for m in random_family(rng, nbits, rng.randint(1, 5))]
            out = pure.minimal_transversals(fam, nbits)
            for t in out:
                assert all(t & e for e in fam)
                for bit in range(nbits):
                    if t >> bit & 1:
                        smaller = t & ~(1 << bit)
                        assert not all(smaller & e for e in fam)

    def test_phase_orthogonal(self):
        # a batch of k poles, each with its own subset: slice p of the
        # output is the orthogonal of subset p under pole p
        rng = random.Random(104)
        for _ in range(200):
            n = rng.randint(1, 5)
            k = rng.randint(1, 40)
            table = [rng.randrange(n) for _ in range(n * n)]
            poles = [rng.randrange(1 << n) for _ in range(k)]
            xs = [rng.randrange(1 << n) for _ in range(k)]

            def words(masks):
                return [sum((m >> i & 1) << p for p, m in enumerate(masks))
                        for i in range(n)]

            def fact(masks):  # word i at bit i * k
                return sum(w << i * k for i, w in enumerate(words(masks)))

            out = pure.phase_orthogonal(table, n, tuple(words(poles)),
                                        fact(xs), k)
            assert out == fact([brute_phase_orth(table, n, pole, x)
                                for pole, x in zip(poles, xs)])

    def test_is_antichain(self):
        rng = random.Random(105)
        for _ in range(200):
            fam = random_family(rng, 4, rng.randint(0, 6))
            # an antichain has no repeats and is its own minimization
            assert pure.is_antichain(fam) == \
                (brute_minimize(fam) == tuple(sorted(fam)))


class TestDispatch:
    def test_facade_handles_wide_masks(self):
        from mullsem import _kernels
        wide = 1 << 80
        assert _kernels.minimize_family([wide, wide | 1]) == (wide,)
        out = _kernels.minimal_transversals([wide], 81)
        assert out == (wide,)
