"""Parallel-worker safety: pure interpreters give identical results
from concurrent threads over shared immutable structures."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from oracles import phase_orthogonal_set
from mullsem.budgets import Budgets
from mullsem.formula import parse
from mullsem.phase import (PhaseSpace, enumerate_commutative_monoids,
                           interpret_phase, search_counter_model,
                           space_from_table)
from mullsem.relmodel import interpret_carrier
from mullsem.totality import interpret_totality

SIGN = PhaseSpace(("1", "-1"), "1",
                  {("1", "1"): "1", ("1", "-1"): "-1", ("-1", "-1"): "1"},
                  ("1",))

FORMULAS = ["mu x. 1 + x", "nu x. 1 & x", "!(1 + 1)", "mu x. nu y. x + y"]


def test_concurrent_phase_interpretation():
    def job(text):
        return sorted(interpret_phase(SIGN, parse(text)))

    with ThreadPoolExecutor(max_workers=8) as pool:
        rounds = [list(pool.map(job, FORMULAS * 8)) for _ in range(3)]
    assert rounds[0] == rounds[1] == rounds[2]


def test_concurrent_orthogonals_of_one_space():
    # threads fill one space's orthogonal memo at once, in different
    # orders, with a switch after almost every bytecode
    n = 5
    tables = enumerate_commutative_monoids(n)
    space = space_from_table(tables[-1], n, 0b10110)
    masks = list(range(1 << n))
    want = [space.mask_of(phase_orthogonal_set(space, space.set_of(m)))
            for m in masks]

    def job(seed):
        order = masks * 4
        random.Random(seed).shuffle(order)
        return all(space.orthogonal_mask(m) == want[m] for m in order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(job, range(16), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 16
    # one memo, in the space's batch of one pole
    assert space.batch()._orthogonals == dict(zip(masks, want))


def test_concurrent_totality_on_shared_spaces():
    budgets = Budgets(depth=3)
    shared = interpret_totality(parse("1 + 1"), {}, budgets)

    def job(_):
        out = interpret_totality(parse("x & x"), {"x": shared}, budgets)
        return tuple(sorted(str(s) for s in out.family.min_sets()))

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, range(32)))
    assert len(set(results)) == 1


def test_concurrent_carrier_index_access():
    carrier = interpret_carrier(parse("mu x. 1 + x"), {}, Budgets(depth=5))
    elems = list(carrier)

    def job(e):
        return carrier.index(e)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, elems * 20))
    assert results == [carrier.index(e) for e in elems] * 20


def test_search_deterministic_under_repeated_runs():
    outs = {search_counter_model(parse("bot & 1"), 2).to_dict()["pole"] == []
            for _ in range(4)}
    assert outs == {True}
