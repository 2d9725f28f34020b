"""Every golden answer of the totality-fixpoints benchmark, replayed.

``perfbench/golden/totality-fixpoints.json`` holds the digest of each
answered job of the benchmark grammar.  Each job is run here as the
benchmark runs it: parse, variance check and interpretation at bag 2,
with the answer in the shape of the machine output, digested as the
benchmark digests it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mullsem.budgets import Budgets
from mullsem.formula import EMPTY_CONTEXT, check_variance, parse
from mullsem.relmodel import interpret_carrier
from mullsem.totality import interpret_totality

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def _digests():
    with open(GOLDEN / "totality-fixpoints.json", encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def _answer(model, depth, text):
    """The answer shape of ``perfbench/workloads.py``."""
    f = parse(text)
    check_variance(EMPTY_CONTEXT, f)
    budgets = Budgets(depth=depth, bag=2)
    if model == "totality":
        space = interpret_totality(f, {}, budgets)
        antichain = sorted(sorted(str(e) for e in s)
                           for s in space.family.min_sets())
        return {"carrier": [str(e) for e in space.carrier],
                "minimal_antichain": antichain,
                "stabilized": space.stabilized}
    carrier = interpret_carrier(f, {}, budgets)
    return {"carrier": [str(e) for e in carrier], "size": len(carrier),
            "stabilized": carrier.stabilized}


def _digest(answer):
    """``perfbench/oracles.py``'s digest of a JSON-able answer."""
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


@pytest.mark.parametrize("model", ["rel", "totality"])
def test_every_golden_answer_is_reproduced(model):
    digests = {k: v for k, v in _digests().items()
               if k.startswith(model + "|")}
    assert len(digests) == {"rel": 430, "totality": 266}[model]
    differing = []
    for key, want in digests.items():
        _, depth, text = key.split("|", 2)
        if _digest(_answer(model, int(depth), text)) != want:
            differing.append(key)
    assert differing == []
