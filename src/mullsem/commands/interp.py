"""``mullsem interp``: a formula in the rel, totality, phase or wrel model.

Each model's module is imported in its own branch, so a child loads
only the model it interprets in.
"""

from ..cli import _budgets, _emit, _read
from ..errors import FileFormatError

# the name of semiring.BOOL, the semiring of the wrel report's vector;
# written out so that the wrel branch does not import semiring
WREL_SEMIRING = "bool"


def run(args):
    from ..formula import EMPTY_CONTEXT, check_variance, parse, to_text
    f = parse(args.formula)
    check_variance(EMPTY_CONTEXT, f)
    budgets = _budgets(args)
    budget_info = {"depth": budgets.depth, "bag": budgets.bag}
    if args.model == "rel":
        from ..relmodel import interpret_carrier
        carrier = interpret_carrier(f, {}, budgets)
        payload = {"command": "interp", "model": "rel",
                   "formula": to_text(f), "budgets": budget_info,
                   "carrier": [str(e) for e in carrier],
                   "size": len(carrier),
                   "stabilized": carrier.stabilized}
        lines = [f"carrier ({len(carrier)} elements, stabilized="
                 f"{carrier.stabilized}):"]
        lines += [f"  {e}" for e in carrier]
        return _emit(args, payload, lines)
    if args.model == "totality":
        from ..totality import interpret_totality
        space = interpret_totality(f, {}, budgets)
        antichain = [sorted(str(e) for e in s) for s in space.family.min_sets()]
        antichain.sort()
        payload = {"command": "interp", "model": "totality",
                   "formula": to_text(f), "budgets": budget_info,
                   "carrier": [str(e) for e in space.carrier],
                   "minimal_antichain": antichain,
                   "stabilized": space.stabilized}
        lines = [f"carrier ({len(space.carrier)} elements), "
                 f"stabilized={space.stabilized}",
                 "minimal totality antichain:"]
        lines += ["  {" + ", ".join(s) + "}" for s in antichain]
        return _emit(args, payload, lines)
    if args.model == "phase":
        if not args.space:
            raise FileFormatError("the phase model needs --space FILE")
        from ..phase import interpret_phase, parse_phase_space
        space = parse_phase_space(_read(args.space))
        fact = interpret_phase(space, f, {})
        fact = [e for e in space.elements if e in fact]  # in element order
        valid = space.unit in fact  # phase.holds, without a second fold
        payload = {"command": "interp", "model": "phase",
                   "formula": to_text(f), "budgets": budget_info,
                   "space": space.to_dict(), "fact": fact, "holds": valid,
                   "stabilized": True}  # the fact lattice is finite and exact
        lines = [f"fact: {{{', '.join(fact)}}}", f"holds: {valid}"]
        return _emit(args, payload, lines)
    # wrel: the weighted models share objects with the relational model;
    # report the carrier with its boolean characteristic vector
    from ..relmodel import interpret_carrier
    carrier = interpret_carrier(f, {}, budgets)
    vec = {str(e): "1" for e in carrier}
    payload = {"command": "interp", "model": "wrel",
               "formula": to_text(f), "budgets": budget_info,
               "semiring": WREL_SEMIRING,
               "carrier": [str(e) for e in carrier],
               "vector": vec,
               "stabilized": carrier.stabilized}
    lines = [f"carrier ({len(carrier)} elements, stabilized="
             f"{carrier.stabilized}); boolean characteristic vector:"]
    lines += [f"  {e}: 1" for e in sorted(vec)]
    return _emit(args, payload, lines)
