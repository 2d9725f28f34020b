"""Command-line driver.

Exit codes: 0 on success (negative answers such as a found counter-model
are data, not failures), 1 on semantic failure (variance errors,
unsupported constructors, exceeded budgets) or when stdout closes early,
2 on input errors with positioned diagnostics.  Machine output is JSON
with a fixed key order, and every numeric report carries its budget or
tolerance provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# each command imports the modules it runs, so a command pays start-up
# only for its own model
from .budgets import DEFAULT_BAG, DEFAULT_DEPTH, Budgets
from .errors import (FileFormatError, MullsemError, ParseError,
                     UnboundVariable)

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2

DEPTH_ENV_VAR = "MULL_BUDGET_DEPTH"
# the keys of wrel.NAMED_POLES, sorted; the parser lists them without
# importing wrel
POLES = ("nat", "pcoh", "totality")


def _default_depth():
    raw = os.environ.get(DEPTH_ENV_VAR)
    if raw is None:
        return DEFAULT_DEPTH
    try:
        depth = int(raw)
    except ValueError:
        raise FileFormatError(f"{DEPTH_ENV_VAR} must be an integer, got {raw!r}")
    if depth < 0:
        raise FileFormatError(f"{DEPTH_ENV_VAR} must be non-negative")
    return depth


def build_parser():
    top = argparse.ArgumentParser(
        prog="mullsem",
        description="semantics workbench for linear logic types with fixpoints")
    top.add_argument("--format", choices=("human", "machine"), default="human",
                     help="report style (machine = stable JSON)")
    sub = top.add_subparsers(dest="command", required=True)

    var = sub.add_parser("variance", help="check the variance judgement")
    var.add_argument("formula")

    interp = sub.add_parser("interp", help="interpret a formula in a model")
    interp.add_argument("--model", required=True,
                        choices=("rel", "totality", "phase", "wrel"))
    interp.add_argument("--space", help="phase-space file (phase model)")
    interp.add_argument("--depth", type=int, default=None,
                        help=f"fixpoint depth budget (default {DEFAULT_DEPTH}; "
                             f"env {DEPTH_ENV_VAR})")
    interp.add_argument("--bag", type=int, default=DEFAULT_BAG,
                        help=f"multiset size budget (default {DEFAULT_BAG})")
    interp.add_argument("formula")

    search = sub.add_parser("phase-search",
                            help="search small phase spaces for a counter-model")
    search.add_argument("--max-size", type=int, default=3)
    search.add_argument("formula")

    fix = sub.add_parser("fix", help="least fixpoint of a monotone map")
    fix.add_argument("--expr", required=True, help="expression file")
    fix.add_argument("--tol", default="1e-9")
    fix.add_argument("--max-iter", type=int, default=10000)
    fix.add_argument("--mode", choices=("float", "exact"), default="float")

    polar = sub.add_parser("polar",
                           help="bipolar membership over the [0,1] pole")
    polar.add_argument("--generators", required=True, help="matrix file")
    polar.add_argument("--point", required=True, help="vector file")

    adm = sub.add_parser("admissible", help="admissibility verdict for a pole")
    adm.add_argument("--pole", required=True, choices=POLES)

    return top


def _budgets(args) -> Budgets:
    depth = args.depth if getattr(args, "depth", None) is not None \
        else _default_depth()
    try:
        return Budgets(depth=depth, bag=getattr(args, "bag", DEFAULT_BAG))
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def _emit(args, payload, human_lines):
    if args.format == "machine":
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)
    return EXIT_OK


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def cmd_variance(args):
    from .formula import EMPTY_CONTEXT, check_variance, parse, to_text
    f = parse(args.formula)
    sort = check_variance(EMPTY_CONTEXT, f)
    payload = {"command": "variance", "formula": to_text(f),
               "sort": str(sort)}
    return _emit(args, payload, [f"sort: {sort}"])


def cmd_interp(args):
    from .formula import EMPTY_CONTEXT, check_variance, parse, to_text
    f = parse(args.formula)
    check_variance(EMPTY_CONTEXT, f)
    budgets = _budgets(args)
    budget_info = {"depth": budgets.depth, "bag": budgets.bag}
    if args.model == "rel":
        from .relmodel import interpret_carrier
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
        from .totality import interpret_totality
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
        from .phase import interpret_phase, parse_phase_space
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
    from .relmodel import interpret_carrier
    from .semiring import BOOL
    carrier = interpret_carrier(f, {}, budgets)
    vec = {str(e): "1" for e in carrier}
    payload = {"command": "interp", "model": "wrel",
               "formula": to_text(f), "budgets": budget_info,
               "semiring": BOOL.name,
               "carrier": [str(e) for e in carrier],
               "vector": vec,
               "stabilized": carrier.stabilized}
    lines = [f"carrier ({len(carrier)} elements, stabilized="
             f"{carrier.stabilized}); boolean characteristic vector:"]
    lines += [f"  {e}: 1" for e in sorted(vec)]
    return _emit(args, payload, lines)


def cmd_phase_search(args):
    from .formula import EMPTY_CONTEXT, check_variance, parse, to_text
    from .phase import (MAX_SEARCH_SIZE, render_phase_space,
                        search_counter_model)
    f = parse(args.formula)
    check_variance(EMPTY_CONTEXT, f)
    if args.max_size < 1 or args.max_size > MAX_SEARCH_SIZE:
        raise FileFormatError("--max-size must be between 1 and "
                              f"{MAX_SEARCH_SIZE}")
    found = search_counter_model(f, args.max_size)
    payload = {"command": "phase-search", "formula": to_text(f),
               "max_size": args.max_size,
               "counter_model": found.to_dict() if found else None}
    if found:
        lines = ["counter-model found:"]
        lines += ["  " + ln for ln in
                  render_phase_space(found).strip().splitlines()]
    else:
        lines = [f"no counter-model up to size {args.max_size}"]
    return _emit(args, payload, lines)


def cmd_fix(args):
    import math
    from fractions import Fraction

    from . import wrel
    expr = wrel.parse_funexpr(_read(args.expr))
    try:
        tol = Fraction(args.tol) if args.mode == "exact" else float(args.tol)
    except ValueError as exc:
        raise FileFormatError(f"--tol must be a number, got {args.tol!r}") \
            from exc
    if not 0 < tol < math.inf:  # also false for nan
        raise FileFormatError("--tol must be positive and finite")
    if args.max_iter <= 0:
        raise FileFormatError("--max-iter must be positive")
    if args.mode == "exact":
        result = wrel.kleene_fixpoint(expr, tol, args.max_iter, "exact")
    else:
        from .newton import certified_fixpoint
        result = certified_fixpoint(expr, tol, args.max_iter)
    report = result.to_dict()
    payload = {"command": "fix", "expr": args.expr,
               "tolerance": str(args.tol), "max_iter": args.max_iter,
               **report}
    lines = [f"{n} = {v}" for n, v in sorted(report["value"].items())]
    lines.append(f"residual: {report['residual']} "
                 f"(tol {args.tol}, {result.iterations} iterations, "
                 f"mode {result.mode})")
    if args.mode == "float" and result.certified:
        lines += [f"certified: {n} in [{lo}, {report['upper'][n]}]"
                  for n, lo in report["lower"].items()]
    elif args.mode == "float":
        lines.append("not certified: Kleene iteration from 0")
    return _emit(args, payload, lines)


def cmd_polar(args):
    from . import wrel
    gens = wrel.parse_matrix(_read(args.generators))
    point = wrel.parse_vector(_read(args.point))
    member = wrel.bipolar_member_matrix(gens, point)
    payload = {"command": "polar", "generators": args.generators,
               "point": args.point, "dimension": len(point.cols),
               "dimension_cap": wrel.POLAR_DIMENSION_CAP,
               "generator_count": len(gens.rows), "member": member}
    return _emit(args, payload,
                 [f"member of the bipolar: {member}"])


def cmd_admissible(args):
    from . import wrel
    pole = wrel.NAMED_POLES[args.pole]()
    report = wrel.is_admissible_pole(pole)
    payload = {"command": "admissible", "pole": pole.name,
               **report.to_dict(pole.semiring)}
    lines = [f"{pole.name}: {report.verdict.value} ({report.reason})"]
    if report.witness_chain:
        chain = ", ".join(pole.semiring.to_str(v) for v in report.witness_chain)
        lines.append(f"witness chain: {chain}, ... with supremum "
                     f"{pole.semiring.to_str(report.witness_sup)}")
    return _emit(args, payload, lines)


_COMMANDS = {
    "variance": cmd_variance,
    "interp": cmd_interp,
    "phase-search": cmd_phase_search,
    "fix": cmd_fix,
    "polar": cmd_polar,
    "admissible": cmd_admissible,
}

_INPUT_ERRORS = (ParseError, FileFormatError, UnboundVariable)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MullsemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before the answer was written",
              file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
