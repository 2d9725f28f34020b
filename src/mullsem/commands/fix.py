"""``mullsem fix``: the least fixpoint of a polynomial system."""

from ..cli import _emit, _read
from ..errors import FileFormatError


def run(args):
    import math
    from fractions import Fraction

    from .. import newton
    expr = newton.parse_funexpr(_read(args.expr))
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
        result = newton.kleene_fixpoint(expr, tol, args.max_iter, "exact")
    else:
        result = newton.certified_fixpoint(expr, tol, args.max_iter)
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
