"""``mullsem fix``: the least fixpoint of a polynomial system."""

from ..cli import _emit, _read
from ..errors import FileFormatError


def run(args):
    from .. import newton
    expr = newton.parse_funexpr(_read(args.expr))
    try:
        tol = float(args.tol)
    except ValueError as exc:
        raise FileFormatError(f"--tol must be a number, got {args.tol!r}") \
            from exc
    if not 0 < tol < float("inf"):  # also false for nan, and for 1e-5000
        raise FileFormatError("--tol must be positive and finite")
    if args.max_iter <= 0:
        raise FileFormatError("--max-iter must be positive")
    solve = newton.exact_fixpoint if args.mode == "exact" \
        else newton.certified_fixpoint
    result = solve(expr, tol, args.max_iter)
    report = result.to_dict()
    payload = {"command": "fix", "expr": args.expr,
               "tolerance": str(args.tol), "max_iter": args.max_iter,
               **report}
    lines = [f"{n} = {v}" for n, v in sorted(report["value"].items())]
    lines.append(f"residual: {report['residual']} "
                 f"(tol {args.tol}, {result.iterations} iterations, "
                 f"mode {result.mode})")
    if result.certified:
        lines += [f"certified: {n} in [{lo}, {report['upper'][n]}]"
                  for n, lo in report["lower"].items()]
    else:
        lines.append("not certified: Kleene iteration from 0")
    if args.mode == "exact":
        lines.append("exact: the least fixpoint is upper" if result.exact
                     else "not exact: the bracket is the answer")
    return _emit(args, payload, lines)
