"""``mullsem variance``: the variance judgement of a formula."""

from ..cli import _emit


def run(args):
    from ..formula import EMPTY_CONTEXT, check_variance, parse, to_text
    f = parse(args.formula)
    sort = check_variance(EMPTY_CONTEXT, f)
    payload = {"command": "variance", "formula": to_text(f),
               "sort": str(sort)}
    return _emit(args, payload, [f"sort: {sort}"])
