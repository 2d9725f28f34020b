"""``mullsem phase-search``: a counter-model among small phase spaces."""

from ..cli import _emit
from ..errors import FileFormatError


def run(args):
    from ..formula import EMPTY_CONTEXT, check_variance, parse, to_text
    from ..phase import (MAX_SEARCH_SIZE, render_phase_space,
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
