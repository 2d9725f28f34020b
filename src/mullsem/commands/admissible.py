"""``mullsem admissible``: the admissibility verdict of a named pole."""

from ..cli import _emit


def run(args):
    from .. import poles
    pole = poles.NAMED_POLES[args.pole]()
    report = poles.is_admissible_pole(pole)
    payload = {"command": "admissible", "pole": pole.name,
               **report.to_dict(pole.semiring)}
    lines = [f"{pole.name}: {report.verdict.value} ({report.reason})"]
    if report.witness_chain:
        chain = ", ".join(pole.semiring.to_str(v) for v in report.witness_chain)
        lines.append(f"witness chain: {chain}, ... with supremum "
                     f"{pole.semiring.to_str(report.witness_sup)}")
    return _emit(args, payload, lines)
