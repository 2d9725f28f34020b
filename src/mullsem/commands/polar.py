"""``mullsem polar``: bipolar membership over the [0,1] pole."""

from ..cli import _emit, _read
from ..errors import FileFormatError


def run(args):
    from .. import poles
    gens = poles.parse_matrix(_read(args.generators))
    point = poles.parse_vector(_read(args.point))
    try:
        member = poles.bipolar_member_matrix(gens, point)
    except ValueError as exc:  # an inf entry, which matrix files allow
        raise FileFormatError(str(exc)) from exc
    payload = {"command": "polar", "generators": args.generators,
               "point": args.point, "dimension": len(point.cols),
               "dimension_cap": poles.POLAR_DIMENSION_CAP,
               "generator_count": len(gens.rows), "member": member}
    return _emit(args, payload,
                 [f"member of the bipolar: {member}"])
