"""Exception types shared across the workbench."""


class MullsemError(Exception):
    """Base class for all workbench errors."""


class ParseError(MullsemError):
    """Syntax error with position and the set of expected tokens."""

    def __init__(self, message, line, column, offset, expected=()):
        self.line = line
        self.column = column
        self.offset = offset
        self.expected = frozenset(expected)
        detail = f"{message} at line {line}, column {column} (offset {offset})"
        if expected:
            detail += "; expected " + ", ".join(sorted(self.expected))
        super().__init__(detail)


class UnboundVariable(MullsemError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unbound variable '{name}'")


class VarianceError(MullsemError):
    """A subterm cannot be given a consistent variance sort."""

    def __init__(self, subterm, detail):
        self.subterm = subterm
        self.detail = detail
        super().__init__(f"variance error in '{subterm}': {detail}")


class UnsupportedConstructor(MullsemError):
    """The selected model does not interpret this constructor."""

    def __init__(self, constructor, model):
        self.constructor = constructor
        self.model = model
        super().__init__(f"{model} model does not support {constructor}")


class LatticeError(MullsemError):
    """Order-structure laws fail (missing bounds, non-lattice, ...)."""


class IterationBudgetExceeded(MullsemError):
    def __init__(self, budget, last=None):
        self.budget = budget
        self.last = last
        super().__init__(f"no stabilization within {budget} iterations")


class BudgetExceeded(MullsemError):
    """A carrier or iteration exceeded its configured budget."""


class CarrierMismatch(MullsemError):
    """Relation endpoints do not match the expected carriers."""


class CarrierTooLarge(MullsemError):
    def __init__(self, size, bound):
        self.size = size
        self.bound = bound
        super().__init__(f"carrier of size {size} exceeds the exhaustive bound {bound}")


class NotInvertible(MullsemError):
    """The supplied structure map has no two-sided inverse."""


class IndexMismatch(MullsemError):
    """Matrix index sets do not line up for the requested operation."""


class DimensionCap(MullsemError):
    def __init__(self, dim, cap):
        self.dim = dim
        self.cap = cap
        super().__init__(f"dimension {dim} exceeds the configured cap {cap}")


class EmptyGenerators(MullsemError):
    def __init__(self):
        super().__init__("the generator set must be nonempty")


class PreconditionFailed(MullsemError):
    """A sampled precondition (e.g. a commuting square) does not hold."""


class FileFormatError(MullsemError):
    """An input file does not match its declared format."""
