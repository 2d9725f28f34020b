"""mullsem: executable semantics for linear logic types with fixpoints.

Parses and variance-checks type expressions with least/greatest
fixpoint binders and interprets them in concrete models: the
relational model, non-uniform totality spaces (focused orthogonality
over relations), finite phase spaces, and weighted relations over
continuous semirings.

Importing the package loads no model: each public name below, and each
submodule, is imported on first access (PEP 562), so a command pays
only for the model it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "budgets": ("Budgets", "DEFAULT_BUDGETS"),
    "fibration": ("FiniteLattice", "MonotoneOp", "check_total_morphism",
                  "compose_rel", "functor_on_relations", "gfp", "lfp"),
    "formula": ("Bot", "Context", "EMPTY_CONTEXT", "Formula", "Lolli", "Mu",
                "Neg", "Nu", "OfCourse", "One", "Par", "Plus", "Sort",
                "Tensor", "Top", "Var", "WhyNot", "With", "Zero", "alpha_eq",
                "check_variance", "free_vars", "nnf", "parse", "substitute",
                "to_text"),
    "newton": ("CertifiedResult", "ExactResult", "FunExpr",
               "certified_fixpoint", "check_uniformity", "exact_fixpoint",
               "kleene_fixpoint"),
    "phase": ("PhaseSpace", "fact_closure", "holds", "interpret_phase",
              "parse_phase_space", "search_counter_model"),
    "poles": ("PoleSpec", "SemiringMatrix", "Verdict", "bipolar_member",
              "is_admissible_pole"),
    "relmodel": ("Carrier", "Elem", "Relation", "interpret_carrier"),
    "totality": ("TotalitySpace", "UpFamily", "biclosure",
                 "interpret_totality", "orthogonal"),
    "wrel": ("compose", "orthogonal_pair"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    """Import a public name's submodule, or a submodule, on first access
    and keep the value in the package namespace."""
    if name in _SOURCE:
        value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    else:
        try:
            value = import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
