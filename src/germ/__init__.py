"""Exact invariants of isolated hypersurface singularities.

Milnor and Tjurina numbers through local standard bases, plane-branch
numerical semigroups, closed-form families, and a catalog of
inequality and conjecture checks, all in exact rational arithmetic.
"""

from .bounds import (BOUND_IDS, BoundReport, BoundVerdict, bound_report,
                     kerner_nemethi_constant, stirling2, superisolated_invariants,
                     wahl_tau_min)
from .corpus import ReportRow, SweepResult, SweepSpec, evaluate_germ, generate_corpus, sweep
from .errors import (ExpansionTooLargeError, GermError, MonomialOverflowError, NotAGermError,
                     NotPlaneBranchError, ParseError, UnknownVariableError)
from .invariants import (GermInvariants, find_positive_weights, germ_invariants,
                         milnor_number, suspend, tjurina_number)
from .jets import jet_quotient_dimension
from .localalg import (GREATER, INFINITE, LESS, EQUAL, LocalOrder, StandardBasis,
                       extend_standard_basis, quotient_codimension, standard_basis)
from .poly import Monomial, Polynomial, parse_polynomial
from .semigroup import (NumericalSemigroup, PlaneBranchCertificate, branch_milnor,
                        certify_plane_branch, minimal_generators, monomial_curve_equations,
                        semigroup_from_generators)

__version__ = "0.1.0"

__all__ = [
    "BOUND_IDS", "BoundReport", "BoundVerdict", "bound_report",
    "kerner_nemethi_constant", "stirling2", "superisolated_invariants", "wahl_tau_min",
    "ReportRow", "SweepResult", "SweepSpec", "evaluate_germ", "generate_corpus", "sweep",
    "ExpansionTooLargeError", "GermError", "MonomialOverflowError", "NotAGermError",
    "NotPlaneBranchError", "ParseError", "UnknownVariableError",
    "GermInvariants", "find_positive_weights", "germ_invariants", "milnor_number",
    "suspend", "tjurina_number",
    "jet_quotient_dimension",
    "GREATER", "INFINITE", "LESS", "EQUAL", "LocalOrder", "StandardBasis",
    "extend_standard_basis", "quotient_codimension", "standard_basis",
    "Monomial", "Polynomial", "parse_polynomial",
    "NumericalSemigroup", "PlaneBranchCertificate",
    "branch_milnor", "certify_plane_branch", "minimal_generators",
    "monomial_curve_equations", "semigroup_from_generators",
]
