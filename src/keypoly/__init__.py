"""Key polynomials and the combinatorics of their monomial supports.

The package computes key polynomials exactly, enumerates skyline-diagram
combinatorics (lower diagrams, column-strict flagged fillings), generates
the reachability order of the two weight moves, and checks Newton
polytope lattice points with an exact rational LP, together with a batch
harness that cross-verifies the set equalities among all of these at
small scale.
"""

from .bruhat import (
    bruhat_interval,
    bruhat_leq,
    interval_polytope,
    inversions,
    longest_element,
    verify_qww0,
)
from .diagram import (
    Diagram,
    diagram_leq,
    enumerate_lower_diagrams,
    lower_monomials,
    lower_subsets,
    monomial_of_diagram,
    skyline,
    subset_leq,
)
from .filling import (
    Filling,
    descend_to_alpha,
    enumerate_fillings,
    enumerate_sorted_fillings,
    lemma_step,
    optimize,
    promote_entry,
    row_index_filling,
    sort_columns,
    swap_values,
    weight,
    weight_set,
    witness_filling,
)
from .moves import (
    Move,
    MoveChain,
    MoveError,
    apply_move,
    closure,
    closure_order,
    dominance_leq,
    dominated_rearrangements,
    legal_moves,
    leq_kappa,
)
from .polynomial import (
    SparsePolynomial,
    demazure,
    divided_difference,
    exponent_vectors,
    key_polynomial,
)
from .polytope import (
    VPolytope,
    contains,
    lattice_points,
    newton_polytope,
    polytope_equal,
    polytope_subset,
    snp_check,
)
from .verify import SUITE_NAMES, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "SparsePolynomial",
    "divided_difference",
    "demazure",
    "key_polynomial",
    "exponent_vectors",
    "Diagram",
    "skyline",
    "subset_leq",
    "diagram_leq",
    "lower_subsets",
    "enumerate_lower_diagrams",
    "lower_monomials",
    "monomial_of_diagram",
    "Filling",
    "weight",
    "weight_set",
    "row_index_filling",
    "enumerate_fillings",
    "enumerate_sorted_fillings",
    "sort_columns",
    "optimize",
    "promote_entry",
    "swap_values",
    "lemma_step",
    "descend_to_alpha",
    "witness_filling",
    "Move",
    "MoveChain",
    "MoveError",
    "apply_move",
    "legal_moves",
    "closure",
    "closure_order",
    "leq_kappa",
    "dominance_leq",
    "dominated_rearrangements",
    "VPolytope",
    "newton_polytope",
    "contains",
    "lattice_points",
    "snp_check",
    "polytope_subset",
    "polytope_equal",
    "bruhat_leq",
    "bruhat_interval",
    "interval_polytope",
    "inversions",
    "longest_element",
    "verify_qww0",
    "SUITE_NAMES",
    "VerificationReport",
    "run_verification",
]
