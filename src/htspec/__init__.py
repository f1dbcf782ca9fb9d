"""htspec: set spectra of k-uniform hypertrees via matching polynomials
of connected induced subtrees, with structural and spectral power-tree
recognition."""

from .core import (
    UniformHypergraph,
    build,
    comb,
    induced,
    is_connected,
    is_hyperforest,
    is_hypertree,
    is_power_tree,
    loose_path,
    power,
    random_hypertree,
    star,
)
from .matching import (
    AlphaPolynomial,
    MatchingCounts,
    alpha_poly,
    alpha_str,
    expand_to_x,
    matching_counts_bruteforce,
    matching_counts_tree,
    matching_polynomial,
    to_alpha_poly,
    x_str,
)
from .spectra import (
    Eigenpair,
    SpectrumSet,
    alpha_roots,
    eigen_residual,
    find_totally_nonzero_eigenvector,
    is_cyclotomic_spectrum,
    lift_to_x,
    rotate_eigenpair,
    set_spectrum,
    spectral_radius,
)
from .subtrees import (
    EdgeSubset,
    SubtreeCatalog,
    distinct_matching_polynomials,
    subtree_hypergraph,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaPolynomial",
    "Eigenpair",
    "EdgeSubset",
    "MatchingCounts",
    "SpectrumSet",
    "SubtreeCatalog",
    "UniformHypergraph",
    "alpha_poly",
    "alpha_roots",
    "alpha_str",
    "build",
    "comb",
    "distinct_matching_polynomials",
    "eigen_residual",
    "expand_to_x",
    "find_totally_nonzero_eigenvector",
    "induced",
    "is_connected",
    "is_cyclotomic_spectrum",
    "is_hyperforest",
    "is_hypertree",
    "is_power_tree",
    "lift_to_x",
    "loose_path",
    "matching_counts_bruteforce",
    "matching_counts_tree",
    "matching_polynomial",
    "power",
    "random_hypertree",
    "rotate_eigenpair",
    "set_spectrum",
    "spectral_radius",
    "star",
    "subtree_hypergraph",
    "to_alpha_poly",
    "x_str",
]
