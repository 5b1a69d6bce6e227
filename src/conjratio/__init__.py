"""Exact ball, sphere and conjugacy-class counting in some finitely
generated groups, with a brute-force Cayley-graph oracle for
cross-validation and a CLI that emits deterministic growth tables.
"""

from .errors import BudgetExceededError, default_budget
from .sequences import (
    VanishingReport,
    WindowEstimate,
    check_ratio_vanishes,
    convolve,
    decimal_str,
    ratio,
    stolz_cesaro,
    window_estimate,
)
from .words import (
    ClosureHypothesisError,
    cycrep_counts,
    least_rotation,
    parse_word,
    primitive_counts,
    word_str,
)
from .raag import GraphFormatError, GraphSpec, Raag, graph_from_file, graph_from_text

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ClosureHypothesisError",
    "GraphFormatError",
    "GraphSpec",
    "Raag",
    "VanishingReport",
    "WindowEstimate",
    "check_ratio_vanishes",
    "convolve",
    "cycrep_counts",
    "decimal_str",
    "default_budget",
    "graph_from_file",
    "graph_from_text",
    "least_rotation",
    "parse_word",
    "primitive_counts",
    "ratio",
    "stolz_cesaro",
    "window_estimate",
    "word_str",
    "__version__",
]
