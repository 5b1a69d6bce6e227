"""Exact ball, sphere and conjugacy-class counting in some finitely
generated groups, with a brute-force Cayley-graph oracle for
cross-validation and a CLI that emits deterministic growth tables.

The names below are served on first access (PEP 562), each from its own
module, so ``import conjratio`` loads no module until a name is read.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "BudgetExceededError": "errors",
    "default_budget": "errors",
    "WindowEstimate": "sequences",
    "convolve": "sequences",
    "decimal_str": "sequences",
    "ratio": "sequences",
    "window_estimate": "sequences",
    "VanishingReport": "vanishing",
    "check_ratio_vanishes": "vanishing",
    "stolz_cesaro": "vanishing",
    "ClosureHypothesisError": "words",
    "cycrep_counts": "words",
    "least_rotation": "words",
    "parse_word": "words",
    "primitive_counts": "words",
    "word_str": "words",
    "GraphFormatError": "raag",
    "GraphSpec": "raag",
    "Raag": "raag",
    "graph_from_file": "raag",
    "graph_from_text": "raag",
}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
