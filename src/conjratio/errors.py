"""Shared runtime guard: the element budget."""

from __future__ import annotations

import os

DEFAULT_BUDGET = 5_000_000


def default_budget() -> int:
    """Element budget for enumerations, overridable via CONJRATIO_BUDGET."""
    raw = os.environ.get("CONJRATIO_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"CONJRATIO_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("CONJRATIO_BUDGET must be positive")
    return value


class BudgetExceededError(RuntimeError):
    """An enumeration hit its element budget.

    ``completed`` is the largest radius whose counts were finished before
    the budget ran out.
    """

    def __init__(self, completed: int, budget: int):
        self.completed = completed
        self.budget = budget
        super().__init__(f"element budget {budget} exceeded; completed radius {completed}")

