"""Shared runtime guards: the element budget and the reading of integers."""

from __future__ import annotations

import os
import sys

DEFAULT_BUDGET = 5_000_000


def parse_int(text: str, wanted: str, *, digits_only: bool = False) -> int:
    """``int(text)``, or a ValueError of one short line: ``wanted``, then the
    text if it is short, else its length. ``digits_only`` also refuses what
    ``int`` reads besides digits after one optional '-' (a '+', spaces,
    underscores). CPython converts at most ``sys.get_int_max_str_digits()``
    digits, so a text past that limit names it."""
    if not digits_only or text.removeprefix("-").isdecimal():
        try:
            return int(text)
        except ValueError:
            pass
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        wanted += f" of at most {limit} digits"
    got = repr(text) if len(text) <= 40 else f"{len(text)} characters"
    raise ValueError(f"{wanted}, got {got}")


def default_budget() -> int:
    """Element budget for enumerations, overridable via CONJRATIO_BUDGET."""
    raw = os.environ.get("CONJRATIO_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    value = parse_int(raw, "CONJRATIO_BUDGET must be an integer")
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

