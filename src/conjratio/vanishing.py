"""Hypothesis-checked ratio-vanishing tests and the Stolz-Cesaro transform.

Library only: no CLI verb imports this module. Every ratio here is an
exact fractions.Fraction; floats only appear in the fitted decay factor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .sequences import convolve

MODE_INCREMENT = "increment"
MODE_GEOMETRIC = "geometric"


def stolz_cesaro(numer: Sequence[int], denom: Sequence[int]) -> list[Fraction]:
    """(a[n+1]-a[n]) / (b[n+1]-b[n]); requires b strictly increasing."""
    n = min(len(numer), len(denom))
    if n < 2:
        raise ValueError("need at least two terms")
    out = []
    for i in range(n - 1):
        db = denom[i + 1] - denom[i]
        if db <= 0:
            raise ValueError(f"denominator sequence not strictly increasing at {i}")
        out.append(Fraction(numer[i + 1] - numer[i], db))
    return out


class VanishingReport(NamedTuple):
    """Outcome of a ratio-vanishing test.

    ``checks`` lists hypothesis names that were machine-verified, ``violated``
    the ones that failed. ``ratios`` holds the transformed comparison
    sequence whose trend is being judged.
    """

    mode: str
    checks: tuple[str, ...]
    violated: tuple[str, ...]
    ratios: tuple[Fraction, ...]
    delta: Optional[float] = None
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violated and self.trending_to_zero

    @property
    def final_ratio(self) -> Fraction:
        return self.ratios[-1]

    @property
    def trending_to_zero(self) -> bool:
        return _tends_to_zero(self.ratios)


def _tends_to_zero(values: Sequence[Fraction]) -> bool:
    """Finite-data proxy for decay: the last half never increases and ends
    strictly below both its own start and the first term overall."""
    if len(values) < 4:
        return False
    tail = values[len(values) // 2 :]
    if any(b > a for a, b in zip(tail, tail[1:])):
        return False
    return tail[-1] < tail[0] and tail[-1] < values[0]


def _fit_delta(small: Sequence[int], big: Sequence[int]) -> Optional[float]:
    """Least-squares fit of log(small[n]/big[n]) ~ n log(delta) over the
    last half of the data; None when a term is 0."""
    import math
    import statistics

    n = min(len(small), len(big))
    start = max(1, n // 2)
    xs, ys = [], []
    for i in range(start, n):
        if small[i] <= 0 or big[i] <= 0:
            return None
        xs.append(i)
        ys.append(math.log(small[i] / big[i]))
    if len(xs) < 2:
        return None
    slope, _ = statistics.linear_regression(xs, ys)
    return math.exp(slope)


def check_ratio_vanishes(
    numer_small: Sequence[int],
    denom_small: Sequence[int],
    numer_big: Sequence[int],
    denom_big: Sequence[int],
    mode: str = MODE_INCREMENT,
) -> VanishingReport:
    """Test whether the combined ratio collapses to 0 when the small pair
    is negligible against the big pair.

    ``increment`` forms sum_i small[i] * big_increment[n-i] on both levels,
    i.e. convolves each small sequence with the big side's increments (the
    direct-product ball construction).  ``geometric`` convolves with the big
    side's running totals instead and additionally fits a decay factor for
    denom_big/denom_small, which must come out below 1.
    """
    if mode not in (MODE_INCREMENT, MODE_GEOMETRIC):
        raise ValueError(f"unknown mode {mode!r}")
    n = min(len(numer_small), len(denom_small), len(numer_big), len(denom_big))
    if n < 4:
        raise ValueError("need at least 4 aligned terms")
    a = list(numer_small[:n])
    b = list(denom_small[:n])
    c = list(numer_big[:n])
    d = list(denom_big[:n])

    checks: list[str] = []
    violated: list[str] = []
    notes: list[str] = []

    def check(name: str, holds: bool):
        (checks if holds else violated).append(name)

    check("small numerator nondecreasing", all(x <= y for x, y in zip(a, a[1:])))
    check("small denominator nondecreasing", all(x <= y for x, y in zip(b, b[1:])))
    check("big numerator nondecreasing", all(x <= y for x, y in zip(c, c[1:])))
    check("big denominator strictly increasing", all(x < y for x, y in zip(d, d[1:])))
    check("numerators dominated by denominators", all(x <= y for x, y in zip(a, b)) and all(x <= y for x, y in zip(c, d)))
    if all(x > 0 for x in b):
        check("small ratio tends toward 0", _tends_to_zero([Fraction(a[i], b[i]) for i in range(n)]))
    else:
        violated.append("small ratio tends toward 0")

    delta: Optional[float] = None
    if mode == MODE_INCREMENT:
        c_spheres = [c[0]] + [c[i + 1] - c[i] for i in range(n - 1)]
        d_spheres = [d[0]] + [d[i + 1] - d[i] for i in range(n - 1)]
        mixed = convolve(a, c_spheres)
        full = convolve(b, d_spheres)
        notes.append("ratios convolve the pairs against the big side's increments")
    else:
        delta = _fit_delta(d, b)
        check("fitted decay factor below 1", delta is not None and delta < 1.0)
        mixed = convolve(a, c)
        full = convolve(b, d)
        notes.append("ratios convolve the pairs against the big side's running totals")
    ratios = []
    for i in range(n):
        if full[i] == 0:
            raise ZeroDivisionError(f"combined denominator count is 0 at radius {i}")
        ratios.append(Fraction(mixed[i], full[i]))

    return VanishingReport(
        mode=mode,
        checks=tuple(checks),
        violated=tuple(violated),
        ratios=tuple(ratios),
        delta=delta,
        notes=tuple(notes),
    )
