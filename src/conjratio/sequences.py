"""Count sequences, exact ratios, growth estimates and vanishing checks.

All counts are Python ints and all ratios are fractions.Fraction; floats
only appear in fitted slopes, never in the counts themselves.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import chain, repeat
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

MODE_INCREMENT = "increment"
MODE_GEOMETRIC = "geometric"


def iter_series(numer: Iterable[int], denom: Iterable[int]) -> Iterator[int]:
    """The coefficients of numer(x) / denom(x) from x^0 up, without end.

    Both polynomials are coefficient iterables from x^0 up, read one term
    at a time, so a huge degree costs only the terms read. denom(0) must be
    1 (ValueError otherwise); then s(n) = numer(n) - sum of denom(k) s(n - k)
    over k >= 1, keeping as many past terms as denom's degree. s(n) reads
    denom no further than denom(n)."""
    numer, denom = chain(numer, repeat(0)), iter(denom)
    if next(denom, None) != 1:
        raise ValueError("the denominator's constant term must be 1")
    tail, past = [], deque()  # denom(1), denom(2), ... as read; s(n - 1), s(n - 2), ...
    for d in chain((None,), denom, repeat(None)):  # s(0) reads no denom(k), k >= 1
        if d is not None:
            tail.append(d)
        elif len(past) > len(tail):
            past.pop()
        s = next(numer) - sum(map(mul, tail, past))
        past.appendleft(s)
        yield s


def iter_power(poly: Sequence[int], exponent: int) -> Iterator[int]:
    """The coefficients of poly(x)^exponent from x^0 up, one at a time, by
    J. C. P. Miller's recurrence n a(n) = sum over 1 <= i <= deg of
    ((exponent + 1) i - n) poly(i) a(n - i), whose division is exact.
    poly(0) must be 1; a huge exponent costs only the terms read."""
    if poly[0] != 1:
        raise ValueError("the polynomial's constant term must be 1")
    degree = len(poly) - 1
    past = deque([1], maxlen=degree)  # a(n - 1), a(n - 2), ..., at most degree of them
    yield 1
    for n in range(1, degree * exponent + 1):
        term = sum(((exponent + 1) * i - n) * poly[i] * a for i, a in enumerate(past, 1)) // n
        past.appendleft(term)
        yield term


def ratio(numer: Sequence[int], denom: Sequence[int]) -> tuple[Fraction, ...]:
    """Pointwise numer[n] / denom[n] as exact fractions."""
    if len(numer) != len(denom):
        raise ValueError(f"length mismatch: {len(numer)} vs {len(denom)}")
    vals = []
    for i in range(len(numer)):
        if denom[i] == 0:
            raise ZeroDivisionError(f"denominator count is 0 at radius {i}")
        vals.append(Fraction(numer[i], denom[i]))
    return tuple(vals)


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


def convolve(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """c[n] = sum of left[i] * right[n-i]; the ball counts of a direct
    product are the convolution of one factor's balls with the other's
    spheres."""
    if len(left) != len(right):
        raise ValueError(f"length mismatch: {len(left)} vs {len(right)}")
    n = len(left)
    return [sum(left[i] * right[k - i] for i in range(k + 1)) for k in range(n)]


def poly_add(*polys: Sequence[int]) -> list[int]:
    """The sum of coefficient lists, from x^0 up."""
    out = [0] * max(map(len, polys))
    for poly in polys:
        for i, x in enumerate(poly):
            out[i] += x
    return out


def poly_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """The full product of two coefficient lists, from x^0 up."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


class WindowEstimate(NamedTuple):
    """limsup proxy over the last ``window`` terms: the running peak plus a
    least-squares slope of those terms (slope near 0 suggests the peak is
    already representative)."""

    peak: Fraction
    slope: float
    window: int


def window_estimate(values: Sequence[Fraction], window: int = 5) -> WindowEstimate:
    import statistics

    if window < 2:
        raise ValueError("window must be at least 2")
    if len(values) < window:
        raise ValueError(f"need at least {window} terms, got {len(values)}")
    tail = values[-window:]
    peak = max(tail)
    xs = list(range(window))
    slope, _ = statistics.linear_regression(xs, [float(v) for v in tail])
    return WindowEstimate(peak=peak, slope=slope, window=window)


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


def decimal_str(value: Fraction, digits: int = 12) -> str:
    """Render an exact fraction to ``digits`` places, round-half-even."""
    num, den = value.numerator, value.denominator
    q, r = divmod(abs(num) * 10 ** digits, den)
    if 2 * r > den or 2 * r == den and q & 1:
        q += 1
    sign = "-" if num < 0 else ""
    if not digits:
        return f"{sign}{q}"
    whole, frac = divmod(q, 10 ** digits)
    return f"{sign}{whole}.{frac:0{digits}d}"
