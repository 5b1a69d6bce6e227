"""Count sequences: rational series, powers, convolutions, exact ratios,
window estimates, and the decimal rendering of ratio cells.

All counts are Python ints. ``decimal_str`` renders a table's ratio cell
from its integer numerator and denominator; ``ratio`` gives exact
fractions.Fraction values and is the one function here that imports
``fractions``. Floats only appear in fitted slopes, never in the counts
themselves. The ratio-vanishing checks live in ``vanishing``.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, repeat
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


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
    from fractions import Fraction

    if len(numer) != len(denom):
        raise ValueError(f"length mismatch: {len(numer)} vs {len(denom)}")
    vals = []
    for i in range(len(numer)):
        if denom[i] == 0:
            raise ZeroDivisionError(f"denominator count is 0 at radius {i}")
        vals.append(Fraction(numer[i], denom[i]))
    return tuple(vals)


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


def decimal_str(value: int | Fraction, digits: int = 12, *, denominator: int = 1) -> str:
    """Render value / denominator to ``digits`` places, round-half-even.
    ``value`` is an int or an exact fraction, so a cell whose numerator and
    denominator are counts needs no Fraction; the pair need not be reduced."""
    num, den = value.numerator, value.denominator * denominator
    if den < 0:
        num, den = -num, -den
    q, r = divmod(abs(num) * 10 ** digits, den)
    if 2 * r > den or 2 * r == den and q & 1:
        q += 1
    sign = "-" if num < 0 else ""
    if not digits:
        return f"{sign}{q}"
    whole, frac = divmod(q, 10 ** digits)
    return f"{sign}{whole}.{frac:0{digits}d}"
