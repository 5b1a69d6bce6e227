"""Lamplighter group (order-2 lamps over the integer line).

An element is a finite set of lit lamp positions plus the final cursor
position. Generators: toggle the lamp under the cursor, move the cursor
one step either way. Word length has a closed form (light every lamp,
walk a shortest route covering them, end on the cursor). Summed over lamp
windows it gives a rational growth series (Parry, *Growth series of some
wreath products*, 1992), from which the sphere counts come by a linear
recurrence. Conjugacy classes by least length have a closed form too:
span binomials for classes with the cursor at 0, binary necklaces for the
rest. The element enumeration ``elements_by_length`` walks the same lamp
windows (``_windows``); it and the binomial sum over those windows are
the test routes for both counts.
"""

from __future__ import annotations

import itertools
from math import comb, gcd
from typing import Callable, Iterator, NamedTuple

from .sequences import iter_series
from .words import divisors, euler_phi, least_rotation


class LampElement(NamedTuple):
    lamps: frozenset[int]
    cursor: int


IDENTITY = LampElement(frozenset(), 0)


def element(lamps=(), cursor: int = 0) -> LampElement:
    return LampElement(frozenset(lamps), cursor)


def multiply(x: LampElement, y: LampElement) -> LampElement:
    shifted = {p + x.cursor for p in y.lamps}
    return LampElement(x.lamps.symmetric_difference(shifted), x.cursor + y.cursor)


def invert(x: LampElement) -> LampElement:
    return LampElement(frozenset(p - x.cursor for p in x.lamps), -x.cursor)


TOGGLE = element((0,), 0)
STEP = element((), 1)


def generators() -> tuple[LampElement, ...]:
    return (TOGGLE, STEP, invert(STEP))


def conjugator(s: LampElement) -> Callable[[LampElement], LampElement]:
    """x -> s^-1 x s for a generator s: the toggle flips the lamps at 0 and
    at the cursor, a step by d shifts every lamp by -d."""
    if s == TOGGLE:
        return lambda x: x if x.cursor == 0 else LampElement(x.lamps ^ {0, x.cursor}, x.cursor)
    d = s.cursor
    return lambda x: LampElement(frozenset(p - d for p in x.lamps), x.cursor)


def word_length(x: LampElement) -> int:
    """|lamps| toggles plus the shortest walk from 0 through every lit lamp
    ending at the cursor: 2(q - p) - |cursor| over the spanned window."""
    pts = set(x.lamps) | {0, x.cursor}
    p, q = min(pts), max(pts)
    return len(x.lamps) + 2 * (q - p) - abs(x.cursor)


def _windows(max_n: int) -> Iterator[tuple[int, int, int, int]]:
    """(cursor, p, q, base walking cost) with base <= max_n; (p, q) is the
    exact span of lamps-with-endpoints, so each element appears once."""
    for m in range(-max_n, max_n + 1):
        lo, hi = min(0, m), max(0, m)
        p = lo
        while True:
            base_p = 2 * (hi - p) - abs(m)
            if base_p > max_n:
                break
            q = hi
            while True:
                base = 2 * (q - p) - abs(m)
                if base > max_n:
                    break
                yield m, p, q, base
                q += 1
            p -= 1


SERIES = ((1, 2, 0, -3, -3, 0, 2, 1),  # (1 + x)(1 + x + x^2)(1 - x^2)^2
          (1, -1, -3, 0, 5, 3, -2, -3, -1))  # (1 - x - x^2)(1 - x^2 - x^3)^2
"""The growth series S(x) as (numerator, denominator) coefficients from
x^0 up; the comments give both factored.

Derivation from ``_windows``: an element is its cursor m, its lamp
window [p, q] around [min(0, m), max(0, m)], and its lit lamps. The
window costs the walk 2(q - p) - |m|; an overhang end beyond the
cursor's span must be lit, and every other position in the window is
free, so each contributes a factor 1 + x. An overhang of a >= 1 steps
on one side thus gives x^(2a) * x * (1 + x)^(a - 1), and with a = 0
giving 1 the side sums to F = 1 + x^3 / (1 - x^2 - x^3)
= (1 - x^2) / (1 - x^2 - x^3). Cursor 0 leaves the one position 0
free, so it gives (1 + x) F^2; cursor +-m walks m steps over m + 1 free
positions and gives x^m (1 + x)^(m + 1) F^2 each. Summing over m,

    S = (1 + x) F^2 (1 + 2x(1 + x) / (1 - x - x^2)),

which factors as in the comments. So for n >= 8, s(n) = s(n-1) + 3s(n-2)
- 5s(n-4) - 3s(n-5) + 2s(n-6) + 3s(n-7) + s(n-8).
"""


def sphere_counts(max_n: int) -> list[int]:
    """Exact |S(0..max_n)| from the rational growth series."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return list(itertools.islice(iter_series(*SERIES), max_n + 1))


def elements_by_length(max_n: int) -> Iterator[tuple[LampElement, int]]:
    """Every element of length <= max_n, exactly once, with its length."""
    for m, p, q, base in _windows(max_n):
        lo, hi = min(0, m), max(0, m)
        required = [r for r in (p, q) if r < lo or r > hi]
        free = [r for r in range(p, q + 1) if r not in required]
        budget = max_n - base - len(required)
        if budget < 0:
            continue
        for j in range(min(budget, len(free)) + 1):
            for chosen in itertools.combinations(free, j):
                lamps = frozenset(required).union(chosen)
                yield LampElement(lamps, m), base + len(lamps)


def conj_key(x: LampElement):
    """Complete conjugacy invariant.

    Cursor 0: lamp toggles conjugate away, cursor moves translate, so the
    key is the lamp set slid to start at 0. Nonzero cursor m: toggles only
    flip pairs of lamps m apart, so what survives is the parity of lamps in
    each residue class mod |m|, up to cyclic rotation of the residues.
    """
    if x.cursor == 0:
        if not x.lamps:
            return ("id",)
        base = min(x.lamps)
        return ("static", tuple(sorted(p - base for p in x.lamps)))
    mod = abs(x.cursor)
    bits = [0] * mod
    for p in x.lamps:
        bits[p % mod] ^= 1
    return ("moving", x.cursor, least_rotation(bits))


def _necklaces(length: int, ones: int) -> int:
    """Binary necklaces of the given length with the given number of ones."""
    return sum(euler_phi(d) * comb(length // d, ones // d)
               for d in divisors(gcd(length, ones))) // length


def conjugacy_counts(max_n: int) -> tuple[list[int], list[int]]:
    """(per-radius class counts, cumulative class counts): classes grouped
    by the length of their shortest representative.

    Cursor 0 (``conj_key``'s static classes): one lamp has length 1; k >= 2
    lamps spanning w >= 1 steps, both ends lit, have length k + 2w, and
    there are C(w - 1, k - 2) such sets up to translation. Cursor +-M: the
    class is a necklace of M lamp parities with k lit, and its shortest
    element walks M steps lighting one lamp per lit residue, length M + k.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    spheres = [1] + [0] * max_n
    if max_n >= 1:
        spheres[1] += 1
    for w in range(1, max_n // 2):
        for k in range(2, min(w + 1, max_n - 2 * w) + 1):
            spheres[k + 2 * w] += comb(w - 1, k - 2)
    for m in range(1, max_n + 1):
        for k in range(min(m, max_n - m) + 1):
            spheres[m + k] += 2 * _necklaces(m, k)
    return spheres, list(itertools.accumulate(spheres))
