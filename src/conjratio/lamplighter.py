"""Lamplighter group (order-2 lamps over the integer line).

An element is a finite set of lit lamp positions plus the final cursor
position. Generators: toggle the lamp under the cursor, move the cursor
one step either way. Word length has a closed form (light every lamp,
walk a shortest route covering them, end on the cursor), which makes
exact sphere counts a small combinatorial sum; the enumerator yields the
actual elements for conjugacy-class keying.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .words import least_rotation


@dataclass(frozen=True)
class LampElement:
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


def sphere_counts(max_n: int) -> list[int]:
    """Exact |S(0..max_n)| by summing binomials over lamp windows."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    counts = [0] * (max_n + 1)
    for m, p, q, base in _windows(max_n):
        lo, hi = min(0, m), max(0, m)
        forced = (1 if p < lo else 0) + (1 if q > hi else 0)
        free = (q - p + 1) - forced
        for j in range(free + 1):
            length = base + forced + j
            if length <= max_n:
                counts[length] += comb(free, j)
    return counts


def ball_counts(max_n: int) -> list[int]:
    return list(itertools.accumulate(sphere_counts(max_n)))


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


def conjugacy_counts(max_n: int) -> tuple[list[int], list[int]]:
    """(per-radius class counts, cumulative class counts): classes grouped
    by the length of their shortest representative."""
    shortest: dict[tuple, int] = {}
    for elt, length in elements_by_length(max_n):
        key = conj_key(elt)
        old = shortest.get(key)
        if old is None or length < old:
            shortest[key] = length
    spheres = [0] * (max_n + 1)
    for length in shortest.values():
        spheres[length] += 1
    return spheres, list(itertools.accumulate(spheres))
