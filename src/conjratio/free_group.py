"""Free groups of finite rank: reduced words, exact counts, conjugacy keys.

An element is a reduced ``str``: letter code c (see words.py) is ``chr(c)``,
so string order is letter order; ``chr`` stops at 0x10FFFF, so the rank is at
most ``MAX_RANK`` = 557,056. ``reduce_word`` makes an element from letter
codes or a ``str``; the other kernels take reduced words. Conjugacy classes
are keyed by the least rotation of the cyclic reduction, a complete invariant.

Every count is a closed form: spheres 2k(2k-1)^(n-1), cyclically reduced
words (2k-1)^n + 1 + (k-1)(1 + (-1)^n) (Rivin, *Growth in free groups*),
and classes as necklaces of those words. No counter enumerates words; the
enumeration cross-checks live in tests/test_free_group.py and in
``conjratio validate --family free`` (BFS and the oracle's closure).
"""

from __future__ import annotations

from itertools import accumulate, islice
from typing import Iterator, Sequence

from .sequences import iter_series
from .words import cycrep_counts, least_rotation

Word = str

MAX_RANK = 0x110000 // 2


def reduce_word(word: str | Sequence[int]) -> Word:
    """Free reduction of a ``str`` or of a sequence of letter codes."""
    out: list[str] = []
    for x in word if isinstance(word, str) else map(chr, word):
        if out and ord(out[-1]) == ord(x) ^ 1:
            out.pop()
        else:
            out.append(x)
    return "".join(out)


def multiply(x: Word, y: Word) -> Word:
    """x y for reduced x, y: cancel at the seam, join the two slices."""
    if not (x and y) or ord(x[-1]) != ord(y[0]) ^ 1:
        return x + y
    k, limit = 1, min(len(x), len(y))
    while k < limit and ord(x[-1 - k]) == ord(y[k]) ^ 1:
        k += 1
    return x[:len(x) - k] + y[k:]


def invert(word: Word) -> Word:
    return word.translate({c: c ^ 1 for c in map(ord, word)})[::-1]


def is_reduced(word: Word) -> bool:
    return all(ord(x) != ord(y) ^ 1 for x, y in zip(word, word[1:]))


def cyclic_reduce(word: Word) -> Word:
    """The cyclically reduced core of a reduced word."""
    i, j = 0, len(word) - 1
    while i < j and ord(word[i]) == ord(word[j]) ^ 1:
        i += 1
        j -= 1
    return word[i:j + 1]


def is_cyclically_reduced(word: Word) -> bool:
    return is_reduced(word) and (len(word) < 2 or ord(word[0]) != ord(word[-1]) ^ 1)


def conj_key(word: Word) -> Word:
    """Complete conjugacy invariant: least rotation of the cyclic reduction."""
    return least_rotation(cyclic_reduce(word))


def series(rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sphere sizes' series (1 + x) / (1 - (2k - 1)x) at rank k, as
    (numerator, denominator) coefficients."""
    return (1, 1), (1, 1 - 2 * rank)


def sphere_sizes(rank: int, max_n: int) -> list[int]:
    """|S(0..max_n)| for the free group of the given rank."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return list(islice(iter_series(*series(rank)), max_n + 1))


def ball_counts(rank: int, max_n: int) -> list[int]:
    """|B(0..max_n)|: running sums of the sphere sizes."""
    return list(accumulate(sphere_sizes(rank, max_n)))


def _reduced_words(rank: int, length: int) -> Iterator[Word]:
    """All reduced words of exactly the given length, DFS over last letters."""
    # no counter calls this; it stays as the enumeration hook perfbench/tracer.py wraps
    if length == 0:
        yield ""
        return
    alphabet = [chr(c) for c in range(2 * rank)]
    stack: list[Word] = alphabet[::-1]
    while stack:
        w = stack.pop()
        if len(w) == length:
            yield w
            continue
        last = ord(w[-1]) ^ 1
        for x in alphabet:
            if ord(x) != last:
                stack.append(w + x)


def cyclically_reduced_counts(rank: int, max_n: int) -> list[int]:
    """Exact count of cyclically reduced words of each length 1..max_n:
    (2k-1)^n + 1 + (k-1)(1 + (-1)^n) at rank k (Rivin)."""
    if rank < 1 or max_n < 1:
        raise ValueError("need rank >= 1 and max_n >= 1")
    return [(2 * rank - 1) ** n + 1 + (rank - 1) * (1 + (-1) ** n)
            for n in range(1, max_n + 1)]


def conjugacy_sphere_counts(rank: int, max_n: int) -> list[int]:
    """Number of conjugacy classes whose shortest element has each length
    0..max_n: necklaces (rotation classes) of cyclically reduced words."""
    strict = cyclically_reduced_counts(rank, max_n) if max_n >= 1 else []
    return [1] + cycrep_counts(strict)


def conjugacy_ball_counts(rank: int, max_n: int) -> list[int]:
    return list(accumulate(conjugacy_sphere_counts(rank, max_n)))
