"""Free groups of finite rank: reduced words, exact counts, conjugacy keys.

Elements are tuples of letter codes (see words.py) with no adjacent
cancelling pair. Conjugacy classes are keyed by the least rotation of the
cyclic reduction, which is a complete invariant here.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Sequence

from .errors import ConsistencyError
from .words import cycrep_counts, inverse_code, least_rotation

Word = tuple[int, ...]

# caps for the redundant enumeration cross-checks baked into the counters
_BALL_VERIFY_LIMIT = 50_000
_DIRECT_CLASS_LIMIT = 60_000


# the word kernels below inline inverse_code(c) as c ^ 1


def reduce_word(word: Sequence[int]) -> Word:
    out: list[int] = []
    for c in word:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def multiply(x: Sequence[int], y: Sequence[int]) -> Word:
    out = list(x)
    for c in y:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def invert(word: Sequence[int]) -> Word:
    return tuple(c ^ 1 for c in reversed(word))


def is_reduced(word: Sequence[int]) -> bool:
    return all(word[i + 1] != inverse_code(word[i]) for i in range(len(word) - 1))


def cyclic_reduce(word: Sequence[int]) -> Word:
    w = reduce_word(word)
    i, j = 0, len(w) - 1
    while i < j and w[i] == w[j] ^ 1:
        i += 1
        j -= 1
    return w[i:j + 1]


def is_cyclically_reduced(word: Sequence[int]) -> bool:
    w = tuple(word)
    if not is_reduced(w):
        return False
    return len(w) < 2 or w[0] != inverse_code(w[-1])


def conj_key(word: Sequence[int]) -> Word:
    """Complete conjugacy invariant: least rotation of the cyclic reduction."""
    return least_rotation(cyclic_reduce(word))


def sphere_sizes(rank: int, max_n: int) -> list[int]:
    """|S(0..max_n)| for the free group of the given rank: 2k(2k-1)^(n-1)."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    out = [1]
    if max_n >= 1:
        out.append(2 * rank)
    for _ in range(2, max_n + 1):
        out.append(out[-1] * (2 * rank - 1))
    return out


def ball_sizes(rank: int, max_n: int) -> list[int]:
    return list(accumulate(sphere_sizes(rank, max_n)))


def _reduced_words(rank: int, length: int) -> Iterator[Word]:
    """All reduced words of exactly the given length, DFS over last letters."""
    if length == 0:
        yield ()
        return
    alphabet = range(2 * rank)
    stack: list[Word] = [(c,) for c in reversed(alphabet)]
    while stack:
        w = stack.pop()
        if len(w) == length:
            yield w
            continue
        last = w[-1]
        for c in alphabet:
            if c != inverse_code(last):
                stack.append(w + (c,))


def cyclically_reduced_counts(rank: int, max_n: int) -> list[int]:
    """Exact count of cyclically reduced words of each length 1..max_n.

    Transfer-matrix style recursion on (first letter, last letter) pairs,
    cross-checked on small lengths by direct enumeration.
    """
    if rank < 1 or max_n < 1:
        raise ValueError("need rank >= 1 and max_n >= 1")
    k2 = 2 * rank
    # counts[first][last] = number of reduced words with these end letters
    counts = [[1 if f == l else 0 for l in range(k2)] for f in range(k2)]
    totals = []
    for n in range(1, max_n + 1):
        if n > 1:
            nxt = [[0] * k2 for _ in range(k2)]
            for f in range(k2):
                row = counts[f]
                for l in range(k2):
                    v = row[l]
                    if not v:
                        continue
                    for c in range(k2):
                        if c != inverse_code(l):
                            nxt[f][c] += v
            counts = nxt
        total = sum(
            counts[f][l]
            for f in range(k2)
            for l in range(k2)
            if n == 1 or l != inverse_code(f)
        )
        totals.append(total)
        if total <= 2_000:
            direct = sum(
                1 for w in _reduced_words(rank, n) if is_cyclically_reduced(w)
            )
            if direct != total:
                raise ConsistencyError(
                    f"cyclically reduced count mismatch at n={n}: "
                    f"recursion {total}, enumeration {direct}"
                )
    return totals


def ball_counts(rank: int, max_n: int) -> list[int]:
    """|B(0..max_n)|, with a direct enumeration cross-check while small."""
    out = ball_sizes(rank, max_n)
    for n, expected in enumerate(out):
        if expected > _BALL_VERIFY_LIMIT:
            break
        seen = sum(1 for m in range(n + 1) for _ in _reduced_words(rank, m))
        if seen != expected:
            raise ConsistencyError(
                f"ball count mismatch at n={n}: formula {expected}, enumeration {seen}"
            )
    return out


def conjugacy_sphere_counts(rank: int, max_n: int) -> list[int]:
    """Number of conjugacy classes whose shortest element has each length
    0..max_n. Computed by necklace counting over cyclically reduced words
    and, while cheap, re-derived by direct keying of the enumeration."""
    strict = cyclically_reduced_counts(rank, max_n) if max_n >= 1 else []
    by_necklace = [1] + cycrep_counts(strict)
    for n in range(1, max_n + 1):
        if strict[n - 1] > _DIRECT_CLASS_LIMIT:
            break
        keys = {
            least_rotation(w)
            for w in _reduced_words(rank, n)
            if is_cyclically_reduced(w)
        }
        if len(keys) != by_necklace[n]:
            raise ConsistencyError(
                f"conjugacy class count mismatch at n={n}: "
                f"necklaces {by_necklace[n]}, direct keys {len(keys)}"
            )
    return by_necklace


def conjugacy_ball_counts(rank: int, max_n: int) -> list[int]:
    return list(accumulate(conjugacy_sphere_counts(rank, max_n)))
