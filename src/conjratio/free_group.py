"""Free groups of finite rank: reduced words, exact counts, conjugacy keys.

An element is a reduced ``str``: letter code c (see words.py) is ``chr(c)``,
so string order is letter order; ``chr`` stops at 0x10FFFF, so the rank is at
most ``MAX_RANK`` = 557,056. ``reduce_word`` makes an element from letter
codes or a ``str``; the other kernels take reduced words. Conjugacy classes
are keyed by the least rotation of the cyclic reduction, a complete invariant.

Every count is a closed form: spheres 2k(2k-1)^(n-1), cyclically reduced
words (2k-1)^n + 1 + (k-1)(1 + (-1)^n) (Rivin, *Growth in free groups*),
and classes as necklaces of those words. So are the counts under the
extended set {a_1, ..., a_k, a_1 a_2} that ``conjratio compare`` uses: a
rational sphere series and bivariate necklaces. No counter enumerates
words; the enumeration cross-checks live in tests/test_free_group.py and in
``conjratio validate --family free`` (BFS and the oracle's closure).
"""

from __future__ import annotations

from itertools import accumulate, islice
from typing import Iterator, Sequence

from .sequences import iter_series, poly_add, poly_mul
from .words import cycrep_counts, divisors, euler_phi, least_rotation

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


class _Swap(dict):
    """Code point c -> c ^ 1 (a letter to its inverse), stored on first use."""

    def __missing__(self, c: int) -> int:
        self[c] = c ^ 1
        return c ^ 1


_SWAP = _Swap()


def invert(word: Word) -> Word:
    return word.translate(_SWAP)[::-1]


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
    return "".join(least_rotation(cyclic_reduce(word)))


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


# The extended generating set {a_1, ..., a_k, ab} of rank k >= 2, with a = a_1
# (code 0) and b = a_2 (code 2), as ``conjratio compare`` uses it. A reduced
# word's length under it is its length minus its occurrences of ab and BA,
# which never overlap; a class's least length is that of a cyclically reduced
# w minus the cyclic occurrences of ab and BA in w. tests/test_oracle.py pins
# both counts below against a BFS of the extended set and ``conj_key``.


def extended_series(rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sphere sizes' series under the extended set at rank k >= 2,
    (1 + x)(1 + 2x) / (1 - (2k - 1)x - (4k - 4)x^2).

    It solves the transfer over the last letter in which the steps a -> b
    and B -> A cost no length; two such free steps never follow each other.
    Swapping a <-> B, A <-> b keeps the transfer, so the words ending in a
    or in B share a series p, those ending in A or in b a series q, and with
    T the whole series: p = x(T - q), q = x(T - 2p) + p, while the 2k - 4
    other last letters give x(2k - 4)T / (1 + x)."""
    return (1, 3, 2), (1, 1 - 2 * rank, 4 - 4 * rank)


def extended_conjugacy_sphere_counts(rank: int, max_n: int) -> list[int]:
    """Classes by least length 0..max_n under the extended set at rank k >= 2.

    A class of least length n is a necklace of a cyclically reduced word of
    length L with j = L - n cyclic occurrences of ab and BA, so L <= 2n.
    Bivariate necklaces count them: (1/L) sum over d | L of phi(L/d) T(d,
    jd/L), where T(d, i) is the y^i coefficient of tr M(y)^d and M(y) is the
    2k x 2k letter transfer with 0 on the steps x -> x^-1 and y on a -> b
    and B -> A. The trace needs no matrix. M(1) = J - P (J all ones, P the
    inversion) has eigenvalues 2k - 1, then -1 (k - 1 times) and 1 (k times);
    the two y entries are a rank-2 change, and the matrix determinant lemma
    gives det(I - x M(y)) = (1 + x)^(k-3) (1 - x)^(k-2) (1 - y x^2) Q with
    Q = 1 - (2k - 1)x - y x^2 + (4k - 4 - (2k - 3)y)x^3. So tr M(y)^d is
    (k - 3)(-1)^d + k - 2 + 2y^(d/2) [d even] + p_d, p_d the power sums of
    Q's inverse roots by Newton's identities; at y = 1 it is Rivin's count.
    The cost does not depend on the rank."""
    q = {1: [1 - 2 * rank], 2: [0, -1], 3: [4 * rank - 4, 3 - 2 * rank]}  # Q's, in y
    power_sums: dict[int, list[int]] = {}
    traces: dict[int, list[int]] = {}
    classes = [1] + [0] * max_n
    for length in range(1, 2 * max_n + 1):
        p = poly_add([-length * c for c in q.get(length, [0])],
                     *(poly_mul([-c for c in q[i]], power_sums[length - i])
                       for i in range(1, min(length, 4))))
        power_sums[length] = p
        traces[length] = poly_add(p, [(rank - 3) * (-1) ** length + rank - 2],
                                  [0] * (length // 2) + [2] if length % 2 == 0 else [0])
        totals = [0] * (length // 2 + 1)  # by cyclic occurrences j
        for d in divisors(length):
            e = length // d
            for i, t in enumerate(traces[d]):
                if t:
                    totals[i * e] += euler_phi(e) * t
        for j, total in enumerate(totals):
            if length - j <= max_n:
                classes[length - j] += total // length
    return classes
