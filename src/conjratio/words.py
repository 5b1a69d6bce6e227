"""Words over a signed alphabet: rotations, primitive and necklace counts.

Letters are encoded as small ints: generator i maps to 2*i and its inverse
to 2*i + 1, so the natural int order realises the default letter order
a_1 < a_1^-1 < a_2 < a_2^-1 < ...  The rotation utilities accept any
sequence of mutually comparable items and return tuples, which lets the
same code canonise letter codes, 0/1 parity vectors and the characters of
free-group ``str`` words (see free_group.py).
"""

from __future__ import annotations

from typing import Sequence, TypeVar

Item = TypeVar("Item")


def parse_word(text: str) -> tuple[int, ...]:
    """'abA' -> letter codes; lowercase is a generator, uppercase its inverse."""
    out = []
    for ch in text:
        if "a" <= ch <= "z":
            out.append(2 * (ord(ch) - ord("a")))
        elif "A" <= ch <= "Z":
            out.append(2 * (ord(ch) - ord("A")) + 1)
        else:
            raise ValueError(f"bad letter {ch!r} in {text!r}")
    return tuple(out)


def word_str(word: Sequence[int]) -> str:
    return "".join(chr((ord("A") if c & 1 else ord("a")) + (c >> 1)) for c in word)


def rotate(word: Sequence[Item], k: int) -> tuple[Item, ...]:
    w = tuple(word)
    if not w:
        return w
    k %= len(w)
    return w[k:] + w[:k]


def least_rotation(word: Sequence[Item]) -> tuple[Item, ...]:
    """Lexicographically least cyclic rotation, as a tuple, by Booth's
    algorithm: O(n) comparisons of items in their native order, which is
    the letter order for encoded letters and characters, and 0 < 1 for bits.
    """
    w = tuple(word)
    n = len(w)
    if n <= 1:
        return w
    s = w + w
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if i == -1 and sj != s[k]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return rotate(w, k % n)


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    factors = _factorize(n)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    out = n
    for p in _factorize(n):
        out = out // p * (p - 1)
    return out


class ClosureHypothesisError(ValueError):
    """The per-length counts cannot come from a language that is closed
    under taking powers, roots and cyclic rotation: Moebius inversion went
    negative or the necklace total failed to divide evenly."""

    def __init__(self, n: int, value, formula: str):
        self.n = n
        self.value = value
        self.formula = formula
        super().__init__(f"{formula} at n={n} gives {value}; closure hypotheses violated")


def primitive_counts(strict_counts: Sequence[int]) -> list[int]:
    """Per-length counts of primitive words, from per-length counts of all
    words. ``strict_counts[i]`` is the count at length i+1; inverts
    a(n) = sum of p(d) over divisors d of n."""
    a = list(strict_counts)
    p = []
    for n in range(1, len(a) + 1):
        value = sum(mobius(n // d) * a[d - 1] for d in divisors(n))
        if value < 0:
            raise ClosureHypothesisError(n, value, "primitive count")
        p.append(value)
    return p


def cycrep_counts(strict_counts: Sequence[int]) -> list[int]:
    """Per-length counts of rotation classes (necklaces).

    n * c(n) = sum over divisors d of n of phi(n/d) * a(d). The division
    must be exact; a remainder means the input language cannot satisfy the
    closure hypotheses.
    """
    a = list(strict_counts)
    c = []
    for n in range(1, len(a) + 1):
        total = sum(euler_phi(n // d) * a[d - 1] for d in divisors(n))
        if total % n:
            raise ClosureHypothesisError(n, f"{total}/{n}", "necklace count")
        c.append(total // n)
    return c
