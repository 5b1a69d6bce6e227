"""Closed forms and class keys of the two coordinate groups used as worked
examples: the infinite dihedral group (normal forms: alternating words in
two involutions) and the integer Heisenberg group (Mal'cev coordinates).

Both come with a rational sphere series and class counts in closed form,
which ``conjratio growth`` and ``compare`` use. Their ``Group``s
(``oracle.DihedralInfinite``, ``oracle.Heisenberg``) stay with the engine;
the BFS and the class keys below are the check routes.
"""

from __future__ import annotations

import math

from .words import divisors, euler_phi


def dihedral_conjugacy_key(x: tuple[int, ...]):
    """Even-length words are conjugate iff equally long (a rotation and its
    inverse). An odd-length word is the reflection r^k a, where r = ab and
    k = len//2 for a...a words, k = -(len//2 + 1) for b...b words;
    conjugation shifts k by 2, so the class is the parity of k."""
    if len(x) % 2 == 0:
        return ("rotation", len(x))
    return ("reflection", (len(x) // 2 + x[0]) % 2)


DIHEDRAL_SERIES = ((1, 1), (1, -1))  # spheres 1, 2, 2, ...: (1 + x) / (1 - x)


def dihedral_class_spheres(max_n: int) -> list[int]:
    """Classes by least length 0..max_n (``dihedral_conjugacy_key``): the identity,
    two reflection classes at length 1, one rotation class at each even length."""
    return [1, 2, *(1 - n % 2 for n in range(2, max_n + 1))][:max_n + 1]


# Under the set {s, st} of ``conjratio compare`` (s = a, t = b), with r = st:
# every element is r^m or r^m s, and s r^m s = r^-m, so a word with e letters
# s spells r^(±m1 ± m2 ...) s^e. Hence |r^m| = |m| and |r^m s| = |m| + 1:
# spheres 1, 3, 4, 4, ..., that is (1 + x)^2 / (1 - x).
DIHEDRAL_Y_SERIES = ((1, 2, 1), (1, -1))


def dihedral_y_class_spheres(max_n: int) -> list[int]:
    """Classes by least length 0..max_n under {s, st}: {r^m, r^-m} at length
    |m|, and the reflections r^m s in two classes by the parity of m
    (conjugation by r adds 2), first met at s (length 1) and rs (length 2):
    1, 2, 2, 1, 1, ...."""
    return [1, 2, 2, *[1] * (max_n - 2)][:max_n + 1]


def heisenberg_conjugacy_key(x: tuple[int, int, int]):
    """Conjugating (a, b, c) shifts c by any multiple of gcd(a, b) and
    fixes (a, b); central elements are singletons."""
    a, b, c = x
    if a == 0 and b == 0:
        return ("central", c)
    return ("generic", a, b, c % math.gcd(a, b))


# (1 + x + 4x^2 + 11x^3 + 8x^4 + 21x^5 + 6x^6 + 9x^7 + x^8) / ((1 - x)^4 (1 + x + x^2)(1 + x^2)),
# fitted to BFS spheres; rational by Shapiro (*A geometric approach to the almost
# convexity and growth of some nilpotent groups*, 1989)
HEISENBERG_SERIES = ((1, 1, 4, 11, 8, 21, 6, 9, 1), (1, -3, 4, -5, 6, -5, 4, -3, 1))


def heisenberg_class_spheres(max_n: int) -> list[int]:
    """Classes by least length 0..max_n (``heisenberg_conjugacy_key``); not
    rational (Evetts, *Conjugacy growth in the higher Heisenberg groups*). A
    central (0, 0, c) has length 2 ceil(2 sqrt|c|). For ab != 0 monotone paths
    reach ab + 1 > gcd(a, b) values of c, so each residue has length |a| + |b|:
    4(P(n) - n) at n, with Pillai's P(n) = sum of d phi(n/d) over d | n. On an
    axis (a, 0), residue 0 has length |a|, the other |a| - 1 have |a| + 2
    (a^k1 b a^k2 b^-1 = (a, 0, -k2))."""
    spheres = [1]
    for n in range(1, max_n + 1):
        r = n // 2
        central = 0 if n % 2 else 2 * (r * r // 4 - (r - 1) ** 2 // 4)
        pillai = sum(d * euler_phi(n // d) for d in divisors(n))
        spheres.append(central + 4 * (pillai - n) + 4 + 4 * max(n - 3, 0))
    return spheres
