"""Generic brute-force engine over concrete groups.

Any object with ``identity``, ``generators`` (closed under inversion),
``multiply`` and ``invert`` over hashable canonical elements, such as a
``Group`` record, can be ball-enumerated by BFS and conjugacy-classified by
conjugation closure.
The closure is union-find over the BFS positions of a padded ball
B(N + slack), uniting u with s^-1 u s whenever both sides were enumerated.
One generator s from each inverse pair suffices: if y = s^-1 u s then
u = s y s^-1, so conjugating by s^-1 finds no edge that s does not. A union
hangs the later root under the earlier, so a class's root is its first
element in BFS order, which is a shortest one. It is one union pass: edges
inside B(N + slack - 1) are united first, the slack - 1 census is taken,
then the edges touching the outer sphere are united for the final census.
A census reads the roots among the first |B(N)| positions: they are the
classes meeting B(N), at their least lengths. The closure is exact where a
conjugator-length argument exists (free groups, RAAGs: peeling to the
cyclic reduction never leaves B(N)) and elsewhere it is reported together
with a stability flag comparing against slack - 1. Generating-set
comparison needs no closure: it counts each side's classes by an exact
conjugacy key over that side's ball. It is the tests' route: ``conjratio
compare`` counts both sets by formula, and the tests pin each formula
against this BFS and key count.

Also hosts the two coordinate groups used as worked examples: the
infinite dihedral group (normal forms: alternating words in two
involutions) and the integer Heisenberg group (Mal'cev coordinates). Both
come with a rational sphere series and class counts in closed form, which
``conjratio growth`` uses; their BFS and class keys are the check routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, islice
from typing import Any, Callable, Iterable, Optional

from . import free_group
from . import lamplighter as lamp
from .errors import BudgetExceededError, default_budget
from .raag import GraphSpec, for_graph
from .sequences import WindowEstimate, ratio, window_estimate
from .words import divisors, euler_phi


@dataclass(frozen=True)
class Group:
    """A group with a finite generating set, closed under inversion, over
    hashable canonical elements."""

    identity: Any
    generators: tuple
    multiply: Callable[[Any, Any], Any]
    invert: Callable[[Any], Any]


class GenerationError(RuntimeError):
    """A claimed generating set failed to reach part of the group."""


def with_generators(group: Group, generators: Iterable) -> Group:
    """The same group carried by another generating set: the given elements
    and their inverses, in that order, without repeats or the identity."""
    gens = list(generators)
    gens += [group.invert(g) for g in gens]
    closed = tuple(g for g in dict.fromkeys(gens) if g != group.identity)
    if not closed:
        raise ValueError("empty generating set")
    return replace(group, generators=closed)


def FreeGroup(rank: int) -> Group:
    """Free group of finite rank over reduced ``str`` words (see free_group)."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if rank > free_group.MAX_RANK:
        raise ValueError(f"rank must be at most {free_group.MAX_RANK}, "
                         "one str character per letter")
    gens = tuple(map(chr, range(2 * rank)))
    return Group("", gens, free_group.multiply, free_group.invert)


def FreeAbelian(dim: int) -> Group:
    """Z^dim over integer vectors, generated by the unit vectors."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    units = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return Group((0,) * dim, units + tuple(_negate(u) for u in units), _add, _negate)


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _negate(x):
    return tuple(-a for a in x)


def DihedralInfinite() -> Group:
    """Infinite dihedral group: free product of two involutions a, b.

    Elements are alternating 0/1 tuples (the unique normal forms);
    multiplication cancels equal letters across the seam.
    """
    return Group((), ((0,), (1,)), _dihedral_multiply, _reverse)


def _dihedral_multiply(x, y):
    out = list(x)
    for t in y:
        if out and out[-1] == t:
            out.pop()
        else:
            out.append(t)
    return tuple(out)


def _reverse(x):
    return tuple(reversed(x))


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


def Heisenberg() -> Group:
    """Integer Heisenberg group in Mal'cev coordinates (a, b, c)."""
    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    return Group((0, 0, 0), gens, _heisenberg_multiply, _heisenberg_invert)


def _heisenberg_multiply(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])


def _heisenberg_invert(x):
    return (-x[0], -x[1], -x[2] + x[0] * x[1])


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


def RaagGroup(graph: GraphSpec) -> Group:
    """Right-angled Artin group over shortlex normal forms, on the graph's one ``Raag``."""
    artin = for_graph(graph)
    return Group((), artin.generators(), artin.multiply, artin.invert)


def Lamplighter() -> Group:
    return Group(lamp.IDENTITY, lamp.generators(), lamp.multiply, lamp.invert)


def ball_enumerate(group, max_n: int):
    """BFS out to radius max_n: (distances by element, sphere sizes)."""
    limit = default_budget()
    gens = group.generators
    gen_set = set(gens)
    for s in gens:
        if group.invert(s) not in gen_set:
            raise ValueError("generator list is not closed under inversion")
    identity = group.identity
    dist = {identity: 0}
    spheres = [1]
    frontier = [identity]
    for d in range(1, max_n + 1):
        nxt = []
        for x in frontier:
            for s in gens:
                y = group.multiply(x, s)
                if y not in dist:
                    if len(dist) >= limit:
                        raise BudgetExceededError(d - 1, limit)
                    dist[y] = d
                    nxt.append(y)
        spheres.append(len(nxt))
        frontier = nxt
    return dist, spheres


@dataclass
class ConjugacyTable:
    """Conjugation-closure census of the classes meeting B(radius). ``dist``
    is the padded ball the closure ran over, in BFS order; ``spheres`` are
    the element sphere sizes of B(radius)."""

    radius: int
    slack: int
    ball_classes: tuple[int, ...]
    sphere_classes: tuple[int, ...]
    spheres: tuple[int, ...]
    stable: Optional[bool]
    class_of: dict
    dist: dict


def conjugacy_classes(group, max_n: int, slack: Optional[int] = None) -> ConjugacyTable:
    """Union-find over the BFS positions of B(max_n + slack); classes counted
    by the smallest radius they meet. ``stable`` reports whether shrinking
    the padding by one changes any count (None when slack = 0)."""
    if slack is None:
        slack = max_n
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    outer = max_n + slack
    dist, spheres = ball_enumerate(group, outer)
    # One conjugator per inverse pair: if y = s^-1 x s then x = s y s^-1,
    # so conjugating by s^-1 yields only edges that s already yields.
    halves: dict = {}
    for s in group.generators:
        s_inv = group.invert(s)
        if s_inv not in halves:
            halves[s] = s_inv
    # union-find over BFS positions; a union hangs the later root under the
    # earlier, so each class's root is its first, and a shortest, element
    parent = list(range(len(dist)))
    index = dict(zip(dist, parent))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    def union(i: int, j: int) -> None:
        i, j = find(i), find(j)
        parent[max(i, j)] = min(i, j)

    # edges inside B(outer - 1) are united now; the ones touching the outer
    # sphere wait until the slack - 1 census has been taken
    inner = len(dist) - spheres[outer]
    late = []
    for x, i in index.items():
        for s, s_inv in halves.items():
            j = index.get(group.multiply(group.multiply(s_inv, x), s))
            if j is None or j == i:
                continue
            if i < inner and j < inner:
                union(i, j)
            else:
                late.append((i, j))
    size = sum(spheres[:max_n + 1])

    def census() -> list[int]:
        """Least lengths of the classes meeting B(max_n), ascending: they
        are the roots among its first |B(max_n)| positions."""
        return [d for i, d in enumerate(islice(dist.values(), size)) if parent[i] == i]

    smaller = census() if slack >= 1 else None
    for i, j in late:
        union(i, j)
    mins = census()
    stable = None if smaller is None else smaller == mins
    # roots come in BFS order, so classes are numbered as B(max_n) first meets them
    number: dict = {}
    class_of = {x: number.setdefault(find(i), len(number))
                for x, i in islice(index.items(), size)}
    sphere_classes = [0] * (max_n + 1)
    for m in mins:
        sphere_classes[m] += 1
    return ConjugacyTable(
        radius=max_n, slack=slack, ball_classes=tuple(accumulate(sphere_classes)),
        sphere_classes=tuple(sphere_classes), spheres=tuple(spheres[:max_n + 1]),
        stable=stable, class_of=class_of, dist=dist)


def key_class_counts(dist: dict, key: Callable, max_n: int):
    """(per-radius, cumulative) class counts of B(max_n) from an exact
    conjugacy key: each class counts at its least length."""
    min_len: dict = {}
    for x, d in dist.items():
        kx = key(x)
        min_len[kx] = min(d, min_len.get(kx, d))
    spheres = [0] * (max_n + 1)
    for m in min_len.values():
        if m <= max_n:
            spheres[m] += 1
    return spheres, list(accumulate(spheres))


def _check_generates(target, other, cap: int = 12) -> None:
    """Every generator of the target set must appear in some ball of the
    other set, so the other set generates the target's group; BFS expands
    one radius at a time up to ``cap`` and stops after the radius that finds
    the last."""
    targets = set(target.generators)
    limit = default_budget()
    seen = {other.identity}
    frontier = [other.identity]
    for _ in range(cap):
        if not targets:
            return
        nxt = []
        for x in frontier:
            for s in other.generators:
                y = other.multiply(x, s)
                if y not in seen:
                    if len(seen) >= limit:
                        raise GenerationError(
                            "generation check ran out of budget before reaching every generator"
                        )
                    seen.add(y)
                    nxt.append(y)
                    targets.discard(y)
        frontier = nxt
    if targets:
        raise GenerationError(
            f"{len(targets)} generator(s) not reached within radius {cap} "
            "of the other generating set"
        )


@dataclass
class ComparisonReport:
    """Conjugacy-ratio sequences of one group under two generating sets."""

    ratios_x: tuple[Fraction, ...]
    ratios_y: tuple[Fraction, ...]
    estimate_x: WindowEstimate
    estimate_y: WindowEstimate

    @property
    def peak_difference(self) -> Fraction:
        return abs(self.estimate_x.peak - self.estimate_y.peak)


def generating_set_comparison(group, gens_x, gens_y, max_n: int, key: Callable,
                              window: int = 5) -> ComparisonReport:
    """Side-by-side C(n)/B(n) under two word metrics on the same group.

    ``key`` is an exact conjugacy invariant that does not depend on the
    generating set, so each side's classes are counted from the key over
    one BFS of that side's ball.
    """
    group_x = with_generators(group, gens_x)
    group_y = with_generators(group, gens_y)
    # <X> = <Y> exactly when each set lies in the group the other generates
    _check_generates(group_x, group_y)
    _check_generates(group_y, group_x)

    def one_side(carried: Group) -> tuple[tuple[Fraction, ...], WindowEstimate]:
        dist, spheres = ball_enumerate(carried, max_n)
        _, conj_balls = key_class_counts(dist, key, max_n)
        ratios = ratio(conj_balls, list(accumulate(spheres)))
        return ratios, window_estimate(ratios, window)

    ratios_x, estimate_x = one_side(group_x)
    ratios_y, estimate_y = one_side(group_y)
    return ComparisonReport(ratios_x, ratios_y, estimate_x, estimate_y)
