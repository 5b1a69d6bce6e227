"""Generic brute-force engine over concrete groups.

Any object with ``identity``, ``generators`` (closed under inversion),
``multiply`` and ``invert`` over hashable canonical elements, such as a
``Group`` record, can be ball-enumerated by BFS and conjugacy-classified by
conjugation closure.
The closure is union-find over a padded ball B(N + slack), uniting u with
s^-1 u s whenever both sides were enumerated. One generator s from each
inverse pair suffices: if y = s^-1 u s then u = s y s^-1, so conjugating
by s^-1 finds no edge that s does not. It is one union pass: edges inside
B(N + slack - 1) are united first, the slack - 1 census is taken, then the
edges touching the outer sphere are united for the final census. Both
censuses scan B(N) only, in BFS order, so a class's first element there is
its shortest. The closure is exact where a conjugator-length argument
exists (free groups, RAAGs: peeling to the cyclic reduction never leaves
B(N)) and elsewhere it is reported together with a stability flag
comparing against slack - 1.

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
from itertools import accumulate
from typing import Any, Callable, Iterable, Optional

from . import free_group
from . import lamplighter as lamp
from .errors import BudgetExceededError, default_budget
from .raag import GraphSpec, Raag
from .sequences import WindowEstimate, min_length_census, ratio, window_estimate
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
    """Right-angled Artin group over pile elements."""
    artin = Raag(graph)
    return Group(artin.identity(), artin.generators(), artin.multiply, artin.invert)


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


class UnionFind:
    def __init__(self):
        self.parent: dict = {}
        self.size: dict = {}

    def add(self, x) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]


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
    """Union-find over B(max_n + slack); classes counted by the smallest
    radius they meet. ``stable`` reports whether shrinking the padding by
    one changes any count (None when slack = 0)."""
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
    uf = UnionFind()
    for x in dist:
        uf.add(x)
    # edges inside B(outer - 1) are united now; the ones touching the outer
    # sphere wait until the slack - 1 census has been taken
    late = []
    for x, dx in dist.items():
        for s, s_inv in halves.items():
            y = group.multiply(group.multiply(s_inv, x), s)
            if y == x:
                continue
            dy = dist.get(y)
            if dy is None:
                continue
            if dx < outer and dy < outer:
                uf.union(x, y)
            else:
                late.append((x, y))

    def census() -> tuple[list[int], dict]:
        """Minimum lengths of the classes meeting B(max_n), ascending, and
        the class numbering of B(max_n): dist is in BFS order, so a class is
        first met at its shortest element."""
        roots: dict = {}
        class_of: dict = {}
        mins = []
        for x, d in dist.items():
            if d > max_n:
                break
            r = uf.find(x)
            if r not in roots:
                roots[r] = len(roots)
                mins.append(d)
            class_of[x] = roots[r]
        return mins, class_of

    smaller = census()[0] if slack >= 1 else None
    for x, y in late:
        uf.union(x, y)
    mins, class_of = census()
    stable = None if smaller is None else smaller == mins
    sphere_classes = [0] * (max_n + 1)
    for m in mins:
        sphere_classes[m] += 1
    ball_classes = list(accumulate(sphere_classes))
    return ConjugacyTable(
        radius=max_n,
        slack=slack,
        ball_classes=tuple(ball_classes),
        sphere_classes=tuple(sphere_classes),
        spheres=tuple(spheres[:max_n + 1]),
        stable=stable,
        class_of=class_of,
        dist=dist,
    )


def key_class_counts(dist: dict, key: Callable, max_n: int):
    """(per-radius, cumulative) class counts of B(max_n) from an exact
    conjugacy key."""
    return min_length_census(dist.items(), key, max_n)


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


def generating_set_comparison(group, gens_x, gens_y, max_n: int,
                              slack: Optional[int] = None, window: int = 5,
                              key: Optional[Callable] = None) -> ComparisonReport:
    """Side-by-side C(n)/B(n) under two word metrics on the same group.

    With an exact ``key`` (a generating-set-independent conjugacy
    invariant) classes are counted directly; otherwise by union-find with
    the given slack.
    """
    group_x = with_generators(group, gens_x)
    group_y = with_generators(group, gens_y)
    # <X> = <Y> exactly when each set lies in the group the other generates
    _check_generates(group_x, group_y)
    _check_generates(group_y, group_x)

    def one_side(carried: Group) -> tuple[tuple[Fraction, ...], WindowEstimate]:
        if key is not None:
            dist, spheres = ball_enumerate(carried, max_n)
            _, conj_balls = key_class_counts(dist, key, max_n)
        else:
            table = conjugacy_classes(carried, max_n, slack=slack)
            spheres, conj_balls = table.spheres, table.ball_classes
        ratios = ratio(conj_balls, list(accumulate(spheres)))
        return ratios, window_estimate(ratios, window)

    ratios_x, estimate_x = one_side(group_x)
    ratios_y, estimate_y = one_side(group_y)
    return ComparisonReport(ratios_x, ratios_y, estimate_x, estimate_y)
