"""Generic brute-force engine over concrete groups.

Any object with ``identity``, ``generators`` (closed under inversion),
``multiply`` and ``invert`` over hashable canonical elements can be
ball-enumerated by BFS and conjugacy-classified by conjugation closure.
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
involutions) and the integer Heisenberg group (Mal'cev coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Optional, Protocol, Sequence

from . import free_group
from . import lamplighter as lamp
from .errors import BudgetExceededError, default_budget
from .raag import GraphSpec, Raag
from .sequences import (
    CountSequence,
    RatioSequence,
    WindowEstimate,
    ratio,
    window_estimate,
)


class GroupSpec(Protocol):
    @property
    def identity(self): ...

    @property
    def generators(self) -> tuple: ...

    def multiply(self, x, y): ...

    def invert(self, x): ...


class GenerationError(RuntimeError):
    """A claimed generating set failed to reach part of the group."""


def _close_under_inversion(group_invert, generators, identity):
    gens = list(generators)
    gens += [group_invert(g) for g in gens]
    return tuple(g for g in dict.fromkeys(gens) if g != identity)


class FreeGroup:
    """Free group of finite rank over reduced letter-code words."""

    def __init__(self, rank: int, words: Optional[Iterable[Sequence[int]]] = None):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.rank = rank
        self.identity: tuple[int, ...] = ()
        if words is None:
            gens = [(c,) for c in range(2 * rank)]
        else:
            gens = []
            for w in words:
                word = free_group.reduce_word(w)
                if any(c >= 2 * rank for c in word):
                    raise ValueError(f"letter out of range for rank {rank}: {w!r}")
                gens.append(word)
        self.generators = _close_under_inversion(free_group.invert, gens, self.identity)

    def multiply(self, x, y):
        return free_group.multiply(x, y)

    def invert(self, x):
        return free_group.invert(x)


class FreeAbelian:
    """Z^dim over integer vectors; optional custom generating vectors."""

    def __init__(self, dim: int, vectors: Optional[Iterable[Sequence[int]]] = None):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = dim
        self.identity = (0,) * dim
        if vectors is None:
            gens = []
            for i in range(dim):
                unit = [0] * dim
                unit[i] = 1
                gens.append(tuple(unit))
        else:
            gens = [tuple(v) for v in vectors]
            if any(len(v) != dim for v in gens):
                raise ValueError(f"vectors must have length {dim}")
        self.generators = _close_under_inversion(self.invert, gens, self.identity)

    def multiply(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def invert(self, x):
        return tuple(-a for a in x)


class DihedralInfinite:
    """Infinite dihedral group: free product of two involutions a, b.

    Elements are alternating 0/1 tuples (the unique normal forms);
    multiplication cancels equal letters across the seam.
    """

    GENERATING_SETS = ("reflections", "reflection-rotation")

    def __init__(self, generating_set: str = "reflections"):
        self.identity: tuple[int, ...] = ()
        if generating_set == "reflections":
            gens = [(0,), (1,)]
        elif generating_set == "reflection-rotation":
            gens = [(0,), (0, 1)]
        else:
            raise ValueError(f"generating_set must be one of {self.GENERATING_SETS}")
        self.generating_set = generating_set
        self.generators = _close_under_inversion(self.invert, gens, self.identity)

    def multiply(self, x, y):
        out = list(x)
        for t in y:
            if out and out[-1] == t:
                out.pop()
            else:
                out.append(t)
        return tuple(out)

    def invert(self, x):
        return tuple(reversed(x))


def dihedral_conjugacy_key(x: tuple[int, ...]):
    """Even-length words are conjugate iff equally long (a rotation and its
    inverse). An odd-length word is the reflection r^k a, where r = ab and
    k = len//2 for a...a words, k = -(len//2 + 1) for b...b words;
    conjugation shifts k by 2, so the class is the parity of k."""
    if len(x) % 2 == 0:
        return ("rotation", len(x))
    return ("reflection", (len(x) // 2 + x[0]) % 2)


class Heisenberg:
    """Integer Heisenberg group in Mal'cev coordinates (a, b, c)."""

    def __init__(self):
        self.identity = (0, 0, 0)
        self.generators = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

    def multiply(self, x, y):
        return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])

    def invert(self, x):
        return (-x[0], -x[1], -x[2] + x[0] * x[1])


def heisenberg_conjugacy_key(x: tuple[int, int, int]):
    """Conjugating (a, b, c) shifts c by any multiple of gcd(a, b) and
    fixes (a, b); central elements are singletons."""
    a, b, c = x
    if a == 0 and b == 0:
        return ("central", c)
    return ("generic", a, b, c % math.gcd(a, b))


class RaagGroup:
    """Pile-element adapter for a right-angled Artin group."""

    def __init__(self, graph: GraphSpec):
        self.raag = Raag(graph)
        self.identity = self.raag.identity()
        self.generators = self.raag.generators()

    def multiply(self, x, y):
        return self.raag.multiply(x, y)

    def invert(self, x):
        return self.raag.invert(x)

    def conjugacy_key(self, piles):
        return self.raag.element_key(piles)


class Lamplighter:
    def __init__(self):
        self.identity = lamp.IDENTITY
        self.generators = lamp.generators()

    def multiply(self, x, y):
        return lamp.multiply(x, y)

    def invert(self, x):
        return lamp.invert(x)


def ball_enumerate(group, max_n: int, budget: Optional[int] = None):
    """BFS out to radius max_n: (distances by element, sphere sizes)."""
    limit = default_budget() if budget is None else budget
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
    is the padded ball the closure ran over, in BFS order."""

    radius: int
    slack: int
    ball_classes: tuple[int, ...]
    sphere_classes: tuple[int, ...]
    min_lengths: tuple[int, ...]
    stable: Optional[bool]
    class_of: dict
    dist: dict


def conjugacy_classes(group, max_n: int, slack: Optional[int] = None,
                      budget: Optional[int] = None) -> ConjugacyTable:
    """Union-find over B(max_n + slack); classes counted by the smallest
    radius they meet. ``stable`` reports whether shrinking the padding by
    one changes any count (None when slack = 0)."""
    if slack is None:
        slack = max_n
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    outer = max_n + slack
    dist, _ = ball_enumerate(group, outer, budget)
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
        min_lengths=tuple(mins),
        stable=stable,
        class_of=class_of,
        dist=dist,
    )


def key_class_counts(dist: dict, key: Callable, max_n: int):
    """(per-radius, cumulative) class counts from an exact conjugacy key."""
    min_len: dict = {}
    for x, d in dist.items():
        kx = key(x)
        old = min_len.get(kx)
        if old is None or d < old:
            min_len[kx] = d
    spheres = [0] * (max_n + 1)
    for m in min_len.values():
        if m <= max_n:
            spheres[m] += 1
    return spheres, list(accumulate(spheres))


class _GeneratorView:
    """The same group carried by a different generating set."""

    def __init__(self, base, generators):
        self.base = base
        self.identity = base.identity
        self.generators = _close_under_inversion(base.invert, generators, base.identity)
        if not self.generators:
            raise ValueError("empty generating set")

    def multiply(self, x, y):
        return self.base.multiply(x, y)

    def invert(self, x):
        return self.base.invert(x)


def _check_generates(target_view, other_view, probe_radius: int = 2,
                     cap: int = 12, budget: Optional[int] = None) -> None:
    """Every element of the target's small ball must appear in some ball of
    the other set; BFS expands one radius at a time up to ``cap``."""
    targets = set(ball_enumerate(target_view, probe_radius, budget)[0])
    limit = default_budget() if budget is None else budget
    seen = {other_view.identity}
    frontier = [other_view.identity]
    targets -= seen
    for _ in range(cap):
        if not targets:
            return
        nxt = []
        for x in frontier:
            for s in other_view.generators:
                y = other_view.multiply(x, s)
                if y not in seen:
                    if len(seen) >= limit:
                        raise GenerationError(
                            "generation check ran out of budget before covering the probe ball"
                        )
                    seen.add(y)
                    nxt.append(y)
                    targets.discard(y)
        frontier = nxt
    if targets:
        raise GenerationError(
            f"{len(targets)} probe element(s) of radius {probe_radius} "
            f"not reached within radius {cap} of the other generating set"
        )


@dataclass
class ComparisonReport:
    """Conjugacy-ratio sequences of one group under two generating sets."""

    ratios_x: RatioSequence
    ratios_y: RatioSequence
    estimate_x: WindowEstimate
    estimate_y: WindowEstimate

    @property
    def peak_difference(self) -> Fraction:
        return abs(self.estimate_x.peak - self.estimate_y.peak)


def generating_set_comparison(group, gens_x, gens_y, max_n: int,
                              slack: Optional[int] = None, window: int = 5,
                              key: Optional[Callable] = None,
                              budget: Optional[int] = None) -> ComparisonReport:
    """Side-by-side C(n)/B(n) under two word metrics on the same group.

    With an exact ``key`` (a generating-set-independent conjugacy
    invariant) classes are counted directly; otherwise by union-find with
    the given slack.
    """
    view_x = _GeneratorView(group, gens_x)
    view_y = _GeneratorView(group, gens_y)
    _check_generates(view_x, view_y, budget=budget)
    _check_generates(view_y, view_x, budget=budget)

    def one_side(view) -> tuple[RatioSequence, WindowEstimate]:
        dist, spheres = ball_enumerate(view, max_n, budget)
        if key is not None:
            _, conj_balls = key_class_counts(dist, key, max_n)
        else:
            table = conjugacy_classes(view, max_n, slack=slack, budget=budget)
            conj_balls = list(table.ball_classes)
        ratios = ratio(
            CountSequence(tuple(conj_balls), "conjugacy-ball"),
            CountSequence(tuple(accumulate(spheres)), "ball"),
        )
        return ratios, window_estimate(ratios.values, window)

    ratios_x, estimate_x = one_side(view_x)
    ratios_y, estimate_y = one_side(view_y)
    return ComparisonReport(ratios_x, ratios_y, estimate_x, estimate_y)
