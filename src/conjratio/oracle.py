"""Generic brute-force engine over concrete groups.

Any object with ``identity``, ``generators`` (closed under inversion),
``multiply`` and ``invert`` over hashable canonical elements, such as a
``Group`` (a NamedTuple), can be ball-enumerated by BFS; one that also has a
``conjugator``, mapping each generator s to x -> s^-1 x s, can be
conjugacy-classified by conjugation closure.
The closure runs one search per inverse pair of classes meeting B(N). It
takes B(N) in BFS order; an element no earlier search met starts one, a
shortest element of its class. The search conjugates by the generators and
admits conjugates of word length at most N + slack, so it meets its class
in B(N + slack) without enumerating that ball, and it holds B(N) and its
own class only. Shorter conjugates go on the stack; the outer sphere waits
on the rim, visited only when the stack is empty, so the start's inner
class, its class in B(N + slack - 1), is all met before the rim is first
visited. A start is conjugated by every generator, any other element by
all but the inverse of the one that first met it, which gives that element
back. Inversion keeps word length and maps s^-1 u s to s^-1 u^-1 s, so a
search that does not meet x^-1 fills x^-1's class too; at the end the
classes are numbered as B(N) first meets them. The census counts each
class at its least length; a class no search meets misses B(N) and counts
in no census. An element of B(N) met after the rim is first visited lies
in another inner class, which the slack - 1 census counts apart, and one
such element is all it takes for the two censuses to differ: the closure
is reported with that stability flag. It is exact where a
conjugator-length argument exists (free groups, RAAGs: peeling to the
cyclic reduction never leaves B(N)). The element budget bounds B(N) and
the elements met past it in the current class, so a budget that holds
B(N + slack) holds the search. A group with ``length`` (every constructor
here but ``Heisenberg``) reads word lengths off its elements; one without
it looks them up in a BFS of the padded ball. Generating-set comparison
counts each side's classes by an exact conjugacy key over its ball; it is
the tests' route, since ``conjratio compare`` counts by formula. The
closed forms and class keys of ``DihedralInfinite`` and ``Heisenberg``
live in ``coordinate_groups``.
"""

from __future__ import annotations

from itertools import accumulate, count, islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Optional

from .errors import BudgetExceededError, default_budget
from .sequences import WindowEstimate, ratio, window_estimate

if TYPE_CHECKING:
    from fractions import Fraction

    from .raag import Raag


class Group(NamedTuple):
    """A group with a finite generating set, closed under inversion, over
    hashable canonical elements. ``conjugator`` maps each of ``generators``
    s to the map x -> s^-1 x s; ``length``, where known, is an element's
    word length in ``generators``."""

    identity: Any
    generators: tuple
    multiply: Callable[[Any, Any], Any]
    invert: Callable[[Any], Any]
    conjugator: Callable[[Any], Callable[[Any], Any]]
    length: Optional[Callable[[Any], int]] = None


class GenerationError(RuntimeError):
    """A claimed generating set failed to reach part of the group."""


def with_generators(group: Group, generators: Iterable) -> Group:
    """The same group carried by another generating set: the given elements
    and their inverses, in that order, without repeats or the identity,
    conjugated by two products; word lengths change with the set, so
    ``length`` is None."""
    gens = list(generators)
    gens += [group.invert(g) for g in gens]
    closed = tuple(g for g in dict.fromkeys(gens) if g != group.identity)
    if not closed:
        raise ValueError("empty generating set")
    return group._replace(generators=closed, conjugator=_two_products(group), length=None)


def _two_products(group: Group) -> Callable[[Any], Callable[[Any], Any]]:
    """s -> (x -> s^-1 x s) by two products, for any group."""
    multiply = group.multiply

    def conjugator(s):
        s_inv = group.invert(s)
        return lambda x: multiply(multiply(s_inv, x), s)
    return conjugator


def _word_conjugator(invert: Callable) -> Callable[[Any], Callable[[Any], Any]]:
    """Conjugators for one-letter generators of reduced words (``str`` or
    tuple): s^-1 x s drops a leading s or prepends s^-1, then drops a
    trailing s^-1 or appends s."""
    def conjugator(s):
        s_inv = invert(s)

        def conjugate(x):
            y = x[1:] if x[:1] == s else s_inv + x
            return y[:-1] if y[-1:] == s_inv else y + s
        return conjugate
    return conjugator


def FreeGroup(rank: int) -> Group:
    """Free group of finite rank over reduced ``str`` words (see free_group)."""
    from . import free_group

    if rank < 1:
        raise ValueError("rank must be at least 1")
    if rank > free_group.MAX_RANK:
        raise ValueError(f"rank must be at most {free_group.MAX_RANK}, "
                         "one str character per letter")
    gens = tuple(map(chr, range(2 * rank)))
    return Group("", gens, free_group.multiply, free_group.invert,
                 _word_conjugator(free_group.invert), len)


def FreeAbelian(dim: int) -> Group:
    """Z^dim over integer vectors, generated by the unit vectors."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    units = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return Group((0,) * dim, units + tuple(_negate(u) for u in units), _add, _negate,
                 lambda s: lambda x: x, _l1_norm)


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _negate(x):
    return tuple(-a for a in x)


def _l1_norm(x):
    return sum(map(abs, x))


def DihedralInfinite() -> Group:
    """Infinite dihedral group: free product of two involutions a, b.

    Elements are alternating 0/1 tuples (the unique normal forms);
    multiplication cancels equal letters across the seam.
    """
    return Group((), ((0,), (1,)), _dihedral_multiply, _reverse, _word_conjugator(_reverse),
                 len)


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


def Heisenberg() -> Group:
    """Integer Heisenberg group in Mal'cev coordinates (a, b, c)."""
    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    return Group((0, 0, 0), gens, _heisenberg_multiply, _heisenberg_invert,
                 _heisenberg_conjugator)


def _heisenberg_multiply(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])


def _heisenberg_invert(x):
    return (-x[0], -x[1], -x[2] + x[0] * x[1])


def _heisenberg_conjugator(s):
    """s = (d, e, f) conjugates (a, b, c) to (a, b, c + e a - d b)."""
    d, e, _ = s
    return lambda x: (x[0], x[1], x[2] + e * x[0] - d * x[1])


def RaagGroup(artin: Raag) -> Group:
    """Right-angled Artin group over shortlex normal forms, on the given
    ``Raag``. A generator s is one letter, so s^-1 x s is the one ``word``
    call that pushes x's letters and s onto s^-1. Shortlex normal forms are
    geodesic, so an element's length is its number of letters."""
    return Group((), artin.generators(), artin.multiply, artin.invert,
                 lambda s: lambda x: artin.word(x + s, (s[0] ^ 1,)), len)


def Lamplighter() -> Group:
    from . import lamplighter as lamp

    return Group(lamp.IDENTITY, lamp.generators(), lamp.multiply, lamp.invert, lamp.conjugator,
                 lamp.word_length)


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


class ConjugacyTable(NamedTuple):
    """Conjugation-closure census of the classes meeting B(radius). ``dist``
    is B(radius) in BFS order; ``spheres`` are its sphere sizes."""

    radius: int
    slack: int
    ball_classes: tuple[int, ...]
    sphere_classes: tuple[int, ...]
    spheres: tuple[int, ...]
    stable: Optional[bool]
    class_of: dict
    dist: dict


def conjugacy_classes(group, max_n: int, slack: Optional[int] = None) -> ConjugacyTable:
    """One search per inverse pair of classes meeting B(max_n), inside
    B(max_n + slack); classes counted by the smallest radius they meet.
    Lengths come from ``group.length``, or from a BFS of B(max_n + slack)
    for a group without one. A start is conjugated by every generator, any
    other element by all but the inverse of the one that first met it; a
    search that does not meet its start's inverse fills that class too. The
    search holds at most the element budget: B(max_n) and the elements met
    past it in the current class, all in B(max_n + slack). ``stable`` is
    False when a search meets an element of B(max_n) after its first visit
    to the outer sphere, which is when shrinking the padding by one changes
    a count, and None when slack = 0."""
    if slack is None:
        slack = max_n
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    outer = max_n + slack
    length = getattr(group, "length", None)
    dist, spheres = ball_enumerate(group, outer if length is None else max_n)
    size = sum(spheres[:max_n + 1])
    if length is None:
        padded, dist = dist, dict(islice(dist.items(), size))
        length = lambda y: padded.get(y, outer + 1)  # noqa: E731
    limit = default_budget()
    invert = group.invert
    # each generator's conjugator, and its inverse's, which leads back
    conjugator = {s: group.conjugator(s) for s in group.generators}
    steps = [(conjugator[s], conjugator[invert(s)]) for s in group.generators]
    class_of = dict.fromkeys(dist)
    mins: list[int] = []  # least lengths of the classes meeting B(max_n)
    split = False  # some class holds two inner classes meeting B(max_n)
    for x, n in dist.items():
        if class_of[x] is not None:
            continue
        # to visit: conjugates inside B(outer - 1), then the outer sphere;
        # each with the conjugator back to the element that first met it
        met = {x}
        stack = [(x, None)]
        rim: list = []
        crossed = False  # the rim was visited: x's inner class is all met
        beyond = 0  # elements met past B(max_n)
        while stack or rim:
            if stack:
                u, skip = stack.pop()
            else:
                u, skip = rim.pop()
                crossed = True
            for conjugate, back in steps:
                if conjugate is skip:
                    continue
                y = conjugate(u)
                if y is u or y in met:
                    continue
                d = length(y)
                if d > outer:
                    continue
                met.add(y)
                (rim if d == outer else stack).append((y, back))
                if d > max_n:
                    beyond += 1
                elif crossed:
                    split = True
            if size + beyond > limit:
                raise BudgetExceededError(max_n, limit)
        # a class without x^-1 fills its inverse class, its twin, unsearched
        number, inverse = len(mins), invert(x)
        twin = None if inverse in met else number + 1
        for y in met:
            if y in class_of:
                class_of[y] = number
                if twin is not None:
                    class_of[inverse if y is x else invert(y)] = twin
        mins += [n] * (1 if twin is None else 2)
    # number the classes as B(max_n) first meets them in BFS order
    numbers, first = [None] * len(mins), count()
    for y, c in class_of.items():
        if numbers[c] is None:
            numbers[c] = next(first)
        class_of[y] = numbers[c]
    stable = None if slack == 0 else not split
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


class ComparisonReport(NamedTuple):
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
