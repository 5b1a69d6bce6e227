"""Right-angled Artin groups over a commutation graph.

``sphere_series`` is Chiswell's growth series of the clique polynomial
for every graph, so ``growth`` and ``validate`` charge the element budget
against it and know their last radius before any class work. When the
graph is a cograph, built from single vertices by joins and disjoint
unions, the clique polynomial composes over its cotree and
``class_spheres`` composes direct products (a join convolves) and free
products (a union of m factors adds the necklaces of syllables from
alternating factors), each node's children at once. Over other graphs
the series' denominator is read term by term from clique counts, and
the classes come from the word counter ``counts``, which also backs the
tests. A run builds one ``Raag`` from its graph and passes it to the
series, the class counts, the oracle's group and the class key.

Letters are codes 2*g (generator g) and 2*g + 1 (its inverse), and an
element is its shortlex normal form, its least geodesic word, as a tuple of
codes; there is no other representation. ``word`` multiplies a normal form
by letters one at a time: a backward scan passes the letters the new one
commutes with and stops at the first it cannot pass; if that letter is the
new one's inverse it is deleted, and otherwise the new letter goes in before
the leftmost greater letter it passed. The oracle's ``multiply``, ``invert``
and ``cyclic_reduce``, the class keys and the counter's ``cyclic_class`` all
go through it. ``elements`` grows each sphere from the last by appending a
letter, with the same scan: the word is kept unless the scan stops at the
new letter's inverse (the word would shorten) or passes a greater letter
(the new letter would move left of it). ``counts`` opens one class per
cyclically reduced normal form not yet seen and marks its ``cyclic_class``
seen: such words have the least length in their class, and two of them are
conjugate exactly when moving letters that can reach the front to the end
connects them. Sets of generators are bitmasks, so each scan costs one mask
test per letter. The counter computes no class key: the split/non-split
keys of ``conj_key`` back ``validate``, and the oracle's BFS and
conjugation closure check the counter by an independent route.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import chain, count, islice, repeat
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import BudgetExceededError, default_budget
from .sequences import convolve, iter_series, poly_add, poly_mul
from .words import cycrep_counts, least_rotation


class GraphFormatError(ValueError):
    """A commutation-graph description failed to parse."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no else ""
        super().__init__(prefix + message)


class _GraphFields(NamedTuple):
    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int]]


class GraphSpec(_GraphFields):
    """Vertices are generator labels in declaration order (the order that
    breaks shortlex ties); edges join generators that commute."""

    __slots__ = ()

    def __new__(cls, labels: tuple[str, ...], edges: frozenset[tuple[int, int]]):
        if not labels:
            raise ValueError("need at least one vertex")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate vertex labels")
        k = len(labels)
        for e in edges:
            if len(e) != 2 or not 0 <= e[0] < e[1] < k:
                raise ValueError(f"bad edge {e!r}; endpoints must satisfy 0 <= i < j < {k}")
        return super().__new__(cls, labels, edges)


def graph_from_text(text: str) -> GraphSpec:
    """Parse 'vertices: a b c' followed by 'edge: a b' lines; '#' comments."""
    labels: Optional[tuple[str, ...]] = None
    index: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            if labels is not None:
                raise GraphFormatError(line_no, "second vertices line")
            names = line[len("vertices:"):].split()
            if not names:
                raise GraphFormatError(line_no, "vertices line lists no vertices")
            tally = Counter(names)
            for name in names:
                if tally[name] > 1:
                    raise GraphFormatError(line_no, f"duplicate vertex {name!r}")
            labels = tuple(names)
            index = {name: i for i, name in enumerate(names)}
        elif line.startswith("edge:"):
            if labels is None:
                raise GraphFormatError(line_no, "edge line before the vertices line")
            ends = line[len("edge:"):].split()
            if len(ends) != 2:
                raise GraphFormatError(line_no, f"edge needs exactly two endpoints, got {len(ends)}")
            for name in ends:
                if name not in index:
                    raise GraphFormatError(line_no, f"unknown vertex {name!r}")
            if ends[0] == ends[1]:
                raise GraphFormatError(line_no, f"loop edge at {ends[0]!r}")
            i, j = sorted(index[name] for name in ends)
            if (i, j) in edges:
                raise GraphFormatError(line_no, f"duplicate edge {ends[0]} {ends[1]}")
            edges.add((i, j))
        else:
            raise GraphFormatError(line_no, f"unrecognized line {line!r}")
    if labels is None:
        raise GraphFormatError(0, "missing vertices line")
    return GraphSpec(labels, frozenset(edges))


def graph_from_file(path) -> GraphSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_text(fh.read())


def _default_labels(k: int) -> tuple[str, ...]:
    if not 1 <= k <= 26:
        raise ValueError("built-in graphs support 1..26 vertices")
    return tuple(chr(ord("a") + i) for i in range(k))


def empty_graph(k: int) -> GraphSpec:
    return GraphSpec(_default_labels(k), frozenset())


def complete_graph(k: int) -> GraphSpec:
    labels = _default_labels(k)
    return GraphSpec(labels, frozenset((i, j) for i in range(k) for j in range(i + 1, k)))


def path_graph(k: int) -> GraphSpec:
    labels = _default_labels(k)
    return GraphSpec(labels, frozenset((i, i + 1) for i in range(k - 1)))


def cycle_graph(k: int) -> GraphSpec:
    if k < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    labels = _default_labels(k)
    edges = {(i, i + 1) for i in range(k - 1)}
    edges.add((0, k - 1))
    return GraphSpec(labels, frozenset(edges))


class RaagCounts(NamedTuple):
    sphere: list[int]
    conj_sphere: list[int]
    # classes grouped by the exact generator support of their shortest
    # representatives, as label tuples
    support_classes: dict[tuple[str, ...], int]


def _vertices(mask: int) -> Iterator[int]:
    """The vertices in a bitmask, least first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _components(vertices: int, neighbours: Sequence[int]) -> Iterator[int]:
    """Connected components of the graph on the vertex bitmask ``vertices``
    whose vertex u is joined to the vertices in bitmask neighbours[u], as
    bitmasks, one at a time, the one holding the least vertex first."""
    while vertices:
        comp = frontier = vertices & -vertices
        while frontier:
            reach = 0
            for u in _vertices(frontier):
                reach |= neighbours[u]
            frontier = reach & vertices & ~comp
            comp |= frontier
        yield comp
        vertices &= ~comp


class Raag:
    def __init__(self, graph: GraphSpec):
        self.graph = graph
        self.k = len(graph.labels)
        adj: list[set[int]] = [set() for _ in range(self.k)]
        for i, j in graph.edges:
            adj[i].add(j)
            adj[j].add(i)
        self.adjacent = tuple(frozenset(s) for s in adj)
        # bit j of _blocks[i]: a letter of generator i keeps a later letter
        # of generator j from moving left past it (j == i included): every
        # vertex but i's neighbours, kept as the negative int ~neighbours so
        # it is as small as the neighbour list; every use tests a bit, ORs
        # masks or ANDs with a vertex mask, so the bits past k never show
        self._blocks = tuple(~sum(1 << j for j in s) for s in adj)
        self.cotree = self._cotree()

    def _cotree(self) -> Optional[Cotree]:
        """Split a vertex set into the components of its induced subgraph
        (a union) or, failing that, of the complement (a join), and recurse;
        a set of two or more vertices that splits neither way is not a
        cograph, and then the graph has no cotree (None). Parts come one at
        a time, and a one-vertex part is a leaf at once, so no more than the
        parts still to split are held."""
        adjacent = tuple(sum(1 << j for j in adj) for adj in self.adjacent)
        leaf = (None, ())
        nodes: list = [None]
        todo = [(0, (1 << self.k) - 1)]
        while todo:
            at, vertices = todo.pop()
            if not vertices & (vertices - 1):  # at most one vertex
                nodes[at] = leaf
                continue
            parts = _components(vertices, adjacent)
            first = next(parts)
            join = first == vertices
            if join:
                parts = _components(vertices, self._blocks)
                first = next(parts)
                if first == vertices:
                    return None
            children = []
            for part in chain((first,), parts):
                children.append(len(nodes))
                if part & (part - 1):
                    todo.append((len(nodes), part))
                    nodes.append(None)
                else:
                    nodes.append(leaf)
            nodes[at] = (join, tuple(children))
        return tuple(nodes)

    # elements: shortlex normal forms

    def word(self, letters: Iterable[int], start: Sequence[int] = ()) -> tuple[int, ...]:
        """Normal form of start * letters, for a normal form ``start``. Each
        letter c scans back over the letters it commutes with; if the letter
        that stops the scan is c's inverse, that letter is deleted (it
        commutes with every letter after it, so the rest stays a normal
        form), and otherwise c goes in before the leftmost greater letter it
        passed, or at the end."""
        blocks = self._blocks
        top = 2 * self.k
        out = list(start)
        for c in letters:
            if not 0 <= c < top:
                raise ValueError(f"letter code {c} out of range for {self.k} generators")
            mask = blocks[c >> 1]
            at = i = len(out)
            while i and not mask >> (out[i - 1] >> 1) & 1:
                i -= 1
                if out[i] > c:
                    at = i
            if i and out[i - 1] == c ^ 1:
                del out[i - 1]
            else:
                out.insert(at, c)
        return tuple(out)

    def multiply(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        return self.word(y, x)

    def invert(self, x: tuple[int, ...]) -> tuple[int, ...]:
        return self.word([c ^ 1 for c in reversed(x)])

    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple((c,) for c in range(2 * self.k))

    # conjugacy machinery

    def _peel(self, word: tuple[int, ...]) -> Optional[int]:
        """For a normal form: the position of a letter that can move to the
        back while its inverse can move to the front, or None when there is
        none, that is when the word is cyclically reduced."""
        blocks = self._blocks
        fronts = blocked = 0
        for c in word:
            if not blocked >> (c >> 1) & 1:
                fronts |= 1 << c
            blocked |= blocks[c >> 1]
        blocked = 0
        for j, c in enumerate(reversed(word), 1):
            if not blocked >> (c >> 1) & 1 and fronts >> (c ^ 1) & 1:
                return len(word) - j
            blocked |= blocks[c >> 1]
        return None

    def cyclic_reduce(self, word: tuple[int, ...]) -> tuple[int, ...]:
        """Shortest conjugate of a normal form: drop a letter that can move to
        the back together with its inverse, which can move to the front (its
        first letter of that generator), and renormalise, until none is left."""
        while (j := self._peel(word)) is not None:
            i = word.index(word[j] ^ 1)
            word = self.word(word[:i] + word[i + 1:j] + word[j + 1:])
        return word

    def _support_edge_free(self, support) -> bool:
        return all(v not in self.adjacent[u] for u in support for v in support)

    def cyclic_class(self, word: tuple[int, ...]) -> set[tuple[int, ...]]:
        """Normal forms of every same-length conjugate of a cyclically
        reduced normal form: closure under moving a letter that can reach
        the front to the end. The rest of the word is renormalised, except
        for the first letter: a suffix of a normal form is one."""
        blocks = self._blocks
        seen = {word}
        queue = [word]
        while queue:
            w = queue.pop()
            blocked = 0
            for j, c in enumerate(w):
                if not blocked >> (c >> 1) & 1:
                    nxt = self.word((c,), w[1:]) if j == 0 else self.word(w[:j] + w[j + 1:] + (c,))
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
                blocked |= blocks[c >> 1]
        return seen

    def conj_key(self, word: Sequence[int]):
        """Complete conjugacy invariant; accepts any word, reduces inside."""
        return self.element_key(self.word(word))

    def element_key(self, word: tuple[int, ...]):
        """Key of a normal form."""
        return self._key_of_reduced(self.cyclic_reduce(word))

    def _key_of_reduced(self, word: tuple[int, ...]):
        """Key of a cyclically reduced normal form."""
        if not word:
            return ("id",)
        supp = frozenset(c >> 1 for c in word)
        # components of the support's non-commutation graph
        comps = list(_components(sum(1 << g for g in supp), self._blocks))
        if len(comps) >= 2:
            blocks = [
                self._key_of_reduced(tuple(c for c in word if comp >> (c >> 1) & 1))
                for comp in comps
            ]
            support_labels = tuple(self.graph.labels[i] for i in sorted(supp))
            return ("split", support_labels, tuple(sorted(blocks)))
        if self._support_edge_free(supp):
            return ("ns", least_rotation(word))
        return ("ns", min(self.cyclic_class(word)))

    # enumeration

    def elements(self, max_n: int) -> Iterator[tuple[tuple[int, ...], int]]:
        """Every normal form of length <= max_n exactly once, sphere by
        sphere; yields (normal form, word length).

        Normal forms are prefix-closed, so each sphere extends the last one.
        A normal form w followed by letter c is again a normal form unless
        a backward scan over w, passing letters that c commutes past, stops
        at c's inverse (w c is shorter) or meets a letter greater than c
        (c would move left of it)."""
        limit = default_budget()
        blocks = self._blocks
        codes = range(2 * self.k)
        total = 1
        yield (), 0
        sphere: list[tuple[int, ...]] = [()]
        for dist in range(1, max_n + 1):
            nxt = []
            for w in sphere:
                for c in codes:
                    mask = blocks[c >> 1]
                    accept = True
                    for d in reversed(w):
                        if mask >> (d >> 1) & 1:
                            accept = d != c ^ 1
                            break
                        if d > c:
                            accept = False
                            break
                    if not accept:
                        continue
                    if total >= limit:
                        raise BudgetExceededError(dist - 1, limit)
                    total += 1
                    u = w + (c,)
                    nxt.append(u)
                    yield u, dist
            sphere = nxt

    def counts(self, max_n: int) -> RaagCounts:
        """Exact sphere and conjugacy-sphere counts. A class is opened at the
        first cyclically reduced normal form met, which has the least length
        in its class, and its whole ``cyclic_class`` is marked seen."""
        sphere = [0] * (max_n + 1)
        conj_sphere = [0] * (max_n + 1)
        support_classes: dict[tuple[str, ...], int] = {}
        seen: set[tuple[int, ...]] = set()
        for w, dist in self.elements(max_n):
            sphere[dist] += 1
            if w in seen or self._peel(w) is not None:
                continue
            seen |= self.cyclic_class(w)
            conj_sphere[dist] += 1
            labels = tuple(self.graph.labels[i] for i in sorted({c >> 1 for c in w}))
            support_classes[labels] = support_classes.get(labels, 0) + 1
        return RaagCounts(sphere, conj_sphere, support_classes)


def counts(graph: GraphSpec, max_n: int) -> RaagCounts:
    return Raag(graph).counts(max_n)


# Growth by formula over the cotree of a cograph: a graph built from single
# vertices by joins (direct products) and disjoint unions (free products).
# A cotree node is (join, children): join is None at a vertex, True at a
# join and False at a disjoint union, and children index the node tuple,
# each past its parent, so a walk from the end meets children first.
Cotree = tuple[tuple[Optional[bool], tuple[int, ...]], ...]


def _compose(tree: Cotree, vertex, join: Callable, union: Callable):
    """Fold the cotree up from its leaves: ``vertex`` at each leaf, then
    ``join`` or ``union`` of the list of a node's children's values."""
    values: list = [None] * len(tree)
    for at in reversed(range(len(tree))):
        kind, children = tree[at]
        if kind is None:
            values[at] = vertex
        else:
            values[at] = (join if kind else union)([values[c] for c in children])
    return values[0]


def _sphere_series(clique: list[int]) -> tuple[list[int], list[int]]:
    """Chiswell's growth series S(t) = 1 / C(-2t / (1 + t)) of the clique
    polynomial C, cleared of (1 + t)^w, w = deg C: numerator (1 + t)^w and
    denominator sum of C(m) (-2t)^m (1 + t)^(w - m), whose constant term is
    C(0) = 1."""
    w = len(clique) - 1
    denom, row = [0] * (w + 1), [1]  # row: the coefficients of (1 + t)^(w - m)
    for m in range(w, -1, -1):
        scale = clique[m] * (-2) ** m
        for j, b in enumerate(row):
            denom[m + j] += scale * b
        if m:
            row = [x + y for x, y in zip(row + [0], [0] + row)]
    return row, denom


def _log_derivative(clique: list[int], n: int) -> list[int]:
    """t S'/S to t^n, for S the sphere series of a clique polynomial."""
    s = list(islice(iter_series(*_sphere_series(clique)), n + 1))
    return list(islice(iter_series([k * a for k, a in enumerate(s)], s), n + 1))


def _free_product(factors: list, n: int) -> tuple[list[int], list[int]]:
    """(clique polynomial, class spheres 0..n) of a free product from its
    factors'. A class meets a factor, and is one of its classes, or its
    least words are cyclic sequences of syllables from alternating factors
    (Magnus, Karrass and Solitar, Thm 4.2). Their transfer matrix M has
    det(I - M) = prod S_i / S, so t S'/S - sum t S_i'/S_i counts them with
    a marked start, and their rotation classes are the necklaces."""
    clique = poly_add(*(c for c, _ in factors), [1 - len(factors)])
    trace = _log_derivative(clique, n)
    # equal factors share one derivation
    for c, times in Counter(tuple(c) for c, _ in factors).items():
        trace = [x - times * y for x, y in zip(trace, _log_derivative(c, n))]
    classes = [sum(col) for col in zip([0] + cycrep_counts(trace[1:]), *(c for _, c in factors))]
    classes[0] -= len(factors) - 1  # the identity's class meets every factor
    return clique, classes


def _clique_sizes(group: Raag) -> Iterator[int]:
    """c_1, c_2, ...: the number of cliques of each size, up to the first
    size that has none. Level m holds one bitmask per m-clique, its common neighbours
    above its greatest vertex, so c_(m+1) is the sum of their popcounts;
    level m is built only when c_(m+1) is read. An m-clique has 2^m
    elements of the m-sphere to itself, so a level holds fewer entries
    than the ball that was charged before it is read."""
    above = [sum(1 << j for j in adj if j > i) for i, adj in enumerate(group.adjacent)]
    level = [(1 << group.k) - 1]  # the empty clique: every vertex extends it
    while level:
        yield sum(mask.bit_count() for mask in level)
        level = [mask & above[u] for mask in level for u in _vertices(mask)]


def _chiswell_denominator(group: Raag) -> Iterator[int]:
    """C(-2t / (1 + t)) term by term, for C(x) = sum of c_m x^m over the
    clique sizes m: term n is (-1)^n sum of c_m 2^m binom(n - 1, m - 1) over
    1 <= m <= n, so it reads clique counts up to size n only."""
    yield 1
    sizes, cliques = chain(_clique_sizes(group), repeat(0)), []
    for n in count(1):
        cliques.append(next(sizes))
        yield (-1) ** n * sum(c * comb(n - 1, m - 1) << m for m, c in enumerate(cliques, 1))


def sphere_series(group: Raag) -> tuple[Iterable[int], Iterable[int]]:
    """Numerator and denominator coefficients of the sphere sizes' series,
    Chiswell's 1 / C(-2t / (1 + t)) of the clique polynomial C. Over a
    cograph C comes from the cotree (a vertex is 1 + x, a join multiplies,
    a union adds, less the empty clique both sides count) and (1 + t)^w is
    cleared, so the denominator is finite; over other graphs the
    denominator is read term by term."""
    if group.cotree is None:
        return (1,), _chiswell_denominator(group)
    return _sphere_series(_compose(group.cotree, [1, 1], lambda ps: reduce(poly_mul, ps),
                                   lambda ps: poly_add(*ps, [1 - len(ps)])))


def class_spheres(group: Raag, n: int) -> list[int]:
    """Conjugacy classes by least length 0..n. Over a cograph they compose
    over the cotree: a vertex is Z with classes 1, 2, 2, ...; a join
    convolves; a union is a free product (``_free_product``). Other graphs
    run the word counter to radius n."""
    if group.cotree is None:
        return group.counts(n).conj_sphere
    return _compose(
        group.cotree, ([1, 1], [1] + [2] * n),
        lambda xs: (reduce(poly_mul, [c for c, _ in xs]), reduce(convolve, [c for _, c in xs])),
        lambda xs: _free_product(xs, n),
    )[1]
