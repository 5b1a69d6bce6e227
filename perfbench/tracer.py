"""Span and counter recorder, and the wrappers that attach it to conjratio.

The program carries no tracing of its own, so the wrappers are installed
from outside, at the name each caller looks up: a module global for
functions called inside their own module (``free_group._reduced_words``),
the importing module's global for functions imported by name
(``free_group.least_rotation`` and ``lamplighter.least_rotation`` are both
``words.least_rotation``), and the class attribute for methods
(``Raag.word``). Generators are timed per ``next()``, so a span covers only
the work of producing one item and never the consumer's work.

Every span has a name, a start, an end and a parent. A span's self time is
its duration minus the time covered by its child spans. Spans of the hot
per-element functions (``FINE``) are folded into per-name totals as they
close, because a pass makes millions of them; every other span is also
kept whole in memory, with its parent and the request (CLI run) it
belongs to, and written out at the end.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional

# span name -> ROADMAP layer
LAYERS = {
    "oracle.ball_enumerate": "enumeration",
    "oracle.check_generates": "enumeration",
    "raag.elements": "enumeration",
    "lamplighter.elements_by_length": "enumeration",
    "free_group.reduced_words": "enumeration",
    "raag.word": "keys",
    "raag.cyclic_reduce": "keys",
    "raag.key": "keys",
    "raag.cyclic_class": "keys",
    "raag.multiply": "keys",
    "free_group.conj_key": "keys",
    "lamplighter.conj_key": "keys",
    "words.least_rotation": "keys",
    "oracle.key_class_counts": "keys",
    "oracle.conjugacy_classes": "union_find",
    "words.cycrep_counts": "arithmetic",
    "sequences": "arithmetic",
    "free_group.crosscheck": "arithmetic",
    "lamplighter.sphere_counts": "arithmetic",
    "lamplighter.conjugacy_counts": "arithmetic",
    "raag.counts": "arithmetic",
    "oracle.generating_set_comparison": "dispatch",
    "cli.render": "dispatch",
    "cli.dispatch": "dispatch",
    "cli.truncation_rerun": "dispatch",
}
LAYER_NAMES = ("enumeration", "keys", "union_find", "arithmetic", "dispatch")

FINE = frozenset({
    "raag.word", "raag.cyclic_reduce", "raag.key", "raag.cyclic_class", "raag.multiply",
    "raag.elements", "lamplighter.elements_by_length", "lamplighter.conj_key",
    "free_group.reduced_words", "free_group.conj_key", "words.least_rotation", "sequences",
})


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []  # [request, name, start, end, parent index]
        self.root_s = 0.0  # summed duration of spans that have no parent
        self.request: Optional[str] = None
        self.last_ball_size = 0
        self.growth_data_calls = 0
        # open spans: [name, start, time covered by children, kept-span index]
        self._stack: list[list] = []

    def begin(self, name: str) -> None:
        index = self._stack[-1][3] if self._stack else -1
        start = perf_counter()
        if name not in FINE:
            self.spans.append([self.request, name, start, None, index])
            index = len(self.spans) - 1
        self._stack.append([name, start, 0.0, index])

    def end(self) -> None:
        stop = perf_counter()
        name, start, covered, index = self._stack.pop()
        duration = stop - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        if name not in FINE:
            self.spans[index][3] = stop
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def duration_s(self, name: str) -> float:
        """Summed wall time of the kept spans with this name."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)


def _span(tracer: Tracer, fn: Callable, name: str, after: Optional[Callable] = None):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _generator(tracer: Tracer, fn: Callable, name: str):
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def timed():
            while True:
                tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end()
                tracer.add(name + ".yielded")
                yield item

        return timed()

    return wrapper


def _counted(tracer: Tracer, fn: Callable, counter: str):
    def wrapper(*args, **kwargs):
        tracer.add(counter)
        return fn(*args, **kwargs)

    return wrapper


class Instrumentation:
    """Installs the wrappers on the imported conjratio modules; ``remove``
    puts every original back."""

    def __init__(self, tracer: Tracer):
        from conjratio import cli, free_group, lamplighter, oracle, raag, words

        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        t = tracer

        def ball_done(result, args):
            dist, spheres = result
            t.last_ball_size = len(dist)
            t.add("oracle.ball_enumerate.elements", len(dist))
            t.add("oracle.ball_enumerate.new", sum(spheres[1:]))
            t.add("oracle.ball_enumerate.attempts", sum(spheres[:-1]) * len(args[0].generators))

        def classes_done(table, args):
            t.add("oracle.conjugacy_classes.padded_elements", t.last_ball_size)
            t.add("oracle.conjugacy_classes.ball_elements", len(table.class_of))

        def keys_done(result, args):
            t.add("oracle.key_class_counts.keys", result[1][-1])

        def members_done(result, args):
            t.add("raag.cyclic_class.members", len(result))

        def growth_with_truncation(fn):
            def wrapper(*args, **kwargs):
                saved, t.growth_data_calls = t.growth_data_calls, 0
                try:
                    return fn(*args, **kwargs)
                finally:
                    t.growth_data_calls = saved
            return wrapper

        def growth_data(fn):
            rerun = _span(t, fn, "cli.truncation_rerun")

            def wrapper(*args, **kwargs):
                t.growth_data_calls += 1
                if t.growth_data_calls > 1:
                    return rerun(*args, **kwargs)
                return fn(*args, **kwargs)
            return wrapper

        span = lambda name, after=None: lambda fn: _span(t, fn, name, after)  # noqa: E731
        gen = lambda name: lambda fn: _generator(t, fn, name)  # noqa: E731
        count = lambda counter: lambda fn: _counted(t, fn, counter)  # noqa: E731
        plan = [
            # enumeration
            (oracle, "ball_enumerate", span("oracle.ball_enumerate", ball_done)),
            (oracle, "_check_generates", span("oracle.check_generates")),
            (raag.Raag, "elements", gen("raag.elements")),
            (lamplighter, "elements_by_length", gen("lamplighter.elements_by_length")),
            (free_group, "_reduced_words", gen("free_group.reduced_words")),
            # normal forms and keys
            (raag.Raag, "word", span("raag.word")),
            (raag.Raag, "cyclic_reduce", span("raag.cyclic_reduce")),
            (raag.Raag, "_key_of_reduced", span("raag.key")),
            (raag.Raag, "cyclic_class", span("raag.cyclic_class", members_done)),
            (raag.Raag, "multiply", span("raag.multiply")),
            (free_group, "conj_key", span("free_group.conj_key")),
            (free_group, "multiply", count("free_group.multiply.calls")),
            (lamplighter, "conj_key", span("lamplighter.conj_key")),
            (oracle, "key_class_counts", span("oracle.key_class_counts", keys_done)),
            *((m, "least_rotation", span("words.least_rotation"))
              for m in (words, free_group, lamplighter, raag)),
            # union-find closure
            (oracle, "conjugacy_classes", span("oracle.conjugacy_classes", classes_done)),
            # sequence and necklace arithmetic
            *((m, "cycrep_counts", span("words.cycrep_counts")) for m in (cli, free_group)),
            *((cli, name, span("sequences"))
              for name in ("convolve", "decimal_str", "window_estimate")),
            *((oracle, name, span("sequences")) for name in ("ratio", "window_estimate")),
            *((free_group, name, span("free_group.crosscheck"))
              for name in ("ball_counts", "conjugacy_sphere_counts", "cyclically_reduced_counts")),
            (lamplighter, "sphere_counts", span("lamplighter.sphere_counts")),
            (lamplighter, "conjugacy_counts", span("lamplighter.conjugacy_counts")),
            (raag.Raag, "counts", span("raag.counts")),
            # rendering and dispatch
            (oracle, "generating_set_comparison", span("oracle.generating_set_comparison")),
            *((cli, name, span("cli.render"))
              for name in ("_growth_columns", "_csv_table", "_json_table")),
            (cli, "_growth_with_truncation", growth_with_truncation),
            (cli, "_growth_data", growth_data),
            (cli, "main", span("cli.dispatch")),
        ]
        try:
            for owner, attr, make in plan:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
