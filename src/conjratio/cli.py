"""Command-line front end: growth tables, cross-validation, generating-set
comparison, and necklace counting over user data.

Tables are deterministic for a fixed configuration: integer columns are
exact, ratio columns are 12-digit round-half-even decimals, and CSV/JSON
layouts never depend on hash order.
"""

from __future__ import annotations

import sys
from functools import cached_property
from importlib import import_module
from itertools import accumulate, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import BudgetExceededError, default_budget, parse_int
# convolve is not called here; perfbench/tracer.py wraps the name
from .sequences import convolve, decimal_str, iter_power, iter_series, ratio, window_estimate
from .words import cycrep_counts, primitive_counts

if TYPE_CHECKING:
    from . import oracle, raag

GROWTH_HEADER = ("n", "ball", "sphere", "conj_ball", "conj_sphere", "ratio", "n_sph_ratio")
COMPARE_HEADER = ("n", "ratio_x", "ratio_y", "abs_diff")
NECKLACE_HEADER = ("n", "total", "primitive", "classes")


def _module(name: str):
    """The family module ``conjratio.<name>``, imported on first use: a run
    loads only the module its family executes."""
    return import_module(f".{name}", __package__)


class _RunFields(NamedTuple):
    family: str
    rank: int = 2
    dim: int = 2
    graph_path: Optional[str] = None
    max_n: int = 8
    slack: Optional[int] = None
    fmt: str = "csv"
    window: int = 5


class RunConfig(_RunFields):
    # no __slots__: ``artin`` is cached in the instance dict

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {tuple(FAMILIES)}, got {self.family!r}")
        if self.max_n < 0:
            raise ValueError("max radius must be nonnegative")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if self.slack is not None and self.slack < 0:
            raise ValueError("slack must be nonnegative")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.window < 2:
            raise ValueError("window must be at least 2")
        if self.family == "raag" and not self.graph_path:
            raise ValueError("family raag needs --graph FILE")
        return self

    @cached_property
    def artin(self) -> raag.Raag:
        """The run's one right-angled Artin group, built from its graph file
        once: the series, class counts, oracle group and key share it."""
        from . import raag

        assert self.graph_path is not None
        return raag.Raag(raag.graph_from_file(self.graph_path))


class GrowthData(NamedTuple):
    sphere: list[int]
    conj_sphere: list[int]


def _series(cfg: RunConfig) -> Iterator[int]:
    """|S(0)|, |S(1)|, ... without end, from the family's sphere series."""
    return iter_series(*FAMILIES[cfg.family].series(cfg))


def _free_abelian_series(cfg: RunConfig):
    """((1 + x) / (1 - x))^dim, its binomials taken lazily."""
    return iter_power((1, 1), cfg.dim), iter_power((1, -1), cfg.dim)


def _charge_budget(spheres: Iterable[int], max_n: int) -> list[int]:
    """Take |S(0..max_n)| lazily, summing them into balls, up to the last
    ball within the element budget. Returns the sphere sizes taken: fewer
    than max_n + 1 when the budget stopped them."""
    budget, ball, charged = default_budget(), 0, []
    for sphere in islice(spheres, max_n + 1):
        ball += sphere
        if ball > budget:
            break
        charged.append(sphere)
    return charged


def _charge_whole_ball(spheres: Iterable[int], max_n: int) -> list[int]:
    """|S(0..max_n)|, or the BFS's own budget error naming the last radius that fits."""
    spheres = _charge_budget(spheres, max_n)
    if len(spheres) <= max_n:
        raise BudgetExceededError(len(spheres) - 1, default_budget())
    return spheres


def _growth_data(cfg: RunConfig, spheres: list[int]) -> GrowthData:
    return GrowthData(spheres, FAMILIES[cfg.family].classes(cfg, len(spheres) - 1))


def _growth_with_truncation(cfg: RunConfig) -> GrowthData:
    """The table to the last radius the budget allows, charged once."""
    return _growth_data(cfg, _charge_budget(_series(cfg), cfg.max_n))


def _growth_columns(data: GrowthData) -> dict[str, list]:
    ball, conj_ball = list(accumulate(data.sphere)), list(accumulate(data.conj_sphere))
    n_col = list(range(len(ball)))
    return {
        "n": n_col,
        "ball": ball,
        "sphere": data.sphere,
        "conj_ball": conj_ball,
        "conj_sphere": data.conj_sphere,
        "ratio": [decimal_str(c, denominator=b) for c, b in zip(conj_ball, ball)],
        "n_sph_ratio": [decimal_str(n * c, denominator=s)
                        for n, c, s in zip(n_col, data.conj_sphere, data.sphere)],
    }


def _csv_table(header: Sequence[str], columns: dict[str, list],
               trailer: Optional[str] = None) -> str:
    lines = [",".join(header)]
    lines += (",".join(map(str, row)) for row in zip(*(columns[name] for name in header)))
    if trailer is not None:
        lines.append(trailer)
    return "\n".join(lines) + "\n"


def _json_table(payload: dict, cfg: Optional[RunConfig] = None) -> str:
    """The payload as indented JSON, after the run's family, parameters and
    max_n when it has a configuration."""
    import json

    if cfg is not None:
        payload = {"family": cfg.family, "parameters": FAMILIES[cfg.family].parameters(cfg),
                   "max_n": cfg.max_n, **payload}
    return json.dumps(payload, indent=2) + "\n"


def run_growth(cfg: RunConfig) -> str:
    data = _growth_with_truncation(cfg)
    columns = _growth_columns(data)
    truncated_at = len(data.sphere) - 1 if len(data.sphere) <= cfg.max_n else None
    if cfg.fmt == "csv":
        trailer = None if truncated_at is None else f"#truncated,{truncated_at}"
        return _csv_table(GROWTH_HEADER, columns, trailer)
    return _json_table({"truncated": truncated_at, "columns": columns}, cfg)


# compare's set y: (sphere series, classes by least length 0..n); set x is the family's own


def _compare_free_abelian(dim: int):
    """{±2e_i, ±3e_i}: per coordinate |x|_y = ceil(|x| / 3), but 2 at |x| = 1,
    so Z's spheres are 1, 4, 8, 6, 6, ..., that is (1 + 3x + 4x^2 - 2x^3) / (1 - x),
    and Z^dim takes its dim-th power; every element is its own class."""
    series = lambda: (iter_power((1, 3, 4, -2), dim), iter_power((1, -1), dim))  # noqa: E731
    return series(), lambda n: list(islice(iter_series(*series()), n + 1))


def _compare_free(cfg: RunConfig):
    """{a^2, a^3} at rank 1, else the extended set {a_1, ..., a_k, a_1 a_2} (see free_group)."""
    from . import free_group

    if cfg.rank == 1:
        return _compare_free_abelian(1)
    return (free_group.extended_series(cfg.rank),
            lambda n: free_group.extended_conjugacy_sphere_counts(cfg.rank, n))


def run_compare(cfg: RunConfig) -> str:
    family = FAMILIES[cfg.family]
    if family.compare is None:
        supported = tuple(sorted(name for name, f in FAMILIES.items() if f.compare))
        raise ValueError(f"compare supports families {supported}, got {cfg.family!r}")
    # both sets count by formula: no group is built, so there is no rank cap
    spheres_x = _charge_whole_ball(_series(cfg), cfg.max_n)
    if cfg.max_n + 1 < cfg.window:
        raise ValueError(f"need at least {cfg.window} terms, got {cfg.max_n + 1}")
    series_y, classes_y = family.compare(cfg)
    try:
        spheres_y = _charge_whole_ball(iter_series(*series_y), cfg.max_n)
    except BudgetExceededError as exc:
        exc.args = (f"second generating set: {exc}",)
        raise
    # (class balls, balls) per set: every cell is rounded from integers
    x = list(accumulate(family.classes(cfg, cfg.max_n))), list(accumulate(spheres_x))
    y = list(accumulate(classes_y(cfg.max_n))), list(accumulate(spheres_y))
    columns = {
        "n": list(range(cfg.max_n + 1)),
        "ratio_x": [decimal_str(c, denominator=b) for c, b in zip(*x)],
        "ratio_y": [decimal_str(c, denominator=b) for c, b in zip(*y)],
        # |cx/bx - cy/by| over the common denominator bx by
        "abs_diff": [decimal_str(abs(cx * by - cy * bx), denominator=bx * by)
                     for cx, bx, cy, by in zip(*x, *y)],
    }
    if cfg.fmt == "csv":
        return _csv_table(COMPARE_HEADER, columns)
    peak_x, peak_y = (window_estimate(ratio(*pair), cfg.window).peak for pair in (x, y))
    estimates = {
        "peak_x": decimal_str(peak_x),
        "peak_y": decimal_str(peak_y),
        "peak_abs_diff": decimal_str(abs(peak_x - peak_y)),
    }
    return _json_table({"window": cfg.window, "columns": columns, "estimates": estimates}, cfg)


def run_necklace(path: str, fmt: str = "csv") -> str:
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    counts = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            value = parse_int(line, f"line {line_no}: expected an integer count")
            if value < 0:
                raise ValueError(f"line {line_no}: counts cannot be negative")
            counts.append(value)
    if not counts:
        raise ValueError("the counts file lists no values")
    columns = {
        "n": list(range(1, len(counts) + 1)),
        "total": counts,
        "primitive": primitive_counts(counts),
        "classes": cycrep_counts(counts),
    }
    if fmt == "csv":
        return _csv_table(NECKLACE_HEADER, columns)
    return _json_table({"columns": columns})


def _validation(name: str) -> Callable[[RunConfig], list[tuple[str, int, bool]]]:
    """validate's suite ``name`` in ``suites``, handed the family and the budget charge."""
    return lambda cfg: getattr(_module("suites"), name)(cfg, FAMILIES[cfg.family],
                                                        _charge_whole_ball)


class Family(NamedTuple):
    """Everything the verbs need to know about one family: the sphere sizes'
    series as (numerator, denominator) coefficients, the class counts by
    least length 0..n, and the oracle's group on the series' generators,
    which only ``validate`` builds."""

    validate: Callable[[RunConfig], list[tuple[str, int, bool]]]
    series: Callable[[RunConfig], tuple[Iterable[int], Iterable[int]]]
    classes: Callable[[RunConfig, int], list[int]]
    group: Callable[[RunConfig], oracle.Group]
    parameters: Callable[[RunConfig], dict] = lambda cfg: {}
    # cfg -> (set y's sphere series, n -> its classes by least length 0..n),
    # like series and classes; None: compare unsupported
    compare: Optional[Callable[[RunConfig], tuple]] = None


FAMILIES = {
    "free": Family(_validation("free"), lambda cfg: _module("free_group").series(cfg.rank),
                   lambda cfg, n: _module("free_group").conjugacy_sphere_counts(cfg.rank, n),
                   lambda cfg: _module("oracle").FreeGroup(cfg.rank),
                   parameters=lambda cfg: {"rank": cfg.rank}, compare=_compare_free),
    # every element is its own class
    "free-abelian": Family(_validation("free_abelian"), _free_abelian_series,
                           lambda cfg, n: list(islice(_series(cfg), n + 1)),
                           lambda cfg: _module("oracle").FreeAbelian(cfg.dim),
                           parameters=lambda cfg: {"dim": cfg.dim},
                           compare=lambda cfg: _compare_free_abelian(cfg.dim)),
    "raag": Family(_validation("raag"), lambda cfg: _module("raag").sphere_series(cfg.artin),
                   lambda cfg, n: _module("raag").class_spheres(cfg.artin, n),
                   lambda cfg: _module("oracle").RaagGroup(cfg.artin),
                   parameters=lambda cfg: {"graph": cfg.graph_path}),
    "lamplighter": Family(_validation("lamplighter"), lambda cfg: _module("lamplighter").SERIES,
                          lambda cfg, n: _module("lamplighter").conjugacy_counts(n)[0],
                          lambda cfg: _module("oracle").Lamplighter()),
    "dihedral-inf": Family(_validation("dihedral_inf"),
                           lambda cfg: _module("coordinate_groups").DIHEDRAL_SERIES,
                           lambda cfg, n: _module("coordinate_groups").dihedral_class_spheres(n),
                           lambda cfg: _module("oracle").DihedralInfinite(),
                           compare=lambda cfg: (
                               _module("coordinate_groups").DIHEDRAL_Y_SERIES,
                               _module("coordinate_groups").dihedral_y_class_spheres)),
    "heisenberg": Family(_validation("heisenberg"),
                         lambda cfg: _module("coordinate_groups").HEISENBERG_SERIES,
                         lambda cfg, n: _module("coordinate_groups").heisenberg_class_spheres(n),
                         lambda cfg: _module("oracle").Heisenberg()),
}


# each verb's options: flag -> (RunConfig field, or main's "out"; int or str)
_OUTPUT = {"--format": ("fmt", str), "--out": ("out", str)}
_COMMON = {"--family": ("family", str), "--rank": ("rank", int), "--dim": ("dim", int),
           "--graph": ("graph_path", str), "--max-n": ("max_n", int), **_OUTPUT}
OPTIONS = {"growth": _COMMON, "validate": {**_COMMON, "--slack": ("slack", int)},
           "compare": {**_COMMON, "--window": ("window", int)}, "necklace": _OUTPUT}


def usage() -> str:
    verbs = (" ".join([f"  {verb}", *["COUNTS_FILE"] * (verb == "necklace"), *(
        f"{flag} {'N' if kind is int else flag[2:].upper()}" for flag, (_, kind) in opts.items())])
        for verb, opts in OPTIONS.items())
    return "\n".join(["usage: conjratio VERB [--option VALUE | --option=VALUE ...]", *verbs,
                      "only --family is required; families: " + ", ".join(FAMILIES)]) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(usage())
        return 0
    try:
        # the command line, by OPTIONS: a malformed one is a ValueError
        verb, args, options, files = (argv or ["nothing"])[0], iter(argv[1:]), {}, []
        if verb not in OPTIONS:
            raise ValueError(f"expected a verb ({', '.join(OPTIONS)}), got {verb}")
        for arg in args:
            flag, eq, value = arg.partition("=")
            if not arg.startswith("-"):
                files.append(arg)
                continue
            if flag not in OPTIONS[verb]:
                raise ValueError(f"{verb} has no option {flag}")
            if not eq and ((value := next(args, None)) is None or value.startswith("--")):
                raise ValueError(f"{flag} needs a value")
            field, kind = OPTIONS[verb][flag]
            options[field] = (parse_int(value, f"{flag} needs an integer", digits_only=True)
                              if kind is int else value)
        if len(files) != (verb == "necklace"):
            wanted = "one counts file" if verb == "necklace" else "no file"
            raise ValueError(f"{verb} takes {wanted}, got {len(files)}")
        out = options.pop("out", None)
        if verb == "necklace":
            text, ok = run_necklace(*files, **options), True
        else:
            if "family" not in options:
                raise ValueError(f"{verb} needs --family")
            cfg = RunConfig(**options)  # absent options keep their defaults
            run = {"growth": run_growth, "compare": run_compare}.get(verb)
            text, ok = (run(cfg), True) if run else _module("suites").report(
                cfg, FAMILIES[cfg.family].validate(cfg), _json_table)
        _emit(text, out)
        return 0 if ok else 1
    except (ValueError, OSError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
