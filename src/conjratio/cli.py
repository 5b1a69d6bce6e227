"""Command-line front end: growth tables, cross-validation, generating-set
comparison, and necklace counting over user data.

Tables are deterministic for a fixed configuration: integer columns are
exact, ratio columns are 12-digit round-half-even decimals, and CSV/JSON
layouts never depend on hash order.
"""

from __future__ import annotations

import argparse
import sys
from functools import cached_property
from importlib import import_module
from itertools import accumulate, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import BudgetExceededError, default_budget
# convolve is not called here; perfbench/tracer.py wraps the name
from .sequences import convolve, decimal_str, iter_power, iter_series, ratio, window_estimate
from .words import cycrep_counts, divisors, euler_phi, primitive_counts

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


def run_necklace(path: str, fmt: str) -> str:
    counts = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                value = int(line)
            except ValueError:
                raise ValueError(f"line {line_no}: expected an integer count, got {line!r}")
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


# validation suites: (name, radius, passed) triples per family


def _partitions_agree(key: Callable, class_of: dict) -> bool:
    """The (key, class) pairs are a bijection: no more of them than keys or classes."""
    pairs = {(key(x), c) for x, c in class_of.items()}
    return len(pairs) == len({k for k, _ in pairs}) == len(set(class_of.values()))


def _suite(cfg: RunConfig, cap: int, default_slack: Optional[int],
           names: Sequence[str] = (), key: Optional[Callable] = None):
    """The oracle's closure over B(n + slack), n = min(max_n, cap), its budget
    charged against the family's sphere series before the group is built,
    and the rows every suite shares: the two named formula rows (the spheres
    and classes ``growth`` prints, against the BFS and the closure), the class
    key's partition of B(n) against the closure's where the family has a key,
    then stability. A default slack of None means max(n, 1). The closure
    enumerates B(n) only for a group with ``length``, but the charge stays
    B(n + slack): it bounds every conjugate the closure admits."""
    from . import oracle

    n = min(cfg.max_n, cap)
    default = max(n, 1) if default_slack is None else default_slack
    slack = default if cfg.slack is None else cfg.slack
    spheres = _charge_whole_ball(_series(cfg), n + slack)[:n + 1]
    family = FAMILIES[cfg.family]
    table = oracle.conjugacy_classes(family.group(cfg), n, slack=slack)
    rows = []
    if names:
        sphere_row, class_row = names
        rows += [(sphere_row, n, list(table.spheres) == spheres),
                 (class_row, n, list(table.sphere_classes) == family.classes(cfg, n))]
    if key is not None:
        rows.append((f"{cfg.family}: key partition matches oracle partition", n,
                     _partitions_agree(key, table.class_of)))
    rows.append((f"{cfg.family}: oracle stable under slack-1", n, bool(table.stable)))
    return table, rows


def _validate_free(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    from . import free_group

    table, rows = _suite(cfg, 8, 2, ("free: sphere formula vs BFS",
                                     "free: conjugacy counts vs oracle"))
    strict = free_group.cyclically_reduced_counts(cfg.rank, max(table.radius, 6))
    necklaces = cycrep_counts(strict)
    identity_ok = all(
        m * necklaces[m - 1] == sum(euler_phi(m // d) * strict[d - 1] for d in divisors(m))
        for m in range(1, len(strict) + 1))
    return rows + [("free: necklace identity on cyclically reduced counts", len(strict),
                    identity_ok)]


def _validate_raag(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    return _suite(cfg, 5, 2, ("raag: ball counts vs oracle BFS",
                              "raag: conjugacy counts vs oracle"),
                  cfg.artin.element_key)[1]


def _validate_lamplighter(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    from . import lamplighter

    table, rows = _suite(cfg, 7, None, ("lamplighter: sphere counts vs BFS",
                                        "lamplighter: conjugacy counts vs oracle"),
                         lamplighter.conj_key)
    return [("lamplighter: metric formula vs BFS distance", table.radius,
             all(lamplighter.word_length(x) == table.dist[x] for x in table.class_of)), *rows]


def _validate_free_abelian(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    return _suite(cfg, 6 if cfg.dim <= 3 else 4, 2,
                  ("free-abelian: convolution balls vs oracle BFS",
                   "free-abelian: every element is its own class"))[1]


def _validate_dihedral(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    from . import coordinate_groups

    return _suite(cfg, 16, 4, ("dihedral-inf: ball size 2n+1",
                               "dihedral-inf: class count 3 + n//2 from n=2"),
                  coordinate_groups.dihedral_conjugacy_key)[1]


def _validate_heisenberg(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    from . import coordinate_groups

    # no formula rows: perfbench/expected.json pins this suite's output
    return _suite(cfg, 6, None, key=coordinate_groups.heisenberg_conjugacy_key)[1]


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
    "free": Family(_validate_free, lambda cfg: _module("free_group").series(cfg.rank),
                   lambda cfg, n: _module("free_group").conjugacy_sphere_counts(cfg.rank, n),
                   lambda cfg: _module("oracle").FreeGroup(cfg.rank),
                   parameters=lambda cfg: {"rank": cfg.rank}, compare=_compare_free),
    # every element is its own class
    "free-abelian": Family(_validate_free_abelian, _free_abelian_series,
                           lambda cfg, n: list(islice(_series(cfg), n + 1)),
                           lambda cfg: _module("oracle").FreeAbelian(cfg.dim),
                           parameters=lambda cfg: {"dim": cfg.dim},
                           compare=lambda cfg: _compare_free_abelian(cfg.dim)),
    "raag": Family(_validate_raag, lambda cfg: _module("raag").sphere_series(cfg.artin),
                   lambda cfg, n: _module("raag").class_spheres(cfg.artin, n),
                   lambda cfg: _module("oracle").RaagGroup(cfg.artin),
                   parameters=lambda cfg: {"graph": cfg.graph_path}),
    "lamplighter": Family(_validate_lamplighter, lambda cfg: _module("lamplighter").SERIES,
                          lambda cfg, n: _module("lamplighter").conjugacy_counts(n)[0],
                          lambda cfg: _module("oracle").Lamplighter()),
    "dihedral-inf": Family(_validate_dihedral,
                           lambda cfg: _module("coordinate_groups").DIHEDRAL_SERIES,
                           lambda cfg, n: _module("coordinate_groups").dihedral_class_spheres(n),
                           lambda cfg: _module("oracle").DihedralInfinite(),
                           compare=lambda cfg: (
                               _module("coordinate_groups").DIHEDRAL_Y_SERIES,
                               _module("coordinate_groups").dihedral_y_class_spheres)),
    "heisenberg": Family(_validate_heisenberg,
                         lambda cfg: _module("coordinate_groups").HEISENBERG_SERIES,
                         lambda cfg, n: _module("coordinate_groups").heisenberg_class_spheres(n),
                         lambda cfg: _module("oracle").Heisenberg()),
}


def run_validate(cfg: RunConfig) -> tuple[str, bool]:
    checks = FAMILIES[cfg.family].validate(cfg)
    all_ok = all(ok for _, _, ok in checks)
    if cfg.fmt == "json":
        payload = {"checks": [{"name": name, "radius": radius, "passed": ok}
                              for name, radius, ok in checks], "all_passed": all_ok}
        return _json_table(payload, cfg), all_ok
    lines = [f"{'PASS' if ok else 'FAIL'}  {name} (radius {radius})"
             for name, radius, ok in checks]
    lines.append("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return "\n".join(lines) + "\n", all_ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjratio",
        description="Exact growth and conjugacy-growth tables for some "
                    "finitely generated groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--family", required=True, choices=tuple(FAMILIES))
        p.add_argument("--rank", type=int, default=2,
                       help="rank for the free family (default 2)")
        p.add_argument("--dim", type=int, default=2,
                       help="dimension for the free-abelian family (default 2)")
        p.add_argument("--graph", dest="graph_path",
                       help="commutation graph file for the raag family")
        p.add_argument("--max-n", type=int, default=8, help="largest radius (default 8)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="write the table here instead of stdout")
        return p

    add_common(sub.add_parser("growth", help="ball/sphere/conjugacy growth table"))
    validate = add_common(sub.add_parser("validate", help="cross-validation suite for a family"))
    validate.add_argument("--slack", type=int, default=None,
                          help="extra conjugation-closure radius (default: per family)")
    compare = add_common(sub.add_parser("compare",
                                        help="conjugacy ratio under two generating sets"))
    compare.add_argument("--window", type=int, default=5,
                         help="terms in windowed limsup estimates (default 5)")
    neck = sub.add_parser("necklace", help="necklace counts from a file of per-length totals")
    neck.add_argument("counts_file", help="text file, one count per line (a(1), a(2), ...)")
    neck.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    neck.add_argument("--out", help="write the table here instead of stdout")
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "necklace":
            text, ok = run_necklace(args.counts_file, args.fmt), True
        else:
            # each verb's options but the command and --out are RunConfig
            # fields; the ones it lacks keep their defaults
            cfg = RunConfig(**{k: v for k, v in vars(args).items() if k not in ("command", "out")})
            verb = {"growth": run_growth, "compare": run_compare}.get(args.command)
            text, ok = (verb(cfg), True) if verb else run_validate(cfg)
        _emit(text, args.out)
        return 0 if ok else 1
    except (ValueError, OSError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
