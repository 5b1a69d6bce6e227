"""Command-line front end: growth tables, cross-validation, generating-set
comparison, and necklace counting over user data.

Tables are deterministic for a fixed configuration: integer columns are
exact, ratio columns are 12-digit round-half-even decimals, and CSV/JSON
layouts never depend on hash order.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import free_group, lamplighter, oracle, raag
from .errors import BudgetExceededError, default_budget
# convolve and window_estimate are not called here; perfbench/tracer.py wraps these names
from .sequences import convolve, decimal_str, iter_series, window_estimate
from .words import cycrep_counts, divisors, euler_phi, primitive_counts

GROWTH_HEADER = ("n", "ball", "sphere", "conj_ball", "conj_sphere", "ratio", "n_sph_ratio")
COMPARE_HEADER = ("n", "ratio_x", "ratio_y", "abs_diff")
NECKLACE_HEADER = ("n", "total", "primitive", "classes")


@dataclass
class RunConfig:
    family: str
    rank: int = 2
    dim: int = 2
    graph_path: Optional[str] = None
    max_n: int = 8
    slack: Optional[int] = None
    fmt: str = "csv"
    window: int = 5
    out: Optional[str] = None
    _graph: Optional[raag.GraphSpec] = field(default=None, init=False, repr=False)

    def __post_init__(self):
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

    def graph(self) -> raag.GraphSpec:
        """The commutation graph, parsed from its file once per run."""
        if self._graph is None:
            assert self.graph_path is not None
            self._graph = raag.graph_from_file(self.graph_path)
        return self._graph


@dataclass
class GrowthData:
    sphere: list[int]
    conj_sphere: list[int]
    truncated: bool = False  # True when the budget cut the table short of max_n


def _series(cfg: RunConfig) -> Iterator[int]:
    """|S(0)|, |S(1)|, ... without end, from the family's sphere series."""
    return iter_series(*FAMILIES[cfg.family].series(cfg))


def _free_abelian_series(cfg: RunConfig):
    """((1 + x) / (1 - x))^dim, its binomials taken lazily."""
    return ((comb(cfg.dim, k) for k in range(cfg.dim + 1)),
            ((-1) ** k * comb(cfg.dim, k) for k in range(cfg.dim + 1)))


def _charge_budget(spheres: Iterable[int], max_n: int) -> list[int]:
    """Take |S(0..max_n)| lazily, summing them into balls, and stop at the
    first ball over the element budget, naming the radius before it, as the
    BFS's own error would. Returns the sphere sizes taken."""
    budget, ball, charged = default_budget(), 0, []
    for n, sphere in enumerate(islice(spheres, max_n + 1)):
        ball += sphere
        if ball > budget:
            raise BudgetExceededError(n - 1, budget)
        charged.append(sphere)
    return charged


def _growth_data(cfg: RunConfig, max_n: int) -> GrowthData:
    return GrowthData(_charge_budget(_series(cfg), max_n),
                      FAMILIES[cfg.family].classes(cfg, max_n))


def _growth_with_truncation(cfg: RunConfig) -> GrowthData:
    try:
        return _growth_data(cfg, cfg.max_n)
    except BudgetExceededError as exc:
        data = _growth_data(cfg, exc.completed)
        data.truncated = True
        return data


def _growth_columns(data: GrowthData) -> dict[str, list]:
    ball, conj_ball = list(accumulate(data.sphere)), list(accumulate(data.conj_sphere))
    n_col = list(range(len(ball)))
    return {
        "n": n_col,
        "ball": ball,
        "sphere": data.sphere,
        "conj_ball": conj_ball,
        "conj_sphere": data.conj_sphere,
        "ratio": [decimal_str(Fraction(c, b)) for c, b in zip(conj_ball, ball)],
        "n_sph_ratio": [decimal_str(Fraction(n * c, s))
                        for n, c, s in zip(n_col, data.conj_sphere, data.sphere)],
    }


def _csv_table(header: Sequence[str], columns: dict[str, list],
               trailer: Optional[str] = None) -> str:
    lines = [",".join(header)]
    length = len(columns[header[0]])
    for i in range(length):
        lines.append(",".join(str(columns[name][i]) for name in header))
    if trailer is not None:
        lines.append(trailer)
    return "\n".join(lines) + "\n"


def _json_table(payload: dict, cfg: Optional[RunConfig] = None) -> str:
    """The payload as indented JSON, after the run's family, parameters and
    max_n when it has a configuration."""
    if cfg is not None:
        payload = {"family": cfg.family, "parameters": FAMILIES[cfg.family].parameters(cfg),
                   "max_n": cfg.max_n, **payload}
    return json.dumps(payload, indent=2) + "\n"


def run_growth(cfg: RunConfig) -> str:
    data = _growth_with_truncation(cfg)
    columns = _growth_columns(data)
    truncated_at = len(data.sphere) - 1 if data.truncated else None
    if cfg.fmt == "csv":
        trailer = None if truncated_at is None else f"#truncated,{truncated_at}"
        return _csv_table(GROWTH_HEADER, columns, trailer)
    return _json_table({"truncated": truncated_at, "columns": columns}, cfg)


# compare setups: (generating set y, class key); set x is the family group's own


def _compare_free(cfg: RunConfig, group: oracle.Group):
    a, b = "\x00", "\x02"
    return ([a * 2, a * 3] if cfg.rank == 1 else [*group.generators, a + b]), free_group.conj_key


def _compare_free_abelian(cfg: RunConfig, group: oracle.Group):
    return [tuple(k * a for a in v) for k in (2, 3) for v in group.generators], lambda x: x


def run_compare(cfg: RunConfig) -> str:
    family = FAMILIES[cfg.family]
    if family.compare is None:
        supported = tuple(sorted(name for name, f in FAMILIES.items() if f.compare))
        raise ValueError(f"compare supports families {supported}, got {cfg.family!r}")
    # the standard set's B(max_n), and B(2) at least: the generation check
    # meets set y's generators there (3e of free-abelian one radius later)
    _charge_budget(_series(cfg), max(cfg.max_n, 2))
    group = family.group(cfg)
    if cfg.max_n + 1 < cfg.window:
        raise ValueError(f"need at least {cfg.window} terms, got {cfg.max_n + 1}")
    gens_y, key = family.compare(cfg, group)
    report = oracle.generating_set_comparison(
        group, group.generators, gens_y, cfg.max_n, window=cfg.window, key=key)
    n_col = list(range(min(len(report.ratios_x), len(report.ratios_y))))
    columns = {
        "n": n_col,
        "ratio_x": [decimal_str(report.ratios_x[n]) for n in n_col],
        "ratio_y": [decimal_str(report.ratios_y[n]) for n in n_col],
        "abs_diff": [
            decimal_str(abs(report.ratios_x[n] - report.ratios_y[n])) for n in n_col
        ],
    }
    if cfg.fmt == "csv":
        return _csv_table(COMPARE_HEADER, columns)
    estimates = {
        "peak_x": decimal_str(report.estimate_x.peak),
        "peak_y": decimal_str(report.estimate_y.peak),
        "peak_abs_diff": decimal_str(report.peak_difference),
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
    then stability. A default slack of None means max(n, 1)."""
    n = min(cfg.max_n, cap)
    default = max(n, 1) if default_slack is None else default_slack
    slack = default if cfg.slack is None else cfg.slack
    spheres = _charge_budget(_series(cfg), n + slack)[:n + 1]
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
                  raag.Raag(cfg.graph()).element_key)[1]


def _validate_lamplighter(cfg: RunConfig) -> list[tuple[str, int, bool]]:
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
    return _suite(cfg, 16, 4, ("dihedral-inf: ball size 2n+1",
                               "dihedral-inf: class count 3 + n//2 from n=2"),
                  oracle.dihedral_conjugacy_key)[1]


def _validate_heisenberg(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    # no formula rows: perfbench/expected.json pins this suite's output
    return _suite(cfg, 6, None, key=oracle.heisenberg_conjugacy_key)[1]


@dataclass(frozen=True)
class Family:
    """Everything the verbs need to know about one family: the sphere sizes'
    series as (numerator, denominator) coefficients, the class counts by
    least length 0..n, and the oracle's group on the series' generators."""

    validate: Callable[[RunConfig], list[tuple[str, int, bool]]]
    series: Callable[[RunConfig], tuple[Iterable[int], Iterable[int]]]
    classes: Callable[[RunConfig, int], list[int]]
    group: Callable[[RunConfig], oracle.Group]
    parameters: Callable[[RunConfig], dict] = lambda cfg: {}
    # (cfg, group) -> (generating set y, class key); None: compare unsupported
    compare: Optional[Callable[[RunConfig, oracle.Group], tuple]] = None


FAMILIES = {
    "free": Family(_validate_free, lambda cfg: free_group.series(cfg.rank),
                   lambda cfg, n: free_group.conjugacy_sphere_counts(cfg.rank, n),
                   lambda cfg: oracle.FreeGroup(cfg.rank),
                   parameters=lambda cfg: {"rank": cfg.rank}, compare=_compare_free),
    # every element is its own class
    "free-abelian": Family(_validate_free_abelian, _free_abelian_series,
                           lambda cfg, n: list(islice(_series(cfg), n + 1)),
                           lambda cfg: oracle.FreeAbelian(cfg.dim),
                           parameters=lambda cfg: {"dim": cfg.dim},
                           compare=_compare_free_abelian),
    "raag": Family(_validate_raag, lambda cfg: raag.sphere_series(cfg.graph()),
                   lambda cfg, n: raag.class_spheres(cfg.graph(), n),
                   lambda cfg: oracle.RaagGroup(cfg.graph()),
                   parameters=lambda cfg: {"graph": cfg.graph_path}),
    "lamplighter": Family(_validate_lamplighter, lambda cfg: lamplighter.SERIES,
                          lambda cfg, n: lamplighter.conjugacy_counts(n)[0],
                          lambda cfg: oracle.Lamplighter()),
    "dihedral-inf": Family(_validate_dihedral, lambda cfg: oracle.DIHEDRAL_SERIES,
                           lambda cfg, n: oracle.dihedral_class_spheres(n),
                           lambda cfg: oracle.DihedralInfinite(),
                           compare=lambda cfg, group: ([(0,), (0, 1)],
                                                       oracle.dihedral_conjugacy_key)),
    "heisenberg": Family(_validate_heisenberg, lambda cfg: oracle.HEISENBERG_SERIES,
                         lambda cfg, n: oracle.heisenberg_class_spheres(n),
                         lambda cfg: oracle.Heisenberg()),
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
            # each verb's options are RunConfig fields; the ones it lacks keep their defaults
            cfg = RunConfig(**{k: v for k, v in vars(args).items() if k != "command"})
            verb = {"growth": run_growth, "compare": run_compare}.get(args.command)
            text, ok = (verb(cfg), True) if verb else run_validate(cfg)
        _emit(text, args.out)
        return 0 if ok else 1
    except (ValueError, OSError, BudgetExceededError, oracle.GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
