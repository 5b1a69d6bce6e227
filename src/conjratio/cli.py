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
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional, Sequence

from . import free_group, lamplighter, oracle, raag
from .errors import BudgetExceededError, default_budget
from .raag import GraphFormatError
from .sequences import convolve, decimal_str, window_estimate
from .words import (
    ClosureHypothesisError,
    cycrep_counts,
    divisors,
    euler_phi,
    primitive_counts,
)

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
        assert self.graph_path is not None
        return raag.graph_from_file(self.graph_path)


@dataclass
class GrowthData:
    ball: list[int]
    sphere: list[int]
    conj_ball: list[int]
    conj_sphere: list[int]
    truncated: bool  # True when the budget cut the table short of max_n

    @property
    def last_n(self) -> int:
        return len(self.ball) - 1


def _differences(values: Sequence[int]) -> list[int]:
    return [values[0]] + [b - a for a, b in zip(values, values[1:])]


def _zd_ball_counts(dim: int, max_n: int) -> list[int]:
    balls = [2 * n + 1 for n in range(max_n + 1)]
    z_spheres = [1] + [2] * max_n
    for _ in range(dim - 1):
        balls = convolve(balls, z_spheres)
    return balls


def _charge_budget(balls: Sequence[int]) -> None:
    """Stop before enumerating a ball larger than the element budget; the
    error names the largest radius whose ball fits."""
    budget = default_budget()
    if balls[-1] > budget:
        raise BudgetExceededError(max(n for n, b in enumerate(balls) if b <= budget), budget)


def _free_growth(cfg: RunConfig, max_n: int) -> GrowthData:
    balls = free_group.ball_counts(cfg.rank, max_n)
    _charge_budget(balls)
    conj_sphere = free_group.conjugacy_sphere_counts(cfg.rank, max_n)
    return GrowthData(
        ball=balls,
        sphere=free_group.sphere_sizes(cfg.rank, max_n),
        conj_ball=list(accumulate(conj_sphere)),
        conj_sphere=conj_sphere,
        truncated=False,
    )


def _free_abelian_growth(cfg: RunConfig, max_n: int) -> GrowthData:
    balls = _zd_ball_counts(cfg.dim, max_n)
    spheres = _differences(balls)
    return GrowthData(balls, spheres, list(balls), list(spheres), truncated=False)


def _raag_growth(cfg: RunConfig, max_n: int) -> GrowthData:
    counts = raag.counts(cfg.graph(), max_n)
    return GrowthData(
        ball=list(counts.ball.values),
        sphere=list(counts.sphere.values),
        conj_ball=list(counts.conj_ball.values),
        conj_sphere=list(counts.conj_sphere.values),
        truncated=False,
    )


def _lamplighter_growth(cfg: RunConfig, max_n: int) -> GrowthData:
    balls = lamplighter.ball_counts(max_n)
    _charge_budget(balls)
    conj_sphere, conj_ball = lamplighter.conjugacy_counts(max_n)
    return GrowthData(balls, lamplighter.sphere_counts(max_n), conj_ball, conj_sphere, False)


def _keyed_oracle_growth(group, key: Callable, max_n: int) -> GrowthData:
    dist, spheres = oracle.ball_enumerate(group, max_n)
    conj_sphere, conj_ball = oracle.key_class_counts(dist, key, max_n)
    return GrowthData(list(accumulate(spheres)), list(spheres), conj_ball, conj_sphere, False)


def _growth_data(cfg: RunConfig, max_n: int) -> GrowthData:
    return FAMILIES[cfg.family].growth(cfg, max_n)


def _growth_with_truncation(cfg: RunConfig) -> GrowthData:
    try:
        return _growth_data(cfg, cfg.max_n)
    except BudgetExceededError as exc:
        data = _growth_data(cfg, exc.completed)
        data.truncated = True
        return data


def _growth_columns(data: GrowthData) -> dict[str, list]:
    ratio_col, nsr_col = [], []
    for n in range(data.last_n + 1):
        ratio_col.append(decimal_str(Fraction(data.conj_ball[n], data.ball[n])))
        nsr_col.append(decimal_str(Fraction(n * data.conj_sphere[n], data.sphere[n])))
    return {
        "n": list(range(data.last_n + 1)),
        "ball": data.ball,
        "sphere": data.sphere,
        "conj_ball": data.conj_ball,
        "conj_sphere": data.conj_sphere,
        "ratio": ratio_col,
        "n_sph_ratio": nsr_col,
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


def _json_table(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def run_growth(cfg: RunConfig) -> str:
    data = _growth_with_truncation(cfg)
    columns = _growth_columns(data)
    if cfg.fmt == "csv":
        trailer = f"#truncated,{data.last_n}" if data.truncated else None
        return _csv_table(GROWTH_HEADER, columns, trailer)
    payload = {
        "family": cfg.family,
        "parameters": FAMILIES[cfg.family].parameters(cfg),
        "max_n": cfg.max_n,
        "truncated": data.last_n if data.truncated else None,
        "columns": columns,
    }
    return _json_table(payload)


# compare setups: (group, generating set x, generating set y, class key)


def _compare_dihedral(cfg: RunConfig):
    group = oracle.DihedralInfinite()
    return group, [(0,), (1,)], [(0,), (0, 1)], oracle.dihedral_conjugacy_key


def _compare_free(cfg: RunConfig):
    group = oracle.FreeGroup(cfg.rank)
    standard = [(c,) for c in range(0, 2 * cfg.rank, 2)]
    if cfg.rank == 1:
        extended = [(0, 0), (0, 0, 0)]
    else:
        extended = standard + [(0, 2)]
    return group, standard, extended, free_group.conj_key


def _compare_free_abelian(cfg: RunConfig):
    group = oracle.FreeAbelian(cfg.dim)
    units = list(group.generators)
    doubled = [tuple(2 * a for a in v) for v in units]
    tripled = [tuple(3 * a for a in v) for v in units]
    return group, units, doubled + tripled, lambda x: x


def run_compare(cfg: RunConfig) -> str:
    family = FAMILIES[cfg.family]
    if family.compare is None:
        supported = tuple(sorted(name for name, f in FAMILIES.items() if f.compare))
        raise ValueError(f"compare supports families {supported}, got {cfg.family!r}")
    group, gens_x, gens_y, key = family.compare(cfg)
    report = oracle.generating_set_comparison(
        group, gens_x, gens_y, cfg.max_n,
        slack=cfg.slack, window=cfg.window, key=key)
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
    payload = {
        "family": cfg.family,
        "parameters": family.parameters(cfg),
        "max_n": cfg.max_n,
        "window": cfg.window,
        "columns": columns,
        "estimates": {
            "peak_x": decimal_str(report.estimate_x.peak),
            "peak_y": decimal_str(report.estimate_y.peak),
            "peak_abs_diff": decimal_str(report.peak_difference),
        },
    }
    return _json_table(payload)


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


def _partitions_agree(dist: dict, key: Callable, class_of: dict) -> bool:
    key_to_class: dict = {}
    class_to_key: dict = {}
    for x in dist:
        k, c = key(x), class_of[x]
        if key_to_class.setdefault(k, c) != c:
            return False
        if class_to_key.setdefault(c, k) != k:
            return False
    return True


def _validate_free(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    n = min(cfg.max_n, 8)
    slack = cfg.slack if cfg.slack is not None else 2
    group = oracle.FreeGroup(cfg.rank)
    table = oracle.conjugacy_classes(group, n, slack=slack)
    checks = [
        ("free: sphere formula vs BFS", n,
         oracle.ball_enumerate(group, n)[1] == free_group.sphere_sizes(cfg.rank, n)),
        ("free: conjugacy counts vs oracle", n,
         list(table.ball_classes) == free_group.conjugacy_ball_counts(cfg.rank, n)),
        ("free: oracle stable under slack-1", n, bool(table.stable)),
    ]
    strict = free_group.cyclically_reduced_counts(cfg.rank, max(n, 6))
    necklaces = cycrep_counts(strict)
    identity_ok = all(
        m * necklaces[m - 1] == sum(euler_phi(m // d) * strict[d - 1] for d in divisors(m))
        for m in range(1, len(strict) + 1)
    )
    checks.append(("free: necklace identity on cyclically reduced counts",
                   len(strict), identity_ok))
    return checks


def _validate_raag(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    n = min(cfg.max_n, 5)
    slack = cfg.slack if cfg.slack is not None else 2
    graph = cfg.graph()
    group = oracle.RaagGroup(graph)
    counts = raag.counts(graph, n)
    table = oracle.conjugacy_classes(group, n, slack=slack)
    dist, spheres = oracle.ball_enumerate(group, n)
    return [
        ("raag: ball counts vs oracle BFS", n,
         list(accumulate(spheres)) == list(counts.ball.values)),
        ("raag: conjugacy counts vs oracle", n,
         list(table.ball_classes) == list(counts.conj_ball.values)),
        ("raag: key partition matches oracle partition", n,
         _partitions_agree(dist, group.conjugacy_key, table.class_of)),
        ("raag: oracle stable under slack-1", n, bool(table.stable)),
    ]


def _validate_lamplighter(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    n = min(cfg.max_n, 7)
    slack = cfg.slack if cfg.slack is not None else n
    group = oracle.Lamplighter()
    dist, spheres = oracle.ball_enumerate(group, n)
    conj_sphere, conj_ball = lamplighter.conjugacy_counts(n)
    table = oracle.conjugacy_classes(group, n, slack=slack)
    return [
        ("lamplighter: metric formula vs BFS distance", n,
         all(lamplighter.word_length(x) == d for x, d in dist.items())),
        ("lamplighter: sphere counts vs BFS", n,
         spheres == lamplighter.sphere_counts(n)),
        ("lamplighter: conjugacy counts vs oracle", n,
         list(table.ball_classes) == conj_ball),
        ("lamplighter: key partition matches oracle partition", n,
         _partitions_agree(dist, lamplighter.conj_key, table.class_of)),
        ("lamplighter: oracle stable under slack-1", n, bool(table.stable)),
    ]


def _validate_free_abelian(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    n = min(cfg.max_n, 6 if cfg.dim <= 3 else 4)
    slack = cfg.slack if cfg.slack is not None else 2
    group = oracle.FreeAbelian(cfg.dim)
    _, spheres = oracle.ball_enumerate(group, n)
    table = oracle.conjugacy_classes(group, n, slack=slack)
    balls = _zd_ball_counts(cfg.dim, n)
    return [
        ("free-abelian: convolution balls vs oracle BFS", n,
         list(accumulate(spheres)) == balls),
        ("free-abelian: every element is its own class", n,
         list(table.ball_classes) == balls),
        ("free-abelian: oracle stable under slack-1", n, bool(table.stable)),
    ]


def _validate_dihedral(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    n = min(cfg.max_n, 16)
    slack = cfg.slack if cfg.slack is not None else 4
    group = oracle.DihedralInfinite()
    dist, spheres = oracle.ball_enumerate(group, n)
    table = oracle.conjugacy_classes(group, n, slack=slack)
    return [
        ("dihedral-inf: ball size 2n+1", n,
         list(accumulate(spheres)) == [2 * m + 1 for m in range(n + 1)]),
        ("dihedral-inf: class count 3 + n//2 from n=2", n,
         list(table.ball_classes[2:]) == [3 + m // 2 for m in range(2, n + 1)]),
        ("dihedral-inf: key partition matches oracle partition", n,
         _partitions_agree(dist, oracle.dihedral_conjugacy_key, table.class_of)),
        ("dihedral-inf: oracle stable under slack-1", n, bool(table.stable)),
    ]


def _validate_heisenberg(cfg: RunConfig) -> list[tuple[str, int, bool]]:
    n = min(cfg.max_n, 6)
    slack = cfg.slack if cfg.slack is not None else n
    group = oracle.Heisenberg()
    dist, _ = oracle.ball_enumerate(group, n)
    table = oracle.conjugacy_classes(group, n, slack=slack)
    return [
        ("heisenberg: key partition matches oracle partition", n,
         _partitions_agree(dist, oracle.heisenberg_conjugacy_key, table.class_of)),
        ("heisenberg: oracle stable under slack-1", n, bool(table.stable)),
    ]


@dataclass(frozen=True)
class Family:
    """Everything the verbs need to know about one family."""

    growth: Callable[[RunConfig, int], GrowthData]
    validate: Callable[[RunConfig], list[tuple[str, int, bool]]]
    parameters: Callable[[RunConfig], dict] = lambda cfg: {}
    compare: Optional[Callable[[RunConfig], tuple]] = None  # None: compare unsupported


FAMILIES = {
    "free": Family(_free_growth, _validate_free,
                   parameters=lambda cfg: {"rank": cfg.rank}, compare=_compare_free),
    "free-abelian": Family(_free_abelian_growth, _validate_free_abelian,
                           parameters=lambda cfg: {"dim": cfg.dim},
                           compare=_compare_free_abelian),
    "raag": Family(_raag_growth, _validate_raag,
                   parameters=lambda cfg: {"graph": cfg.graph_path}),
    "lamplighter": Family(_lamplighter_growth, _validate_lamplighter),
    "dihedral-inf": Family(
        lambda cfg, max_n: _keyed_oracle_growth(
            oracle.DihedralInfinite(), oracle.dihedral_conjugacy_key, max_n),
        _validate_dihedral, compare=_compare_dihedral),
    "heisenberg": Family(
        lambda cfg, max_n: _keyed_oracle_growth(
            oracle.Heisenberg(), oracle.heisenberg_conjugacy_key, max_n),
        _validate_heisenberg),
}


def run_validate(cfg: RunConfig) -> tuple[str, bool]:
    family = FAMILIES[cfg.family]
    checks = family.validate(cfg)
    all_ok = all(ok for _, _, ok in checks)
    if cfg.fmt == "json":
        payload = {
            "family": cfg.family,
            "parameters": family.parameters(cfg),
            "max_n": cfg.max_n,
            "checks": [{"name": name, "radius": radius, "passed": ok}
                       for name, radius, ok in checks],
            "all_passed": all_ok,
        }
        return _json_table(payload), all_ok
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

    def add_common(p, with_family=True):
        if with_family:
            p.add_argument("--family", required=True, choices=tuple(FAMILIES))
            p.add_argument("--rank", type=int, default=2,
                           help="rank for the free family (default 2)")
            p.add_argument("--dim", type=int, default=2,
                           help="dimension for the free-abelian family (default 2)")
            p.add_argument("--graph", dest="graph_path",
                           help="commutation graph file for the raag family")
        p.add_argument("--max-n", type=int, default=8, help="largest radius (default 8)")
        p.add_argument("--slack", type=int, default=None,
                       help="extra conjugation-closure radius (default: per family)")
        p.add_argument("--window", type=int, default=5,
                       help="terms in windowed limsup estimates (default 5)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="write the table here instead of stdout")

    add_common(sub.add_parser("growth", help="ball/sphere/conjugacy growth table"))
    add_common(sub.add_parser("validate", help="cross-validation suite for a family"))
    add_common(sub.add_parser("compare", help="conjugacy ratio under two generating sets"))
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
            _emit(run_necklace(args.counts_file, args.fmt), args.out)
            return 0
        cfg = RunConfig(
            family=args.family,
            rank=args.rank,
            dim=args.dim,
            graph_path=args.graph_path,
            max_n=args.max_n,
            slack=args.slack,
            fmt=args.fmt,
            window=args.window,
            out=args.out,
        )
        if args.command == "growth":
            _emit(run_growth(cfg), cfg.out)
            return 0
        if args.command == "compare":
            _emit(run_compare(cfg), cfg.out)
            return 0
        if args.command == "validate":
            text, ok = run_validate(cfg)
            _emit(text, cfg.out)
            return 0 if ok else 1
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError, ClosureHypothesisError, GraphFormatError,
            BudgetExceededError, oracle.GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
