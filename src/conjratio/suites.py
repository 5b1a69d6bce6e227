"""validate's suites: (name, radius, passed) rows per family, and their report.

``cli.FAMILIES`` hands each suite its family record and the budget charge.
This module never imports ``conjratio.cli``: under ``python -m conjratio.cli``
that import would compile and run the CLI a second time."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from . import oracle
from .sequences import iter_series
from .words import divisors, euler_phi

if TYPE_CHECKING:
    from .cli import Family, RunConfig

Rows = list[tuple[str, int, bool]]


def _partitions_agree(key: Callable, class_of: dict) -> bool:
    """The (key, class) pairs are a bijection: no more of them than keys or classes."""
    pairs = {(key(x), c) for x, c in class_of.items()}
    return len(pairs) == len({k for k, _ in pairs}) == len(set(class_of.values()))


def _suite(cfg: RunConfig, family: Family, charge: Callable, cap: int,
           default_slack: Optional[int], names: Sequence[str] = (),
           key: Optional[Callable] = None):
    """The oracle's closure over B(n + slack), n = min(max_n, cap), its budget
    charged against the family's sphere series before the group is built,
    and the rows every suite shares: the two named formula rows (the spheres
    and classes ``growth`` prints, against the BFS and the closure), the class
    key's partition of B(n) against the closure's where the family has a key,
    then stability. A default slack of None means max(n, 1). The closure
    enumerates B(n) only for a group with ``length``, but the charge stays
    B(n + slack): it bounds every conjugate the closure admits."""
    n = min(cfg.max_n, cap)
    default = max(n, 1) if default_slack is None else default_slack
    slack = default if cfg.slack is None else cfg.slack
    spheres = charge(iter_series(*family.series(cfg)), n + slack)[:n + 1]
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


def free(cfg: RunConfig, family: Family, charge: Callable) -> Rows:
    from . import free_group

    table, rows = _suite(cfg, family, charge, 8, 2, ("free: sphere formula vs BFS",
                                                     "free: conjugacy counts vs oracle"))
    strict = free_group.cyclically_reduced_counts(cfg.rank, max(table.radius, 6))
    necklaces = free_group.cycrep_counts(strict)  # a name perfbench/tracer.py wraps
    identity_ok = all(
        m * necklaces[m - 1] == sum(euler_phi(m // d) * strict[d - 1] for d in divisors(m))
        for m in range(1, len(strict) + 1))
    return rows + [("free: necklace identity on cyclically reduced counts", len(strict),
                    identity_ok)]


def raag(cfg: RunConfig, family: Family, charge: Callable) -> Rows:
    return _suite(cfg, family, charge, 5, 2, ("raag: ball counts vs oracle BFS",
                                              "raag: conjugacy counts vs oracle"),
                  cfg.artin.element_key)[1]


def lamplighter(cfg: RunConfig, family: Family, charge: Callable) -> Rows:
    from .lamplighter import conj_key, word_length

    table, rows = _suite(cfg, family, charge, 7, None, ("lamplighter: sphere counts vs BFS",
                                                        "lamplighter: conjugacy counts vs oracle"),
                         conj_key)
    return [("lamplighter: metric formula vs BFS distance", table.radius,
             all(word_length(x) == table.dist[x] for x in table.class_of)), *rows]


def free_abelian(cfg: RunConfig, family: Family, charge: Callable) -> Rows:
    return _suite(cfg, family, charge, 6 if cfg.dim <= 3 else 4, 2,
                  ("free-abelian: convolution balls vs oracle BFS",
                   "free-abelian: every element is its own class"))[1]


def dihedral_inf(cfg: RunConfig, family: Family, charge: Callable) -> Rows:
    from . import coordinate_groups

    return _suite(cfg, family, charge, 16, 4, ("dihedral-inf: ball size 2n+1",
                                               "dihedral-inf: class count 3 + n//2 from n=2"),
                  coordinate_groups.dihedral_conjugacy_key)[1]


def heisenberg(cfg: RunConfig, family: Family, charge: Callable) -> Rows:
    from . import coordinate_groups

    # no formula rows: perfbench/expected.json pins this suite's output
    return _suite(cfg, family, charge, 6, None,
                  key=coordinate_groups.heisenberg_conjugacy_key)[1]


def report(cfg: RunConfig, checks: Rows, render: Callable) -> tuple[str, bool]:
    """validate's output and whether every check passed: a PASS or FAIL line
    per check and a verdict, or with --format json the checks through ``render``."""
    all_ok = all(ok for _, _, ok in checks)
    if cfg.fmt == "json":
        payload = {"checks": [{"name": name, "radius": radius, "passed": ok}
                              for name, radius, ok in checks], "all_passed": all_ok}
        return render(payload, cfg), all_ok
    lines = [f"{'PASS' if ok else 'FAIL'}  {name} (radius {radius})"
             for name, radius, ok in checks]
    lines.append("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return "\n".join(lines) + "\n", all_ok
