"""Workload definitions, seeded inputs and output checks for the benchmark.

A workload is a fixed list of CLI configurations ("one pass"). The seed
decides the vertex labels, declaration order and edge order of the RAAG
graph files and the order of configurations within each pass; it never
changes the work a configuration does or the bytes it prints, so one
expected digest per configuration serves every seed.

Every output is checked twice: against the SHA-256 digest recorded in
``expected.json`` and by an independent check that recomputes a column
from a closed form without the program's help.

Run ``python3 perfbench/workloads.py --record`` from the repository root to
re-record ``expected.json`` after a deliberate change of CLI output.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# Base commutation graphs as (vertex count, edges); labels are seeded.
GRAPHS = {
    "P3": (3, ((0, 1), (1, 2))),
    "C4": (4, ((0, 1), (1, 2), (2, 3), (3, 0))),
}

Check = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Config:
    """One CLI invocation. ``{P3}``/``{C4}`` in ``args`` name a graph file."""

    id: str
    args: tuple[str, ...]
    check: Check
    env: dict = field(default_factory=dict)

    def argv(self, graph_paths: dict[str, str]) -> list[str]:
        return [a.format(**graph_paths) if a.startswith("{") else a for a in self.args]


# independent checks: each returns None when the output is right


def _rows(text: str) -> list[dict[str, str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _column(text: str, name: str) -> list[int]:
    return [int(row[name]) for row in _rows(text)]


def free_spheres(rank: int) -> Check:
    """Sphere sizes of the free group are 2k(2k-1)^(n-1)."""

    def check(text: str) -> Optional[str]:
        got = _column(text, "sphere")
        want = [1] + [2 * rank * (2 * rank - 1) ** (n - 1) for n in range(1, len(got))]
        return None if got == want else f"free rank {rank} spheres {got} != {want}"

    return check


def dihedral_balls(text: str) -> Optional[str]:
    """Balls of the infinite dihedral group hold 2n+1 elements."""
    got = _column(text, "ball")
    want = [2 * n + 1 for n in range(len(got))]
    return None if got == want else f"dihedral balls {got} != {want}"


def c4_balls(text: str) -> Optional[str]:
    """The C4 RAAG is F2 x F2, so its balls are convolve(F2 balls, F2 spheres)."""
    got = _column(text, "ball")
    f2_spheres = [1] + [4 * 3 ** (n - 1) for n in range(1, len(got))]
    f2_balls = [sum(f2_spheres[: n + 1]) for n in range(len(got))]
    want = [sum(f2_balls[i] * f2_spheres[n - i] for i in range(n + 1)) for n in range(len(got))]
    return None if got == want else f"C4 balls {got} != {want}"


def truncated_at(radius: int) -> Check:
    def check(text: str) -> Optional[str]:
        last = text.splitlines()[-1] if text else ""
        if last != f"#truncated,{radius}":
            return f"last line {last!r}, expected '#truncated,{radius}'"
        return rows_through(radius)(text)

    return check


def rows_through(radius: int) -> Check:
    def check(text: str) -> Optional[str]:
        got = _column(text, "n")
        return None if got == list(range(radius + 1)) else f"rows {got} != 0..{radius}"

    return check


def all_checks_passed(text: str) -> Optional[str]:
    lines = text.splitlines()
    if not lines or lines[-1] != "all checks passed":
        return f"validate did not pass: {lines[-1:]!r}"
    failed = [ln for ln in lines[:-1] if not ln.startswith("PASS  ")]
    return f"failing checks: {failed}" if failed else None


def empty_output(text: str) -> Optional[str]:
    return None if text == "" else f"unexpected output {text[:80]!r}"


def _growth(fam: str, *rest: str) -> tuple[str, ...]:
    return ("growth", "--family", fam, *rest)


WORKLOADS: dict[str, tuple[Config, ...]] = {
    "growth": (
        Config("growth/free-r2-n10", _growth("free", "--rank", "2", "--max-n", "10"),
               free_spheres(2)),
        # |B(3)| = 7,960,201 exceeds the default budget, so this reruns and stops at 2
        Config("growth/free-r100-n3", _growth("free", "--rank", "100", "--max-n", "3"),
               free_spheres(100)),
        Config("growth/free-abelian-d3-n5", _growth("free-abelian", "--dim", "3", "--max-n", "5"),
               rows_through(5)),
        Config("growth/lamplighter-n20", _growth("lamplighter", "--max-n", "20"),
               rows_through(20)),
        Config("growth/heisenberg-n20", _growth("heisenberg", "--max-n", "20"),
               rows_through(20)),
        Config("growth/dihedral-inf-n16", _growth("dihedral-inf", "--max-n", "16"),
               dihedral_balls),
        Config("growth/raag-c4-n7", _growth("raag", "--graph", "{C4}", "--max-n", "7"),
               c4_balls),
        Config("growth/raag-p3-n12-budget30000",
               _growth("raag", "--graph", "{P3}", "--max-n", "12"),
               truncated_at(8), env={"CONJRATIO_BUDGET": "30000"}),
    ),
    "compare": (
        Config("compare/free-r2-n9",
               ("compare", "--family", "free", "--rank", "2", "--max-n", "9"), rows_through(9)),
        Config("compare/dihedral-inf-n40",
               ("compare", "--family", "dihedral-inf", "--max-n", "40"), rows_through(40)),
        Config("compare/free-abelian-d1-n12",
               ("compare", "--family", "free-abelian", "--dim", "1", "--max-n", "12"),
               rows_through(12)),
    ),
    "validate": tuple(
        Config(f"validate/{name}", ("validate", "--family", *args), all_checks_passed)
        for name, args in (
            ("free-n8", ("free", "--max-n", "8")),
            ("lamplighter-n7", ("lamplighter", "--max-n", "7")),
            ("raag-p3-n5", ("raag", "--graph", "{P3}", "--max-n", "5")),
            ("heisenberg-n6", ("heisenberg", "--max-n", "6")),
            ("dihedral-inf-n16", ("dihedral-inf", "--max-n", "16")),
            ("free-abelian-d3-n6", ("free-abelian", "--dim", "3", "--max-n", "6")),
        )
    ),
}

# An import-only child: the set-up cost every CLI run pays.
SETUP = Config("setup/import", (), empty_output)


def graph_text(name: str, rng: random.Random) -> str:
    """The named graph with random labels, vertex order, edge order and
    endpoint order. None of these change any count the CLI prints."""
    k, edges = GRAPHS[name]
    labels: list[str] = []
    while len(labels) < k:
        label = "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
        if label not in labels:
            labels.append(label)
    declared = labels[:]
    rng.shuffle(declared)
    lines = [(labels[i], labels[j]) if rng.random() < 0.5 else (labels[j], labels[i])
             for i, j in edges]
    rng.shuffle(lines)
    body = "".join(f"edge: {a} {b}\n" for a, b in lines)
    return f"vertices: {' '.join(declared)}\n{body}"


def write_inputs(workdir: Path, seed: int) -> dict[str, str]:
    """Write the seeded graph files; returns placeholder name -> path."""
    rng = random.Random(f"graphs-{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in sorted(GRAPHS):
        path = workdir / f"{name.lower()}.graph"
        path.write_text(graph_text(name, rng), encoding="utf-8")
        paths[name] = str(path)
    return paths


def pass_order(configs, rng: random.Random) -> list[Config]:
    order = list(configs)
    rng.shuffle(order)
    return order


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verdict(config: Config, code: int, stdout: bytes, expected: dict[str, str]) -> Optional[str]:
    """None when the op succeeded, else why it failed."""
    if code != 0:
        return f"exit code {code}"
    if expected.get(config.id) != digest(stdout):
        return "stdout differs from the expected bytes"
    return config.check(stdout.decode("utf-8", errors="replace"))


def _record(root: Path) -> None:
    sys.path.insert(0, str(HERE))
    from run import run_child  # noqa: E402  (run.py imports this module)

    workdir = root / ".perfbench" / "record"
    graphs = write_inputs(workdir, seed=0)
    table = {}
    for config in (SETUP, *(c for cs in WORKLOADS.values() for c in cs)):
        sample = run_child(root, config, graphs)
        if sample.code != 0:
            raise SystemExit(f"{config.id} exited {sample.code}")
        problem = config.check(sample.stdout.decode("utf-8"))
        if problem:
            raise SystemExit(f"{config.id}: {problem}")
        table[config.id] = digest(sample.stdout)
        print(config.id, table[config.id])
    EXPECTED_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/workloads.py --record")
    _record(Path.cwd())
