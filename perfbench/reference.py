"""One-off reference run of the acceptance criterion-9 golden configurations.

    python3 perfbench/reference.py

Runs the eleven golden configurations exactly as the criterion-9 test
writes them, plus ``growth --family raag`` on C4 at ``--max-n 8`` (the
ROADMAP baseline row), once each as a child process (wall, CPU, peak RSS)
and once in-process with the tracer installed (per-layer split). The
in-process output must equal the child's byte for byte. The result, with
the environment record, is written to ``perfbench/REFERENCE.json``.
These numbers are ungated reference points, one sample each.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run
import workloads as wl
from tracer import LAYER_NAMES, LAYERS, Instrumentation, Tracer

GRAPH_TEXTS = {
    "P3": "vertices: a b c\nedge: a b\nedge: b c\n",
    "C4": "vertices: a b c d\nedge: a b\nedge: b c\nedge: c d\nedge: d a\n",
}


def _necklace_totals(text: str):
    got = wl._column(text, "total")
    return None if got == [2 ** n for n in range(1, 13)] else f"totals {got}"


def _json_rows(radius: int):
    def check(text: str):
        got = json.loads(text)["columns"]["n"]
        return None if got == list(range(radius + 1)) else f"rows {got}"

    return check


def _cfg(args: str, check) -> wl.Config:
    return wl.Config(args, tuple(args.split()), check)


CONFIGS = (
    _cfg("growth --family free --rank 2 --max-n 10", wl.free_spheres(2)),
    _cfg("growth --family free-abelian --dim 3 --max-n 5", wl.rows_through(5)),
    _cfg("growth --family raag --graph {P3} --max-n 8", wl.rows_through(8)),
    _cfg("growth --family lamplighter --max-n 10 --format json", _json_rows(10)),
    _cfg("growth --family heisenberg --max-n 8", wl.rows_through(8)),
    _cfg("growth --family dihedral-inf --max-n 16", wl.dihedral_balls),
    _cfg("compare --family dihedral-inf --max-n 40", wl.rows_through(40)),
    _cfg("compare --family free-abelian --dim 1 --max-n 12", wl.rows_through(12)),
    _cfg("compare --family free --rank 2 --max-n 10", wl.rows_through(10)),
    _cfg("validate --family lamplighter --max-n 7", wl.all_checks_passed),
    _cfg("necklace {counts}", _necklace_totals),
    _cfg("growth --family raag --graph {C4} --max-n 8", wl.c4_balls),
)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    bench = root / run.BENCH_DIR
    bench.mkdir(exist_ok=True)
    env = run.environment(root, "reference", 0, 0, True)
    rows, failures = [], []
    with tempfile.TemporaryDirectory(dir=bench) as tmp:
        inputs = {}
        for name, text in GRAPH_TEXTS.items():
            inputs[name] = str(Path(tmp) / f"{name.lower()}.graph")
            Path(inputs[name]).write_text(text, encoding="utf-8")
        inputs["counts"] = str(Path(tmp) / "doubling.txt")
        Path(inputs["counts"]).write_text("".join(f"{2 ** n}\n" for n in range(1, 13)))
        samples = [run.run_child(root, config, inputs) for config in CONFIGS]
        cli = run.import_program(root)
        for config, sample in zip(CONFIGS, samples):
            tracer = Tracer()
            instruments = Instrumentation(tracer)
            try:
                start = perf_counter()
                code, stdout = run.run_inprocess(cli, config, inputs)
                traced = perf_counter() - start
            finally:
                instruments.remove()
            same = (code, stdout) == (0, sample.stdout)
            problem = (f"exit code {sample.code}" if sample.code else
                       config.check(sample.stdout.decode())
                       or (None if same else "in-process output differs")
                       or run.check_accounting(tracer, traced, 1))
            if problem:
                failures.append(f"{config.id}: {problem}")
            layers = {layer: 0.0 for layer in LAYER_NAMES}
            for name, value in tracer.self_s.items():
                layers[LAYERS[name]] += value
            rows.append({
                "config": config.id,
                "stdout_sha256": wl.digest(sample.stdout),
                "wall_s": sample.wall_s,
                "cpu_s": sample.cpu_s,
                "peak_rss_mb": sample.rss_mb,
                "rss_source": sample.rss_source,
                "traced_wall_s": traced,
                "unwrapped_s": traced - tracer.root_s,
                "layer_self_s": layers,
                "span_self_s": dict(sorted(tracer.self_s.items(), key=lambda kv: -kv[1])),
                "counts": {**{f"{k}.calls": v for k, v in sorted(tracer.calls.items())},
                           **dict(sorted(tracer.counts.items()))},
            })
            print(f"{sample.wall_s:8.3f}s wall {sample.cpu_s:8.3f}s cpu {sample.rss_mb:7.1f} MB "
                  f"{traced:8.3f}s traced  {config.id}", flush=True)
    record = {"environment": env, "failures": failures, "configs": rows}
    (Path(__file__).parent / "REFERENCE.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in failures:
        print("FAILED " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
