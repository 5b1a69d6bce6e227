"""Print every end-to-end metric of every workload in one table.

    python3 perfbench/report.py --seed 1

Runs each workload for ``run_seconds`` of ``BENCHMARK.json`` through
``run.run`` (the same code path as ``run.py``) and prints ``wall_s``,
``cpu_s``, ``peak_rss_mb``, ``setup_s`` and ``error_rate`` (failed ops over
attempted ops) with units and sample counts. Per-layer metrics come from
``run.py --trace 1``. Exits 1 if any op failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import workloads as wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "conjratio" / "cli.py").is_file():
        print(f"error: no conjratio sources under {root / 'src'}", file=sys.stderr)
        return 2
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    print(f"{'workload':9} {'metric':12} {'value':>14} {'unit':6} samples")
    for workload in wl.WORKLOADS:
        record = run.run(root, workload, args.seed, seconds, False)
        result, raw = record["result"], record["raw"]
        rows = [(name, m["value"], m["unit"],
                 len(raw["setup_samples"]) if name == "setup_s" else raw["passes"])
                for name, m in result["metrics"].items()]
        rows.append(("error_rate", result["failed"] / result["attempted"], "ratio",
                     result["attempted"]))
        for name, value, unit, n in rows:
            print(f"{workload:9} {name:12} {value:14.6g} {unit:6} {n}")
        for failure in record["failures"]:
            print(f"{workload:9} FAILED {failure}")
        ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
