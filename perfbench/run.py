"""Benchmark runner for the conjratio CLI.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 40 --trace 0

Run from the repository root. With ``--trace 0`` the benchmark is a closed
loop with one client: it starts one ``python -m conjratio.cli`` child at a
time, the next only after the previous has exited, and reads each child's
wall time and CPU time with ``os.wait4`` and its peak RSS from the child's
own ``VmHWM`` (see ``CLI_CHILD``). A pass runs every
configuration of the workload once, in a seeded order; passes repeat while
the next one is expected to finish within ``--seconds``. End-to-end metrics
are medians over passes (``setup_s``: over import-only children).

With ``--trace 1`` the same configurations run inside this process through
``conjratio.cli.main``: an untraced pass, then a pass with the wrappers of
``tracer.py`` installed, repeated while time allows. Per-layer metrics are
medians over traced passes; ``trace.overhead_ratio`` is traced wall over
untraced wall.

Every op's stdout is checked against the digest in ``expected.json`` and by
an independent check (see ``workloads.py``). The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 when every op succeeded, 1 when some failed and 2 when the
checkout holds no conjratio sources.

Nothing at the OS level is touched: no cache dropping, CPU pinning, priority
or governor changes. The environment record printed with every result says
how loaded the machine was instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import workloads as wl

# import-only children: SETUP_RUNS before the passes and SETUP_PER_PASS at
# the start of each pass, so the samples span the whole run
SETUP_RUNS = 3
SETUP_PER_PASS = 2
BENCH_DIR = ".perfbench"

# A CLI child runs ``conjratio.cli`` as ``python -m`` would, then writes its
# own peak RSS in kB (VmHWM, which exec resets) to the file descriptor given
# as its first argument. ru_maxrss from wait4 cannot serve here: on Linux it
# carries over the RSS of the process that forked the child, so it never
# reads below the harness's own peak. Where /proc is missing the child
# writes nothing and ru_maxrss is used, as ``rss_source`` records.
CLI_CHILD = """\
import atexit, os, runpy, sys
fd = int(sys.argv.pop(1))
def report():
    try:
        with open("/proc/self/status") as status:
            kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return
    os.write(fd, kb.encode())
atexit.register(report)
runpy.run_module("conjratio.cli", run_name="__main__", alter_sys=True)
"""

# The part of a traced pass outside every root span (output capture and
# environment set-up around each cli.main call) may be at most this share
# of the traced wall time, or this much per request, whichever is larger.
UNWRAPPED_SHARE = 0.01
UNWRAPPED_PER_REQUEST_S = 0.002


@dataclass
class Sample:
    config_id: str
    code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    rss_source: str


def child_env(root: Path, config: wl.Config) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("CONJRATIO_BUDGET", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    env.update(config.env)
    return env


def run_child(root: Path, config: wl.Config, graphs: dict[str, str]) -> Sample:
    """Run one config as a child process and wait for it to exit."""
    (root / BENCH_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=root / BENCH_DIR) as out, \
            tempfile.TemporaryFile(dir=root / BENCH_DIR) as hwm:
        if config.args:
            argv = [sys.executable, "-c", CLI_CHILD, str(hwm.fileno()), *config.argv(graphs)]
        else:
            argv = [sys.executable, "-c", "import conjratio.cli"]
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(root, config), cwd=root, pass_fds=(hwm.fileno(),))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
        hwm.seek(0)
        hwm_kb = hwm.read()
    rss_mb, source = ((int(hwm_kb) / 1024, "VmHWM") if hwm_kb
                      else (usage.ru_maxrss / 1024, "ru_maxrss"))
    return Sample(config.id, proc.returncode, stdout, wall,
                  usage.ru_utime + usage.ru_stime, rss_mb, source)


def repeat_within(seconds: float, step: Callable) -> list:
    """Run ``step`` at least once, and again while another run of the same
    length would still end within ``seconds`` of the start."""
    results = []
    started = perf_counter()
    while True:
        step_start = perf_counter()
        results.append(step())
        now = perf_counter()
        if now - started + (now - step_start) > seconds:
            return results


class Ledger:
    """Counts attempted ops and records why any of them failed."""

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, config: wl.Config, code: int, stdout: bytes) -> None:
        self.note(config.id, wl.verdict(config, code, stdout, self.expected))

    def note(self, op: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{op}: {problem}")


def measure(root: Path, workload: str, seed: int, seconds: float, ledger: Ledger,
            workdir: Path) -> tuple[dict, dict]:
    """Closed-loop end-to-end run: returns (metrics, raw samples)."""
    rng = random.Random(seed)
    graphs = wl.write_inputs(workdir, seed)

    def op(config: wl.Config) -> Sample:
        sample = run_child(root, config, graphs)
        ledger.judge(config, sample.code, sample.stdout)
        return sample

    op(wl.SETUP)  # warm-up: the first import may write bytecode caches
    setup = [op(wl.SETUP).wall_s for _ in range(SETUP_RUNS)]

    def one_pass() -> list[Sample]:
        setup.extend(op(wl.SETUP).wall_s for _ in range(SETUP_PER_PASS))
        return [op(c) for c in wl.pass_order(wl.WORKLOADS[workload], rng)]

    passes = repeat_within(seconds, one_pass)
    walls = [sum(s.wall_s for s in p) for p in passes]
    cpus = [sum(s.cpu_s for s in p) for p in passes]
    rsss = [max(s.rss_mb for s in p) for p in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    raw = {
        "passes": len(passes),
        "setup_samples": setup,
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "pass_peak_rss_mb": rsss,
        "ops": [[{"config": s.config_id, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
                  "rss_mb": s.rss_mb, "rss_source": s.rss_source} for s in p]
                for p in passes],
    }
    return metrics, raw


# per-layer metrics: (name, unit, better, value from one traced pass)


def _self(name: str) -> Callable:
    return lambda t: t.self_s.get(name, 0.0)


def _calls(name: str) -> Callable:
    return lambda t: t.calls.get(name, 0)


def _count(name: str) -> Callable:
    return lambda t: t.counts.get(name, 0)


def _ratio(numer: str, denom: str) -> Callable:
    return lambda t: t.counts[numer] / t.counts[denom] if t.counts.get(denom) else 0.0


def _layer(layer: str) -> Callable:
    from tracer import LAYERS

    names = [n for n, lay in LAYERS.items() if lay == layer]
    return lambda t: sum(t.self_s.get(n, 0.0) for n in names)


S, C, R = "s", "count", "ratio"
PER_LAYER: list[tuple[str, str, str, Callable]] = [
    # growth wall_s / cpu_s; raag code also validate wall_s
    ("raag.elements.self_s", S, "lower", _self("raag.elements")),
    ("raag.elements.yielded", C, "lower", _count("raag.elements.yielded")),
    ("raag.word.calls", C, "lower", _calls("raag.word")),
    ("raag.word.self_s", S, "lower", _self("raag.word")),
    ("raag.cyclic_reduce.self_s", S, "lower", _self("raag.cyclic_reduce")),
    ("raag.key.self_s", S, "lower", _self("raag.key")),
    ("raag.cyclic_class.calls", C, "lower", _calls("raag.cyclic_class")),
    ("raag.cyclic_class.members", C, "lower", _count("raag.cyclic_class.members")),
    ("raag.cyclic_class.self_s", S, "lower", _self("raag.cyclic_class")),
    ("raag.counts.self_s", S, "lower", _self("raag.counts")),
    ("lamplighter.elements_by_length.self_s", S, "lower", _self("lamplighter.elements_by_length")),
    ("lamplighter.elements_by_length.yielded", C, "lower",
     _count("lamplighter.elements_by_length.yielded")),
    ("lamplighter.conj_key.self_s", S, "lower", _self("lamplighter.conj_key")),
    ("lamplighter.sphere_counts.self_s", S, "lower", _self("lamplighter.sphere_counts")),
    ("lamplighter.conjugacy_counts.self_s", S, "lower", _self("lamplighter.conjugacy_counts")),
    ("cli.truncation_rerun_s", S, "lower", lambda t: t.duration_s("cli.truncation_rerun")),
    ("cli.truncation_reruns", C, "lower", _calls("cli.truncation_rerun")),
    # validate wall_s
    ("raag.multiply.calls", C, "lower", _calls("raag.multiply")),
    ("raag.multiply.self_s", S, "lower", _self("raag.multiply")),
    # growth and validate wall_s
    ("free_group.crosscheck.self_s", S, "lower", _self("free_group.crosscheck")),
    ("free_group.reduced_words.yielded", C, "lower", _count("free_group.reduced_words.yielded")),
    ("free_group.reduced_words.self_s", S, "lower", _self("free_group.reduced_words")),
    # compare wall_s and peak_rss_mb
    ("free_group.conj_key.calls", C, "lower", _calls("free_group.conj_key")),
    ("free_group.conj_key.self_s", S, "lower", _self("free_group.conj_key")),
    ("free_group.multiply.calls", C, "lower", _count("free_group.multiply.calls")),
    ("words.least_rotation.calls", C, "lower", _calls("words.least_rotation")),
    ("words.least_rotation.self_s", S, "lower", _self("words.least_rotation")),
    ("oracle.ball_enumerate.self_s", S, "lower", _self("oracle.ball_enumerate")),
    ("oracle.ball_enumerate.elements", C, "lower", _count("oracle.ball_enumerate.elements")),
    ("oracle.ball_enumerate.new_per_attempt", R, "higher",
     _ratio("oracle.ball_enumerate.new", "oracle.ball_enumerate.attempts")),
    ("oracle.key_class_counts.self_s", S, "lower", _self("oracle.key_class_counts")),
    ("oracle.key_class_counts.keys", C, "lower", _count("oracle.key_class_counts.keys")),
    ("oracle.check_generates.self_s", S, "lower", _self("oracle.check_generates")),
    ("oracle.generating_set_comparison.self_s", S, "lower",
     _self("oracle.generating_set_comparison")),
    # validate wall_s and peak_rss_mb
    ("oracle.conjugacy_classes.self_s", S, "lower", _self("oracle.conjugacy_classes")),
    ("oracle.conjugacy_classes.padded_elements", C, "lower",
     _count("oracle.conjugacy_classes.padded_elements")),
    ("oracle.conjugacy_classes.pad_ratio", R, "higher",
     _ratio("oracle.conjugacy_classes.ball_elements", "oracle.conjugacy_classes.padded_elements")),
    # guards: predicted unchanged on every workload
    ("words.cycrep_counts.self_s", S, "lower", _self("words.cycrep_counts")),
    ("sequences.self_s", S, "lower", _self("sequences")),
    ("cli.render.self_s", S, "lower", _self("cli.render")),
    ("cli.dispatch.self_s", S, "lower", _self("cli.dispatch")),
    # the five ROADMAP layers: summed self time of their spans
    *((f"layer.{layer}.self_s", S, "lower", _layer(layer))
      for layer in ("enumeration", "keys", "union_find", "arithmetic", "dispatch")),
]


def import_program(root: Path):
    """Import conjratio.cli from this checkout's sources, never another copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from conjratio import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported conjratio from {cli.__file__}, not {src}")
    return cli


def run_inprocess(cli, config: wl.Config, graphs: dict[str, str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    os.environ.pop("CONJRATIO_BUDGET", None)
    os.environ.update(config.env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(config.argv(graphs))
    finally:
        for key in config.env:
            os.environ.pop(key, None)
    return code, out.getvalue().encode("utf-8")


def traced_pass(cli, order, graphs, ledger: Ledger, tracer=None) -> float:
    """One in-process pass; with a tracer, each config is one request.
    Returns the summed wall time of the requests, judging left out."""
    wall = 0.0
    for config in order:
        if tracer is not None:
            tracer.request = config.id
        start = perf_counter()
        code, stdout = run_inprocess(cli, config, graphs)
        wall += perf_counter() - start
        ledger.judge(config, code, stdout)
    return wall


def check_accounting(tracer, wall: float, requests: int) -> Optional[str]:
    """The root spans must cover the traced wall time of ``requests`` CLI
    runs, up to a small unwrapped remainder, so that the self times account
    for the whole run; no self time may be negative and no span open."""
    unwrapped = wall - tracer.root_s
    limit = max(UNWRAPPED_SHARE * wall, UNWRAPPED_PER_REQUEST_S * requests)
    if not -1e-6 <= unwrapped <= limit:
        return (f"unwrapped remainder {unwrapped:.6f}s of traced wall {wall:.6f}s "
                f"is outside [0, {limit:.6f}s]")
    negative = [n for n, v in tracer.self_s.items() if v < -1e-9]
    if negative or tracer._stack:
        return f"span bookkeeping broken: negative {negative}, open {len(tracer._stack)}"
    return None


def trace(root: Path, workload: str, seed: int, seconds: float, ledger: Ledger,
          workdir: Path) -> tuple[dict, dict]:
    """In-process traced run: returns (metrics, raw record with kept spans)."""
    from tracer import Instrumentation, Tracer

    cli = import_program(root)
    rng = random.Random(seed)
    graphs = wl.write_inputs(workdir, seed)

    def pair():
        order = wl.pass_order(wl.WORKLOADS[workload], rng)
        untraced = traced_pass(cli, order, graphs, ledger)
        tracer = Tracer()
        instruments = Instrumentation(tracer)
        try:
            traced = traced_pass(cli, order, graphs, ledger, tracer)
        finally:
            instruments.remove()
        ledger.note("trace accounting", check_accounting(tracer, traced, len(order)))
        return untraced, traced, tracer

    pairs = repeat_within(seconds, pair)
    metrics = {name: (statistics.median_low(value(t) for _, _, t in pairs), unit)
               for name, unit, _, value in PER_LAYER}
    overhead = statistics.median_low(tr / un for un, tr, _ in pairs)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    last = pairs[-1][2]
    raw = {
        "pairs": len(pairs),
        "untraced_wall_s": [p[0] for p in pairs],
        "traced_wall_s": [p[1] for p in pairs],
        "unwrapped_s": [p[1] - p[2].root_s for p in pairs],
        "self_s": last.self_s,
        "calls": last.calls,
        "counts": last.counts,
        "spans": {"fields": ["request", "name", "start", "end", "parent"], "rows": last.spans},
    }
    return metrics, raw


def git_commit(root: Path) -> Optional[str]:
    """The commit checked out in ``root``, read from ``.git`` without git:
    a detached HEAD, a loose ref, or a line of ``packed-refs``."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def environment(root: Path, workload: str, seed: int, seconds: float, trace_on: bool) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = git_commit(root)
    if commit is None:
        print(f"warning: no git commit found under {root}; the result names the "
              "program by src_sha256 only", file=sys.stderr)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace_on),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "os_isolation": "none: no cache dropping, CPU pinning, priority or governor changes",
    }


def run(root: Path, workload: str, seed: int, seconds: float, trace_on: bool) -> dict:
    """Run one benchmark and return its result record (also saved on disk)."""
    env = environment(root, workload, seed, seconds, trace_on)
    ledger = Ledger(wl.load_expected())
    bench = root / BENCH_DIR
    bench.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=bench))
    try:
        fn = trace if trace_on else measure
        metrics, raw = fn(root, workload, seed, seconds, ledger, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"environment": env, "result": result, "failures": ledger.failures, "raw": raw}
    out = bench / "results" / f"{workload}-seed{seed}-trace{int(trace_on)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "conjratio" / "cli.py").is_file():
        print(f"error: no conjratio sources under {root / 'src'}", file=sys.stderr)
        return 2
    record = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment: " + json.dumps(record["environment"]))
    if "passes" in record["raw"]:
        raw = record["raw"]
        print(f"samples: {raw['passes']} passes, {len(raw['setup_samples'])} setup children")
    else:
        print(f"samples: {record['raw']['pairs']} untraced/traced pass pairs")
    for failure in record["failures"]:
        print("FAILED " + failure)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
