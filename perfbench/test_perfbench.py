"""Tests of the benchmark itself: output checks, seeding and tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _config(config_id: str) -> wl.Config:
    return next(c for cs in wl.WORKLOADS.values() for c in cs if c.id == config_id)


def _child(config: wl.Config, tmp_path: Path, seed: int = 0) -> run.Sample:
    return run.run_child(ROOT, config, wl.write_inputs(tmp_path, seed))


def test_corrupted_expected_digest_makes_the_op_fail(tmp_path):
    config = _config("growth/dihedral-inf-n16")
    sample = _child(config, tmp_path)
    expected = wl.load_expected()
    assert wl.verdict(config, sample.code, sample.stdout, expected) is None

    digest = expected[config.id]
    corrupted = dict(expected, **{config.id: ("0" if digest[0] != "0" else "1") + digest[1:]})
    assert "differs" in wl.verdict(config, sample.code, sample.stdout, corrupted)
    assert "exit code" in wl.verdict(config, 2, sample.stdout, expected)

    ledger = run.Ledger(corrupted)
    ledger.judge(config, sample.code, sample.stdout)
    assert (ledger.attempted, len(ledger.failures)) == (1, 1)


def test_every_config_has_an_expected_digest():
    ids = {c.id for cs in wl.WORKLOADS.values() for c in cs} | {wl.SETUP.id}
    assert set(wl.load_expected()) == ids


@pytest.mark.parametrize("args, check", [
    (("growth", "--family", "free", "--rank", "3", "--max-n", "5"), wl.free_spheres(3)),
    (("growth", "--family", "dihedral-inf", "--max-n", "9"), wl.dihedral_balls),
    (("growth", "--family", "raag", "--graph", "{C4}", "--max-n", "3"), wl.c4_balls),
])
def test_independent_checks_accept_the_program_and_reject_a_changed_count(tmp_path, args, check):
    sample = _child(wl.Config("probe", args, check), tmp_path)
    text = sample.stdout.decode()
    assert sample.code == 0 and check(text) is None
    lines = text.splitlines()
    fields = lines[-1].split(",")
    fields[1] = str(int(fields[1]) + 1)  # ball column of the last row
    fields[2] = str(int(fields[2]) + 1)  # sphere column
    assert check("\n".join(lines[:-1] + [",".join(fields)]) + "\n") is not None


def test_truncation_check_needs_the_trailer():
    rows = "n,ball\n" + "".join(f"{n},{n + 1}\n" for n in range(9))
    check = wl.truncated_at(8)
    assert check(rows + "#truncated,8\n") is None
    assert check(rows) is not None
    assert check(rows + "#truncated,7\n") is not None


def test_validate_check_rejects_a_failed_line():
    good = "PASS  a (radius 3)\nPASS  b (radius 3)\nall checks passed\n"
    assert wl.all_checks_passed(good) is None
    assert wl.all_checks_passed(good.replace("PASS  b", "FAIL  b")) is not None
    assert wl.all_checks_passed("PASS  a\nSOME CHECKS FAILED\n") is not None


def test_child_peak_rss_is_its_own_not_the_harness_floor(tmp_path):
    sample = _child(_config("growth/dihedral-inf-n16"), tmp_path)
    assert sample.code == 0 and sample.rss_source == "VmHWM"
    # this test process has imported pytest and conjratio; the small child
    # must read below it, which ru_maxrss after a fork never does
    harness_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert 0 < sample.rss_mb < harness_mb


def test_commit_is_read_from_loose_and_packed_refs(tmp_path):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert run.git_commit(tmp_path) is None
    (git / "packed-refs").write_text("# pack-refs with: peeled\n"
                                     "1111111111111111111111111111111111111111 refs/heads/other\n"
                                     "2222222222222222222222222222222222222222 refs/heads/main\n")
    assert run.git_commit(tmp_path) == "2" * 40
    (git / "refs" / "heads" / "main").write_text("3" * 40 + "\n")
    assert run.git_commit(tmp_path) == "3" * 40
    (git / "HEAD").write_text("4" * 40 + "\n")
    assert run.git_commit(tmp_path) == "4" * 40


def test_seed_relabels_graphs_but_not_the_output(tmp_path):
    a = wl.write_inputs(tmp_path / "a", 1)
    b = wl.write_inputs(tmp_path / "b", 2)
    again = wl.write_inputs(tmp_path / "again", 1)
    for name in wl.GRAPHS:
        text = Path(a[name]).read_text()
        assert text == Path(again[name]).read_text()
        assert text != Path(b[name]).read_text()
    config = wl.Config("probe", ("growth", "--family", "raag", "--graph", "{P3}", "--max-n", "5"),
                       wl.empty_output)
    outputs = {run.run_child(ROOT, config, graphs).stdout for graphs in (a, b)}
    assert len(outputs) == 1


def test_pass_order_is_seeded():
    configs = wl.WORKLOADS["validate"]
    first = [c.id for c in wl.pass_order(configs, random.Random(5))]
    assert first == [c.id for c in wl.pass_order(configs, random.Random(5))]
    assert sorted(first) == sorted(c.id for c in configs)


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_exclude_children_and_add_up_to_the_root():
    t = tr.Tracer()
    t.begin("outer")
    _spin(0.02)
    t.begin("inner")
    _spin(0.03)
    t.end()
    t.end()
    assert t.self_s["inner"] >= 0.03
    assert 0.02 <= t.self_s["outer"] < 0.03
    assert sum(t.self_s.values()) == pytest.approx(t.root_s, abs=1e-9)
    assert run.check_accounting(t, t.root_s, 1) is None
    assert [s[1] for s in t.spans] == ["outer", "inner"] and t.spans[1][4] == 0


def test_accounting_fails_when_spans_miss_work():
    t = tr.Tracer()
    t.begin("cli.dispatch")
    _spin(0.05)
    t.end()
    assert run.check_accounting(t, t.root_s + 0.001, 1) is None
    assert "unwrapped" in run.check_accounting(t, t.root_s + 0.5, 1)
    assert "unwrapped" in run.check_accounting(t, t.root_s - 0.01, 1)
    t.begin("left open")
    assert "open" in run.check_accounting(t, t.root_s, 1)


def test_generator_spans_cover_next_calls_only():
    t = tr.Tracer()

    def produce():
        for i in range(3):
            _spin(0.005)
            yield i

    timed = tr._generator(t, produce, "gen")
    t.begin("consumer")
    for _ in timed():
        _spin(0.01)
    t.end()
    assert t.counts["gen.yielded"] == 3
    assert t.calls["gen"] == 4  # three items and the final StopIteration
    assert 0.015 <= t.self_s["gen"] < 0.03
    assert t.self_s["consumer"] >= 0.03


def test_instrumentation_traces_every_layer_and_restores_originals(tmp_path):
    cli = run.import_program(ROOT)
    from conjratio import free_group, raag

    originals = (cli.main, free_group.least_rotation, raag.Raag.word)
    t = tr.Tracer()
    instruments = tr.Instrumentation(t)
    try:
        assert cli.main is not originals[0]
        graphs = wl.write_inputs(tmp_path, 3)
        probes = [
            wl.Config("g", ("growth", "--family", "raag", "--graph", "{P3}", "--max-n", "6"),
                      wl.empty_output, env={"CONJRATIO_BUDGET": "300"}),
            wl.Config("v", ("validate", "--family", "raag", "--graph", "{P3}", "--max-n", "3"),
                      wl.empty_output),
            wl.Config("c", ("compare", "--family", "free", "--rank", "2", "--max-n", "4"),
                      wl.empty_output),
        ]
        start = time.perf_counter()
        for config in probes:
            code, _ = run.run_inprocess(cli, config, graphs)
            assert code == 0
        wall = time.perf_counter() - start
    finally:
        instruments.remove()
    assert (cli.main, free_group.least_rotation, raag.Raag.word) == originals
    assert run.check_accounting(t, wall, len(probes)) is None
    assert t.calls["cli.dispatch"] == 3 and t.calls["cli.truncation_rerun"] == 1
    for name in ("raag.elements", "raag.word", "raag.multiply", "oracle.conjugacy_classes",
                 "free_group.conj_key", "words.least_rotation", "oracle.check_generates"):
        assert t.calls.get(name), name
    assert 0 < run._ratio("oracle.conjugacy_classes.ball_elements",
                          "oracle.conjugacy_classes.padded_elements")(t) < 1
    assert set(tr.LAYERS) >= set(t.calls)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == [row[:3] for row in run.PER_LAYER] + [
        ("trace.overhead_ratio", "ratio", "lower")]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
