"""The benchmark's tracer (perfbench/tracer.py) wraps conjratio functions by
name. Installing and removing it here catches a renamed or deleted name in
the fast suite; the tracer's own tests live outside it."""

import contextlib
import importlib.util
import io
from pathlib import Path

from conjratio import cli, oracle, raag

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_finds_every_name_it_wraps_and_puts_them_back():
    tracer = load_tracer()
    originals = (cli.main, oracle.conjugacy_classes)
    hooks = tracer.Instrumentation(tracer.Tracer())
    assert (cli.main, oracle.conjugacy_classes) != originals
    hooks.remove()
    assert (cli.main, oracle.conjugacy_classes) == originals


def test_groups_built_under_the_tracer_call_its_wrappers():
    # the constructors must look the operations up when called, not at import
    tracer = load_tracer()
    recorder = tracer.Tracer()
    hooks = tracer.Instrumentation(recorder)
    try:
        artin = raag.Raag(raag.path_graph(3))
        for group in (oracle.FreeGroup(2), oracle.RaagGroup(artin)):
            table = oracle.conjugacy_classes(group, 2, slack=1)
        # the RAAG key spans of the benchmark's validate run
        oracle.key_class_counts(table.dist, artin.element_key, 2)
    finally:
        hooks.remove()
    assert recorder.counts.get("free_group.multiply.calls", 0) > 0
    for name in ("raag.multiply", "raag.word", "raag.cyclic_reduce", "raag.key"):
        assert recorder.calls.get(name, 0) > 0, name


def test_truncated_growth_runs_once_under_the_tracer(tmp_path, monkeypatch):
    # the benchmark's budget-truncated growth config: P3 to radius 12 under a
    # budget of 30,000 elements stops at radius 8
    path = tmp_path / "p3.graph"
    path.write_text("vertices: a b c\nedge: a b\nedge: b c\n", encoding="utf-8")
    monkeypatch.setenv("CONJRATIO_BUDGET", "30000")
    argv = ["growth", "--family", "raag", "--graph", str(path), "--max-n", "12"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    untraced = run()
    assert untraced[0] == 0 and untraced[1].splitlines()[-1] == "#truncated,8"
    tracer = load_tracer()
    recorder = tracer.Tracer()
    hooks = tracer.Instrumentation(recorder)
    try:
        traced = run()
    finally:
        hooks.remove()
    assert traced == untraced
    assert recorder.calls["cli.dispatch"] == 1
    assert "cli.truncation_rerun" not in recorder.calls


def test_traced_validate_records_the_union_find_layer():
    # the benchmark's union_find layer is the closure on validate's check
    # path: D_inf to radius 4 with the default slack 4; D_inf has a word
    # length, so the BFS builds B(4) (9 elements), not the padded B(8) (17)
    tracer = load_tracer()
    recorder = tracer.Tracer()
    hooks = tracer.Instrumentation(recorder)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["validate", "--family", "dihedral-inf", "--max-n", "4"])
    finally:
        hooks.remove()
    assert code == 0
    assert recorder.calls["oracle.ball_enumerate"] == 1
    assert recorder.calls["oracle.conjugacy_classes"] == 1
    assert recorder.counts["oracle.conjugacy_classes.padded_elements"] == 9
    assert recorder.counts["oracle.conjugacy_classes.ball_elements"] == 9
