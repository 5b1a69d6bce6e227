"""The benchmark's tracer (perfbench/tracer.py) wraps conjratio functions by
name. Installing and removing it here catches a renamed or deleted name in
the fast suite; the tracer's own tests live outside it."""

import importlib.util
from pathlib import Path

from conjratio import cli, oracle

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_name_it_wraps_and_puts_them_back():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = (cli.main, oracle.conjugacy_classes)
    hooks = tracer.Instrumentation(tracer.Tracer())
    assert (cli.main, oracle.conjugacy_classes) != originals
    hooks.remove()
    assert (cli.main, oracle.conjugacy_classes) == originals
