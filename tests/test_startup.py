"""Start-up cost: a CLI run loads only the modules its verb and family
execute, and the package serves its public names on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import conjratio

SRC = str(Path(conjratio.__file__).resolve().parent.parent)

# Imports conjratio.cli, runs main on the arguments when there are any, and
# prints the modules that were not loaded before, one a line. Its exit code
# is main's.
PROBE = """\
import os, sys
before = set(sys.modules)
import conjratio.cli
code = conjratio.cli.main([*sys.argv[1:], "--out", os.devnull]) if sys.argv[1:] else 0
print("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

# modules every run loads: the CLI and what it imports at the top
CORE = {"conjratio", "conjratio.cli", "conjratio.errors", "conjratio.sequences",
        "conjratio.words"}
# modules no CSV run loads; fractions brings decimal in, and argparse gettext
NEVER = {"argparse", "dataclasses", "decimal", "fractions", "gettext", "json", "statistics"}


def loaded_by(argv):
    # -S: no site hooks, so no module is loaded before the probe that could
    # hide the run's own imports
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("argv,family_modules", [
    ((), set()),
    (("growth", "--family", "free"), {"conjratio.free_group"}),
    (("compare", "--family", "free-abelian", "--dim", "1"), set()),
    (("growth", "--family", "heisenberg"), {"conjratio.coordinate_groups"}),
    (("growth", "--family", "dihedral-inf"), {"conjratio.coordinate_groups"}),
    (("compare", "--family", "dihedral-inf"), {"conjratio.coordinate_groups"}),
    (("validate", "--family", "dihedral-inf"),
     {"conjratio.oracle", "conjratio.coordinate_groups", "conjratio.suites"}),
    (("growth", "--family", "raag", "--graph", "{P3}"), {"conjratio.raag"}),
    (("growth", "--family", "lamplighter"), {"conjratio.lamplighter"}),
    (("validate", "--family", "lamplighter"),
     {"conjratio.oracle", "conjratio.lamplighter", "conjratio.suites"}),
], ids=["import-only", "growth-free", "compare-free-abelian", "growth-heisenberg",
        "growth-dihedral-inf", "compare-dihedral-inf", "validate-dihedral-inf", "growth-raag-p3",
        "growth-lamplighter", "validate-lamplighter"])
def test_a_run_loads_only_its_family_module(tmp_path, argv, family_modules):
    p3 = tmp_path / "p3.graph"
    p3.write_text("vertices: a b c\nedge: a b\nedge: b c\n", encoding="utf-8")
    loaded = loaded_by([str(p3) if arg == "{P3}" else arg for arg in argv])
    assert {m for m in loaded if m.startswith("conjratio")} == CORE | family_modules
    assert not loaded & NEVER


@pytest.mark.parametrize("argv,needed", [
    (("growth", "--family", "free"), {"json"}),
    (("validate", "--family", "free", "--max-n", "3"), {"json"}),
    # window_estimate: the exact peaks and their fitted slope
    (("compare", "--family", "free"), {"json", "fractions", "decimal", "statistics"}),
], ids=["growth", "validate", "compare"])
def test_only_compare_loads_fractions_among_json_runs(argv, needed):
    assert loaded_by([*argv, "--format", "json"]) & NEVER == needed


# Runs the CLI as ``python -m conjratio.cli`` would, through runpy, and
# prints main's exit code and the conjratio modules loaded, one a line.
RUN_AS_MAIN = """\
import runpy, sys
try:
    runpy.run_module("conjratio.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code)
print("\\n".join(sorted(m for m in sys.modules if m.startswith(("conjratio", "argparse")))))
"""


def test_validate_run_as_main_compiles_cli_once():
    # cli runs as __main__; a suite importing conjratio.cli would run it again
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = ["validate", "--family", "dihedral-inf", "--max-n", "4", "--out", os.devnull]
    proc = subprocess.run([sys.executable, "-S", "-c", RUN_AS_MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    code, *loaded = proc.stdout.split()
    assert (code, proc.stderr) == ("0", "")
    assert "conjratio.suites" in loaded
    assert "conjratio.cli" not in loaded and "argparse" not in loaded


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from conjratio import *", namespace)
    for name in conjratio.__all__:
        assert getattr(conjratio, name) is namespace[name]
    assert set(conjratio.__all__) <= set(dir(conjratio))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        conjratio.no_such_name
