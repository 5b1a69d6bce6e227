"""The README's examples run as printed: the library snippet, and the CLI
example's header and row; its ``Group`` field list is the record's."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

from conjratio import cli, oracle

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_snippet_runs():
    snippet = re.search(r"## Library\n+```python\n(.*?)```", README, re.S).group(1)
    scope: dict = {}
    exec(snippet, scope)
    conj, ball, est = scope["conj"], scope["ball"], scope["est"]
    assert est.window == 5
    assert est.peak == max(Fraction(c, b) for c, b in zip(conj[-5:], ball[-5:]))
    assert isinstance(est.slope, float)


def test_cli_example_row_matches_the_table(capsys):
    lines = README.splitlines()
    command = next(line for line in lines if line.startswith("conjratio growth --family free"))
    header = next(line for line in lines if line.startswith("# header:")).split(":", 1)[1]
    row = next(line for line in lines if line.startswith("# row:")).split(":", 1)[1]
    assert cli.main(shlex.split(command)[1:]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0] == header.strip()
    assert row.strip() in table[1:]


def test_group_field_list_matches_the_record():
    listed = re.search(r"the `Group` record \(([^)]*)\)", README).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(oracle.Group._fields)
