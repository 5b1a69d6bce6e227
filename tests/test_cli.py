"""End-to-end tests for the command-line front end.

Every table in here was frozen from the library's own exact integers after
cross-checking those integers against the brute-force oracle in the other
test modules; the CLI tests only pin formatting, dispatch, exit codes, and
determinism on top of that.
"""

import contextlib
import dataclasses
import io
import json

import pytest

from conjratio import cli
from conjratio.cli import RunConfig


def run_cli(argv):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def rows(text):
    """CSV body as a list of per-row string lists, header dropped."""
    return [line.split(",") for line in text.splitlines()[1:]]


P3_GRAPH = "vertices: a b c\nedge: a b\nedge: b c\n"


@pytest.fixture
def p3_path(tmp_path):
    path = tmp_path / "p3.graph"
    path.write_text(P3_GRAPH, encoding="utf-8")
    return str(path)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(family="free")
        assert (cfg.rank, cfg.dim, cfg.max_n, cfg.fmt, cfg.window) == (2, 2, 8, "csv", 5)
        assert cfg.slack is None and cfg.out is None

    @pytest.mark.parametrize("kwargs,fragment", [
        ({"family": "nope"}, "family must be one of"),
        ({"family": "free", "max_n": -1}, "max radius"),
        ({"family": "free", "rank": 0}, "rank must be at least 1"),
        ({"family": "free-abelian", "dim": 0}, "dimension must be at least 1"),
        ({"family": "free", "slack": -2}, "slack must be nonnegative"),
        ({"family": "free", "fmt": "yaml"}, "format must be csv or json"),
        ({"family": "free", "window": 1}, "window must be at least 2"),
        ({"family": "raag"}, "needs --graph"),
    ])
    def test_rejects_bad_config(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            RunConfig(**kwargs)

    def test_graph_method_parses_file(self, p3_path):
        cfg = RunConfig(family="raag", graph_path=p3_path)
        graph = cfg.graph()
        assert graph.labels == ("a", "b", "c")
        assert graph.edges == frozenset({(0, 1), (1, 2)})


class TestGrowthCsv:
    def test_free_rank2_table(self):
        code, out, err = run_cli(["growth", "--family", "free", "--rank", "2",
                                  "--max-n", "10"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "n,ball,sphere,conj_ball,conj_sphere,ratio,n_sph_ratio"
        assert len(lines) == 12  # header + rows 0..10
        assert lines[4] == "3,53,36,25,12,0.471698113208,1.000000000000"
        assert lines[11] == "10,118097,78732,9519,5936,0.080603232936,0.753950109231"

    def test_free_abelian_ratio_is_one(self):
        code, out, _ = run_cli(["growth", "--family", "free-abelian", "--dim", "3",
                                "--max-n", "5"])
        assert code == 0
        body = rows(out)
        assert [r[1] for r in body] == ["1", "7", "25", "63", "129", "231"]
        assert all(r[5] == "1.000000000000" for r in body)
        # every element is its own class, so the class columns equal the counts
        assert all(r[1] == r[3] and r[2] == r[4] for r in body)

    def test_raag_path_graph_ratio_decreasing(self, p3_path):
        code, out, _ = run_cli(["growth", "--family", "raag", "--graph", p3_path,
                                "--max-n", "8"])
        assert code == 0
        body = rows(out)
        assert [r[3] for r in body] == [
            "1", "7", "25", "63", "139", "293", "631", "1417", "3355"]
        ratio = [r[5] for r in body]
        assert ratio[8] == "0.127931363203"
        # decimal strings of a fixed width compare like the numbers they render
        assert all(ratio[n] > ratio[n + 1] for n in range(2, 8))

    def test_lamplighter_table(self):
        code, out, _ = run_cli(["growth", "--family", "lamplighter", "--max-n", "10"])
        assert code == 0
        lines = out.splitlines()
        assert lines[3] == "2,10,6,8,4,0.800000000000,1.333333333333"
        assert lines[-1] == "10,1457,607,118,32,0.080988332189,0.527182866557"

    def test_dihedral_table(self):
        code, out, _ = run_cli(["growth", "--family", "dihedral-inf", "--max-n", "8"])
        assert code == 0
        body = rows(out)
        assert [r[1] for r in body] == [str(2 * n + 1) for n in range(9)]
        assert [r[3] for r in body] == ["1", "3", "4", "4", "5", "5", "6", "6", "7"]

    def test_heisenberg_table(self):
        code, out, _ = run_cli(["growth", "--family", "heisenberg", "--max-n", "8"])
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "1,5,4,5,4,1.000000000000,1.000000000000"
        assert lines[-1] == "8,1793,724,253,76,0.141104294479,0.839779005525"


class TestGrowthJson:
    def test_payload_shape(self):
        code, out, _ = run_cli(["growth", "--family", "dihedral-inf", "--max-n", "6",
                                "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["columns", "family", "max_n", "parameters", "truncated"]
        assert payload["family"] == "dihedral-inf"
        assert payload["truncated"] is None
        assert payload["columns"]["ball"] == [1, 3, 5, 7, 9, 11, 13]
        assert payload["columns"]["conj_ball"] == [1, 3, 4, 4, 5, 5, 6]

    def test_parameters_reflect_family(self, p3_path):
        _, out, _ = run_cli(["growth", "--family", "free", "--rank", "3",
                             "--max-n", "3", "--format", "json"])
        assert json.loads(out)["parameters"] == {"rank": 3}
        _, out, _ = run_cli(["growth", "--family", "raag", "--graph", p3_path,
                             "--max-n", "3", "--format", "json"])
        assert json.loads(out)["parameters"] == {"graph": p3_path}

    def test_output_ends_with_newline(self):
        _, out, _ = run_cli(["growth", "--family", "free", "--max-n", "2",
                             "--format", "json"])
        assert out.endswith("\n") and not out.endswith("\n\n")


class TestTruncation:
    def test_free_truncates_with_trailer(self, monkeypatch):
        monkeypatch.setenv("CONJRATIO_BUDGET", "200")
        code, out, err = run_cli(["growth", "--family", "free", "--max-n", "8"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[-1] == "#truncated,4"
        assert lines[-2].startswith("4,161,108,51,26,")
        # a ball exactly the size of the budget still fits
        monkeypatch.setenv("CONJRATIO_BUDGET", "161")
        assert run_cli(["growth", "--family", "free", "--max-n", "8"]) == (code, out, err)

    def test_json_truncation_marker(self, monkeypatch):
        monkeypatch.setenv("CONJRATIO_BUDGET", "200")
        _, out, _ = run_cli(["growth", "--family", "free", "--max-n", "8",
                             "--format", "json"])
        payload = json.loads(out)
        assert payload["truncated"] == 4
        assert payload["columns"]["n"][-1] == 4

    def test_lamplighter_truncates(self, monkeypatch):
        for budget in ("500", "490"):  # ball(8) = 490
            monkeypatch.setenv("CONJRATIO_BUDGET", budget)
            code, out, _ = run_cli(["growth", "--family", "lamplighter", "--max-n", "12"])
            assert code == 0
            assert out.splitlines()[-1] == "#truncated,8"

    def test_bfs_family_truncates(self, monkeypatch):
        monkeypatch.setenv("CONJRATIO_BUDGET", "300")
        code, out, _ = run_cli(["growth", "--family", "heisenberg", "--max-n", "9"])
        assert code == 0
        assert out.splitlines()[-1] == "#truncated,5"

    def test_bad_budget_value_is_an_error(self, monkeypatch):
        monkeypatch.setenv("CONJRATIO_BUDGET", "soon")
        code, _, err = run_cli(["growth", "--family", "free", "--max-n", "3"])
        assert code == 2
        assert "CONJRATIO_BUDGET must be an integer" in err


class TestCompare:
    def test_dihedral_two_sets_agree_closely(self):
        code, out, _ = run_cli(["compare", "--family", "dihedral-inf", "--max-n", "40"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,ratio_x,ratio_y,abs_diff"
        assert len(lines) == 42
        assert lines[-1] == "40,0.283950617284,0.268750000000,0.015200617284"
        assert float(lines[-1].split(",")[3]) < 0.05

    def test_rank_one_abelian_sets_identical(self):
        code, out, _ = run_cli(["compare", "--family", "free-abelian", "--dim", "1",
                                "--max-n", "12"])
        assert code == 0
        assert {r[3] for r in rows(out)} == {"0.000000000000"}

    def test_free_both_columns_decreasing(self):
        code, out, _ = run_cli(["compare", "--family", "free", "--rank", "2",
                                "--max-n", "10"])
        assert code == 0
        body = rows(out)
        for col in (1, 2):
            vals = [r[col] for r in body]
            assert all(vals[n] >= vals[n + 1] for n in range(10))
            assert all(vals[n] > vals[n + 1] for n in range(1, 10))

    def test_json_reports_window_estimates(self):
        _, out, _ = run_cli(["compare", "--family", "dihedral-inf", "--max-n", "40",
                             "--format", "json"])
        payload = json.loads(out)
        assert payload["window"] == 5
        assert payload["estimates"] == {
            "peak_x": "0.287671232877",
            "peak_y": "0.270833333333",
            "peak_abs_diff": "0.016837899543",
        }

    def test_unsupported_family_exits_2(self):
        code, _, err = run_cli(["compare", "--family", "lamplighter", "--max-n", "6"])
        assert code == 2
        assert "compare supports families" in err


class TestValidate:
    @pytest.mark.parametrize("family,max_n", [
        ("free", 6),
        ("free-abelian", 5),
        ("lamplighter", 7),
        ("dihedral-inf", 12),
        ("heisenberg", 5),
    ])
    def test_family_suites_pass(self, family, max_n):
        code, out, _ = run_cli(["validate", "--family", family, "--max-n", str(max_n)])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "all checks passed"
        assert lines[:-1] and all(line.startswith("PASS  ") for line in lines[:-1])

    def test_raag_suite_passes(self, p3_path):
        code, out, _ = run_cli(["validate", "--family", "raag", "--graph", p3_path,
                                "--max-n", "5"])
        assert code == 0
        assert out.splitlines()[-1] == "all checks passed"

    def test_lamplighter_names_its_checks(self):
        _, out, _ = run_cli(["validate", "--family", "lamplighter", "--max-n", "7"])
        assert "PASS  lamplighter: metric formula vs BFS distance (radius 7)" in out
        assert "PASS  lamplighter: key partition matches oracle partition (radius 7)" in out

    def test_json_report_lists_the_text_checks(self):
        argv = ["validate", "--family", "dihedral-inf", "--max-n", "20"]
        _, text, _ = run_cli(argv)
        code, out, err = run_cli(argv + ["--format", "json"])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert list(payload) == ["family", "parameters", "max_n", "checks", "all_passed"]
        assert payload["family"] == "dihedral-inf"
        assert payload["parameters"] == {}
        assert payload["max_n"] == 20
        assert payload["all_passed"] is True
        assert [f"PASS  {c['name']} (radius {c['radius']})" for c in payload["checks"]] \
            == text.splitlines()[:-1]
        assert {c["radius"] for c in payload["checks"]} == {16}
        assert all(c["passed"] is True for c in payload["checks"])

    def test_failed_check_exits_1_in_both_formats(self, monkeypatch):
        broken = dataclasses.replace(
            cli.FAMILIES["free"], validate=lambda cfg: [("ok", 1, True), ("broken", 2, False)])
        monkeypatch.setitem(cli.FAMILIES, "free", broken)
        code, out, _ = run_cli(["validate", "--family", "free", "--rank", "3"])
        assert code == 1
        assert out == "PASS  ok (radius 1)\nFAIL  broken (radius 2)\nSOME CHECKS FAILED\n"
        code, out, _ = run_cli(["validate", "--family", "free", "--rank", "3",
                                "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["parameters"] == {"rank": 3}
        assert payload["checks"] == [
            {"name": "ok", "radius": 1, "passed": True},
            {"name": "broken", "radius": 2, "passed": False},
        ]
        assert payload["all_passed"] is False


class TestFamilyTable:
    @pytest.mark.parametrize("family", list(cli.FAMILIES))
    def test_every_family_runs_growth_and_answers_compare(self, family, p3_path):
        graph = ["--graph", p3_path] if family == "raag" else []
        code, out, _ = run_cli(["growth", "--family", family, "--max-n", "3",
                                "--format", "json", *graph])
        assert code == 0
        expected = {"free": {"rank": 2}, "free-abelian": {"dim": 2}, "raag": {"graph": p3_path}}
        assert json.loads(out)["parameters"] == expected.get(family, {})
        # radius 4 gives the five terms the default window needs
        code, out, err = run_cli(["compare", "--family", family, "--max-n", "4", *graph])
        if cli.FAMILIES[family].compare is not None:
            assert code == 0 and err == ""
        else:
            assert code == 2 and out == ""
            assert err == ("error: compare supports families "
                           f"('dihedral-inf', 'free', 'free-abelian'), got '{family}'\n")


class TestNecklace:
    def test_doubling_counts(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("2\n4\n8\n# comment\n16\n\n32\n64\n", encoding="utf-8")
        code, out, _ = run_cli(["necklace", str(path)])
        assert code == 0
        assert out == (
            "n,total,primitive,classes\n"
            "1,2,2,2\n"
            "2,4,2,3\n"
            "3,8,6,4\n"
            "4,16,12,6\n"
            "5,32,30,8\n"
            "6,64,54,14\n"
        )

    def test_json_columns(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("2\n4\n8\n16\n32\n64\n", encoding="utf-8")
        _, out, _ = run_cli(["necklace", str(path), "--format", "json"])
        cols = json.loads(out)["columns"]
        assert cols["primitive"] == [2, 2, 6, 12, 30, 54]
        assert cols["classes"] == [2, 3, 4, 6, 8, 14]

    @pytest.mark.parametrize("content,fragment", [
        ("2\nfoo\n", "line 2: expected an integer count"),
        ("2\n-3\n", "line 2: counts cannot be negative"),
        ("\n# only comments\n", "lists no values"),
        ("1\n0\n", "closure hypotheses violated"),
    ])
    def test_bad_counts_exit_2(self, tmp_path, content, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(content, encoding="utf-8")
        code, _, err = run_cli(["necklace", str(path)])
        assert code == 2
        assert fragment in err

    def test_missing_file_exits_2(self, tmp_path):
        code, _, err = run_cli(["necklace", str(tmp_path / "absent.txt")])
        assert code == 2
        assert err.startswith("error: ")


class TestErrorExits:
    def test_loop_edge_graph_names_line(self, tmp_path):
        path = tmp_path / "loop.graph"
        path.write_text("vertices: a b\nedge: a a\n", encoding="utf-8")
        code, out, err = run_cli(["growth", "--family", "raag", "--graph", str(path),
                                  "--max-n", "4"])
        assert code == 2 and out == ""
        assert err == "error: line 2: loop edge at 'a'\n"

    def test_raag_without_graph(self):
        code, _, err = run_cli(["growth", "--family", "raag", "--max-n", "4"])
        assert code == 2
        assert "needs --graph" in err

    def test_bad_window_value(self):
        code, _, err = run_cli(["compare", "--family", "free", "--max-n", "6",
                                "--window", "1"])
        assert code == 2
        assert "window must be at least 2" in err


class TestOutputFile:
    def test_out_writes_file_and_keeps_stdout_quiet(self, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(["growth", "--family", "dihedral-inf", "--max-n", "4",
                                "--out", str(target)])
        assert code == 0 and out == ""
        body = target.read_text(encoding="utf-8")
        assert body.splitlines()[0] == "n,ball,sphere,conj_ball,conj_sphere,ratio,n_sph_ratio"
        assert len(body.splitlines()) == 6

    def test_unwritable_out_exits_2(self, tmp_path):
        code, _, err = run_cli(["growth", "--family", "free", "--max-n", "2",
                                "--out", str(tmp_path / "no" / "dir.csv")])
        assert code == 2
        assert err.startswith("error: ")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["growth", "--family", "free", "--rank", "2", "--max-n", "8"],
        ["growth", "--family", "heisenberg", "--max-n", "6", "--format", "json"],
        ["compare", "--family", "dihedral-inf", "--max-n", "20"],
        ["validate", "--family", "free-abelian", "--dim", "2", "--max-n", "5"],
    ])
    def test_two_runs_byte_identical(self, argv):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
