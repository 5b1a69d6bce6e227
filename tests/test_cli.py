"""End-to-end tests for the command-line front end.

Every table in here was frozen from the library's own exact integers after
cross-checking those integers against the brute-force oracle in the other
test modules; the CLI tests only pin formatting, dispatch, exit codes, and
determinism on top of that.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conjratio import cli, coordinate_groups, free_group, lamplighter, oracle, raag
from conjratio.cli import RunConfig
from conjratio.sequences import convolve, decimal_str


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
C4_GRAPH = "vertices: a b c d\nedge: a b\nedge: b c\nedge: c d\nedge: d a\n"
P4_GRAPH = "vertices: a b c d\nedge: a b\nedge: b c\nedge: c d\n"
C5_GRAPH = "vertices: a b c d e\nedge: a b\nedge: b c\nedge: c d\nedge: d e\nedge: e a\n"
LAMPLIGHTER_N400 = Path(__file__).resolve().parents[1] / "data" / "lamplighter-n400.csv"
HEISENBERG_N200 = Path(__file__).resolve().parents[1] / "data" / "heisenberg-n200.csv"


def threshold_graph(k):
    """Vertex i is joined to every earlier vertex when i is odd and to none
    when i is even: a cograph whose cotree is as deep as the graph."""
    lines = ["vertices: " + " ".join(f"v{i}" for i in range(k))]
    lines += [f"edge: v{j} v{i}" for i in range(1, k, 2) for j in range(i)]
    return "\n".join(lines) + "\n"


@st.composite
def graph_files(draw):
    """The text of a graph file on 1..5 vertices, cograph or not, and now
    and then one malformed line somewhere in it. A drawn path through four
    vertices, kept or not, makes non-cographs common."""
    labels = "abcde"[:draw(st.sampled_from([5, 4, 3, 2, 1]))]
    pairs = list(itertools.combinations(labels, 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if len(labels) >= 4 and draw(st.booleans()):
        path = draw(st.permutations(labels))[:4]
        edges -= {tuple(sorted(pair)) for pair in itertools.combinations(path, 2)}
        edges |= {tuple(sorted(path[i:i + 2])) for i in range(3)}
    lines = ["vertices: " + " ".join(labels)] + [f"edge: {x} {y}" for x, y in sorted(edges)]
    fault = draw(st.sampled_from(
        [None] * 12 + ["edge: a a", "edge: a z", "edge: a", "vertices: x", "junk"]))
    if fault is not None:
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), fault)
    return "\n".join(lines) + "\n"


@st.composite
def counts_files(draw):
    """The text of a counts file: up to 60 lines of counts, with negatives,
    blank lines, comments and junk mixed in."""
    line = st.one_of(st.integers(min_value=0, max_value=10 ** 12).map(str),
                     st.integers(min_value=-10 ** 6, max_value=-1).map(str),
                     st.sampled_from(["", "   ", "# a comment", "7 # seven", "x", "1.5", "--"]))
    return "\n".join(draw(st.lists(line, max_size=60))) + draw(st.sampled_from(["", "\n"]))


@st.composite
def compare_and_validate_argv(draw):
    """A compare or validate command line with extreme --rank, --dim,
    --max-n, --slack and --window."""
    verb = draw(st.sampled_from(["compare", "validate"]))
    family = draw(st.sampled_from(sorted(set(cli.FAMILIES) - {"raag"})))
    flags = {"--rank": draw(st.integers(min_value=1, max_value=10 ** 6)),
             "--dim": draw(st.integers(min_value=1, max_value=10 ** 4)),
             "--max-n": draw(st.integers(min_value=0, max_value=10 ** 6))}
    if verb == "validate":
        flags["--slack"] = draw(st.integers(min_value=0, max_value=10 ** 6))
    else:
        flags["--window"] = draw(st.integers(min_value=2, max_value=8))
    return [verb, "--family", family, *(str(x) for pair in flags.items() for x in pair)]


def unbounded_by_the_budget(argv, budget):
    """The validate draws whose cost the element budget does not bound, listed
    as open faults in CHANGES.md; compare counts by formula and is never left
    out. The budget counts elements, but an element of D-infinity or F1 is as
    long as its radius, validate's closure conjugates each element of Z^dim by
    dim generators of dim coordinates, and validate padded only to radius 1 or
    less builds F_rank and conjugates its 2 rank + 1 elements by rank
    generators."""
    if argv[0] != "validate":
        return False
    opts = dict(zip(argv[1::2], argv[2::2]))
    family, rank, dim = opts["--family"], int(opts["--rank"]), int(opts["--dim"])
    radius = int(opts["--max-n"]) + int(opts["--slack"])  # at least the BFS's
    if family == "dihedral-inf" or (family == "free" and rank == 1):
        return min(radius, budget // 2) > 300
    return (family == "free-abelian" and dim > 10) or (radius <= 1 and rank > 300)


@pytest.fixture
def p3_path(tmp_path):
    path = tmp_path / "p3.graph"
    path.write_text(P3_GRAPH, encoding="utf-8")
    return str(path)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(family="free")
        assert (cfg.rank, cfg.dim, cfg.max_n, cfg.fmt, cfg.window) == (2, 2, 8, "csv", 5)
        assert cfg.slack is None

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

    def test_artin_is_built_from_the_graph_file_once(self, p3_path):
        cfg = RunConfig(family="raag", graph_path=p3_path)
        artin = cfg.artin
        assert artin.graph.labels == ("a", "b", "c")
        assert artin.graph.edges == frozenset({(0, 1), (1, 2)})
        assert cfg.artin is artin


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

    @pytest.mark.parametrize("max_n,budget,last_line", [
        ("20", "1000", "#truncated,5"),  # |B(5)| = 485 and |B(6)| = 1,457 for rank 2
        ("8", "5000000", "8,"),
    ], ids=["truncated", "whole"])
    def test_growth_reads_its_series_once(self, monkeypatch, max_n, budget, last_line):
        monkeypatch.setenv("CONJRATIO_BUDGET", budget)
        argv = ["growth", "--family", "free", "--max-n", max_n]
        expected = run_cli(argv)
        assert expected[0] == 0 and expected[1].splitlines()[-1].startswith(last_line)
        right, calls = cli.FAMILIES["free"], []

        def counting_series(cfg):
            calls.append(cfg)
            return right.series(cfg)

        monkeypatch.setitem(cli.FAMILIES, "free",
                            right._replace(series=counting_series))
        assert run_cli(argv) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("dim,n,ball", [(3, 5, 231), (1, 5, 11)])
    def test_free_abelian_budget_boundary(self, monkeypatch, dim, n, ball):
        argv = ["growth", "--family", "free-abelian", "--dim", str(dim), "--max-n"]
        monkeypatch.setenv("CONJRATIO_BUDGET", str(ball))
        code, table, err = run_cli(argv + [str(n)])
        assert (code, err) == (0, "")
        assert rows(table)[-1][:2] == [str(n), str(ball)]
        assert run_cli(argv + [str(n + 1)]) == (0, table + f"#truncated,{n}\n", "")
        monkeypatch.setenv("CONJRATIO_BUDGET", str(ball - 1))
        _, out, _ = run_cli(argv + [str(n)])
        assert out.splitlines()[-1] == f"#truncated,{n - 1}"
        assert rows(out)[-2][0] == str(n - 1)

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

    @pytest.mark.parametrize("argv,max_n,completed", [
        # ball(26) = 4,271,663, ball(27) = 6,933,430
        (["--family", "lamplighter"], "2000", 26),
        # ball(13) = 3,188,645, ball(14) = 9,565,937; the ball list to
        # n = 10^6 would exhaust memory
        (["--family", "free"], "1000000", 13),
        # ball(1580) = 4,995,961 and ball(154) = 4,917,529
        (["--family", "free-abelian", "--dim", "2"], "1000000000", 1580),
        (["--family", "free-abelian", "--dim", "3"], "1000000000", 154),
    ], ids=["lamplighter", "free", "Z2", "Z3"])
    def test_far_past_the_budget_stops_at_once(self, monkeypatch, argv, max_n, completed):
        monkeypatch.delenv("CONJRATIO_BUDGET", raising=False)
        start = time.perf_counter()
        code, out, err = run_cli(["growth", *argv, "--max-n", max_n])
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        _, table, _ = run_cli(["growth", *argv, "--max-n", str(completed)])
        assert out == table + f"#truncated,{completed}\n"

    def test_lamplighter_far_radius_under_a_huge_budget(self, monkeypatch):
        monkeypatch.setenv("CONJRATIO_BUDGET", str(10 ** 200))
        start = time.perf_counter()
        code, out, err = run_cli(["growth", "--family", "lamplighter", "--max-n", "400"])
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        _, head, _ = run_cli(["growth", "--family", "lamplighter", "--max-n", "60"])
        assert out.startswith(head)
        assert len(out.splitlines()) == 402

    def test_published_lamplighter_table_is_current(self, monkeypatch):
        # data/lamplighter-n400.csv is this command's output
        monkeypatch.setenv("CONJRATIO_BUDGET", str(10 ** 200))
        _, out, _ = run_cli(["growth", "--family", "lamplighter", "--max-n", "400"])
        assert out.encode() == LAMPLIGHTER_N400.read_bytes()

    def test_published_heisenberg_table_is_current(self, monkeypatch):
        # data/heisenberg-n200.csv is this command's output
        monkeypatch.setenv("CONJRATIO_BUDGET", str(10 ** 200))
        start = time.perf_counter()
        _, out, _ = run_cli(["growth", "--family", "heisenberg", "--max-n", "200"])
        assert time.perf_counter() - start < 1
        assert len(out.splitlines()) == 202
        assert out.encode() == HEISENBERG_N200.read_bytes()

    def test_huge_dimension_reads_only_the_binomials_it_needs(self):
        # |B(1)| = 2,000,001 fits the default budget, |B(2)| does not
        start = time.perf_counter()
        code, out, err = run_cli(["growth", "--family", "free-abelian", "--dim", "1000000",
                                  "--max-n", "5"])
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == ["1,2000001,2000000,2000001,2000000,1.000000000000,"
                                         "1.000000000000", "#truncated,1"]

    def test_bfs_family_truncates(self, monkeypatch):
        monkeypatch.setenv("CONJRATIO_BUDGET", "300")
        code, out, _ = run_cli(["growth", "--family", "heisenberg", "--max-n", "9"])
        assert code == 0
        assert out.splitlines()[-1] == "#truncated,5"

    @pytest.mark.parametrize("argv,budget,completed", [
        (["--family", "free", "--rank", "100", "--max-n", "1"], "5000000", 2),
        (["--family", "free-abelian", "--dim", "1000", "--max-n", "4"], "200000", 1),
        (["--family", "lamplighter", "--max-n", "7", "--slack", "30"], "500000", 21),
        # ball(58) = 4,840,493 and ball(249,999) = 499,999; a D-infinity BFS that far
        # would hold about n^2 letters
        (["--family", "heisenberg", "--max-n", "6", "--slack", "100"], "5000000", 58),
        (["--family", "dihedral-inf", "--max-n", "16", "--slack", "300000"], "500000", 249999),
    ])
    @pytest.mark.parametrize("slack", [[], ["--slack", "1000000"]])
    def test_validate_charges_the_budget_before_enumerating(self, monkeypatch, argv, budget,
                                                            completed, slack):
        # the padded balls have millions of elements; the closed forms stop at once
        monkeypatch.setenv("CONJRATIO_BUDGET", budget)
        start = time.perf_counter()
        code, out, err = run_cli(["validate", *argv, *slack])
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == f"error: element budget {budget} exceeded; completed radius {completed}\n"

    @pytest.mark.parametrize("argv,outer,ball", [
        (["--family", "free", "--max-n", "1"], 3, 53),
        (["--family", "free", "--rank", "1", "--max-n", "4"], 6, 13),
        (["--family", "free-abelian", "--dim", "3", "--max-n", "2"], 4, 129),
        (["--family", "free-abelian", "--dim", "1", "--max-n", "3"], 5, 11),
    ])
    def test_validate_padded_ball_exactly_at_budget_fits(self, monkeypatch, argv, outer, ball):
        # outer = max-n + the default slack 2; ball = |B(outer)|
        monkeypatch.setenv("CONJRATIO_BUDGET", str(ball))
        assert run_cli(["validate", *argv])[0] == 0
        monkeypatch.setenv("CONJRATIO_BUDGET", str(ball - 1))
        assert run_cli(["validate", *argv]) == (
            2, "", f"error: element budget {ball - 1} exceeded; completed radius {outer - 1}\n")

    @pytest.mark.parametrize("verb", ["validate", "compare"])
    @pytest.mark.parametrize("argv,budget,err", [
        # the group (dim unit vectors of length dim) is built only after the charge
        (["--family", "free-abelian", "--dim", "2000", "--max-n", "4"], "200000",
         "element budget 200000 exceeded; completed radius 1"),
        (["--family", "free", "--rank", "600000", "--max-n", "3"], None,
         "element budget 5000000 exceeded; completed radius 1"),
        # |B(2)| = 1,241,250,004,997 fits this budget; validate's oracle spells a
        # letter as one str character, while compare builds no group and has no cap
        ({"validate": ["--family", "free", "--rank", "557057", "--max-n", "0"],
          "compare": ["--family", "free", "--rank", "557057", "--max-n", "1", "--window", "2"]},
         str(10 ** 13), {"validate": "rank must be at most 557056, one str character per letter",
                         "compare": None}),
    ], ids=["Z^2000", "F600000", "rank-cap"])
    def test_compare_and_validate_charge_before_building_the_group(
            self, monkeypatch, verb, argv, budget, err):
        if isinstance(argv, dict):
            argv, err = argv[verb], err[verb]
        if budget is None:
            monkeypatch.delenv("CONJRATIO_BUDGET", raising=False)
        else:
            monkeypatch.setenv("CONJRATIO_BUDGET", budget)
        start = time.perf_counter()
        code, out, stderr = run_cli([verb, *argv])
        assert time.perf_counter() - start < 0.5
        if err is None:  # the table, to radius 1
            assert (code, stderr) == (0, "")
            assert [row[0] for row in rows(out)] == ["0", "1"]
        else:
            assert (code, out, stderr) == (2, "", f"error: {err}\n")

    @pytest.mark.parametrize("text,argv,budget,completed", [
        # |B(6)| = 2,901 and |B(7)| = 8,731 for P3: the charge names the
        # radius the oracle's BFS would
        (P3_GRAPH, ["--max-n", "5"], "5000", 6),
        # |B(10)| = 236,173 and |B(11)| = 708,563
        (P3_GRAPH, ["--max-n", "5", "--slack", "1000000"], "500000", 10),
        # P4 is not a cograph: its series reads clique counts term by term
        (P4_GRAPH, ["--max-n", "4"], "2000", 4),
    ], ids=["P3", "P3-huge-slack", "P4"])
    def test_validate_raag_charges_the_series_first(self, tmp_path, monkeypatch, text, argv,
                                                    budget, completed):
        path = tmp_path / "g.graph"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setenv("CONJRATIO_BUDGET", budget)
        start = time.perf_counter()
        assert run_cli(["validate", "--family", "raag", "--graph", str(path), *argv]) == (
            2, "", f"error: element budget {budget} exceeded; completed radius {completed}\n")
        assert time.perf_counter() - start < 2

    def test_raag_cograph_grows_without_enumerating(self, tmp_path, monkeypatch, p3_path):
        def refuse(*args, **kwargs):
            raise AssertionError("growth enumerated elements")

        monkeypatch.setattr(raag.Raag, "elements", refuse)
        monkeypatch.setattr(oracle, "ball_enumerate", refuse)
        path = tmp_path / "c4.graph"
        path.write_text(C4_GRAPH, encoding="utf-8")
        monkeypatch.setenv("CONJRATIO_BUDGET", str(10 ** 200))
        start = time.perf_counter()
        code, out, err = run_cli(["growth", "--family", "raag", "--graph", str(path),
                                  "--max-n", "40"])
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        # the right-angled Artin group of C4 is F2 x F2
        body = rows(out)
        spheres = free_group.sphere_sizes(2, 40)
        classes = free_group.conjugacy_sphere_counts(2, 40)
        assert [int(r[1]) for r in body] == convolve(free_group.ball_counts(2, 40), spheres)
        assert [int(r[4]) for r in body] == convolve(classes, classes)
        # the budget stop of the benchmark's P3 configuration
        monkeypatch.setenv("CONJRATIO_BUDGET", "30000")
        _, out, _ = run_cli(["growth", "--family", "raag", "--graph", p3_path, "--max-n", "12"])
        assert out.splitlines()[-1] == "#truncated,8"

    def test_deep_cotree_grows_at_once_and_matches_the_word_counter(self, tmp_path,
                                                                    monkeypatch):
        path = tmp_path / "threshold.graph"
        path.write_text(threshold_graph(50), encoding="utf-8")
        argv = ["growth", "--family", "raag", "--graph", str(path), "--max-n", "6"]
        monkeypatch.delenv("CONJRATIO_BUDGET", raising=False)
        start = time.perf_counter()
        code, full, err = run_cli(argv)
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert full.splitlines()[-1] == "#truncated,3"
        # |B(2)| = 7,501 fits this budget and |B(3)| = 531,801 does not
        monkeypatch.setenv("CONJRATIO_BUDGET", "20000")
        _, small, _ = run_cli(argv)
        assert small.splitlines()[-1] == "#truncated,2"
        assert full.startswith(small[:-len("#truncated,2\n")])
        counts = raag.counts(raag.graph_from_text(threshold_graph(50)), 2)
        body = rows(small)[:-1]
        assert [int(r[2]) for r in body] == counts.sphere
        assert [int(r[4]) for r in body] == counts.conj_sphere

    @pytest.mark.parametrize("text,max_n,budget,digest", [
        (P4_GRAPH, 6, None, "254706dd08afae4faaab4d413cf896aa119b4203380e576053d6966043527dfd"),
        (C5_GRAPH, 6, None, "bd1cc930feb3688261cb947ed3771982e9872ccbf0ca19d5129fbe14874538d3"),
        # ends in #truncated,5
        (P4_GRAPH, 12, "30000", "91c62b72879b06524de72cb1f553ad6791d6d916b5e73836fefec1eee547e889"),
    ], ids=["P4", "C5", "P4-budget"])
    def test_non_cograph_growth_keeps_the_word_counter(self, tmp_path, monkeypatch, text,
                                                       max_n, budget, digest):
        path = tmp_path / "g.graph"
        path.write_text(text, encoding="utf-8")
        if budget is None:
            monkeypatch.delenv("CONJRATIO_BUDGET", raising=False)
        else:
            monkeypatch.setenv("CONJRATIO_BUDGET", budget)
        code, out, err = run_cli(["growth", "--family", "raag", "--graph", str(path),
                                  "--max-n", str(max_n)])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_non_cograph_budget_stop_parses_and_enumerates_once(self, tmp_path, monkeypatch):
        path = tmp_path / "p4.graph"
        path.write_text(P4_GRAPH, encoding="utf-8")
        parses, radii = [], []
        parse, elements = raag.graph_from_text, raag.Raag.elements

        def counting_parse(text):
            parses.append(text)
            return parse(text)

        def counting_elements(group, max_n):
            radii.append(max_n)
            return elements(group, max_n)

        monkeypatch.setattr(raag, "graph_from_text", counting_parse)
        monkeypatch.setattr(raag.Raag, "elements", counting_elements)
        monkeypatch.setenv("CONJRATIO_BUDGET", "30000")
        code, out, err = run_cli(["growth", "--family", "raag", "--graph", str(path),
                                  "--max-n", "12"])
        assert (code, err) == (0, "")
        # |B(5)| = 7,025 fits the budget and |B(6)| = 35,149 does not
        assert out.splitlines()[-1] == "#truncated,5"
        assert radii == [5]
        assert parses == [P4_GRAPH]

    def test_non_cograph_joined_with_a_big_clique_stops_at_once(self, tmp_path, monkeypatch):
        # P4 joined with K40: the clique levels grow as binomials of 40
        ks = [f"k{i}" for i in range(40)]
        text = P4_GRAPH.replace("vertices: a b c d", "vertices: a b c d " + " ".join(ks))
        text += "".join(f"edge: {x} {y}\n" for x, y in itertools.combinations(ks, 2))
        text += "".join(f"edge: {x} {y}\n" for x in "abcd" for y in ks)
        path = tmp_path / "p4k40.graph"
        path.write_text(text, encoding="utf-8")
        argv = ["--family", "raag", "--graph", str(path), "--max-n", "3"]
        monkeypatch.delenv("CONJRATIO_BUDGET", raising=False)
        start = time.perf_counter()
        # |B(4)| = 2,670,201 and |B(5)| = 48,300,801
        assert run_cli(["validate", *argv]) == (
            2, "", "error: element budget 5000000 exceeded; completed radius 4\n")
        assert time.perf_counter() - start < 1
        monkeypatch.setenv("CONJRATIO_BUDGET", "100000")
        start = time.perf_counter()
        code, out, err = run_cli(["growth", *argv])
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        # |B(2)| = 3,973 and |B(3)| = 118,677
        assert out.splitlines()[-2:] == ["2,3973,3884,3961,3872,0.996979612384,1.993820803296",
                                         "#truncated,2"]

    def test_free_growth_has_no_rank_cap(self):
        code, out, err = run_cli(["growth", "--family", "free", "--rank", "600000",
                                  "--max-n", "1"])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("1,1200001,1200000,")

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
        # x, the standard basis: the closed forms
        closed = zip(free_group.conjugacy_ball_counts(2, 10), free_group.ball_counts(2, 10))
        assert [r[1] for r in body] == [decimal_str(Fraction(c, b)) for c, b in closed]
        # y, {a, b, ab}: balls 2^(2n+1) - 1 and class counts pinned in test_free_group.py
        classes = [1, 7, 19, 45, 117, 327, 1029, 3375, 11607]
        assert [r[2] for r in body[:9]] == [
            decimal_str(Fraction(c, 2 ** (2 * n + 1) - 1)) for n, c in enumerate(classes)]

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

    def test_short_table_is_rejected_before_any_bfs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compare enumerated elements")

        monkeypatch.setattr(oracle, "ball_enumerate", refuse)
        monkeypatch.setattr(oracle, "_check_generates", refuse)
        start = time.perf_counter()
        assert run_cli(["compare", "--family", "free", "--rank", "20", "--max-n", "2"]) == (
            2, "", "error: need at least 5 terms, got 3\n")
        assert run_cli(["compare", "--family", "dihedral-inf", "--max-n", "3",
                        "--window", "5"]) == (2, "", "error: need at least 5 terms, got 4\n")
        assert time.perf_counter() - start < 0.5

    def test_budget_is_charged_to_the_radius_compared(self, monkeypatch):
        # |B(3)| = 108,337 and |B(4)| = 5,091,841 for rank 24
        monkeypatch.delenv("CONJRATIO_BUDGET", raising=False)
        start = time.perf_counter()
        assert run_cli(["compare", "--family", "free", "--rank", "24", "--max-n", "4"]) == (
            2, "", "error: element budget 5000000 exceeded; completed radius 3\n")
        assert time.perf_counter() - start < 0.5
        # the charge stops at max_n: for rank 2 |B(1)| = 5 and |B(2)| = 17 under
        # the standard set, and |B(1)| = 7 under {a, b, ab}
        argv = ["compare", "--family", "free", "--max-n", "1", "--window", "2"]
        monkeypatch.setenv("CONJRATIO_BUDGET", "16")
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert [row[0] for row in rows(out)] == ["0", "1"]
        monkeypatch.setenv("CONJRATIO_BUDGET", "4")
        assert run_cli(argv) == (2, "", "error: element budget 4 exceeded; completed radius 0\n")

    # sha256 of stdout; the csv digests are the benchmark's
    BENCHMARK_DIGESTS = {
        ("free", "csv"): "bcf9b8b906ed509b888c24ad9ceaf6df5400529045353dd7457d7286eda2641f",
        ("free", "json"): "a87d44fd28314f1ad4ee791f7e57ef1f80a5c38a14e1afafbf916ffce5441b47",
        ("dihedral-inf", "csv"):
            "5ce370ea76c6a559cdf5741569410beea23e27185de52003ca2fe7d3af27d3b2",
        ("dihedral-inf", "json"):
            "4efe3da0228b1147185cbb86805f77d02f7a2afda7ba14ae315a0574a40cc35c",
        ("free-abelian", "csv"):
            "ed19c01b9e661f59a371ab82e44f034158b3ef8666ef3825e45293fa7bccf009",
        ("free-abelian", "json"):
            "b98007325e7ea5a9b77ddd23ae6720c0d11fb1e9d1879b6afe739c86acd46f3e",
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_benchmark_configs_count_by_formula(self, monkeypatch, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError("compare ran the oracle")

        for name in ("ball_enumerate", "_check_generates", "key_class_counts",
                     "generating_set_comparison"):
            monkeypatch.setattr(oracle, name, refuse)
        self.assert_benchmark_digests(fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_benchmark_configs_build_no_group(self, monkeypatch, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError("compare built a group")

        for name in ("FreeGroup", "FreeAbelian", "DihedralInfinite"):
            monkeypatch.setattr(oracle, name, refuse)
        self.assert_benchmark_digests(fmt)

    def assert_benchmark_digests(self, fmt):
        for argv in (["--family", "free", "--rank", "2", "--max-n", "9"],
                     ["--family", "dihedral-inf", "--max-n", "40"],
                     ["--family", "free-abelian", "--dim", "1", "--max-n", "12"]):
            code, out, err = run_cli(["compare", *argv, "--format", fmt])
            assert (code, err) == (0, "")
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == self.BENCHMARK_DIGESTS[argv[1], fmt]

    def test_second_set_is_charged_before_it_is_counted(self, monkeypatch):
        # |B(4)| = 118,721 under the unit vectors of Z^20; under {2e_i, 3e_i}
        # |B(3)| = 88,521 and |B(4)| is over 500,000
        monkeypatch.setenv("CONJRATIO_BUDGET", "500000")
        start = time.perf_counter()
        assert run_cli(["compare", "--family", "free-abelian", "--dim", "20",
                        "--max-n", "4"]) == (
            2, "", "error: second generating set: element budget 500000 exceeded; "
                   "completed radius 3\n")
        assert time.perf_counter() - start < 0.5
        # |B(1)| = 3 under the unit vector of Z fits, but under {±2, ±3} |B(1)| = 5
        monkeypatch.setenv("CONJRATIO_BUDGET", "4")
        assert run_cli(["compare", "--family", "free-abelian", "--dim", "1", "--max-n", "1",
                        "--window", "2"]) == (
            2, "", "error: second generating set: element budget 4 exceeded; "
                   "completed radius 0\n")

    @pytest.mark.parametrize("family", [["free", "--rank", "1"], ["dihedral-inf"]],
                             ids=["F1", "D_inf"])
    def test_linear_families_stay_small_at_large_radii(self, family):
        # a BFS to radius n of these groups holds about n^2 letters
        argv = ["compare", "--family", *family, "--max-n", "2400"]
        start = time.perf_counter()
        code, out, _ = run_cli(argv)
        assert time.perf_counter() - start < 0.5
        assert code == 0 and len(out.splitlines()) == 2402
        tracemalloc.start()
        try:
            assert run_cli(argv)[1] == out
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2 ** 20

    @pytest.mark.parametrize("argv,budget,seconds", [
        (["--family", "free", "--rank", "2", "--max-n", "10"], None, 0.5),
        (["--family", "free", "--rank", "2", "--max-n", "100"], str(10 ** 200), 2),
        (["--family", "free", "--rank", "1000", "--max-n", "2", "--window", "2"], None, 1),
    ], ids=["F2-n10", "F2-n100", "F1000"])
    def test_far_radii_and_high_ranks_end_at_once(self, monkeypatch, argv, budget, seconds):
        if budget is None:
            monkeypatch.delenv("CONJRATIO_BUDGET", raising=False)
        else:
            monkeypatch.setenv("CONJRATIO_BUDGET", budget)
        start = time.perf_counter()
        code, out, err = run_cli(["compare", *argv])
        assert time.perf_counter() - start < seconds
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == int(argv[argv.index("--max-n") + 1]) + 2

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
        # the default slack is at least 1, so the stability row has a census to compare
        ("lamplighter", 0),
        ("heisenberg", 0),
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

    def test_each_run_builds_one_raag(self, monkeypatch, p3_path):
        built, init = [], raag.Raag.__init__

        def counting_init(group, graph):
            built.append(graph)
            init(group, graph)

        monkeypatch.setattr(raag.Raag, "__init__", counting_init)
        for verb in ("growth", "growth", "validate"):
            built.clear()
            code, _, _ = run_cli([verb, "--family", "raag", "--graph", p3_path,
                                  "--max-n", "3"])
            assert code == 0 and len(built) == 1, verb

    def test_lamplighter_names_its_checks(self):
        _, out, _ = run_cli(["validate", "--family", "lamplighter", "--max-n", "7"])
        assert "PASS  lamplighter: metric formula vs BFS distance (radius 7)" in out
        assert "PASS  lamplighter: key partition matches oracle partition (radius 7)" in out

    def test_key_partition_check_rejects_coarser_and_finer_keys(self):
        table = oracle.conjugacy_classes(oracle.DihedralInfinite(), 4, slack=4)
        assert cli._partitions_agree(coordinate_groups.dihedral_conjugacy_key, table.class_of)
        assert not cli._partitions_agree(lambda x: 0, table.class_of)  # merges classes
        assert not cli._partitions_agree(lambda x: x, table.class_of)  # splits classes

    @pytest.mark.parametrize("family,argv,class_row", [
        ("free", ["--max-n", "6"], "free: conjugacy counts vs oracle"),
        ("free-abelian", ["--dim", "3", "--max-n", "4"],
         "free-abelian: every element is its own class"),
        ("lamplighter", ["--max-n", "5"], "lamplighter: conjugacy counts vs oracle"),
        ("dihedral-inf", ["--max-n", "12"], "dihedral-inf: class count 3 + n//2 from n=2"),
        ("raag", ["--max-n", "4"], "raag: conjugacy counts vs oracle"),
    ])
    def test_class_row_checks_the_counts_growth_prints(self, monkeypatch, p3_path, family,
                                                       argv, class_row):
        right = cli.FAMILIES[family]

        def off_by_one(cfg, n):
            classes = right.classes(cfg, n)
            return classes[:-1] + [classes[-1] + 1]

        monkeypatch.setitem(cli.FAMILIES, family, right._replace(classes=off_by_one))
        graph = ["--graph", p3_path] if family == "raag" else []
        code, out, _ = run_cli(["validate", "--family", family, *argv, *graph])
        assert code == 1
        radius = argv[-1]
        assert [line for line in out.splitlines() if not line.startswith("PASS  ")] == [
            f"FAIL  {class_row} (radius {radius})", "SOME CHECKS FAILED"]

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
        broken = cli.FAMILIES["free"]._replace(
            validate=lambda cfg: [("ok", 1, True), ("broken", 2, False)])
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

    @pytest.mark.parametrize("family,graph_text,n,slack", [
        *(pytest.param(family, P3_GRAPH, 4, 4, id=family) for family in cli.FAMILIES),
        # B(5) of P4 has 7,025 elements and B(8) 878,897
        pytest.param("raag", P4_GRAPH, 3, 2, id="raag-P4"),
    ])
    def test_series_and_classes_match_the_oracle(self, family, graph_text, n, slack,
                                                 tmp_path):
        path = tmp_path / "g.graph"
        path.write_text(graph_text, encoding="utf-8")
        cfg = RunConfig(family, graph_path=str(path) if family == "raag" else None)
        group = cli.FAMILIES[family].group(cfg)
        _, spheres = oracle.ball_enumerate(group, n)
        assert list(itertools.islice(cli._series(cfg), n + 1)) == spheres
        table = oracle.conjugacy_classes(group, n, slack=slack)
        assert table.stable
        assert cli.FAMILIES[family].classes(cfg, n) == list(table.sphere_classes)

    def test_formula_families_grow_without_enumerating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("growth enumerated elements")

        monkeypatch.setattr(oracle, "ball_enumerate", refuse)
        monkeypatch.setattr(lamplighter, "elements_by_length", refuse)
        monkeypatch.setattr(raag.Raag, "elements", refuse)
        for family in ("free", "free-abelian", "lamplighter", "dihedral-inf", "heisenberg"):
            code, out, err = run_cli(["growth", "--family", family, "--max-n", "12"])
            assert (code, err) == (0, "")
            assert rows(out)[-1][0] == "12"


class TestFuzz:
    @pytest.fixture(scope="class")
    def graph_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "g.graph"

    @settings(max_examples=200)
    @given(text=graph_files(), max_n=st.integers(min_value=0, max_value=8),
           budget=st.integers(min_value=1, max_value=20000))
    def test_raag_growth_on_drawn_graph_files(self, graph_path, text, max_n, budget):
        graph_path.write_text(text, encoding="utf-8")
        with mock.patch.dict(os.environ, {"CONJRATIO_BUDGET": str(budget)}):
            code, out, err = run_cli(["growth", "--family", "raag", "--graph", str(graph_path),
                                      "--max-n", str(max_n)])
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            return
        assert (code, err) == (0, "")
        body = [row for row in rows(out) if not row[0].startswith("#")]
        radius = len(body) - 1
        trailer = "" if radius == max_n else f"#truncated,{radius}\n"
        assert out.endswith(trailer) and radius <= max_n
        counts = raag.counts(raag.graph_from_text(text), radius)
        assert [int(row[2]) for row in body] == counts.sphere
        assert [int(row[4]) for row in body] == counts.conj_sphere

    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(["free", "free-abelian", "lamplighter", "dihedral-inf",
                                   "heisenberg"]),
           rank=st.integers(min_value=1, max_value=10 ** 6),
           dim=st.integers(min_value=1, max_value=10 ** 4),
           max_n=st.integers(min_value=0, max_value=10 ** 6),
           budget=st.integers(min_value=1, max_value=20000))
    def test_formula_growth_on_extreme_flags(self, family, rank, dim, max_n, budget):
        with mock.patch.dict(os.environ, {"CONJRATIO_BUDGET": str(budget)}):
            code, out, err = run_cli(["growth", "--family", family, "--rank", str(rank),
                                      "--dim", str(dim), "--max-n", str(max_n)])
        assert (code, err) == (0, "")
        body = rows(out)
        trailer = out.splitlines()[-1] if body[-1][0].startswith("#") else None
        body = body[:-1] if trailer else body
        assert [int(row[0]) for row in body] == list(range(len(body)))
        assert (trailer is not None) == (len(body) < max_n + 1)
        if trailer:
            assert trailer == f"#truncated,{body[-1][0]}"
        cfg = RunConfig(family, rank=rank, dim=dim, max_n=max_n)
        series = cli._series(cfg)
        assert [int(row[2]) for row in body] == list(itertools.islice(series, len(body)))
        assert int(body[-1][1]) <= budget
        if trailer:  # the next ball would not have fit
            assert int(body[-1][1]) + next(series) > budget

    @staticmethod
    def assert_exit_contract(code, out, err):
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""

    @settings(max_examples=300)
    @given(argv=compare_and_validate_argv(), budget=st.integers(min_value=1, max_value=20000))
    def test_compare_and_validate_on_extreme_flags(self, argv, budget):
        assume(not unbounded_by_the_budget(argv, budget))
        with mock.patch.dict(os.environ, {"CONJRATIO_BUDGET": str(budget)}):
            self.assert_exit_contract(*run_cli(argv))

    @pytest.fixture(scope="class")
    def counts_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "counts.txt"

    @settings(max_examples=150)
    @given(text=counts_files(), budget=st.integers(min_value=1, max_value=20000))
    def test_necklace_on_drawn_counts_files(self, counts_path, text, budget):
        counts_path.write_text(text, encoding="utf-8")
        with mock.patch.dict(os.environ, {"CONJRATIO_BUDGET": str(budget)}):
            code, out, err = run_cli(["necklace", str(counts_path)])
        self.assert_exit_contract(code, out, err)
        assert code != 1


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

    @pytest.mark.parametrize("argv", [
        ["growth", "--family", "free", "--slack", "1"],
        ["compare", "--family", "free", "--slack", "1"],
        ["validate", "--family", "free", "--window", "3"],
        ["growth", "--family", "free", "--window", "1"],
    ])
    def test_verbs_take_only_the_options_they_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


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
