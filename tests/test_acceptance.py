"""Acceptance checklist: one test per numbered criterion, and each test
prints exactly one ``[PASS]``/``[FAIL]`` line (use ``pytest -s`` to watch
them live; under plain ``pytest -v`` the per-test PASSED/FAILED column
carries the same information).

Ground rules for this module:

* Every test recomputes what it needs from scratch, so the time on its
  line is the full cost of the criterion.  Nothing is cached across tests.
* Each stated check is implemented exactly as stated and measured against
  the library's exact integers.  Where the stated numeric window does not
  contain the true value, the test prints FAIL and the assertion message
  records the measured numbers plus the normalization under which the
  intended trend does hold.  Those failures are deliberate; do not loosen
  the windows to silence them.
"""

import itertools
import math
import time
from fractions import Fraction

from conjratio import cli, coordinate_groups, free_group, lamplighter, oracle, raag
from conjratio.raag import graph_from_text
from conjratio.sequences import convolve, window_estimate
from conjratio.vanishing import MODE_GEOMETRIC, check_ratio_vanishes, stolz_cesaro
from conjratio.words import cycrep_counts, primitive_counts

GRAPH_TEXTS = {
    "empty-2": "vertices: a b\n",
    "edge-2": "vertices: a b\nedge: a b\n",
    "P3": "vertices: a b c\nedge: a b\nedge: b c\n",
    "C4": "vertices: a b c d\nedge: a b\nedge: b c\nedge: c d\nedge: d a\n",
    "triangle": "vertices: a b c\nedge: a b\nedge: b c\nedge: a c\n",
}


def _line(number: int, title: str, ok: bool, detail: str,
          elapsed: float, limit: float = None) -> None:
    budget = f", limit {limit:.0f}s" if limit is not None else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({title}): "
          f"{detail} ({elapsed:.1f}s{budget})")


def _partitions_agree(dist, key, class_of) -> bool:
    """Key partition and oracle partition have identical blocks on ``dist``.

    Equivalent to checking every pair (x, y): equal keys iff oracle-conjugate,
    without iterating the |B|^2 pairs.
    """
    key_to_class, class_to_key = {}, {}
    for x in dist:
        k, c = key(x), class_of[x]
        if key_to_class.setdefault(k, c) != c:
            return False
        if class_to_key.setdefault(c, k) != k:
            return False
    return True


def _brute_rotation_classes(base: int, length: int) -> int:
    """Rotation classes of all base^length strings, by least-rotation reps."""
    reps = set()
    for tup in itertools.product(range(base), repeat=length):
        doubled = bytes(tup) * 2
        reps.add(min(doubled[i:i + length] for i in range(length)))
    return len(reps)


def _local_phi(m: int) -> int:
    return sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1)


def _local_divisors(m: int) -> list:
    return [d for d in range(1, m + 1) if m % d == 0]


def test_criterion_1_necklace_identities():
    started = time.perf_counter()
    identity_ok, primitive_link_ok, brute_ok = True, True, True
    for base in (2, 3):
        totals = [base ** n for n in range(1, 31)]
        classes = cycrep_counts(totals)
        primitive = primitive_counts(totals)
        # right side evaluated with test-local phi/divisors so the check
        # exercises the identity, not the module against itself
        identity_ok &= all(
            n * classes[n - 1]
            == sum(_local_phi(n // d) * totals[d - 1] for d in _local_divisors(n))
            for n in range(1, 31)
        )
        primitive_link_ok &= all(
            primitive[d - 1] % d == 0 for d in range(1, 31)
        ) and all(
            classes[n - 1]
            == sum(primitive[d - 1] // d for d in _local_divisors(n))
            for n in range(1, 31)
        )
        brute_ok &= all(
            classes[n - 1] == _brute_rotation_classes(base, n)
            for n in range(1, 13)
        )
    elapsed = time.perf_counter() - started
    ok = identity_ok and primitive_link_ok and brute_ok and elapsed < 5
    _line(1, "necklace identities", ok,
          "bases 2 and 3: totient identity to n=30 via two routes, "
          "brute rotation classes to n=12", elapsed, limit=5)
    assert identity_ok and primitive_link_ok and brute_ok
    assert elapsed < 5, f"runtime {elapsed:.1f}s over the 5s limit"


def test_criterion_2_free_group_oracle_and_window():
    started = time.perf_counter()
    group = oracle.FreeGroup(2)
    table = oracle.conjugacy_classes(group, 8, slack=2)
    _, spheres = oracle.ball_enumerate(group, 8)
    balls = list(itertools.accumulate(spheres))
    oracle_ok = (
        balls == free_group.ball_counts(2, 8)
        and list(spheres) == free_group.sphere_sizes(2, 8)
        and list(table.ball_classes) == free_group.conjugacy_ball_counts(2, 8)
        and list(table.sphere_classes) == free_group.conjugacy_sphere_counts(2, 8)
        and bool(table.stable)
    )
    conj_sph = free_group.conjugacy_sphere_counts(2, 14)
    sph = free_group.sphere_sizes(2, 14)
    trend = [Fraction(n * conj_sph[n], sph[n]) for n in range(15)]
    in_window = [n for n in range(2, 15) if 1 <= trend[n] <= 3]
    window_ok = len(in_window) == 13
    elapsed = time.perf_counter() - started
    ok = oracle_ok and window_ok and elapsed < 60
    _line(2, "rank-2 free group", ok,
          f"module vs oracle to n=8 {'agree' if oracle_ok else 'DISAGREE'}; "
          f"n*Cs(n)/S(n) in [1,3] for {len(in_window)}/13 of n=2..14",
          elapsed, limit=60)
    assert oracle_ok
    assert window_ok, (
        "n*Cs(n)/S(n) leaves [1,3] at n=4 and never returns: values for "
        f"n=2..14 are {[f'{float(trend[n]):.4f}' for n in range(2, 15)]}. "
        "Almost every length-n class consists of the n rotations of a "
        "cyclically reduced word, and cyclically reduced words fill 3/4 of "
        "each sphere in rank 2, so n*Cs(n)/S(n) tends to 3/4 < 1; no pick "
        "of n in 2..14 past 3 can land in [1,3]. The cumulative variant "
        "n*C(n)/S(n) stays inside [1,3] over the same range "
        "(min 1.1733, max 2.1667, limit 9/8)."
    )
    assert elapsed < 60, f"runtime {elapsed:.1f}s over the 60s limit"


def test_criterion_3_raag_suite():
    started = time.perf_counter()
    pair_ok = {}
    for name, text in GRAPH_TEXTS.items():
        artin = raag.Raag(graph_from_text(text))
        group = oracle.RaagGroup(artin)
        table = oracle.conjugacy_classes(group, 5, slack=2)
        dist, _ = oracle.ball_enumerate(group, 5)
        pair_ok[name] = (
            bool(table.stable)
            and _partitions_agree(dist, artin.element_key, table.class_of)
        )
    abelian_ok = True
    for name in ("edge-2", "triangle"):
        counts = raag.counts(graph_from_text(GRAPH_TEXTS[name]), 8)
        abelian_ok &= counts.conj_sphere == counts.sphere
    decreasing_ok = True
    for name in ("P3", "C4"):
        counts = raag.counts(graph_from_text(GRAPH_TEXTS[name]), 8)
        ratios = [Fraction(c, b) for c, b in zip(itertools.accumulate(counts.conj_sphere),
                                                 itertools.accumulate(counts.sphere))]
        decreasing_ok &= all(ratios[n] > ratios[n + 1] for n in range(3, 8))
    elapsed = time.perf_counter() - started
    ok = all(pair_ok.values()) and abelian_ok and decreasing_ok and elapsed < 120
    _line(3, "graph-group suite", ok,
          "key vs oracle on B(5) pairs for 5 graphs; complete graphs give "
          "ratio 1 to n=8; P3 and C4 ratios strictly decreasing on 3..8",
          elapsed, limit=120)
    assert all(pair_ok.values()), f"pairwise agreement per graph: {pair_ok}"
    assert abelian_ok and decreasing_ok
    assert elapsed < 120, f"runtime {elapsed:.1f}s over the 120s limit"


def test_criterion_4_direct_product_convolution():
    started = time.perf_counter()
    c4_balls = list(itertools.accumulate(raag.counts(graph_from_text(GRAPH_TEXTS["C4"]), 8).sphere))
    product = convolve(free_group.ball_counts(2, 8), free_group.sphere_sizes(2, 8))
    elapsed = time.perf_counter() - started
    ok = c4_balls == product
    _line(4, "direct-product convolution", ok,
          "C4 ball counts equal convolve(F2 balls, F2 spheres) to n=8", elapsed)
    assert ok, f"{c4_balls} != {product}"


def test_criterion_5_lamplighter():
    started = time.perf_counter()
    group = oracle.Lamplighter()
    dist10, _ = oracle.ball_enumerate(group, 10)
    metric_ok = all(lamplighter.word_length(x) == d for x, d in dist10.items())

    table = oracle.conjugacy_classes(group, 7, slack=7)
    dist7, _ = oracle.ball_enumerate(group, 7)
    key_ok = bool(table.stable) and _partitions_agree(
        dist7, lamplighter.conj_key, table.class_of)

    spheres = lamplighter.sphere_counts(14)
    root = spheres[14] ** (1 / 14)
    root_ok = 1.55 < root < 1.68

    conj_sph, _ = lamplighter.conjugacy_counts(14)
    t8 = Fraction(8 * conj_sph[8], spheres[8])
    t14 = Fraction(14 * conj_sph[14], spheres[14])
    trend_ok = abs(t14 - 2) < abs(t8 - 2)

    elapsed = time.perf_counter() - started
    ok = metric_ok and key_ok and root_ok and trend_ok and elapsed < 180
    _line(5, "lamplighter", ok,
          f"metric vs BFS on B(10) {'agree' if metric_ok else 'DISAGREE'}; "
          f"key vs oracle on B(7) {'agree' if key_ok else 'DISAGREE'}; "
          f"S(14)^(1/14)={root:.4f} vs (1.55,1.68); "
          f"n*Cs/S distance to 2: {float(abs(t8 - 2)):.4f} at 8 -> "
          f"{float(abs(t14 - 2)):.4f} at 14",
          elapsed, limit=180)
    assert metric_ok and key_ok
    phi = (1 + 5 ** 0.5) / 2
    assert root_ok, (
        f"S(14)^(1/14) = {root:.4f} with S(14) = {spheres[14]}, outside "
        "(1.55, 1.68). The sphere counts do grow at the golden ratio: the "
        f"one-step quotient S(14)/S(13) is {spheres[14] / spheres[13]:.4f} "
        "and the fitted rate is phi to three decimals, but S(n) is about "
        "6.09 * phi^n, so the n-th root carries a 6.09^(1/n) factor "
        "(1.138 at n=14) and sits near 1.84 until n is in the hundreds. "
        "A window around phi can hold the quotient, not the 14th root."
    )
    assert trend_ok, (
        f"n*Cs(n)/S(n) moves away from 2: {float(t8):.4f} at n=8, "
        f"{float(t14):.4f} at n=14 (distances to 2: "
        f"{float(abs(t8 - 2)):.4f} -> {float(abs(t14 - 2)):.4f}). "
        "S(n) outgrows n*Cs(n) by the 6.09 constant noted above, so this "
        "statistic drifts toward 0, not 2. The rate-normalized variant "
        "n*Cs(n)/phi^n does approach 2 from above: "
        f"{8 * conj_sph[8] / phi ** 8:.4f} at n=8 -> "
        f"{14 * conj_sph[14] / phi ** 14:.4f} at n=14."
    )
    assert elapsed < 180, f"runtime {elapsed:.1f}s over the 180s limit"


def test_criterion_6_infinite_dihedral():
    started = time.perf_counter()
    group = oracle.DihedralInfinite()
    report = oracle.generating_set_comparison(
        group, [(0,), (1,)], [(0,), (0, 1)], 40,
        window=5, key=coordinate_groups.dihedral_conjugacy_key)
    peak = report.estimate_x.peak
    peak_ok = Fraction(1, 4) <= peak <= Fraction(3, 10)
    diff_ok = report.peak_difference < Fraction(1, 20)
    elapsed = time.perf_counter() - started
    ok = peak_ok and diff_ok and elapsed < 30
    _line(6, "infinite dihedral", ok,
          f"windowed ratio estimate {float(peak):.4f} vs [0.25,0.30]; "
          f"generating-set gap {float(report.peak_difference):.4f} vs 0.05",
          elapsed, limit=30)
    assert peak_ok, f"peak {peak} outside [1/4, 3/10]"
    assert diff_ok, f"gap {report.peak_difference} not below 1/20"
    assert elapsed < 30, f"runtime {elapsed:.1f}s over the 30s limit"


def test_criterion_7_heisenberg():
    started = time.perf_counter()
    group = oracle.Heisenberg()
    dist, spheres = oracle.ball_enumerate(group, 12)
    balls = list(itertools.accumulate(spheres))
    root_ratios = {
        n: (balls[n] / balls[n - 1]) ** 0.25 for n in range(8, 13)
    }
    flat_ok = all(0.95 <= r <= 1.05 for r in root_ratios.values())
    _, conj_balls = oracle.key_class_counts(
        dist, coordinate_groups.heisenberg_conjugacy_key, 12)
    ratios = [Fraction(c, b) for c, b in zip(conj_balls, balls)]
    decreasing_ok = all(ratios[n] > ratios[n + 1] for n in range(4, 12))
    elapsed = time.perf_counter() - started
    ok = flat_ok and decreasing_ok and elapsed < 120
    _line(7, "discrete Heisenberg", ok,
          f"fourth-root quotients on 8..12 span "
          f"[{min(root_ratios.values()):.4f}, {max(root_ratios.values()):.4f}] "
          f"vs [0.95,1.05]; ratio strictly decreasing on 4..12: {decreasing_ok}",
          elapsed, limit=120)
    assert decreasing_ok, f"ratios on 4..12: {[str(r) for r in ratios[4:]]}"
    assert flat_ok, (
        "successive fourth-root quotients B(n)^(1/4)/B(n-1)^(1/4) on 8..12 "
        f"are {[f'{root_ratios[n]:.4f}' for n in range(8, 13)]}, all above "
        "1.05. B(n) grows like a constant times n^4, so this quotient is "
        "about n/(n-1) (1.125 at n=9, 1.091 at n=12) and only enters a "
        "five-percent band once n > 20, beyond an exact enumeration. The "
        "scale-free statistic B(n)^(1/4)/n is flat already: its successive "
        "quotients on 8..12 are "
        f"{[f'{(balls[n] ** 0.25 / n) / (balls[n - 1] ** 0.25 / (n - 1)):.4f}' for n in range(8, 13)]}."
    )
    assert elapsed < 120, f"runtime {elapsed:.1f}s over the 120s limit"


def test_criterion_8_sequence_propositions():
    started = time.perf_counter()
    n_terms = 21
    flat = [1] * n_terms
    doubling = [2 ** i for i in range(n_terms)]
    linear = [i + 1 for i in range(n_terms)]

    synthetic = check_ratio_vanishes(flat, doubling, linear, linear)
    synthetic_ok = (
        synthetic.ok
        and not synthetic.violated
        and synthetic.final_ratio < Fraction(1, 100)
    )

    degenerate = check_ratio_vanishes(flat[:12], flat[:12], linear[:12], linear[:12])
    violation_ok = "small ratio tends toward 0" in degenerate.violated

    conj = free_group.conjugacy_ball_counts(2, 14)
    ball = free_group.ball_counts(2, 14)
    line = [2 * n + 1 for n in range(15)]
    geometric = check_ratio_vanishes(conj, ball, line, line, mode=MODE_GEOMETRIC)
    geometric_ok = (
        geometric.ok
        and geometric.delta is not None
        and geometric.delta < 1
        and geometric.final_ratio < geometric.ratios[0]
    )

    z2 = oracle.FreeAbelian(2)
    table = oracle.conjugacy_classes(z2, 8, slack=2)
    _, spheres = oracle.ball_enumerate(z2, 8)
    balls = list(itertools.accumulate(spheres))
    transform = stolz_cesaro(list(table.ball_classes), balls)
    stolz_ok = all(v == 1 for v in transform)

    elapsed = time.perf_counter() - started
    ok = synthetic_ok and violation_ok and geometric_ok and stolz_ok
    _line(8, "sequence propositions", ok,
          f"synthetic vanishing ratio final {float(synthetic.final_ratio):.6f} "
          f"with no violated hypotheses; constant/constant flagged; geometric "
          f"mode decay factor {geometric.delta:.4f}; Z^2 difference transform "
          f"identically 1", elapsed)
    assert synthetic_ok, (synthetic.violated, synthetic.final_ratio)
    assert violation_ok, degenerate.violated
    assert geometric_ok, (geometric.violated, geometric.delta)
    assert stolz_ok, transform


def test_criterion_9_cli_determinism(tmp_path):
    started = time.perf_counter()
    graph_path = tmp_path / "p3.graph"
    graph_path.write_text(GRAPH_TEXTS["P3"], encoding="utf-8")
    counts_path = tmp_path / "doubling.txt"
    counts_path.write_text(
        "".join(f"{2 ** n}\n" for n in range(1, 13)), encoding="utf-8")
    configs = [
        ["growth", "--family", "free", "--rank", "2", "--max-n", "10"],
        ["growth", "--family", "free-abelian", "--dim", "3", "--max-n", "5"],
        ["growth", "--family", "raag", "--graph", str(graph_path), "--max-n", "8"],
        ["growth", "--family", "lamplighter", "--max-n", "10", "--format", "json"],
        ["growth", "--family", "heisenberg", "--max-n", "8"],
        ["growth", "--family", "dihedral-inf", "--max-n", "16"],
        ["compare", "--family", "dihedral-inf", "--max-n", "40"],
        ["compare", "--family", "free-abelian", "--dim", "1", "--max-n", "12"],
        ["compare", "--family", "free", "--rank", "2", "--max-n", "10"],
        ["validate", "--family", "lamplighter", "--max-n", "7"],
        ["necklace", str(counts_path)],
    ]
    mismatched = []
    for index, argv in enumerate(configs):
        outputs = []
        for attempt in (0, 1):
            target = tmp_path / f"golden_{index}_{attempt}"
            code = cli.main(argv + ["--out", str(target)])
            assert code == 0, (argv, code)
            outputs.append(target.read_bytes())
        if outputs[0] != outputs[1] or not outputs[0]:
            mismatched.append(argv)
    elapsed = time.perf_counter() - started
    ok = not mismatched
    _line(9, "CLI determinism", ok,
          f"{len(configs)} golden configurations, two runs each, "
          "byte-identical", elapsed)
    assert ok, f"outputs differed between runs for: {mismatched}"
