"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a single pass line (visible with ``pytest -s`` or
``-rA``).  The exhaustive suites are shared through session fixtures so
the whole file stays fast.
"""

import json
import math
import random
import time
from itertools import combinations

import pytest

from loopwalks import (FamilySpec, build, closed_form_w3, closed_form_w4,
                       eigenvalues, energy, energy_lower_bounds,
                       enumerate_all_graphs, enumerate_closed_walks, generate,
                       is_connected, m3_closed_form, m4_closed_form,
                       parse_graph, trace_power, twisted_moment,
                       verify_cauchy_schwarz, verify_ratio_chain,
                       walk_counts)
from loopwalks.cli import main
from loopwalks.families import sample_connected_graphs
from loopwalks.errors import InvalidLoopPlacement
from loopwalks import spectral

CS_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
RST_TRIPLES = ((1.0, 0.0, 2.0), (1.5, 2.0, 2.0), (2.0, 3.0, 3.0))


@pytest.fixture(scope="session")
def full_suite():
    graphs = []
    for n in range(1, 6):
        graphs.extend(enumerate_all_graphs(n))
    return graphs


@pytest.fixture(scope="session")
def connected_suite(full_suite):
    return [g for g in full_suite if is_connected(g)]


@pytest.fixture(scope="session")
def random_graphs():
    """1000 seeded random graphs with n <= 10, connectivity unrestricted."""
    rng = random.Random(20250810)
    graphs = []
    for _ in range(1000):
        n = rng.randint(1, 10)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.5]
        loops = [v for v in range(n) if rng.random() < 0.5]
        graphs.append(build(n, edges, loops))
    return graphs


@pytest.fixture(scope="session")
def random_connected():
    return sample_connected_graphs(1000, 2, 10, 0.5, 0.5, seed=42)


def test_criterion_1_exhaustive_oracle_equivalence(full_suite):
    started = time.time()
    assert len(full_suite) == 2 + 8 + 64 + 1024 + 32768
    for g in full_suite:
        wc = walk_counts(g)
        by_formula = (wc.w1, wc.w2, wc.w3, wc.w4)
        for k in range(1, 5):
            traced = trace_power(g, k)
            enumerated = enumerate_closed_walks(g, k).total
            assert by_formula[k - 1] == traced == enumerated, (
                g.order, g.edges, g.loops, k)
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(f"\n[criterion 1] formula = trace = enumeration on "
          f"{len(full_suite)} graphs, k=1..4, in {elapsed:.1f}s: PASS")


def test_criterion_2_paper_checkpoints():
    checks = 0

    k4 = FamilySpec.complete(4, loops=(0, 1, 3))
    assert closed_form_w4(k4) == walk_counts(generate(k4)).w4 == 207
    checks += 1

    petersen = generate(FamilySpec.petersen(loops=(4,)))
    assert walk_counts(petersen).w3 == 10
    checks += 1

    q1 = FamilySpec.path(8, loops=(1, 2, 4, 6))
    q2 = FamilySpec.path(8, loops=(1, 2, 4, 5, 6))
    assert closed_form_w4(q1) == walk_counts(generate(q1)).w4 == 78
    assert closed_form_w4(q2) == walk_counts(generate(q2)).w4 == 95
    checks += 2

    for sigma, expected in ((1, 35), (2, 56), (3, 81)):
        spec = FamilySpec.cycle(3, loops=tuple(range(sigma)))
        assert closed_form_w4(spec) == walk_counts(generate(spec)).w4 == expected
        checks += 1

    assert walk_counts(generate(FamilySpec.complete_bipartite(2, 3))).w4 == 72
    checks += 1

    for n in (4, 6, 8):
        half = n // 2
        spec = FamilySpec.complete_bipartite(half, half, sigma_a=half, sigma_b=half)
        assert closed_form_w3(spec) == walk_counts(generate(spec)).w3 == 3 * n * n // 2 + n
        checks += 1

    assert walk_counts(generate(FamilySpec.complete(5))).w4 == 260
    checks += 1

    for n in range(3, 8):
        for sigma in range(n + 1):
            g = generate(FamilySpec.complete(n, loops=tuple(range(sigma))))
            assert walk_counts(g).w3 == sigma * (3 * n - 2) + n * (n - 1) * (n - 2)
            checks += 1

    print(f"\n[criterion 2] {checks} exact paper checkpoints: PASS")


def test_criterion_3_spectral_identities(full_suite, random_graphs):
    worst = 0.0
    for g in full_suite + random_graphs:
        spec = eigenvalues(g)
        gap_sum = abs(math.fsum(spec.eigenvalues) - g.sigma)
        gap_square = abs(math.fsum(x * x for x in spec.eigenvalues)
                         - (2 * g.size + g.sigma))
        worst = max(worst, gap_sum, gap_square)
        assert gap_sum < 1e-8 and gap_square < 1e-8, (g.edges, g.loops)
    print(f"\n[criterion 3] eigenvalue sum identities on "
          f"{len(full_suite) + len(random_graphs)} graphs, worst gap "
          f"{worst:.2e} < 1e-8: PASS")


def test_criterion_4_twisted_closed_forms(connected_suite):
    worst = 0.0
    for g in connected_suite:
        gap3 = abs(m3_closed_form(g) - twisted_moment(g, 3.0))
        gap4 = abs(m4_closed_form(g) - twisted_moment(g, 4.0))
        worst = max(worst, gap3, gap4)
        assert gap3 < 1e-7 and gap4 < 1e-7, (g.edges, g.loops)
    print(f"\n[criterion 4] third/fourth twisted-moment closed forms vs "
          f"direct sums on {len(connected_suite)} connected graphs, worst "
          f"gap {worst:.2e} < 1e-7: PASS")


def test_criterion_5_inequality_suite(connected_suite, random_connected):
    started = time.time()
    eligible = [g for g in connected_suite if g.size >= 1]
    eligible += random_connected
    worst = math.inf
    records_checked = 0
    for g in eligible:
        for i, p in enumerate(CS_GRID):
            for q in CS_GRID[i:]:
                record = verify_cauchy_schwarz(g, p, q)
                assert record["slack"] >= -1e-9, (g.edges, g.loops, record)
                worst = min(worst, record["slack"])
                records_checked += 1
        for record in verify_ratio_chain(g, 10):
            if record["name"].startswith("twisted_positive"):
                assert record["lhs"] > 1e-12, (g.edges, g.loops, record)
            else:
                assert record["holds"], (g.edges, g.loops, record)
            records_checked += 1
        for record in energy_lower_bounds(g, RST_TRIPLES):
            assert record["slack"] >= -1e-9, (g.edges, g.loops, record)
            worst = min(worst, record["slack"])
            records_checked += 1
    elapsed = time.time() - started
    assert elapsed < 120.0
    print(f"\n[criterion 5] {records_checked} bound records on "
          f"{len(eligible)} connected graphs, worst slack {worst:.2e} "
          f">= -1e-9, in {elapsed:.1f}s: PASS")


def test_criterion_6_equality_cases():
    for a in range(1, 5):
        for b in range(1, 5):
            for hat in (False, True):
                spec = (FamilySpec.complete_bipartite(a, b, sigma_a=a, sigma_b=b)
                        if hat else FamilySpec.complete_bipartite(a, b))
                g = generate(spec)
                e = energy(g)
                m2 = twisted_moment(g, 2.0)
                m4 = twisted_moment(g, 4.0)
                assert abs(e * e - m2 ** 3 / m4) < 1e-7, (a, b, hat)
                # the nonzero deviations are all equal, in exact integers
                assert spectral._equal_deviations(g)[0], (a, b, hat)

    hat22 = generate(FamilySpec.complete_bipartite(2, 2, sigma_a=2, sigma_b=2))
    assert energy(hat22) == pytest.approx(4.0, abs=1e-9)
    assert twisted_moment(hat22, 2.0) == pytest.approx(8.0, abs=1e-9)
    assert twisted_moment(hat22, 4.0) == pytest.approx(32.0, abs=1e-9)
    print("\n[criterion 6] equality in the moment lower bound for complete "
          "bipartite graphs (loopless and fully looped, parts 1..4): PASS")


def _all_loop_subsets(n):
    for size in range(n + 1):
        yield from combinations(range(n), size)


def test_criterion_7_closed_forms_match_general_formulas():
    checked = 0

    for n in range(1, 11):
        for loops in _all_loop_subsets(n):
            spec = FamilySpec.complete(n, loops)
            counts = walk_counts(generate(spec))
            assert closed_form_w3(spec) == counts.w3
            assert closed_form_w4(spec) == counts.w4
            checked += 2

    for a in range(1, 6):
        for b in range(1, 6):
            for loops in _all_loop_subsets(a + b):
                spec = FamilySpec.complete_bipartite(a, b, loops=loops)
                g = generate(spec)
                assert closed_form_w3(spec) == walk_counts(g).w3
                assert closed_form_w4(spec) == walk_counts(g).w4
                checked += 2

    for n in range(3, 11):
        for loops in _all_loop_subsets(n):
            spec = FamilySpec.cycle(n, loops)
            g = generate(spec)
            assert closed_form_w3(spec) == walk_counts(g).w3
            assert closed_form_w4(spec) == walk_counts(g).w4
            checked += 2

    supported = 0
    for n in range(2, 11):
        for loops in _all_loop_subsets(n):
            spec = FamilySpec.path(n, loops)
            try:
                value = closed_form_w4(spec)
            except InvalidLoopPlacement:
                continue
            assert value == walk_counts(generate(spec)).w4
            supported += 1
    assert supported > 500
    checked += supported

    for n in range(2, 11):
        for loops in _all_loop_subsets(n):
            spec = FamilySpec.star(n, loops=loops)
            assert closed_form_w4(spec) == walk_counts(generate(spec)).w4
            checked += 1

    for n in range(5, 11):
        for loops in _all_loop_subsets(n):
            spec = FamilySpec.wheel(n, loops=loops)
            assert closed_form_w3(spec) == walk_counts(generate(spec)).w3
            checked += 1

    for loops in _all_loop_subsets(10):
        spec = FamilySpec.petersen(loops)
        kneser_spec = FamilySpec.kneser(2, loops)
        value = walk_counts(generate(spec)).w3
        assert closed_form_w3(spec) == value
        assert closed_form_w3(kneser_spec) == value
        checked += 2

    print(f"\n[criterion 7] {checked} closed-form vs general-formula "
          f"agreements, exact: PASS")


def test_criterion_8_cli_contract(tmp_path, capsys, monkeypatch):
    # generate -> parse round trip equals the in-memory family graph
    specs = [
        FamilySpec.complete(4, loops=(0, 1, 3)),
        FamilySpec.path(8, loops=(1, 2, 4, 6)),
        FamilySpec.petersen(loops=(1,)),
        FamilySpec.wheel(6, center_looped=True, rim_loops=2),
    ]
    flag_sets = [
        ["--family", "complete", "--n", "4", "--loops", "0,1,3"],
        ["--family", "path", "--n", "8", "--loops", "1,2,4,6"],
        ["--family", "petersen", "--loops", "1"],
        ["--family", "wheel", "--n", "6", "--center-loop", "--rim-loops", "2"],
    ]
    for spec, flags in zip(specs, flag_sets):
        target = tmp_path / f"{spec.family}.txt"
        assert main(["generate", *flags, "-o", str(target)]) == 0
        assert parse_graph(target.read_text()) == generate(spec)
    capsys.readouterr()

    # deterministic JSON, including a seeded 1000-graph verify run
    graph_file = str(tmp_path / "complete.txt")
    assert main(["moments", graph_file]) == 0
    first_moments = capsys.readouterr().out
    assert main(["moments", graph_file]) == 0
    assert capsys.readouterr().out == first_moments

    verify_args = ["verify", "--sample", "1000", "--seed", "42",
                   "--n-range", "2,10", "--chain-depth", "8"]
    assert main(verify_args) == 0
    first_verify = capsys.readouterr().out
    assert main(verify_args) == 0
    second_verify = capsys.readouterr().out
    assert first_verify == second_verify
    report = json.loads(first_verify)
    assert report["summary"] == {"graphs": 1000, "skipped": 0, "violations": 0}

    # exit codes: 0 above; 2 on malformed input; 1 on a failed check
    bad = tmp_path / "bad.txt"
    bad.write_text("n 2\ne 0 7\n")
    assert main(["walks", str(bad)]) == 2
    capsys.readouterr()

    from loopwalks import spectral

    def forced_violation(graph):
        return {"name": "mcclelland", "lhs": 1.0, "rhs": 0.0, "slack": -1.0,
                "holds": False}

    monkeypatch.setattr(spectral, "mcclelland_bound", forced_violation)
    assert main(["verify", graph_file]) == 1
    capsys.readouterr()

    print("\n[criterion 8] round-trip identity, byte-identical seeded "
          "verify of 1000 graphs, exit codes 0/1/2: PASS")
