from itertools import combinations

import pytest

from loopwalks import (FamilySpec, InvalidLoopPlacement, UnsupportedFamily,
                       build, closed_form_w3, closed_form_w4,
                       enumerate_all_graphs, generate, trace_power, walk_counts)
from loopwalks.walks import _loop_blocks, _loop_flags


def _all_loop_subsets(n):
    for size in range(n + 1):
        yield from combinations(range(n), size)


# -- general formulas ------------------------------------------------------


def test_w2_k2_loopless():
    assert walk_counts(build(2, [(0, 1)])).w2 == 2


def test_w2_k4_three_loops(k4_three_loops):
    assert walk_counts(k4_three_loops).w2 == 15
    assert trace_power(k4_three_loops, 2) == 15


def test_w2_matches_trace_exhaustive_n3():
    for g in enumerate_all_graphs(3):
        assert walk_counts(g).w2 == trace_power(g, 2)


def test_w3_petersen_one_loop(petersen_one_loop):
    assert walk_counts(petersen_one_loop).w3 == 10


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_w3_complete_all_sigma(n):
    for sigma in range(n + 1):
        g = generate(FamilySpec.complete(n, loops=tuple(range(sigma))))
        assert walk_counts(g).w3 == sigma * (3 * n - 2) + n * (n - 1) * (n - 2)


def test_w3_c3_two_loops():
    g = generate(FamilySpec.cycle(3, loops=(0, 1)))
    assert walk_counts(g).w3 == 20


def test_w3_loopless_is_six_triangles():
    from loopwalks import triangle_census
    for g in enumerate_all_graphs(4):
        if g.sigma == 0:
            assert walk_counts(g).w3 == 6 * triangle_census(g)[0]


def test_w3_triangle_free_with_loops_is_positive():
    for a, b in ((1, 3), (2, 2), (2, 3)):
        for sigma_a in range(a + 1):
            g = generate(FamilySpec.complete_bipartite(a, b, sigma_a=sigma_a, sigma_b=1))
            looped_degree_sum = sum(g.degrees[v] for v in g.loops)
            assert walk_counts(g).w3 == 3 * looped_degree_sum + g.sigma > 0


def test_w4_k4_three_loops(k4_three_loops):
    assert walk_counts(k4_three_loops).w4 == 207


def test_w4_k23_loopless():
    assert walk_counts(generate(FamilySpec.complete_bipartite(2, 3))).w4 == 72


@pytest.mark.parametrize("sigma,expected", [(1, 35), (2, 56), (3, 81)])
def test_w4_c3(sigma, expected):
    g = generate(FamilySpec.cycle(3, loops=tuple(range(sigma))))
    assert walk_counts(g).w4 == expected


def test_w4_loopless_reduction():
    # with no loops only the Zagreb and cycle terms survive
    for g in enumerate_all_graphs(4):
        if g.sigma == 0:
            assert walk_counts(g).w4 == trace_power(g, 4)


def test_walk_counts_bundle(k4_three_loops):
    wc = walk_counts(k4_three_loops)
    assert (wc.w1, wc.w2, wc.w3, wc.w4) == (3, 15, 54, 207)


# -- family closed forms ---------------------------------------------------


def test_closed_w3_bipartite_example():
    spec = FamilySpec.complete_bipartite(2, 3, sigma_a=1, sigma_b=2)
    assert closed_form_w3(spec) == 24


def test_closed_w3_kneser():
    assert closed_form_w3(FamilySpec.kneser(2, loops=(0,))) == 10
    assert closed_form_w3(FamilySpec.petersen(loops=(3,))) == 10


def test_closed_w3_wheel_center_looped():
    spec = FamilySpec.wheel(5, center_looped=True, rim_loops=1)
    assert closed_form_w3(spec) == 47


def test_closed_w3_wheel_center_free():
    spec = FamilySpec.wheel(6, rim_loops=3)
    assert closed_form_w3(spec) == 10 * 3 + 6 * 5


def test_closed_w3_wheel_rejects_order_four():
    with pytest.raises(UnsupportedFamily):
        closed_form_w3(FamilySpec.wheel(4, rim_loops=1))


def test_closed_w3_unsupported_family():
    with pytest.raises(UnsupportedFamily):
        closed_form_w3(FamilySpec.star(5, leaf_loops=1))


@pytest.mark.parametrize("n,expected", [(4, 28), (6, 60), (8, 104)])
def test_closed_w3_mantel_extremal(n, expected):
    half = n // 2
    spec = FamilySpec.complete_bipartite(half, half, sigma_a=half, sigma_b=half)
    assert closed_form_w3(spec) == 3 * n * n // 2 + n == expected


def test_closed_w4_complete():
    assert closed_form_w4(FamilySpec.complete(5)) == 260


def test_closed_w4_complete_rejects_loops():
    with pytest.raises(InvalidLoopPlacement):
        closed_form_w4(FamilySpec.complete(5, loops=(0,)))
    with pytest.raises(UnsupportedFamily):
        closed_form_w4(FamilySpec.complete(3))


def test_closed_w4_path_q1_q2():
    assert closed_form_w4(FamilySpec.path(8, loops=(1, 2, 4, 6))) == 78
    assert closed_form_w4(FamilySpec.path(8, loops=(1, 2, 4, 5, 6))) == 95


def test_closed_w4_path_rejects_mixed_endpoint_runs():
    # looped endpoint together with an adjacent-loop block
    with pytest.raises(InvalidLoopPlacement):
        closed_form_w4(FamilySpec.path(6, loops=(0, 2, 3)))
    with pytest.raises(InvalidLoopPlacement):
        closed_form_w4(FamilySpec.path(4, loops=(0, 1)))


def test_closed_w4_star_branches():
    n = 6
    assert closed_form_w4(FamilySpec.star(n, leaf_loops=2)) == 2 * 25 + 10
    assert (closed_form_w4(FamilySpec.star(n, center_looped=True, leaf_loops=2))
            == 2 * 25 + 18 + 21)


def test_closed_w4_unsupported_family():
    with pytest.raises(UnsupportedFamily):
        closed_form_w4(FamilySpec.wheel(6, rim_loops=1))
    with pytest.raises(UnsupportedFamily):
        closed_form_w4(FamilySpec.kneser(2))
    with pytest.raises(UnsupportedFamily, match="n >= 2"):
        closed_form_w4(FamilySpec.path(1))


# -- closed form vs general formula sweeps ----------------------------------


def test_complete_w3_sweep_all_placements():
    for n in range(1, 6):
        for loops in _all_loop_subsets(n):
            spec = FamilySpec.complete(n, loops)
            assert closed_form_w3(spec) == walk_counts(generate(spec)).w3


def test_bipartite_sweep():
    for a in range(1, 5):
        for b in range(1, 5):
            for sigma_a in range(a + 1):
                for sigma_b in range(b + 1):
                    spec = FamilySpec.complete_bipartite(a, b, sigma_a=sigma_a,
                                                         sigma_b=sigma_b)
                    g = generate(spec)
                    assert closed_form_w3(spec) == walk_counts(g).w3
                    assert closed_form_w4(spec) == walk_counts(g).w4


def test_bipartite_placement_independence():
    # scattered loops, not the canonical prefix placement
    spec = FamilySpec.complete_bipartite(3, 4, loops=(1, 2, 4, 6))
    g = generate(spec)
    assert closed_form_w3(spec) == walk_counts(g).w3
    assert closed_form_w4(spec) == walk_counts(g).w4


def test_cycle_sweep_all_placements():
    for n in range(3, 9):
        for loops in _all_loop_subsets(n):
            spec = FamilySpec.cycle(n, loops)
            g = generate(spec)
            assert closed_form_w3(spec) == walk_counts(g).w3
            assert closed_form_w4(spec) == walk_counts(g).w4


def test_path_sweep_supported_placements():
    checked = 0
    for n in range(2, 9):
        for loops in _all_loop_subsets(n):
            spec = FamilySpec.path(n, loops)
            try:
                value = closed_form_w4(spec)
            except InvalidLoopPlacement:
                continue
            assert value == walk_counts(generate(spec)).w4
            checked += 1
    assert checked > 200


def test_star_sweep():
    for n in range(2, 9):
        for center in (False, True):
            for leaves in range(n):
                spec = FamilySpec.star(n, center_looped=center, leaf_loops=leaves)
                assert closed_form_w4(spec) == walk_counts(generate(spec)).w4


def test_wheel_w3_sweep_all_placements():
    for n in range(5, 8):
        for loops in _all_loop_subsets(n):
            spec = FamilySpec.wheel(n, loops=loops)
            assert closed_form_w3(spec) == walk_counts(generate(spec)).w3


def test_kneser_w3_sweep():
    for k in (2, 3):
        for sigma in (0, 1, 4):
            spec = FamilySpec.kneser(k, loops=tuple(range(sigma)))
            assert closed_form_w3(spec) == walk_counts(generate(spec)).w3


def test_complete_w4_sweep():
    for n in range(4, 9):
        spec = FamilySpec.complete(n)
        assert closed_form_w4(spec) == walk_counts(generate(spec)).w4


# -- loop profile of a path or cycle placement ---------------------------------


def _profile(n, loops, cyclic=False):
    """(blocks of >= 2 consecutive loops, isolated loops) of a placement on
    the path or cycle 0..n-1, by the helper the closed forms use."""
    return _loop_blocks(_loop_flags(n, loops), cyclic=cyclic)


def test_profile_q1():
    assert _profile(8, (1, 2, 4, 6)) == (1, 2)


def test_profile_q2():
    assert _profile(8, (1, 2, 4, 5, 6)) == (2, 0)


def test_profile_no_loops():
    assert _profile(5, ()) == (0, 0)
    assert _profile(5, (), cyclic=True) == (0, 0)


def test_profile_endpoint_loops():
    assert _profile(4, (0, 3)) == (0, 2)
    # on a cycle the two ends are neighbors
    assert _profile(4, (0, 3), cyclic=True) == (1, 0)


def test_profile_counts_partition_loops():
    for n in range(1, 8):
        for loops in _all_loop_subsets(n):
            for cyclic in (False, True) if n >= 3 else (False,):
                runs, isolated = _profile(n, loops, cyclic)
                assert 2 * runs + isolated <= len(loops)
                if runs == 0:
                    assert isolated == len(loops)


def test_profile_cycle_wraparound_run():
    assert _profile(5, (0, 1, 4), cyclic=True) == (1, 0)
    assert _profile(5, (0, 1, 4)) == (1, 1)


def test_profile_full_cycle_is_one_run():
    assert _profile(4, (0, 1, 2, 3), cyclic=True) == (1, 0)
