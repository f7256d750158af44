import random
from itertools import combinations, permutations

import pytest

from loopwalks import (FamilySpec, build, enumerate_all_graphs, first_zagreb,
                       four_cycle_census, four_cycle_census_per_vertex,
                       generate, loop_boundary, subgraph_census,
                       triangle_census, triangle_census_per_vertex)


def _random_graph(rng, n, edge_p=0.5, loop_p=0.5):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if rng.random() < edge_p]
    loops = [v for v in range(n) if rng.random() < loop_p]
    return build(n, edges, loops)


# -- first Zagreb index -------------------------------------------------


def test_zagreb_k4():
    assert first_zagreb(generate(FamilySpec.complete(4))) == 36


@pytest.mark.parametrize("n", [3, 5, 8, 11])
def test_zagreb_path_closed_form(n):
    assert first_zagreb(generate(FamilySpec.path(n))) == 4 * n - 6


def test_zagreb_single_edge():
    assert first_zagreb(build(2, [(0, 1)])) == 2


# -- loop boundary -------------------------------------------------------


def test_loop_boundary_k4_three_loops(k4_three_loops):
    n1, n2, n1_sum = loop_boundary(k4_three_loops)
    assert n1_sum == 3
    # each looped vertex sees the single unlooped one
    for v in k4_three_loops.loops:
        assert n1[v] == 1
        assert n2[v] == 2
    # the unlooped vertex sees all three loops
    assert n1[2] == 3


def test_loop_boundary_all_looped():
    g = generate(FamilySpec.complete(4, loops=(0, 1, 2, 3)))
    n1, n2, _ = loop_boundary(g)
    assert all(x == 0 for x in n1)
    assert all(n2[v] == 3 for v in range(4))


def test_loop_boundary_matches_direct_neighbor_scan():
    rng = random.Random(11)
    for _ in range(200):
        g = _random_graph(rng, rng.randint(1, 6))
        n1, n2, n1_sum = loop_boundary(g)
        looped = set(g.loops)
        for v in range(g.order):
            nbrs = g.neighbor_sets[v]
            if v in looped:
                assert n1[v] == len(nbrs - looped)
                assert n2[v] == len(nbrs & looped)
                assert n1[v] + n2[v] == g.degrees[v]
            else:
                assert n1[v] == len(nbrs & looped)
                assert n2[v] == 0
        assert n1_sum == sum(n1[v] for v in g.loops)


def test_loop_boundary_sum_balance_exhaustive_n4():
    for g in enumerate_all_graphs(4):
        n1, _, n1_sum = loop_boundary(g)
        outside = sum(n1[v] for v in range(4) if v not in g.loop_set)
        assert n1_sum == outside


# -- triangles -----------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(3, 1), (4, 4), (5, 10), (6, 20)])
def test_triangles_complete(n, expected):
    total, t1, t2, t3 = triangle_census(generate(FamilySpec.complete(n)))
    assert total == expected
    assert (t1, t2, t3) == (0, 0, 0)


def test_triangles_k4_three_loops(k4_three_loops):
    assert triangle_census(k4_three_loops) == (4, 0, 3, 1)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (3, 3), (4, 2)])
def test_triangles_bipartite_free(a, b):
    assert triangle_census(generate(FamilySpec.complete_bipartite(a, b))) == (0, 0, 0, 0)


def test_triangle_classes_loopless_are_zero():
    for g in enumerate_all_graphs(4):
        if g.sigma == 0:
            total, t1, t2, t3 = triangle_census(g)
            assert (t1, t2, t3) == (0, 0, 0)


def test_triangle_census_against_triple_enumeration():
    rng = random.Random(23)
    for _ in range(100):
        g = _random_graph(rng, rng.randint(3, 7))
        looped = g.loop_set
        by_loops = [0, 0, 0, 0]
        for x, y, z in combinations(range(g.order), 3):
            if (y in g.neighbor_sets[x] and z in g.neighbor_sets[x]
                    and z in g.neighbor_sets[y]):
                by_loops[len({x, y, z} & looped)] += 1
        total, t1, t2, t3 = triangle_census(g)
        assert total == sum(by_loops)
        assert (t1, t2, t3) == tuple(by_loops[1:])


def test_triangle_per_vertex_sums():
    rng = random.Random(5)
    for _ in range(50):
        g = _random_graph(rng, 6)
        per_vertex = triangle_census_per_vertex(g)
        total, t1, t2, t3 = triangle_census(g)
        # each triangle is seen from its three vertices
        assert sum(sum(row) for row in per_vertex) == 3 * total
        for r, class_total in ((1, t1), (2, t2), (3, t3)):
            assert sum(row[r] for row in per_vertex) == 3 * class_total
            # triangles with r loops are seen from looped vertices r times each
            assert sum(per_vertex[v][r] for v in g.loops) == r * class_total


# -- four-cycles and cliques ----------------------------------------------


def test_four_cycles_k4_alone():
    assert four_cycle_census(generate(FamilySpec.complete(4))) == (0, 1)


def test_four_cycles_k5():
    # every 4-subset induces a clique: 15 total cycles, all boundary
    assert four_cycle_census(generate(FamilySpec.complete(5))) == (0, 5)


@pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 3), (4, 3), (4, 4)])
def test_four_cycles_bipartite_closed_form(a, b):
    c4, k4 = four_cycle_census(generate(FamilySpec.complete_bipartite(a, b)))
    assert c4 == a * b * (a - 1) * (b - 1) // 4
    assert k4 == 0


def test_four_cycles_diamond_counts_once():
    # 4-clique minus one edge: a single 4-cycle, no clique
    g = build(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert four_cycle_census(g) == (1, 0)


def _cycle_count_by_walk_closure(g):
    """Independent oracle: distinct 4-cycles, identified by their edge sets,
    found by trying every tour of every 4-subset."""
    total = 0
    for quad in combinations(range(g.order), 4):
        cycle_edge_sets = set()
        for tour in permutations(quad):
            if all(tour[(i + 1) % 4] in g.neighbor_sets[tour[i]] for i in range(4)):
                cycle_edge_sets.add(frozenset(
                    frozenset((tour[i], tour[(i + 1) % 4])) for i in range(4)))
        total += len(cycle_edge_sets)
    return total


def test_total_four_cycle_identity_against_tour_oracle():
    rng = random.Random(31)
    for _ in range(60):
        g = _random_graph(rng, rng.randint(4, 7), edge_p=0.6)
        c4, k4 = four_cycle_census(g)
        assert c4 + 3 * k4 == _cycle_count_by_walk_closure(g)


def test_complete_graph_total_four_cycles():
    for n in range(4, 8):
        c4, k4 = four_cycle_census(generate(FamilySpec.complete(n)))
        # n! / (8 (n-4)!) total distinct 4-cycles
        expected = n * (n - 1) * (n - 2) * (n - 3) // 8
        assert c4 + 3 * k4 == expected


def test_four_cycles_per_vertex_sums():
    rng = random.Random(13)
    for _ in range(40):
        g = _random_graph(rng, 7, edge_p=0.55)
        c4_at, k4_at = four_cycle_census_per_vertex(g)
        c4, k4 = four_cycle_census(g)
        assert sum(c4_at) == 4 * c4
        assert sum(k4_at) == 4 * k4


# The quadruple scan the census used before codegree counting, kept as a
# test-only reference: every 4-set a < b < c < d, its six pair slots, and
# its three cyclic arrangements a-b-c-d, a-b-d-c and a-c-b-d.
def _four_cycles_by_quadruple_scan(g):
    masks = g.neighbor_masks
    c4_at = [0] * g.order
    k4_at = [0] * g.order
    c4_total = k4_total = 0
    for quad in combinations(range(g.order), 4):
        a, b, c, d = quad
        ab, ac, ad = masks[a] >> b & 1, masks[a] >> c & 1, masks[a] >> d & 1
        bc, bd, cd = masks[b] >> c & 1, masks[b] >> d & 1, masks[c] >> d & 1
        edge_count = ab + ac + ad + bc + bd + cd
        if edge_count < 4:
            continue
        if edge_count == 6:
            k4_total += 1
            for v in quad:
                k4_at[v] += 1
            continue
        cycles = ab & bc & cd & ad
        cycles += ab & bd & cd & ac
        cycles += ac & bc & bd & ad
        c4_total += cycles
        for v in quad:
            c4_at[v] += cycles
    return (c4_total, k4_total), (tuple(c4_at), tuple(k4_at))


def test_four_cycles_match_quadruple_scan_on_every_skeleton_to_order_5():
    for n in range(1, 6):
        for g in enumerate_all_graphs(n):
            if g.sigma == 0:
                census, per_vertex = _four_cycles_by_quadruple_scan(g)
                assert four_cycle_census(g) == census
                assert four_cycle_census_per_vertex(g) == per_vertex


def test_four_cycles_match_quadruple_scan_on_random_graphs():
    rng = random.Random(47)
    # 180 graphs of order 6..20 and one of each order 21..40 keep the
    # O(n^4) reference quick; densities cycle through 0.1..0.9
    orders = [6 + i % 15 for i in range(180)] + list(range(21, 41))
    for i, n in enumerate(orders):
        g = _random_graph(rng, n, edge_p=0.1 + 0.1 * (i % 9))
        census, per_vertex = _four_cycles_by_quadruple_scan(g)
        assert four_cycle_census(g) == census
        assert four_cycle_census_per_vertex(g) == per_vertex


def test_four_cycles_of_large_edgeless_graph():
    g = build(3000, [])
    assert four_cycle_census(g) == (0, 0)
    assert four_cycle_census_per_vertex(g) == ((0,) * 3000, (0,) * 3000)


# -- aggregate census ------------------------------------------------------


def test_census_identities_exhaustive_n5():
    for n in range(1, 6):
        for g in enumerate_all_graphs(n):
            n1, n2, n1_sum = loop_boundary(g)
            for v in g.loops:
                assert n1[v] + n2[v] == g.degrees[v]
            assert n1_sum == sum(n1[v] for v in range(n) if v not in g.loop_set)
            total, t1, t2, t3 = triangle_census(g)
            looped = sum(1 for x, y, z in combinations(range(n), 3)
                         if y in g.neighbor_sets[x] and z in g.neighbor_sets[x]
                         and z in g.neighbor_sets[y] and {x, y, z} & g.loop_set)
            assert t1 + t2 + t3 == looped <= total
            if g.sigma == 0:
                # loops are irrelevant to the 4-cycle counts: check the
                # decomposition once per edge set
                c4, k4 = four_cycle_census(g)
                assert c4 + 3 * k4 == _cycle_count_by_walk_closure(g)


def test_census_counts_nonnegative_exhaustive_n4():
    for g in enumerate_all_graphs(4):
        c = subgraph_census(g)
        assert c.zagreb1 >= 0 and c.degree_sum_S >= 0 and c.n1_sum_S >= 0
        assert min(c.tri_loops) >= 0 and c.triangles_total >= 0
        assert c.c4_not_k4 >= 0 and c.k4_count >= 0
        assert sum(c.tri_loops) <= c.triangles_total


def test_census_of_loopless_graph_has_zero_loop_fields():
    g = generate(FamilySpec.complete(5))
    c = subgraph_census(g)
    assert c.tri_loops == (0, 0, 0)
    assert c.n1_per_vertex == (0,) * 5
    assert c.n2_per_vertex == (0,) * 5
    assert c.degree_sum_S == 0
