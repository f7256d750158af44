import random
from itertools import combinations, permutations
from math import comb

import pytest

from loopwalks import (FamilySpec, build, enumerate_all_graphs,
                       four_cycle_census, generate, loop_boundary,
                       subgraph_census, triangle_census)


def _random_graph(rng, n, edge_p=0.5, loop_p=0.5):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if rng.random() < edge_p]
    loops = [v for v in range(n) if rng.random() < loop_p]
    return build(n, edges, loops)


def _neighbor_sets(g):
    """Neighborhoods as sets built from the edge list, so the reference
    scans stay independent of the census's bit masks."""
    adj = [set() for _ in range(g.order)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# -- first Zagreb index -------------------------------------------------


def test_zagreb_k4():
    assert subgraph_census(generate(FamilySpec.complete(4))).zagreb1 == 36


@pytest.mark.parametrize("n", [3, 5, 8, 11])
def test_zagreb_path_closed_form(n):
    assert subgraph_census(generate(FamilySpec.path(n))).zagreb1 == 4 * n - 6


def test_zagreb_single_edge():
    assert subgraph_census(build(2, [(0, 1)])).zagreb1 == 2


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
        adj = _neighbor_sets(g)
        for v in range(g.order):
            nbrs = adj[v]
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
        outside = sum(n1[v] for v in range(4) if v not in g.loops)
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
    # 100 graphs of order 3..7, then 40 of order 8..16 at densities 0.2..0.9
    graphs = [_random_graph(rng, rng.randint(3, 7)) for _ in range(100)]
    graphs += [_random_graph(rng, 8 + i % 9, edge_p=0.2 + 0.1 * (i % 8))
               for i in range(40)]
    for g in graphs:
        looped = set(g.loops)
        adj = _neighbor_sets(g)
        by_loops = [0, 0, 0, 0]
        for x, y, z in combinations(range(g.order), 3):
            if y in adj[x] and z in adj[x] and z in adj[y]:
                by_loops[len({x, y, z} & looped)] += 1
        total, t1, t2, t3 = triangle_census(g)
        assert total == sum(by_loops)
        assert (t1, t2, t3) == tuple(by_loops[1:])


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
    adj = _neighbor_sets(g)
    total = 0
    for quad in combinations(range(g.order), 4):
        cycle_edge_sets = set()
        for tour in permutations(quad):
            if all(tour[(i + 1) % 4] in adj[tour[i]] for i in range(4)):
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
    # K150 holds 20,260,275 4-cliques, too many to visit one at a time
    for n in (4, 5, 6, 7, 150):
        c4, k4 = four_cycle_census(generate(FamilySpec.complete(n)))
        # n! / (8 (n-4)!) total distinct 4-cycles
        expected = n * (n - 1) * (n - 2) * (n - 3) // 8
        assert c4 + 3 * k4 == expected
        assert (c4, k4) == (0, comb(n, 4))


# The quadruple scan the census used before codegree counting, kept as a
# test-only reference: every 4-set a < b < c < d, its six pair slots, and
# its three cyclic arrangements a-b-c-d, a-b-d-c and a-c-b-d.
def _four_cycles_by_quadruple_scan(g):
    masks = g.neighbor_masks
    c4_total = k4_total = 0
    for a, b, c, d in combinations(range(g.order), 4):
        ab, ac, ad = masks[a] >> b & 1, masks[a] >> c & 1, masks[a] >> d & 1
        bc, bd, cd = masks[b] >> c & 1, masks[b] >> d & 1, masks[c] >> d & 1
        edge_count = ab + ac + ad + bc + bd + cd
        if edge_count < 4:
            continue
        if edge_count == 6:
            k4_total += 1
            continue
        c4_total += ab & bc & cd & ad
        c4_total += ab & bd & cd & ac
        c4_total += ac & bc & bd & ad
    return c4_total, k4_total


def test_four_cycles_match_quadruple_scan_on_every_skeleton_to_order_5():
    for n in range(1, 6):
        for g in enumerate_all_graphs(n):
            if g.sigma == 0:
                assert four_cycle_census(g) == _four_cycles_by_quadruple_scan(g)


def test_four_cycles_match_quadruple_scan_on_random_graphs():
    rng = random.Random(47)
    # 180 graphs of order 6..20 and one of each order 21..40 keep the
    # O(n^4) reference quick; densities cycle through 0.1..0.9
    orders = [6 + i % 15 for i in range(180)] + list(range(21, 41))
    for i, n in enumerate(orders):
        g = _random_graph(rng, n, edge_p=0.1 + 0.1 * (i % 9))
        assert four_cycle_census(g) == _four_cycles_by_quadruple_scan(g)


def test_four_cycles_of_large_edgeless_graph():
    g = build(3000, [])
    assert four_cycle_census(g) == (0, 0)


# -- aggregate census ------------------------------------------------------


def test_census_identities_exhaustive_n5():
    for n in range(1, 6):
        for g in enumerate_all_graphs(n):
            n1, n2, n1_sum = loop_boundary(g)
            for v in g.loops:
                assert n1[v] + n2[v] == g.degrees[v]
            looped_set = set(g.loops)
            assert n1_sum == sum(n1[v] for v in range(n) if v not in looped_set)
            total, t1, t2, t3 = triangle_census(g)
            adj = _neighbor_sets(g)
            looped = sum(1 for x, y, z in combinations(range(n), 3)
                         if y in adj[x] and z in adj[x] and z in adj[y]
                         and {x, y, z} & looped_set)
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
