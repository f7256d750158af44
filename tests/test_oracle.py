import random

import pytest

from loopwalks import (FamilySpec, LoopwalksError, SizeLimitExceeded, build,
                       enumerate_closed_walks, generate, trace_power)
from loopwalks.oracle import matrix_power_diagonal


def test_trace_k1_is_loop_count(k4_three_loops):
    assert trace_power(k4_three_loops, 1) == 3


def test_trace_k0_is_order(k4_three_loops):
    assert trace_power(k4_three_loops, 0) == 4


def test_trace_k2_is_2m_plus_sigma():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.5]
        loops = [v for v in range(n) if rng.random() < 0.5]
        g = build(n, edges, loops)
        assert trace_power(g, 2) == 2 * g.size + g.sigma


def test_enumeration_petersen_listed_walks(petersen_one_loop):
    walks = enumerate_closed_walks(petersen_one_loop, 3)
    assert walks.total == 10
    # vertex 1 carries the loop: triple looping, loop+edge combinations,
    # and one bounce per neighbor; each neighbor adds one walk of its own
    assert walks.per_vertex[1] == 7
    neighbor_walks = [walks.per_vertex[v] for v in petersen_one_loop.neighbors[1]]
    assert neighbor_walks == [1, 1, 1]


def test_enumeration_single_looped_vertex():
    g = build(1, [], [0])
    assert enumerate_closed_walks(g, 4).total == 1


def test_enumeration_k4_example(k4_three_loops):
    assert enumerate_closed_walks(k4_three_loops, 4).total == 207


def test_enumeration_k0():
    g = build(3, [(0, 1)])
    assert enumerate_closed_walks(g, 0).total == 3


def test_enumeration_matches_trace_small_random():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.5]
        loops = [v for v in range(n) if rng.random() < 0.5]
        g = build(n, edges, loops)
        for k in range(1, 6):
            assert enumerate_closed_walks(g, k).total == trace_power(g, k)


def test_per_vertex_matches_power_diagonal():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.6]
        loops = [v for v in range(n) if rng.random() < 0.4]
        g = build(n, edges, loops)
        for k in (2, 3, 4):
            walks = enumerate_closed_walks(g, k)
            assert walks.per_vertex == matrix_power_diagonal(g, k)


def _dense_power_diagonal(graph, k):
    """Reference diagonal of A^k by plain dense integer products."""
    n = graph.order
    base = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        base[u][v] = base[v][u] = 1
    for v in graph.loops:
        base[v][v] = 1
    power = base
    for _ in range(k - 1):
        power = [[sum(power[i][l] * base[l][j] for l in range(n)) for j in range(n)]
                 for i in range(n)]
    return tuple(power[i][i] for i in range(n))


def test_power_diagonal_matches_dense_product():
    rng = random.Random(41)
    graphs = [build(1, []), build(1, [], [0]), build(7, []),
              build(6, [], range(6)),
              generate(FamilySpec.complete(5, loops=tuple(range(5)))),
              generate(FamilySpec.petersen(loops=(1, 4)))]
    for _ in range(120):
        n = rng.randint(1, 12)
        density = rng.random()
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if rng.random() < density]
        loops = [v for v in range(n) if rng.random() < 0.5]
        graphs.append(build(n, edges, loops))
    for g in graphs:
        for k in range(1, 10):
            assert matrix_power_diagonal(g, k) == _dense_power_diagonal(g, k)


def test_enumeration_size_guards():
    big = generate(FamilySpec.complete_bipartite(7, 7))
    with pytest.raises(SizeLimitExceeded):
        enumerate_closed_walks(big, 3)
    small = build(2, [(0, 1)])
    with pytest.raises(SizeLimitExceeded):
        enumerate_closed_walks(small, 9)


def test_negative_arguments_rejected():
    g = build(2, [(0, 1)])
    with pytest.raises(ValueError):
        enumerate_closed_walks(g, -1)
    with pytest.raises(ValueError):
        trace_power(g, -2)


def test_caller_faults_raise_package_errors():
    g = build(2, [(0, 1)])
    with pytest.raises(LoopwalksError):
        trace_power(g, -1)
    with pytest.raises(LoopwalksError):
        matrix_power_diagonal(g, 0)
    with pytest.raises(LoopwalksError):
        enumerate_closed_walks(g, -1)


def test_trace_large_power_exact():
    # adjacency of the fully looped complete graph is the all-ones matrix,
    # so the k-th power trace is n^k; at k=20 this is far beyond 64 bits
    g = generate(FamilySpec.complete(12, loops=tuple(range(12))))
    assert trace_power(g, 20) == 12 ** 20
