import random

import pytest

from loopwalks import (FamilySpec, LoopwalksError, SizeLimitExceeded, build,
                       enumerate_closed_walks, generate, oracle, trace_power)
from loopwalks.oracle import matrix_power_diagonal, traces_upto


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
    neighbors = [u + v - 1 for u, v in petersen_one_loop.edges if 1 in (u, v)]
    neighbor_walks = [walks.per_vertex[v] for v in neighbors]
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


def test_per_vertex_matches_power_diagonal_at_the_guards():
    # orders 7-12 and every k up to the enumeration's guard, plus the
    # edgeless, loops-only and path graphs at the longest walks
    rng = random.Random(83)
    graphs = [build(12, []), build(12, [], range(12)),
              generate(FamilySpec.path(12, loops=(0, 5)))]
    for _ in range(12):
        n = rng.randint(7, 12)
        density = rng.choice((0.2, 0.4))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs.append(build(n, [p for p in pairs if rng.random() < density],
                            [v for v in range(n) if rng.random() < 0.4]))
    for g in graphs:
        assert enumerate_closed_walks(g, 0).per_vertex == (1,) * g.order
        for k in range(1, 9):
            walks = enumerate_closed_walks(g, k)
            assert walks.per_vertex == matrix_power_diagonal(g, k)
            assert walks.total == sum(walks.per_vertex)


def test_move_lists_are_built_once_per_graph():
    g = build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [2])
    oracle._moves.cache_clear()
    for k in range(9):
        enumerate_closed_walks(g, k)
    assert oracle._moves.cache_info().misses == 1


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


def test_enumeration_fully_looped_complete_closed_form():
    # every step has n choices, so n^k closed k-walks, n^(k-1) per start
    for n in range(1, 13):
        g = generate(FamilySpec.complete(n, loops=tuple(range(n))))
        assert enumerate_closed_walks(g, 0).per_vertex == (1,) * n
        for k in range(1, 7):
            walks = enumerate_closed_walks(g, k)
            assert walks.total == n ** k
            assert walks.per_vertex == (n ** (k - 1),) * n


def test_enumeration_counts_are_ints():
    graphs = [build(1, []), build(1, [], [0]), build(3, [(0, 1)], [2]),
              generate(FamilySpec.complete(4, loops=(0, 1, 3)))]
    for g in graphs:
        for k in range(9):
            walks = enumerate_closed_walks(g, k)
            assert all(type(x) is int for x in walks.per_vertex)
            assert type(walks.total) is int


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


def _sweep_graphs():
    rng = random.Random(61)
    graphs = [generate(FamilySpec.complete(10, loops=(0, 1))),
              generate(FamilySpec.path(7, loops=(2,))),
              build(5, []), build(1, []), build(1, [], [0])]
    for _ in range(12):
        n = rng.randint(2, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs.append(build(n, [p for p in pairs if rng.random() < 0.5],
                            [v for v in range(n) if rng.random() < 0.5]))
    return graphs


def test_trace_sweep_matches_trace_power():
    for g in _sweep_graphs():
        expected = tuple(trace_power(g, k) for k in range(1, 65))
        for kmax in (1, 2, 3, 4, 5, 6, 63, 64):
            assert traces_upto(g, kmax) == expected[:kmax]


def test_trace_sweep_matches_dense_products():
    # the sweep and trace_power above k = 4 read one power ladder; plain
    # dense products check it independently
    for g in _sweep_graphs():
        expected = tuple(sum(_dense_power_diagonal(g, k)) for k in range(1, 17))
        for kmax in range(1, 17):
            assert traces_upto(g, kmax) == expected[:kmax]


def test_trace_sweep_rejects_kmax_below_one():
    with pytest.raises(LoopwalksError):
        traces_upto(build(2, [(0, 1)]), 0)


def _trace_work(g, k):
    """The trace guard's estimate: n * (8n + s * (8n + 2m + sigma)) with
    s = ceil(k/2) - 2 sparse steps, none for k <= 4."""
    n = g.order
    steps = max((k + 1) // 2 - 2, 0)
    return n * (8 * n + steps * (8 * n + 2 * g.size + g.sigma))


def test_trace_routes_refuse_work_just_past_the_budget(monkeypatch):
    # K_102 at k = 64 is the first complete graph past the budget; refused
    # before any bit row is built
    def not_reached(*args):
        raise AssertionError("built rows past the trace work guard")

    monkeypatch.setattr(oracle, "_bit_rows", not_reached)
    big = generate(FamilySpec.complete(102, loops=(0, 1)))
    assert _trace_work(big, 64) > oracle._MAX_TRACE_WORK
    for route in (traces_upto, matrix_power_diagonal, trace_power):
        with pytest.raises(SizeLimitExceeded, match="trace route is guarded"):
            route(big, 64)


def test_trace_budget_admits_the_logged_runs():
    # K_101 at k = 64 and K_640 at k = 4 (0.36 s) pass the guard; K_640 at
    # k = 6 (12.8 s) and the edgeless E_640 at k = 64 (9.9 s) do not
    assert _trace_work(generate(FamilySpec.complete(101, loops=(0, 1))), 64) \
        <= oracle._MAX_TRACE_WORK
    k640 = generate(FamilySpec.complete(640, loops=(0, 1)))
    oracle._require_trace_work(k640, 4)
    for g, k in ((k640, 6), (build(640, []), 64)):
        with pytest.raises(SizeLimitExceeded):
            oracle._require_trace_work(g, k)


@pytest.mark.parametrize("k", [2, 4, 5, 9, 16])
def test_trace_routes_run_at_the_budget(monkeypatch, k):
    # with the budget set to a graph's exact work, the routes run; one unit
    # less and they refuse
    g = generate(FamilySpec.petersen(loops=(1, 4)))
    expected = matrix_power_diagonal(g, k)
    sweep = traces_upto(g, k)
    monkeypatch.setattr(oracle, "_MAX_TRACE_WORK", _trace_work(g, k))
    assert matrix_power_diagonal(g, k) == expected
    assert trace_power(g, k) == sum(expected) == sweep[-1]
    assert traces_upto(g, k) == sweep
    monkeypatch.setattr(oracle, "_MAX_TRACE_WORK", _trace_work(g, k) - 1)
    for route in (traces_upto, matrix_power_diagonal, trace_power):
        with pytest.raises(SizeLimitExceeded):
            route(g, k)
