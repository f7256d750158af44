import random

import pytest

from loopwalks import (DuplicateEdge, IndexOutOfRange, SelfPairInEdgeList,
                       adjacency, build, is_connected)
from loopwalks.graph_core import adjacency_rows


def test_build_basic():
    g = build(2, [(0, 1)], [0])
    assert g.order == 2
    assert g.size == 1
    assert g.sigma == 1
    assert g.edges == ((0, 1),)
    assert g.loops == (0,)


def test_build_normalizes_edge_orientation():
    assert build(3, [(2, 0)]).edges == ((0, 2),)


def test_build_rejects_duplicate_edges():
    with pytest.raises(DuplicateEdge):
        build(3, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdge):
        build(3, [(0, 1), (1, 0)])


def test_build_rejects_duplicate_loops():
    with pytest.raises(DuplicateEdge):
        build(3, [], [1, 1])


def test_build_rejects_self_pairs():
    with pytest.raises(SelfPairInEdgeList):
        build(3, [(1, 1)])


@pytest.mark.parametrize("order,edges,loops", [
    (3, [(0, 3)], []),
    (3, [(-1, 0)], []),
    (3, [], [3]),
    (0, [], []),
])
def test_build_rejects_out_of_range(order, edges, loops):
    with pytest.raises(IndexOutOfRange):
        build(order, edges, loops)


def test_degrees_exclude_loops():
    g = build(3, [(0, 1)], [0, 2])
    assert g.degrees == (1, 1, 0)


def test_degree_sum_is_twice_size():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.4]
        g = build(n, edges)
        assert sum(g.degrees) == 2 * g.size


def test_adjacency_k2_both_looped():
    g = build(2, [(0, 1)], [0, 1])
    assert adjacency(g) == ((1, 1), (1, 1))


def test_adjacency_empty_graph_is_zero():
    g = build(3, [])
    assert adjacency(g) == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_adjacency_trace_counts_loops(k4_three_loops):
    mat = adjacency(k4_three_loops)
    assert sum(mat[i][i] for i in range(4)) == 3


def test_adjacency_is_symmetric_zero_one():
    g = build(5, [(0, 1), (1, 2), (2, 3), (0, 4)], [2, 4])
    mat = adjacency(g)
    for i in range(5):
        for j in range(5):
            assert mat[i][j] == mat[j][i]
            assert mat[i][j] in (0, 1)


def test_adjacency_stable_under_rebuild():
    edges = [(3, 1), (0, 2), (1, 0)]
    first = adjacency(build(4, edges, [2, 0]))
    second = adjacency(build(4, list(reversed(edges)), [0, 2]))
    assert first == second


def test_adjacency_rows_are_fresh_rows_of_the_given_unit():
    g = build(5, [(0, 1), (1, 2), (2, 3), (0, 4)], [2, 4])
    rows = adjacency_rows(g, 1.0)
    assert tuple(map(tuple, rows)) == adjacency(g)
    assert {type(x) for row in rows for x in row} == {float}
    rows[0][0] = 7.0
    assert adjacency_rows(g, 1.0)[0][0] == 0.0


def test_rebuild_gives_equal_value():
    g = build(4, [(0, 1), (2, 3)], [1])
    assert g == build(4, [(1, 0), (3, 2)], [1])


def test_is_connected_path():
    g = build(4, [(0, 1), (1, 2), (2, 3)])
    assert is_connected(g)


def test_is_connected_two_disjoint_edges():
    g = build(4, [(0, 1), (2, 3)])
    assert not is_connected(g)


def test_is_connected_single_vertex_with_loop():
    assert is_connected(build(1, [], [0]))


def test_is_connected_searches_once_per_graph():
    from loopwalks import SelfLoopGraph
    searches = []

    class CountingGraph(SelfLoopGraph):
        # each search reads the masks once, so reads count searches
        @property
        def neighbor_masks(self):
            searches.append(self)
            return SelfLoopGraph.neighbor_masks.func(self)

    g = CountingGraph(order=4, edges=((0, 1), (1, 2), (2, 3)), loops=())
    assert is_connected(g) and is_connected(g) and g.connected
    assert len(searches) == 1


def _connected_by_edge_list(g):
    """Reference search over adjacency lists built from the edge list."""
    adj = [[] for _ in range(g.order)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.order


def test_is_connected_matches_edge_list_search():
    rng = random.Random(53)
    graphs = [build(1, []), build(1, [], [0]), build(2, [(0, 1)]),
              build(7, []), build(40, []), build(6, [], range(6)),
              build(40, [], range(0, 40, 3))]
    for _ in range(600):
        n = rng.randint(1, 40)
        # densities around the connectivity threshold give both outcomes
        p = rng.choice((0.02, 0.05, 0.1, 0.2, 0.5))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs.append(build(n, [e for e in pairs if rng.random() < p],
                            [v for v in range(n) if rng.random() < 0.5]))
    outcomes = [is_connected(g) for g in graphs]
    assert outcomes == [_connected_by_edge_list(g) for g in graphs]
    assert outcomes.count(True) >= 100 and outcomes.count(False) >= 100


def test_graph_caches_only_the_bitmask_adjacency():
    # after the formula, trace and enumeration routes, the graph holds its
    # hash and the one derived adjacency, nothing per route
    from loopwalks import enumerate_closed_walks, trace_power, walk_counts
    from loopwalks import walks

    walks._formula.cache_clear()
    g = build(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)],
              [1, 3, 4])
    walk_counts(g)
    for k in range(1, 5):
        trace_power(g, k)
        enumerate_closed_walks(g, k)
    derived = set(vars(g)) - {"order", "edges", "loops"}
    assert derived == {"_hash", "neighbor_masks", "loop_mask", "degrees"}


def _lazy_names():
    from loopwalks import SelfLoopGraph
    from loopwalks.graph_core import _lazy

    return sorted(name for name, value in vars(SelfLoopGraph).items()
                  if isinstance(value, _lazy))


def test_lazy_attributes_are_computed_once_per_graph():
    from loopwalks import SelfLoopGraph
    from loopwalks.graph_core import _lazy

    names = _lazy_names()
    assert names == ["_hash", "connected", "degrees", "loop_mask", "neighbor_masks"]
    calls = []

    def counting(name):
        func = vars(SelfLoopGraph)[name].func

        def fill(self):
            calls.append(name)
            return func(self)
        fill.__name__ = name
        return _lazy(fill)

    CountingGraph = type("CountingGraph", (SelfLoopGraph,),
                         {name: counting(name) for name in names})
    g = CountingGraph(order=4, edges=((0, 1), (1, 2), (2, 3)), loops=(1,))
    plain = build(4, [(0, 1), (1, 2), (2, 3)], [1])
    for _ in range(3):
        for name in names:
            assert getattr(g, name) == getattr(plain, name)
        assert hash(g) == hash(plain)
    assert sorted(calls) == names
    # later reads are the values stored in the instance dict
    assert all(vars(g)[name] is getattr(g, name) for name in names)


def test_lazy_attributes_stay_lazy_and_frozen():
    import dataclasses

    g = build(3, [(0, 1)], [2])
    assert set(vars(g)) == {"order", "edges", "loops"}
    assert g.degrees == (1, 1, 0)
    # the degrees come from the skeleton's memo entry, not from the masks
    assert set(vars(g)) == {"order", "edges", "loops", "degrees"}
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.degrees = (0, 0, 0)


def test_class_access_returns_the_descriptor_with_its_docstring():
    from loopwalks import SelfLoopGraph
    from loopwalks.graph_core import _lazy

    for name in _lazy_names():
        descriptor = getattr(SelfLoopGraph, name)
        assert isinstance(descriptor, _lazy) and descriptor.name == name
        assert descriptor.__doc__ == descriptor.func.__doc__
    assert "bitmasks" in SelfLoopGraph.neighbor_masks.__doc__


def test_loops_do_not_connect():
    g = build(2, [], [0, 1])
    assert not is_connected(g)


def test_hash_is_cached_and_agrees_with_equality():
    from loopwalks import SelfLoopGraph

    a = build(4, [(0, 1), (1, 2), (2, 3)], [0, 2])
    b = build(4, [(3, 2), (2, 1), (1, 0)], [2, 0])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != build(4, [(0, 1), (1, 2), (2, 3)], [0])

    hashed = []

    class CountingPair(tuple):
        def __hash__(self):
            hashed.append(self)
            return tuple.__hash__(self)

    g = SelfLoopGraph(order=3, edges=(CountingPair((0, 1)), CountingPair((1, 2))),
                      loops=(0,))
    first = hash(g)
    assert len(hashed) == 2
    assert hash(g) == first
    assert len(hashed) == 2  # the second hash did not walk the edges again
