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
            return SelfLoopGraph.neighbor_masks.fget(self)

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


def _filled_slots(g):
    return {name for name in type(g).__slots__ if hasattr(g, name)}


def test_graph_caches_only_the_bitmask_adjacency():
    # after the formula, trace and enumeration routes, the graph holds its
    # fields and its hash, nothing per route: the bitmask adjacency lives in
    # the skeleton memo alone
    from loopwalks import enumerate_closed_walks, trace_power, walk_counts
    from loopwalks import walks

    walks._formula.cache_clear()
    g = build(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)],
              [1, 3, 4])
    walk_counts(g)
    for k in range(1, 5):
        trace_power(g, k)
        enumerate_closed_walks(g, k)
    assert _filled_slots(g) - {"order", "edges", "loops"} == {"_hash"}


def _memory_script(reads):
    return f"""
import gc, tracemalloc
from loopwalks import (enumerate_all_graphs, enumerate_closed_walks,
                       trace_power, walk_counts)
graphs = list(enumerate_all_graphs(4))
gc.collect()
tracemalloc.start()
for g in graphs:
{reads}
gc.collect()
print(len(graphs), tracemalloc.get_traced_memory()[0])
"""


_ROUTES = """\
    walk_counts(g)
    for k in range(1, 5):
        trace_power(g, k)
        enumerate_closed_walks(g, k)"""


def _grown_per_graph(script):
    # a fresh process, so no earlier test's graphs or memos are traced
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    graphs, grown = map(int, out.stdout.split())
    assert graphs == 1024
    return grown / graphs


def test_routes_grow_each_graph_by_less_than_a_dict():
    # a dict per graph would take at least 64 B; the routes store only the
    # hash, 36 B, in its slot
    assert _grown_per_graph(_memory_script(_ROUTES)) < 64


def test_connectivity_grows_each_graph_by_less_than_a_dict():
    # on top of the routes' hash, the answer is one of the two bool
    # singletons, stored in its slot
    routes = _grown_per_graph(_memory_script(_ROUTES))
    both = _grown_per_graph(_memory_script(_ROUTES + "\n    g.connected"))
    assert both - routes < 64


def test_lazy_attributes_are_computed_once_per_graph():
    from loopwalks import SelfLoopGraph

    searches = []

    class CountingGraph(SelfLoopGraph):
        # each search reads the masks once, so reads count searches
        @property
        def neighbor_masks(self):
            searches.append(self)
            return SelfLoopGraph.neighbor_masks.fget(self)

    hashed = []

    class CountingPair(tuple):
        def __hash__(self):
            hashed.append(self)
            return tuple.__hash__(self)

    edges = (CountingPair((0, 1)), CountingPair((1, 2)), CountingPair((2, 3)))
    g = CountingGraph(order=4, edges=edges, loops=(1,))
    plain = build(4, [(0, 1), (1, 2), (2, 3)], [1])
    for _ in range(3):
        assert g.connected == plain.connected
        assert hash(g) == hash(plain)
    assert len(searches) == 1 and len(hashed) == len(edges)
    # later reads are the values stored in the slots
    assert g._connected is g.connected and g._hash == hash(g)


def test_lazy_attributes_stay_lazy_and_frozen():
    import dataclasses
    from loopwalks import SelfLoopGraph

    assert SelfLoopGraph.__slots__ == ("order", "edges", "loops", "_hash",
                                       "_connected")
    g = build(3, [(0, 1)], [2])
    assert not hasattr(g, "__dict__")
    assert _filled_slots(g) == {"order", "edges", "loops"}
    # the masks and degrees are read from the skeleton's memo entry and the
    # loop mask from the loops, each time; none is stored on the graph
    assert g.degrees == (1, 1, 0)
    assert g.neighbor_masks == (0b10, 0b01, 0)
    assert g.loop_mask == 0b100
    assert _filled_slots(g) == {"order", "edges", "loops"}
    assert not g.connected
    assert _filled_slots(g) == {"order", "edges", "loops", "_connected"}
    for name, value in (("degrees", (0, 0, 0)), ("connected", True),
                        ("_connected", True), ("order", 4)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, value)
    assert not g.connected


def test_class_access_returns_the_descriptor_with_its_docstring():
    from loopwalks import SelfLoopGraph

    assert isinstance(SelfLoopGraph.connected, property)
    assert "Breadth-first reachability" in SelfLoopGraph.connected.__doc__
    assert "bitmasks" in SelfLoopGraph.neighbor_masks.__doc__


def _value_cases():
    fresh = build(5, [(0, 1), (1, 2), (3, 4)], [0, 4])
    filled = build(4, [(0, 1), (1, 2), (2, 3)], [1, 2])
    assert filled.connected and hash(filled)
    return fresh, filled


def test_graph_copies_and_pickles_as_a_value():
    import copy
    import pickle

    for g in _value_cases():
        copies = [pickle.loads(pickle.dumps(g, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(g), copy.deepcopy(g)]
        for other in copies:
            assert type(other) is type(g)
            assert other == g and hash(other) == hash(g)
            assert (other.order, other.edges, other.loops) == (g.order, g.edges, g.loops)
            assert other.connected == g.connected


def test_graph_dataclass_view_is_its_three_fields():
    import dataclasses
    from loopwalks import SelfLoopGraph

    names = ["order", "edges", "loops"]
    assert [f.name for f in dataclasses.fields(SelfLoopGraph)] == names
    for g in _value_cases():
        assert [f.name for f in dataclasses.fields(g)] == names
        assert dataclasses.asdict(g) == {"order": g.order, "edges": g.edges,
                                         "loops": g.loops}
        assert dataclasses.astuple(g) == (g.order, g.edges, g.loops)
        assert repr(g) == (f"SelfLoopGraph(order={g.order!r}, edges={g.edges!r}, "
                           f"loops={g.loops!r})")
        looped = dataclasses.replace(g, loops=())
        assert looped == build(g.order, g.edges) and looped != g
        assert dataclasses.replace(g) == g


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
