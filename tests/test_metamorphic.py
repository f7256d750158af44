"""Metamorphic relations of the formula route, and the skeleton memo under it.

A graph G_S is a skeleton G, its proper edges on ``order`` vertices, with
loops at S.  The formula route takes the skeleton's counts once per
skeleton (``graph_core._skeleton``) and the loop set's per graph, so these
tests check relations between graphs that share a skeleton, that a memo
entry is never read for another skeleton, and how often the skeleton work
runs.  Seeds are fixed.
"""

import random
from dataclasses import replace
from itertools import combinations
from math import comb

from loopwalks import (SelfLoopGraph, build, census, enumerate_all_graphs,
                       graph_core, subgraph_census, walk_counts, walks)


def _clear_memos():
    walks._formula.cache_clear()
    graph_core._last_skeleton = (0, (), (), (), {})


def _random_skeleton(rng, n, p):
    return build(n, [pair for pair in combinations(range(n), 2) if rng.random() < p])


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_looping_every_vertex_shifts_the_walk_counts(monkeypatch):
    # A(G_V) = A(G_0) + I, so w_k(G_V) = sum_i C(k, i) w_i(G_0) with
    # w_0 = n, exactly; G_V reads G_0's skeleton entry
    rng = random.Random(2024)
    _clear_memos()
    derived = _counting(monkeypatch, graph_core, "_derive_skeleton")
    for _ in range(24):
        n = rng.randint(6, 60)
        bare = _random_skeleton(rng, n, rng.choice((0.1, 0.3, 0.5, 0.9)))
        looped = replace(bare, loops=tuple(range(n)))
        before = len(derived)
        w = (n, *vars(walk_counts(bare)).values())
        shifted = tuple(vars(walk_counts(looped)).values())
        assert len(derived) == before + 1
        assert shifted == tuple(sum(comb(k, i) * w[i] for i in range(k + 1))
                                for k in range(1, 5))


def test_memo_never_reads_another_skeleton():
    # two skeletons interleaved, an equal edge tuple that is another object,
    # and edgeless graphs of orders 1..6, which all share the tuple ()
    rng = random.Random(7)
    first = _random_skeleton(rng, 8, 0.5)
    second = _random_skeleton(rng, 9, 0.5)
    equal = SelfLoopGraph(8, tuple(list(first.edges)), ())
    assert equal.edges == first.edges and equal.edges is not first.edges
    graphs = []
    for i in range(30):
        skeleton = (first, second, equal, build(1 + i % 6, []))[i % 4]
        loops = tuple(v for v in range(skeleton.order) if rng.random() < 0.5)
        graphs.append(replace(skeleton, loops=loops))
    _clear_memos()
    seen = []
    for i, g in enumerate(graphs):
        if i % 2:
            seen.append((walk_counts(g), subgraph_census(g).as_dict()))
        else:
            census_dict = subgraph_census(g).as_dict()
            seen.append((walk_counts(g), census_dict))
    for g, values in zip(graphs, seen):
        _clear_memos()
        fresh = SelfLoopGraph(g.order, tuple(list(g.edges)), tuple(g.loops))
        assert values == (walk_counts(fresh), subgraph_census(fresh).as_dict()), g


def test_skeleton_work_runs_once_per_edge_set(monkeypatch):
    # the 33,866 graphs of order 1..5 come as 1,099 edge sets, each with
    # every loop subset in turn; the formula lists no 4-clique
    _clear_memos()
    derived = _counting(monkeypatch, graph_core, "_derive_skeleton")
    cycles = _counting(monkeypatch, census, "_four_cycles")
    cliques = _counting(monkeypatch, census, "_four_cliques")
    graphs = 0
    for n in range(1, 6):
        for g in enumerate_all_graphs(n):
            walk_counts(g)
            graphs += 1
    assert graphs == 33_866
    assert (len(derived), len(cycles), len(cliques)) == (1_099, 1_099, 0)
