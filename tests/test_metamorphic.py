"""Metamorphic relations of the formula and spectral routes, and the
skeleton memo under them.

A graph G_S is a skeleton G, its proper edges on ``order`` vertices, with
loops at S.  The formula route takes the skeleton's counts once per
skeleton (``graph_core._skeleton``) and the loop set's per graph, so these
tests check relations between graphs that share a skeleton, that a memo
entry is never read for another skeleton, and how often the skeleton work
runs.  Relabeling and the disjoint union relate graphs with different
skeletons and equal or summed counts, at orders the enumeration and trace
oracles do not reach; their graphs are taken in turn, so a memo entry read
for the wrong skeleton would show as a wrong count.  Seeds are fixed.
"""

import random
from dataclasses import replace
from itertools import combinations
from math import comb

from loopwalks import (SelfLoopGraph, build, census, enumerate_all_graphs,
                       graph_core, moment_report, subgraph_census, walk_counts,
                       walks)
from loopwalks.oracle import traces_upto

# relative tolerance of a twisted moment or the energy against its image
_MOMENT_TOL = 1e-12
# the bound rows' own slack tolerance
_SLACK_TOL = 1e-9


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


def _random_graph(rng, n, p, loop_count):
    return replace(_random_skeleton(rng, n, p),
                   loops=tuple(sorted(rng.sample(range(n), loop_count))))


def _census_totals(graph):
    fields = subgraph_census(graph).as_dict()
    n1, n2 = fields.pop("n1_per_vertex"), fields.pop("n2_per_vertex")
    return fields, n1, n2


def _close(a, b):
    return abs(a - b) <= _MOMENT_TOL * max(1.0, abs(a), abs(b))


def _assert_rows_agree(rows, image_rows, graph):
    assert [row["name"] for row in rows] == [row["name"] for row in image_rows]
    for row, image_row in zip(rows, image_rows):
        scale = max(1.0, abs(row["lhs"]), abs(row["rhs"]))
        assert abs(row["slack"] - image_row["slack"]) <= _SLACK_TOL * scale
        # a row within tolerance of equality may hold on one side only
        if abs(row["slack"]) > _SLACK_TOL * scale:
            assert row["holds"] == image_row["holds"], (graph, row["name"])


def _moments(report):
    moments = report["moments"]
    return {**moments["twisted"], "energy": moments["energy"]}


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


def test_looping_every_vertex_keeps_the_spectral_layer():
    # A + I moves every eigenvalue and the center sigma/n by 1, so the
    # twisted moments, the energy and the bound rows of G_V are those of
    # G_0; the exact traces shift as the walk counts do, to k = 64
    rng = random.Random(8103)
    _clear_memos()
    rows = 0
    for _ in range(8):
        n = rng.randint(6, 30)
        bare = _random_skeleton(rng, n, rng.choice((0.2, 0.5, 0.9)))
        looped = replace(bare, loops=tuple(range(n)))
        report, shifted = moment_report(bare), moment_report(looped)
        moments, shifted_moments = _moments(report), _moments(shifted)
        assert all(_close(moments[q], shifted_moments[q]) for q in moments), bare
        _assert_rows_agree(report["bounds"], shifted["bounds"], bare)
        rows += len(report["bounds"])
        t = (n, *traces_upto(bare, 64))
        assert traces_upto(looped, 64) == tuple(
            sum(comb(k, i) * t[i] for i in range(k + 1)) for k in range(1, 65))
    assert rows > 0


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


def test_relabeling_keeps_counts_and_permutes_the_boundary_counts():
    # G and pi(G) are one graph under two labelings: walk counts and census
    # totals are equal, n1 and n2 move with the vertices, and the moments
    # and bound rows agree within tolerance
    rng = random.Random(8101)
    _clear_memos()
    relabeled_skeletons = 0
    for _ in range(12):
        n = rng.randint(6, 80)
        g = _random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.9)),
                          rng.randint(0, n))
        pi = list(range(n))
        rng.shuffle(pi)
        image = build(n, [(pi[u], pi[v]) for u, v in g.edges],
                      [pi[v] for v in g.loops])
        relabeled_skeletons += image.edges != g.edges
        assert walk_counts(image) == walk_counts(g)
        totals, n1, n2 = _census_totals(g)
        image_totals, image_n1, image_n2 = _census_totals(image)
        assert image_totals == totals
        assert [image_n1[pi[v]] for v in range(n)] == list(n1)
        assert [image_n2[pi[v]] for v in range(n)] == list(n2)
        report, image_report = moment_report(g), moment_report(image)
        moments, image_moments = _moments(report), _moments(image_report)
        assert moments.keys() == image_moments.keys()
        assert all(_close(moments[q], image_moments[q]) for q in moments), g
        _assert_rows_agree(report["bounds"], image_report["bounds"], g)
    assert relabeled_skeletons == 12


def test_disjoint_union_adds_counts_and_moments():
    # at equal sigma/n the union keeps the center, so its walk counts,
    # census totals and twisted moments are the sums of its parts'; the
    # union is disconnected, so moment_report gives no bound rows
    rng = random.Random(8102)
    _clear_memos()
    for _ in range(10):
        den = rng.choice((2, 3, 4, 5))
        num = rng.randint(0, den)
        parts = []
        for _ in range(2):
            r = rng.randint(2, 60 // den)
            parts.append(_random_graph(rng, den * r, rng.choice((0.2, 0.5, 0.8)),
                                       num * r))
        a, b = parts
        union = build(a.order + b.order,
                      [*a.edges, *((u + a.order, v + a.order) for u, v in b.edges)],
                      [*a.loops, *(v + a.order for v in b.loops)])
        assert union.sigma * a.order == a.sigma * union.order
        wa, wb, wu = (vars(walk_counts(g)) for g in (a, b, union))
        assert wu == {k: wa[k] + wb[k] for k in wa}
        (ta, n1a, n2a), (tb, n1b, n2b), (tu, n1u, n2u) = map(_census_totals, parts + [union])
        assert tu == {k: (tuple(map(sum, zip(ta[k], tb[k]))) if isinstance(ta[k], tuple)
                          else ta[k] + tb[k]) for k in ta}
        assert (n1u, n2u) == (n1a + n1b, n2a + n2b)
        ma, mb = _moments(moment_report(a)), _moments(moment_report(b))
        union_report = moment_report(union)
        mu = _moments(union_report)
        assert all(_close(mu[q], ma[q] + mb[q]) for q in mu), (a, b)
        assert union_report["bounds"] == []
