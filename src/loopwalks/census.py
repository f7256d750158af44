"""Counts of the elementary substructures the walk formulas consume.

Everything here is exact integer counting over the proper-edge skeleton:
degree statistics, edges on the loop-set boundary, triangles partitioned by
how many of their vertices carry loops, 4-cycles, and 4-cliques.  A 4-cycle
whose vertex set induces a full 4-clique is booked under the clique count
only; a 4-cycle on a 4-set inducing five edges (a diamond) still counts as
a 4-cycle.  Total 4-cycles therefore decompose as c4_not_k4 + 3 * k4_count.

Each quantity has one function, and the counts split as the graph does,
into its skeleton (the proper edges on ``order`` vertices) and its loop set
S.  ``zagreb1`` (the sum of squared degrees), ``four_cycle_total`` and
``four_clique_count`` read the skeleton alone, so each is taken once per
skeleton and kept in the counts dict of the skeleton's memo entry in
``graph_core``, keyed by ``(order, edges)``: the loop variants of one edge
set share them.  ``loop_degree_sum`` and ``boundary_edges`` (the sums of
degrees and of n1 over S) and ``triangle_census`` read the loop set too and
are taken per graph.  ``walks.walk_counts`` reads only these totals and
the 4-cycle total; only ``subgraph_census``, what the ``census`` report
prints, lists 4-cliques and builds the per-vertex loop-boundary counts.

Adjacency is read only through the graph's neighbor bitmasks, loop mask and
degrees.  The loop-boundary counts of a vertex are popcounts of its
neighborhood with and without the loop mask.  Triangles are popcounts of
common neighbors along each edge.  4-cycles are counted by codegrees, not
by scanning 4-sets: the sum over vertex pairs of C(|N(u) & N(v)|, 2) counts
each 4-cycle twice, and the 4-cliques are one popcount per triangle.  The
4-cycle total costs O(n^2) mask popcounts over the vertices of degree >= 2,
the triangles one popcount per edge, and the 4-cliques one per triangle;
edgeless graphs cost O(n).  ``subgraph_census`` and ``walk_counts`` refuse
orders above 640, as the eigensolver does, before any part runs.
``SubgraphCensus.as_dict``, what ``census`` prints, is its fields by name.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Callable

from .errors import SizeLimitExceeded
from .graph_core import SelfLoopGraph, _skeleton

# the census of K_n with every third vertex looped took 0.3/2.7/7.4/21 s
# at n = 160/320/480/640 (CHANGES.md), nearly all of it listing 4-cliques,
# about what the solver takes at 640
_MAX_CENSUS_ORDER = 640


@dataclass(frozen=True)
class SubgraphCensus:
    """The substructure counts of one graph: totals, except the per-vertex
    loop-boundary counts n1 and n2."""

    zagreb1: int
    degree_sum_S: int
    n1_per_vertex: tuple[int, ...]
    n2_per_vertex: tuple[int, ...]
    n1_sum_S: int
    triangles_total: int
    tri_loops: tuple[int, int, int]
    c4_not_k4: int
    k4_count: int

    def as_dict(self) -> dict:
        return asdict(self)


def _require_census_order(order: int) -> None:
    if order > _MAX_CENSUS_ORDER:
        raise SizeLimitExceeded(
            f"the census is guarded to order <= {_MAX_CENSUS_ORDER}; "
            f"got order {order}")


def _per_skeleton(graph: SelfLoopGraph, count: Callable[[SelfLoopGraph], int]) -> int:
    """``count(graph)`` for a count that reads the skeleton alone, taken once
    per skeleton and kept in its memo entry."""
    counts = _skeleton(graph)[4]
    value = counts.get(count)
    if value is None:
        value = counts[count] = count(graph)
    return value


def zagreb1(graph: SelfLoopGraph) -> int:
    """The first Zagreb index: the sum of squared degrees."""
    return _per_skeleton(graph, _zagreb1)


def _zagreb1(graph: SelfLoopGraph) -> int:
    return sum(d * d for d in graph.degrees)


def loop_degree_sum(graph: SelfLoopGraph) -> int:
    """The sum of the degrees of the looped vertices."""
    degrees = graph.degrees
    return sum(degrees[v] for v in graph.loops)


def boundary_edges(graph: SelfLoopGraph) -> int:
    """The edges from a looped to an unlooped vertex: the sum of n1 over the
    looped vertices."""
    masks = graph.neighbor_masks
    unlooped = ~graph.loop_mask
    return sum((masks[v] & unlooped).bit_count() for v in graph.loops)


def loop_boundary(graph: SelfLoopGraph) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Per-vertex counts of neighbors across the loop-set boundary.

    For a looped vertex, n1 counts its unlooped neighbors and n2 its looped
    neighbors (so n1 + n2 is its degree).  For an unlooped vertex, n1 counts
    its looped neighbors and n2 is zero.  Returns (n1, n2, sum of n1 over
    looped vertices).
    """
    loop_mask = graph.loop_mask
    n1: list[int] = []
    n2: list[int] = []
    for v, mask in enumerate(graph.neighbor_masks):
        looped = (mask & loop_mask).bit_count()
        if loop_mask >> v & 1:
            n1.append(mask.bit_count() - looped)
            n2.append(looped)
        else:
            n1.append(looped)
            n2.append(0)
    return tuple(n1), tuple(n2), boundary_edges(graph)


def triangle_census(graph: SelfLoopGraph) -> tuple[int, int, int, int]:
    """(total triangles, and those with exactly 1, 2, 3 looped vertices).

    Each triangle u < v < w is found once, from its edge (u, v), among the
    common neighbors above v; the looped ones among them have one more
    looped vertex than the edge itself.
    """
    by_loops = [0, 0, 0, 0]
    masks = graph.neighbor_masks
    loop_mask = graph.loop_mask
    for u, v in graph.edges:
        common = masks[u] & masks[v] & (-1 << (v + 1))
        if common:
            r = (loop_mask >> u & 1) + (loop_mask >> v & 1)
            looped = (common & loop_mask).bit_count()
            by_loops[r + 1] += looped
            by_loops[r] += common.bit_count() - looped
    return sum(by_loops), by_loops[1], by_loops[2], by_loops[3]


def four_cycle_total(graph: SelfLoopGraph) -> int:
    """Every 4-cycle, 4-clique cycles included.

    A 4-cycle is a pair of opposite vertices with two of their common
    neighbors, so the sum over vertex pairs of C(codegree, 2) counts every
    4-cycle twice, once per diagonal.
    """
    return _per_skeleton(graph, _four_cycles)


def _four_cycles(graph: SelfLoopGraph) -> int:
    masks = graph.neighbor_masks
    # Both ends of a codegree >= 2 have degree >= 2; skipping the other
    # vertices makes an edgeless graph cost O(n).
    hubs = [mask for mask in masks if mask & (mask - 1)]
    pairs = 0
    for v_mask, u_mask in combinations(hubs, 2):
        codegree = (v_mask & u_mask).bit_count()
        pairs += codegree * (codegree - 1) >> 1
    return pairs // 2


def four_clique_count(graph: SelfLoopGraph) -> int:
    """The 4-cliques v < w < x < y, counted from each edge (v, w) and each
    common neighbor x above w, as the common neighbors of all three above x.
    """
    return _per_skeleton(graph, _four_cliques)


def _four_cliques(graph: SelfLoopGraph) -> int:
    masks = graph.neighbor_masks
    k4 = 0
    for v, w in graph.edges:
        above_w = masks[v] & masks[w] & (-1 << (w + 1))
        while above_w:
            low = above_w & -above_w
            above_w ^= low
            k4 += (above_w & masks[low.bit_length() - 1]).bit_count()
    return k4


def four_cycle_census(graph: SelfLoopGraph) -> tuple[int, int]:
    """(4-cycles whose vertex set does not induce a 4-clique, 4-cliques).
    Each 4-clique holds three 4-cycles."""
    k4 = four_clique_count(graph)
    return four_cycle_total(graph) - 3 * k4, k4


def subgraph_census(graph: SelfLoopGraph) -> SubgraphCensus:
    """Every count the ``census`` report prints.

    Refuses orders above _MAX_CENSUS_ORDER before any part runs.
    """
    _require_census_order(graph.order)
    n1, n2, n1_sum_s = loop_boundary(graph)
    tri_total, t1, t2, t3 = triangle_census(graph)
    c4, k4 = four_cycle_census(graph)
    return SubgraphCensus(
        zagreb1=zagreb1(graph),
        degree_sum_S=loop_degree_sum(graph),
        n1_per_vertex=n1,
        n2_per_vertex=n2,
        n1_sum_S=n1_sum_s,
        triangles_total=tri_total,
        tri_loops=(t1, t2, t3),
        c4_not_k4=c4,
        k4_count=k4,
    )
