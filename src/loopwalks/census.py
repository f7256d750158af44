"""Counts of the elementary substructures the walk formulas consume.

Everything here is exact integer counting over the proper-edge skeleton:
degree statistics, edges on the loop-set boundary, triangles partitioned by
how many of their vertices carry loops, 4-cycles, and 4-cliques.  A 4-cycle
whose vertex set induces a full 4-clique is booked under the clique count
only; a 4-cycle on a 4-set inducing five edges (a diamond) still counts as
a 4-cycle.  Total 4-cycles therefore decompose as c4_not_k4 + 3 * k4_count.

Every count but the loop-boundary one is a total: the walk formulas read
no per-vertex triangle or 4-cycle counts, so none are kept.  Adjacency is
read only through the graph's neighbor bitmasks, loop mask and degrees.
The loop-boundary counts of a vertex are popcounts of its neighborhood
with and without the loop mask.  Triangles are popcounts of common
neighbors along each edge.  4-cycles are counted by codegrees, not by
scanning 4-sets: the sum over vertex pairs of C(|N(u) & N(v)|, 2) counts
each 4-cycle twice and each 4-clique six times, and the 4-cliques are one
popcount per triangle.  The cost is O(n^2) mask popcounts over the
vertices of degree >= 2 plus one popcount per edge and per triangle;
edgeless graphs cost O(n).  ``subgraph_census`` refuses orders above 640,
as the eigensolver does, before any part runs.  ``SubgraphCensus.as_dict``,
what ``census`` prints, is its fields by name.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations

from .errors import SizeLimitExceeded
from .graph_core import SelfLoopGraph

# the census of K_n with every third vertex looped took 0.24/1.8/7.5/19 s
# at n = 160/320/480/640 (CHANGES.md), about what the solver takes at 640
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
    n1_sum_s = sum(n1[v] for v in graph.loops)
    return tuple(n1), tuple(n2), n1_sum_s


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


def four_cycle_census(graph: SelfLoopGraph) -> tuple[int, int]:
    """(4-cycles whose vertex set does not induce a 4-clique, 4-cliques).

    A 4-cycle is a pair of opposite vertices with two of their common
    neighbors, so the sum over vertex pairs of C(codegree, 2) counts every
    4-cycle twice, once per diagonal, and each 4-clique holds three.  The
    4-cliques v < w < x < y are counted from each edge (v, w) and each
    common neighbor x above w, as the common neighbors of all three above x.
    """
    masks = graph.neighbor_masks
    # Both ends of a codegree >= 2 have degree >= 2; skipping the other
    # vertices makes an edgeless graph cost O(n).
    hubs = [masks[v] for v in range(graph.order) if masks[v] & (masks[v] - 1)]
    pairs = 0
    for v_mask, u_mask in combinations(hubs, 2):
        codegree = (v_mask & u_mask).bit_count()
        pairs += codegree * (codegree - 1) >> 1
    k4 = 0
    for v, w in graph.edges:
        above_w = masks[v] & masks[w] & (-1 << (w + 1))
        while above_w:
            low = above_w & -above_w
            above_w ^= low
            k4 += (above_w & masks[low.bit_length() - 1]).bit_count()
    return pairs // 2 - 3 * k4, k4


def subgraph_census(graph: SelfLoopGraph) -> SubgraphCensus:
    """Compute every count the closed-walk formulas need, in one pass.

    Refuses orders above _MAX_CENSUS_ORDER before any part runs.
    """
    if graph.order > _MAX_CENSUS_ORDER:
        raise SizeLimitExceeded(
            f"the census is guarded to order <= {_MAX_CENSUS_ORDER}; "
            f"got order {graph.order}")
    degrees = graph.degrees
    n1, n2, n1_sum_s = loop_boundary(graph)
    tri_total, t1, t2, t3 = triangle_census(graph)
    c4, k4 = four_cycle_census(graph)
    return SubgraphCensus(
        zagreb1=sum(d * d for d in degrees),
        degree_sum_S=sum(degrees[v] for v in graph.loops),
        n1_per_vertex=n1,
        n2_per_vertex=n2,
        n1_sum_S=n1_sum_s,
        triangles_total=tri_total,
        tri_loops=(t1, t2, t3),
        c4_not_k4=c4,
        k4_count=k4,
    )
