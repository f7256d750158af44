"""Counts of the elementary substructures the walk formulas consume.

Everything here is exact integer counting over the proper-edge skeleton:
degree statistics, edges on the loop-set boundary, triangles partitioned by
how many of their vertices carry loops, 4-cycles, and 4-cliques.  A 4-cycle
whose vertex set induces a full 4-clique is booked under the clique count
only; a 4-cycle on a 4-set inducing five edges (a diamond) still counts as
a 4-cycle.  Total 4-cycles therefore decompose as c4_not_k4 + 3 * k4_count.

4-cycles are counted by codegrees, not by scanning 4-sets: the cycles
through v number sum over u != v of C(|N(u) & N(v)|, 2), which counts each
4-clique on v three times, so c4_at[v] = through[v] - 3 * k4_at[v] once the
4-cliques are listed by intersecting neighbor masks along each edge.  The
cost is O(n^2) mask popcounts over the vertices of degree >= 2 plus the
clique listing (O(m * d^2) for maximum degree d); edgeless graphs cost O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph_core import SelfLoopGraph


@dataclass(frozen=True)
class SubgraphCensus:
    """All substructure counts of one graph, per-vertex and aggregate."""

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
        return {
            "zagreb1": self.zagreb1,
            "degree_sum_S": self.degree_sum_S,
            "n1_per_vertex": list(self.n1_per_vertex),
            "n2_per_vertex": list(self.n2_per_vertex),
            "n1_sum_S": self.n1_sum_S,
            "triangles_total": self.triangles_total,
            "tri_loops": list(self.tri_loops),
            "c4_not_k4": self.c4_not_k4,
            "k4_count": self.k4_count,
        }


def first_zagreb(graph: SelfLoopGraph) -> int:
    """Sum of squared proper degrees."""
    return sum(d * d for d in graph.degrees)


def loop_boundary(graph: SelfLoopGraph) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Per-vertex counts of neighbors across the loop-set boundary.

    For a looped vertex, n1 counts its unlooped neighbors and n2 its looped
    neighbors (so n1 + n2 is its degree).  For an unlooped vertex, n1 counts
    its looped neighbors and n2 is zero.  Returns (n1, n2, sum of n1 over
    looped vertices).
    """
    loop_set = graph.loop_set
    n1 = [0] * graph.order
    n2 = [0] * graph.order
    for u, v in graph.edges:
        u_looped = u in loop_set
        v_looped = v in loop_set
        if u_looped and v_looped:
            n2[u] += 1
            n2[v] += 1
        elif u_looped or v_looped:
            n1[u] += 1
            n1[v] += 1
    n1_sum_s = sum(n1[v] for v in graph.loops)
    return tuple(n1), tuple(n2), n1_sum_s


def triangle_census(graph: SelfLoopGraph) -> tuple[int, int, int, int]:
    """(total triangles, and those with exactly 1, 2, 3 looped vertices)."""
    _, by_loops = _triangles(graph)
    return sum(by_loops), by_loops[1], by_loops[2], by_loops[3]


def triangle_census_per_vertex(graph: SelfLoopGraph) -> tuple[tuple[int, int, int, int], ...]:
    """Per vertex: triangles through it with 0, 1, 2, 3 looped vertices."""
    rows, _ = _triangles(graph)
    return tuple(tuple(rows[4 * v:4 * v + 4]) for v in range(graph.order))


def _triangles(graph: SelfLoopGraph) -> tuple[list[int], list[int]]:
    """Triangles by number of looped vertices: per-vertex rows, flattened
    (entry 4v + r counts those through v with r loops), and totals.

    Each triangle u < v < w is listed once, from its edge (u, v), as a
    common neighbor w above v.
    """
    rows = [0] * (4 * graph.order)
    by_loops = [0, 0, 0, 0]
    masks = graph.neighbor_masks
    loop_mask = graph.loop_mask
    for u, v in graph.edges:
        common = (masks[u] & masks[v]) >> (v + 1)
        if not common:
            continue
        looped_uv = (loop_mask >> u & 1) + (loop_mask >> v & 1)
        w = v + 1
        while common:
            if common & 1:
                r = looped_uv + (loop_mask >> w & 1)
                by_loops[r] += 1
                rows[4 * u + r] += 1
                rows[4 * v + r] += 1
                rows[4 * w + r] += 1
            common >>= 1
            w += 1
    return rows, by_loops


def four_cycle_census(graph: SelfLoopGraph) -> tuple[int, int]:
    """(4-cycles whose vertex set does not induce a 4-clique, 4-cliques)."""
    _, _, c4, k4 = _four_cycles(graph)
    return c4, k4


def four_cycle_census_per_vertex(graph: SelfLoopGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-vertex counts of non-clique 4-cycles and 4-cliques through it."""
    c4_at, k4_at, _, _ = _four_cycles(graph)
    return tuple(c4_at), tuple(k4_at)


def _four_cycles(graph: SelfLoopGraph) -> tuple[list[int], list[int], int, int]:
    """Per-vertex and total non-clique 4-cycles and 4-cliques, by codegrees.

    A 4-cycle through v pairs v with its opposite vertex u and two of their
    common neighbors, so through[v] = sum over u != v of C(codeg(u, v), 2)
    counts every 4-cycle through v, including the three of each 4-clique.
    4-cliques are listed by intersecting masks along each edge.
    """
    n = graph.order
    masks = graph.neighbor_masks
    # Both ends of a codegree >= 2 have degree >= 2; skipping the other
    # vertices makes an edgeless graph cost O(n).
    hubs = [v for v in range(n) if masks[v] & (masks[v] - 1)]
    through = [0] * n
    for v, u in combinations(hubs, 2):
        codegree = (masks[v] & masks[u]).bit_count()
        if codegree > 1:
            pairs = codegree * (codegree - 1) >> 1
            through[v] += pairs
            through[u] += pairs
    k4_at = [0] * n
    k4_total = 0
    for v, w in graph.edges:
        above_w = masks[v] & masks[w] & (-1 << (w + 1))
        while above_w:
            low = above_w & -above_w
            x = low.bit_length() - 1
            above_w ^= low
            above_x = above_w & masks[x]
            while above_x:
                low = above_x & -above_x
                y = low.bit_length() - 1
                above_x ^= low
                k4_total += 1
                k4_at[v] += 1
                k4_at[w] += 1
                k4_at[x] += 1
                k4_at[y] += 1
    c4_at = [t - 3 * k for t, k in zip(through, k4_at)]
    return c4_at, k4_at, sum(through) // 4 - 3 * k4_total, k4_total


def subgraph_census(graph: SelfLoopGraph) -> SubgraphCensus:
    """Compute every count the closed-walk formulas need, in one pass."""
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
