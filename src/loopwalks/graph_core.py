"""Self-loop graph values and their basic derived quantities.

A graph here is a simple undirected graph together with a subset of vertices
carrying one loop each.  Loops are stored as a vertex subset, never as matrix
entries or edge pairs, so vertex degrees count proper edges only; the
adjacency matrix (with unit diagonal entries on looped vertices) is derived
on demand.

The one adjacency a graph derives is its neighbor bitmasks and loop mask,
each cached on first read.  Degrees are popcounts of the masks and the
connectivity search ORs them, so neither keeps a list of its own.  The
enumeration and trace routes in ``oracle`` read none of these: they build
their own structures from ``edges`` and ``loops``.

A graph is its skeleton, the proper edges on ``order`` vertices, plus the
loop set.  The masks and degrees depend on the skeleton alone, so they come
from a one-entry memo of the last skeleton derived, keyed by ``(order,
edges)``: the loop variants of one skeleton, such as the exhaustive
sweep's 2^n graphs per edge set, share one masks tuple and one degrees
tuple.  The order is part of the key because the edgeless graphs of every
order share the edge tuple ``()``.  A lookup tests the edge tuple's
identity first, then its equality.  The memo entry also holds a dict in
which ``census`` keeps the counts it takes from the skeleton alone.  Key
and values are stored as one tuple in one assignment, so no reader pairs
one skeleton's key with another's values.

The cached attributes are ``_lazy`` descriptors, not
``functools.cached_property``: on Python 3.11 that takes an RLock on every
first read (3.12 dropped the lock), and the exhaustive sweep reads most
attributes of each of its 33,866 graphs only once, so the lock was a large
share of filling them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import DuplicateEdge, IndexOutOfRange, SelfPairInEdgeList

# Dense symmetric 0/1 matrix; entry (i, i) is 1 exactly for looped vertices.
AdjacencyMatrix = tuple[tuple[int, ...], ...]


# (order, edges, neighbor masks, degrees, census counts) of the last
# skeleton derived; order 0 has no vertices, so the first entry is right too.
_last_skeleton = (0, (), (), (), {})


def _skeleton(graph: SelfLoopGraph) -> tuple:
    """The memo entry of the graph's skeleton, derived on a miss."""
    last = _last_skeleton
    edges = last[1]
    if last[0] == graph.order and (edges is graph.edges or edges == graph.edges):
        return last
    return _derive_skeleton(graph)


def _derive_skeleton(graph: SelfLoopGraph) -> tuple:
    """The neighbor bitmasks and degrees of the graph's skeleton, stored as
    the memo's one entry with an empty dict for the census counts."""
    global _last_skeleton
    masks = [0] * graph.order
    for u, v in graph.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    masks = tuple(masks)
    entry = _last_skeleton = (graph.order, graph.edges, masks,
                              tuple(map(int.bit_count, masks)), {})
    return entry


class _lazy:
    """A lazily computed attribute: the first read of an instance stores the
    value in its ``__dict__`` under the same name, where later reads find it
    before this non-data descriptor.  It takes no lock; graphs are immutable
    values, so a race can only compute an equal value twice."""

    def __init__(self, func: Callable):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class SelfLoopGraph:
    """Immutable graph with loops attached at a vertex subset.

    Vertices are the dense integers 0..order-1.  ``edges`` holds proper
    edges as sorted (u, v) pairs with u < v; ``loops`` is the sorted tuple
    of looped vertices.  The degree of a vertex counts proper edges only.
    """

    order: int
    edges: tuple[tuple[int, int], ...]
    loops: tuple[int, ...]

    def __hash__(self) -> int:
        return self._hash

    @_lazy
    def _hash(self) -> int:
        """The dataclass hash of the fields, computed once: the memos of
        the last graph hash it on every hit."""
        return hash((self.order, self.edges, self.loops))

    @property
    def size(self) -> int:
        """Number of proper edges (loops excluded)."""
        return len(self.edges)

    @property
    def sigma(self) -> int:
        """Number of looped vertices."""
        return len(self.loops)

    @_lazy
    def neighbor_masks(self) -> tuple[int, ...]:
        """Neighborhoods as bitmasks, bit v set iff v is adjacent: the one
        adjacency the graph derives, shared by its skeleton's memo entry."""
        return _skeleton(self)[2]

    @_lazy
    def loop_mask(self) -> int:
        mask = 0
        for v in self.loops:
            mask |= 1 << v
        return mask

    @_lazy
    def degrees(self) -> tuple[int, ...]:
        """Popcounts of the neighbor masks, shared like them."""
        return _skeleton(self)[3]

    @_lazy
    def connected(self) -> bool:
        """Breadth-first reachability over proper edges; loops never matter.
        Each round ORs the masks of the frontier's vertices."""
        masks = self.neighbor_masks
        seen = frontier = 1
        while frontier:
            reached = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reached |= masks[low.bit_length() - 1]
            frontier = reached & ~seen
            seen |= frontier
        return seen == (1 << self.order) - 1


def build(order: int,
          edge_list: Iterable[Sequence[int]],
          loop_list: Iterable[int] = ()) -> SelfLoopGraph:
    """Validate and canonicalize a graph description.

    Edge pairs may come in either orientation; they are normalized to
    (min, max).  Rejects out-of-range indices, pairs {v, v} in the edge
    list, and duplicate edges or loops.
    """
    if order < 1:
        raise IndexOutOfRange(f"order must be a positive integer, got {order}")

    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for pair in edge_list:
        u, v = pair
        if not (0 <= u < order and 0 <= v < order):
            raise IndexOutOfRange(f"edge ({u}, {v}) out of range for order {order}")
        if u == v:
            raise SelfPairInEdgeList(
                f"pair ({u}, {v}) in the edge list; put loops in the loop list")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise DuplicateEdge(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))

    loop_seen: set[int] = set()
    loops: list[int] = []
    for v in loop_list:
        if not 0 <= v < order:
            raise IndexOutOfRange(f"loop at {v} out of range for order {order}")
        if v in loop_seen:
            raise DuplicateEdge(f"duplicate loop at {v}")
        loop_seen.add(v)
        loops.append(v)

    return SelfLoopGraph(order=order, edges=tuple(sorted(edges)),
                         loops=tuple(sorted(loops)))


def adjacency(graph: SelfLoopGraph) -> AdjacencyMatrix:
    """Dense symmetric adjacency matrix; trace equals the loop count."""
    return tuple(tuple(row) for row in adjacency_rows(graph, 1))


def adjacency_rows(graph: SelfLoopGraph,
                   one: int | float) -> list[list[int | float]]:
    """The adjacency matrix as fresh mutable rows: ``one`` at each edge and
    loop, ``0 * one`` elsewhere.  The eigensolver fills float rows here
    instead of copying ``adjacency``'s int tuples."""
    n = graph.order
    rows = [[0 * one] * n for _ in range(n)]
    for u, v in graph.edges:
        rows[u][v] = rows[v][u] = one
    for v in graph.loops:
        rows[v][v] = one
    return rows


def is_connected(graph: SelfLoopGraph) -> bool:
    """Whether every vertex is reachable over proper edges; the search runs
    once per graph and is cached on it."""
    return graph.connected
