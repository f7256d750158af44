"""Independent ground truth for closed-walk counts.

Two routes that share no logic with the census-based formulas: a naive
depth-first enumeration of walk sequences, and exact integer traces of
adjacency-matrix powers.  The enumeration is deliberately memoization-free
so that it cannot inherit a bug from the formula path.

The traces work on bit rows of the adjacency matrix, built here from the
edge and loop lists (never from the census's neighbor masks), with the loop
bit on the diagonal.  Entries of A^2 are popcounts of row intersections, so
diagonals up to k = 4 cost O(n^2) popcounts; each further factor of A costs
one sparse step of O(n * (2m + sigma)) additions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstraintViolation, SizeLimitExceeded
from .graph_core import SelfLoopGraph

_MAX_ENUM_K = 8
_MAX_ENUM_ORDER = 12


@dataclass(frozen=True)
class WalkEnumeration:
    """Closed k-walk counts found by explicit sequence enumeration."""

    k: int
    per_vertex: tuple[int, ...]
    total: int


def enumerate_closed_walks(graph: SelfLoopGraph, k: int) -> WalkEnumeration:
    """Count all vertex sequences v0,...,vk with vk = v0 where each step
    follows a proper edge or, on a looped vertex, stays in place.

    Guarded to k <= 8 and order <= 12; the cost is exponential in k.
    """
    if k < 0:
        raise ConstraintViolation(f"walk length must be nonnegative, got {k}")
    if k > _MAX_ENUM_K or graph.order > _MAX_ENUM_ORDER:
        raise SizeLimitExceeded(
            f"enumeration guarded to k <= {_MAX_ENUM_K} and order <= {_MAX_ENUM_ORDER}; "
            f"got k={k}, order={graph.order}")

    loop_set = graph.loop_set
    moves: list[tuple[int, ...]] = []
    for v in range(graph.order):
        step = list(graph.neighbors[v])
        if v in loop_set:
            step.append(v)
        moves.append(tuple(step))
    move_masks = [0] * graph.order
    for v, step in enumerate(moves):
        for w in step:
            move_masks[v] |= 1 << w

    per_vertex = tuple(_count_closed_from(moves, move_masks, v0, k)
                       for v0 in range(graph.order))
    return WalkEnumeration(k=k, per_vertex=per_vertex, total=sum(per_vertex))


def _count_closed_from(moves: list[tuple[int, ...]], move_masks: list[int],
                       v0: int, k: int) -> int:
    if k == 0:
        return 1
    count = 0
    bit = 1 << v0

    def descend(v: int, remaining: int) -> None:
        nonlocal count
        if remaining == 1:
            if move_masks[v] & bit:
                count += 1
            return
        nxt = remaining - 1
        for w in moves[v]:
            descend(w, nxt)

    descend(v0, k)
    return count


def trace_power(graph: SelfLoopGraph, k: int) -> int:
    """Exact integer trace of the k-th power of the adjacency matrix."""
    if k < 0:
        raise ConstraintViolation(f"power must be nonnegative, got {k}")
    if k == 0:
        return graph.order
    return sum(matrix_power_diagonal(graph, k))


def matrix_power_diagonal(graph: SelfLoopGraph, k: int) -> tuple[int, ...]:
    """Diagonal of the k-th adjacency power, as exact integers (k >= 1).

    Row i of A is the bitmask of i's neighbors plus its own loop bit, so
    (A^2)_ij = popcount(row_i & row_j).  A is symmetric, hence
    diag(A^k)_i = sum_j (A^a)_ij (A^b)_ij with a = k // 2 and b = k - a.
    k = 1 reads the loop bits, k = 2 is popcount(row_i), k = 3 takes
    2m + sigma popcounts and k = 4 takes n^2; each factor above A^2 in
    A^b costs one sparse step of n * (2m + sigma) additions.
    """
    if k < 1:
        raise ConstraintViolation(f"power must be at least 1, got {k}")
    n = graph.order
    if k == 1:
        looped = [0] * n
        for v in graph.loops:
            looped[v] = 1
        return tuple(looped)
    rows = [0] * n
    for u, v in graph.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    for v in graph.loops:
        rows[v] |= 1 << v
    if k == 2:
        return tuple(row.bit_count() for row in rows)
    if k == 3:
        # sum over j in row i of (A^2)_ij, gathered edge by edge
        diag = [0] * n
        for v in graph.loops:
            diag[v] = rows[v].bit_count()
        for u, v in graph.edges:
            common = (rows[u] & rows[v]).bit_count()
            diag[u] += common
            diag[v] += common
        return tuple(diag)
    if k == 4:
        return tuple(sum((row & other).bit_count() ** 2 for other in rows)
                     for row in rows)
    square = [[(row & other).bit_count() for other in rows] for row in rows]
    supports = [[j for j in range(n) if row >> j & 1] for row in rows]
    half = power = square
    for b in range(3, k - k // 2 + 1):
        # (A^b)_ij = sum over l in the support of row j of (A^(b-1))_il
        power = [[sum(line[l] for l in support) for support in supports]
                 for line in power]
        if b == k // 2:
            half = power
    return tuple(sum(x * y for x, y in zip(h, p)) for h, p in zip(half, power))
