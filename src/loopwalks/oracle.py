"""Independent ground truth for closed-walk counts.

Two routes that share no logic with the census-based formulas: a naive
enumeration of walk sequences, and exact integer traces of adjacency-matrix
powers.  Both read only a graph's order, edge list and loop list, never
the adjacency the graph caches for the census.  The enumeration never
memoises a walk count, so that it cannot inherit a bug from the formula
path: from each start vertex it keeps the frontier as one ``bytes``
object, one byte (the last vertex) per walk prefix, extends it by a C-level
join over byte move lists, and counts the last vertices that step back to
the start.  There is no popcount or aggregation of prefixes; the time is
the number of walks, exponential in k, and the memory about one slice of
the last round.  Only the move lists of the last graph enumerated are
kept, so the calls for k = 1..4 on one graph build them once.

The traces work on bit rows of the adjacency matrix, built here from the
edge and loop lists (never from the census's neighbor masks), with the loop
bit on the diagonal.  Entries of A^2 are popcounts of row intersections, so
diagonals up to k = 4 cost O(n^2) popcounts; each further factor of A costs
one sparse step of O(n * (2m + sigma)) additions.  Above k = 4 both trace
routes read one ladder, ``_powers``, which builds A^1..A^h as dense integer
rows.  ``trace_power`` climbs it from scratch for each call; ``traces_upto``,
the sweep behind ``walks --kmax``, climbs it once to A^ceil(kmax/2) and
reads every trace up to kmax from it, so it takes ceil(kmax/2) - 2 sparse
steps in all instead of about kmax^2 / 4.  Both refuse, before building
anything, a power whose estimated work (``_require_trace_work``) passes a
budget of a few seconds; the check is a few integer products on the
order, size and loop count, so the exhaustive sweep barely pays for it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import ConstraintViolation, SizeLimitExceeded
from .graph_core import SelfLoopGraph

_MAX_ENUM_K = 8
_MAX_ENUM_ORDER = 12
# Prefixes the enumeration's last round expands per join, as a join holds
# an 88 B buffer view per prefix: K12 fully looped at k = 8 took 3.6 s and
# 360 MB joined whole, 1.7 s and 41 MB in slices (2-vCPU host).
_SLICE = 1 << 15
# The longest trace sweep `walks --kmax` runs.  ``traces_upto`` takes kmax/2
# sparse steps on integers that grow with k; with two loops on a 2-vCPU host
# it took 0.009/0.26/2.3 s on K10/K40/K100 at kmax 64 and 6.3 s on K100 at
# kmax 128, so doubling the cap would nearly triple the K100 sweep.
_MAX_TRACE_K = 64
# The work a trace route may take, in units of one sparse-step addition; see
# ``_require_trace_work``.  Units cost 0.05-0.11 us on a 2-vCPU host: K100
# (two loops) at k = 64 is 32.2M units and took 2.9 s, K200 at 64 248M and
# 17.9 s, the edgeless E640 at 64 102M and 9.9 s, P2000 at 16 272M and
# 22.9 s, K640 at 6 269M and 12.8 s, and K640 at 4 3.3M and 0.36 s.
_MAX_TRACE_WORK = 1 << 25


class WalkEnumeration(NamedTuple):
    """Closed k-walk counts found by explicit sequence enumeration.  A
    named tuple, not a frozen dataclass: the exhaustive sweep builds one
    per graph and k, and a frozen dataclass's ``__init__`` costs about
    1.7x as much (1.07 against 0.62 us per result)."""

    k: int
    per_vertex: tuple[int, ...]
    total: int


def enumerate_closed_walks(graph: SelfLoopGraph, k: int) -> WalkEnumeration:
    """Count all vertex sequences v0,...,vk with vk = v0 where each step
    follows a proper edge or, on a looped vertex, stays in place.

    Each walk prefix is one byte of a frontier, so vertex ids must fit in
    a byte.  Guarded to k <= 8 and order <= 12; the time is proportional to
    the number of walks, exponential in k, and the memory to the frontier
    before the last round plus one slice of it.
    """
    if k < 0:
        raise ConstraintViolation(f"walk length must be nonnegative, got {k}")
    if k > _MAX_ENUM_K or graph.order > _MAX_ENUM_ORDER:
        raise SizeLimitExceeded(
            f"enumeration guarded to k <= {_MAX_ENUM_K} and order <= {_MAX_ENUM_ORDER}; "
            f"got k={k}, order={graph.order}")

    n = graph.order
    if k == 0:
        return WalkEnumeration(k=0, per_vertex=(1,) * n, total=n)
    moves = _moves(graph)
    if k == 1:
        per_vertex = tuple(closers.count(v0) for v0, closers in enumerate(moves))
    else:
        # After j rounds the frontier holds the vertex v_(j+1) of every walk
        # prefix v0..v_(j+1), one byte per prefix, repeats included; the walk
        # closes from v_(k-1) when that vertex steps back to v0, that is, is
        # a byte of moves[v0], so deleting those bytes leaves the rest.
        # a list's __getitem__ is a builtin method, cheaper to call than a
        # tuple's slot wrapper
        step = list(moves).__getitem__
        join = b"".join
        counts = []
        for closers in moves:
            frontier = closers
            for _ in range(k - 3):
                frontier = join(map(step, frontier))
            if k == 2:
                counts.append(len(frontier) - len(frontier.translate(None, closers)))
                continue
            # the last round, the largest, is expanded a slice at a time
            parts = ((frontier,) if len(frontier) <= _SLICE else
                     (frontier[i:i + _SLICE] for i in range(0, len(frontier), _SLICE)))
            count = 0
            for part in parts:
                last = join(map(step, part))
                count += len(last) - len(last.translate(None, closers))
            counts.append(count)
        per_vertex = tuple(counts)
    return WalkEnumeration(k=k, per_vertex=per_vertex, total=sum(per_vertex))


@functools.lru_cache(maxsize=1)
def _moves(graph: SelfLoopGraph) -> tuple[bytes, ...]:
    """The move lists of the last graph enumerated, built in one pass over
    its edge and loop lists: ``moves[v]`` holds v's neighbors in increasing
    order, then v itself when it is looped, one byte each.  Steps are
    symmetric, so ``moves[v]`` also lists the vertices that step to v."""
    moves = [bytearray() for _ in range(graph.order)]
    for u, v in graph.edges:
        moves[u].append(v)
        moves[v].append(u)
    for v in graph.loops:
        moves[v].append(v)
    return tuple(map(bytes, moves))


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
    A^b costs one sparse step of n * (2m + sigma) additions.  Refuses k >= 2
    past the work budget before building the rows.
    """
    if k < 1:
        raise ConstraintViolation(f"power must be at least 1, got {k}")
    n = graph.order
    if k == 1:
        looped = [0] * n
        for v in graph.loops:
            looped[v] = 1
        return tuple(looped)
    _require_trace_work(graph, k)
    rows = _bit_rows(graph)
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
    powers = _powers(rows, k - k // 2)
    half, power = powers[k // 2 - 1], powers[-1]
    return tuple(sum(x * y for x, y in zip(h, p)) for h, p in zip(half, power))


def traces_upto(graph: SelfLoopGraph, kmax: int) -> tuple[int, ...]:
    """Exact traces of A^1..A^kmax in one pass (kmax >= 1).

    Keeps A^1..A^h with h = ceil(kmax / 2) from ``_powers`` and reads
    tr A^k = sum_ij (A^a)_ij (A^b)_ij with a = k // 2 and b = k - a, as
    ``matrix_power_diagonal`` does for one k, so the sweep takes h - 2
    sparse steps and kmax - 1 entrywise products of n^2 terms.
    """
    if kmax < 1:
        raise ConstraintViolation(f"kmax must be at least 1, got {kmax}")
    _require_trace_work(graph, kmax)
    powers = _powers(_bit_rows(graph), (kmax + 1) // 2)
    traces = [len(graph.loops)]
    for k in range(2, kmax + 1):
        a, b = powers[k // 2 - 1], powers[k - k // 2 - 1]
        traces.append(sum(x * y for p, q in zip(a, b) for x, y in zip(p, q)))
    return tuple(traces)


def _require_trace_work(graph: SelfLoopGraph, k: int) -> None:
    """Refuse a power or sweep up to A^k whose work passes _MAX_TRACE_WORK,
    before anything is built.  Both routes make s = ceil(k/2) - 2 sparse
    steps (none for k <= 4).  A^2 and each step fill n^2 entries, each
    costing about 8 additions, and a step adds n * (2m + sigma) terms, so
    the work is n * (8n + s * (8n + 2m + sigma)) units."""
    n = graph.order
    work = 8 * n * n
    if k > 4:
        work += n * ((k + 1) // 2 - 2) * (8 * n + 2 * len(graph.edges) + len(graph.loops))
    if work > _MAX_TRACE_WORK:
        raise SizeLimitExceeded(
            f"the trace route is guarded to {_MAX_TRACE_WORK} units of work; "
            f"got {work} for order {n}, {len(graph.edges)} edges, "
            f"{len(graph.loops)} loops and k={k}")


def _bit_rows(graph: SelfLoopGraph) -> list[int]:
    """Row i of A as a bitmask: i's neighbors, and i itself when looped."""
    rows = [0] * graph.order
    for u, v in graph.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    for v in graph.loops:
        rows[v] |= 1 << v
    return rows


def _powers(rows: list[int], h: int) -> list[list[list[int]]]:
    """A^1..A^h (h >= 1) as dense integer rows, from the bit rows of A.
    (A^2)_ij = popcount(row_i & row_j), and each power above it is one
    sparse step of n * (2m + sigma) additions: (P A)_ij is the sum of P_il
    over l in the support of row j."""
    n = len(rows)
    powers = [[[row >> j & 1 for j in range(n)] for row in rows]]
    if h >= 2:
        powers.append([[(row & other).bit_count() for other in rows]
                       for row in rows])
    supports = [[j for j in range(n) if row >> j & 1] for row in rows] if h >= 3 else ()
    for _ in range(3, h + 1):
        powers.append([[sum(map(line.__getitem__, support)) for support in supports]
                       for line in powers[-1]])
    return powers
