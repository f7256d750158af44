"""Exact closed-walk counters and per-family closed forms.

``walk_counts`` is the one formula route.  It expresses the number of
closed 1..4-walks of G_S, the skeleton G with loops at S, through totals
alone: sigma = |S|, the edge count m, the Zagreb sum of squared degrees,
the sums over S of the degrees and of the boundary counts n1, the
triangles by how many looped vertices they hold, and the 4-cycle total.
The skeleton's terms (the Zagreb sum and the 4-cycles) are memoised per
skeleton in ``census``; the terms of S are taken per graph.  The formula
reads no per-vertex count and lists no 4-clique.  It calls each census
part through the ``census`` module, so a wrapper put there sees every
call, and it is evaluated once per graph through a private memo of the
last graph asked for.  The per-family closed forms are pure arithmetic on
a family description and never touch a graph, so the two routes
cross-check each other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import groupby

from . import census
from .errors import InvalidLoopPlacement, UnsupportedFamily
from .families import FamilySpec
from .graph_core import SelfLoopGraph


@dataclass(frozen=True)
class WalkCounts:
    """Closed walk totals for lengths 1 through 4."""

    w1: int
    w2: int
    w3: int
    w4: int


def walk_counts(graph: SelfLoopGraph) -> WalkCounts:
    """Closed 1..4-walk totals from degree statistics and census totals.

    Refuses orders above the census guard before any census part runs."""
    return _formula(graph)


@functools.lru_cache(maxsize=1)
def _formula(graph: SelfLoopGraph) -> WalkCounts:
    """The walk counts of the last graph asked for, evaluated once."""
    census._require_census_order(graph.order)
    sigma = graph.sigma
    m = graph.size
    degree_sum_s = census.loop_degree_sum(graph)
    triangles, t1, t2, t3 = census.triangle_census(graph)
    return WalkCounts(
        w1=sigma,
        w2=2 * m + sigma,
        w3=3 * degree_sum_s + 6 * triangles + sigma,
        w4=(sigma
            + 2 * (census.zagreb1(graph) - m)
            + 6 * degree_sum_s
            - 2 * census.boundary_edges(graph)
            + 8 * (t1 + 2 * t2 + 3 * t3 + census.four_cycle_total(graph))))


# -- per-family closed forms ------------------------------------------


def closed_form_w3(spec: FamilySpec) -> int:
    """Closed 3-walk count of a family, by arithmetic on the description alone."""
    family = spec.family
    sigma = spec.sigma
    if family == "complete":
        n = spec.n
        return sigma * (3 * n - 2) + n * (n - 1) * (n - 2)
    if family == "complete_bipartite":
        sigma_a, sigma_b = spec.part_loop_counts()
        return 3 * (spec.b * sigma_a + spec.a * sigma_b) + sigma
    if family in ("kneser", "petersen"):
        k = spec.k if family == "kneser" else 2
        return sigma * (3 * k + 4)
    if family == "cycle":
        return 7 * sigma + 6 if spec.n == 3 else 7 * sigma
    if family == "wheel":
        if spec.n < 5:
            raise UnsupportedFamily(
                "wheel closed form needs n >= 5; the order-4 wheel is a "
                "4-clique with four triangles, not n - 1")
        if spec.center_looped:
            return 10 * sigma + 9 * (spec.n - 2)
        return 10 * sigma + 6 * (spec.n - 1)
    raise UnsupportedFamily(f"no closed 3-walk form for family {family!r}")


def closed_form_w4(spec: FamilySpec) -> int:
    """Closed 4-walk count of a family, by arithmetic on the description alone.

    K_n with sigma loops, placed anywhere by symmetry:
    w4 = n(n-1)(2n-3) + n(n-1)(n-2)(n-3) + sigma(4n^2 - 8n + 3 + 2 sigma),
    the loop-set split with d_v = n - 1, T(v) = C(n-1, 2), c4 = 3 C(n, 4)
    and e(S) = C(sigma, 2).
    """
    family = spec.family
    if family == "complete":
        n = spec.n
        sigma = spec.sigma
        return (n * (n - 1) * (2 * n - 3) + n * (n - 1) * (n - 2) * (n - 3)
                + sigma * (4 * n * n - 8 * n + 3 + 2 * sigma))
    if family == "complete_bipartite":
        sigma_a, sigma_b = spec.part_loop_counts()
        return (sigma_a * (4 * spec.b + 1) + sigma_b * (4 * spec.a + 1)
                + 4 * sigma_a * sigma_b + 2 * spec.a ** 2 * spec.b ** 2)
    if family == "star":
        center_loops, leaf_loops = spec.part_loop_counts()
        n = spec.n
        if center_loops == 0:
            return 2 * (n - 1) ** 2 + 5 * leaf_loops
        return 2 * (n - 1) ** 2 + 9 * leaf_loops + 4 * n - 3
    if family == "path":
        return _path_w4(spec)
    if family == "cycle":
        return _cycle_w4(spec)
    raise UnsupportedFamily(f"no closed 4-walk form for family {family!r}")


def _path_w4(spec: FamilySpec) -> int:
    n = spec.n
    if n < 2:
        raise UnsupportedFamily("path closed form needs n >= 2")
    sigma = spec.sigma
    flags = _loop_flags(n, spec.loops)
    sigma_e = int(flags[0]) + int(flags[-1])
    sigma_ne = sigma - sigma_e
    runs, isolated = _loop_blocks(flags, cyclic=False)
    if sigma_e == 0 and runs > 0:
        return 2 * (3 * n - 5) + 13 * sigma - 4 * (runs + isolated)
    if runs == 0:
        return 2 * (3 * n - 5) + sigma + 4 * (2 * sigma_ne + sigma_e)
    raise InvalidLoopPlacement(
        "no closed form when a looped endpoint meets adjacent loops; "
        "use the general counter")


def _cycle_w4(spec: FamilySpec) -> int:
    n = spec.n
    sigma = spec.sigma
    flags = _loop_flags(n, spec.loops)
    runs, isolated = _loop_blocks(flags, cyclic=True)
    # A block covering the whole cycle has no unlooped ends, so it drops
    # out of the boundary correction entirely.
    boundary_runs = 0 if sigma == n else runs
    correction = 4 * (boundary_runs + isolated)
    if n == 3:
        return 18 + 21 * sigma - correction
    if n == 4:
        return 32 + 13 * sigma - correction
    return 6 * n + 13 * sigma - correction


def _loop_flags(n: int, loops: tuple[int, ...]) -> list[bool]:
    flags = [False] * n
    for v in loops:
        flags[v] = True
    return flags


def _loop_blocks(flags: list[bool], cyclic: bool) -> tuple[int, int]:
    """(maximal blocks of >= 2 consecutive loops, isolated loops).  A cyclic
    sequence is read from an unlooped vertex, so no run wraps around."""
    if cyclic:
        if all(flags):
            return (1, 0) if flags else (0, 0)
        pivot = flags.index(False)
        flags = flags[pivot:] + flags[:pivot]
    lengths = [sum(1 for _ in run) for looped, run in groupby(flags) if looped]
    isolated = lengths.count(1)
    return len(lengths) - isolated, isolated
