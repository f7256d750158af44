"""Graph sources: the named families with parameterized loop placement, the
exhaustive small-graph stream, and the seeded sampler of connected graphs.

Structured placements (part sizes, center/rim flags) are expanded to explicit
loop-vertex lists up front; generated graphs never remember
which family they came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import (InvalidLoopPlacement, InvalidSpec, SamplerExhausted,
                     SizeLimitExceeded)
from .graph_core import SelfLoopGraph, build, is_connected

FAMILIES = ("complete", "complete_bipartite", "cycle", "path", "wheel",
            "star", "kneser", "petersen")

_MAX_EXHAUSTIVE_ORDER = 5
# the census and the eigensolver refuse larger orders, so no subcommand
# reads a larger graph
_MAX_GENERATED_ORDER = 640
# a draw takes about 1.2 us: the budget gives up in 4-5 s (CHANGES.md) and
# fits 20 rejections in a row at order 640
_MAX_REJECTED_DRAWS = 1 << 22


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus an explicit loop placement.

    ``n`` is the order for complete/cycle/path/wheel/star; bipartite graphs
    use part sizes ``a`` and ``b`` (vertices 0..a-1 and a..a+b-1); Kneser
    graphs use the parameter ``k`` (vertices are the k-subsets of
    {1..2k+1} in lexicographic order, adjacent when disjoint).
    """

    family: str
    n: int = 0
    a: int = 0
    b: int = 0
    k: int = 0
    loops: tuple[int, ...] = ()

    # -- constructors -------------------------------------------------

    @classmethod
    def complete(cls, n: int, loops: Iterable[int] = ()) -> "FamilySpec":
        if n < 1:
            raise InvalidSpec(f"complete graph needs n >= 1, got {n}")
        return cls(family="complete", n=n, loops=_check_loops(loops, n))

    @classmethod
    def complete_bipartite(cls, a: int, b: int,
                           loops: Iterable[int] | None = None,
                           sigma_a: int = 0, sigma_b: int = 0) -> "FamilySpec":
        if a < 1 or b < 1:
            raise InvalidSpec(f"bipartite parts must be nonempty, got a={a}, b={b}")
        if loops is None:
            if not (0 <= sigma_a <= a and 0 <= sigma_b <= b):
                raise InvalidLoopPlacement(
                    f"need 0 <= sigma_a <= {a} and 0 <= sigma_b <= {b}, "
                    f"got {sigma_a}, {sigma_b}")
            loops = tuple(range(sigma_a)) + tuple(range(a, a + sigma_b))
        return cls(family="complete_bipartite", a=a, b=b,
                   loops=_check_loops(loops, a + b))

    @classmethod
    def cycle(cls, n: int, loops: Iterable[int] = ()) -> "FamilySpec":
        if n < 3:
            raise InvalidSpec(f"cycle needs n >= 3, got {n}")
        return cls(family="cycle", n=n, loops=_check_loops(loops, n))

    @classmethod
    def path(cls, n: int, loops: Iterable[int] = ()) -> "FamilySpec":
        if n < 1:
            raise InvalidSpec(f"path needs n >= 1, got {n}")
        return cls(family="path", n=n, loops=_check_loops(loops, n))

    @classmethod
    def wheel(cls, n: int, loops: Iterable[int] | None = None,
              center_looped: bool = False, rim_loops: int = 0) -> "FamilySpec":
        if n < 4:
            raise InvalidSpec(f"wheel needs n >= 4, got {n}")
        if loops is None:
            if not 0 <= rim_loops <= n - 1:
                raise InvalidLoopPlacement(
                    f"wheel of order {n} has {n - 1} rim vertices, "
                    f"got rim_loops={rim_loops}")
            loops = (0,) * center_looped + tuple(range(1, 1 + rim_loops))
        return cls(family="wheel", n=n, loops=_check_loops(loops, n))

    @classmethod
    def star(cls, n: int, loops: Iterable[int] | None = None,
             center_looped: bool = False, leaf_loops: int = 0) -> "FamilySpec":
        if n < 2:
            raise InvalidSpec(f"star needs n >= 2, got {n}")
        if loops is None:
            if not 0 <= leaf_loops <= n - 1:
                raise InvalidLoopPlacement(
                    f"star of order {n} has {n - 1} leaves, got leaf_loops={leaf_loops}")
            loops = (0,) * center_looped + tuple(range(1, 1 + leaf_loops))
        return cls(family="star", n=n, loops=_check_loops(loops, n))

    @classmethod
    def kneser(cls, k: int, loops: Iterable[int] = ()) -> "FamilySpec":
        if k < 2:
            raise InvalidSpec(f"Kneser parameter must satisfy k >= 2, got {k}")
        loops = tuple(loops)
        order = _kneser_order(k, max(loops, default=0))
        return cls(family="kneser", k=k, loops=_check_loops(loops, order))

    @classmethod
    def petersen(cls, loops: Iterable[int] = ()) -> "FamilySpec":
        return cls(family="petersen", loops=_check_loops(loops, 10))

    # -- derived placement views --------------------------------------

    @property
    def sigma(self) -> int:
        return len(self.loops)

    def part_loop_counts(self) -> tuple[int, int]:
        """(loops in part A, loops in part B) for bipartite and star specs."""
        if self.family == "complete_bipartite":
            split = self.a
        elif self.family == "star":
            split = 1
        else:
            raise InvalidSpec(f"{self.family} has no bipartition")
        in_a = sum(1 for v in self.loops if v < split)
        return in_a, len(self.loops) - in_a

    @property
    def center_looped(self) -> bool:
        """Whether the hub (vertex 0) of a wheel or star carries a loop."""
        if self.family not in ("wheel", "star"):
            raise InvalidSpec(f"{self.family} has no center vertex")
        return 0 in self.loops


def _kneser_order(k: int, cap: int) -> int:
    """C(2k + 1, k), the order of the Kneser graph K(2k + 1, k), or a number
    past ``cap`` once the order passes it.  C(2j + 1, j) grows about 4^j, so
    this takes O(log cap) steps for any k; ``math.comb`` takes 41 s at
    k = 10^6 on one 2.1 GHz Xeon core (Python 3.11)."""
    order = 3  # C(3, 1)
    for j in range(1, k):
        if order > cap:
            break
        order = order * (2 * j + 3) * (2 * j + 2) // ((j + 1) * (j + 2))
    return order


def _order(spec: FamilySpec, cap: int) -> int:
    """The order of the graph a spec describes, or a number past ``cap``
    once a Kneser order passes it."""
    if spec.family == "complete_bipartite":
        return spec.a + spec.b
    if spec.family == "kneser":
        return _kneser_order(spec.k, cap)
    if spec.family == "petersen":
        return 10
    return spec.n


def _check_loops(loops: Iterable[int], order: int) -> tuple[int, ...]:
    out = tuple(sorted(loops))
    for v in out:
        if not 0 <= v < order:
            raise InvalidSpec(f"loop vertex {v} out of range for order {order}")
    if len(set(out)) != len(out):
        raise InvalidSpec("duplicate loop vertex in family spec")
    return out


def generate(spec: FamilySpec) -> SelfLoopGraph:
    """Build the labeled graph a spec describes.

    Refuses orders above _MAX_GENERATED_ORDER before building any edge.
    """
    if _order(spec, _MAX_GENERATED_ORDER) > _MAX_GENERATED_ORDER:
        raise SizeLimitExceeded(
            f"generated graphs are guarded to order <= {_MAX_GENERATED_ORDER}, "
            f"the largest order the census and the eigensolver accept; this "
            f"{spec.family} spec asks for a larger one")
    family = spec.family
    if family == "complete":
        edges = list(combinations(range(spec.n), 2))
        return build(spec.n, edges, spec.loops)
    if family == "complete_bipartite":
        edges = [(u, v) for u in range(spec.a)
                 for v in range(spec.a, spec.a + spec.b)]
        return build(spec.a + spec.b, edges, spec.loops)
    if family == "cycle":
        edges = [(i, (i + 1) % spec.n) for i in range(spec.n)]
        return build(spec.n, edges, spec.loops)
    if family == "path":
        edges = [(i, i + 1) for i in range(spec.n - 1)]
        return build(spec.n, edges, spec.loops)
    if family == "wheel":
        rim = spec.n - 1
        edges = [(0, v) for v in range(1, spec.n)]
        edges += [(1 + i, 1 + (i + 1) % rim) for i in range(rim)]
        return build(spec.n, edges, spec.loops)
    if family == "star":
        edges = [(0, v) for v in range(1, spec.n)]
        return build(spec.n, edges, spec.loops)
    if family == "kneser":
        return _kneser(spec.k, spec.loops)
    if family == "petersen":
        return _kneser(2, spec.loops)
    raise InvalidSpec(f"unknown family {family!r}")


def _kneser(k: int, loops: tuple[int, ...]) -> SelfLoopGraph:
    subsets = [frozenset(c) for c in combinations(range(1, 2 * k + 2), k)]
    order = len(subsets)
    edges = [(i, j) for i, j in combinations(range(order), 2)
             if not subsets[i] & subsets[j]]
    return build(order, edges, loops)


def enumerate_all_graphs(n: int) -> Iterator[SelfLoopGraph]:
    """Every labeled graph on n vertices with every loop subset.

    Yields 2^C(n,2) * 2^n graphs in a fixed order (edge subsets in bitmask
    order over lexicographic pairs, loop subsets innermost).  Guarded to
    n <= 5.
    """
    if n < 1:
        raise InvalidSpec(f"order must be positive, got {n}")
    if n > _MAX_EXHAUSTIVE_ORDER:
        raise SizeLimitExceeded(
            f"exhaustive enumeration guarded to n <= {_MAX_EXHAUSTIVE_ORDER}, got {n}")
    pairs = list(combinations(range(n), 2))
    loop_subsets = [tuple(v for v in range(n) if (loop_bits >> v) & 1)
                    for loop_bits in range(1 << n)]
    for edge_bits in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if (edge_bits >> i) & 1)
        for loops in loop_subsets:
            yield SelfLoopGraph(order=n, edges=edges, loops=loops)


class SplitMix64:
    """Tiny 64-bit deterministic generator backing the verify sampler."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


def _require_order_range(n_lo: int, n_hi: int) -> None:
    if n_hi > _MAX_GENERATED_ORDER:
        raise SizeLimitExceeded(
            f"sampled orders are guarded to <= {_MAX_GENERATED_ORDER}, the "
            f"largest order the census and the eigensolver accept; got {n_hi}")
    if not 2 <= n_lo <= n_hi:
        raise InvalidSpec(f"sampled orders need 2 <= LO <= HI, got {n_lo},{n_hi}")


def _require_edge_prob(edge_prob: float) -> None:
    if not 0.0 < edge_prob <= 1.0:
        raise InvalidSpec(f"edge probability must lie in (0, 1], got {edge_prob}")


def _require_loop_prob(loop_prob: float) -> None:
    if not 0.0 <= loop_prob <= 1.0:
        raise InvalidSpec(f"loop probability must lie in [0, 1], got {loop_prob}")


def sample_connected_graphs(count: int, n_lo: int, n_hi: int,
                            edge_prob: float, loop_prob: float,
                            seed: int) -> list[SelfLoopGraph]:
    """Rejection-sample connected graphs with at least one edge, after
    refusing a bad order range or probability.  Gives up after 1000
    attempts per graph, or once the attempts rejected in a row have drawn
    more than _MAX_REJECTED_DRAWS numbers."""
    _require_order_range(n_lo, n_hi)
    _require_edge_prob(edge_prob)
    _require_loop_prob(loop_prob)
    rng = SplitMix64(seed)
    out: list[SelfLoopGraph] = []
    attempts = 0
    rejected_draws = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * max(count, 1) or rejected_draws > _MAX_REJECTED_DRAWS:
            raise SamplerExhausted("sampler keeps producing disconnected graphs; "
                                   "raise the edge probability")
        n = n_lo + rng.below(n_hi - n_lo + 1)
        edges = tuple(pair for pair in combinations(range(n), 2)
                      if rng.random() < edge_prob)
        loops = tuple(v for v in range(n) if rng.random() < loop_prob)
        graph = SelfLoopGraph(order=n, edges=edges, loops=loops)
        if graph.size >= 1 and is_connected(graph):
            out.append(graph)
            rejected_draws = 0
        else:
            rejected_draws += 1 + n * (n + 1) // 2
    return out
