"""Expected outputs, computed independently of the loopwalks package.

The benchmark's seeds are chosen at run time, so expected values cannot be
stored per seed.  They are computed here instead, from the graph data alone,
with code that shares nothing with the package: bitset codegree counts for
the census and for exact traces of adjacency powers, and numpy's symmetric
eigensolver for the spectrum.  At the commit that introduced this benchmark
the package's outputs agree with these values on every seed tried.

Integers must match exactly.  Reals must match within the tolerances the
package's own tests state, scaled by max(1, |expected|): 1e-8 for spectral
values and 1e-7 for the twisted-moment closed forms, each widened by the
value's sensitivity to the eigensolver (see ``_spectral_expectation``).
Solver diagnostics (``residual``, ``sweeps``) and bound ``slack`` are not
compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

SPECTRAL_TOL = 1e-8
CLOSED_FORM_TOL = 1e-7
DEVIATION_SHIFT = 1e-12

# Defaults of the CLI the workloads call, as they stand at this commit.
MOMENT_QS = (0.0, 1.0, 2.0, 3.0, 4.0)
CS_EXPONENTS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
CHAIN_DEPTH = 8
RST_TRIPLES = ((1.0, 0.0, 2.0), (1.5, 2.0, 2.0), (2.0, 3.0, 3.0))


@dataclass(frozen=True)
class Graph:
    """Plain graph data: order, proper edges (u < v) and looped vertices."""

    order: int
    edges: tuple[tuple[int, int], ...]
    loops: tuple[int, ...]

    def neighbor_masks(self) -> list[int]:
        masks = [0] * self.order
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks


@dataclass(frozen=True)
class Approx:
    """A real expected value and the absolute distance allowed from it."""

    value: float
    tol: float

    def matches(self, actual) -> bool:
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return False
        return abs(actual - self.value) <= self.tol


def mismatches(actual, expected, path: str = "$") -> list[str]:
    """Every place where ``actual`` differs from ``expected``.

    Only the keys ``expected`` names are compared; extra keys in ``actual``
    are ignored.  Non-Approx leaves must be equal and of the same type, so
    ``True`` never matches ``1``.
    """
    if isinstance(expected, Approx):
        return [] if expected.matches(actual) else [f"{path}: {actual!r} vs {expected.value!r}"]
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        out: list[str] = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(mismatches(actual[key], value, f"{path}.{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out.extend(mismatches(a, e, f"{path}[{i}]"))
        return out
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} vs {expected!r}"]
    return []


# -- exact integer quantities ---------------------------------------------


def is_connected(graph: Graph) -> bool:
    masks = graph.neighbor_masks()
    reached = 1
    frontier = 1
    while frontier:
        grown = 0
        v = 0
        while frontier:
            if frontier & 1:
                grown |= masks[v]
            frontier >>= 1
            v += 1
        frontier = grown & ~reached
        reached |= grown
    return reached == (1 << graph.order) - 1


def closed_walk_traces(graph: Graph) -> tuple[int, int, int, int]:
    """tr A^k for k = 1..4, from codegrees of rows that carry loop bits.

    With (A^2)_ij = |row_i & row_j|: tr A^3 = sum over j in row_i of
    (A^2)_ij, and tr A^4 = sum of (A^2)_ij squared.
    """
    rows = graph.neighbor_masks()
    for v in graph.loops:
        rows[v] |= 1 << v
    t2 = t3 = t4 = 0
    for i, row_i in enumerate(rows):
        for j, row_j in enumerate(rows):
            c = (row_i & row_j).bit_count()
            t4 += c * c
            if (row_i >> j) & 1:
                t3 += c
            if i == j:
                t2 += c
    return len(graph.loops), t2, t3, t4


def census(graph: Graph) -> dict:
    """The census report fields, counted from bitmask codegrees.

    4-cycles: each one has two diagonals, so the total is half the sum of
    C(codeg(u, v), 2) over vertex pairs; a 4-clique holds three of them.
    """
    n = graph.order
    masks = graph.neighbor_masks()
    looped = set(graph.loops)
    degrees = [m.bit_count() for m in masks]
    n1 = [0] * n
    n2 = [0] * n
    for u, v in graph.edges:
        if u in looped and v in looped:
            n2[u] += 1
            n2[v] += 1
        elif u in looped or v in looped:
            n1[u] += 1
            n1[v] += 1
    tri = [0, 0, 0, 0]
    k4 = 0
    for u, v in graph.edges:
        common = masks[u] & masks[v] & -(1 << (v + 1))
        while common:
            w = (common & -common).bit_length() - 1
            common &= common - 1
            tri[(u in looped) + (v in looped) + (w in looped)] += 1
            k4 += (common & masks[w]).bit_count()
    paths = sum(math.comb((masks[u] & masks[v]).bit_count(), 2)
                for u, v in combinations(range(n), 2))
    return {
        "zagreb1": sum(d * d for d in degrees),
        "degree_sum_S": sum(degrees[v] for v in graph.loops),
        "n1_per_vertex": n1,
        "n2_per_vertex": n2,
        "n1_sum_S": sum(n1[v] for v in graph.loops),
        "triangles_total": sum(tri),
        "tri_loops": tri[1:],
        "c4_not_k4": paths // 2 - 3 * k4,
        "k4_count": k4,
    }


def summary(graph: Graph) -> dict:
    return {"n": graph.order, "m": len(graph.edges), "sigma": len(graph.loops),
            "connected": is_connected(graph)}


# -- spectral quantities ---------------------------------------------------


def eigenvalues(graph: Graph) -> list[float]:
    """Adjacency spectrum, non-increasing, from numpy's eigvalsh."""
    import numpy as np

    a = np.zeros((graph.order, graph.order))
    for u, v in graph.edges:
        a[u, v] = a[v, u] = 1.0
    for v in graph.loops:
        a[v, v] = 1.0
    return sorted((float(x) for x in np.linalg.eigvalsh(a)), reverse=True)


def _deviations(graph: Graph, lams: list[float]) -> list[float]:
    center = len(graph.loops) / graph.order
    return [abs(lam - center) for lam in lams]


def _moment(devs: list[float], q: float) -> float:
    return math.fsum(d ** q for d in devs)


def _energy_bounds(graph: Graph, devs: list[float], rst) -> list[tuple]:
    n = graph.order
    m = len(graph.edges)
    energy = math.fsum(devs)
    m2, m3, m4 = (_moment(devs, q) for q in (2, 3, 4))
    records = [
        ("energy_lb_moments", energy, math.sqrt(m2 ** 3 / m4)),
        ("energy_lb_edge_density", energy, 4.0 * m / n),
        ("m3_lb_edge_density", m3, 64.0 * m ** 3 / n ** 5),
        ("m4_lb_edge_density", m4, 256.0 * m ** 4 / n ** 7),
    ]
    for r, s, t in rst:
        mr, ms, mt = (_moment(devs, x) for x in (r, s, t))
        records.append((f"energy_lb_rst[r={r:g},s={s:g},t={t:g}]",
                        energy, mr * mr / math.sqrt(ms * mt)))
    return records


def _mcclelland(graph: Graph, devs: list[float]) -> tuple:
    n = graph.order
    sigma = len(graph.loops)
    rhs = math.sqrt(n * (2 * len(graph.edges) + sigma - sigma * sigma / n))
    return ("mcclelland", math.fsum(devs), rhs)


def _verify_records(graph: Graph, devs: list[float]) -> list[tuple]:
    records = [_mcclelland(graph, devs)]
    for p in CS_EXPONENTS:
        for q in CS_EXPONENTS:
            if p <= q:
                mq = _moment(devs, q)
                records.append((f"cauchy_schwarz[p={p:g},q={q:g}]", mq * mq,
                                _moment(devs, 2 * q - 2 * p) * _moment(devs, 2 * p)))
    moments = [_moment(devs, i) for i in range(CHAIN_DEPTH + 1)]
    for i, value in enumerate(moments):
        records.append((f"twisted_positive[q={i}]", value, 0.0))
    for i in range(1, CHAIN_DEPTH):
        records.append((f"ratio_chain[q={i}]", moments[i] / moments[i - 1],
                        moments[i + 1] / moments[i]))
    records.extend(_energy_bounds(graph, devs, RST_TRIPLES))
    return records


def _moment_values(graph: Graph, devs: list[float]) -> dict:
    twisted = {f"{q:g}": _moment(devs, q) for q in MOMENT_QS}
    bounds = []
    if is_connected(graph) and graph.edges:
        bounds = [_mcclelland(graph, devs), *_energy_bounds(graph, devs, ())]
    return {"twisted": twisted, "energy": math.fsum(devs), "bounds": bounds}


def _spectral_expectation(graph: Graph, lams: list[float], compute):
    """``compute(graph, deviations)`` at the reference spectrum ``lams``,
    with every real turned into an Approx.

    The tolerance is SPECTRAL_TOL, widened by how far the value moves when
    every deviation |lambda - sigma/n| grows by DEVIATION_SHIFT.  A
    fractional power such as d ** 0.5 is not Lipschitz at d = 0, so last-digit
    noise of any eigensolver in an eigenvalue equal to sigma/n moves it far
    more than the eigenvalue itself moves.
    """
    devs = _deviations(graph, lams)
    exact = compute(graph, devs)
    shifted = compute(graph, [d + DEVIATION_SHIFT for d in devs])

    def pair(value, moved):
        if isinstance(value, float):
            return Approx(value, SPECTRAL_TOL * max(1.0, abs(value)) + 2 * abs(moved - value))
        if isinstance(value, dict):
            return {k: pair(v, moved[k]) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [pair(v, w) for v, w in zip(value, moved)]
        return value

    return pair(exact, shifted)


def _record_dicts(records: list) -> list[dict]:
    return [{"name": name, "lhs": lhs, "rhs": rhs, "holds": True}
            for name, lhs, rhs in records]


# -- expected reports --------------------------------------------------------


def census_report(graph: Graph) -> dict:
    return {"graph": summary(graph), "census": census(graph)}


def walks_report(graph: Graph, traces: tuple[int, ...]) -> dict:
    counts = {f"w{k}": traces[k - 1] for k in range(1, 5)}
    return {"graph": summary(graph),
            "walks": {"formula": counts, "trace": counts, "agree": True}}


def moments_report(graph: Graph, traces: tuple[int, ...]) -> dict:
    lams = eigenvalues(graph)
    values = _spectral_expectation(graph, lams, _moment_values)
    m3, m4 = values["twisted"]["3"], values["twisted"]["4"]
    return {
        "graph": summary(graph),
        "moments": {
            "eigenvalues": [Approx(x, SPECTRAL_TOL * max(1.0, abs(x))) for x in lams],
            "spectral_moments": [graph.order, *traces],
            "twisted": values["twisted"],
            "energy": values["energy"],
            "m3_closed": Approx(m3.value, m3.tol + CLOSED_FORM_TOL * max(1.0, abs(m3.value))),
            "m3_direct": m3,
            "m4_closed": Approx(m4.value, m4.tol + CLOSED_FORM_TOL * max(1.0, abs(m4.value))),
            "m4_direct": m4,
            "closed_forms_agree": True,
        },
        "bounds": _record_dicts(values["bounds"]),
    }


def single_reports(graph: Graph) -> dict[str, dict]:
    """Expected reports of the census, walks and moments subcommands."""
    traces = closed_walk_traces(graph)
    return {"census": census_report(graph),
            "walks": walks_report(graph, traces),
            "moments": moments_report(graph, traces)}


# -- the verify sampler's inputs ----------------------------------------------


class SplitMix64:
    """The generator behind ``verify --sample``; the same seed gives the
    same graphs, which the checker needs in order to know the inputs."""

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


def sampled_graphs(count: int, n_lo: int, n_hi: int, edge_prob: float,
                   loop_prob: float, seed: int) -> list[Graph]:
    """The connected graphs ``verify --sample`` draws, in order."""
    rng = SplitMix64(seed)
    out: list[Graph] = []
    while len(out) < count:
        n = n_lo + rng.next_u64() % (n_hi - n_lo + 1)
        edges = tuple(pair for pair in combinations(range(n), 2)
                      if rng.random() < edge_prob)
        loops = tuple(v for v in range(n) if rng.random() < loop_prob)
        graph = Graph(n, edges, loops)
        if edges and is_connected(graph):
            out.append(graph)
    return out


def verify_report(graphs: list[Graph]) -> dict:
    """Expected ``verify`` report, apart from its per-graph results."""
    return {
        "chain_depth": CHAIN_DEPTH,
        "rst": [list(t) for t in RST_TRIPLES],
        "cs_exponents": list(CS_EXPONENTS),
        "summary": {"graphs": len(graphs), "skipped": 0, "violations": 0},
    }


def verify_result(label: str, graph: Graph) -> dict:
    records = _spectral_expectation(graph, eigenvalues(graph), _verify_records)
    return {"label": label, "graph": summary(graph), "bounds": _record_dicts(records)}
