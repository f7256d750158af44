"""Eigenvalues, twisted spectral moments, energy, and bound verification.

The eigensolver is a cyclic Jacobi iteration on the dense symmetric
adjacency matrix: deterministic, dependency-free, and accurate far beyond
the 1e-9 slack tolerance the bound records use.  Twisted moments are
computed from the float spectrum while plain spectral moments come from
exact integer traces of adjacency powers; the identities tying the two routes together
act as the error detector.

Each twisted moment M_q = sum |eigenvalue - center|^q is computed once per
(spectrum, center, exponent): the ``Spectrum`` memoises the correctly
rounded sums, so the energy, Cauchy-Schwarz, ratio-chain and energy
lower-bound checks on one graph share them.  The center sigma/n is read
from the graph itself, not from a trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (ConstraintViolation, DisconnectedInput, HypothesisNotMet,
                     NegativeExponentUnsupported, NoConvergence)
from .graph_core import SelfLoopGraph, adjacency, is_connected
from .oracle import trace_power
from .walks import walk_counts

_MAX_SWEEPS = 100
_SLACK_TOL = 1e-9
_POSITIVITY_FLOOR = 1e-12
_CENTER_TIE_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted non-increasingly, plus solver diagnostics.

    Twisted moments computed from it are memoised per (center, exponent);
    the memo takes no part in comparison, hashing or repr.
    """

    eigenvalues: tuple[float, ...]
    residual: float
    sweeps_used: int
    _twisted_memo: dict[tuple[float, float], float] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def _twisted(self, center: float, q: float) -> float:
        """Sum of |eigenvalue - center|^q, with 0^0 = 1, computed once."""
        key = (center, q)
        memo = self._twisted_memo
        value = memo.get(key)
        if value is None:
            value = memo[key] = math.fsum(abs(lam - center) ** q
                                          for lam in self.eigenvalues)
        return value


@dataclass(frozen=True)
class BoundRecord:
    """One evaluated inequality; slack >= 0 means it holds exactly."""

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "holds": self.holds}


@dataclass(frozen=True)
class MomentReport:
    """Spectral moments, twisted moments, energy, and bound evaluations."""

    spectral_moments: tuple[int, ...]
    twisted: tuple[tuple[float, float], ...]
    energy: float
    m3_closed: float
    m4_closed: float
    bounds: tuple[BoundRecord, ...]


def eigenvalues(graph: SelfLoopGraph) -> Spectrum:
    """Solve the symmetric eigenproblem of the adjacency matrix."""
    rows = [list(map(float, row)) for row in adjacency(graph)]
    diagonal, residual, sweeps = _jacobi(rows)
    return Spectrum(eigenvalues=tuple(sorted(diagonal, reverse=True)),
                    residual=residual, sweeps_used=sweeps)


def _jacobi(rows: list[list[float]]) -> tuple[list[float], float, int]:
    n = len(rows)
    if n == 1:
        return [rows[0][0]], 0.0, 0
    frobenius = math.sqrt(math.fsum(x * x for row in rows for x in row))
    threshold = 1e-12 * max(1.0, frobenius)
    sweeps = 0
    while True:
        off = 0.0
        for i in range(n - 1):
            row = rows[i]
            for j in range(i + 1, n):
                magnitude = row[j] if row[j] >= 0.0 else -row[j]
                if magnitude > off:
                    off = magnitude
        if off < threshold:
            return [rows[i][i] for i in range(n)], off, sweeps
        if sweeps >= _MAX_SWEEPS:
            raise NoConvergence(
                f"off-diagonal magnitude {off:g} above {threshold:g} "
                f"after {sweeps} sweeps")
        sweeps += 1
        for p in range(n - 1):
            row_p = rows[p]
            for q in range(p + 1, n):
                apq = row_p[q]
                if apq == 0.0:
                    continue
                row_q = rows[q]
                app = row_p[p]
                aqq = row_q[q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p[p] = app - t * apq
                row_q[q] = aqq + t * apq
                row_p[q] = 0.0
                row_q[p] = 0.0
                for i in range(n):
                    if i == p or i == q:
                        continue
                    row_i = rows[i]
                    aip = row_i[p]
                    aiq = row_i[q]
                    row_i[p] = c * aip - s * aiq
                    row_p[i] = row_i[p]
                    row_i[q] = s * aip + c * aiq
                    row_q[i] = row_i[q]


def spectral_moment(graph: SelfLoopGraph, k: int) -> int:
    """Exact integer k-th spectral moment: the trace of the k-th power."""
    return trace_power(graph, k)


def _resolve(graph: SelfLoopGraph, spectrum: Spectrum | None) -> Spectrum:
    return spectrum if spectrum is not None else eigenvalues(graph)


def _center(graph: SelfLoopGraph, k: int = 1) -> float:
    """M_k / n; for k = 1 the trace of A is the loop count sigma."""
    return (graph.sigma if k == 1 else trace_power(graph, k)) / graph.order


def twisted_moment(graph: SelfLoopGraph, q: float, k: int = 1,
                   spectrum: Spectrum | None = None) -> float:
    """Sum of |eigenvalue - M_k/n|^q over the spectrum, with 0^0 = 1."""
    if q < 0:
        raise NegativeExponentUnsupported(f"exponent must be >= 0, got {q}")
    if k < 1:
        raise ConstraintViolation(f"twisting moment index must be >= 1, got {k}")
    return _resolve(graph, spectrum)._twisted(_center(graph, k), q)


def energy(graph: SelfLoopGraph, spectrum: Spectrum | None = None) -> float:
    """Sum of |eigenvalue - sigma/n| over the spectrum."""
    return _resolve(graph, spectrum)._twisted(_center(graph), 1.0)


# -- closed forms of the third and fourth twisted moments --------------


def m4_closed_form(graph: SelfLoopGraph) -> float:
    """Fourth twisted moment from the exact walk counts alone."""
    wc = walk_counts(graph)
    n = graph.order
    sigma = graph.sigma
    return (wc.w4
            - 4.0 * sigma / n * wc.w3
            + 6.0 * sigma * sigma / (n * n) * wc.w2
            - 3.0 * sigma ** 4 / (n ** 3))


def m3_closed_form(graph: SelfLoopGraph, spectrum: Spectrum | None = None) -> float:
    """Third twisted moment from walk counts plus partial eigenvalue sums."""
    spec = _resolve(graph, spectrum)
    return _m3_closed_with_j(graph, spec, _center_split(graph, spec))


def _center_split(graph: SelfLoopGraph, spectrum: Spectrum) -> int:
    """Number of leading eigenvalues at or above sigma/n (1e-9 tie band)."""
    center = graph.sigma / graph.order
    return sum(1 for lam in spectrum.eigenvalues if lam >= center - _CENTER_TIE_TOL)


def _m3_closed_with_j(graph: SelfLoopGraph, spectrum: Spectrum, j: int) -> float:
    lams = spectrum.eigenvalues[:j]
    n = graph.order
    sigma = graph.sigma
    s1 = math.fsum(lams)
    s2 = math.fsum(lam * lam for lam in lams)
    s3 = math.fsum(lam ** 3 for lam in lams)
    wc = walk_counts(graph)
    total_energy = energy(graph, spectrum=spectrum)
    return (2.0 * s3
            - 6.0 * sigma / n * s2
            + 4.0 * sigma * sigma / (n * n) * s1
            - wc.w3
            + 3.0 * sigma / n * wc.w2
            - 2.0 * sigma ** 3 / (n * n)
            + sigma * sigma / (n * n) * total_energy)


# -- bound records ------------------------------------------------------


def _le_record(name: str, lhs: float, rhs: float, tol_scale: float = 1.0) -> BoundRecord:
    slack = rhs - lhs
    return BoundRecord(name=name, lhs=lhs, rhs=rhs, slack=slack,
                       holds=slack >= -_SLACK_TOL * tol_scale)


def _ge_record(name: str, lhs: float, rhs: float, tol_scale: float = 1.0) -> BoundRecord:
    slack = lhs - rhs
    return BoundRecord(name=name, lhs=lhs, rhs=rhs, slack=slack,
                       holds=slack >= -_SLACK_TOL * tol_scale)


def verify_cauchy_schwarz(graph: SelfLoopGraph, p: float, q: float,
                          spectrum: Spectrum | None = None) -> BoundRecord:
    """Check M_q^2 <= M_{2q-2p} * M_{2p} for 0 <= p <= q."""
    if p < 0 or q < 0:
        raise NegativeExponentUnsupported(
            f"exponents must be >= 0, got p={p}, q={q}")
    if p > q:
        raise ConstraintViolation(f"need p <= q, got p={p}, q={q}")
    spec = _resolve(graph, spectrum)
    center = _center(graph)
    mq = spec._twisted(center, q)
    m_2q2p = spec._twisted(center, 2 * q - 2 * p)
    m_2p = spec._twisted(center, 2 * p)
    return _le_record(f"cauchy_schwarz[p={p:g},q={q:g}]", mq * mq, m_2q2p * m_2p)


def mcclelland_bound(graph: SelfLoopGraph, spectrum: Spectrum | None = None) -> BoundRecord:
    """Energy upper bound sqrt(n (2m + sigma - sigma^2/n)), from graph data."""
    n = graph.order
    sigma = graph.sigma
    total_energy = energy(graph, spectrum=spectrum)
    rhs = math.sqrt(n * (2 * graph.size + sigma - sigma * sigma / n))
    return _le_record("mcclelland", total_energy, rhs)


def _require_bound_hypotheses(graph: SelfLoopGraph) -> None:
    if not is_connected(graph):
        raise DisconnectedInput("bound verification assumes a connected graph")
    if graph.size < 1:
        raise HypothesisNotMet("bound verification assumes at least one edge")


def verify_ratio_chain(graph: SelfLoopGraph, q_max: int,
                       spectrum: Spectrum | None = None) -> list[BoundRecord]:
    """Positivity of the twisted moments up to q_max and the monotone
    ratio chain M_1/M_0 <= M_2/M_1 <= ... (relative 1e-9 tolerance)."""
    if q_max < 1:
        raise ConstraintViolation(f"chain depth must be >= 1, got {q_max}")
    _require_bound_hypotheses(graph)
    spec = _resolve(graph, spectrum)
    center = _center(graph)
    moments = [spec._twisted(center, i) for i in range(q_max + 1)]
    records = []
    for i, value in enumerate(moments):
        records.append(BoundRecord(
            name=f"twisted_positive[q={i}]", lhs=value, rhs=0.0, slack=value,
            holds=value > _POSITIVITY_FLOOR))
    for i in range(1, q_max):
        ratio_lo = moments[i] / moments[i - 1]
        ratio_hi = moments[i + 1] / moments[i]
        scale = max(1.0, abs(ratio_lo), abs(ratio_hi))
        records.append(_le_record(f"ratio_chain[q={i}]", ratio_lo, ratio_hi,
                                  tol_scale=scale))
    return records


def energy_lower_bounds(graph: SelfLoopGraph,
                        rst_triples: Iterable[Sequence[float]] = (),
                        spectrum: Spectrum | None = None) -> list[BoundRecord]:
    """Lower bounds on energy and on the third/fourth twisted moments,
    plus one record per caller-supplied (r, s, t) with 4r = s + t + 2."""
    _require_bound_hypotheses(graph)
    spec = _resolve(graph, spectrum)
    center = _center(graph)
    n = graph.order
    m = graph.size
    total_energy = spec._twisted(center, 1.0)
    # d * d is the correctly rounded square; d ** 2 goes through libm's pow
    # and can differ in the last bit, so this sum stays outside the memo
    m2 = math.fsum((lam - center) * (lam - center) for lam in spec.eigenvalues)
    m3 = spec._twisted(center, 3)
    m4 = spec._twisted(center, 4)
    records = [
        _ge_record("energy_lb_moments", total_energy, math.sqrt(m2 ** 3 / m4)),
        _ge_record("energy_lb_edge_density", total_energy, 4.0 * m / n),
        _ge_record("m3_lb_edge_density", m3, 64.0 * m ** 3 / n ** 5),
        _ge_record("m4_lb_edge_density", m4, 256.0 * m ** 4 / n ** 7),
    ]
    for triple in rst_triples:
        r, s, t = (float(x) for x in triple)
        if min(r, s, t) < 0:
            raise NegativeExponentUnsupported(
                f"rst exponents must be >= 0, got {triple}")
        if abs(4.0 * r - (s + t + 2.0)) > 1e-12:
            raise ConstraintViolation(
                f"need 4r = s + t + 2, got r={r:g}, s={s:g}, t={t:g}")
        mr = spec._twisted(center, r)
        ms = spec._twisted(center, s)
        mt = spec._twisted(center, t)
        records.append(_ge_record(
            f"energy_lb_rst[r={r:g},s={s:g},t={t:g}]",
            total_energy, mr * mr / math.sqrt(ms * mt)))
    return records


def moment_report(graph: SelfLoopGraph,
                  qs: Sequence[float] = (0.0, 1.0, 2.0, 3.0, 4.0),
                  kmax: int = 4,
                  rst_triples: Iterable[Sequence[float]] = (),
                  spectrum: Spectrum | None = None) -> MomentReport:
    """Bundle of exact moments, twisted moments, energy, closed forms,
    and the standard bound evaluations (when the hypotheses hold)."""
    spec = _resolve(graph, spectrum)
    exact = tuple(trace_power(graph, k) for k in range(kmax + 1))
    twisted = tuple((float(q), twisted_moment(graph, q, spectrum=spec))
                    for q in qs)
    total_energy = energy(graph, spectrum=spec)
    bounds: tuple[BoundRecord, ...] = ()
    if is_connected(graph) and graph.size >= 1:
        bounds = (mcclelland_bound(graph, spectrum=spec),
                  *energy_lower_bounds(graph, rst_triples, spectrum=spec))
    return MomentReport(spectral_moments=exact,
                        twisted=twisted,
                        energy=total_energy,
                        m3_closed=m3_closed_form(graph, spectrum=spec),
                        m4_closed=m4_closed_form(graph),
                        bounds=bounds)
