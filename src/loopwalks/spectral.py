"""Eigenvalues, twisted spectral moments, energy, and bound verification.

The eigensolver reduces the dense symmetric adjacency matrix to
tridiagonal form by Householder reflections and then takes its eigenvalues
by implicit-shift QL (Golub & Van Loan 8.3; EISPACK tred1/tql1): O(n^3),
deterministic, dependency-free, refused above order 640, and accurate far
beyond the 1e-9 slack tolerance the bound records use.  Eigenvalues within
1e-10 * max(1, max |eigenvalue|) of 0 or of sigma/n are set to exactly
that value, so solver noise never enters M_q as a spurious |noise|^q term
and the printed spectrum does not depend on the solver's rounding.  The
``Spectrum`` reports the relative trace-identity residual for k = 1, 2 and
the number of QL iterations taken.  Twisted moments are computed from the
float spectrum; the plain spectral moments M_0..M_4 are the order and the
exact closed-walk counts of ``walk_counts``.  The trace identities
sum lambda^k = tr A^k, checked against ``oracle.trace_power`` in the tests,
are the error detector that ties the spectrum to the exact counts.  A
twisted moment or a bound whose value overflows a float is refused with
``SizeLimitExceeded`` naming the exponent.

Each per-graph layer is computed once.  ``eigenvalues`` is the one
solver entry point and always solves; every other function here reads the
spectrum through a private memo of the last graph asked for, so the checks
on one graph share one solve without the caller passing it along.  Each
twisted moment M_q = sum |eigenvalue - center|^q is computed once per
(spectrum, center, exponent): the ``Spectrum`` memoises the correctly
rounded sums, so the energy, Cauchy-Schwarz, ratio-chain and energy
lower-bound checks on one graph share them.  The center sigma/n is read
from the graph itself, not from a trace.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Sequence

from .errors import (ConstraintViolation, DisconnectedInput, HypothesisNotMet,
                     NegativeExponentUnsupported, NoConvergence,
                     SizeLimitExceeded)
from .graph_core import SelfLoopGraph, adjacency_rows, is_connected
from .walks import walk_counts

_MAX_QL_ITERATIONS = 30  # per eigenvalue
# a solve of G(n, 1/2) took 0.18 s at n = 160, 1.6 s at 320 and 16 s at 640
_MAX_DENSE_ORDER = 640
# eigenvalues this close to 0 or to sigma/n, relative to the spectral
# radius, are solver noise and are reported as exactly that value
_SNAP_TOL = 1e-10
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
            try:
                value = memo[key] = math.fsum(abs(lam - center) ** q
                                              for lam in self.eigenvalues)
            except OverflowError:
                raise SizeLimitExceeded(
                    f"the twisted moment with exponent q={q:g} overflows "
                    f"a float") from None
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
    """Spectrum, spectral moments, twisted moments, energy, and bound
    evaluations."""

    spectrum: Spectrum
    spectral_moments: tuple[int, ...]
    twisted: tuple[tuple[float, float], ...]
    energy: float
    m3_closed: float
    m4_closed: float
    bounds: tuple[BoundRecord, ...]


def eigenvalues(graph: SelfLoopGraph) -> Spectrum:
    """Solve the symmetric eigenproblem of the adjacency matrix.

    Refuses orders above _MAX_DENSE_ORDER before building the matrix.
    """
    n = graph.order
    if n > _MAX_DENSE_ORDER:
        raise SizeLimitExceeded(
            f"the dense eigensolver is guarded to order <= {_MAX_DENSE_ORDER}; "
            f"got order {n}")
    values, iterations = _householder_ql(adjacency_rows(graph, 1.0))
    spectrum = _snap(values, _center(graph))
    return Spectrum(eigenvalues=spectrum,
                    residual=_trace_residual(graph, spectrum),
                    sweeps_used=iterations)


def _snap(values: list[float], center: float) -> tuple[float, ...]:
    """Sorted non-increasingly, with every value within _SNAP_TOL times
    max(1, max |value|) of 0 or of the center set to exactly that."""
    tol = _SNAP_TOL * max(1.0, max(map(abs, values)))
    return tuple(sorted((0.0 if abs(x) <= tol
                         else center if abs(x - center) <= tol
                         else x for x in values), reverse=True))


def _trace_residual(graph: SelfLoopGraph, spectrum: Sequence[float]) -> float:
    """max over k = 1, 2 of |sum lambda^k - tr A^k| / max(1, tr A^k), with
    tr A = sigma and tr A^2 = 2m + sigma read from the graph."""
    t1 = graph.sigma
    t2 = 2 * graph.size + graph.sigma
    return max(abs(math.fsum(spectrum) - t1) / max(1, t1),
               abs(math.fsum(x * x for x in spectrum) - t2) / max(1, t2))


def _householder_ql(rows: list[list[float]]) -> tuple[list[float], int]:
    """Eigenvalues of a dense symmetric matrix, which is overwritten, and
    the number of QL iterations taken."""
    n = len(rows)
    d = [0.0] * n  # the diagonal
    e = [0.0] * n  # e[i] couples i and i + 1; e[n - 1] stays 0
    # Householder reduction to tridiagonal form: row i is reflected onto
    # its subdiagonal entry by P = I - x x^T / h on the leading i x i block
    for i in range(n - 1, 0, -1):
        x = rows[i][:i]
        f = x[-1]
        h = sum(map(mul, x, x))
        if h == f * f:  # nothing left of the subdiagonal entry
            e[i - 1] = f
        else:
            g = -math.copysign(math.sqrt(h), f)
            e[i - 1] = g
            h -= f * g
            x[-1] = f - g
            # A <- P A P = A - x q^T - q x^T with p = A x / h and
            # q = p - (x . p / 2h) x
            p = [sum(map(mul, rows[j], x)) / h for j in range(i)]
            k = sum(map(mul, x, p)) / (h + h)
            q = [pj - k * xj for pj, xj in zip(p, x)]
            for j in range(i):
                xj = x[j]
                qj = q[j]
                rows[j][:i] = [a - xj * qk - qj * xk
                               for a, xk, qk in zip(rows[j], x, q)]
        d[i] = rows[i][i]
    d[0] = rows[0][0]
    # implicit QL with Wilkinson shifts; an off-diagonal entry is zero
    # once adding it to the matrix norm changes nothing
    norm = max(abs(a) + abs(b) for a, b in zip(d, e))
    total = 0
    for lo in range(n):
        iterations = 0
        while True:
            m = lo
            while m < n - 1 and norm + abs(e[m]) != norm:
                m += 1
            if m == lo:
                break
            if iterations >= _MAX_QL_ITERATIONS:
                raise NoConvergence(
                    f"QL iteration for eigenvalue {lo} not converged after "
                    f"{iterations} iterations")
            iterations += 1
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            r = math.hypot(g, 1.0)
            g = d[m] - d[lo] + e[lo] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, lo - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: split here and iterate again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[lo] -= p
                e[lo] = g
                e[m] = 0.0
        total += iterations
    return d, total


@functools.lru_cache(maxsize=1)
def _spectrum(graph: SelfLoopGraph) -> Spectrum:
    """The spectrum of the last graph asked for, solved once.  Calls
    ``eigenvalues`` by its module name, so a wrapper put there sees
    every solve."""
    return eigenvalues(graph)


def _center(graph: SelfLoopGraph) -> float:
    """sigma/n, the mean eigenvalue: the trace of A is the loop count."""
    return graph.sigma / graph.order


def twisted_moment(graph: SelfLoopGraph, q: float) -> float:
    """Sum of |eigenvalue - sigma/n|^q over the spectrum, with 0^0 = 1."""
    if q < 0:
        raise NegativeExponentUnsupported(f"exponent must be >= 0, got {q}")
    return _spectrum(graph)._twisted(_center(graph), q)


def energy(graph: SelfLoopGraph) -> float:
    """Sum of |eigenvalue - sigma/n| over the spectrum."""
    return _spectrum(graph)._twisted(_center(graph), 1.0)


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


def m3_closed_form(graph: SelfLoopGraph) -> float:
    """Third twisted moment from walk counts plus partial eigenvalue sums."""
    spec = _spectrum(graph)
    return _m3_closed_with_j(graph, spec, _center_split(graph, spec))


def _center_split(graph: SelfLoopGraph, spectrum: Spectrum) -> int:
    """Number of leading eigenvalues at or above sigma/n (1e-9 tie band)."""
    center = _center(graph)
    return sum(1 for lam in spectrum.eigenvalues if lam >= center - _CENTER_TIE_TOL)


def _m3_closed_with_j(graph: SelfLoopGraph, spectrum: Spectrum, j: int) -> float:
    lams = spectrum.eigenvalues[:j]
    n = graph.order
    sigma = graph.sigma
    s1 = math.fsum(lams)
    s2 = math.fsum(lam * lam for lam in lams)
    s3 = math.fsum(lam ** 3 for lam in lams)
    wc = walk_counts(graph)
    total_energy = spectrum._twisted(_center(graph), 1.0)
    return (2.0 * s3
            - 6.0 * sigma / n * s2
            + 4.0 * sigma * sigma / (n * n) * s1
            - wc.w3
            + 3.0 * sigma / n * wc.w2
            - 2.0 * sigma ** 3 / (n * n)
            + sigma * sigma / (n * n) * total_energy)


# -- bound records ------------------------------------------------------


def _le_record(name: str, lhs: float, rhs: float, tol_scale: float = 1.0) -> BoundRecord:
    return _record(name, lhs, rhs, rhs - lhs, tol_scale)


def _ge_record(name: str, lhs: float, rhs: float, tol_scale: float = 1.0) -> BoundRecord:
    return _record(name, lhs, rhs, lhs - rhs, tol_scale)


def _record(name: str, lhs: float, rhs: float, slack: float,
            tol_scale: float) -> BoundRecord:
    """The record; refused when a product of finite moments overflowed."""
    if not math.isfinite(slack):
        raise SizeLimitExceeded(f"{name} overflows a float")
    return BoundRecord(name=name, lhs=lhs, rhs=rhs, slack=slack,
                       holds=slack >= -_SLACK_TOL * tol_scale)


def verify_cauchy_schwarz(graph: SelfLoopGraph, p: float, q: float) -> BoundRecord:
    """Check M_q^2 <= M_{2q-2p} * M_{2p} for 0 <= p <= q."""
    if p < 0 or q < 0:
        raise NegativeExponentUnsupported(
            f"exponents must be >= 0, got p={p}, q={q}")
    if p > q:
        raise ConstraintViolation(f"need p <= q, got p={p}, q={q}")
    spec = _spectrum(graph)
    center = _center(graph)
    mq = spec._twisted(center, q)
    m_2q2p = spec._twisted(center, 2 * q - 2 * p)
    m_2p = spec._twisted(center, 2 * p)
    return _le_record(f"cauchy_schwarz[p={p:g},q={q:g}]", mq * mq, m_2q2p * m_2p)


def mcclelland_bound(graph: SelfLoopGraph) -> BoundRecord:
    """Energy upper bound sqrt(n (2m + sigma - sigma^2/n)), from graph data."""
    n = graph.order
    sigma = graph.sigma
    total_energy = energy(graph)
    rhs = math.sqrt(n * (2 * graph.size + sigma - sigma * sigma / n))
    return _le_record("mcclelland", total_energy, rhs)


def _require_bound_hypotheses(graph: SelfLoopGraph) -> None:
    if not is_connected(graph):
        raise DisconnectedInput("bound verification assumes a connected graph")
    if graph.size < 1:
        raise HypothesisNotMet("bound verification assumes at least one edge")


def verify_ratio_chain(graph: SelfLoopGraph, q_max: int) -> list[BoundRecord]:
    """Positivity of the twisted moments up to q_max and the monotone
    ratio chain M_1/M_0 <= M_2/M_1 <= ... (relative 1e-9 tolerance)."""
    if q_max < 1:
        raise ConstraintViolation(f"chain depth must be >= 1, got {q_max}")
    _require_bound_hypotheses(graph)
    spec = _spectrum(graph)
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
                        rst_triples: Iterable[Sequence[float]] = ()) -> list[BoundRecord]:
    """Lower bounds on energy and on the third/fourth twisted moments,
    plus one record per caller-supplied (r, s, t) with 4r = s + t + 2."""
    _require_bound_hypotheses(graph)
    spec = _spectrum(graph)
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
                  qs: Sequence[float] = (0.0, 1.0, 2.0, 3.0, 4.0)) -> MomentReport:
    """Bundle of the spectrum, exact moments M_0..M_4 (the order and the
    closed-walk counts), twisted moments, energy, closed forms, and the
    standard bound evaluations (when the hypotheses hold).  The spectrum
    comes first, so an order past the solver's guard is refused before any
    other work."""
    spectrum = _spectrum(graph)
    wc = walk_counts(graph)
    twisted = tuple((float(q), twisted_moment(graph, q)) for q in qs)
    bounds: tuple[BoundRecord, ...] = ()
    if is_connected(graph) and graph.size >= 1:
        bounds = (mcclelland_bound(graph), *energy_lower_bounds(graph))
    return MomentReport(spectrum=spectrum,
                        spectral_moments=(graph.order, wc.w1, wc.w2, wc.w3, wc.w4),
                        twisted=twisted,
                        energy=energy(graph),
                        m3_closed=m3_closed_form(graph),
                        m4_closed=m4_closed_form(graph),
                        bounds=bounds)
