"""Eigenvalues, twisted spectral moments, energy, and bound verification.

The eigensolver reduces the dense symmetric adjacency matrix to
tridiagonal form by Householder reflections and then takes its eigenvalues
by implicit-shift QL (Golub & Van Loan 8.3; EISPACK tred1/tql1): O(n^3),
deterministic, dependency-free, refused above order 640, and accurate far
beyond the 1e-9 slack tolerance the bound rows use.  Eigenvalues within
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
``FloatOverflow`` (a ``SizeLimitExceeded``) naming the exponent.

Each per-graph layer is computed once.  ``eigenvalues`` is the one
solver entry point and always solves; every other function here reads the
spectrum through a private memo of the last graph asked for, so the checks
on one graph share one solve without the caller passing it along.  There
is one center, sigma/n, read from the graph itself, not from a trace, and
each twisted moment M_q = sum |eigenvalue - sigma/n|^q is computed once
per (spectrum, exponent): ``eigenvalues`` builds the ``Spectrum`` with
``moments``, the one mapping that memoises the correctly rounded sums, so
the energy, Cauchy-Schwarz, ratio-chain and energy lower-bound checks on
one graph share them.  ``moment_report`` returns the ``moments`` and
``bounds`` sections the ``moments`` report prints, as one dict.

The bounds are evaluated once per graph.  An evaluated bound has one
form, the {"name", "lhs", "rhs", "slack", "holds"} dict a report holds,
and each inequality has one row builder; ``_bound_rows`` gives ``verify``
every row of a graph in one pass, with names taken from caches keyed by
the exponents or the chain depth, and the public ``verify_cauchy_schwarz``,
``verify_ratio_chain``, ``energy_lower_bounds`` and ``mcclelland_bound``
return the same builders' rows.  A row holds when its slack passes the
tolerance (1e-9, scaled by the ratios on the ratio chain).  The
Cauchy-Schwarz and Hoelder rows on the deviations |lambda - sigma/n|
(McClelland, the Cauchy-Schwarz grid, the ratio chain, the moment and
(r, s, t) energy bounds) are equalities exactly when the nonzero
deviations are all equal, and none is zero if the row uses M_0; such a
row whose slack fails the tolerance still holds when an exact integer
certificate proves that equality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import add, mul
from typing import Iterable, Sequence

from .errors import (ConstraintViolation, DisconnectedInput, FloatOverflow,
                     HypothesisNotMet, NegativeExponentUnsupported,
                     NoConvergence, SizeLimitExceeded)
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
# the p and q of the Cauchy-Schwarz rows ``verify`` reports
_DEFAULT_CS_EXPONENTS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
# M_q past q = 1024 overflows unless every deviation |lambda - sigma/n| is
# below 2; ``verify`` on K_2 at depth 1024 takes about 0.02 s (CHANGES.md)
_MAX_CHAIN_DEPTH = 1024


class _Moments(dict):
    """The twisted moments M_q = sum |eigenvalue - center|^q, with 0^0 = 1,
    of one spectrum about one center, keyed by q: each is summed over
    ``deviations``, the |eigenvalue - center|, on its first read and is a
    plain dict item after that."""

    __slots__ = ("deviations",)

    def __init__(self, eigenvalues: Iterable[float], center: float):
        super().__init__()
        self.deviations = [abs(lam - center) for lam in eigenvalues]

    def __missing__(self, q: float) -> float:
        try:
            value = self[q] = math.fsum([d ** q for d in self.deviations])
        except OverflowError:
            raise FloatOverflow(
                f"the twisted moment with exponent q={q:g} overflows "
                f"a float") from None
        return value


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted non-increasingly, plus solver diagnostics.

    ``moments`` memoises the twisted moments about sigma/n by exponent; it
    takes no part in comparison, hashing or repr.
    """

    eigenvalues: tuple[float, ...]
    residual: float
    sweeps_used: int
    moments: _Moments = field(compare=False, repr=False)


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
    center = _center(graph)
    spectrum = _snap(values, center)
    return Spectrum(eigenvalues=spectrum,
                    residual=_trace_residual(graph, spectrum),
                    sweeps_used=iterations,
                    moments=_Moments(spectrum, center))


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
    return _spectrum(graph).moments[q]


def energy(graph: SelfLoopGraph) -> float:
    """Sum of |eigenvalue - sigma/n| over the spectrum."""
    return _spectrum(graph).moments[1.0]


# -- closed forms of the third and fourth twisted moments --------------

_CLOSED_FORM_TOL = 1e-7


def _closed_form_agrees(closed: float, direct: float) -> bool:
    """Agreement within 1e-7, relative once |direct| exceeds 1."""
    return abs(closed - direct) <= _CLOSED_FORM_TOL * max(1.0, abs(direct))


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
    total_energy = spectrum.moments[1.0]
    return (2.0 * s3
            - 6.0 * sigma / n * s2
            + 4.0 * sigma * sigma / (n * n) * s1
            - wc.w3
            + 3.0 * sigma / n * wc.w2
            - 2.0 * sigma ** 3 / (n * n)
            + sigma * sigma / (n * n) * total_energy)


# -- bound rows -----------------------------------------------------------
#
# An evaluated bound is one {"name", "lhs", "rhs", "slack", "holds"} dict,
# the row a report holds, and each inequality has one row builder.
# ``verify`` takes all rows of a graph from ``_bound_rows`` in one pass,
# reading the spectrum and each twisted moment about sigma/n once from
# ``Spectrum.moments``; the public functions below return the same
# builders' rows.


def _row(graph: SelfLoopGraph, name: str, lhs: float, rhs: float,
         slack: float, tol: float, uses_m0: bool | None) -> dict:
    """The row of one inequality; refused when a product of finite moments
    overflowed.  It holds when slack >= -tol.  ``uses_m0`` is None unless
    the inequality is Cauchy-Schwarz or Hoelder on the deviations
    |lambda - sigma/n|; such a row whose slack fails the tolerance still
    holds when ``_equal_deviations`` proves it an equality, which needs the
    nonzero deviations all equal and, if it uses M_0 = n, none zero."""
    if not -math.inf < slack < math.inf:
        raise FloatOverflow(f"{name} overflows a float")
    holds = slack >= -tol
    if not holds and uses_m0 is not None:
        flat, zero_free = _equal_deviations(graph)
        holds = flat and (zero_free or not uses_m0)
    return {"name": name, "lhs": lhs, "rhs": rhs, "slack": slack, "holds": holds}


@functools.lru_cache(maxsize=1)
def _equal_deviations(graph: SelfLoopGraph) -> tuple[bool, bool]:
    """Whether the nonzero deviations |lambda - sigma/n| of a graph with an
    edge are all equal, and whether, besides, none is zero; decided in
    exact integers, without the spectrum.

    B = nA - sigma I has the eigenvalues n (lambda - sigma/n), and C = B^2
    their squares, so the nonzero deviations are all equal iff
    tr(C) BC = tr(C^2) B, and none is zero iff also tr(C)^2 = n tr(C^2).
    C_ij = n^2 (A^2)_ij - 2 n sigma A_ij + sigma^2 [i = j], where (A^2)_ij
    is the popcount of bit rows i and j.  Cost: O(n^2) popcounts and
    about n (2m + sigma) / 2 additions for the upper half of BC, so it
    runs only for a row whose slack fails the tolerance, once per graph.
    """
    n = graph.order
    sigma = graph.sigma
    # row i of A: its neighbors, and i itself when looped
    bits = [mask | (graph.loop_mask & (1 << i))
            for i, mask in enumerate(graph.neighbor_masks)]
    members = [[j for j in range(n) if row >> j & 1] for row in bits]
    nn = n * n
    c = [[nn * (row & other).bit_count() for other in bits] for row in bits]
    for i, row in enumerate(c):
        for k in members[i]:
            row[k] -= 2 * n * sigma
        row[i] += sigma * sigma
    trace = sum(c[i][i] for i in range(n))
    trace_sq = sum(x * x for row in c for x in row)  # C is symmetric
    # BC = B^3 is symmetric, so its entries (i, j >= i) decide
    for i, row in enumerate(c):
        ac = [0] * (n - i)  # row i of AC from column i on
        for k in members[i]:
            ac = list(map(add, ac, c[k][i:]))
        b = [0] * (n - i)  # row i of B from column i on
        for k in members[i]:
            if k >= i:
                b[k - i] = n
        b[0] -= sigma
        if any(trace * (n * x - sigma * y) != trace_sq * z
               for x, y, z in zip(ac, row[i:], b)):
            return False, False
    return True, trace * trace == n * trace_sq


def _cs_term(p: float, q: float) -> tuple[str, float, float, float, bool]:
    """(name, q, 2q - 2p, 2p, whether M_0 is used) of the Cauchy-Schwarz
    row at (p, q)."""
    return (f"cauchy_schwarz[p={p:g},q={q:g}]", q, 2 * q - 2 * p, 2 * p,
            p == 0 or p == q)


@functools.cache
def _cs_grid() -> tuple[tuple[str, float, float, float, bool], ...]:
    """The terms of the Cauchy-Schwarz rows over every p <= q of
    ``_DEFAULT_CS_EXPONENTS``."""
    grid = _DEFAULT_CS_EXPONENTS
    return tuple(_cs_term(p, q) for p in grid for q in grid if p <= q)


def _cs_rows(graph: SelfLoopGraph, moments: _Moments,
             terms: Iterable[tuple]) -> list[dict]:
    """M_q^2 <= M_{2q-2p} * M_{2p} for each term."""
    rows = []
    for name, q, a, b, uses_m0 in terms:
        mq = moments[q]
        lhs = mq * mq
        rhs = moments[a] * moments[b]
        rows.append(_row(graph, name, lhs, rhs, rhs - lhs, _SLACK_TOL, uses_m0))
    return rows


@functools.lru_cache(maxsize=16)
def _chain_names(depth: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The positivity names for q = 0..depth and the ratio-chain names for
    q = 1..depth-1; ``_MAX_CHAIN_DEPTH`` bounds their length."""
    return (tuple(f"twisted_positive[q={i}]" for i in range(depth + 1)),
            tuple(f"ratio_chain[q={i}]" for i in range(1, depth)))


def _chain_rows(graph: SelfLoopGraph, moments: _Moments,
                depth: int) -> list[dict]:
    """Positivity of M_0..M_depth, then M_{q-1} M_{q+1} >= M_q^2 as the
    ratios M_q/M_{q-1} <= M_{q+1}/M_q, whose tolerance scales with them."""
    positive_names, ratio_names = _chain_names(depth)
    values = [moments[i] for i in range(depth + 1)]
    rows = [{"name": name, "lhs": value, "rhs": 0.0, "slack": value,
             "holds": value > _POSITIVITY_FLOOR}
            for name, value in zip(positive_names, values)]
    for i, name in enumerate(ratio_names, 1):
        lo = values[i] / values[i - 1]
        hi = values[i + 1] / values[i]
        rows.append(_row(graph, name, lo, hi, hi - lo,
                         _SLACK_TOL * max(1.0, abs(lo), abs(hi)), i == 1))
    return rows


@functools.lru_cache(maxsize=256)
def _rst_name(r: float, s: float, t: float) -> str:
    return f"energy_lb_rst[r={r:g},s={s:g},t={t:g}]"


def _require_rst(triple: Iterable[float]) -> tuple[float, float, float]:
    """The (r, s, t) of an energy lower bound as floats, refused unless
    they are three numbers >= 0 with 4r = s + t + 2."""
    values = tuple(float(x) for x in triple)
    if len(values) != 3:
        raise ConstraintViolation(f"rst expects three numbers, got {values}")
    r, s, t = values
    if min(r, s, t) < 0:
        raise NegativeExponentUnsupported(
            f"rst exponents must be >= 0, got {values}")
    if abs(4.0 * r - (s + t + 2.0)) > 1e-12:
        raise ConstraintViolation(
            f"need 4r = s + t + 2, got r={r:g}, s={s:g}, t={t:g}")
    return values


def _energy_rows(graph: SelfLoopGraph, moments: _Moments,
                 rst_triples: Iterable[Sequence[float]]) -> list[dict]:
    """The energy and moment lower bounds, then one row per (r, s, t),
    each triple already passed by ``_require_rst``."""
    n = graph.order
    m = graph.size
    total_energy = moments[1.0]
    # d * d is the correctly rounded square; d ** 2 goes through libm's pow
    # and can differ in the last bit, so this sum stays outside the memo
    m2 = math.fsum(d * d for d in moments.deviations)
    m3 = moments[3]
    m4 = moments[4]
    rows = []
    # the moment bound is Hoelder, M_2^3 <= E^2 M_4; the edge-density
    # bounds are not inequalities on the deviations alone
    for name, lhs, rhs, uses_m0 in (
            ("energy_lb_moments", total_energy, math.sqrt(m2 ** 3 / m4), False),
            ("energy_lb_edge_density", total_energy, 4.0 * m / n, None),
            ("m3_lb_edge_density", m3, 64.0 * m ** 3 / n ** 5, None),
            ("m4_lb_edge_density", m4, 256.0 * m ** 4 / n ** 7, None)):
        rows.append(_row(graph, name, lhs, rhs, lhs - rhs, _SLACK_TOL, uses_m0))
    for r, s, t in rst_triples:
        mr = moments[r]
        rhs = mr * mr / math.sqrt(moments[s] * moments[t])
        # Hoelder with exponents (2, 4, 4): M_r^2 <= E sqrt(M_s M_t)
        rows.append(_row(graph, _rst_name(r, s, t), total_energy, rhs,
                         total_energy - rhs, _SLACK_TOL, s == 0 or t == 0))
    return rows


def _bound_rows(graph: SelfLoopGraph, chain_depth: int,
                rst: Iterable[Sequence[float]]) -> list[dict]:
    """Every row ``verify`` reports after McClelland's, in its order: the
    Cauchy-Schwarz grid, the ratio chain to ``chain_depth`` and the energy
    lower bounds with ``rst``.  For a connected graph with an edge and
    triples that pass ``_require_rst``, which the caller has checked."""
    _require_chain_depth(chain_depth)
    moments = _spectrum(graph).moments
    rows = _cs_rows(graph, moments, _cs_grid())
    rows += _chain_rows(graph, moments, chain_depth)
    rows += _energy_rows(graph, moments, rst)
    return rows


def verify_cauchy_schwarz(graph: SelfLoopGraph, p: float, q: float) -> dict:
    """Check M_q^2 <= M_{2q-2p} * M_{2p} for 0 <= p <= q."""
    if p < 0 or q < 0:
        raise NegativeExponentUnsupported(
            f"exponents must be >= 0, got p={p}, q={q}")
    if p > q:
        raise ConstraintViolation(f"need p <= q, got p={p}, q={q}")
    return _cs_rows(graph, _spectrum(graph).moments, (_cs_term(p, q),))[0]


def mcclelland_bound(graph: SelfLoopGraph) -> dict:
    """Energy upper bound sqrt(n (2m + sigma - sigma^2/n)), from graph data:
    Cauchy-Schwarz E^2 <= M_0 M_2, with M_2 = 2m + sigma - sigma^2/n."""
    n = graph.order
    sigma = graph.sigma
    total_energy = energy(graph)
    rhs = math.sqrt(n * (2 * graph.size + sigma - sigma * sigma / n))
    return _row(graph, "mcclelland", total_energy, rhs, rhs - total_energy,
                _SLACK_TOL, True)


def _require_chain_depth(depth: int) -> None:
    if depth < 1:
        raise ConstraintViolation(f"chain depth must be >= 1, got {depth}")
    if depth > _MAX_CHAIN_DEPTH:
        raise SizeLimitExceeded(
            f"chain depth must be <= {_MAX_CHAIN_DEPTH}, got {depth}")


def _require_bound_hypotheses(graph: SelfLoopGraph) -> None:
    if not is_connected(graph):
        raise DisconnectedInput("bound verification assumes a connected graph")
    if graph.size < 1:
        raise HypothesisNotMet("bound verification assumes at least one edge")


def verify_ratio_chain(graph: SelfLoopGraph, q_max: int) -> list[dict]:
    """Positivity of the twisted moments up to q_max and the monotone
    ratio chain M_1/M_0 <= M_2/M_1 <= ... (relative 1e-9 tolerance)."""
    _require_chain_depth(q_max)
    _require_bound_hypotheses(graph)
    return _chain_rows(graph, _spectrum(graph).moments, q_max)


def energy_lower_bounds(graph: SelfLoopGraph,
                        rst_triples: Iterable[Sequence[float]] = ()) -> list[dict]:
    """Lower bounds on energy and on the third/fourth twisted moments,
    plus one row per caller-supplied (r, s, t) with 4r = s + t + 2."""
    _require_bound_hypotheses(graph)
    triples = [_require_rst(triple) for triple in rst_triples]
    return _energy_rows(graph, _spectrum(graph).moments, triples)


def moment_report(graph: SelfLoopGraph,
                  qs: Sequence[float] = (0.0, 1.0, 2.0, 3.0, 4.0)) -> dict:
    """{"moments": {...}, "bounds": [...]}, the sections the ``moments``
    report prints: the spectrum, M_0..M_4 (the order and the closed-walk
    counts), the twisted moments at ``qs``, the energy, the closed forms of
    M_3 and M_4 against the direct sums, and the bound rows if the graph is
    connected with an edge.  The spectrum comes first, so an order past the
    solver's guard is refused before any other work."""
    spectrum = _spectrum(graph)
    wc = walk_counts(graph)
    twisted = {f"{float(q):g}": twisted_moment(graph, q) for q in qs}
    bounds = []
    if is_connected(graph) and graph.size >= 1:
        bounds = [mcclelland_bound(graph), *energy_lower_bounds(graph)]
    moments = {
        "eigenvalues": list(spectrum.eigenvalues),
        "residual": spectrum.residual,
        "sweeps": spectrum.sweeps_used,
        "spectral_moments": [graph.order, wc.w1, wc.w2, wc.w3, wc.w4],
        "twisted": twisted,
        "energy": energy(graph),
        "m3_closed": m3_closed_form(graph),
        "m4_closed": m4_closed_form(graph),
        "m3_direct": twisted_moment(graph, 3.0),
        "m4_direct": twisted_moment(graph, 4.0),
    }
    moments["closed_forms_agree"] = (
        _closed_form_agrees(moments["m3_closed"], moments["m3_direct"])
        and _closed_form_agrees(moments["m4_closed"], moments["m4_direct"]))
    return {"moments": moments, "bounds": bounds}
