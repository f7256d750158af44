"""The bound rows ``verify`` writes: one evaluation per graph that agrees
with the public bound functions, and the exact equality certificate that
decides a row whose float slack fails the tolerance."""

import math
import random

import pytest

from loopwalks import (FamilySpec, SizeLimitExceeded, build, eigenvalues,
                       energy_lower_bounds, generate, mcclelland_bound,
                       twisted_moment, verify_cauchy_schwarz,
                       verify_ratio_chain)
from loopwalks import spectral
from loopwalks.cli import _DEFAULT_RST, _verify_one
from loopwalks.families import sample_connected_graphs
from loopwalks.spectral import _DEFAULT_CS_EXPONENTS

RST = ((1.0, 0.0, 2.0), (0.75, 0.0, 1.0), (2.5, 4.0, 4.0))


def _public_rows(graph, depth, rst):
    grid = _DEFAULT_CS_EXPONENTS
    return [mcclelland_bound(graph),
            *(verify_cauchy_schwarz(graph, p, q)
              for p in grid for q in grid if p <= q),
            *verify_ratio_chain(graph, depth),
            *energy_lower_bounds(graph, rst)]


def _expected_names(depth, rst):
    grid = _DEFAULT_CS_EXPONENTS
    return ["mcclelland",
            *(f"cauchy_schwarz[p={p:g},q={q:g}]"
              for p in grid for q in grid if p <= q),
            *(f"twisted_positive[q={i}]" for i in range(depth + 1)),
            *(f"ratio_chain[q={i}]" for i in range(1, depth)),
            "energy_lb_moments", "energy_lb_edge_density",
            "m3_lb_edge_density", "m4_lb_edge_density",
            *(f"energy_lb_rst[r={r:g},s={s:g},t={t:g}]" for r, s, t in rst)]


@pytest.mark.parametrize("depth", [1, 8, 12])
@pytest.mark.parametrize("loop_prob", [0.0, 0.5])
def test_verify_rows_equal_the_public_records(depth, loop_prob):
    graphs = sample_connected_graphs(25, 2, 12, 0.5, loop_prob, seed=depth)
    for graph in graphs:
        for rst in (_DEFAULT_RST, RST):
            rows, note = _verify_one(graph, depth, rst)
            assert note is None
            assert rows == _public_rows(graph, depth, rst)
            assert [row["name"] for row in rows] == _expected_names(depth, rst)
            grid = _DEFAULT_CS_EXPONENTS
            pairs = [(p, q) for p in grid for q in grid if p <= q]
            for (p, q), row in zip(pairs, rows[1:]):
                m = twisted_moment(graph, q)
                assert row["lhs"] == m * m
                assert row["rhs"] == (twisted_moment(graph, 2 * q - 2 * p)
                                      * twisted_moment(graph, 2 * p))
            chain = rows[len(pairs) + 1 + depth + 1:][:depth - 1]
            for i, row in enumerate(chain, 1):
                assert row["lhs"] == (twisted_moment(graph, i)
                                      / twisted_moment(graph, i - 1))


def test_verify_calls_each_public_builder_once_per_graph_by_module_name(
        monkeypatch):
    # the benchmark traces these layers by rebinding the module names
    calls = {}
    for name in ("mcclelland_bound", "verify_ratio_chain", "energy_lower_bounds"):
        def counting(*args, _name=name, _fn=getattr(spectral, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(spectral, name, counting)
    for graph in sample_connected_graphs(5, 2, 8, 0.5, 0.5, seed=3):
        _verify_one(graph, 8, _DEFAULT_RST)
    assert calls == {"mcclelland_bound": 5, "verify_ratio_chain": 5,
                     "energy_lower_bounds": 5}


def test_library_chain_depth_guard():
    k2 = build(2, [(0, 1)])
    assert len(verify_ratio_chain(k2, spectral._MAX_CHAIN_DEPTH)) == (
        2 * spectral._MAX_CHAIN_DEPTH)
    with pytest.raises(SizeLimitExceeded):
        verify_ratio_chain(k2, spectral._MAX_CHAIN_DEPTH + 1)


# -- the exact equality certificate -------------------------------------------


def _float_flatness(graph):
    """(nonzero deviations equal, and none zero) read off the float spectrum."""
    center = graph.sigma / graph.order
    deviations = [abs(lam - center) for lam in eigenvalues(graph).eigenvalues]
    scale = max(deviations)
    nonzero = [d for d in deviations if d > 1e-7 * scale]
    flat = max(nonzero) - min(nonzero) <= 1e-7 * scale
    return flat, flat and len(nonzero) == graph.order


def _random_connected(rng, n):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        loops = [v for v in range(n) if rng.random() < 0.5]
        graph = build(n, edges, loops)
        if graph.size >= 1 and graph.connected:
            return graph


def test_certificate_agrees_with_the_float_spectrum():
    rng = random.Random(2311)
    graphs = [_random_connected(rng, rng.randint(2, 9)) for _ in range(600)]
    for a in range(1, 6):
        for b in range(a, 6):
            graphs.append(generate(FamilySpec.complete_bipartite(a, b)))
            graphs.append(generate(FamilySpec.complete_bipartite(
                a, b, sigma_a=a, sigma_b=b)))
    outcomes = set()
    for graph in graphs:
        certified = spectral._equal_deviations(graph)
        assert certified == _float_flatness(graph), (graph.edges, graph.loops)
        outcomes.add(certified)
    assert outcomes == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("a,b", [(6, 9), (20, 30)])
def test_near_equality_is_not_certified(a, b):
    exact = generate(FamilySpec.complete_bipartite(a, b))
    assert spectral._equal_deviations(exact) == (True, False)
    # one edge fewer: the deviations split, the moment bounds turn strict
    near = build(exact.order, exact.edges[1:])
    assert spectral._equal_deviations(near) == (False, False)
    looped = build(exact.order, exact.edges, [0])
    assert spectral._equal_deviations(looped) == (False, False)


def test_rows_failing_the_tolerance_hold_only_when_certified():
    k2 = build(2, [(0, 1)])               # deviations +-1: flat, none zero
    k23 = generate(FamilySpec.complete_bipartite(2, 3))   # flat, zeros
    path = generate(FamilySpec.path(4))   # not flat
    for graph, flat, zero_free in ((k2, True, True), (k23, True, False),
                                   (path, False, False)):
        def holds(uses_m0):
            return spectral._row(graph, "x", 2.0, 1.0, -1.0, 1e-9,
                                 uses_m0)["holds"]
        assert holds(None) is False
        assert holds(False) is flat
        assert holds(True) is (flat and zero_free)
        # a slack within the tolerance never asks for the certificate
        assert spectral._row(graph, "x", 1.0, 1.0, -1e-10, 1e-9, None)["holds"]


def test_certificate_runs_once_per_graph_and_only_on_failure():
    certificate = spectral._equal_deviations
    certificate.cache_clear()
    for graph in sample_connected_graphs(50, 4, 10, 0.5, 0.5, seed=42):
        rows, _ = _verify_one(graph, 8, _DEFAULT_RST)
        assert all(row["holds"] for row in rows)
    assert certificate.cache_info()[:2] == (0, 0)   # (hits, misses)
    k2030 = generate(FamilySpec.complete_bipartite(20, 30))
    rows, _ = _verify_one(k2030, 8, _DEFAULT_RST)
    assert all(row["holds"] for row in rows)
    failing = sum(1 for row in rows if row["slack"] < -1e-9)
    assert failing >= 1
    assert certificate.cache_info()[:2] == (failing - 1, 1)


def test_overflowing_row_is_refused():
    with pytest.raises(SizeLimitExceeded, match="overflows a float"):
        spectral._row(build(2, [(0, 1)]), "x", math.inf, 1.0, -math.inf,
                      1e-9, False)
