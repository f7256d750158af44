import math
import random

import numpy as np
import pytest

from loopwalks import (ConstraintViolation, DisconnectedInput, FamilySpec,
                       HypothesisNotMet, LoopwalksError,
                       NegativeExponentUnsupported, build, eigenvalues, energy,
                       energy_lower_bounds, enumerate_all_graphs, generate,
                       is_connected, m3_closed_form, m4_closed_form,
                       mcclelland_bound, moment_report, trace_power,
                       twisted_moment, verify_cauchy_schwarz,
                       verify_ratio_chain, walk_counts)
from loopwalks.cli import _DEFAULT_RST
from loopwalks.spectral import (_DEFAULT_CS_EXPONENTS, _center_split,
                                _m3_closed_with_j, _spectrum)


def _random_graph(rng, n, edge_p=0.5, loop_p=0.5):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if rng.random() < edge_p]
    loops = [v for v in range(n) if rng.random() < loop_p]
    return build(n, edges, loops)


def _hat_bipartite(a, b):
    return generate(FamilySpec.complete_bipartite(a, b, sigma_a=a, sigma_b=b))


# -- eigensolver -----------------------------------------------------------


def test_k2_fully_looped_spectrum():
    spec = eigenvalues(build(2, [(0, 1)], [0, 1]))
    assert spec.eigenvalues == pytest.approx((2.0, 0.0), abs=1e-12)


def test_k2_loopless_spectrum():
    spec = eigenvalues(build(2, [(0, 1)]))
    assert spec.eigenvalues == pytest.approx((1.0, -1.0), abs=1e-12)


def test_single_vertex_spectrum():
    spec = eigenvalues(build(1, [], [0]))
    assert spec.eigenvalues == (1.0,)
    assert spec.sweeps_used == 0


def test_spectrum_sorted_and_converged():
    rng = random.Random(41)
    for _ in range(50):
        g = _random_graph(rng, rng.randint(1, 10))
        spec = eigenvalues(g)
        assert list(spec.eigenvalues) == sorted(spec.eigenvalues, reverse=True)
        assert spec.residual < 1e-10
        # QL iterations; at most 23 at order 10 over 2,000 random graphs
        assert spec.sweeps_used <= 3 * g.order


def test_spectrum_sum_identities():
    rng = random.Random(43)
    for _ in range(100):
        g = _random_graph(rng, rng.randint(1, 10))
        spec = eigenvalues(g)
        assert abs(math.fsum(spec.eigenvalues) - g.sigma) < 1e-8
        assert abs(math.fsum(x * x for x in spec.eigenvalues)
                   - (2 * g.size + g.sigma)) < 1e-8


def test_solver_reports_no_convergence_when_iterations_exhausted(monkeypatch):
    from loopwalks import NoConvergence, spectral
    monkeypatch.setattr(spectral, "_MAX_QL_ITERATIONS", 0)
    with pytest.raises(NoConvergence):
        eigenvalues(build(2, [(0, 1)]))


def test_solver_matches_numpy():
    rng = random.Random(47)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(2, 12))
        ours = eigenvalues(g).eigenvalues
        rows = [[0.0] * g.order for _ in range(g.order)]
        for u, v in g.edges:
            rows[u][v] = rows[v][u] = 1.0
        for v in g.loops:
            rows[v][v] = 1.0
        reference = sorted(np.linalg.eigvalsh(np.array(rows)), reverse=True)
        assert ours == pytest.approx(reference, abs=1e-9)


# The cyclic Jacobi iteration the solver used before Householder + QL, kept
# as a test-only reference: rotations zero each off-diagonal entry in turn
# until the largest is below 1e-12 times the Frobenius norm.
def _eigenvalues_by_jacobi(g):
    n = g.order
    rows = [[0.0] * n for _ in range(n)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = 1.0
    for v in g.loops:
        rows[v][v] = 1.0
    threshold = 1e-12 * max(1.0, math.sqrt(2 * g.size + g.sigma))
    for _ in range(100):
        if max((abs(rows[p][q]) for p in range(n) for q in range(p + 1, n)),
               default=0.0) < threshold:
            return sorted((rows[i][i] for i in range(n)), reverse=True)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = rows[p][q]
                if apq == 0.0:
                    continue
                tau = (rows[q][q] - rows[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
                if tau < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rows[p][p] -= t * apq
                rows[q][q] += t * apq
                rows[p][q] = rows[q][p] = 0.0
                for i in range(n):
                    if i != p and i != q:
                        aip, aiq = rows[i][p], rows[i][q]
                        rows[i][p] = rows[p][i] = c * aip - s * aiq
                        rows[i][q] = rows[q][i] = s * aip + c * aiq
    raise AssertionError(f"reference Jacobi did not converge on {g}")


def _assert_agrees_with_jacobi(g):
    ours = eigenvalues(g).eigenvalues
    for lam, ref in zip(ours, _eigenvalues_by_jacobi(g)):
        assert abs(lam - ref) <= 1e-12 * max(1.0, abs(ref)), (g, ours)


def test_solver_matches_jacobi_on_every_connected_graph_to_order_5():
    for n in range(1, 6):
        for g in filter(is_connected, enumerate_all_graphs(n)):
            _assert_agrees_with_jacobi(g)


def test_solver_matches_jacobi_on_random_and_degenerate_graphs():
    rng = random.Random(79)
    for _ in range(30):
        _assert_agrees_with_jacobi(_random_graph(rng, rng.randint(6, 40)))
    for n in range(2, 9):  # fully looped K_n: n once, then 0 n - 1 times
        _assert_agrees_with_jacobi(generate(FamilySpec.complete(n, loops=range(n))))
    _assert_agrees_with_jacobi(generate(FamilySpec.complete_bipartite(3, 4)))
    _assert_agrees_with_jacobi(generate(FamilySpec.petersen()))
    _assert_agrees_with_jacobi(generate(FamilySpec.kneser(3)))


@pytest.mark.parametrize("n", [40, 80])
def test_solver_iterations_grow_linearly_with_order(n):
    # Householder costs O(n^3) and QL about two iterations per eigenvalue
    spec = eigenvalues(_random_graph(random.Random(n), n))
    assert spec.sweeps_used <= 3 * n
    assert spec.residual < 1e-10


def test_solver_refuses_orders_above_the_guard(monkeypatch):
    from loopwalks import SizeLimitExceeded, spectral

    def no_matrix(graph, one):
        raise AssertionError("built a matrix past the order guard")

    monkeypatch.setattr(spectral, "adjacency_rows", no_matrix)
    with pytest.raises(SizeLimitExceeded, match="order"):
        eigenvalues(build(spectral._MAX_DENSE_ORDER + 1, []))


def test_zero_eigenvalues_are_exact():
    # K(3,4) has rank 2, so five of its seven eigenvalues are 0
    spec = eigenvalues(generate(FamilySpec.complete_bipartite(3, 4)))
    assert spec.eigenvalues.count(0.0) == 5
    assert all(math.copysign(1.0, lam) > 0 for lam in spec.eigenvalues
               if lam == 0.0)


def test_eigenvalues_at_the_center_are_exact():
    # fully looped K(3,4) is A + I: five eigenvalues at sigma/n = 1
    g = _hat_bipartite(3, 4)
    assert g.sigma / g.order == 1.0
    spec = eigenvalues(g)
    assert spec.eigenvalues.count(1.0) == 5
    expected = math.fsum(abs(lam - 1.0) ** 0.5 for lam in spec.eigenvalues
                         if lam != 1.0)
    assert twisted_moment(g, 0.5) == expected


def test_snap_tolerance_scales_with_the_spectral_radius():
    from loopwalks.spectral import _snap
    # tolerance 1e-10 at radius 1 and 1e-9 at radius 10
    assert _snap([3e-10, 1.0, -5e-11], 0.0) == (1.0, 3e-10, 0.0)
    assert _snap([3e-10, 10.0, 0.5 + 9e-10], 0.5) == (10.0, 0.5, 0.0)


# -- moments ---------------------------------------------------------------


def test_spectral_moment_k0_is_order(k4_three_loops):
    assert trace_power(k4_three_loops, 0) == 4


def test_spectral_moment_k4_example(k4_three_loops):
    assert trace_power(k4_three_loops, 4) == 207


def test_spectral_moment_k2():
    rng = random.Random(53)
    for _ in range(30):
        g = _random_graph(rng, rng.randint(1, 8))
        assert trace_power(g, 2) == 2 * g.size + g.sigma


def test_float_and_integer_moments_agree():
    rng = random.Random(59)
    for _ in range(30):
        g = _random_graph(rng, rng.randint(1, 12))
        spec = eigenvalues(g)
        for k in range(7):
            exact = trace_power(g, k)
            via_floats = math.fsum(x ** k for x in spec.eigenvalues)
            assert abs(via_floats - exact) <= 1e-6 * max(1.0, abs(exact))


def test_twisted_q0_is_order():
    rng = random.Random(61)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(1, 8))
        assert twisted_moment(g, 0.0) == pytest.approx(g.order, abs=1e-12)


def test_twisted_q2_closed_form():
    rng = random.Random(67)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 9))
        expected = 2 * g.size + g.sigma - g.sigma ** 2 / g.order
        assert twisted_moment(g, 2.0) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (2, 3), (3, 4)])
def test_twisted_hat_bipartite(a, b):
    g = _hat_bipartite(a, b)
    assert twisted_moment(g, 2.0) == pytest.approx(2 * a * b, abs=1e-9)
    assert twisted_moment(g, 4.0) == pytest.approx(2 * (a * b) ** 2, abs=1e-8)


def test_twisted_rejects_negative_exponent(k4_three_loops):
    with pytest.raises(NegativeExponentUnsupported):
        twisted_moment(k4_three_loops, -1.0)


def _fresh_twisted(spec, center, q):
    return math.fsum(abs(lam - center) ** q for lam in spec.eigenvalues)


def test_twisted_memo_matches_fresh_sums_for_verify_exponents():
    exponents = set(range(9))
    exponents.update(q for triple in _DEFAULT_RST for q in triple)
    for p in _DEFAULT_CS_EXPONENTS:
        for q in _DEFAULT_CS_EXPONENTS:
            if p <= q:
                exponents.update((q, 2 * q - 2 * p, 2 * p))
    rng = random.Random(71)
    checked = 0
    while checked < 30:
        g = _random_graph(rng, rng.randint(4, 10))
        if g.size < 1 or not is_connected(g):
            continue
        checked += 1
        mcclelland_bound(g)
        for p in _DEFAULT_CS_EXPONENTS:
            for q in _DEFAULT_CS_EXPONENTS:
                if p <= q:
                    verify_cauchy_schwarz(g, p, q)
        verify_ratio_chain(g, 8)
        energy_lower_bounds(g, _DEFAULT_RST)
        spec = _spectrum(g)
        center = g.sigma / g.order
        assert spec.moments.deviations == [abs(lam - center)
                                           for lam in spec.eigenvalues]
        assert set(spec.moments) >= exponents
        for q, value in spec.moments.items():
            assert value == _fresh_twisted(spec, center, q)
        for q in exponents:
            assert twisted_moment(g, q) == _fresh_twisted(spec, center, q)
        assert energy(g) == math.fsum(
            abs(lam - center) for lam in spec.eigenvalues)


def test_twisted_memo_is_keyed_by_center():
    g = build(4, [(0, 1), (1, 2), (2, 3)], [0, 1])
    _spectrum.cache_clear()
    by_sigma = twisted_moment(g, 2.0)       # center sigma/n = 0.5
    spec = _spectrum(g)
    assert by_sigma == _fresh_twisted(spec, 0.5, 2.0)
    assert set(spec.moments) == {2.0}
    assert energy(g) == _fresh_twisted(spec, 0.5, 1.0)
    # the memo takes no part in equality, hashing or repr
    assert spec == eigenvalues(g)
    assert hash(spec) == hash(eigenvalues(g))
    assert "moments" not in repr(spec)


def test_caller_faults_raise_package_errors(k4_three_loops):
    with pytest.raises(LoopwalksError):
        verify_ratio_chain(k4_three_loops, 0)


def test_energy_k2_classical():
    assert energy(build(2, [(0, 1)])) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (3, 3), (4, 2)])
def test_energy_hat_bipartite(a, b):
    assert energy(_hat_bipartite(a, b)) == pytest.approx(2 * math.sqrt(a * b), abs=1e-9)


def test_energy_at_least_4m_over_n_spot():
    rng = random.Random(71)
    count = 0
    while count < 30:
        g = _random_graph(rng, rng.randint(2, 9))
        from loopwalks import is_connected
        if g.size < 1 or not is_connected(g):
            continue
        assert energy(g) >= 4 * g.size / g.order - 1e-9
        count += 1


# -- closed forms of the third and fourth twisted moments --------------------


def test_m4_closed_form_loopless_equals_w4():
    for g in enumerate_all_graphs(4):
        if g.sigma == 0:
            assert m4_closed_form(g) == pytest.approx(walk_counts(g).w4, abs=1e-12)


def test_closed_forms_match_direct_exhaustive_n4():
    for g in enumerate_all_graphs(4):
        assert m3_closed_form(g) == pytest.approx(
            twisted_moment(g, 3.0), abs=1e-7)
        assert m4_closed_form(g) == pytest.approx(
            twisted_moment(g, 4.0), abs=1e-7)


def test_m3_split_index_ties_are_value_irrelevant():
    # eigenvalues equal to sigma/n contribute nothing, so moving the split
    # across the tie band must not change the result materially
    candidates = 0
    for g in enumerate_all_graphs(3):
        spec = eigenvalues(g)
        center = g.sigma / g.order
        ties = sum(1 for lam in spec.eigenvalues if abs(lam - center) < 1e-9)
        if ties == 0:
            continue
        candidates += 1
        j = _center_split(g, spec)
        value = _m3_closed_with_j(g, spec, j)
        assert _m3_closed_with_j(g, spec, j - ties) == pytest.approx(value, abs=1e-9)
    assert candidates > 0


# -- inequality records ------------------------------------------------------


def test_mcclelland_record(k4_three_loops):
    record = mcclelland_bound(k4_three_loops)
    assert record["holds"]
    expected = math.sqrt(4 * (2 * 6 + 3 - 9 / 4))
    assert record["rhs"] == pytest.approx(expected, abs=1e-12)
    assert record["lhs"] == pytest.approx(energy(k4_three_loops), abs=1e-12)


def test_cauchy_schwarz_equals_mcclelland_at_q1_p1(k4_three_loops):
    record = verify_cauchy_schwarz(k4_three_loops, 1.0, 1.0)
    e = energy(k4_three_loops)
    n = k4_three_loops.order
    assert record["lhs"] == pytest.approx(e * e, abs=1e-9)
    assert record["rhs"] == pytest.approx(n * twisted_moment(k4_three_loops, 2.0), abs=1e-9)
    assert record["holds"]


def test_cauchy_schwarz_equal_exponents_use_m0():
    g = generate(FamilySpec.cycle(5, loops=(0, 2)))
    for q in (0.5, 1.0, 2.0):
        record = verify_cauchy_schwarz(g, q, q)
        assert record["rhs"] == pytest.approx(
            g.order * twisted_moment(g, 2 * q), abs=1e-9)
        assert record["holds"]


def test_cauchy_schwarz_grid_random_connected():
    rng = random.Random(73)
    from loopwalks import is_connected
    grid = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
    count = 0
    while count < 25:
        g = _random_graph(rng, rng.randint(2, 8))
        if g.size < 1 or not is_connected(g):
            continue
        for i, p in enumerate(grid):
            for q in grid[i:]:
                record = verify_cauchy_schwarz(g, p, q)
                assert record["slack"] >= -1e-9, (g, p, q, record)
        count += 1


def test_cauchy_schwarz_rejects_bad_exponents(k4_three_loops):
    with pytest.raises(ConstraintViolation):
        verify_cauchy_schwarz(k4_three_loops, 2.0, 1.0)
    with pytest.raises(NegativeExponentUnsupported):
        verify_cauchy_schwarz(k4_three_loops, -1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_every_exponent_is_refused_by_one_check(monkeypatch, k4_three_loops, bad):
    # M_q is defined for finite q >= 0; each entry point refuses the rest
    # through spectral._require_exponents, not through a check of its own
    from loopwalks import spectral

    calls = []
    check = spectral._require_exponents

    def counted(*qs):
        calls.append(qs)
        check(*qs)

    monkeypatch.setattr(spectral, "_require_exponents", counted)
    for refused in (lambda: twisted_moment(k4_three_loops, bad),
                    lambda: verify_cauchy_schwarz(k4_three_loops, 0.0, bad),
                    lambda: energy_lower_bounds(k4_three_loops, [(bad, 0.0, 2.0)])):
        before = len(calls)
        with pytest.raises(NegativeExponentUnsupported, match="finite and >= 0"):
            refused()
        assert len(calls) == before + 1


def test_ratio_chain_p3():
    records = verify_ratio_chain(generate(FamilySpec.path(3)), 6)
    assert all(r["holds"] for r in records)
    names = [r["name"] for r in records]
    assert names.count("ratio_chain[q=1]") == 1
    assert sum(1 for name in names if name.startswith("ratio_chain")) == 5
    assert sum(1 for name in names if name.startswith("twisted_positive")) == 7


def test_ratio_chain_c3_fully_looped():
    g = generate(FamilySpec.cycle(3, loops=(0, 1, 2)))
    assert all(r["holds"] for r in verify_ratio_chain(g, 8))


def test_ratio_chain_requires_connected():
    with pytest.raises(DisconnectedInput):
        verify_ratio_chain(build(4, [(0, 1), (2, 3)]), 4)


def test_ratio_chain_rejects_edgeless_vertex():
    with pytest.raises(HypothesisNotMet):
        verify_ratio_chain(build(1, [], [0]), 4)


def test_energy_lower_bounds_hat_k22_equality():
    g = _hat_bipartite(2, 2)
    records = {r["name"]: r for r in energy_lower_bounds(g)}
    moment_bound = records["energy_lb_moments"]
    assert moment_bound["holds"]
    assert abs(moment_bound["slack"]) < 1e-9
    assert records["energy_lb_edge_density"]["holds"]


def test_energy_lower_bounds_loopless_bipartite_equality():
    g = generate(FamilySpec.complete_bipartite(3, 2))
    record = next(r for r in energy_lower_bounds(g) if r["name"] == "energy_lb_moments")
    assert abs(record["slack"]) < 1e-9


def test_energy_lower_bounds_rst_triple():
    g = generate(FamilySpec.cycle(6, loops=(1, 2)))
    records = energy_lower_bounds(g, rst_triples=((1.0, 0.0, 2.0),))
    rst = next(r for r in records if r["name"].startswith("energy_lb_rst"))
    assert rst["holds"]
    # r=1, s=0, t=2 rearranges to the McClelland upper bound
    e = energy(g)
    assert rst["rhs"] == pytest.approx(
        e * e / math.sqrt(g.order * twisted_moment(g, 2.0)), abs=1e-9)


def test_energy_lower_bounds_rejects_bad_triple(k4_three_loops):
    with pytest.raises(ConstraintViolation):
        energy_lower_bounds(k4_three_loops, rst_triples=((1.0, 1.0, 2.0),))


def test_energy_lower_bounds_requires_hypotheses():
    with pytest.raises(DisconnectedInput):
        energy_lower_bounds(build(3, [(0, 1)]))
    with pytest.raises(HypothesisNotMet):
        energy_lower_bounds(build(1, [], [0]))


def test_positivity_connected_suite_spot():
    count = 0
    for g in filter(is_connected, enumerate_all_graphs(4)):
        if g.size < 1:
            continue
        if count % 37 == 0:  # thin the sweep; the full one runs in acceptance
            records = verify_ratio_chain(g, 10)
            for record in records:
                if record["name"].startswith("twisted_positive"):
                    assert record["lhs"] > 1e-12
        count += 1


# -- the assembled report ----------------------------------------------------


def test_moment_report_invariants(k4_three_loops):
    report = moment_report(k4_three_loops, qs=(0.0, 1.0, 2.0))
    g = k4_three_loops
    moments = report["moments"]
    twisted = moments["twisted"]
    assert twisted["0"] == pytest.approx(g.order, abs=1e-12)
    assert twisted["1"] == pytest.approx(moments["energy"], abs=1e-12)
    assert twisted["2"] == pytest.approx(
        2 * g.size + g.sigma - g.sigma ** 2 / g.order, abs=1e-8)
    assert moments["spectral_moments"] == [4, 3, 15, 54, 207]
    assert all(record["holds"] for record in report["bounds"])


def test_moment_report_disconnected_has_no_bounds():
    report = moment_report(build(4, [(0, 1), (2, 3)]))
    assert report["bounds"] == []
