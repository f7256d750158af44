"""Property tests on looped graphs of order 6 to 12, past the exhaustive
sweep of orders up to 5: the three walk-count routes, the spectral moments
against the traces, and the file format's round trip."""

import math
from itertools import combinations

from hypothesis import given, settings, strategies as st

from loopwalks import (build, enumerate_closed_walks, moment_report,
                       parse_graph, serialize_graph, trace_power, walk_counts)


@st.composite
def looped_graphs(draw):
    n = draw(st.integers(min_value=6, max_value=12))
    pairs = list(combinations(range(n), 2))
    edge_bits = draw(st.lists(st.booleans(), min_size=len(pairs),
                              max_size=len(pairs)))
    loop_bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return build(n, [pair for pair, bit in zip(pairs, edge_bits) if bit],
                 [v for v, bit in enumerate(loop_bits) if bit])


_SETTINGS = settings(derandomize=True, database=None, max_examples=60,
                     deadline=None)


@_SETTINGS
@given(looped_graphs())
def test_formula_trace_and_enumeration_agree(g):
    wc = walk_counts(g)
    for k, formula in enumerate((wc.w1, wc.w2, wc.w3, wc.w4), start=1):
        assert formula == trace_power(g, k) == enumerate_closed_walks(g, k).total


@_SETTINGS
@given(looped_graphs())
def test_spectral_moments_match_traces(g):
    report = moment_report(g)
    traces = tuple(trace_power(g, k) for k in range(5))
    assert report.spectral_moments == traces
    for k in range(1, 5):
        power_sum = math.fsum(x ** k for x in report.spectrum.eigenvalues)
        assert abs(power_sum - traces[k]) <= 1e-8 * max(1, traces[k])


@_SETTINGS
@given(looped_graphs())
def test_file_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g
