"""Closed-walk counts, subgraph census, spectral moments and energy bounds
for graphs with self-loops."""

from .census import (SubgraphCensus, four_cycle_census, loop_boundary,
                     subgraph_census, triangle_census)
from .errors import (ConstraintViolation, DisconnectedInput, DuplicateEdge,
                     FloatOverflow, GraphBuildError, HypothesisNotMet,
                     IndexOutOfRange, InvalidLoopPlacement, InvalidSpec,
                     LoopwalksError, NegativeExponentUnsupported,
                     NoConvergence, ParseError, SamplerExhausted,
                     SelfPairInEdgeList, SizeLimitExceeded, UnsupportedFamily)
from .families import FamilySpec, enumerate_all_graphs, generate
from .graph_core import (AdjacencyMatrix, SelfLoopGraph, adjacency, build,
                         is_connected)
from .graphio import load_graph, parse_graph, serialize_graph
from .oracle import WalkEnumeration, enumerate_closed_walks, trace_power
from .spectral import (MomentReport, Spectrum, eigenvalues, energy,
                       energy_lower_bounds, m3_closed_form, m4_closed_form,
                       mcclelland_bound, moment_report, twisted_moment,
                       verify_cauchy_schwarz, verify_ratio_chain)
from .walks import WalkCounts, closed_form_w3, closed_form_w4, walk_counts

__version__ = "0.1.0"
