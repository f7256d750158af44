"""Exception hierarchy shared across the package."""


class LoopwalksError(Exception):
    """Base class for every error raised by this package."""


class GraphBuildError(LoopwalksError, ValueError):
    """Invalid input while constructing a graph."""


class IndexOutOfRange(GraphBuildError):
    """A vertex index falls outside 0..order-1, or the order is not positive."""


class DuplicateEdge(GraphBuildError):
    """An edge or loop appears more than once in the input."""


class SelfPairInEdgeList(GraphBuildError):
    """A pair {v, v} appeared in the edge list; loops belong in the loop list."""


class SizeLimitExceeded(LoopwalksError, ValueError):
    """Input exceeds the size guard of an exponential-cost routine."""


class FloatOverflow(SizeLimitExceeded):
    """A twisted moment or a bound value of one graph is past the float
    range."""


class InvalidSpec(LoopwalksError, ValueError):
    """A family description is malformed or out of the generator's range."""


class UnsupportedFamily(LoopwalksError, ValueError):
    """No closed-form expression is available for this family."""


class InvalidLoopPlacement(LoopwalksError, ValueError):
    """Loop placement is inconsistent with the family or with a closed form's
    branch conditions."""


class NoConvergence(LoopwalksError, RuntimeError):
    """The eigensolver failed to converge; indicates a bug, not bad input."""


class SamplerExhausted(LoopwalksError, RuntimeError):
    """Rejection sampling found too few connected graphs within its budget."""


class NegativeExponentUnsupported(LoopwalksError, ValueError):
    """Twisted moments are only defined here for finite q >= 0."""


class HypothesisNotMet(LoopwalksError, ValueError):
    """The graph does not satisfy the hypotheses of the requested bound."""


class DisconnectedInput(HypothesisNotMet):
    """The requested verification assumes a connected graph."""


class ConstraintViolation(LoopwalksError, ValueError):
    """Caller-supplied bound parameters violate their side constraint."""


class ParseError(LoopwalksError, ValueError):
    """A graph file does not conform to the expected text format."""
