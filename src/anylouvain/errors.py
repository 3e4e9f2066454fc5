"""Exception types raised across the package."""


class LouvainError(Exception):
    """Base class for all errors raised by this package."""


class ZeroEdgeMass(LouvainError):
    """A criterion that divides by the total edge mass got a graph with 2m = 0."""


class ZeroDegreeNode(LouvainError):
    """A degree-normalized weight transform hit a node of degree zero."""


class WeightedInputNotSupported(LouvainError):
    """The requested criterion is defined for unweighted graphs only."""


class NotPluggable(LouvainError):
    """The requested criterion cannot be optimized by local greedy moves."""


class NodeNotInCommunity(LouvainError):
    """remove() was called for a node that is not in the given community."""


class NodeAlreadyPlaced(LouvainError):
    """insert() was called for a node that already belongs to a community."""


class UnknownCommunity(LouvainError):
    """A community id is out of range for the current state."""


class SweepCapExceeded(LouvainError):
    """A local-move pass failed to converge within ``10 * n`` sweeps.

    This guards against non-terminating sweeps, which indicate a broken
    gain implementation (an accepted move must strictly improve quality).
    """


class ConfigError(LouvainError, ValueError):
    """A run setting is out of range (e.g. a non-positive precision)."""


class TooLarge(LouvainError):
    """A size limit was passed: exhaustive enumeration of more than 10
    nodes, or a graph of ``2**31`` nodes or more (``graph.NODE_LIMIT``)."""


class ParseError(LouvainError):
    """An input file line could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NegativeWeight(LouvainError):
    """An edge with negative weight was supplied."""


class UnknownLabel(LouvainError):
    """A partition file references a node label absent from the graph."""
