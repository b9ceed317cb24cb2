"""Exception types raised by surfpoly.

Every error raised on bad user input derives from :class:`SurfPolyError`;
errors that indicate a corrupted internal state (impossible for validated
input) derive from :class:`InternalInvariantError`.
"""


class SurfPolyError(Exception):
    """Base class for all surfpoly errors."""


# ---- map files / combinatorial maps ----

class MapFormatError(SurfPolyError):
    """Map or link file text does not conform to the documented grammar."""


class MalformedPermutation(MapFormatError):
    """sigma is not a bijection on the dart set."""


class AlphaNotInvolution(MapFormatError):
    """alpha is not a fixed-point-free involution."""


class DanglingDart(MapFormatError):
    """A dart occurs in sigma but not alpha, or vice versa."""


class EdgeNotInGraph(SurfPolyError):
    """Requested edge is not part of the marked graph."""


class LoopContraction(SurfPolyError):
    """Contracting a loop is undefined for this artifact."""


class NotSpanning(SurfPolyError):
    """Subgraph edge set touches a vertex outside the marked vertex set."""


class NotCellulation(SurfPolyError):
    """Operation requires the marked graph to be the full cellulation."""


# ---- polynomial engine ----

class NonLaurentResult(SurfPolyError):
    """Substitution would require division by a non-monomial."""


class TooManyEdges(SurfPolyError):
    """Edge count exceeds the state-sum cap."""


class TooManyStates(SurfPolyError):
    """The frontier DP of a state sum needs more states than its limit."""


class TooManyCrossings(SurfPolyError):
    """Crossing count exceeds the state-sum cap."""


# ---- link diagrams ----

class LinkFormatError(MapFormatError):
    """Link file text does not conform to the documented grammar."""


class NotFourValent(LinkFormatError):
    """A crossing does not have exactly four darts."""


class OverPairNotOpposite(LinkFormatError):
    """The over-strand darts are not opposite in the crossing rotation."""


class NotAlternating(SurfPolyError):
    """Diagram is not alternating on its surface."""


class MissingOrientation(SurfPolyError):
    """Operation needs strand orientations but none were assigned."""


# ---- homology ----

class DimensionMismatch(SurfPolyError):
    """Subspace ambient dimension does not match the symplectic space."""


# ---- internal consistency ----

class InternalInvariantError(SurfPolyError):
    """A structural invariant failed; indicates a bug, not bad input."""


class InternalEulerParity(InternalInvariantError):
    """Component Euler characteristic has odd defect (corrupted map)."""


class RadicalNotBoundaries(InternalInvariantError):
    """A face boundary pairs nonzero under the intersection form."""
