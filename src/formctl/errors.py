"""Exception hierarchy shared across the package.

Domain errors (bad inputs to an otherwise well-formed request) derive from
:class:`DomainError`; malformed files derive from :class:`InputFormatError`.
The CLI maps the former to exit code 1 and the latter to exit code 2.
"""


class FormctlError(Exception):
    """Base class for all package errors."""


class DomainError(FormctlError):
    """A structurally valid request that violates a precondition."""


class InputFormatError(FormctlError):
    """A file or text payload that does not parse."""


# -- digraph ---------------------------------------------------------------

class InvalidIndices(DomainError):
    """Vertex index out of range, or a forbidden self-loop."""


class NotWeaklyConnected(DomainError):
    """Operation requires the undirected shadow of the graph to be connected."""


# -- liealg ----------------------------------------------------------------

class SizeMismatch(DomainError):
    """Operands have incompatible sizes."""


class NotZeroRowSum(DomainError):
    """Matrix rows do not all sum to zero."""


class EmptyGeneratorSet(DomainError):
    pass


# -- configspace -----------------------------------------------------------

class EmptySubset(DomainError):
    pass


class IndexOutOfRange(DomainError):
    pass


class RankMismatch(DomainError):
    """Configuration rank differs from the requested stratum."""


class Degenerate(DomainError):
    """Configuration rank below the ambient dimension where full rank is required."""


class SimplexDegenerate(DomainError):
    pass


class DimensionMismatch(DomainError):
    pass


class InvalidStratum(DomainError):
    pass


# -- larc ------------------------------------------------------------------

class NotInControllableSet(DomainError):
    """Some maximal component's sub-configuration is degenerate."""


class StructuralFailure(DomainError):
    """Graph does not meet the size condition on maximal components."""


# -- dynamics --------------------------------------------------------------

class NegativeDuration(DomainError):
    pass


class UnknownEdge(DomainError):
    """Control references an edge absent from the active graph."""


class InconsistentSchedule(DomainError):
    pass


class StepTooLarge(DomainError):
    pass


class SegmentFailure(DomainError):
    """A steering leg missed its residual target.

    Attributes carry the failing leg: ``leg`` is the 0-based index of the
    waypoint pair, ``residual`` the best residual achieved for it.
    """

    def __init__(self, leg: int, residual: float, target: float):
        self.leg = leg
        self.residual = residual
        self.target = target
        super().__init__(
            f"steering between waypoints {leg} and {leg + 1} reached residual "
            f"{residual:.3e} > target {target:.3e}"
        )
