"""Exception types shared across the package.

Every error raised on a violated precondition derives from HomcxError so
callers (the CLI in particular) can map failures to exit codes in one place.
"""


class HomcxError(Exception):
    """Base class for all package errors."""


class GraphInputError(HomcxError):
    """Malformed graph data: loops, duplicate or out-of-range edges, bad JSON shape."""


class NotConnected(HomcxError):
    """An operation that requires a connected graph received a disconnected one."""


class NotHomomorphism(HomcxError):
    """A vertex map does not send every edge to an edge."""


class SourceTargetMismatch(HomcxError):
    """Walk composition attempted where target and source do not meet."""


class NotClosed(HomcxError):
    """A closed walk was required."""


class NotNeighbor(HomcxError):
    """A vertex outside the required neighborhood was supplied."""


class EndpointMismatch(HomcxError):
    """A walk's endpoints do not match the required vertex pair."""


class NotValid(HomcxError):
    """A walk failed the closed-walk compatibility test needed to span a homotopy."""


class NotInFiber(HomcxError):
    """A set-valued map does not lie over the prescribed base homomorphism."""


class NotInDomain(HomcxError):
    """An operator was applied outside its filtration domain."""


class NoSink(HomcxError):
    """The interaction digraph has vertices but no sink; the input was inconsistent."""


class OutOfWindow(HomcxError):
    """A cover query left the materialized radius."""


class NotSquareFree(HomcxError):
    """The target graph contains a 4-cycle subgraph.

    The witness attribute holds one offending vertex quadruple (a, b, c, d)
    tracing the cycle a-b-c-d-a.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class EmptyHomSet(HomcxError):
    """No homomorphism exists between the given graphs."""


class InvariantViolation(HomcxError):
    """A machine-checked structural guarantee failed; indicates a bug or bad input."""


class ExplosionGuard(HomcxError):
    """An enumeration exceeded its configured size cap."""
