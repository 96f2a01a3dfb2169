"""Exception types shared across the solver stack."""


class SparseSdpError(Exception):
    """Base class for all library-specific errors."""


class NotPositiveDefinite(SparseSdpError):
    """A Cholesky pivot was not above ``PIVOT_RTOL`` times the largest
    diagonal entry (``sparsemat.cholesky_factorize``).  Line searches
    catch it to reject trial points that left the cone."""


class NotChordal(SparseSdpError):
    """(0..n-1) is not a perfect elimination ordering of the given pattern."""


class RipFailure(SparseSdpError):
    """The cliques, in the order given, lack the running intersection
    property (``chordal.rip_order`` verifies an order; it makes none)."""


class NotCompletable(SparseSdpError):
    """A partial matrix has no positive definite completion."""


class InfeasibleStart(SparseSdpError):
    """The initial point handed to the solver is not strictly feasible."""


class NoDecrease(SparseSdpError):
    """No feasible step-size starting point exists for the potential search."""


class IterationLimit(SparseSdpError):
    """The main loop ran out of iterations (or stalled) before convergence.

    ``report`` holds the partial solve report accumulated so far.
    """

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class NewtonBreakdown(IterationLimit):
    """The Cholesky factorization of a Newton matrix failed.

    The m x m matrix of the primal or dual Newton system is not
    numerically positive definite.  ``solve`` raises it with the partial
    report attached (status "breakdown"), so callers that handle
    IterationLimit handle it too.
    """


class TooManyEdges(SparseSdpError):
    """Requested more edges than a simple graph on n vertices can hold."""


class SdpaParseError(SparseSdpError):
    """Malformed SDPA sparse input; ``line`` is the 1-based offending line."""

    def __init__(self, line, message):
        self.line = int(line)
        super().__init__(f"line {line}: {message}")
