"""Exception types shared across the solver stack."""


class SparseSdpError(Exception):
    """Base class for all library-specific errors."""


class NotPositiveDefinite(SparseSdpError):
    """A Cholesky pivot was not strictly positive.

    ``pivot`` is the 0-based index of the offending pivot: its LDL^T pivot
    fails the test, and every pivot below it in the elimination tree
    passes (``sparsemat.cholesky_factorize``).  Line searches catch this
    to reject trial points that left the cone.
    """

    def __init__(self, pivot, message=None):
        self.pivot = int(pivot)
        super().__init__(message or f"pivot {self.pivot} is not strictly positive")


class NotChordal(SparseSdpError):
    """(1..n) is not a perfect elimination ordering of the given pattern."""


class RipFailure(SparseSdpError):
    """No running-intersection ordering could be produced for the cliques."""


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
