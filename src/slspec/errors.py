"""Exception hierarchy shared by all slspec modules."""


class SpectralError(Exception):
    """Base class for all slspec errors."""


class DomainError(SpectralError):
    """A coordinate or interval argument lies outside [0, pi]."""


class SingularArgumentError(SpectralError):
    """An operation was requested at lambda = 0 where the formulas are singular."""


class PotentialFormatError(SpectralError):
    """A potential description (file or dict) violates the schema or the
    partition invariants.  The message names the offending breakpoint."""


class IntegrationBlowupError(SpectralError):
    """An integration produced a non-finite state, or the Prufer
    substitution degenerated.  location is where, when known."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class NonconvergenceError(SpectralError):
    """Root search exhausted its iteration budget.  Carries the best iterate."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class IndexingError(SpectralError):
    """A converged root failed the eigenvalue-index verification.

    On a real potential: the lambda cell where the Sturm counts put the
    index held another eigenvalue too.  On a complex one: the root drifted
    from its seed or no zero winds around it."""


class InternalError(SpectralError):
    """An internal invariant was violated (reported as CLI exit code 3)."""


# A root search that raises one of these flags its index and leaves the
# other indices to run; any other error stops the whole computation.
INDEX_FAILURES = (NonconvergenceError, IndexingError, IntegrationBlowupError)
