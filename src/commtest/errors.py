"""Exception hierarchy shared across the package."""


class CommtestError(Exception):
    """Base class for all package errors."""


class ValidationError(CommtestError, ValueError):
    """Malformed input: bad shapes, negative masses, non-normalized vectors."""


class DimensionError(ValidationError):
    """Mismatched alphabet / output sizes between objects."""


class DegenerateInputError(CommtestError, ValueError):
    """Input is structurally valid but the operation is undefined on it
    (e.g. identical distributions handed to a channel designer)."""


class InfeasibleContaminationError(CommtestError, ValueError):
    """Contamination radius too large: the two uncertainty balls overlap."""


class NonConvergenceError(CommtestError, RuntimeError):
    """An iterative search exceeded its budget without meeting its target.

    Only `testing.empirical_sample_complexity` raises this, when no sample
    size up to its `n_max` meets the error budget."""


class StochasticFailureError(CommtestError, RuntimeError):
    """A randomized construction failed its acceptance test on every retry.

    Carries the best attempt so callers can still use it if they want.
    """

    def __init__(self, message, best=None, best_score=None):
        super().__init__(message)
        self.best = best
        self.best_score = best_score
