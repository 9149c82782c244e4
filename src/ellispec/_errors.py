"""Exception hierarchy shared across the package."""


class EllispecError(Exception):
    """Base class for all package-specific errors."""


class InvalidGraphError(EllispecError):
    """The input graph violates a structural requirement (zero degree,
    asymmetry, nonpositive or non-finite weight, ...)."""


class InvalidPartitionError(EllispecError):
    """A label vector does not form a valid k-way partition."""


class ConvergenceError(EllispecError):
    """An iterative solver hit its budget before reaching tolerance.

    Carries the achieved residual/gap in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class RankError(EllispecError):
    """Input columns are rank-deficient where full rank is required."""

    def __init__(self, message, numerical_rank=None):
        super().__init__(message)
        self.numerical_rank = numerical_rank
