"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Vector or matrix shapes are inconsistent with each other."""


class InnerProjectionError(RuntimeError):
    """The iterative coefficient-space projection failed to reach a usable
    primal residual within its iteration budget."""


class WorkerDied(RuntimeError):
    """A worker process of a sweep's process pool ended before it returned
    its trials, so the sweep has no result to write."""
