"""Exception types shared across the library."""


class IterationLimit(RuntimeError):
    """Active-set pivot budget exhausted; the input is numerically degenerate."""


class NotInDualCone(ValueError):
    """Vector violates the dual-cone inequalities beyond tolerance."""


class BadInterval(ValueError):
    """Interval endpoints are not strictly increasing."""


class MomentFitFailed(RuntimeError):
    """Weight fit on the candidate grid missed the moments.

    Usually means the grid is too coarse for the requested degree; retry
    with a denser grid.
    """
