"""Shared exception types used across the package."""


class DimensionError(ValueError):
    """An input's dimension does not match the declared dimension."""


class InputError(ValueError):
    """Malformed, empty, or otherwise unusable input data."""


class ParameterError(ValueError):
    """Construction or learner parameters lie outside the valid region."""


class ResourceLimitError(RuntimeError):
    """A size cap (expansion, cube enumeration, LP size) was exceeded."""


class SolverError(RuntimeError):
    """An LP solve ended without an optimum."""


class InfeasibleError(SolverError):
    """The LP has no feasible point (typically the weight cap is too small)."""
