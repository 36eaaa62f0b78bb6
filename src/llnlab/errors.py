"""Semantic exceptions shared across the package."""


class LlnLabError(Exception):
    """Base class for all package errors."""


class SpecError(LlnLabError, ValueError):
    """A JSON problem description is malformed or inconsistent."""


class RowRangeError(LlnLabError, IndexError):
    """A row index lies outside the declared range of an array or weight scheme."""


class SamplingError(LlnLabError, ValueError):
    """A distribution/dependence combination cannot be sampled (e.g. missing quantile)."""


class DominationPrecheckError(LlnLabError, ValueError):
    """A truncated-moment bound was requested for an array the given tail does not dominate."""


class SuperlinearityError(LlnLabError, ValueError):
    """A witness function fails the required g(x)/x -> infinity growth."""


class WorkerError(LlnLabError, RuntimeError):
    """A simulation worker process died before returning its replications."""
