"""Semantic exceptions shared across the package."""


class LlnLabError(Exception):
    """Base class for all package errors."""


class SpecError(LlnLabError, ValueError):
    """A JSON problem description is malformed or inconsistent."""


class NotApplicableError(LlnLabError, ValueError):
    """A condition does not apply to the array, e.g. the series to a non-sequence array."""


class RowRangeError(LlnLabError, IndexError):
    """A row index lies outside the declared range of an array or weight scheme."""


class SamplingError(LlnLabError, ValueError):
    """An array cannot be sampled: an unsupported dependence, paths of an array
    that is not sequence-shaped, or a partial sum that leaves float range."""


class DominationPrecheckError(LlnLabError, ValueError):
    """A truncated-moment bound was requested for an array the given tail does not dominate."""


class WorkerError(LlnLabError, RuntimeError):
    """A simulation worker process died before returning its replications."""


class RepsError(LlnLabError, MemoryError):
    """The per-replication results of a simulation do not fit in memory."""
