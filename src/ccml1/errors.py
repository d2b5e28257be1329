"""Exception types shared across the package."""


class CcmL1Error(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CcmL1Error):
    """An evaluation received vectors/matrices of inconsistent shape."""


class MetricDomainError(CcmL1Error):
    """The metric is not positive definite (or not valid) at the queried state.

    ``row`` is the index of the offending row in the batch the raising call
    was given, or None.
    """

    def __init__(self, message, x=None, row=None):
        super().__init__(message)
        self.x = x
        self.row = row


class MetricValidationError(CcmL1Error):
    """Construction-time sampling found the declared eigenvalue bounds violated."""


class GeodesicDomainError(CcmL1Error):
    """Geodesic endpoint outside the metric's validated domain; ``row`` is
    the batch row it belongs to, or None."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class InfeasibleCertificate(CcmL1Error):
    """Tube conditions cannot be satisfied; carries the binding condition."""

    def __init__(self, message, binding=None):
        super().__init__(message)
        self.binding = binding


class PlannerFailure(CcmL1Error):
    """Trajectory optimizer made no progress at maximum regularization."""


class DivergenceError(CcmL1Error):
    """Simulated state exceeded the divergence threshold.  A lockstep run
    records it as the reason its row stopped; nothing raises it."""


class ScenarioError(CcmL1Error):
    """Scenario file failed schema validation or refers to unknown entities."""
