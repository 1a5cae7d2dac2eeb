"""Exception taxonomy shared by all vertexset modules.

The split mirrors the three failure modes a run can hit: bad inputs
(InputError), numeric procedures that did not produce a trustworthy
answer (NumericError), and malformed configuration (ConfigError).
The CLI maps these onto distinct exit codes.
"""


class VertexSetError(Exception):
    """Base class for all errors raised by this package."""


class InputError(VertexSetError, ValueError):
    """An argument violates a documented precondition."""


class GenericityError(InputError):
    """The cubic part of the surface fails the genericity requirement."""


class JetFitError(InputError):
    """The leading jets of the vertex function do not fit their normal-form
    models, so the family is not a generic umbilic unfolding."""


class ConfigError(VertexSetError):
    """A run configuration could not be parsed or validated."""


class NumericError(VertexSetError):
    """A numeric procedure failed to produce a reliable result."""


class NearCriticalPointError(NumericError):
    """Curvature data was requested too close to a critical point of the surface."""


class InsufficientSamplingError(NumericError):
    """Too few traced points to support the requested fit or classification."""


class UnresolvedTopologyError(NumericError):
    """The traced zero set does not match any expected branch topology."""


class NoTransitionError(NumericError):
    """No vertex-count transition was found inside the search window."""


class DegenerateLevelError(NumericError):
    """The level curve consists entirely of vertices (constant curvature)."""
