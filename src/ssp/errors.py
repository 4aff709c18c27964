"""Exception types shared across the package.

The split matters for the CLI exit-code contract: InvalidParameters maps to
exit 1, EngineFailure subclasses map to exit 2, invariant violations found by
`ssp verify` map to exit 3 (no exception; reported through the suite result).
"""


class SspError(Exception):
    """Base class for everything raised deliberately by this package."""


class InvalidParameters(SspError, ValueError):
    """Physical or configuration parameters violate a documented precondition."""


class EngineFailure(SspError, RuntimeError):
    """A numerical engine could not produce a result at the requested quality."""


class ConvergenceFailure(EngineFailure):
    """An iterative scheme exhausted its budget before meeting tolerance."""


class StepFailure(EngineFailure):
    """Adaptive step size underflowed; the step controller cannot proceed."""


class MaxStepsExceeded(EngineFailure):
    """The integrator hit its step budget before reaching the stop condition."""


class InsufficientEvents(EngineFailure):
    """Too few turning events were recorded to estimate a period."""


class DegenerateAmplitude(SspError, ValueError):
    """Amplitude is below the degeneracy threshold for this operation."""
