"""Exception types shared across the package.

One type per CLI exit code: InvalidParameters maps to exit 1, EngineFailure
to exit 2; invariant violations found by `ssp verify` map to exit 3 (no
exception; reported through the suite result). An EngineFailure's message
names the engine and what went wrong.
"""


class SspError(Exception):
    """Base class for everything raised deliberately by this package."""


class InvalidParameters(SspError, ValueError):
    """Physical or configuration parameters violate a documented precondition."""


class EngineFailure(SspError, RuntimeError):
    """A numerical engine could not produce a result at the requested quality."""
