"""Exception types shared across the package."""


class BoundaryNoiseError(Exception):
    """Base class for all package errors."""


class PreconditionError(BoundaryNoiseError, ValueError):
    """An operation was called with inputs violating its stated preconditions."""


class TruncationMismatchError(PreconditionError):
    """A mode vector or coefficient table does not match the model truncation."""


class SingularResolventError(PreconditionError):
    """The requested resolvent point hits an eigenvalue."""

    def __init__(self, point, mode: int):
        super().__init__(f"resolvent is singular at lambda={point!r}: hits eigenvalue of mode {mode}")


class UnsupportedRepresentationError(PreconditionError):
    """The operation requires a spectral (diagonal) representation the model does not have."""


class FactorizationError(BoundaryNoiseError):
    """A covariance matrix is not finite, or not PSD within the tolerance (the message names the eigenvalue)."""


class ExistenceGateError(BoundaryNoiseError):
    """Simulation refused because the existence check did not certify convergence."""


class SpecValidationError(BoundaryNoiseError):
    """A model-spec file failed schema validation.

    ``problems`` is a list of ``(field_path, message)`` pairs.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{path or '<root>'}: {msg}" for path, msg in self.problems)
        super().__init__(f"invalid model spec: {lines}")
