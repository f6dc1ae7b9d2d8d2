"""Exception taxonomy shared across the package."""

from __future__ import annotations


class ClpbnError(Exception):
    """Base class for all package errors."""


class ClpbnSyntaxError(ClpbnError):
    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"line {line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class InvalidProgramError(ClpbnError):
    """Raised when an operation requires a program that validates cleanly.

    Takes either the offending diagnostics or a plain message.
    """

    def __init__(self, diagnostics) -> None:
        if isinstance(diagnostics, str):
            super().__init__(diagnostics)
            self.diagnostics = []
        else:
            msgs = "; ".join(d.code for d in diagnostics)
            super().__init__(f"program has validation errors: {msgs}")
            self.diagnostics = list(diagnostics)


class EngineError(ClpbnError):
    """Derivation-aborting runtime errors (not logical failure)."""


class ArithmeticGoalError(EngineError):
    pass


class MalformedCptError(EngineError):
    """A constraint's CPT is not well formed at posting time."""


class UnconstrainedParentError(MalformedCptError):
    """A parent entry does not resolve to a constrained variable."""


class NetworkCycleError(EngineError):
    def __init__(self, message: str, cycle: list[int] | None = None) -> None:
        super().__init__(message)
        self.cycle = cycle or []


class EvidenceConflictError(ClpbnError):
    """Different evidence already recorded on the node."""


class LimitExceededError(EngineError):
    """The derivation hit the depth/step bound: distinct from failure."""


class FindallMergeError(EngineError):
    """Solution networks inside findall/setof could not be reconciled."""


class AggregatorError(EngineError):
    pass


class InferenceError(ClpbnError):
    pass


class InconsistentEvidenceError(InferenceError):
    """The evidence set has probability zero."""


class GroundingError(ClpbnError):
    pass


class PrmError(ClpbnError):
    pass


class LearnError(ClpbnError):
    pass
