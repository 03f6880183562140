"""Exception types shared across the package."""


class FmpsatError(Exception):
    """Base class for all package errors."""


class ParseError(FmpsatError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ClassifierError(FmpsatError):
    """Structurally invalid classifier, or a query it cannot answer."""


class EncodingError(FmpsatError):
    """CNF encoding requested with unmet preconditions."""


class SolverError(FmpsatError):
    """A solver was given a malformed formula or gave an inconsistent result."""


class SolverTimeout(FmpsatError):
    """A solve call exceeded its time limit."""


class ExternalSolverError(FmpsatError):
    """Base class for external solver adapter failures."""


class SolverSpawnError(ExternalSolverError):
    """The external solver command could not be started."""


class SolverOutputError(ExternalSolverError):
    """The external solver produced output we cannot interpret."""


class SolverModelError(ExternalSolverError):
    """The external solver returned a model that fails local verification."""
