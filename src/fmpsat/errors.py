"""Exception types shared across the package, and its one deadline test."""

import time


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


def check_deadline(deadline: float, message: str) -> None:
    """Raise ``SolverTimeout(message)`` once ``time.time()`` is past the
    deadline; ``math.inf`` means no limit."""
    if time.time() > deadline:
        raise SolverTimeout(message)

