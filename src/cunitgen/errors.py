"""Exception types shared across the generator pipeline."""

from __future__ import annotations


class CunitgenError(Exception):
    """Base class for all generator errors."""


class ParseError(CunitgenError):
    """Malformed source text. Carries location and the expected tokens; the
    location names the header (file) when the text came from one."""

    def __init__(self, message: str, line: int = 0, col: int = 0,
                 expected: tuple[str, ...] = (), file: str = ""):
        self.line = line
        self.col = col
        self.expected = expected
        loc = f"line {line}" if line else "input"
        if file:
            loc = f"{file}: {loc}"
        exp = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{loc}: {message}{exp}")


class UnsupportedConstruct(CunitgenError):
    """Well-formed C that lies outside the supported subset.

    Distinct from ParseError so callers can report "skipped, unsupported"
    instead of a syntax diagnostic.
    """

    def __init__(self, construct: str, line: int = 0):
        self.line = line
        loc = f" at line {line}" if line else ""
        super().__init__(f"unsupported construct{loc}: {construct}")


class SemaError(CunitgenError):
    """Name resolution or typing failure."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        loc = f"line {line}: " if line else ""
        super().__init__(f"{loc}{message}")


class AnnotationPlacementError(CunitgenError):
    """Contract annotation after the first executable statement."""


class AnnotationScopeError(CunitgenError):
    """Annotation references a local that is not an auxiliary variable."""


class UnsupportedOperation(CunitgenError):
    """The symbolic interpreter cannot model a construct on this trace."""


class StubPolicyError(UnsupportedOperation):
    """A call to a function on the do-not-stub list appeared on a trace."""


class ReplayDivergence(CunitgenError):
    """Concrete replay followed different edges than the symbolic trace.

    Indicates a soundness bug in the solver or interpreter; the offending
    test case is dropped and the constraint is logged.
    """
