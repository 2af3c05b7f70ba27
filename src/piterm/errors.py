"""Exception hierarchy with stable machine-readable codes."""

from __future__ import annotations


class PiError(Exception):
    """Base class for all workbench errors."""

    code = "ERR"

    def __init__(self, message: str, where: str | None = None):
        self.message = message
        self.where = where
        super().__init__(self.render())

    def render(self) -> str:
        if self.where:
            return f"[{self.code}] {self.message} (at {self.where})"
        return f"[{self.code}] {self.message}"


class InternalError(Exception):
    """An invariant of piterm failed: a fault of the program, never a verdict
    on the input, so it is deliberately not a `PiError`."""

    code = "INTERNAL"

    def __init__(self, message: str):
        super().__init__(f"[{self.code}] {message}")


class ParseError(PiError):
    code = "SYN"

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(message, where=f"line {line}, column {col}")


class SortError(PiError):
    """A value of the wrong sort, e.g. arithmetic substituted into subject position."""

    code = "SRT"


class IllTyped(PiError):
    """Base class for type-checker rejections."""

    code = "ILL"


class CapabilityError(IllTyped):
    code = "CAP"


class PayloadMismatch(IllTyped):
    code = "PAY"


class LevelViolation(IllTyped):
    code = "LVL"


class UnboundName(IllTyped):
    code = "UNB"


class MissingAnnotation(IllTyped):
    code = "ANN"


class FunctionalInputNotIsolated(IllTyped):
    code = "FUN"


class UnificationFailure(PiError):
    code = "UNI"


class OccursCheckFailure(UnificationFailure):
    code = "OCC"


class NotLocalised(PiError):
    code = "LOC"


class CyclicLevelConstraint(PiError):
    code = "CYC"

    def __init__(self, message: str, cycle: list[str] | None = None):
        self.cycle = cycle or []
        super().__init__(message)


class CertificationFailure(PiError):
    code = "CERT"


class IllTypedLambda(PiError):
    code = "LAM"
