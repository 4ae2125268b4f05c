"""Exception types shared across the library."""

from __future__ import annotations


class FaultcastError(Exception):
    """Base class for every error raised by this package."""


class InvalidIntervalError(FaultcastError, ValueError):
    """Interval bounds are not extended naturals in the right order."""


class InitialFaultyError(FaultcastError, ValueError):
    """Fault closure reached the initial state, so every run is faulty."""


class InvalidModelError(FaultcastError, ValueError):
    """A model failed structural validation.

    Carries every finding of `validate`, as `findings`, so callers can
    show them all.
    """

    def __init__(self, findings) -> None:
        lines = "; ".join(f.message for f in findings)
        super().__init__(f"invalid model: {lines}")
        self.findings = findings


class ModelSyntaxError(FaultcastError, ValueError):
    """A model file could not be parsed; knows where the problem is."""

    def __init__(self, message: str, line: int, column: int | None = None) -> None:
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class ImpossibleObservationError(FaultcastError):
    """An observed event cannot be explained by any trace of the model."""


class NoWitnessError(FaultcastError):
    """Witness reconstruction was requested but parent links were not kept."""


class CapExceededError(FaultcastError):
    """Belief enumeration grew past the configured node cap."""

    def __init__(self, cap: int, explored: int) -> None:
        super().__init__(
            f"belief node cap exceeded: cap={cap}, nodes explored so far={explored}"
        )
        self.cap = cap
        self.explored = explored
