"""Result carrier and error base shared by the verification routines."""

from __future__ import annotations

from dataclasses import dataclass


class AltdesError(Exception):
    """Base of the exception classes this package defines."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single verification.

    Truthiness follows ``ok`` so callers may treat a CheckResult as a
    bool; ``witness`` holds the first counterexample when ``ok`` is
    False.
    """

    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def passed(cls) -> "CheckResult":
        return cls(True, None)

    @classmethod
    def failed(cls, witness: str) -> "CheckResult":
        return cls(False, witness)
