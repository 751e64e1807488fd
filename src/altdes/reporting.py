"""Result carriers and error classes shared by the verification routines
and the command line."""

from __future__ import annotations

from typing import NamedTuple


class AltdesError(Exception):
    """Base of the exception classes this package defines."""


class UsageError(AltdesError, ValueError):
    """A bad argument or setting; the CLI exits 2 on it."""


class CheckResult(NamedTuple):
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


class ResultRow(NamedTuple):
    """One named check or value in a report.

    status is "pass", "fail", or "finding"; "finding" marks a negative
    outcome of a conjecture check (the code worked, the property failed).
    Failing rows always carry a witness.  value holds a serialized
    polynomial: a list of coefficients ascending in the exponent, or for
    bivariate polynomials a list of {t_exp, q_exp, coeff} mappings.
    display is the human-readable rendering used by text output only.
    """

    name: str
    status: str
    witness: str | None = None
    value: list | None = None
    display: str | None = None

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.value is not None:
            d["value"] = self.value
        return d


def _row(name: str, ok: bool, *, witness: str | None = None,
         finding: bool = False) -> ResultRow:
    if ok:
        return ResultRow(name, "pass")
    status = "finding" if finding else "fail"
    return ResultRow(name, status, witness=witness or f"failed: {name}")
