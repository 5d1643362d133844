"""Structured pass/fail verdicts emitted by every bound and lemma check."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional


@dataclass(frozen=True)
class Certificate:
    """Verdict of a single certified inequality ``lhs <= rhs``.

    ``check`` sets ``passed`` iff ``lhs <= rhs + tol``; a certificate built
    directly (Gerzon, matching, the exact PSD sweep, ``verify``) sets it
    from the whole of its own statement.  ``margin`` is derived, always
    ``rhs - lhs``.  ``statement`` spells out the inequality being checked so
    a report is readable on its own.  ``witness`` carries any structured
    evidence (eigenvalue, failing pivot, index set).
    """

    name: str
    statement: str
    passed: bool
    lhs: Any
    rhs: Any
    tol: float = 0.0
    witness: Optional[dict] = None
    skipped: bool = False
    reason: str = ""

    @classmethod
    def check(cls, name, statement, lhs, rhs, tol=0.0, witness=None):
        """Build a certificate for ``lhs <= rhs`` with the stated tolerance."""
        passed = bool(lhs <= rhs + tol)
        return cls(name=name, statement=statement, passed=passed,
                   lhs=lhs, rhs=rhs, tol=tol, witness=witness)

    @classmethod
    def skip(cls, name, reason):
        """Record that a check's preconditions did not apply."""
        return cls(name=name, statement="", passed=True, lhs=0, rhs=0,
                   tol=0.0, witness=None, skipped=True, reason=reason)

    @property
    def margin(self):
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        """Plain-data form used by report serialization."""
        def plain(x):
            if isinstance(x, Fraction):
                return f"{x.numerator}/{x.denominator}"
            if isinstance(x, (bool, int, str)) or x is None:
                return x
            if isinstance(x, float):
                return x
            if isinstance(x, dict):
                return {k: plain(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [plain(v) for v in x]
            return float(x)

        return {
            "name": self.name,
            "statement": self.statement,
            "passed": self.passed,
            "skipped": self.skipped,
            "reason": self.reason,
            "lhs": plain(self.lhs),
            "rhs": plain(self.rhs),
            "margin": plain(self.margin),
            "tol": self.tol,
            "witness": plain(self.witness),
        }
