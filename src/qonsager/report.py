"""Check results and machine-readable reports.

A report is a flat list of named checks, each with a status: `pass`, `fail`
with an exact residual witness (matrix entries or a scalar) so a failure is
reproducible from the report alone, or `error` when the check, or a
structure it needs, raised instead of returning a verdict; the exception
text is then the witness.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import Matrix
from .scalars import format_scalar

PASS, FAIL, ERROR = "pass", "fail", "error"

# What a check may raise and still be recorded: every exception type of the
# package derives from ValueError, and the construction cross-checks assert.
CHECK_ERRORS = (ValueError, AssertionError)


def _witness_payload(witness):
    if witness is None:
        return None
    if isinstance(witness, Matrix):
        return [[format_scalar(e) for e in row] for row in witness.entries]
    if isinstance(witness, Fraction):
        return format_scalar(witness)
    return str(witness)


@dataclass
class CheckResult:
    name: str
    detail: str
    status: str
    residual: object = None
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_record(self) -> dict:
        rec = {
            "check": self.name,
            "detail": self.detail,
            "status": self.status,
        }
        witness = _witness_payload(self.residual)
        if witness is not None:
            rec["residual"] = witness
        rec["elapsed_ms"] = round(self.elapsed * 1000, 3)
        return rec


@dataclass
class Report:
    target: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, detail: str, passed: bool, residual=None, elapsed: float = 0.0) -> CheckResult:
        return self._record(name, detail, PASS if passed else FAIL, residual, elapsed)

    def _record(self, name: str, detail: str, status: str, residual, elapsed: float) -> CheckResult:
        result = CheckResult(name, detail, status, residual, elapsed)
        self.checks.append(result)
        return result

    def run(self, name: str, detail: str, fn) -> CheckResult:
        """Execute fn() -> (passed, residual) and record it with wall time.

        A CHECK_ERRORS exception is recorded as an `error` with its text.
        """
        start = time.perf_counter()
        try:
            outcome = fn()
        except CHECK_ERRORS as exc:
            return self._record(name, detail, ERROR, str(exc) or type(exc).__name__, time.perf_counter() - start)
        passed, residual = outcome
        return self.add(name, detail, passed, residual, time.perf_counter() - start)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_lines(self) -> list[str]:
        return [
            json.dumps({"target": self.target, **c.to_record()}, sort_keys=True)
            for c in self.checks
        ]

    def summary(self) -> str:
        total = len(self.checks)
        failed = len(self.failures)
        status = "PASS" if failed == 0 else "FAIL"
        errors = sum(c.status == ERROR for c in self.checks)
        suffix = f", {errors} raised an error" if errors else ""
        return f"{self.target}: {status} ({total - failed}/{total} checks passed{suffix})"
