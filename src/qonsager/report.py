"""Check results and machine-readable reports.

A report is a flat list of named checks, each carrying a pass/fail flag and,
on failure, an exact residual witness (matrix entries or a scalar) so a
failure is reproducible from the report alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import Matrix
from .scalars import format_scalar


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
    passed: bool
    residual: object = None
    elapsed: float = 0.0

    def to_record(self) -> dict:
        rec = {
            "check": self.name,
            "detail": self.detail,
            "status": "pass" if self.passed else "fail",
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
        result = CheckResult(name, detail, bool(passed), residual, elapsed)
        self.checks.append(result)
        return result

    def run(self, name: str, detail: str, fn) -> CheckResult:
        """Execute fn() -> (passed, residual) and record it with wall time."""
        start = time.perf_counter()
        passed, residual = fn()
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
        return f"{self.target}: {status} ({total - failed}/{total} checks passed)"
