"""Correctness gate over one `qonsager verify` call.

A call is correct when the CLI exits 0 and, for every target of the config,
each expected check id has a record and every record of that id has status
`pass`. Records are grouped by their `target` field in order of first
appearance, so the gate depends on the report order the CLI promises and not
on how target labels are spelled. Records without a `check` id (headers,
stage summaries) and check ids outside the expected set are ignored; any
status other than `pass` on an expected id counts against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# The 27 checks the `all` suites run per target at the seed commit.
EXPECTED_CHECKS = (
    "scalars.distinct",
    "scalars.adjacency",
    "scalars.recurrence",
    "scalars.t_coeff",
    "scalars.t_seq",
    "scalars.chu_vandermonde",
    "model.qdg",
    "model.tridiagonal",
    "model.irreducible",
    "model.spectrum_path",
    "model.recover_a",
    "model.astar_containment",
    "lusztig.H_invertible",
    "lusztig.H_commutes_A",
    "lusztig.conjugation",
    "lusztig.entrywise",
    "lusztig.eigenstructure",
    "lusztig.expansions",
    "split.flags",
    "split.inversion",
    "split.KA_relations",
    "split.H_conjugation",
    "split.R_ladder",
    "split.MN",
    "equitable.table",
    "equitable.ladders",
    "diagrams.verify",
)


@dataclass
class GateResult:
    expected: int
    passed: int
    reasons: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.expected - self.passed

    @property
    def correct(self) -> bool:
        return not self.reasons


def read_records(path: Path) -> list[dict]:
    """The JSON objects of a JSONL report; raises ValueError on a malformed line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path.name}:{lineno}: {exc.msg}") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path.name}:{lineno}: not a JSON object")
            records.append(rec)
    return records


def check_records(records: list[dict]) -> list[dict]:
    return [r for r in records if "check" in r and "status" in r]


def without_timing(records: list[dict]) -> list[dict]:
    """Records with `elapsed_ms` dropped: equal across runs of the same input."""
    return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in records]


def gate(report: Path, n_targets: int, exit_code: int | None, raised: str | None) -> GateResult:
    """Judge one call from its report file, its exit code and any exception it raised."""
    result = GateResult(expected=n_targets * len(EXPECTED_CHECKS), passed=0)
    if raised is not None:
        result.reasons.append(f"the call raised {raised}")
    elif exit_code != 0:
        result.reasons.append(f"exit code {exit_code}, expected 0")
    if not report.is_file():
        result.reasons.append(f"no report at {report.name}")
        return result
    try:
        records = check_records(read_records(report))
    except (OSError, ValueError) as exc:
        result.reasons.append(f"unreadable report: {exc}")
        return result

    groups: dict[str, dict[str, list[str]]] = {}
    for rec in records:
        statuses = groups.setdefault(str(rec.get("target")), {})
        statuses.setdefault(rec["check"], []).append(rec["status"])
    if len(groups) != n_targets:
        result.reasons.append(f"report covers {len(groups)} targets, config has {n_targets}")
    for label, statuses in list(groups.items())[:n_targets]:
        for check in EXPECTED_CHECKS:
            got = statuses.get(check)
            if got and all(s == "pass" for s in got):
                result.passed += 1
            elif not got:
                result.reasons.append(f"{label}: {check} missing")
            else:
                result.reasons.append(f"{label}: {check} status {','.join(got)}")
    return result
