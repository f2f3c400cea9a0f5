"""The JSONL reports stay byte-identical, apart from `elapsed_ms`.

Each `.jsonl` under `tests/golden/` is the `--output` report of one
`qonsager verify` run with the `elapsed_ms` field removed. The first three
were captured with the earlier `Fraction` Gauss-Jordan kernel. The model
files are the inputs: a dense imported pair (P A P^-1, P A* P^-1) at d = 3,
and a d = 2 pair whose A* is conjugated by a shear, which fails its checks
with residual witnesses. The all-suite reports of that pair and of the two
failing pairs under `tests/data/` (split parts that are not a direct sum,
and an A* that escapes the tridiagonal band) were captured before the ladder
decompositions were transported by H. These inputs fail H-conjugation or
the split construction, so they pin the witnesses of failing checks: the
kernels that decide when a transport fails its certificate, the error of a
structure that cannot be built, and the first failing claim of
`diagrams.verify`, which is an N/M flag wherever one fails and never a
twisted split-map slot.
"""

import json
from pathlib import Path

import pytest

from qonsager.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"

CASES = {
    "d2_solved": (0, ["--d", "2", "--q", "2", "--a", "3", "--b", "5"]),
    "dense_d3": (0, ["--file", "tests/golden/dense_d3.model"]),
    "twisted_d2": (1, ["--file", "tests/golden/twisted_d2.model", "--suite", "model", "--suite", "lusztig"]),
    "twisted_d2_all": (1, ["--file", "tests/golden/twisted_d2.model"]),
    "split_error_d2": (1, ["--file", "tests/data/split_error_d2.model"]),
    "containment_escape_d3": (1, ["--file", "tests/data/containment_escape_d3.model"]),
}


def _without_timing(text: str) -> str:
    lines = []
    for line in text.splitlines():
        record = json.loads(line)
        record.pop("elapsed_ms")
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch, capsys):
    code, args = CASES[name]
    monkeypatch.chdir(REPO)  # file targets are labelled by the path as given
    out = tmp_path / "report.jsonl"
    assert main(["verify", *args, "--output", str(out), "--quiet"]) == code
    assert _without_timing(out.read_text(encoding="utf-8")) == (GOLDEN / f"{name}.jsonl").read_text(encoding="utf-8")
