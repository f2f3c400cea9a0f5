"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: [1, 6] is covered once
        ("a.inner", 2.0, 3.0, 1),
        ("late", 9.5, 11.0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [10.0 - 5.0 - 0.5, 2.0, 3.0, 1.0, 1.5]


def test_span_metrics_count_recursion_once_in_inclusive_time():
    spans = [
        ("m.f", 0.0, 4.0, -1),
        ("m.f", 1.0, 3.0, 0),
        ("n.g", 1.5, 2.0, 1),
    ]
    metrics = tracing.span_metrics(spans)
    assert metrics["m.f.calls"] == 2
    assert metrics["m.f.s"] == 4.0
    assert metrics["m.f.self_s"] == 2.0 + 1.5
    assert metrics["m.calls"] == 2 and metrics["n.self_s"] == 0.5


def test_suite_metrics_take_suite_time_from_records_and_untimed_from_spans():
    spans = [
        ("suite.run_target", 0.0, 10.0, -1),
        ("report.Report.run", 2.0, 5.0, 0),
        ("report.Report.run", 6.0, 7.0, 0),
        ("suite.run_target", 10.0, 12.0, -1),
        ("report.Report.run", 10.5, 11.5, 3),
    ]
    records = [
        {"check": "split.MN", "status": "pass", "elapsed_ms": 250.0},
        {"check": "equitable.ladders", "status": "pass", "elapsed_ms": 1500.0},
        {"check": "stage.new", "status": "pass", "elapsed_ms": 9000.0},  # no suite: ignored
    ]
    metrics = tracing.suite_metrics(spans, records)
    assert metrics["suite.splitmaps.s"] == 0.25 and metrics["suite.equitable.s"] == 1.5
    assert metrics["suite.model.s"] == 0.0
    assert metrics["suite.untimed.s"] == 12.0 - 5.0
    assert metrics["suite.run_target.p50_s"] == 6.0 and metrics["suite.run_target.max_s"] == 10.0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    inputs.write_inputs(workload, 7, tmp_path / "one")
    inputs.write_inputs(workload, 7, tmp_path / "two")
    inputs.write_inputs(workload, 8, tmp_path / "other")
    assert _files(tmp_path / "one") == _files(tmp_path / "two")
    if workload != "deep":  # deep is a single fixed target
        assert _files(tmp_path / "one") != _files(tmp_path / "other")


def test_conjugating_matrices_are_small_integer_and_exactly_inverted():
    rng = random.Random(3)
    p, p_inv = inputs.seeded_conjugator(5, rng)
    assert all(abs(e) <= inputs.P_BOUND and e.denominator == 1 for row in p for e in row)
    ident = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    assert inputs.matmul(p, p_inv) == ident
    assert inputs.inverse([[1, 2], [2, 4]]) is None


def test_imported_entries_have_the_same_sizes_for_every_seed():
    def sizes(seed):
        text = inputs.dense_model_text(5, random.Random(seed))
        return sorted(abs(Fraction(t)) for line in text.splitlines()[1:] for t in line.split() if t[-1] != ":")

    assert sizes(1) == sizes(2) == sizes(3)
    assert inputs.dense_model_text(5, random.Random(1)) != inputs.dense_model_text(5, random.Random(2))


def _run_config(directory: Path, specs: list[dict], mode: str = "plain") -> tuple[dict, gate.GateResult]:
    inputs.write_config(directory, specs)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        call = child.run_call(mode)
    finally:
        os.chdir(cwd)
    return call, gate.gate(directory / inputs.REPORT_NAME, len(specs), call["exit_code"], call["raised"])


def _pair_text(d: int, perturb: bool) -> str:
    q, a, b = inputs.IMPORTED_QAB
    A, As = inputs.split_pair(d, q, a, b)
    p, p_inv = inputs.random_invertible(d + 1, random.Random(11))
    A, As = inputs.matmul(inputs.matmul(p, A), p_inv), inputs.matmul(inputs.matmul(p, As), p_inv)
    if perturb:
        As[0][d] += 1
    return inputs.model_text(d, q, a, b, A, As)


def test_gate_reports_a_perturbed_imported_pair(tmp_path):
    (tmp_path / "good.model").write_text(_pair_text(2, perturb=False))
    (tmp_path / "bad.model").write_text(_pair_text(2, perturb=True))
    _, clean = _run_config(tmp_path, [{"file": "good.model"}])
    assert clean.correct and clean.passed == clean.expected == len(gate.EXPECTED_CHECKS)

    _, result = _run_config(tmp_path, [{"file": "good.model"}, {"file": "bad.model"}])
    assert not result.correct
    assert result.failed == len(gate.EXPECTED_CHECKS) == result.expected / 2  # all of bad.model's


def test_gate_ignores_new_record_kinds_and_counts_other_statuses(tmp_path):
    lines = [{"target": "t", "kind": "header", "version": "9"}]
    lines += [{"target": "t", "check": c, "status": "pass", "elapsed_ms": 1.0} for c in gate.EXPECTED_CHECKS]
    lines += [{"target": "t", "check": "stage.build_model", "status": "pass"}]
    report = tmp_path / "r.jsonl"
    report.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    assert gate.gate(report, 1, 0, None).correct

    lines[5]["status"] = "error"
    lines[6]["status"] = "skipped"
    report.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    result = gate.gate(report, 1, 0, None)
    assert result.failed == 2 and not result.correct


def test_gate_counts_a_raising_call_as_all_failed(tmp_path):
    result = gate.gate(tmp_path / "absent.jsonl", 3, None, "ValueError: boom")
    assert not result.correct and result.failed == result.expected == 3 * len(gate.EXPECTED_CHECKS)


SMALL = [{"d": 2, "q": "2", "a": "3", "b": "5"}]


def test_traced_call_counts_repeat_and_wrappers_are_restored(tmp_path):
    import qonsager.linalg as linalg
    import qonsager.suite as suite

    def bound():
        return (linalg.rref, suite.build_model, vars(linalg.Matrix)["__mul__"], vars(linalg.Matrix)["identity"])

    originals = bound()
    counts = []
    for _ in range(2):
        call, result = _run_config(tmp_path, SMALL, mode="trace")
        assert result.correct
        metrics = tracing.span_metrics(call["spans"])
        counts.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == 1
    assert counts[0]["model.build_model.calls"] == 2  # once in solve_phi, once for the target
    assert counts[0]["linalg.Matrix.identity.calls"] > 0
    assert all(now is before for now, before in zip(bound(), originals))


def test_counting_pass_agrees_with_the_profiler(tmp_path):
    call, result = _run_config(tmp_path, SMALL, mode="count")
    assert result.correct
    inputs.write_config(tmp_path, SMALL)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    profile = cProfile.Profile()
    try:
        from qonsager import cli

        profile.runcall(cli.main, child.CLI_ARGS)
    finally:
        os.chdir(cwd)
    stats = pstats.Stats(profile).stats
    for kernel, *_ in tracing.FRACTION_KERNELS:
        profiled = sum(v[1] for (path, _, name), v in stats.items() if name == kernel and path.endswith("fractions.py"))
        assert call["counts"][f"fractions.{kernel}"] == profiled
    assert call["counts"]["linalg.max_entry_bits"] > 0
