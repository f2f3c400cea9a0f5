"""Benchmark of the qonsager verifier, end to end through its CLI.

    python3 perfbench/run.py --workload grid|deep|imported --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up writes the workload's inputs from the
seed into perfbench/out/ and times a fresh import of the package plus that
generation, several times. The run then calls
`qonsager.cli.main(["verify", "--config", ..., "--quiet"])` serially, one
closed-loop caller, each call in a fresh interpreter (child.py), until the
next call would overrun S seconds by more than half a call; there is always
at least one call. Each call's report must pass the gate in gate.py.

With --trace 0 the end-to-end metrics are printed; with --trace 1 one plain,
one traced and one counting call give the per-layer metrics, the traced
spans are written to perfbench/out/, and the tracing overhead is the traced
call's wall (and CPU) time minus the plain one's. The last line of standard output is a JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 7
RUN_LIMIT_S = 170  # every call of a run must end by then
SHOW_REASONS = 5


class BenchError(RuntimeError):
    """The benchmark itself cannot run: nothing is printed as a result."""


def child(mode: str, workdir: Path, deadline: float) -> dict:
    """Run child.py in `workdir`; returns its JSON line or a `raised` entry on timeout."""
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "raised": f"timeout after {timeout:.0f} s", "exit_code": None,
                "wall_s": timeout, "cpu_s": timeout, "peak_rss_mb": 0.0}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child.py --mode {mode} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def set_up(workload: str, seed: int, workdir: Path, deadline: float) -> tuple[int, list[float]]:
    """Write the inputs SETUP_REPEATS times; each sample is a fresh import plus generation.

    Samples are CPU seconds: a 0.1 s import on a shared two-CPU machine reads
    either 0.1 s or 0.2 s of wall time depending on whether it was
    descheduled, while its CPU time holds steady.
    """
    child("import", workdir, deadline)  # compiles the package's bytecode, untimed
    samples = []
    for _ in range(SETUP_REPEATS):
        import_s = child("import", workdir, deadline)["import_cpu_s"]
        start = time.process_time()
        n_targets = inputs.write_inputs(workload, seed, workdir)
        samples.append(import_s + time.process_time() - start)
    return n_targets, samples


def judge(call: dict, workdir: Path, n_targets: int, reference: list | None):
    """Gate one call and compare its report, timing aside, with the run's first call.

    Returns the gate result and the report's check records; the report file
    is removed so the next call cannot pass on a stale one.
    """
    report = workdir / inputs.REPORT_NAME
    result = gate.gate(report, n_targets, call.get("exit_code"), call.get("raised"))
    records = []
    if report.is_file():
        call["report_bytes"] = report.stat().st_size
        try:
            records = gate.check_records(gate.read_records(report))
        except ValueError:
            pass
        report.unlink()
    if reference is not None and result.correct and gate.without_timing(records) != reference:
        result.reasons.append(f"{call['mode']} call's report differs from the first call's")
    if not result.correct and call.get("output_tail"):
        result.reasons.append(f"CLI output ends: {call['output_tail'].strip()[-300:]}")
    return result, records


def measure(seconds: int, workdir: Path, n_targets: int, deadline: float):
    """Closed loop of plain calls for about `seconds`; returns calls and gate results.

    A call starts only if a call as long as the last one would end less
    than half a call after `seconds`, and within the run's deadline. The run
    thus holds round(seconds / call) calls, at least one: a call time that
    drifts a little between runs does not change how many calls a run
    makes, unless it sits near a rounding step.
    """
    calls, results, reference = [], [], None
    start = time.monotonic()
    while True:
        before = time.monotonic()
        call = child("plain", workdir, deadline)
        result, records = judge(call, workdir, n_targets, reference)
        if reference is None:
            reference = gate.without_timing(records)
        calls.append(call)
        results.append(result)
        now = time.monotonic()
        last = now - before
        if call.get("raised") or now - start + last / 2 > seconds or now + last > deadline:
            return calls, results


def traced(workdir: Path, n_targets: int, deadline: float):
    """Plain, traced and counting calls; returns the per-layer metrics and gate results.

    Span times are the traced call's thread CPU time, which a descheduled
    process does not accrue; suite times come from the plain call's report,
    which no tracer slowed down.
    """
    plain = child("plain", workdir, deadline)
    first, records = judge(plain, workdir, n_targets, None)
    reference = gate.without_timing(records)
    trace = child("trace", workdir, deadline)
    second, _ = judge(trace, workdir, n_targets, reference)
    count = child("count", workdir, deadline)
    third, _ = judge(count, workdir, n_targets, reference)
    results = [first, second, third]
    if any(c.get("raised") for c in (plain, trace, count)):
        return {}, results
    spans_file = workdir / trace["spans_file"]
    spans = tracing.read_spans(spans_file)
    print(f"{len(spans)} spans written to {spans_file.relative_to(ROOT)}")
    metrics = tracing.span_metrics(spans)
    metrics.update(tracing.suite_metrics(spans, records))
    metrics.update(count["counts"])
    metrics["report.bytes"] = float(plain.get("report_bytes", 0))
    metrics["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_cpu_s"] = trace["cpu_s"] - plain["cpu_s"]
    metrics["trace.spans"] = float(len(spans))
    return metrics, results


def summarize(results) -> tuple[bool, int, int, list[str]]:
    attempted = sum(r.expected for r in results)
    failed = sum(r.failed for r in results)
    reasons = [reason for r in results for reason in r.reasons]
    return not reasons, attempted, failed, reasons


def end_to_end(calls, results, setup_samples) -> dict[str, float]:
    _, attempted, failed, _ = summarize(results)
    return {
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "cpu_s": statistics.median(c["cpu_s"] for c in calls),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in calls),
        "pass_ratio": 1 - failed / attempted,
    }


def run(args) -> dict:
    if not (ROOT / "src" / "qonsager" / "__init__.py").is_file():
        raise BenchError(f"no qonsager package under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    n_targets, setup_samples = set_up(args.workload, args.seed, workdir, deadline)
    if args.trace:
        values, results = traced(workdir, n_targets, deadline)
        wanted = spec["per_layer"]
    else:
        calls, results = measure(args.seconds, workdir, n_targets, deadline)
        values = end_to_end(calls, results, setup_samples)
        wanted = spec["end_to_end"]
        print(f"{args.workload}: {len(calls)} call(s), setup samples {len(setup_samples)}")
    correct, attempted, failed, reasons = summarize(results)
    if not correct:
        print(f"{args.workload}: INCORRECT ({len(reasons)} problems)")
        for reason in reasons[:SHOW_REASONS]:
            print(f"  {reason}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:>9} {m['name']:<40} {value:>16.6f} {m['unit']}")
    if not args.trace:
        print(f"{args.workload:>9} {'error_ratio':<40} {failed / attempted:>16.6f} ratio")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
