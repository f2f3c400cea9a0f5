"""One measured call of the verifier, run in a fresh interpreter.

    python3 perfbench/child.py --mode plain|trace|count|import

The working directory holds `config.json`. The call is
`qonsager.cli.main(["verify", "--config", "config.json", "--quiet"])`, in
this process. A fresh interpreter per call keeps a cache from carrying over
from one call to the next and gives each call its own peak RSS. The last line
of standard output is a JSON object with the call's measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CLI_ARGS = ["verify", "--config", "config.json", "--quiet"]
SPANS_NAME = "spans.tsv.gz"


def _cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def run_call(mode: str) -> dict:
    """Run the CLI once in this process; `trace` and `count` add their recorders."""
    from qonsager import cli

    recorder = None
    if mode in ("trace", "count"):
        import tracing

        recorder = tracing.Tracer() if mode == "trace" else tracing.OpCounter()
        recorder.install()
    exit_code, raised = None, None
    sink = io.StringIO()
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            exit_code = cli.main(CLI_ARGS)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # fails this call (every target in it), not the benchmark
        raised = f"{type(exc).__name__}: {exc}"
    finally:
        wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
        if recorder is not None:
            recorder.restore()
    out = {
        "mode": mode,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "exit_code": exit_code,
        "raised": raised,
        "output_tail": sink.getvalue()[-2000:],
    }
    if mode == "trace":
        out["spans"] = recorder.spans()
    elif mode == "count":
        out["counts"] = recorder.metrics()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("plain", "trace", "count", "import"), required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    if args.mode == "import":
        start = _cpu_seconds()
        import qonsager.cli  # noqa: F401

        print(json.dumps({"import_cpu_s": _cpu_seconds() - start}))
        return 0
    result = run_call(args.mode)
    if args.mode == "trace":
        import tracing

        tracing.write_spans(result.pop("spans"), SPANS_NAME)
        result["spans_file"] = SPANS_NAME
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
