"""Command-line batch runner.

Exit codes: 0 when every executed check passed, 1 when any check failed or
raised an error, 2 for configuration or I/O errors. In `verify`, a model
file that cannot be read or parsed is not an I/O error of the run: its
target gets one failed `target.load` record, with the `path:line: message`
text as the witness, and the other targets still run (exit 1). `import`
reads one file, so there an unreadable or malformed file exits 2.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .model import ModelError, solve_phi
from .modelio import ModelIOError, export_model, import_model
from .scalars import ParameterError, ParamSet, format_scalar, parse_scalar
from .suite import (
    SUITE_NAMES,
    ConfigError,
    SuiteConfig,
    all_passed,
    build_or_solve,
    load_config,
    make_file_target,
    make_param_target,
    run_suite,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes a negative fraction such as -3/2 as a value.

    argparse reads a token starting with '-' as an option unless it matches
    its negative-number pattern, which covers only -N and -N.M. The pattern
    is widened to -P/Q; no option of this CLI looks like a number, so none
    is shadowed. Subparsers are built with the parser's own class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _positive_int(token: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {token!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _scalar(token: str) -> Fraction:
    try:
        return parse_scalar(token)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_param_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--d", type=int, required=required, help="diameter (matrix size is d+1)")
    parser.add_argument("--q", type=_scalar, required=required, help="rational q outside {0, 1, -1}, e.g. 2 or 3/2")
    parser.add_argument("--a", type=_scalar, required=required, help="rational eigenvalue scalar a")
    parser.add_argument("--b", type=_scalar, required=required, help="rational eigenvalue scalar b")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qonsager",
        description="Exact verification of q-Onsager module identities over Q",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run check suites over targets")
    verify.add_argument("--config", help="JSON config with keys targets, suites, output")
    _add_param_flags(verify, required=False)
    verify.add_argument("--file", action="append", default=[], help="model file target (repeatable)")
    verify.add_argument(
        "--suite",
        action="append",
        default=[],
        help=f"suite name (repeatable): {', '.join(SUITE_NAMES + ('all',))}",
    )
    verify.add_argument("--output", help="write one JSON record per check to this path")
    verify.add_argument("--quiet", action="store_true", help="print only the per-target summaries")

    solve = sub.add_parser("solve-phi", help="find rational phi sequences for given parameters")
    _add_param_flags(solve, required=True)
    solve.add_argument("--limit", type=_positive_int, default=3, help="maximum number of sequences to report (at least 1)")

    export = sub.add_parser("export", help="build a model and write it to a model file")
    _add_param_flags(export, required=True)
    export.add_argument("--out", required=True, help="destination path")

    for command in (verify, export):  # solve-phi finds phi, so it takes none
        command.add_argument(
            "--phi", nargs="+", type=_scalar, metavar="PHI", help="split sequence phi_1..phi_d; found automatically when omitted"
        )

    imp = sub.add_parser("import", help="read a model file and validate it")
    imp.add_argument("path", help="model file to read")
    return parser


def _verify_config(args) -> SuiteConfig:
    inline = (("--d", args.d), ("--q", args.q), ("--a", args.a), ("--b", args.b))
    if args.config:
        flags = (("--file", args.file), *inline, ("--phi", args.phi), ("--suite", args.suite))
        ignored = [flag for flag, val in (*flags, ("--output", args.output)) if val not in (None, [])]
        if ignored:
            raise ConfigError(f"--config sets targets, suites and output; {', '.join(ignored)} would be ignored")
        return load_config(args.config)
    targets = [make_file_target(path) for path in args.file]
    if any(val is not None for _, val in inline):
        missing = [flag for flag, val in inline if val is None]
        if missing:
            raise ConfigError(f"inline target needs {', '.join(missing)}")
        targets.append(make_param_target(args.d, args.q, args.a, args.b, args.phi or ()))
    elif args.phi:
        raise ConfigError("--phi belongs to an inline target, which needs --d, --q, --a and --b")
    if not targets:
        raise ConfigError("verify needs --config, --file, or inline --d/--q/--a/--b")
    return SuiteConfig(
        targets=targets,
        suites=tuple(args.suite) if args.suite else ("all",),
        output=args.output,
    )


def _cmd_verify(args) -> int:
    cfg = _verify_config(args)
    reports = run_suite(cfg)
    for rep in reports:
        if not args.quiet:
            for line in rep.to_lines():
                print(line)
        print(rep.summary())
    return EXIT_PASS if all_passed(reports) else EXIT_CHECK_FAILED


def _cmd_solve_phi(args) -> int:
    models = solve_phi(args.d, args.q, args.a, args.b, limit=args.limit)
    if not models:
        print("no rational phi sequence found in the scanned family; vary parameters")
        return EXIT_CHECK_FAILED
    for model in models:
        print(" ".join(format_scalar(x) for x in model.params.phi))
    return EXIT_PASS


def _cmd_export(args) -> int:
    model = build_or_solve(ParamSet(args.d, args.q, args.a, args.b, args.phi or ()))
    if model is None:
        print("no rational phi sequence found; supply --phi", file=sys.stderr)
        return EXIT_CHECK_FAILED
    export_model(model, args.out)
    print(f"wrote {args.out}")
    return EXIT_PASS


def _cmd_import(args) -> int:
    model = import_model(args.path)
    kind = "constructed" if model.constructed else "imported pair"
    print(
        f"{args.path}: {kind}, d={model.d}, q={format_scalar(model.params.q)}, "
        f"a={format_scalar(model.params.a)}, b={format_scalar(model.params.b)}"
    )
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "solve-phi": _cmd_solve_phi,
        "export": _cmd_export,
        "import": _cmd_import,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ModelIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ParameterError, ModelError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
