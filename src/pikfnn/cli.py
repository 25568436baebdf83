"""Command-line front end.

Subcommands: run <config.json>, bench <name|all>, verify-kernels [filter],
list-kernels.  Exit codes: 0 success, 2 validation error (a size too large
for memory included), 3 numerical failure.  The command output (kernel ids,
the verify pass count) goes to stdout; progress and diagnostics are logged
to stderr, at INFO, or from WARNING up with --quiet.
"""

import argparse
import logging
import os
import sys

from .benchmarks import BUILTINS
from .errors import (
    ConditioningError,
    ConfigurationError,
    DivergenceError,
    DomainError,
    NodeFileError,
    SingularityError,
    UnsupportedKernelError,
    UnsupportedSourceError,
)
from .registry import list_kernel_ids
from .runner import load_problem_config, run_benchmark, setup_from_config, verify_kernels

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

log = logging.getLogger("pikfnn")

# MemoryError: a size that int64 holds but memory does not; numpy's message
# names the shape and the bytes asked for
_VALIDATION_ERRORS = (ConfigurationError, DomainError, NodeFileError, UnsupportedKernelError,
                      UnsupportedSourceError, FileNotFoundError, MemoryError)
_NUMERICAL_ERRORS = (ConditioningError, DivergenceError, SingularityError)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pikfnn",
        description="Meshless PDE solving with physics-informed kernel networks")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one problem from a JSON config")
    run.add_argument("config", help="JSON problem config (see the README)")
    _common_flags(run)

    bench = sub.add_parser("bench", help="run built-in benchmarks")
    bench.add_argument("name", help="builtin name or 'all'",
                       choices=sorted(BUILTINS) + ["all"])
    _common_flags(bench)

    verify = sub.add_parser("verify-kernels",
                            help="FD PDE-residual sweep over the kernel catalog")
    verify.add_argument("filter", nargs="?", default=None,
                        help="substring filter on kernel identifiers")
    verify.add_argument("--seed", type=int, default=12345)
    verify.add_argument("--points", type=int, default=100)
    verify.add_argument("--quiet", action="store_true")

    sub.add_parser("list-kernels", help="print every valid kernel identifier")
    return parser


def _common_flags(cmd):
    cmd.add_argument("--seed", type=int, default=None,
                     help="problem seed (default: the config's, or 0)")
    cmd.add_argument("--out", default=None, help="output directory "
                     "(summary.json, field.csv, loss.csv)")
    cmd.add_argument("--tol", type=float, default=None,
                     help="override the training stopping tolerance")
    cmd.add_argument("--quiet", action="store_true")


def main(argv=None):
    args = build_parser().parse_args(argv)
    # a handler on the current stderr for this command only
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.WARNING if getattr(args, "quiet", False) else logging.INFO)
    try:
        return _dispatch(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(logging.NOTSET)


def _dispatch(args):
    try:
        if args.command in ("run", "bench"):
            if args.command == "run":
                docs = [(None, load_problem_config(args.config))]
            else:  # one output subdirectory per built-in under bench all
                names = sorted(BUILTINS) if args.name == "all" else [args.name]
                docs = [(name if len(names) > 1 else None, {"builtin": name}) for name in names]
            for subdir, doc in docs:
                if args.seed is not None:
                    doc["seed"] = args.seed
                if args.tol is not None:
                    doc["train"] = {**doc.get("train", {}), "tol": args.tol}
                out = os.path.join(args.out, subdir) if args.out and subdir else args.out
                run_benchmark(setup_from_config(doc), seed=doc.get("seed", 0), out_dir=out)
                if out:
                    log.info("outputs written to %s", out)
            return EXIT_OK
        if args.command == "verify-kernels":
            rows, ok = verify_kernels(pattern=args.filter, n_points=args.points,
                                      seed=args.seed)
            if not args.quiet:
                n_bad = sum(1 for r in rows if not r.passed)
                print(f"{len(rows) - n_bad}/{len(rows)} kernels passed")
            return EXIT_OK if ok else EXIT_NUMERICAL
        if args.command == "list-kernels":
            for ident in list_kernel_ids():
                print(ident)
            return EXIT_OK
    except _VALIDATION_ERRORS as exc:
        log.error("validation error: %s", exc)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
