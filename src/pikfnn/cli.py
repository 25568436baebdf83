"""Command-line front end.

Subcommands: run <config.json>, bench <name|all>, verify-kernels [filter],
list-kernels.  Exit codes: 0 success, 2 validation error, 3 numerical
failure.  The command output (kernel ids, the verify pass count) goes to
stdout; progress and diagnostics are logged to stderr, at INFO, or from
WARNING up with --quiet.
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

_VALIDATION_ERRORS = (ConfigurationError, DomainError, NodeFileError,
                      UnsupportedKernelError, UnsupportedSourceError, FileNotFoundError)
_NUMERICAL_ERRORS = (ConditioningError, DivergenceError, SingularityError)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pikfnn",
        description="Meshless PDE solving with physics-informed kernel networks")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one problem from a JSON config")
    run.add_argument("config", help="JSON config mirroring ProblemConfig fields")
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


def _run_one(setup_or_name, args, seed, subdir=None):
    train = {"tol": args.tol} if args.tol is not None else None
    out = args.out
    if out and subdir:
        out = os.path.join(out, subdir)
    result = run_benchmark(setup_or_name, seed=seed, out_dir=out, train=train)
    if out:
        log.info("outputs written to %s", out)
    return result


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
        if args.command == "run":
            cfg = load_problem_config(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            if args.tol is not None:
                cfg.train["tol"] = args.tol
            setup = setup_from_config(cfg)
            _run_one(setup, args, cfg.seed)
            return EXIT_OK
        if args.command == "bench":
            names = sorted(BUILTINS) if args.name == "all" else [args.name]
            seed = 0 if args.seed is None else args.seed
            for name in names:
                _run_one(name, args, seed, subdir=name if len(names) > 1 else None)
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
