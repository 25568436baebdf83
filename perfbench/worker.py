"""Run one benchmark operation in a fresh interpreter and print its numbers.

    python3 perfbench/worker.py --op example1 --seed 0 --out DIR [--setup-only] [--trace]
    python3 perfbench/worker.py --op verify-sweep --seed 0 --out DIR [--start K] [--deadline T]

An operation is one built-in solve (``BUILTINS[op](seed=...)`` then
``run_benchmark``) or ``verify-sweep`` (``build_verify_entries`` then
``verify_kernels`` on each catalog entry in turn).  A sweep starts at entry
``--start`` and wraps round; it runs every entry once, or stops early once
``--deadline`` (a CLOCK_MONOTONIC reading) has passed, after at least one
entry.  Each entry is timed on its own.

The last stdout line is a JSON object holding CLOCK_MONOTONIC stamps
(``t_setup``, ``t_end``), so the parent can time from the moment it spawned
this process, and one record per check: a solve is one check, a sweep entry
is one.  An exception inside a check makes that check fail; any other exit
is a harness failure.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VERIFY = "verify-sweep"
VERIFY_POINTS = 100

# Accuracy gates, as in tests/test_acceptance.py and tests/test_benchmarks.py.
GATES = {
    "example1": ("l2", "<=", 5e-3),
    "example2": ("l2", "<=", 1e-5),
    "example3": ("l2", "<=", 1e-8),
    "example4": ("max_rerr", "<=", 1e-2),
    "example5": ("max_rerr", "<=", 1e-2),
    "example6": ("l2", "<=", 1e-2),
    "example7": ("r_squared", ">=", 0.999),
    "example8-synthetic": ("l2", "<=", 1e-2),
    "example9": ("max_rerr", "<=", 1e-2),
    "example10": ("l2", "<=", 1e-6),
}
SIGMA_GATE = 1e-6  # example10: |relative error| of sigma11 and sigma22

BESSEL = ("bessel_j", "bessel_y", "bessel_i", "bessel_k")
BLOCKS = ("kernel_block", "kernel_gradient_block", "kernel_operator_block",
          "governing_applied_block")
FORWARDS = ("forward", "forward_displacement", "forward_stress")
FD = ("apply_steady_operator_fd", "apply_time_operator_fd")
TRAINERS = ("train_adam", "train_lm")
SCALAR_KERNELS = ("eval_kernel", "eval_tcomplete_member")
ELASTIC = ("eval_elasticity_kernel", "elasto_disp_gradient")
VERIFY_CLASSES = ("fundamental", "fundamental-real", "harmonic", "radial-trefftz",
                  "t-complete", "time-fundamental", "time-radial-trefftz",
                  "elasto-disp")


def solve_check(op, result, out_dir):
    """Check record of a finished solve: its gate, and a hash of the outputs
    that must not change between runs of the same code and seed."""
    name, rel, limit = GATES[op]
    value = getattr(result.metrics, name)
    passed = value <= limit if rel == "<=" else value >= limit
    text = f"{name} {value:.4g} {rel} {limit:g}"
    if op == "example10":
        sig = result.extras["sigma"]
        for key in ("rerr_sigma11", "rerr_sigma22"):
            passed = passed and abs(sig[key]) <= SIGMA_GATE
            text += f", |{key}| {abs(sig[key]):.3g} <= {SIGMA_GATE:g}"
    digest = hashlib.sha256()
    for fname in ("field.csv", "loss.csv"):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            digest.update(fname.encode() + b"\0" + fh.read())
    return {"name": op, "failed": int(not passed), "text": text,
            "hash": digest.hexdigest()}


def entry_check(row):
    """Check record of one sweep entry; the hash is that of its residual."""
    return {"name": row.name, "failed": int(not row.passed),
            "text": f"residual {row.max_residual:.3g} (tol {row.tol:g})",
            "hash": hashlib.sha256(repr(row.max_residual).encode()).hexdigest()}


def raised_check(name):
    error = traceback.format_exc()
    return {"name": name, "failed": 1, "text": error.strip().splitlines()[-1],
            "hash": None, "error": error}


def solve(op, problem, seed, out_dir):
    from pikfnn import runner
    try:
        result = runner.run_benchmark(problem, seed=seed, out_dir=out_dir)
        return [solve_check(op, result, out_dir)]
    except Exception:
        return [raised_check(op)]


def sweep(entries, seed, start, deadline, tracer):
    """verify_kernels on one entry at a time, from entries[start] round to
    entries[start - 1], stopping early once deadline has passed."""
    from pikfnn import parse_kernel_id, runner
    checks = []
    for name, check, tol in entries[start:] + entries[:start]:
        if checks and deadline is not None and time.monotonic() >= deadline:
            break
        if tracer:
            check = tracer.timed(f"verify.{parse_kernel_id(name).kind}", check)
        t_start = time.perf_counter()
        try:
            (row,), _ = runner.verify_kernels(entries=[(name, check, tol)],
                                              n_points=VERIFY_POINTS, seed=seed)
            record = entry_check(row)
        except Exception:
            record = raised_check(name)
        record["seconds"] = time.perf_counter() - t_start
        checks.append(record)
    return checks


def install_probes(tracer):
    """Wrap the public functions of each pikfnn layer.  A function a later
    version no longer has is skipped, and its metrics read 0."""
    import numpy as np
    from pikfnn import kernels, metrics, network, operators, runner, training

    def on_assemble(matrix):
        rows, cols = matrix.entries.shape
        tracer.counts["design_entries"] += rows * cols

    def on_train(report):
        tracer.counts["iters"] += report.iters
        tracer.counts["rejected_steps"] += sum(1 for row in report.log_rows if row[3] == 0)

    def factor(fn):
        timed = tracer.timed("factor", fn)

        def wrapper(a, *args, **kwargs):
            tracer.counts["factor_attempts"] += 1
            tracer.counts["factor_flop"] += a.shape[0] ** 3 / 3.0
            try:
                return timed(a, *args, **kwargs)
            except np.linalg.LinAlgError:
                tracer.counts["factor_failures"] += 1
                raise

        return wrapper

    def probe(module, names, wrap, modules=None):
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                tracer.patch(fn, wrap(fn), modules)

    # Bessel calls are counted where kernels looks them up, not inside
    # special_functions, whose functions call each other.  Elastic kernel
    # calls are counted where network makes them (assembly and forward), not
    # in the sweep's FD check.
    probe(kernels, BESSEL, lambda fn: tracer.counted("bessel", fn), ("pikfnn.kernels",))
    probe(kernels, SCALAR_KERNELS, lambda fn: tracer.counted("scalar", fn))
    probe(kernels, ELASTIC, lambda fn: tracer.counted("elastic", fn), ("pikfnn.network",))
    probe(kernels, BLOCKS, lambda fn: tracer.timed("block", fn))
    probe(operators, FD, lambda fn: tracer.timed("fd", fn))
    probe(network, FORWARDS, lambda fn: tracer.timed("forward", fn))
    probe(network, ["assemble"], lambda fn: tracer.timed("assemble", fn, on_assemble))
    probe(network, ["fit_particular_weights"], lambda fn: tracer.timed("prefit", fn))
    probe(training, TRAINERS, lambda fn: tracer.timed("train", fn, on_train))
    probe(training, ["cho_factor"], factor)
    probe(metrics, ["build_metrics"], lambda fn: tracer.timed("metrics", fn))
    probe(runner, ["_write_outputs"], lambda fn: tracer.timed("io", fn))


def layer_metrics(tracer, out_dir):
    c = tracer.counts
    attempts = c["factor_attempts"]
    out = {
        "setup.prefit_s": tracer.inclusive_s(["prefit"]),
        "network.assemble_s": tracer.inclusive_s(["assemble"], outside=["forward"]),
        "network.assemble_self_s": tracer.self_s(["assemble"]),
        "network.forward_s": tracer.inclusive_s(["forward"]),
        "network.design_entries": c["design_entries"],
        "network.elastic_calls": c["elastic"],
        "kernels.block_calls": tracer.calls(["block"]),
        "kernels.block_s": tracer.inclusive_s(["block"]),
        "kernels.scalar_calls": c["scalar"],
        "special.bessel_calls": c["bessel"],
        "training.train_s": tracer.inclusive_s(["train"]),
        "training.iters": c["iters"],
        "training.rejected_steps": c["rejected_steps"],
        "training.factor_s": tracer.inclusive_s(["factor"]),
        "training.factor_attempts": attempts,
        "training.factor_failures": c["factor_failures"],
        # counted per operation; the parent forms the ratio over the workload
        "training.factor_useful": attempts - c["factor_failures"],
        "training.factor_gflop": c["factor_flop"] / 1e9,
        "operators.fd_calls": tracer.calls(["fd"]),
        "operators.fd_s": tracer.inclusive_s(["fd"]),
        "metrics.build_s": tracer.inclusive_s(["metrics"]),
        "io.write_s": tracer.inclusive_s(["io"]),
        "io.bytes": sum(os.path.getsize(os.path.join(out_dir, f))
                        for f in os.listdir(out_dir)) if os.path.isdir(out_dir) else 0,
    }
    for kclass in VERIFY_CLASSES:
        out[f"verify.{kclass}_s"] = tracer.inclusive_s([f"verify.{kclass}"])
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--op", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--deadline", type=float)
    args = parser.parse_args()

    t_import = time.monotonic()
    import pikfnn
    from pikfnn import runner
    from pikfnn.benchmarks import BUILTINS
    t_imported = time.monotonic()
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(pikfnn.__file__).startswith(src):
        sys.exit(f"pikfnn imported from {pikfnn.__file__}, not from {src}")
    if args.op != VERIFY and args.op not in BUILTINS:
        sys.exit(f"unknown operation {args.op!r}")

    tracer = Tracer() if args.trace else None
    if tracer:
        install_probes(tracer)
    report = {"pikfnn_file": pikfnn.__file__,
              "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
              "import_s": t_imported - t_import, "checks": []}
    t_problem = time.monotonic()
    try:
        if args.op == VERIFY:
            problem = runner.build_verify_entries()
        else:
            problem = BUILTINS[args.op](seed=args.seed)
    except Exception:  # set-up failed: the operation fails as a whole
        report["t_setup"] = time.monotonic()
        if not args.setup_only:
            report["checks"] = [raised_check(args.op)]
    else:
        report["t_setup"] = time.monotonic()
        if args.setup_only:
            pass
        elif args.op == VERIFY:
            report["checks"] = sweep(problem, args.seed, args.start, args.deadline, tracer)
        else:
            report["checks"] = solve(args.op, problem, args.seed, args.out)
    finally:
        if tracer:
            tracer.restore()
    report["t_end"] = time.monotonic()
    report["problem_s"] = report["t_setup"] - t_problem
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        report["layers"] = layer_metrics(tracer, args.out)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
