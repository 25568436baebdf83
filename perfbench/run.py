"""pikfnn benchmark: closed loop, one client, one operation at a time.

    python3 perfbench/run.py --workload solve-helmholtz --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; ``src/pikfnn`` of that checkout is
what gets measured.  Every operation runs in a fresh interpreter
(perfbench/worker.py) with BLAS and OpenMP pinned to one thread.  After one
untimed warm-up process, the solves of a workload run round robin: each once,
then more for as long as the next is expected to end within ``--seconds``.
The sweep runs whole once, then resumes entry by entry in new processes
until ``--seconds`` have passed.  Set-up alone is then timed until each
operation has SETUP_PER_OP samples and the run SETUP_PER_RUN.

``setup_s`` is the median set-up of each operation, summed; ``compute_s`` the
median compute time of each solve or sweep entry, summed; ``wall_s`` their
sum: the time of one pass over the workload.  ``attempted`` and ``failed``
count distinct checks (a solve, or a sweep entry), so they depend only on
code and seed, not on how many repeats fitted in the run.

``--trace 1`` adds one traced pass and reports the per-layer numbers instead
of the end-to-end ones.  The last stdout line is the JSON result; the lines
before it are the same numbers for people.  See perfbench/README.md.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
HASH_STORE = os.path.join(OUT, "hashes.json")

WORKLOADS = {
    "solve-helmholtz": ("example1", "example2", "example9"),
    "solve-dense": ("example3", "example4", "example5", "example6", "example7",
                    "example8-synthetic", "example10"),
    "verify-sweep": ("verify-sweep",),
}
VERIFY = "verify-sweep"
BUILTINS = WORKLOADS["solve-helmholtz"] + WORKLOADS["solve-dense"]
SETUP_PER_OP = 3    # set-up samples of each operation in a run, at least
SETUP_PER_RUN = 9   # and of all operations together
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB",
         "fail_share": "ratio"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Bench:
    def __init__(self, workload, seed, trace, started):
        self.ops = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.deadline = started + DEADLINE_S
        self.out = os.path.join(OUT, f"run-{os.getpid()}")
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.setups = {op: [] for op in self.ops}  # every untraced process
        self.full = {op: [] for op in self.ops}    # untraced processes that ran checks
        self.compute = defaultdict(list)           # seconds, by solve or sweep entry
        self.checks = {}                           # first record of each check
        self.traced = {}
        self.mismatches = []
        self._code = _source_digest()
        self._hashes = _load_hashes()
        self._count = 0

    def spawn(self, op, setup_only=False, trace=False, start=0, deadline=None):
        self._count += 1
        out = os.path.join(self.out, f"{self._count}-{op}")
        cmd = [sys.executable, WORKER, "--op", op, "--seed", str(self.seed), "--out", out,
               "--start", str(start)]
        cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
        if deadline is not None:
            cmd += ["--deadline", repr(deadline)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError(f"out of time before running {op}")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{op} did not finish in time") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise HarnessError(f"worker for {op} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        rep = json.loads(lines[-1])
        rep["setup_s"] = rep["t_setup"] - t_spawn
        rep["wall_s"] = rep["t_end"] - t_spawn
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def measure(self, op, **kwargs):
        """Spawn an untraced operation and record its set-up, compute time
        and checks."""
        rep = self.spawn(op, **kwargs)
        self.setups[op].append(rep)
        self.full[op].append(rep)
        if op == VERIFY:
            for check in rep["checks"]:
                self.compute[check["name"]].append(
                    check.get("seconds", rep["t_end"] - rep["t_setup"]))
        else:
            self.compute[op].append(rep["t_end"] - rep["t_setup"])
        for check in rep["checks"]:
            self._check_stable(check)
        return rep

    def _check_stable(self, check):
        """Same code, seed and check must give the same outcome and
        byte-identical outputs, within this run and across runs in this
        checkout."""
        name = check["name"]
        first = self.checks.setdefault(name, check)
        if (first["failed"], first["hash"]) != (check["failed"], check["hash"]):
            self.mismatches.append(f"{name} seed {self.seed}: outputs or gate outcome differ "
                                   f"from an earlier repeat in this run ({check['text']})")
        if check["hash"] is None:
            return
        key = f"{name}:{self.seed}:{self._code}"
        known = self._hashes.setdefault(key, check["hash"])
        if known != check["hash"]:
            self.mismatches.append(f"{name} seed {self.seed}: outputs differ from an "
                                   f"earlier run of the same code")

    def run(self, seconds):
        os.makedirs(self.out, exist_ok=True)
        try:
            self.spawn(self.ops[0], setup_only=True)  # warm-up, not recorded
            until = time.monotonic() + seconds
            if self.ops == (VERIFY,):
                self._run_sweeps(until)
            else:
                self._run_solves(until)
            while (min(map(len, self.setups.values())) < SETUP_PER_OP
                   or sum(map(len, self.setups.values())) < SETUP_PER_RUN):
                op = min(self.ops, key=lambda o: len(self.setups[o]))
                self.setups[op].append(self.spawn(op, setup_only=True))
            if self.trace:
                self.traced = {op: self.spawn(op, trace=True) for op in self.ops}
                for rep in self.traced.values():  # the probes must not change results
                    for check in rep["checks"]:
                        self._check_stable(check)
            _save_hashes(self._hashes)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _run_solves(self, until):
        """Round robin over the solves: every solve once, then more for as
        long as the next one is expected to end before until."""
        for i in itertools.count():
            op = self.ops[i % len(self.ops)]
            expected = statistics.median(r["wall_s"] for r in self.full[op]) if self.full[op] else 0
            if i >= len(self.ops) and time.monotonic() + expected > until:
                return
            self.measure(op)

    def _run_sweeps(self, until):
        """One whole sweep, then further entries, resuming where the last
        process stopped, until until."""
        n_entries, start = None, 0
        while n_entries is None or time.monotonic() + self._median_setup(VERIFY) < until:
            rep = self.measure(VERIFY, start=start,
                               deadline=None if n_entries is None else until)
            if n_entries is None:
                n_entries = len(rep["checks"])
            start = (start + len(rep["checks"])) % max(n_entries, 1)

    # -- results ----------------------------------------------------------

    def _median_setup(self, op, key="setup_s"):
        return statistics.median(r[key] for r in self.setups[op])

    def failures(self):
        return len(self.checks), sum(c["failed"] for c in self.checks.values())

    def end_to_end(self):
        setup = sum(self._median_setup(op) for op in self.ops)
        compute = sum(statistics.median(times) for times in self.compute.values())
        return {
            "wall_s": setup + compute,
            "setup_s": setup,
            "compute_s": compute,
            # numpy's huge-page advice makes one process peak ~10 % lower now and then
            "peak_rss_mb": max(r["peak_rss_mb"] for reps in self.full.values() for r in reps),
        }

    def per_layer(self):
        layers = {"setup.import_s": sum(self._median_setup(op, "import_s") for op in self.ops),
                  "setup.problem_s": sum(self._median_setup(op, "problem_s") for op in self.ops)}
        for rep in self.traced.values():
            for name, value in rep["layers"].items():
                layers[name] = layers.get(name, 0) + value
        useful = layers.pop("training.factor_useful")
        attempts = layers["training.factor_attempts"]
        layers["training.factor_success_ratio"] = useful / attempts if attempts else 0.0
        for op in BUILTINS:
            known = op in self.ops
            layers[f"{op}.setup_s"] = self._median_setup(op) if known else 0.0
            layers[f"{op}.compute_s"] = statistics.median(self.compute[op]) if known else 0.0
        layers["trace.overhead_s"] = (sum(r["wall_s"] for r in self.traced.values())
                                      - self.end_to_end()["wall_s"])
        return layers

    def report(self):
        for op in self.ops:
            names = [c for c in self.checks if c == op or op == VERIFY]
            failing = [c for c in names if self.checks[c]["failed"]]
            compute = sum(statistics.median(self.compute[c]) for c in names)
            detail = (f"{len(names)} entries, failing {failing}" if op == VERIFY
                      else self.checks[op]["text"])
            print(f"{op:20s} processes {len(self.full[op])} "
                  f"setup {self._median_setup(op):7.3f} s (n={len(self.setups[op])})  "
                  f"compute {compute:8.3f} s "
                  f"(n={min(len(self.compute[c]) for c in names)}+)  "
                  f"rss {statistics.median(r['peak_rss_mb'] for r in self.full[op]):7.1f} MB  "
                  f"{'FAIL' if failing else 'pass'} {detail}")
        for check in self.checks.values():
            if "error" in check:
                print(check["error"], file=sys.stderr)
        for line in self.mismatches:
            print("MISMATCH", line)


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pikfnn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _load_hashes():
    try:
        with open(HASH_STORE) as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


def _save_hashes(hashes):
    tmp = f"{HASH_STORE}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(hashes, fh, indent=1, sort_keys=True)
    os.replace(tmp, HASH_STORE)


def environment(bench):
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    first = next(iter(bench.full.values()))[0]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "openblas_scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_threads": first["blas_threads"],
        "git_commit": commit,
        "pikfnn_file": first["pikfnn_file"],
    }


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "pikfnn", "__init__.py")):
        sys.exit(f"no pikfnn sources under {SRC}; run from the root of a checkout")

    bench = Bench(args.workload, args.seed, bool(args.trace), started)
    try:
        bench.run(args.seconds)
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    except HarnessError as exc:
        sys.exit(f"benchmark failed: {exc}")
    bench.report()
    attempted, failed = bench.failures()
    print("env", json.dumps(environment(bench), sort_keys=True))
    summary = bench.end_to_end()
    summary["fail_share"] = failed / attempted
    for name, value in summary.items():
        print(f"{name:12s} {value:12.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": not bench.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS.get(name, _layer_unit(name))}
                    for name, value in metrics.items()},
    }))


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflop"):
        return "GFLOP"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    main()
