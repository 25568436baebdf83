#!/usr/bin/env python3
"""Time and resident memory of one built-in run, stage by stage.

    PYTHONPATH=src python3 tools/stage_rss.py example5 --seed 0

Runs the built-in in this process with one BLAS thread and prints, after
each stage, the stage's elapsed seconds, the RSS high-water mark
(`ru_maxrss`) and the current RSS (`/proc/self/statm`), in MB.  The stages:

- import: `pikfnn.runner` imported;
- set-up: the built-in's problem built (geometry, sources, pre-fit);
- assembly: the training design matrix assembled;
- eigendecomposition: LM's `np.linalg.eigh` (absent for Adam);
- forward: `forward` on the test points (absent for the elastic built-in,
  which evaluates displacements and stresses);
- run: `run_benchmark`, all of the above but set-up (training, forward and
  metrics; no files are written).

Each wrapped stage's seconds are its own call's, so run includes assembly,
eigendecomposition and forward.  Use one process per measurement: the
high-water mark never falls, so a stage reads its own peak only where it is
the largest so far.  Linux only.
"""

import argparse
import os
import resource
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _report(stage, seconds):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    current = resident_pages * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20
    print(f"{stage:<20} {seconds:9.4f} s   peak {peak:8.1f} MB   current {current:8.1f} MB",
          flush=True)


def _timed(stage, fn):
    """fn, reporting each call as the stage when it returns."""
    def call(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        _report(stage, time.perf_counter() - start)
        return result
    return call


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("builtin", help="built-in name, e.g. example5")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for var in THREAD_VARS:  # read once, when numpy loads its BLAS
        os.environ[var] = "1"

    start = time.perf_counter()
    import numpy as np

    from pikfnn import runner
    from pikfnn.benchmarks import BUILTINS

    _report("import", time.perf_counter() - start)
    setup = _timed("set-up", BUILTINS[args.builtin])(seed=args.seed)

    # runner.assemble builds only the training matrix; forward looks up
    # network.assemble
    wrapped = {(runner, "assemble"): "assembly", (np.linalg, "eigh"): "eigendecomposition",
               (runner, "forward"): "forward"}
    saved = {key: getattr(*key) for key in wrapped}
    for (owner, name), stage in wrapped.items():
        setattr(owner, name, _timed(stage, saved[owner, name]))
    try:
        _timed("run", runner.run_benchmark)(setup, seed=args.seed)
    finally:
        for (owner, name), fn in saved.items():
            setattr(owner, name, fn)


if __name__ == "__main__":
    main()
