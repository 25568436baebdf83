#!/usr/bin/env python3
"""Resident memory of one built-in run, stage by stage.

    PYTHONPATH=src python3 tools/stage_rss.py example5 --seed 0

Runs the built-in in this process with one BLAS thread and prints, after
each stage, the RSS high-water mark (`ru_maxrss`) and the current RSS
(`/proc/self/statm`), in MB.  The stages:

- import: `pikfnn.runner` imported;
- set-up: the built-in's problem built (geometry, sources, pre-fit);
- assembly: the training design matrix assembled;
- eigendecomposition: LM's `np.linalg.eigh` returned (absent for Adam);
- run: `run_benchmark` returned (training, forward on the test points and
  metrics; no files are written).

Use one process per measurement: the high-water mark never falls, so a
stage reads its own peak only where it is the largest so far.  Linux only.
"""

import argparse
import os
import resource

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _report(stage):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    current = resident_pages * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20
    print(f"{stage:<20} peak {peak:8.1f} MB   current {current:8.1f} MB", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("builtin", help="built-in name, e.g. example5")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for var in THREAD_VARS:  # read once, when numpy loads its BLAS
        os.environ[var] = "1"

    import numpy as np

    from pikfnn import runner
    from pikfnn.benchmarks import BUILTINS

    _report("import")
    setup = BUILTINS[args.builtin](seed=args.seed)
    _report("set-up")

    assemble, eigh = runner.assemble, np.linalg.eigh

    def assemble_then_report(*call, **kwargs):
        matrix = assemble(*call, **kwargs)
        _report("assembly")
        return matrix

    def eigh_then_report(*call, **kwargs):
        result = eigh(*call, **kwargs)
        _report("eigendecomposition")
        return result

    # runner.assemble builds only the training matrix; forward looks up
    # network.assemble
    runner.assemble, np.linalg.eigh = assemble_then_report, eigh_then_report
    try:
        runner.run_benchmark(setup, seed=args.seed)
    finally:
        runner.assemble, np.linalg.eigh = assemble, eigh
    _report("run")


if __name__ == "__main__":
    main()
