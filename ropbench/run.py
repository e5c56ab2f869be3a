"""Benchmark command for ropnet.

Run from the repository root:

    python3 ropbench/run.py --workload train_flagship --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-module ones.  A
fuller record of the run is written under ``ropbench/out/``.

ropnet is imported from ``src/`` next to this directory and nowhere
else; without it the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def pin_blas_threads() -> int:
    """Cap BLAS at the CPUs this process may use; must precede numpy."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_bench():
    """Import the benchmark with ropnet taken from ``src/`` only."""
    sys.path.insert(0, str(SOURCE))
    try:
        import ropnet
    except ImportError as exc:
        print(f"error: cannot import ropnet from {SOURCE}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(ropnet.__file__).resolve().parent != SOURCE / "ropnet":
        print(f"error: ropnet came from {ropnet.__file__}, not {SOURCE}", file=sys.stderr)
        sys.exit(2)
    import bench

    return bench


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    threads = pin_blas_threads()
    bench = import_bench()
    import_s = time.perf_counter() - _START
    args = parse_args(argv, bench.WORKLOADS)
    result = bench.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        HERE / "out",
        import_s=import_s,
        blas_threads=threads,
    )
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
