#!/usr/bin/env python3
"""bpnet benchmark: one workload per process, closed loop, outputs checked.

    python3 perfbench/run.py --workload train_m10 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, in turn

Run from the repository root.  Inputs are synthetic, made from --seed in a
child process, and kept out of every metric.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with --trace 1
the same measurement is followed by a traced one and the object holds the
per-layer metrics, and the spans go to .perfbench/trace-<workload>-<seed>.json.
Exit status: 0 when every check passed, 1 when a check or an operation failed,
2 when the bpnet sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_m10", "frontend_bulk")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def limit_blas_threads() -> None:
    """Run BLAS single-threaded in this process (and its input generator).

    One thread stays within the nproc cap and keeps the run-to-run spread
    small on a shared 2-core machine; two threads spread 12-18 % between runs.
    Must run before numpy is imported.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_bpnet() -> None:
    src = ROOT / "src"
    if not (src / "bpnet" / "__init__.py").is_file():
        fail(f"bpnet sources not found under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import bpnet

    if Path(bpnet.__file__).resolve().parent != (src / "bpnet").resolve():
        fail(f"imported bpnet from {bpnet.__file__}, not from {src}")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-inputs", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()

    limit_blas_threads()
    import_bpnet()
    if args.make_inputs:
        import workloads

        workloads.make_inputs(args.workload, args.seed, Path(args.make_inputs), len(os.sched_getaffinity(0)))
        return 0
    if args.workload != "all":
        import results

        return results.run_one(Path(__file__).resolve(), ROOT, args.workload, args.seed, args.seconds,
                               bool(args.trace), BLAS_THREADS)
    status = 0
    for name in WORKLOADS:  # one process per workload keeps peak RSS per workload
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
