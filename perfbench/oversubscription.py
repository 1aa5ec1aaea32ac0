"""Time one 801-point Floquet sweep in fresh processes, with and without thread pinning.

    python3 perfbench/oversubscription.py

Three settings, REPEATS fresh processes each: the default environment with
the default pool (cpu_count workers, OpenBLAS free to start its own
threads), one BLAS/OpenMP thread per process with the default pool (the
benchmark's setting), and one thread with --workers 1. Each process
runs a 9-point warm-up sweep, then times the 801-point sweep. Prints
min / median / max seconds per setting; NOTES.md records a run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REPEATS = 12
SETTINGS = {"default env, pool": ({}, None), "1 thread, pool": (PIN, None), "1 thread, serial": (PIN, 1)}


def one_sweep(workers):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from nscheme.model import load_config
    from nscheme.scan import ScanSpec, run_scan

    config = load_config(os.path.join(ROOT, "src", "nscheme", "presets", "fig6_counter.json"))
    run_scan(config, ScanSpec("laser_R.detuning", 1.8, 4.2, 9, solver="floquet"), workers=workers)
    start = time.perf_counter()
    run_scan(config, ScanSpec("laser_R.detuning", 1.8, 4.2, 801, solver="floquet"), workers=workers)
    print(json.dumps(time.perf_counter() - start))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--one", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one is not None:
        one_sweep(args.one or None)
        return
    base = {k: v for k, v in os.environ.items() if k not in PIN and k != "NSCHEME_WORKERS"}
    times = {name: [] for name in SETTINGS}
    for _ in range(REPEATS):  # interleaved, so that drift hits every setting alike
        for name, (extra, workers) in SETTINGS.items():
            out = subprocess.run([sys.executable, __file__, "--one", str(workers or 0)],
                                 env={**base, **extra}, capture_output=True, text=True, check=True)
            times[name].append(json.loads(out.stdout.strip().splitlines()[-1]))
    for name, ts in times.items():
        print(f"{name:<20} n={len(ts)} min {min(ts):.3f} s  median {statistics.median(ts):.3f} s  "
              f"max {max(ts):.3f} s")


if __name__ == "__main__":
    main()
