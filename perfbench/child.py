"""One benchmark process: set up a workload, then measure it (run.py starts this).

    python3 perfbench/child.py --workload W --seed N --seconds T --trace 0|1
                               --mode setup|run --scratch DIR [--first-round R] [--small]

Both modes import nscheme from the checkout's src/, resolve the
workload's configs and make one untimed call of each code path. Mode
setup then prints the monotonic time at which that finished and exits.
Mode run then loads the references and check constants (outside the
set-up time) and times rounds R, R+1, ... for T seconds with tracing
off; with --trace 1 it then wraps the layers and runs its first rounds
again traced. The last line of standard output is one JSON document.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# rounds repeated with tracing on: fixed, so that span counts repeat exactly
TRACED_ROUNDS = {"traj_fig3a": 1, "scan_carrier": 1, "scan_floquet": 1, "cli_points": 10}


def git_commit():
    """HEAD of the checkout, or a note when the checkout is not a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unavailable (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return f"unresolved {ref[5:]}"


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "NSCHEME_WORKERS": os.environ.get("NSCHEME_WORKERS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb():
    """Largest resident set of this process and of its waited-for pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def steal_ticks():
    """Cumulative steal time of the machine in clock ticks (0 where not reported)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def summarize(rounds):
    ops = [t for r in rounds for t in r.op_s]
    wall = [sum(r.op_s) for r in rounds]
    return {
        "rounds": len(rounds),
        "wall_s": statistics.median(wall),
        "round_s": wall,
        "op_s": ops,
        # each round's median operation latency: the pooled median of a fixed
        # mix of request kinds would fall on the boundary between two kinds
        "latency_s": [statistics.median(r.latency_s or r.op_s) for r in rounds],
        "work": sum(r.work for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "flagged": sum(r.flagged for r in rounds),
        "problems": [p for r in rounds for p in r.problems][:20],
        "notes": [r.notes for r in rounds],
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--first-round", type=int, default=0)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import nscheme
    if not os.path.abspath(nscheme.__file__).startswith(SRC + os.sep):
        sys.exit(f"nscheme was imported from {nscheme.__file__}, not from {SRC}")
    import workloads

    workload = workloads.make_workload(args.workload, args.seed, args.small, args.scratch)
    workload.warm_up()
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return
    # references and check constants: benchmark work, kept out of setup_s
    workload.load_checks()

    n_traced = TRACED_ROUNDS[args.workload] if args.trace else 0
    rounds = []
    steal = steal_ticks()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(rounds) < max(1, n_traced):
        rounds.append(workload.run_round(args.first_round + len(rounds)))
    elapsed = time.perf_counter() - start
    result = {"ready": ready, "untraced": summarize(rounds),
              "steal_frac": (steal_ticks() - steal) / os.sysconf("SC_CLK_TCK") / elapsed / os.cpu_count()}

    if args.trace:
        import tracer as tracing

        span_dir = os.path.join(args.scratch, "spans")
        os.makedirs(span_dir, exist_ok=True)
        tracer = tracing.Tracer(span_dir)
        result["wrapped_functions"] = tracer.install()
        tracer.recording = True
        traced = [workload.run_round(args.first_round + j, tracer) for j in range(n_traced)]
        tracer.recording = False
        spans = tracer.collect()
        layers, derived = tracing.layer_metrics(spans, tracer.main_pid, sum(r.output_bytes for r in traced))
        same = statistics.median(sum(r.op_s) for r in rounds[:n_traced])
        layers["trace.overhead_s"] = statistics.median(sum(r.op_s) for r in traced) - same
        result["traced"] = summarize(traced)
        result["layers"] = layers
        result["derived"] = derived
        result["spans"] = len(spans)
        with open(os.path.join(args.scratch, "spans.jsonl"), "w") as fh:
            for s in spans:
                fh.write(json.dumps(vars(s)) + "\n")

    result["peak_rss_mb"] = peak_rss_mb()
    result["env"] = environment(args.seed)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
