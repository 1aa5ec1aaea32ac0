"""nscheme benchmark: one workload, end-to-end metrics or a traced layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. Four child processes (child.py) each
import nscheme from src/ and set the workload up; setup_s is the median
of the four set-up times. Of these, MEASURING[workload] go on to run
the workload for an equal share of --seconds, and throughput_per_s is
their median. Every child gets one BLAS/OpenMP thread and the library's
default scan worker count.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A missing checkout, a failed child or a timeout exits with
code 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("traj_fig3a", "scan_carrier", "scan_floquet", "cli_points")
WORK_UNITS = {"traj_fig3a": "jumps", "scan_carrier": "points", "scan_floquet": "points", "cli_points": "requests"}

# one BLAS/OpenMP thread per process: two pool workers then fill the two
# cores without oversubscribing them (see NOTES.md)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# setup_s is the median of this many set-ups, each in a fresh process
SETUPS = 4
# processes that measure (the rest only set up); each measures --seconds / N
# and the throughput is their median. One ensemble of traj_fig3a alone
# outlasts --seconds, so that workload measures in one process.
MEASURING = {"traj_fig3a": 1, "scan_carrier": 4, "scan_floquet": 4, "cli_points": 4}
ROUND_STRIDE = 10_000  # measuring process k runs rounds k * ROUND_STRIDE, +1, ...
# the run's deadline: a fixed allowance for the set-ups, the last round's
# overrun and the traced rounds (up to ~60 s on traj_fig3a), plus the
# measured time with room for a slow machine; 165 s at --seconds 15
DEADLINE_FIXED_S = 120.0
DEADLINE_PER_SECOND = 3.0

END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_ms_p50": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def run_child(argv, env, deadline):
    """Start child.py, wait for it, return (spawn time, its JSON result)."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *argv], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the child's pool workers share its session: stop them all
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("child timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{err[-3000:]}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def merge(runs):
    """One summary of the measuring processes' untraced rounds."""
    pooled = {k: [x for r in runs for x in r["untraced"][k]]
              for k in ("round_s", "op_s", "latency_s", "problems", "notes")}
    totals = {k: sum(r["untraced"][k] for r in runs) for k in ("work", "attempted", "failed", "flagged")}
    rates = [r["untraced"]["work"] / sum(r["untraced"]["round_s"]) for r in runs]
    return {**pooled, **totals, "rates": rates, "rounds": len(pooled["round_s"]),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "steal_frac": statistics.mean(r["steal_frac"] for r in runs)}


def end_to_end(workload, u, setups):
    """All end-to-end figures of one run: (value, unit, sample count)."""
    unit = WORK_UNITS[workload]
    lat_ms = [t * 1e3 for t in u["latency_s"]]
    lat_n = f"{len(lat_ms)} rounds" + (", per 1000 jumps" if workload == "traj_fig3a" else "")
    op = "request" if workload == "cli_points" else "sweep" if workload.startswith("scan") else "ensemble"
    ops_ms = [t * 1e3 for t in u["op_s"]]
    deciles = (statistics.quantiles(ops_ms, n=10, method="inclusive") if len(ops_ms) > 1
               else ops_ms * 9)
    lines = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "throughput_per_s": (statistics.median(u["rates"]), "1/s", len(u["rates"])),
        f"{unit}_per_s": (statistics.median(u["rates"]), "1/s", len(u["rates"])),
        "latency_ms_p50": (statistics.median(lat_ms), "ms", lat_n),
        "wall_s": (statistics.median(u["round_s"]), "s", u["rounds"]),
        f"{op}_ms_p50": (deciles[4], "ms", len(ops_ms)),
        f"{op}_ms_p90": (deciles[8], "ms", len(ops_ms)),
        "failed_frac": (u["failed"] / u["attempted"], "ratio", u["attempted"]),
        "peak_rss_mb": (u["peak_rss_mb"], "MB", 1),
    }
    if workload.startswith("scan"):
        lines["flagged_frac"] = (u["flagged"] / u["attempted"], "ratio", u["attempted"])
    return lines


def report(workload, runs, setups, trace):
    """Print the human-readable lines; return the final JSON object."""
    u = merge(runs)
    env = {**runs[0]["env"], "steal_frac": u["steal_frac"]}
    print(f"# nscheme benchmark: workload={workload} env={json.dumps(env, sort_keys=True)}")
    e2e = end_to_end(workload, u, setups)
    for name, (value, unit, n) in e2e.items():
        print(f"{name:<22} {value:>14.6g} {unit:<6} n={n}")
    for p in u["problems"][:20]:
        print(f"FAILED CHECK: {p}")
    notes = [n for n in u["notes"] if n]
    if notes:
        print(f"checks: {json.dumps(notes)}")
    if not trace:
        metrics = {k: {"value": e2e[k][0], "unit": v} for k, v in END_TO_END_UNITS.items()}
        return {"correct": u["failed"] == 0, "attempted": u["attempted"], "failed": u["failed"],
                "metrics": metrics}

    import tracer
    traced = runs[0]
    tracer.print_layers(workload, traced)
    metrics = {k: {"value": v, "unit": tracer.UNITS[k]} for k, v in traced["layers"].items()}
    failed = u["failed"] + traced["traced"]["failed"]
    return {"correct": failed == 0, "attempted": u["attempted"] + traced["traced"]["attempted"],
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced sizes, for smoke.py")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "nscheme", "__init__.py")):
        print(f"run.py: no nscheme sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k not in ("NSCHEME_WORKERS", "PYTHONPATH")}
    env.update(THREAD_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    deadline = time.monotonic() + DEADLINE_FIXED_S + DEADLINE_PER_SECOND * args.seconds
    scratch = os.path.join(OUT, f"scratch-{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    n_measuring = MEASURING[args.workload]
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds / n_measuring),
              "--scratch", scratch] + (["--small"] if args.small else [])
    try:
        setups, runs = [], []
        for k in range(SETUPS):
            m = k - (SETUPS - n_measuring)    # index among the measuring processes
            if m < 0:
                spawned, probe = run_child(common + ["--mode", "setup", "--trace", "0"], env, deadline)
            else:
                argv = ["--mode", "run", "--first-round", str(m * ROUND_STRIDE),
                        "--trace", str(args.trace if m == 0 else 0)]
                spawned, probe = run_child(common + argv, env, deadline)
                runs.append(probe)
            setups.append(probe["ready"] - spawned)
        if args.trace:
            shutil.copy(os.path.join(scratch, "spans.jsonl"),
                        os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    final = report(args.workload, runs, setups, args.trace)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"result": final, "setups_s": setups, "runs": runs}, fh, indent=1)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
