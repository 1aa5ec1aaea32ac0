"""Smoke test of the benchmark itself, at reduced size.

    python3 perfbench/smoke.py

1. Runs every workload with --small --seconds 1, untraced and traced,
   and checks that every metric BENCHMARK.json names is in the last
   JSON line with its unit, and that the human-readable lines name
   every end-to-end figure with a unit.
2. Feeds each correctness check a good output, which must pass, and
   deliberately corrupted outputs, each of which must fail: so a
   failed count of zero is not vacuous.
Exits 1 on the first failure.
"""

import dataclasses
import json
import os
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402
from nscheme import mcwf  # noqa: E402

HUMAN = {
    "traj_fig3a": ("setup_s", "wall_s", "jumps_per_s", "failed_frac", "peak_rss_mb"),
    "scan_carrier": ("setup_s", "wall_s", "points_per_s", "failed_frac", "flagged_frac", "peak_rss_mb"),
    "scan_floquet": ("setup_s", "wall_s", "points_per_s", "failed_frac", "flagged_frac", "peak_rss_mb"),
    "cli_points": ("setup_s", "wall_s", "requests_per_s", "request_ms_p50", "request_ms_p90",
                   "failed_frac", "peak_rss_mb"),
}


def fail(message):
    print(f"SMOKE FAILED: {message}")
    sys.exit(1)


def check_metrics_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in w.WORKLOADS:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                                   "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"],
                                  capture_output=True, text=True, cwd=ROOT, timeout=180)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                fail(f"{workload} trace={trace}: bad result {lines[-1][:300]}")
            for metric in names:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
                    fail(f"{workload} trace={trace}: metric {metric['name']} missing or without unit")
            if set(result["metrics"]) != {m["name"] for m in names}:
                fail(f"{workload} trace={trace}: metrics other than BENCHMARK.json's")
            for name in HUMAN[workload]:
                row = [line.split() for line in lines if line.split()[:1] == [name]]
                if len(row) != 1 or len(row[0]) < 4 or not row[0][3].startswith("n="):
                    fail(f"{workload}: human-readable line for {name} missing its unit or count")
            print(f"ok  {workload} trace={trace}: {len(names)} metrics with units")


def expect(label, messages, fires):
    """fires is None for an output that must pass, else a text the failure must contain."""
    if fires is None and messages or fires is not None and not any(fires in m for m in messages):
        fail(f"{label}: expected {fires or 'no failure'!r}, got {messages[:3]!r}")
    print(f"ok  {label}: {'passes' if fires is None else fires!r}")


def sweep_csv(ref, stride, edit=None):
    """A scan CSV carrying the reference populations, optionally edited per row."""
    rows = ["axis_MHz,P_S,P_P,P_D,P_Q,residual,flag"]
    for i, (pops, flag) in enumerate(zip(ref["populations"][::stride], ref["flags"][::stride])):
        pops = list(pops) if pops else [float("nan")] * 4
        residual = float("nan") if flag else 0.0
        if edit:
            pops, residual, flag = edit(i, pops, residual, flag)
        rows.append(",".join("%.12g" % v for v in [i, *pops, residual]) + f",{flag}")
    return "\n".join(rows) + "\n"


def check_sweep_checks():
    ref = w.load_reference("scan_carrier")[w.sweep_key(w.CARRIER_SWEEPS[-1])]
    k = next(i for i, p in enumerate(ref["populations"]) if p)      # a solved point
    flagged = ref["flags"].index(next(f for f in ref["flags"] if f))
    # the same reference with point k flagged: now only the invariants apply to it
    loose = {"populations": [None if i == k else p for i, p in enumerate(ref["populations"])],
             "flags": ref["flags"]}

    def at(point, fn):
        return lambda i, p, r, f: fn(p, r, f) if i == point else (p, r, f)

    cases = [
        ("reference output", ref, None, None),
        ("population moved by 1e-6", ref, at(k, lambda p, r, f: ([p[0] + 1e-6, p[1], p[2], p[3] - 1e-6], r, f)),
         "differs from the reference"),
        ("solved point flagged", ref, at(k, lambda p, r, f: ([float("nan")] * 4, float("nan"), "DegenerateKernel")),
         "but the reference solved it"),
        ("row summing to 1.01", loose, at(k, lambda p, r, f: ([p[0] + 0.01, *p[1:]], r, f)), "populations sum to"),
        ("negative population", loose, at(k, lambda p, r, f: ([p[0] + 0.5, p[1] - 0.5, *p[2:]], r, f)),
         "outside [0, 1]"),
        ("residual above the solver's gate", loose, at(k, lambda p, r, f: (p, 1e-6, f)), "residual"),
        ("NaN row without a flag", ref, at(flagged, lambda p, r, f: (p, r, "")), "non-finite"),
    ]
    for label, reference, edit, fires in cases:
        _, messages, _, _ = w.check_sweep(sweep_csv(ref, 1, edit), reference, "carrier", 1, False)
        expect(f"scan check: {label}", messages, fires)
    short = "".join(sweep_csv(ref, 1).splitlines(keepends=True)[:-3])
    expect("scan check: three rows missing", w.check_sweep(short, ref, "carrier", 1, False)[1], "rows, expected")
    expect("scan check: garbage output", w.check_sweep("not a csv", ref, "carrier", 1, False)[1], "does not parse")

    fref = w.load_reference("scan_floquet")[w.sweep_key(w.FLOQUET_SWEEPS[0])]
    doc = {"metadata": {"max_pairing_defect": 1e-15}, "axis_MHz": list(range(len(fref["flags"]))),
           "populations": {lbl: [p[j] for p in fref["populations"]] for j, lbl in enumerate("SPDQ")},
           "residuals": [0.0] * len(fref["flags"]), "flags": fref["flags"]}
    expect("floquet check: reference output", w.check_sweep(json.dumps(doc), fref, "floquet", 1, True)[1], None)
    doc["populations"]["Q"][5] += 1e-6
    doc["populations"]["S"][5] -= 1e-6
    expect("floquet check: population moved by 1e-6", w.check_sweep(json.dumps(doc), fref, "floquet", 1, True)[1],
           "differs from the reference")


def check_cli_checks():
    ref = w.load_reference("cli_points")
    steady = {"metadata": {}, **ref["steady_fig3a"]}
    expect("cli check: reference steady output", w.check_cli("steady_fig3a", 0, json.dumps(steady), ref["steady_fig3a"]), None)
    moved = json.loads(json.dumps(steady))
    moved["populations"]["Q"] += 1e-6
    expect("cli check: steady population shifted by 1e-6", w.check_cli("steady_fig3a", 0, json.dumps(moved), ref["steady_fig3a"]), "vs reference")
    expect("cli check: exit code 2", w.check_cli("steady_fig3a", 2, json.dumps(steady), ref["steady_fig3a"]), "exit 2")
    expect("cli check: raised error", w.check_cli("steady_fig3a", "raised LinAlgError: x", "", ref["steady_fig3a"]), "exit raised")
    expect("cli check: unparsable output", w.check_cli("steady_fig3a", 0, "{", ref["steady_fig3a"]), "does not parse")
    g2 = "tau_us,g2\n" + "".join("%.12g,%.12g\n" % tuple(r) for r in ref["g2_fig3e"]["rows"])
    expect("cli check: reference g2 output", w.check_cli("g2_fig3e", 0, g2, ref["g2_fig3e"]), None)
    expect("cli check: g2 output missing a row", w.check_cli("g2_fig3e", 0, g2.rsplit("\n", 2)[0] + "\n", ref["g2_fig3e"]), "length differs")
    good = "trajectory_id,jump_time_us,channel\n0,1.5,P->S\n0,2.5,P->D\n1,0.5,P->S\n"
    expect("cli check: valid photon record", w.check_cli("traj_fig3a", 0, good, None), None)
    expect("cli check: photon times out of order", w.check_cli("traj_fig3a", 0, good.replace("2.5", "1.0"), None), "bad row")
    expect("cli check: photon after t_max", w.check_cli("traj_fig3a", 0, good.replace("2.5", "25"), None), "bad row")


def check_traj_checks():
    bench = w.TrajWorkload(5, True, None)
    bench.load_checks()
    trace, records = mcwf.ensemble_populations(bench.config, "S", bench.grid, bench.n_traj, 5, return_records=True)
    stats = mcwf.bright_dark_statistics(records, bench.threshold)

    def run(recs=records, tr=trace, st=stats):
        failed, problems, _ = w.check_traj_round(tr, recs, st, 5, bench.grid, bench.config, bench.window_expected)
        return [f"trajectory {i}" for i in sorted(failed)] + problems

    def plain(rec, **changes):
        fields = {"seed": rec.seed, "t_max": rec.t_max, "jump_times": rec.jump_times,
                  "jump_channels": rec.jump_channels, **changes}
        return types.SimpleNamespace(**fields)

    expect("traj check: program output", run(), None)
    flipped = [plain(r, jump_channels=tuple("P->D" if c == "P->S" and k % 4 == 0 else c
                                            for k, c in enumerate(r.jump_channels))) for r in records]
    expect("traj check: P->D branching inflated", run(recs=flipped), "P->D fraction")
    halved = [plain(r, jump_times=r.jump_times[::2], jump_channels=r.jump_channels[::2]) for r in records]
    expect("traj check: half the photons dropped", run(recs=halved, st=mcwf.bright_dark_statistics(halved, bench.threshold)),
           "mean photon count")
    swapped = [plain(records[0], jump_times=records[0].jump_times[::-1])] + [plain(r) for r in records[1:]]
    expect("traj check: jump times out of order", run(recs=swapped), "trajectory 0")
    reseeded = [plain(records[0], seed=(6, 0))] + [plain(r) for r in records[1:]]
    expect("traj check: record of another seed", run(recs=reseeded), "trajectory 0")
    expect("traj check: bright periods miscounted", run(st=dataclasses.replace(stats, n_bright=stats.n_bright + 1)),
           "bright periods")
    off = types.SimpleNamespace(times=trace.times, populations=np.asarray(trace.populations) * 1.01)
    expect("traj check: trace off the simplex", run(tr=off), "simplex")


def main():
    check_sweep_checks()
    check_cli_checks()
    check_traj_checks()
    check_metrics_print()
    print("smoke test passed")


if __name__ == "__main__":
    main()
