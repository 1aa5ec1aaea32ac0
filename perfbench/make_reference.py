"""Regenerate the committed reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs every sweep of scan_carrier and scan_floquet at 801 points and
every cli_points request once, through nscheme.cli.main, and stores
the parsed populations (None for flagged points) and numbers. The
benchmark checks later outputs against these files within 1e-9.
Regenerate only when an output is meant to change, and say so.
"""

import gzip
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
os.environ.pop("NSCHEME_WORKERS", None)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as w  # noqa: E402  (after the thread settings and the path)


def sweep_reference(name, scratch):
    bench = w.ScanWorkload(name, 0, False, scratch)
    ref = {}
    for sweep in bench.sweeps:
        path = os.path.join(scratch, "ref.out")
        _, code, _, err = w.call_cli(bench.argv(sweep, w.REF_POINTS, path))
        if code != 0:
            raise SystemExit(f"{sweep}: exit {code}: {err}")
        with open(path) as fh:
            text = fh.read()
        _, pops, _, flags = (w.parse_scan_json(text)[:4] if bench.floquet else w.parse_scan_csv(text))
        ref[w.sweep_key(sweep)] = {"populations": [None if f else p for p, f in zip(pops, flags)],
                                   "flags": flags}
        print(f"{name} {w.sweep_key(sweep)}: {sum(1 for f in flags if f)} flagged", file=sys.stderr)
    return ref


def cli_reference():
    ref = {}
    for name in w.CLI_REQUESTS:
        if name == "traj_fig3a":
            continue  # seed-dependent; checked by its invariants
        _, code, text, err = w.call_cli(list(w.CLI_REQUESTS[name]))
        if code != 0:
            raise SystemExit(f"{name}: exit {code}: {err}")
        if name == "scan_fig3a":
            axis, pops, _, flags = w.parse_scan_csv(text)
            ref[name] = {"axis": axis, "pops": pops, "flags": flags}
        else:
            ref[name] = w.parse_cli_output(name, text)
    return ref


def main():
    scratch = os.path.join(ROOT, ".perfbench_out", "reference-scratch")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(w.REFERENCE_DIR, exist_ok=True)
    refs = {"scan_carrier": sweep_reference("scan_carrier", scratch),
            "scan_floquet": sweep_reference("scan_floquet", scratch),
            "cli_points": cli_reference()}
    for name, ref in refs.items():
        # mtime=0 keeps the compressed bytes identical across regenerations
        with open(os.path.join(w.REFERENCE_DIR, f"{name}.json.gz"), "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(json.dumps(ref, separators=(",", ":"), sort_keys=True).encode())
    shutil.rmtree(scratch)


if __name__ == "__main__":
    main()
