"""Spans around the public functions of every nscheme module.

Tracer.install wraps each public function and public method defined in
a layer module, plus the output writers and the scan point solver, and
rebinds every nscheme.* attribute that names the original: the modules
import each other with `from .x import y`, so patching only the
defining module would miss internal calls.

A span is (id, parent, name, layer, start, end, request, pid, error,
info). Spans stay in memory. Forked scan workers inherit the wrappers
and the open span stack, so their first span's parent is the run_scan
span of the process that forked them; each worker writes its spans to
a per-process file when it exits, and collect() merges those files.
"""

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from multiprocessing import util as mp_util

LAYERS = ("model", "liouvillian", "steady", "dynamics", "mcwf", "floquet", "scan", "dressed", "cli")

# public writers, timed as cli output rather than as work of their module
WRITERS = {"Spectrum.to_csv", "Spectrum.to_json", "PopulationTrace.to_csv",
           "photon_records_to_csv", "_dump"}
# private functions traced as well: the pool's per-point task and the
# JSON writer behind every single-point subcommand
PRIVATE = {"scan": ("_solve_point",), "cli": ("_dump",)}
POINT_SPAN = "_solve_point"


def _span_info(name, args, kwargs, out):
    """Counts recorded at the boundary where the work happens."""
    if name == "run_trajectory":
        return {"trajectories": 1, "jumps": int(out.jump_times.size)}
    if name == "ensemble_populations":
        n = int(args[3] if len(args) > 3 else kwargs["n_traj"])
        if isinstance(out, tuple):
            return {"trajectories": n, "jumps": sum(int(r.jump_times.size) for r in out[1])}
        return {"trajectories": n}
    if name == "build_floquet_generator":
        return {"dim": int(out.shape[0])}
    if name == "run_scan":
        return {"points": len(out.flags), "flagged": out.n_failed}
    if name == "main":
        return {"exit": int(out)}
    return None


class Tracer:
    def __init__(self, span_dir):
        self.span_dir = span_dir
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.recording = False
        self.request = None

    # -- wrapping ---------------------------------------------------------

    def install(self):
        """Wrap every traced callable and rebind all references to it."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"nscheme.{layer}"]
            for name, fn in _traced_callables(module, PRIVATE.get(layer, ())):
                originals[id(fn)] = (fn, self._wrap(fn, name, layer))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "nscheme" and not mod_name.startswith("nscheme."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for key, member in list(vars(value).items()):
                        if id(member) in originals and originals[id(member)][0] is member:
                            setattr(value, key, originals[id(member)][1])
        return len(originals)

    def _wrap(self, fn, qualname, layer):
        tracer = self
        if qualname in WRITERS:
            layer = "output"
        elif qualname == POINT_SPAN:
            layer = "point"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            pid = os.getpid()
            if pid != tracer.pid:
                tracer._enter_child(pid)
            sid = f"{pid}:{tracer.next_id}"
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            error = None
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                info = None if error else _span_info(fn.__name__, args, kwargs, out)
                tracer.spans.append((sid, parent, qualname, layer, start, end,
                                     tracer.request, pid, error, info))

        return wrapper

    # -- forked workers ---------------------------------------------------

    def _enter_child(self, pid):
        """First span in a forked worker: drop the inherited spans, flush at exit."""
        self.pid = pid
        self.spans = []
        # the multiprocessing bootstrap runs registered finalizers on exit
        mp_util.Finalize(self, self._flush, exitpriority=100)

    def _flush(self):
        path = os.path.join(self.span_dir, f"{self.pid}.jsonl")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def collect(self):
        """This process's spans plus every worker's, as Span objects."""
        spans = [Span(*s) for s in self.spans]
        for fname in sorted(os.listdir(self.span_dir)):
            path = os.path.join(self.span_dir, fname)
            with open(path) as fh:
                spans.extend(Span(*json.loads(line)) for line in fh)
            os.remove(path)
        return spans


def _traced_callables(module, private):
    """(qualified name, function) for the module's public functions and methods."""
    for name, value in vars(module).items():
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            if not name.startswith("_") or name in private:
                yield name, value
        elif inspect.isclass(value) and value.__module__ == module.__name__ and not name.startswith("_"):
            for key, member in vars(value).items():
                if not inspect.isfunction(member):
                    continue
                # hand-written constructors do work (DensityMatrix checks); generated ones do not
                hand_init = key == "__init__" and member.__code__.co_filename == module.__file__
                if not key.startswith("_") or hand_init:
                    yield f"{name}.{key}", member


@dataclasses.dataclass
class Span:
    id: str
    parent: object
    name: str
    layer: str
    start: float
    end: float
    request: object
    pid: int
    error: object
    info: object

    @property
    def duration(self):
        return self.end - self.start


def layer_metrics(spans, main_pid, output_bytes):
    """Per-layer counts, self time and worker time from merged spans.

    Self time subtracts only children in the same process: a run_scan
    span keeps its dispatch and wait, and the pool workers' time is
    reported as scan.worker_busy_s.
    """
    by_id = {s.id: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.pid == s.pid:
            child_time[s.parent] += s.duration
    self_time = {s.id: s.duration - child_time[s.id] for s in spans}

    m = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.busy_s"] = sum(self_time[s.id] for s in mine)

    def infos(name):
        return [s.info for s in spans if s.name == name and s.info]

    def failed(layer):
        """Errors raised out of the layer, not counted again by its callers inside it."""
        return sum(1 for s in spans if s.layer == layer and s.error
                   and (s.parent not in by_id or by_id[s.parent].layer != layer))

    traj = infos("run_trajectory") + infos("ensemble_populations")
    m["mcwf.trajectories"] = sum(i["trajectories"] for i in traj)
    m["mcwf.jumps"] = sum(i.get("jumps", 0) for i in traj)
    jumps_seen = all("jumps" in i for i in traj)

    m["steady.failed"] = failed("steady")
    dims = [i["dim"] for i in infos("build_floquet_generator")]
    m["floquet.generator_builds"] = len(dims)
    # each bordered solve factorizes its complex d x d system twice (solve
    # plus one refinement step); a complex LU costs 8/3 d^3 real flops
    m["floquet.flops_computed"] = sum(2 * 8 / 3 * d**3 for d in dims)
    m["floquet.failed"] = failed("floquet")

    scans = [s for s in spans if s.name == "run_scan"]
    points = [s for s in spans if s.layer == "point"]
    workers_of = defaultdict(set)
    for p in points:
        root = by_id.get(p.parent)
        while root is not None and root.name != "run_scan":
            root = by_id.get(root.parent)
        if root is not None:
            workers_of[root.id].add(p.pid)
    m["scan.points"] = sum(s.info["points"] for s in scans if s.info)
    m["scan.flagged"] = sum(s.info["flagged"] for s in scans if s.info)
    m["scan.worker_processes"] = max((len(w) for w in workers_of.values()), default=0)
    m["scan.worker_busy_s"] = sum(p.duration for p in points)
    capacity = sum(s.duration * len(workers_of[s.id]) for s in scans)

    m["dynamics.eig_calls"] = sum(1 for s in spans if s.name == "Superoperator.eig"
                                  and by_id.get(s.parent) is not None and by_id[s.parent].layer == "dynamics")

    mains = [s for s in spans if s.name == "main" and s.layer == "cli"]
    m["cli.output_bytes"] = output_bytes
    m["cli.output_s"] = sum(s.duration for s in spans if s.layer == "output")
    m["cli.failed"] = sum(1 for s in mains if s.error or (s.info and s.info["exit"] != 0))

    # ratios and shares for the report; None where the base is empty
    worker = [s for s in spans if s.pid != main_pid]
    derived = {
        "mcwf.us_per_jump": (m["mcwf.busy_s"] * 1e6 / m["mcwf.jumps"]
                             if m["mcwf.jumps"] and jumps_seen else None),
        "scan.parallel_efficiency": m["scan.worker_busy_s"] / capacity if capacity else None,
        "worker_share": {layer: (sum(self_time[s.id] for s in worker if s.layer == layer)
                                 / m["scan.worker_busy_s"] if m["scan.worker_busy_s"] else None)
                         for layer in LAYERS},
        # scans whose workers left no spans: their worker time is not seen
        "unmeasured_scans": sum(1 for s in scans if s.info and s.info["points"] and not workers_of[s.id]),
    }
    return m, derived


# -- report ---------------------------------------------------------------

UNITS = {f"{layer}.{k}": ("s" if k == "busy_s" else "count")
         for layer in LAYERS for k in ("calls", "busy_s")}
UNITS.update({
    "mcwf.trajectories": "count", "mcwf.jumps": "count",
    "steady.failed": "count",
    "floquet.generator_builds": "count", "floquet.flops_computed": "flop", "floquet.failed": "count",
    "scan.points": "count", "scan.flagged": "count", "scan.worker_processes": "count",
    "scan.worker_busy_s": "s",
    "dynamics.eig_calls": "count",
    "cli.output_bytes": "bytes", "cli.output_s": "s", "cli.failed": "count",
    "trace.overhead_s": "s",
})

# The gated end-to-end metrics (and flagged_frac) each layer should move,
# per workload; every other workload's metrics should not move. This is
# the only copy of the map: NOTES.md points here. On cli_points,
# latency_ms_p50 is each round's median over 12 request kinds, so it
# sits between the 6th and 7th slowest (floquet ~6.5 ms, g2 ~8.8 ms):
# only layers working inside those two requests can move it.
SHOULD_MOVE = {
    "mcwf": "throughput_per_s, latency_ms_p50 on traj_fig3a; throughput_per_s on cli_points (traj request)",
    "liouvillian": "throughput_per_s, latency_ms_p50 on scan_carrier and scan_floquet; "
                   "throughput_per_s, latency_ms_p50 on cli_points",
    "steady": "throughput_per_s, latency_ms_p50, flagged_frac on scan_carrier; "
              "throughput_per_s, latency_ms_p50 (g2 request) on cli_points",
    "model": "throughput_per_s on scan_carrier (replace_param); "
             "throughput_per_s, latency_ms_p50 on cli_points (load_config, config_hash)",
    "floquet": "throughput_per_s, latency_ms_p50 on scan_floquet; latency_ms_p50 on cli_points (floquet requests)",
    "scan": "throughput_per_s, latency_ms_p50 on scan_carrier and scan_floquet; "
            "throughput_per_s on cli_points (scan request)",
    "dynamics": "throughput_per_s, latency_ms_p50 (g2 request) on cli_points",
    "dressed": "none resolvable: ~0.15 ms of a ~210 ms cli_points round, below every gated metric's noise",
    "cli": "throughput_per_s, latency_ms_p50 on cli_points (parsing, config loading, writers)",
}

# the layers a workload was chosen for, measured against the time they should dominate
DOMINANT = {
    "traj_fig3a": (("mcwf",), "traced wall"),
    "scan_carrier": (("liouvillian", "steady", "model"), "worker time"),
    "scan_floquet": (("floquet",), "worker time"),
}


def print_layers(workload, res):
    """Per-layer table, derived ratios, tracing overhead and the dominant-layer verdict."""
    m, d = res["layers"], res["derived"]
    traced_wall = sum(res["traced"]["round_s"])
    shares = d["worker_share"]
    print(f"# traced rounds={res['traced']['rounds']} spans={res['spans']} "
          f"wrapped functions={res['wrapped_functions']} traced wall={traced_wall:.4f} s")
    # busy/wall sums over all processes, so the scans' layers can exceed 100%
    print(f"{'layer':<12} {'calls':>8} {'busy_s':>10} {'busy/wall':>9} {'of worker':>9}  should move")
    unmeasured = d["unmeasured_scans"] > 0
    for layer in LAYERS:
        share = shares[layer]
        worker = "unmeasured" if unmeasured else "-" if share is None else f"{share:.1%}"
        print(f"{layer:<12} {m[layer + '.calls']:>8} {m[layer + '.busy_s']:>10.4f} "
              f"{m[layer + '.busy_s'] / traced_wall:>9.1%} {worker:>9}  {SHOULD_MOVE[layer]}")
    for key, value in m.items():
        if not key.endswith((".calls", ".busy_s")):
            print(f"{key:<26} {value:>14.6g} {UNITS[key]}")
    for key in ("mcwf.us_per_jump", "scan.parallel_efficiency"):
        value = d[key]
        print(f"{key:<26} {'unmeasured' if value is None else format(value, '14.6g'):>14}")
    if workload in DOMINANT:
        layers, base = DOMINANT[workload]
        if base == "worker time":
            share = None if unmeasured else sum(shares[l] or 0.0 for l in layers)
        else:
            share = sum(m[l + ".busy_s"] for l in layers) / traced_wall
        verdict = ("unmeasured" if share is None else
                   f"{share:.1%} -> {'confirmed' if share >= 0.5 else 'refuted'}")
        print(f"dominant layer {'+'.join(layers)} share of {base}: {verdict}")
