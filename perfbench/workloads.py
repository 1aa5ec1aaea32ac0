"""The four workloads: inputs from the seed, timed rounds, correctness checks.

A workload runs as a closed loop from one process: one operation at a
time, the next only after the previous returns. An operation is one
ensemble call (traj_fig3a), one `nscheme scan` sweep (scan_*) or one
CLI request (cli_points). Every check is a plain function of the
program's output so that smoke.py can feed it corrupted outputs.

A workload's constructor and warm_up do only the program's set-up;
load_checks then loads the committed references and computes the check
constants, outside the timed set-up.
"""

import contextlib
import csv
import gzip
import io
import json
import math
import os
import random
import time

import numpy as np

from nscheme import cli, mcwf
from nscheme.liouvillian import build_hamiltonian, build_superoperator
from nscheme.model import config_from_dict

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# -- tolerances -----------------------------------------------------------
MATCH_TOL = 1e-9          # solved point or printed number vs the committed reference
SUM_TOL = 1e-9            # populations of a row sum to one
RANGE_TOL = 1e-12         # populations lie in [0, 1] up to printing
RESIDUAL_TOL = {"carrier": 1e-10, "floquet": 1e-9}   # the solvers' own gates
# statistical trajectory checks, in standard errors: the P->D count is
# binomial over ~1e5 decays; the mean photon count in the first
# COUNT_WINDOW_US is a t statistic over the round's 10 trajectories.
# Over the whole record the count is useless as a check: shelving into
# Q at a random time spreads it over 0 to 2e4 photons per trajectory.
Z_BRANCH = 5.0
Z_COUNT = 6.0
COUNT_WINDOW_US = 100.0

CHANNELS = ("P->S", "P->D", "Q->S")
REF_POINTS = 801          # full sweeps; reduced sweeps take every 100th point
SMALL_POINTS = 9

# (config, axis, range) of every sweep; the Floquet sweeps add --solver floquet --json
CARRIER_SWEEPS = [
    ("fig3a", "laser_R.detuning", "2:4"),
    ("fig3e", "laser_R.detuning", "7:9"),
    ("fig4d", "laser_R.detuning", "7:9"),
    ("fig3a", "laser_C.detuning", "4:6"),
    ("fig3e", "laser_C.detuning", "-1:1"),
    ("fig4d", "laser_C.detuning", "-1:1"),
    ("fig3a", "laser_B.rabi", "5:15"),
    ("fig3e", "laser_B.rabi", "5:15"),
    ("fig4d", "laser_B.rabi", "5:15"),
    # 10 of 801 points are flagged DegenerateKernel near 0.001 MHz
    ("fig3a", "laser_C.rabi", "0:0.2"),
]
FLOQUET_SWEEPS = [
    ("fig6_counter", "laser_R.detuning", "1.8:4.2"),
    ("fig6_co", "laser_R.detuning", "1.8:4.2"),
    ("fig6_counter", "laser_B.wavelength_nm", "380:420"),
    # criterion 8: counter-propagating sidebands at the two+one-photon point
    ("sideband_2p1", "laser_C.detuning", "-1.2:1.2"),
]

CLI_REQUESTS = {
    "steady_fig3a": ["steady", "--config", "fig3a"],
    "steady_fig3e": ["steady", "--config", "fig3e"],
    "steady_fig4a": ["steady", "--config", "fig4a"],
    "steady_fig4d": ["steady", "--config", "fig4d"],
    "evolve_fig3a": ["evolve", "--config", "fig3a", "--t-max", "2000", "--points", "2001"],
    "evolve_fig4d_fit": ["evolve", "--config", "fig4d", "--t-max", "800", "--points", "4001", "--fit"],
    "g2_fig3e": ["g2", "--config", "fig3e", "--tau-max", "400", "--points", "2001"],
    "floquet_counter": ["floquet", "--config", "fig6_counter", "--json"],
    "floquet_co": ["floquet", "--config", "fig6_co", "--json"],
    "dressed_fig3a": ["dressed", "--config", "fig3a", "--velocity", "1"],
    "traj_fig3a": ["traj", "--config", "fig3a", "--t-max", "20", "--n-traj", "2"],
    "scan_fig3a": ["scan", "--config", "fig3a", "--axis", "laser_R.detuning", "--range", "2:4",
                   "--points", "161"],
}
JSON_REQUESTS = {"steady_fig3a", "steady_fig3e", "steady_fig4a", "steady_fig4d",
                 "evolve_fig4d_fit", "floquet_counter", "floquet_co", "dressed_fig3a"}

TRAJ_GRID = (0.0, 3000.0, 61)     # the acceptance fixture's grid
TRAJ_N = 10


def round_seed(seed, r):
    """Program seed of round r; round 0 uses the benchmark seed itself."""
    return seed + 1_000_000 * r


def load_reference(name):
    with gzip.open(os.path.join(REFERENCE_DIR, f"{name}.json.gz"), "rt") as fh:
        return json.load(fh)


def sweep_key(sweep):
    return "|".join(sweep)


def sideband_config():
    """fig6_counter moved to the two+one-photon point (criterion 8's sweep)."""
    path = os.path.join(HERE, "..", "src", "nscheme", "presets", "fig6_counter.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["laser_R"]["detuning"] = doc["laser_B"]["detuning"]
    doc["laser_C"]["detuning"] = 0.0
    return doc


def call_cli(argv):
    """Run nscheme.cli.main in-process; (seconds, exit code or error, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a raised error is a failed request, not a crash of the benchmark
            code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


# -- checks ---------------------------------------------------------------

def check_points(pops, residuals, flags, ref, solver, stride):
    """(point index, message) for every failed check on the rows of one sweep.

    Points the reference solved must solve and match it within
    MATCH_TOL. A point the reference flagged may stay flagged or solve,
    and then passes on the invariants alone.
    """
    bad = []
    for i, (row, res, flag) in enumerate(zip(pops, residuals, flags)):
        ref_row = ref["populations"][i * stride]
        if flag:
            if ref_row is not None:
                bad.append((i, f"flagged {flag} but the reference solved it"))
            continue
        if any(v is None or not math.isfinite(v) for v in row):
            bad.append((i, f"non-finite populations without a flag"))
            continue
        if abs(sum(row) - 1.0) > SUM_TOL:
            bad.append((i, f"populations sum to {sum(row)!r}"))
        if min(row) < -RANGE_TOL or max(row) > 1.0 + RANGE_TOL:
            bad.append((i, f"population outside [0, 1]"))
        if not res <= RESIDUAL_TOL[solver]:
            bad.append((i, f"residual {res:.3e} above {RESIDUAL_TOL[solver]:.0e}"))
        if ref_row is not None and max(abs(a - b) for a, b in zip(row, ref_row)) > MATCH_TOL:
            bad.append((i, f"differs from the reference by more than {MATCH_TOL:.0e}"))
    return bad


def parse_scan_csv(text):
    """(axis, populations, residuals, flags) from `axis_MHz,P_S,...,residual,flag` CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["axis_MHz", "P_S", "P_P", "P_D", "P_Q", "residual", "flag"]:
        raise ValueError("unexpected scan CSV header")
    body = rows[1:]
    axis = [float(r[0]) for r in body]
    pops = [[float(v) for v in r[1:5]] for r in body]
    return axis, pops, [float(r[5]) for r in body], [r[6] for r in body]


def parse_scan_json(text):
    doc = json.loads(text)
    cols = [doc["populations"][lbl] for lbl in "SPDQ"]
    pops = [list(row) for row in zip(*cols)]
    res = [math.nan if r is None else r for r in doc["residuals"]]
    return doc["axis_MHz"], pops, res, doc["flags"], doc["metadata"]


def check_sweep(text, ref, solver, stride, as_json):
    """(failed point count, messages, flagged count, max pairing defect) of one sweep output.

    An output that does not parse or has the wrong row count fails every point.
    """
    expected = len(ref["populations"][::stride])
    try:
        if as_json:
            axis, pops, res, flags, meta = parse_scan_json(text)
        else:
            (axis, pops, res, flags), meta = parse_scan_csv(text), {}
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return expected, [f"output does not parse: {exc}"], 0, None
    if len(axis) != expected:
        return expected, [f"{len(axis)} rows, expected {expected}"], 0, None
    bad = check_points(pops, res, flags, ref, solver, stride)
    messages = [f"point {i}: {msg}" for i, msg in bad]
    return len({i for i, _ in bad}), messages, sum(1 for f in flags if f), meta.get("max_pairing_defect")


def numbers_match(got, ref, path="output"):
    """Failure messages where two parsed documents differ (numbers within MATCH_TOL)."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        return [m for k in ref for m in numbers_match(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs"]
        return [m for i, (g, r) in enumerate(zip(got, ref)) for m in numbers_match(g, r, f"{path}[{i}]")]
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if not isinstance(got, (int, float)) or not abs(got - ref) <= MATCH_TOL * max(1.0, abs(ref)):
            return [f"{path}: {got!r} vs reference {ref!r}"]
        return []
    return [] if got == ref else [f"{path}: {got!r} vs reference {ref!r}"]


def parse_cli_output(name, text):
    """Parsed content of one request's output, metadata removed."""
    if name in JSON_REQUESTS:
        doc = json.loads(text)
        doc.pop("metadata")
        return doc
    rows = list(csv.reader(io.StringIO(text)))
    if name == "scan_fig3a":
        return {"rows": [r[:6] for r in rows[1:]], "flags": [r[6] for r in rows[1:]],
                "header": rows[0]}
    if name == "traj_fig3a":
        return {"header": rows[0], "rows": rows[1:]}
    return {"header": rows[0], "rows": [[float(v) for v in r] for r in rows[1:]]}


def check_traj_csv(doc, t_max, n_traj):
    """Invariants of a photon record CSV (its content depends on the seed)."""
    if doc["header"] != ["trajectory_id", "jump_time_us", "channel"]:
        return ["traj: unexpected header"]
    last = {}
    for tid, t, ch in doc["rows"]:
        tid, t = int(tid), float(t)
        if not 0 <= tid < n_traj or ch not in CHANNELS or not 0.0 < t <= t_max or t <= last.get(tid, 0.0):
            return [f"traj: bad row {tid},{t},{ch}"]
        last[tid] = t
    return []


def check_cli(name, code, text, ref):
    """Failure messages for one CLI request."""
    if code != 0:
        return [f"{name}: exit {code}"]
    try:
        doc = parse_cli_output(name, text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{name}: output does not parse: {exc}"]
    if name == "traj_fig3a":
        return check_traj_csv(doc, 20.0, 2)
    if name == "scan_fig3a":
        rows = [[float(v) for v in r] for r in doc["rows"]]
        pops = [r[1:5] for r in rows]
        res = [r[5] for r in rows]
        scan_ref = {"populations": [p if not f else None for p, f in zip(ref["pops"], ref["flags"])]}
        bad = check_points(pops, res, doc["flags"], scan_ref, "carrier", 1)
        return [f"{name}: point {i}: {msg}" for i, msg in bad] + numbers_match([r[0] for r in rows], ref["axis"], name)
    if name == "evolve_fig3a":
        sums = [abs(sum(r[1:]) - 1.0) for r in doc["rows"]]
        if max(sums) > SUM_TOL:
            return [f"{name}: populations off unity by {max(sums):.3e}"]
    return numbers_match(doc, ref, name)


def expected_jumps(config, t_max):
    """Mean photon count per trajectory from the master equation.

    Integrates gamma_P P_P + gamma_Q P_Q over [0, t_max] from rho(0) =
    |S><S| in the generator's eigenbasis: the integral of exp(lambda t)
    is expm1(lambda t_max) / lambda.
    """
    sup = build_superoperator(build_hamiltonian(config).h_total, config)
    lam, v, v_inv, _ = sup.eig()
    v0 = np.zeros(16, dtype=complex)
    v0[0] = 1.0
    small = np.abs(lam) * t_max < 1e-12
    weight = np.where(small, t_max, np.expm1(lam * t_max) / np.where(small, 1.0, lam))
    integral = v @ (weight * (v_inv @ v0))
    # column-major vec: rho[i, i] sits at index 5 i
    return float(np.real(config.atom.gamma_p * integral[5] + config.atom.gamma_q * integral[15]))


def check_traj_round(trace, records, stats, seed, grid, config, window_expected):
    """(failed trajectory indices, round-level failure messages, z-scores)."""
    failed = set()
    for i, rec in enumerate(records):
        t = np.asarray(rec.jump_times)
        if (tuple(rec.seed) != (seed, i) or rec.t_max != grid[-1]
                or any(c not in CHANNELS for c in rec.jump_channels) or len(rec.jump_channels) != t.size
                or (t.size and (np.any(np.diff(t) <= 0.0) or t[0] <= 0.0 or t[-1] > grid[-1]))):
            failed.add(i)
    problems = []
    pops = np.asarray(trace.populations)
    if not np.array_equal(np.asarray(trace.times), grid) or pops.shape != (grid.size, 4):
        problems.append("trace grid differs from the requested grid")
    elif np.abs(pops.sum(axis=1) - 1.0).max() > SUM_TOL or pops.min() < -RANGE_TOL or pops.max() > 1 + RANGE_TOL:
        problems.append("trace populations off the simplex")

    channels = [c for rec in records for c in rec.jump_channels]
    n_p = sum(1 for c in channels if c != "Q->S")
    n_pd = sum(1 for c in channels if c == "P->D")
    beta = config.atom.beta_pd
    z_branch = (n_pd - n_p * beta) / math.sqrt(n_p * beta * (1 - beta)) if n_p else math.inf
    early = np.array([np.count_nonzero(np.asarray(rec.jump_times) <= COUNT_WINDOW_US) for rec in records],
                     dtype=float)
    se = early.std(ddof=1) / math.sqrt(early.size) if early.size > 1 else math.inf
    z_count = (early.mean() - window_expected) / se if se > 0 else math.inf
    if not abs(z_branch) <= Z_BRANCH:
        problems.append(f"P->D fraction {n_pd}/{n_p} is {z_branch:+.2f} SE from beta_PD")
    if not abs(z_count) <= Z_COUNT:
        problems.append(f"mean photon count before {COUNT_WINDOW_US:g} us, {early.mean():.1f}, "
                        f"is {z_count:+.2f} SE from {window_expected:.1f}")
    total = len(channels)
    if stats.n_bright < 1 or abs(stats.mean_bright_photons * stats.n_bright - total) > 1e-6 * total:
        problems.append("bright periods do not account for every photon")
    return failed, problems, {"z_branch": z_branch, "z_count": z_count}


# -- workloads ------------------------------------------------------------

class Round:
    """Outcome of one round: per-operation times and check results."""

    def __init__(self):
        self.op_s = []
        self.latency_s = None     # op_s unless the workload normalizes them
        self.attempted = 0
        self.failed = 0
        self.flagged = 0
        self.work = 0
        self.output_bytes = 0
        self.problems = []
        self.notes = {}


class TrajWorkload:
    def __init__(self, seed, small, scratch):
        self.seed = seed
        self.config = _preset("fig3a")
        self.n_traj = TRAJ_N
        t_max = 300.0 if small else TRAJ_GRID[1]
        self.grid = np.linspace(0.0, t_max, TRAJ_GRID[2])
        self.threshold = mcwf.default_dark_threshold(self.config)
        self.window_expected = None

    def load_checks(self):
        self.window_expected = expected_jumps(self.config, COUNT_WINDOW_US)

    def warm_up(self):
        mcwf.ensemble_populations(self.config, "S", np.linspace(0.0, 30.0, 7), 1, self.seed, return_records=True)

    def run_round(self, r, tracer=None):
        out = Round()
        seed = round_seed(self.seed, r)
        if tracer:
            tracer.request = r
        start = time.perf_counter()
        trace, records = mcwf.ensemble_populations(self.config, "S", self.grid, self.n_traj, seed,
                                                   return_records=True)
        stats = mcwf.bright_dark_statistics(records, self.threshold)
        out.op_s.append(time.perf_counter() - start)
        failed, problems, z = check_traj_round(trace, records, stats, seed, self.grid, self.config,
                                               self.window_expected)
        out.attempted = self.n_traj
        out.failed = self.n_traj if problems else len(failed)
        out.problems = problems + [f"trajectory {i} breaks a record invariant" for i in sorted(failed)]
        out.work = sum(len(rec.jump_channels) for rec in records)
        # the photon count of an ensemble varies with the seed: latency is per 1000 photons
        out.latency_s = [out.op_s[0] * 1000 / max(out.work, 1)]
        out.notes = z
        return out


def _preset(name):
    with open(os.path.join(HERE, "..", "src", "nscheme", "presets", f"{name}.json")) as fh:
        return config_from_dict(json.load(fh))


class ScanWorkload:
    """A round is every sweep once, in a seed-shuffled order."""

    def __init__(self, name, seed, small, scratch):
        self.name = name
        self.seed = seed
        self.floquet = name == "scan_floquet"
        self.sweeps = FLOQUET_SWEEPS if self.floquet else CARRIER_SWEEPS
        self.points = SMALL_POINTS if small else REF_POINTS
        self.stride = (REF_POINTS - 1) // (self.points - 1)
        self.reference = None
        self.scratch = scratch
        path = os.path.join(scratch, "sideband_2p1.json")
        with open(path, "w") as fh:
            json.dump(sideband_config(), fh)
        self.config_paths = {"sideband_2p1": path}

    def load_checks(self):
        self.reference = load_reference(self.name)

    def argv(self, sweep, points, out):
        config, axis, rng = sweep
        argv = ["scan", "--config", self.config_paths.get(config, config), "--axis", axis,
                f"--range={rng}", "--points", str(points), "--out", out]
        if self.floquet:
            argv += ["--solver", "floquet", "--json"]
        return argv

    def warm_up(self):
        out = os.path.join(self.scratch, "warm.out")
        for sweep in self.sweeps:
            call_cli(self.argv(sweep, SMALL_POINTS, out))

    def run_round(self, r, tracer=None):
        out = Round()
        order = list(self.sweeps)
        random.Random(f"{self.seed}:{r}").shuffle(order)
        outputs = []
        for k, sweep in enumerate(order):
            if tracer:
                tracer.request = (r, k)
            path = os.path.join(self.scratch, f"sweep{k}.out")
            seconds, code, _, _ = call_cli(self.argv(sweep, self.points, path))
            out.op_s.append(seconds)
            outputs.append((sweep, code, path))
        defects = []
        for sweep, code, path in outputs:
            out.attempted += self.points
            out.work += self.points
            text = open(path).read() if code == 0 else ""
            out.output_bytes += len(text)
            if code != 0:
                out.failed += self.points
                out.problems.append(f"{sweep_key(sweep)}: exit {code}")
                continue
            solver = "floquet" if self.floquet else "carrier"
            failed, bad, flagged, defect = check_sweep(text, self.reference[sweep_key(sweep)], solver,
                                                       self.stride, self.floquet)
            out.failed += failed
            out.flagged += flagged
            out.problems += [f"{sweep_key(sweep)}: {b}" for b in bad]
            if defect is not None:
                defects.append(defect)
        if defects:
            out.notes["max_pairing_defect"] = max(defects)
        return out


class CliWorkload:
    """A round is the twelve README requests once, in a seed-shuffled order."""

    def __init__(self, seed):
        self.seed = seed
        self.reference = None

    def load_checks(self):
        self.reference = load_reference("cli_points")

    def argv(self, name, r):
        argv = list(CLI_REQUESTS[name])
        if name == "traj_fig3a":
            argv += ["--seed", str(round_seed(self.seed, r))]
        return argv

    def warm_up(self):
        for name in CLI_REQUESTS:
            call_cli(self.argv(name, 0))

    def run_round(self, r, tracer=None):
        out = Round()
        order = list(CLI_REQUESTS)
        random.Random(f"{self.seed}:{r}").shuffle(order)
        results = []
        for k, name in enumerate(order):
            if tracer:
                tracer.request = (r, k)
            seconds, code, text, _ = call_cli(self.argv(name, r))
            out.op_s.append(seconds)
            results.append((name, code, text))
        for name, code, text in results:
            out.attempted += 1
            out.work += 1
            out.output_bytes += len(text)
            bad = check_cli(name, code, text, self.reference.get(name))
            if bad:
                out.failed += 1
                out.problems += bad
        return out


def make_workload(name, seed, small, scratch):
    if name == "traj_fig3a":
        return TrajWorkload(seed, small, scratch)
    if name in ("scan_carrier", "scan_floquet"):
        return ScanWorkload(name, seed, small, scratch)
    if name == "cli_points":
        return CliWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("traj_fig3a", "scan_carrier", "scan_floquet", "cli_points")
