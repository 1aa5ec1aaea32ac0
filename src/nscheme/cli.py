"""Command-line front end: solve, sweep, and export plot-ready CSV/JSON.

All frequency-valued inputs (ranges, --velocity excepted) are plain MHz
in the "2pi x" convention used throughout the configs; conversion to
angular frequencies happens inside. Data goes to --out (default "-",
standard output); diagnostics go to standard error. Exit codes: 0 on
success, 1 for configuration or usage errors, 2 for solver failures.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import warnings
from importlib import resources

import numpy as np

from . import __version__
from .dressed import doppler_rate, lambda_eigensystem, three_photon_report
from .dynamics import EIG_COND_LIMIT, evolve, fit_timescales, g2
from .errors import ConfigError, PerturbationInvalid, SolverError
from .floquet import DEFAULT_ORDER, solve_floquet_steady
from .liouvillian import build_hamiltonian, build_superoperator
from .mcwf import bright_dark_statistics, default_dark_threshold, run_trajectories, statistics_as_dict
from .model import (SystemConfig, config_hash, load_config, pure_state,
                    to_mhz, with_gamma_q)
from .scan import MAX_POINTS, ScanSpec, run_scan
from .steady import residual, steady_state

PRESETS = ("fig3a", "fig3e", "fig4a", "fig4d", "fig6_co", "fig6_counter")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config_arg(value: str) -> SystemConfig:
    """Resolve --config as a file path first, then as a packaged preset name."""
    if os.path.exists(value):
        return load_config(value)
    stem = os.path.basename(value)
    if stem.endswith(".json"):
        stem = stem[:-5]
    candidate = resources.files("nscheme") / "presets" / f"{stem}.json"
    if candidate.is_file():
        with resources.as_file(candidate) as path:
            return load_config(path)
    raise ConfigError(
        f"config {value!r} is neither a file nor a preset (presets: {', '.join(PRESETS)})")


def _span(value: float, option: str) -> float:
    """A time-span option's value, which must be finite and positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{option} must be finite and positive, got {value!r}")
    return value


def _points(value: int) -> int:
    """A --points value of a time grid, which needs both ends and at most MAX_POINTS points."""
    if value < 2:
        raise ConfigError(f"--points must be at least 2, got {value}")
    if value > MAX_POINTS:
        raise ConfigError(f"--points must be at most {MAX_POINTS}, got {value}")
    return value


def _parse_range(text) -> tuple:
    if text is None:
        raise ConfigError("--range is required when --axis is given")
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"--range expects START:STOP in MHz, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"--range expects numbers, got {text!r}") from None


@contextlib.contextmanager
def _output(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _metadata(config: SystemConfig) -> dict:
    return {"version": __version__, "config_hash": config_hash(config)}


def _dump(doc: dict, stream) -> None:
    json.dump(doc, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _csv_rows(columns, prefix: str = "") -> str:
    """CSV rows of equal-length columns, each row led by prefix.

    A numpy column is written at 12 significant digits (%.12g of each
    float), any other column, such as a flag or channel column of
    strings, as str() of each entry.
    """
    row = prefix + ",".join("%.12g" if isinstance(c, np.ndarray) else "%s" for c in columns) + "\n"
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return "".join([row % values for values in zip(*lists)])


def _steady_populations(config: SystemConfig) -> tuple:
    sup = build_superoperator(build_hamiltonian(config).h_total, config)
    rho = steady_state(sup)
    return rho, residual(sup, rho), sup


def _cmd_steady(args) -> int:
    config = _load_config_arg(args.config)
    if args.gamma_q_zero:
        config = with_gamma_q(config, 0.0)
    rho, res, _ = _steady_populations(config)
    pops = np.real(np.diag(rho.matrix))
    doc = {
        "metadata": _metadata(config),
        "populations": {lbl: float(pops[j]) for j, lbl in enumerate("SPDQ")},
        "residual": res,
    }
    with _output(args.out) as fh:
        _dump(doc, fh)
    return 0


def _cmd_scan(args) -> int:
    config = _load_config_arg(args.config)
    start, stop = _parse_range(args.range)
    spec = ScanSpec(axis=args.axis, start=start, stop=stop, points=args.points,
                    solver=args.solver, floquet_order=args.order,
                    gamma_q_mode=args.gamma_q_mode)
    spectrum = run_scan(config, spec, workers=args.workers)
    with _output(args.out) as fh:
        if args.json:
            spectrum.to_json(fh)
        else:
            fh.write("axis_MHz,P_S,P_P,P_D,P_Q,residual,flag\n" + _csv_rows(
                (spectrum.axis_mhz, *spectrum.populations.T, spectrum.residuals, spectrum.flags)))
    if spectrum.n_failed:
        print(f"nscheme: {spectrum.n_failed} of {spec.points} points flagged", file=sys.stderr)
    return 0


def _cmd_evolve(args) -> int:
    config = _load_config_arg(args.config)
    if args.gamma_q_zero:
        config = with_gamma_q(config, 0.0)
    t_max = _span(args.t_max, "--t-max")
    sup = build_superoperator(build_hamiltonian(config).h_total, config)
    times = np.linspace(0.0, t_max, _points(args.points))
    trace = evolve(sup, pure_state(args.initial), times, method=args.method)
    with _output(args.out) as fh:
        if args.fit:
            fit = fit_timescales(trace)
            doc = {
                "metadata": _metadata(config),
                "fast_us": fit.fast,
                "slow_us": fit.slow,
                "rabi_MHz": None if fit.rabi is None else to_mhz(fit.rabi),
            }
            _dump(doc, fh)
        else:
            fh.write("t_us,P_S,P_P,P_D,P_Q\n" + _csv_rows((trace.times, *trace.populations.T)))
    return 0


def _cmd_traj(args) -> int:
    config = _load_config_arg(args.config)
    # checked here; sampled one stack at a time as the records are written or counted below
    records = run_trajectories(config, args.initial, args.t_max, args.n_traj, args.seed)
    with _output(args.out) as fh:
        if args.stats:
            threshold = args.dark_threshold
            if threshold is None:
                threshold = default_dark_threshold(config)
            stats = bright_dark_statistics(records, threshold)
            doc = statistics_as_dict(stats)
            doc["metadata"] = _metadata(config)
            doc["n_trajectories"] = args.n_traj
            doc["t_max_us"] = args.t_max
            doc["seed"] = args.seed
            _dump(doc, fh)
        else:
            # one write per trajectory, so neither the records nor their text are held at once
            fh.write("trajectory_id,jump_time_us,channel\n")
            for i, record in enumerate(records):
                fh.write(_csv_rows((record.jump_times, record.jump_channels), prefix=f"{i},"))
    return 0


def _cmd_g2(args) -> int:
    config = _load_config_arg(args.config)
    tau_max = _span(args.tau_max, "--tau-max")
    rho, _, sup = _steady_populations(config)
    tau = np.linspace(0.0, tau_max, _points(args.points))
    values = g2(sup, rho, tau, config, channel=args.channel)
    with _output(args.out) as fh:
        fh.write("tau_us,g2\n" + _csv_rows((tau, values)))
    return 0


def _cmd_floquet(args) -> int:
    if args.axis is not None:
        return _cmd_scan(args)
    config = _load_config_arg(args.config)
    solution = solve_floquet_steady(config, args.order,
                                    check_truncation=not args.skip_truncation_check)
    doc = {
        "metadata": _metadata(config),
        "order": solution.order,
        "trap_frequency_MHz": to_mhz(solution.nu),
        "populations": {lbl: float(solution.populations[j]) for j, lbl in enumerate("SPDQ")},
        "residual": solution.residual,
        "pairing_defect": solution.pairing_defect,
    }
    if args.dump_blocks:
        doc["blocks"] = solution.to_json()["blocks"]
    with _output(args.out) as fh:
        _dump(doc, fh)
    return 0


def _cmd_dressed(args) -> int:
    config = _load_config_arg(args.config)
    # the JSON carries the perturbation warning as three_photon.warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbationInvalid)
        doc = _dressed_doc(config, args.velocity)
    with _output(args.out) as fh:
        _dump(doc, fh)
    return 0


def _dressed_doc(config: SystemConfig, velocity) -> dict:
    doc = {"metadata": _metadata(config)}

    try:
        report = three_photon_report(config)
        section = {
            "alpha_c": report.alpha_c,
            "epsilon": report.epsilon,
            "population_Q": report.population_q,
            "population_D": report.population_d,
            "population_S": report.population_s,
            "shift_SQ_MHz": to_mhz(report.shift_sq),
            "shift_QS_MHz": to_mhz(report.shift_qs),
            "q_linewidth_scale": report.q_linewidth_scale,
        }
        if report.warning:
            section["warning"] = report.warning
        doc["three_photon"] = section
    except ConfigError as exc:
        report = None
        doc["three_photon"] = {"error": f"{type(exc).__name__}: {exc}"}

    try:
        eig = lambda_eigensystem(config)
        doc["lambda"] = {
            "effective_rabi_MHz": to_mhz(eig.effective_rabi),
            "omega_bar_MHz": to_mhz(eig.omega_bar),
            "mixing_angle_rad": eig.theta,
            "omega_dark_MHz": to_mhz(eig.omega_dark),
            "omega_plus_MHz": to_mhz(eig.omega_plus),
            "omega_minus_MHz": to_mhz(eig.omega_minus),
            "dark_state": list(np.real(eig.dark_state)),
        }
    except ConfigError as exc:
        doc["lambda"] = {"error": f"{type(exc).__name__}: {exc}"}

    if velocity is not None:
        if report is None:
            doc["doppler"] = {"error": "three-photon report unavailable"}
        else:
            try:
                rate = doppler_rate(config, velocity)
                doc["doppler"] = {"velocity_m_per_s": velocity,
                                  "rate_MHz": to_mhz(rate)}
            except ConfigError as exc:
                doc["doppler"] = {"error": f"{type(exc).__name__}: {exc}"}
    return doc


def _add_common(parser) -> None:
    parser.add_argument("--config", required=True,
                        help=f"config JSON path or preset name ({', '.join(PRESETS)})")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout (default)")


def _add_scan_axis(parser, *, axis_required: bool) -> None:
    parser.add_argument("--axis", required=axis_required, default=None,
                        help="swept parameter path, e.g. laser_R.detuning")
    parser.add_argument("--range", required=axis_required, default=None,
                        help="START:STOP in MHz (use --range=-a:b for negative starts)")
    parser.add_argument("--points", type=int, default=201, help="number of grid points")
    parser.add_argument("--gamma-q-mode", choices=("physical", "zero"), default="physical",
                        help="metastable decay handling at every point")
    parser.add_argument("--workers", type=int, default=None,
                        help="threads that solve the sweep's 64-point blocks (>= 1; default: the "
                             "CPUs this process may use); the output does not depend on it")
    parser.add_argument("--json", action="store_true",
                        help="write the JSON document instead of CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nscheme",
                     description="Four-level N-scheme steady states, dynamics, and sideband spectra.")
    parser.add_argument("--version", action="version", version=f"nscheme {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("steady", help="steady-state populations as JSON")
    _add_common(p)
    p.add_argument("--gamma-q-zero", action="store_true",
                   help="solve with the metastable decay set to zero")
    p.set_defaults(func=_cmd_steady)

    p = sub.add_parser("scan", help="sweep one parameter, write a spectrum CSV")
    _add_common(p)
    _add_scan_axis(p, axis_required=True)
    p.add_argument("--solver", choices=("carrier", "floquet"), default="carrier")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                   help="floquet truncation order (floquet solver only)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("evolve", help="populations versus time as CSV")
    _add_common(p)
    p.add_argument("--initial", choices=("S", "P", "D", "Q"), default="S")
    p.add_argument("--t-max", type=float, required=True, help="final time in us")
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--method", choices=("auto", "eig", "rk"), default="auto",
                   help=f"auto and eig: eigen-propagation (exit 2 past eigenbasis condition number "
                        f"{EIG_COND_LIMIT:.0e}); rk: RK45 stepping, the independent check")
    p.add_argument("--gamma-q-zero", action="store_true")
    p.add_argument("--fit", action="store_true",
                   help="write fitted timescales as JSON instead of the trace")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("traj", help="quantum-jump trajectories: photon CSV or statistics")
    _add_common(p)
    p.add_argument("--initial", choices=("S", "P", "D", "Q"), default="S")
    p.add_argument("--t-max", type=float, required=True, help="trajectory length in us")
    p.add_argument("--n-traj", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stats", action="store_true",
                   help="write bright/dark statistics JSON instead of the photon list")
    p.add_argument("--dark-threshold", type=float, default=None,
                   help="dark-period threshold in us (default: 100x the bright inter-photon time)")
    p.set_defaults(func=_cmd_traj)

    p = sub.add_parser("g2", help="photon correlation g2(tau) as CSV")
    _add_common(p)
    p.add_argument("--tau-max", type=float, required=True, help="largest delay in us")
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--channel", choices=("both", "blue"), default="both")
    p.set_defaults(func=_cmd_g2)

    p = sub.add_parser("floquet", help="motional steady state: single point JSON or sweep CSV")
    _add_common(p)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER, help="truncation order")
    _add_scan_axis(p, axis_required=False)
    p.add_argument("--dump-blocks", action="store_true",
                   help="include all harmonic blocks in the JSON output")
    p.add_argument("--skip-truncation-check", action="store_true",
                   help="skip the order+1 comparison on single-point solves")
    p.set_defaults(func=_cmd_floquet, solver="floquet")

    p = sub.add_parser("dressed", help="perturbative and Lambda eigensystem reports as JSON")
    _add_common(p)
    p.add_argument("--velocity", type=float, default=None,
                   help="also report the Doppler detuning rate at this speed (m/s)")
    p.set_defaults(func=_cmd_dressed)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, SolverError, OSError) as exc:
        print(f"nscheme: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SolverError) else 1


if __name__ == "__main__":
    sys.exit(main())
