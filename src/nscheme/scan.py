"""Deterministic parameter sweeps over the steady-state solvers.

A scan re-solves the system at each point of a linearly spaced axis and
collects populations into a Spectrum. Points that fail with a solver
error are kept in-band as NaN rows with the error name in the flag
column, so a long sweep survives isolated degeneracies. Output is
stable across worker counts: rows are aggregated in axis order.
"""

import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple, Optional

import numpy as np
from scipy.signal import find_peaks as _local_maxima
from scipy.signal import peak_widths

from . import __version__
from .errors import ConfigError, SolverError, TooCoarse
from .floquet import DEFAULT_ORDER, solve_floquet_steady
from .liouvillian import build_hamiltonian, build_superoperator
from .model import (FREQUENCY_FIELDS, SystemConfig, config_hash, from_mhz,
                    level_index, replace_param, with_gamma_q)
from .steady import residual, steady_state

_SOLVERS = ("carrier", "floquet")
_GAMMA_MODES = ("physical", "zero")


@dataclasses.dataclass(frozen=True)
class ScanSpec:
    """One axis of a sweep: which parameter, its range in MHz, and the solver.

    axis is a config path such as "laser_R.detuning"; start/stop are in
    MHz for frequency fields and in the field's native unit otherwise.
    gamma_q_mode "zero" clears the metastable decay at every point,
    which is the variant the analytic estimates are built against.
    """

    axis: str
    start: float
    stop: float
    points: int
    solver: str = "carrier"
    floquet_order: int = DEFAULT_ORDER
    gamma_q_mode: str = "physical"

    def __post_init__(self):
        if not isinstance(self.axis, str) or "." not in self.axis:
            raise ConfigError(f"axis must be a section.field path, got {self.axis!r}")
        if self.points < 2:
            raise ConfigError(f"a scan needs at least 2 points, got {self.points}")
        if not (float(self.start) < float(self.stop)):
            raise ConfigError(f"empty axis range [{self.start}, {self.stop}]")
        if self.solver not in _SOLVERS:
            raise ConfigError(f"solver must be one of {_SOLVERS}, got {self.solver!r}")
        if self.floquet_order < 1:
            raise ConfigError(f"floquet_order must be >= 1, got {self.floquet_order}")
        if self.gamma_q_mode not in _GAMMA_MODES:
            raise ConfigError(f"gamma_q_mode must be one of {_GAMMA_MODES}, got {self.gamma_q_mode!r}")
        if self.axis == "atom.gamma_Q" and self.gamma_q_mode == "zero":
            raise ConfigError("scanning atom.gamma_Q with gamma_q_mode='zero' would overwrite the axis")

    @property
    def values_mhz(self) -> np.ndarray:
        return np.linspace(float(self.start), float(self.stop), int(self.points))


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """Populations along a scan axis plus per-point solver diagnostics.

    axis_mhz is the swept value in input units, populations is (n, 4)
    ordered S, P, D, Q. flags holds "" for solved points and the solver
    error name for NaN rows. metadata records enough context (package
    version, base-config hash, solver settings) to reproduce the sweep.
    """

    axis_mhz: np.ndarray
    populations: np.ndarray
    residuals: np.ndarray
    flags: tuple
    metadata: dict

    def population(self, label: str) -> np.ndarray:
        return self.populations[:, level_index(label)]

    @property
    def n_failed(self) -> int:
        return sum(1 for f in self.flags if f)

    def to_csv(self, stream) -> None:
        stream.write("axis_MHz,P_S,P_P,P_D,P_Q,residual,flag\n")
        for i in range(self.axis_mhz.size):
            nums = [self.axis_mhz[i], *self.populations[i], self.residuals[i]]
            stream.write(",".join("%.12g" % v for v in nums) + f",{self.flags[i]}\n")

    def to_json(self, stream) -> None:
        json.dump(self.as_dict(), stream, indent=2)
        stream.write("\n")

    def as_dict(self) -> dict:
        def column(j):
            col = self.populations[:, j]
            return [None if np.isnan(v) else float(v) for v in col]

        return {
            "metadata": dict(self.metadata),
            "axis_MHz": [float(v) for v in self.axis_mhz],
            "populations": {lbl: column(j) for j, lbl in enumerate("SPDQ")},
            "residuals": [None if np.isnan(v) else float(v) for v in self.residuals],
            "flags": list(self.flags),
        }


def _point_config(config: SystemConfig, axis: str, value_mhz: float, gamma_q_mode: str) -> SystemConfig:
    value = from_mhz(value_mhz) if axis in FREQUENCY_FIELDS else value_mhz
    cfg = replace_param(config, axis, value)
    if gamma_q_mode == "zero":
        cfg = with_gamma_q(cfg, 0.0)
    return cfg


def _solve_point(payload):
    """One scan point: (populations, residual, pairing defect, flag)."""
    config, axis, value_mhz, solver, order, gamma_q_mode = payload
    cfg = _point_config(config, axis, value_mhz, gamma_q_mode)
    try:
        if solver == "floquet":
            sol = solve_floquet_steady(cfg, order, check_truncation=False)
            return sol.populations, sol.residual, sol.pairing_defect, ""
        sup = build_superoperator(build_hamiltonian(cfg).h_total, cfg)
        rho = steady_state(sup)
        pops = np.real(np.diag(rho.matrix)).copy()
        return pops, residual(sup, rho), 0.0, ""
    except SolverError as exc:
        return np.full(4, np.nan), np.nan, np.nan, type(exc).__name__


def _worker_count(workers: Optional[int]) -> int:
    if workers is not None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        return int(workers)
    env = os.environ.get("NSCHEME_WORKERS", "")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"NSCHEME_WORKERS must be an integer, got {env!r}") from None
        if n < 1:
            raise ConfigError(f"NSCHEME_WORKERS must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def run_scan(config: SystemConfig, spec: ScanSpec, *, workers: Optional[int] = None) -> Spectrum:
    """Sweep spec.axis and solve the steady state at every point.

    Solver errors at individual points become NaN rows with a flag;
    configuration errors (bad axis, motion off for the floquet solver)
    abort the whole sweep. workers > 1 distributes points over a
    process pool; the row order and content are identical either way.
    The default comes from NSCHEME_WORKERS, then cpu_count.
    """
    values = spec.values_mhz
    # fail fast on a bad axis or an invalid per-point config
    _point_config(config, spec.axis, float(values[0]), spec.gamma_q_mode)

    payloads = [(config, spec.axis, float(v), spec.solver, spec.floquet_order,
                 spec.gamma_q_mode) for v in values]
    n_workers = min(_worker_count(workers), len(payloads))
    if n_workers > 1:
        chunk = max(1, len(payloads) // (4 * n_workers))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(_solve_point, payloads, chunksize=chunk))
    else:
        rows = [_solve_point(p) for p in payloads]

    populations = np.vstack([r[0] for r in rows])
    residuals = np.array([r[1] for r in rows])
    pairing = np.array([r[2] for r in rows])
    flags = tuple(r[3] for r in rows)

    metadata = {
        "version": __version__,
        "config_hash": config_hash(config),
        "axis": spec.axis,
        "start_MHz": float(spec.start),
        "stop_MHz": float(spec.stop),
        "points": int(spec.points),
        "solver": spec.solver,
        "gamma_q_mode": spec.gamma_q_mode,
        "dephasing": True,
        "n_failed": int(sum(1 for f in flags if f)),
    }
    if spec.solver == "floquet":
        metadata["floquet_order"] = int(spec.floquet_order)
        solved = pairing[~np.isnan(pairing)]
        metadata["max_pairing_defect"] = float(solved.max()) if solved.size else None

    for arr in (values, populations, residuals):
        arr.setflags(write=False)
    return Spectrum(axis_mhz=values, populations=populations, residuals=residuals,
                    flags=flags, metadata=metadata)


class Peak(NamedTuple):
    """A local maximum: location and FWHM in axis units, height in population."""

    location: float
    height: float
    fwhm: float


def find_peaks(spectrum: Spectrum, level: str = "Q", min_prominence: float = 0.01) -> list:
    """Local maxima of one population along the scan axis.

    Peak locations are refined by a parabola through the three samples
    around each maximum, so they resolve below the grid step. Widths
    are full widths at half prominence-height from peak_widths. The
    grid must resolve every reported peak with at least 5 samples
    across its FWHM; coarser input raises TooCoarse rather than
    returning locations that would be dominated by the step size.
    """
    y = spectrum.population(level)
    if np.isnan(y).any():
        raise SolverError(
            f"{int(np.isnan(y).sum())} flagged point(s) in the spectrum; "
            "peak search needs a fully solved scan")
    step = float(spectrum.axis_mhz[1] - spectrum.axis_mhz[0])
    idx, _ = _local_maxima(y, prominence=min_prominence)
    if idx.size == 0:
        return []
    widths = peak_widths(y, idx, rel_height=0.5)[0]
    if widths.min() < 5.0:
        raise TooCoarse(
            f"narrowest peak spans {widths.min():.2f} samples at half height; "
            "need at least 5 - refine the axis grid")

    peaks = []
    for k, w in zip(idx, widths):
        denom = y[k - 1] - 2.0 * y[k] + y[k + 1]
        shift = 0.5 * (y[k - 1] - y[k + 1]) / denom if denom < 0 else 0.0
        height = y[k] - 0.25 * (y[k - 1] - y[k + 1]) * shift
        peaks.append(Peak(location=float(spectrum.axis_mhz[k] + shift * step),
                          height=float(height), fwhm=float(w * step)))
    return peaks
