"""Deterministic parameter sweeps over the steady-state solvers.

A scan builds the config of every point of a linearly spaced axis
first, so an invalid point fails the sweep before anything is solved.
It then solves the points in blocks of BLOCK_POINTS, in axis order,
each block as stacked linear algebra: one stacked generator build and
one stacked steady-state (or Floquet continued-fraction) solve. The
fixed block size bounds the memory of the stacked arrays on long
sweeps. Points that fail with a solver error are kept in-band as NaN
rows with the error name in the flag column, so a long sweep survives
isolated degeneracies. A LAPACK failure of a stacked call fails the
whole block; the block is then solved again point by point through
the same function, so every point gets the verdict it gets alone.

scipy.signal is imported on demand by find_peaks, so importing this
module costs numpy alone.
"""

import dataclasses
import json
import math
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .errors import ConfigError, SolverError, TooCoarse
from .floquet import DEFAULT_ORDER, solve_floquet_stack
from .liouvillian import hamiltonian_stack, superoperator_stack
from .model import (FREQUENCY_FIELDS, SystemConfig, config_hash, from_mhz,
                    level_index, replace_param, with_gamma_q)
from .steady import residuals, steady_states

_SOLVERS = ("carrier", "floquet")
_GAMMA_MODES = ("physical", "zero")
#: points per stacked solve
BLOCK_POINTS = 64


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
        if not math.isfinite(float(self.stop) - float(self.start)):
            raise ConfigError(f"axis range and its width must be finite, got [{self.start}, {self.stop}]")
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


def _solve_block(configs, spec: ScanSpec):
    """(populations, residuals, pairing defects, flags) of one block of points."""
    try:
        if spec.solver == "floquet":
            blocks, res, pairing, errors = solve_floquet_stack(configs, spec.floquet_order)
            rho = blocks[:, spec.floquet_order]
        else:
            m = superoperator_stack(hamiltonian_stack(configs).h_total, configs)
            rho, errors = steady_states(m)
            res, pairing = residuals(m, rho), np.zeros(len(configs))
    except SolverError as exc:
        # a stacked LAPACK call failed; its verdict holds only for a lone point
        if len(configs) > 1:
            return _join([_solve_block([c], spec) for c in configs])
        rho, res, pairing, errors = np.full((1, 4, 4), np.nan), np.full(1, np.nan), np.full(1, np.nan), [exc]
    flags = ["" if e is None else type(e).__name__ for e in errors]
    return np.real(np.diagonal(rho, axis1=-2, axis2=-1)), res, pairing, flags


def _join(blocks):
    pops, res, pairing, flags = zip(*blocks)
    return (np.concatenate(pops), np.concatenate(res), np.concatenate(pairing),
            [f for block in flags for f in block])


def run_scan(config: SystemConfig, spec: ScanSpec, *, workers: Optional[int] = None) -> Spectrum:
    """Sweep spec.axis and solve the steady state at every point.

    Solver errors at individual points become NaN rows with a flag;
    configuration errors (bad axis, an axis value that makes an
    invalid config, motion off for the floquet solver) abort the
    whole sweep before any point is solved. workers is accepted for
    compatibility and ignored: a sweep runs in one process as stacked
    linear algebra. It must still be >= 1 when given.
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    values = spec.values_mhz
    configs = [_point_config(config, spec.axis, float(v), spec.gamma_q_mode) for v in values]
    populations, res, pairing, flags = _join(
        [_solve_block(configs[i:i + BLOCK_POINTS], spec) for i in range(0, len(configs), BLOCK_POINTS)])
    flags = tuple(flags)

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

    for arr in (values, populations, res):
        arr.setflags(write=False)
    return Spectrum(axis_mhz=values, populations=populations, residuals=res,
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
    from scipy.signal import find_peaks as _local_maxima
    from scipy.signal import peak_widths

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
