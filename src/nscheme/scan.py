"""Deterministic parameter sweeps over the steady-state solvers.

A scan builds no per-point config. It makes one model.ParamTable, the
parameter columns of every point of a linearly spaced axis, from the
base config and the axis values; the swept section's validation rules
run on the whole column first, so an invalid point fails the sweep,
with the error its own config would raise, before anything is solved.
It then solves slices of the table in blocks of BLOCK_POINTS, each
block as stacked linear algebra: one stacked generator build and one
stacked steady-state (or Floquet continued-fraction) solve. The fixed
block size bounds the memory of the stacked arrays on long sweeps.
A Floquet sweep long enough to pay for it is first factored once, as
a floquet.FloquetPencil anchored at its middle point; each block then
solves its points from the pencil, and the points the pencil does not
solve (or every point of a block whose generators are not finite) take
the continued fraction, with the verdict they would get without it.
The blocks are independent, so a sweep hands them to `workers`
threads (the calling thread and workers - 1 helpers) that take block
indices in axis order from one shared counter; numpy's LAPACK calls
release the GIL, so the threads share the cores. A sweep on a pencil
runs on the calling thread alone, whatever `workers` is: its blocks
hold the GIL. The results are joined in axis order, so the output
does not depend on the number of workers. Points that fail with a
solver error are kept in-band as NaN rows with the error name in the
flag column, so a long sweep survives isolated degeneracies. A LAPACK failure of a stacked call fails the
whole block; the block is then solved again point by point through
the same function, so every point gets the verdict it gets alone.
"""

import contextvars
import dataclasses
import json
import math
import os
import threading
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConfigError, SolverError
from .floquet import DEFAULT_ORDER, FloquetPencil, floquet_pencil, require_order, solve_floquet_stack
from .liouvillian import hamiltonian_stack, superoperator_stack
from .model import (_COLUMN, FREQUENCY_FIELDS, ParamTable, SystemConfig, _resolve_path, config_hash,
                    from_mhz, level_index, require_integer, with_gamma_q)
from .steady import residuals, steady_states

_SOLVERS = ("carrier", "floquet")
_GAMMA_MODES = ("physical", "zero")
#: points per stacked solve
BLOCK_POINTS = 64
#: largest grid a scan, evolve or g2 request may ask for; a larger one is
#: refused before any array is allocated (at the bound a carrier scan
#: peaks near 0.7 GB and a Floquet sweep near 1.7 GB)
MAX_POINTS = 1_000_000


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
        if require_integer(self.points, "points") < 2:
            raise ConfigError(f"a scan needs at least 2 points, got {self.points}")
        if self.points > MAX_POINTS:
            raise ConfigError(f"a scan takes at most {MAX_POINTS} points, got {self.points}")
        if not math.isfinite(float(self.stop) - float(self.start)):
            raise ConfigError(f"axis range and its width must be finite, got [{self.start}, {self.stop}]")
        if not (float(self.start) < float(self.stop)):
            raise ConfigError(f"empty axis range [{self.start}, {self.stop}]")
        if self.solver not in _SOLVERS:
            raise ConfigError(f"solver must be one of {_SOLVERS}, got {self.solver!r}")
        require_order(self.floquet_order, "floquet_order")
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
    version, base-config hash, solver settings) to reproduce the sweep;
    a Floquet sweep's adds max_pairing_defect, the largest hermiticity
    defect of a solved point's rho(0) before it was hermitized, and
    solved_by, the number of points solved by the pencil and by the
    continued fraction.
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

    def to_json(self, stream) -> None:
        """The bytes of json.dump(self.as_dict(), stream, indent=2) and a newline.

        The float columns are joined from float.__repr__, which is what
        json writes for a finite float, rather than passed through the
        pure-Python indenting encoder; json writes the rest.
        """
        def nested(value) -> str:
            return json.dumps(value, indent=2).replace("\n", "\n  ")

        populations = ",\n".join(f'    "{lbl}": {_json_floats(col, "      ", null_nan=True)}'
                                  for lbl, col in zip("SPDQ", self.populations.T))
        stream.write(f'{{\n  "metadata": {nested(dict(self.metadata))},\n'
                     f'  "axis_MHz": {_json_floats(self.axis_mhz, "    ", null_nan=False)},\n'
                     f'  "populations": {{\n{populations}\n  }},\n'
                     f'  "residuals": {_json_floats(self.residuals, "    ", null_nan=True)},\n'
                     f'  "flags": {nested(list(self.flags))}\n}}\n')

    def as_dict(self) -> dict:
        def column(values):
            return [None if math.isnan(v) else v for v in values.tolist()]

        return {
            "metadata": dict(self.metadata),
            "axis_MHz": self.axis_mhz.tolist(),
            "populations": {lbl: column(col) for lbl, col in zip("SPDQ", self.populations.T)},
            "residuals": column(self.residuals),
            "flags": list(self.flags),
        }


def _json_floats(values: np.ndarray, indent: str, *, null_nan: bool) -> str:
    """A float column as json.dumps(..., indent=2) writes it at the given item indent; NaN as null if null_nan."""
    if not len(values):
        return "[]"
    texts = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)):
        value = float(values[i])
        texts[i] = json.dumps(None if null_nan and math.isnan(value) else value)
    return f"[\n{indent}" + f",\n{indent}".join(texts) + f"\n{indent[:-2]}]"


def _sweep_table(config: SystemConfig, spec: ScanSpec, values: np.ndarray) -> ParamTable:
    """Parameter columns of the sweep's points at the axis values (MHz), validated before any solve."""
    if spec.axis in FREQUENCY_FIELDS:
        with np.errstate(over="ignore"):  # a value past the float range is inf, which the rules refuse
            values = from_mhz(values)
    if spec.gamma_q_mode == "zero":
        config = with_gamma_q(config, 0.0)
    return ParamTable.sweep(config, spec.axis, values)


def _solve_block(table: ParamTable, spec: ScanSpec, pencil: Optional[FloquetPencil] = None):
    """(populations, residuals, pairing defects, flags, solved-by-pencil mask) of one block of points.

    With a pencil, the points it does not solve take the continued
    fraction, which gives them the verdict they get without it.
    """
    if pencil is not None:
        pops, res, pairing, by_pencil = pencil.solve(table)
        flags = [""] * len(table)
        rest = np.flatnonzero(~by_pencil)
        if rest.size:
            pops[rest], res[rest], pairing[rest], rest_flags, _ = _solve_block(table[rest], spec)
            for i, flag in zip(rest, rest_flags):
                flags[i] = flag
        return pops, res, pairing, flags, by_pencil
    try:
        if spec.solver == "floquet":
            blocks, res, pairing, errors = solve_floquet_stack(table, spec.floquet_order)
            rho = blocks[:, 0]
        else:
            m = superoperator_stack(hamiltonian_stack(table).h_total, table)
            rho, errors = steady_states(m)
            res, pairing = residuals(m, rho), np.zeros(len(table))
    except SolverError as exc:
        # a stacked LAPACK call failed; its verdict holds only for a lone point
        if len(table) > 1:
            return _join([_solve_block(table[i:i + 1], spec) for i in range(len(table))])
        rho, res, pairing, errors = np.full((1, 4, 4), np.nan), np.full(1, np.nan), np.full(1, np.nan), [exc]
    flags = ["" if e is None else type(e).__name__ for e in errors]
    # a copy, so the block's density matrices (every upper harmonic on the Floquet route) are freed now
    pops = np.real(np.diagonal(rho, axis1=-2, axis2=-1)).copy()
    return pops, res, pairing, flags, np.zeros(len(table), dtype=bool)


def _join(blocks):
    pops, res, pairing, flags, by_pencil = zip(*blocks)
    return (np.concatenate(pops), np.concatenate(res), np.concatenate(pairing),
            [f for block in flags for f in block], np.concatenate(by_pencil))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solve_blocks(table: ParamTable, spec: ScanSpec, workers: int, pencil: Optional[FloquetPencil] = None):
    """_solve_block over the table's BLOCK_POINTS slices on `workers` threads, joined in axis order.

    The calling thread works too; each helper runs in a copy of the
    caller's contextvars context, so numpy's errstate is the caller's.
    An exception stops new blocks from starting; once every helper has
    joined, the exception of the earliest failed block is raised. Blocks
    are taken in axis order, so that is the block a serial run fails on.
    """
    starts = range(0, len(table), BLOCK_POINTS)
    results, failures = [None] * len(starts), {}
    lock = threading.Lock()
    pending = iter(range(len(starts)))

    def work():
        while True:
            with lock:
                i = None if failures else next(pending, None)
            if i is None:
                return
            try:
                results[i] = _solve_block(table[starts[i]:starts[i] + BLOCK_POINTS], spec, pencil)
            except BaseException as exc:  # re-raised in the caller below
                with lock:
                    failures[i] = exc

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,), daemon=True)
               for _ in range(min(workers, len(starts)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return _join(results)


def run_scan(config: SystemConfig, spec: ScanSpec, *, workers: Optional[int] = None) -> Spectrum:
    """Sweep spec.axis and solve the steady state at every point.

    Solver errors at individual points become NaN rows with a flag;
    configuration errors (bad axis, an axis value that makes an
    invalid config, motion off for the floquet solver) abort the
    whole sweep before any point is solved. workers is the number of
    threads that solve the sweep's blocks (one on a pencil), an integer
    >= 1; None means the CPUs this process may use. The output does not
    depend on it: every count gives the bytes of the workers=1 run.
    """
    workers = _usable_cpus() if workers is None else require_integer(workers, "workers")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    values = spec.values_mhz
    table = _sweep_table(config, spec, values)
    pencil = None
    if spec.solver == "floquet":
        pencil = floquet_pencil(table, _COLUMN[_resolve_path(spec.axis)], spec.floquet_order)
    # a pencil block is small numpy calls that hold the GIL, so helper threads would only wait
    populations, res, pairing, flags, by_pencil = _solve_blocks(table, spec, 1 if pencil else workers, pencil)
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
        pencil_points = int(by_pencil.sum())
        metadata["solved_by"] = {"pencil": pencil_points, "continued_fraction": int(spec.points) - pencil_points}

    for arr in (values, populations, res):
        arr.setflags(write=False)
    return Spectrum(axis_mhz=values, populations=populations, residuals=res,
                    flags=flags, metadata=metadata)
