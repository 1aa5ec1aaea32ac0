"""Parameter model for a four-level atom driven by three lasers.

Level basis, in fixed order: S (ground), P (excited, decaying), D
(metastable lower), Q (metastable trap level). Laser B drives S-P,
laser R drives D-P, laser C drives S-Q.

Unit convention: angular frequencies in rad/us and times in us
throughout the package, with hbar = 1. Input files and factory
helpers take ordinary frequencies in MHz, understood as the value
quoted after a "2pi x" prefix, so ``from_mhz(8.0)`` is a detuning of
2pi x 8 MHz = 50.27 rad/us. Wavelengths are in nm, the motional
amplitude in nm, the atomic mass in kg.

ParamTable holds the generator's parameters as columns over a stack
of points; the generator builders read nothing else. Each config
section's validation rules are one function over scalars or columns,
so a sweep validates its axis column with the very checks a config
constructor runs.

The JSON config schema has one home, the table _SCHEMA: it maps each
(section, key) of a file to its dataclass field and unit scale, and
config_from_dict, config_to_dict (so config_hash), the sweep paths and
FREQUENCY_FIELDS all read it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import (
    BadDirection,
    BranchingNotNormalized,
    ConfigError,
    MotionDisabled,
    NegativeRate,
    NonPhysicalState,
    UnknownLevel,
)

TWO_PI = 2.0 * math.pi

LEVELS = ("S", "P", "D", "Q")

#: default spontaneous decay rate of P, 2pi x 22 MHz (Ca+ value)
GAMMA_P_DEFAULT = TWO_PI * 22.0
#: default decay rate of Q in rad/us (1 s lifetime)
GAMMA_Q_DEFAULT = 1e-6
#: default branching fractions P->S : P->D = 15 : 1
BETA_PS_DEFAULT = 15.0 / 16.0
BETA_PD_DEFAULT = 1.0 / 16.0

AMU_KG = 1.66053906660e-27
MASS_DEFAULT = 40.0 * AMU_KG

_WAVELENGTH_DEFAULTS = {"laser_B": 397.0, "laser_R": 866.0, "laser_C": 729.0}


def from_mhz(value):
    """Convert a frequency in MHz (the '2pi x' value) to rad/us."""
    return TWO_PI * value


def to_mhz(value):
    """Convert an angular frequency in rad/us back to MHz."""
    return value / TWO_PI


def level_index(label: str) -> int:
    try:
        return LEVELS.index(label)
    except ValueError:
        raise UnknownLevel(f"unknown level {label!r}, expected one of {LEVELS}") from None


def require_integer(value, what: str, error: type[ConfigError] = ConfigError) -> int:
    """value as an int; a bool or a non-integer such as 2.5 raises error."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise error(f"{what} must be an integer, got {value!r}")
    return number


def _at(column, i: int):
    """Point i of a column, or the scalar itself, as the Python value a config would hold."""
    return column[i].item() if isinstance(column, np.ndarray) else column


def _raise_first(rules) -> None:
    """Raise the error of the first failing point; a point failing several rules gets the earliest.

    rules yields (bad, error) pairs in check order: bad is a bool, or a
    bool array over points, and error(i) is the exception of point i.
    The pairs are drawn lazily and a failure at point 0 stops the draw,
    so on scalars the rules run exactly as a sequence of if-raise checks.
    """
    first = first_error = None
    for bad, error in rules:
        if isinstance(bad, np.ndarray):
            hits = np.flatnonzero(bad)
            if hits.size and (first is None or hits[0] < first):
                first, first_error = int(hits[0]), error
        elif bad:
            first, first_error = 0, error
        if first == 0:
            break
    if first is not None:
        raise first_error(first)


def _finite_rules(section: str, **fields):
    """Reject a NaN or infinite field, e.g. an MHz value that overflowed on conversion."""
    for name, column in fields.items():
        bad = ~np.isfinite(column) if isinstance(column, np.ndarray) else not math.isfinite(column)
        yield bad, lambda i, name=name, column=column: ConfigError(
            f"{section}.{name} must be finite, got {_at(column, i)!r}")


def _is_bool(column) -> bool:
    return column.dtype == bool if isinstance(column, np.ndarray) else isinstance(column, bool)


@dataclasses.dataclass(frozen=True)
class LaserDrive:
    """One driving laser.

    rabi, detuning and linewidth (HWHM) are angular frequencies in
    rad/us; wavelength is in nm; direction is the sign of the
    propagation direction along the 1-D motional axis.
    """

    rabi: float
    detuning: float
    wavelength: float
    direction: int = 1
    linewidth: float = 0.0

    def __post_init__(self):
        _raise_first(self._rules(**vars(self)))

    @staticmethod
    def _rules(rabi, detuning, wavelength, direction, linewidth):
        """The checks in order, over scalars or (k,) columns (see _raise_first)."""
        yield from _finite_rules("LaserDrive", rabi=rabi, detuning=detuning, wavelength=wavelength,
                                 direction=direction, linewidth=linewidth)
        yield rabi < 0, lambda i: NegativeRate(f"rabi must be >= 0, got {_at(rabi, i)}")
        yield wavelength <= 0, lambda i: NegativeRate(f"wavelength must be > 0, got {_at(wavelength, i)}")
        yield linewidth < 0, lambda i: NegativeRate(f"linewidth must be >= 0, got {_at(linewidth, i)}")
        yield ((direction != 1) & (direction != -1),
               lambda i: BadDirection(f"direction must be +1 or -1, got {_at(direction, i)}"))


@dataclasses.dataclass(frozen=True)
class AtomSpec:
    """Decay rates (rad/us), branching fractions and mass (kg)."""

    gamma_p: float = GAMMA_P_DEFAULT
    gamma_q: float = GAMMA_Q_DEFAULT
    beta_ps: float = BETA_PS_DEFAULT
    beta_pd: float = BETA_PD_DEFAULT
    mass: float = MASS_DEFAULT

    def __post_init__(self):
        _raise_first(self._rules(**vars(self)))

    @staticmethod
    def _rules(gamma_p, gamma_q, beta_ps, beta_pd, mass):
        """The checks in order, over scalars or (k,) columns (see _raise_first)."""
        yield from _finite_rules("AtomSpec", gamma_p=gamma_p, gamma_q=gamma_q, beta_ps=beta_ps,
                                 beta_pd=beta_pd, mass=mass)
        yield gamma_p <= 0, lambda i: NegativeRate(f"gamma_p must be > 0, got {_at(gamma_p, i)}")
        yield gamma_q < 0, lambda i: NegativeRate(f"gamma_q must be >= 0, got {_at(gamma_q, i)}")
        yield mass <= 0, lambda i: NegativeRate(f"mass must be > 0, got {_at(mass, i)}")
        yield ((beta_ps < 0.0) | (beta_ps > 1.0) | (beta_pd < 0.0) | (beta_pd > 1.0),
               lambda i: BranchingNotNormalized(
                   f"branching fractions must lie in [0, 1], got {_at(beta_ps, i)}, {_at(beta_pd, i)}"))
        yield (abs(beta_ps + beta_pd - 1.0) > 1e-12,
               lambda i: BranchingNotNormalized(
                   f"beta_ps + beta_pd must equal 1, got {_at(beta_ps, i) + _at(beta_pd, i)}"))


@dataclasses.dataclass(frozen=True)
class MotionSpec:
    """Classical 1-D motion x(t) = amplitude * cos(trap_frequency * t).

    trap_frequency in rad/us, amplitude in nm. With ``enabled`` False
    the amplitude is ignored and all couplings are carrier couplings.
    """

    enabled: bool = False
    trap_frequency: float = TWO_PI * 1.0
    amplitude: float = 0.0

    def __post_init__(self):
        _raise_first(self._rules(**vars(self)))

    @staticmethod
    def _rules(enabled, trap_frequency, amplitude):
        """The checks in order, over scalars or (k,) columns (see _raise_first)."""
        yield (not _is_bool(enabled),
               lambda i: ConfigError(f"MotionSpec.enabled must be True or False, got {_at(enabled, i)!r}"))
        yield from _finite_rules("MotionSpec", enabled=enabled, trap_frequency=trap_frequency,
                                 amplitude=amplitude)
        yield (np.logical_and(enabled, trap_frequency <= 0),
               lambda i: NegativeRate(f"trap_frequency must be > 0, got {_at(trap_frequency, i)}"))
        yield amplitude < 0, lambda i: NegativeRate(f"amplitude must be >= 0, got {_at(amplitude, i)}")


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Full parameter set: three lasers, atomic constants, motion."""

    laser_b: LaserDrive
    laser_r: LaserDrive
    laser_c: LaserDrive
    atom: AtomSpec = dataclasses.field(default_factory=AtomSpec)
    motion: MotionSpec = dataclasses.field(default_factory=MotionSpec)


class LambDicke(NamedTuple):
    eta_b: float
    eta_r: float
    eta_c: float
    delta_k: float          # k_R - k_B + k_C in rad/nm
    delta_k_over_kb: float  # same, in units of |k_B|


def wavenumber(laser: LaserDrive) -> float:
    """Signed wavenumber direction * 2pi / wavelength in rad/nm."""
    return laser.direction * TWO_PI / laser.wavelength


def lamb_dicke_parameters(config: SystemConfig) -> LambDicke:
    """Signed modulation indices eta_j = k_j * amplitude / 2.

    Also returns the residual wavevector of the closed three-photon
    loop, Delta k = k_R - k_B + k_C, both in rad/nm and in units of
    |k_B|. Raises MotionDisabled when motion is off.
    """
    if not config.motion.enabled:
        raise MotionDisabled("lamb_dicke_parameters requires motion enabled")
    half_x0 = config.motion.amplitude / 2.0
    kb = wavenumber(config.laser_b)
    kr = wavenumber(config.laser_r)
    kc = wavenumber(config.laser_c)
    delta_k = kr - kb + kc
    return LambDicke(kb * half_x0, kr * half_x0, kc * half_x0, delta_k, delta_k / abs(kb))


#: allowed negative-eigenvalue margin of a density matrix
EIG_FLOOR = 1e-10


class DensityMatrix:
    """4x4 density matrix in the (S, P, D, Q) basis.

    The wrapped array is read-only. Construction verifies hermiticity,
    unit trace and positivity (no eigenvalue below -EIG_FLOOR) unless
    check=False.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, check: bool = True):
        m = np.array(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise NonPhysicalState(f"expected a 4x4 matrix, got shape {m.shape}")
        if check:
            check_density_matrices(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def population(self, label: str) -> float:
        return float(np.real(self.matrix[level_index(label), level_index(label)]))

    def __repr__(self):
        pops = ", ".join(f"{l}={p:.4g}" for l, p in zip(LEVELS, self.populations))
        return f"DensityMatrix({pops})"


def check_density_matrices(m: np.ndarray, eigvals=None) -> None:
    """DensityMatrix's checks, on one matrix or a non-empty stack of them.

    eigvals, when given, is np.linalg.eigvalsh(m) as the caller already
    computed it for these same matrices.
    """
    if np.abs(m - np.swapaxes(m, -1, -2).conj()).max() > 1e-12:
        raise NonPhysicalState("matrix is not Hermitian")
    trace_defect = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max()
    if trace_defect > 1e-10:
        raise NonPhysicalState(f"trace deviates from 1 by {trace_defect:.2e}")
    eigs = np.linalg.eigvalsh(m) if eigvals is None else eigvals
    if eigs.min() < -EIG_FLOOR:
        raise NonPhysicalState(f"negative eigenvalue {eigs.min():.2e}")


def pure_state(label: str) -> DensityMatrix:
    """Projector |label><label| as a DensityMatrix."""
    i = level_index(label)
    m = np.zeros((4, 4), dtype=complex)
    m[i, i] = 1.0
    return DensityMatrix(m, check=False)


# ---------------------------------------------------------------------------
# JSON configuration files
#
# All frequencies in the file are plain numbers in MHz (the "2pi x"
# values); wavelengths and the motional amplitude in nm, mass in amu.
# An absent key takes its dataclass default, a laser's wavelength_nm
# that of its transition; gamma_Q may also be null, selecting the 1 s
# lifetime default.

#: JSON (section, key) -> (SystemConfig attribute, dataclass field, scale):
#: a file number times scale is the field's value; None marks the
#: non-numeric keys direction and enabled
_SCHEMA = {
    **{(laser, key): (laser.lower(), field, scale)
       for laser in _WAVELENGTH_DEFAULTS
       for key, field, scale in (("rabi", "rabi", TWO_PI), ("detuning", "detuning", TWO_PI),
                                 ("wavelength_nm", "wavelength", 1.0), ("direction", "direction", None),
                                 ("linewidth", "linewidth", TWO_PI))},
    ("atom", "gamma_P"): ("atom", "gamma_p", TWO_PI),
    ("atom", "gamma_Q"): ("atom", "gamma_q", TWO_PI),
    ("atom", "beta_PS"): ("atom", "beta_ps", 1.0),
    ("atom", "beta_PD"): ("atom", "beta_pd", 1.0),
    ("atom", "mass_amu"): ("atom", "mass", AMU_KG),
    ("motion", "enabled"): ("motion", "enabled", None),
    ("motion", "trap_frequency"): ("motion", "trap_frequency", TWO_PI),
    ("motion", "amplitude_nm"): ("motion", "amplitude", 1.0),
}

#: config fields holding angular frequencies (scan axes in MHz convert into these)
FREQUENCY_FIELDS = {f"{section}.{key}" for (section, key), (_, _, scale) in _SCHEMA.items() if scale == TWO_PI}


def _require_keys(section: dict, allowed: set, where: str) -> None:
    """Refuse a section that is not a JSON object, or that holds a key outside allowed."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _field_value(value, where: str, field: str, scale):
    """A file value as its dataclass field holds it; a value of the wrong JSON type is a ConfigError."""
    if field == "direction":
        if isinstance(value, bool) or value not in (1, -1):
            raise BadDirection(f"{where} must be +1 or -1, got {value!r}")
        return int(value)
    if field == "enabled":
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number * scale


def _section_fields(data: dict, name: str, required=()) -> dict:
    """The dataclass fields that section name of the file gives, in internal units."""
    section = data.get(name, {})
    keys = {key: entry for (owner, key), entry in _SCHEMA.items() if owner == name}
    _require_keys(section, set(keys), name)
    for key in required:
        if key not in section:
            raise ConfigError(f"{name}.{key} is required")
    return {field: _field_value(section[key], f"{name}.{key}", field, scale)
            for key, (_, field, scale) in keys.items()
            # a null gamma_Q selects the default lifetime, as an absent one does
            if key in section and not (key == "gamma_Q" and section[key] is None)}


def config_from_dict(data: dict) -> SystemConfig:
    """Build a SystemConfig from the JSON schema dict. Unknown keys are errors."""
    _require_keys(data, {section for section, _ in _SCHEMA}, "config")
    for name in _WAVELENGTH_DEFAULTS:
        if name not in data:
            raise ConfigError(f"section {name} is required")
    atom = AtomSpec(**_section_fields(data, "atom"))
    motion = MotionSpec(**_section_fields(data, "motion"))
    lasers = [LaserDrive(**{"wavelength": wavelength, **_section_fields(data, name, ("rabi", "detuning"))})
              for name, wavelength in _WAVELENGTH_DEFAULTS.items()]
    return SystemConfig(*lasers, atom=atom, motion=motion)


def config_to_dict(config: SystemConfig) -> dict:
    """Inverse of config_from_dict; frequencies back in MHz."""
    doc = {}
    for (section, key), (attr, field, scale) in _SCHEMA.items():
        value = getattr(getattr(config, attr), field)
        doc.setdefault(section, {})[key] = value if scale is None else value / scale
    return doc


def load_config(path) -> SystemConfig:
    """Read and validate a JSON config file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(data)


def config_hash(config: SystemConfig) -> str:
    """sha256 of the canonical JSON form, for output metadata."""
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _resolve_path(path: str) -> tuple[str, str]:
    """(section attribute, field) of a JSON path such as 'laser_R.detuning' that names a ParamTable column."""
    attr, field, _ = _SCHEMA.get(tuple(path.split(".")), (None, None, None))
    if (attr, field) not in _COLUMN:
        raise ConfigError(f"unknown parameter path {path!r}")
    return attr, field


def with_gamma_q(config: SystemConfig, gamma_q: float) -> SystemConfig:
    """New config with atom.gamma_q replaced (rad/us)."""
    return dataclasses.replace(config, atom=dataclasses.replace(config.atom, gamma_q=gamma_q))


_LASERS = ("laser_b", "laser_r", "laser_c")
# (config section, field) of each column of a ParamTable, the lasers of a laser field adjacent
_TABLE_FIELDS = ([(laser, name) for name in ("rabi", "detuning", "linewidth", "wavelength", "direction")
                  for laser in _LASERS]
                 + [("atom", "gamma_p"), ("atom", "gamma_q"), ("atom", "beta_ps"), ("atom", "beta_pd"),
                    ("motion", "enabled"), ("motion", "trap_frequency"), ("motion", "amplitude")])
_COLUMN = {field: j for j, field in enumerate(_TABLE_FIELDS)}


def _laser_columns(name: str) -> property:
    j = _COLUMN["laser_b", name]
    return property(lambda self: self.data[:, j:j + 3], doc=f"(k, 3) {name} of the lasers B, R, C")


def _column(section: str, name: str) -> property:
    j = _COLUMN[section, name]
    return property(lambda self: self.data[:, j], doc=f"(k,) {section}.{name}")


class ParamTable:
    """Parameter columns of a stack of points: every field the generator reads.

    data is a read-only (k, 21) array, one row per point and one column
    per entry of _TABLE_FIELDS; the properties name its columns. Laser
    fields are (k, 3) with the lasers in the order B, R, C, the atom and
    motion fields (k,). Units as in SystemConfig. A single point is a
    table of one (ParamTable.of([config])); a sweep is ParamTable.sweep,
    which builds no per-point config.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data.setflags(write=False)
        self.data = data

    rabi = _laser_columns("rabi")
    detuning = _laser_columns("detuning")
    linewidth = _laser_columns("linewidth")
    wavelength = _laser_columns("wavelength")
    direction = _laser_columns("direction")
    gamma_p = _column("atom", "gamma_p")
    gamma_q = _column("atom", "gamma_q")
    beta_ps = _column("atom", "beta_ps")
    beta_pd = _column("atom", "beta_pd")
    trap_frequency = _column("motion", "trap_frequency")
    amplitude = _column("motion", "amplitude")

    @property
    def enabled(self) -> np.ndarray:
        """(k,) motion.enabled as bools."""
        return self.data[:, _COLUMN["motion", "enabled"]] != 0.0

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, rows) -> ParamTable:
        """The table of some of the points: a slice, or an index array in any order."""
        return ParamTable(self.data[rows])

    @classmethod
    def of(cls, configs) -> ParamTable:
        """The table of a sequence of configs, one row each."""
        return cls(np.array([[getattr(getattr(c, section), name) for section, name in _TABLE_FIELDS]
                             for c in configs], dtype=float))

    @classmethod
    def sweep(cls, config: SystemConfig, path: str, values: np.ndarray) -> ParamTable:
        """The table of config with the field at path set to each of values in turn.

        path uses the JSON schema names and values are in internal units
        (rad/us for frequencies). The swept section's rules run on the
        whole column before the table is built, so an invalid value raises
        what the section's constructor raises at the first invalid point.
        """
        attr, field = _resolve_path(path)
        section = getattr(config, attr)
        _raise_first(type(section)._rules(**{**vars(section), field: values}))
        data = np.repeat(cls.of([config]).data, len(values), axis=0)
        data[:, _COLUMN[attr, field]] = values
        return cls(data)

    def lamb_dicke(self) -> np.ndarray:
        """Signed modulation indices eta_j = k_j amplitude / 2, (k, 3); zero where motion is off.

        The expression of lamb_dicke_parameters, per column; a product
        past the float range is inf (and warns, as numpy does).
        """
        eta = self.direction * TWO_PI / self.wavelength * (self.amplitude / 2.0)[:, None]
        return np.where(self.enabled[:, None], eta, 0.0)
