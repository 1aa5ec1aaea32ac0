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
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
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


def _require_finite(spec) -> None:
    """Reject a NaN or infinite field, e.g. an MHz value that overflowed on conversion."""
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if not math.isfinite(value):
            raise ConfigError(f"{type(spec).__name__}.{field.name} must be finite, got {value!r}")


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
        _require_finite(self)
        if self.rabi < 0:
            raise NegativeRate(f"rabi must be >= 0, got {self.rabi}")
        if self.wavelength <= 0:
            raise NegativeRate(f"wavelength must be > 0, got {self.wavelength}")
        if self.linewidth < 0:
            raise NegativeRate(f"linewidth must be >= 0, got {self.linewidth}")
        if self.direction not in (1, -1):
            raise BadDirection(f"direction must be +1 or -1, got {self.direction}")


@dataclasses.dataclass(frozen=True)
class AtomSpec:
    """Decay rates (rad/us), branching fractions and mass (kg)."""

    gamma_p: float = GAMMA_P_DEFAULT
    gamma_q: float = GAMMA_Q_DEFAULT
    beta_ps: float = BETA_PS_DEFAULT
    beta_pd: float = BETA_PD_DEFAULT
    mass: float = MASS_DEFAULT

    def __post_init__(self):
        _require_finite(self)
        if self.gamma_p <= 0:
            raise NegativeRate(f"gamma_p must be > 0, got {self.gamma_p}")
        if self.gamma_q < 0:
            raise NegativeRate(f"gamma_q must be >= 0, got {self.gamma_q}")
        if self.mass <= 0:
            raise NegativeRate(f"mass must be > 0, got {self.mass}")
        if not (0.0 <= self.beta_ps <= 1.0 and 0.0 <= self.beta_pd <= 1.0):
            raise BranchingNotNormalized(
                f"branching fractions must lie in [0, 1], got {self.beta_ps}, {self.beta_pd}"
            )
        if abs(self.beta_ps + self.beta_pd - 1.0) > 1e-12:
            raise BranchingNotNormalized(
                f"beta_ps + beta_pd must equal 1, got {self.beta_ps + self.beta_pd}"
            )


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
        if not isinstance(self.enabled, bool):
            raise ConfigError(f"MotionSpec.enabled must be True or False, got {self.enabled!r}")
        _require_finite(self)
        if self.enabled and self.trap_frequency <= 0:
            raise NegativeRate(f"trap_frequency must be > 0, got {self.trap_frequency}")
        if self.amplitude < 0:
            raise NegativeRate(f"amplitude must be >= 0, got {self.amplitude}")


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Full parameter set: three lasers, atomic constants, motion."""

    laser_b: LaserDrive
    laser_r: LaserDrive
    laser_c: LaserDrive
    atom: AtomSpec = dataclasses.field(default_factory=AtomSpec)
    motion: MotionSpec = dataclasses.field(default_factory=MotionSpec)


class ResonanceMismatches(NamedTuple):
    three_photon: float  # Delta_B - Delta_R - Delta_C
    two_photon: float    # Delta_R - Delta_B
    carrier_c: float     # Delta_C


def resonance_mismatches(config: SystemConfig) -> ResonanceMismatches:
    """Detuning combinations whose zeros mark the two resonance conditions.

    three_photon = 0 (with carrier_c != 0) is the three-photon
    resonance; two_photon = 0 together with carrier_c = 0 is the
    two+one-photon resonance. All in rad/us.
    """
    db = config.laser_b.detuning
    dr = config.laser_r.detuning
    dc = config.laser_c.detuning
    return ResonanceMismatches(db - dr - dc, dr - db, dc)


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


class DensityMatrix:
    """4x4 density matrix in the (S, P, D, Q) basis.

    The wrapped array is read-only. Construction verifies hermiticity,
    unit trace and positivity unless check=False; eig_floor is the
    allowed negative-eigenvalue margin.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, check: bool = True, eig_floor: float = 1e-10):
        m = np.array(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise NonPhysicalState(f"expected a 4x4 matrix, got shape {m.shape}")
        if check:
            check_density_matrices(m, eig_floor)
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


def check_density_matrices(m: np.ndarray, eig_floor: float = 1e-10) -> None:
    """DensityMatrix's checks, on one matrix or a non-empty stack of them."""
    if np.abs(m - np.swapaxes(m, -1, -2).conj()).max() > 1e-12:
        raise NonPhysicalState("matrix is not Hermitian")
    trace_defect = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max()
    if trace_defect > 1e-10:
        raise NonPhysicalState(f"trace deviates from 1 by {trace_defect:.2e}")
    eigs = np.linalg.eigvalsh(m)
    if eigs.min() < -eig_floor:
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
# gamma_Q may be null or absent, selecting the 1 s lifetime default.

_LASER_KEYS = {"rabi", "detuning", "wavelength_nm", "direction", "linewidth"}
_ATOM_KEYS = {"gamma_P", "gamma_Q", "beta_PS", "beta_PD", "mass_amu"}
_MOTION_KEYS = {"enabled", "trap_frequency", "amplitude_nm"}
_TOP_KEYS = {"laser_B", "laser_R", "laser_C", "atom", "motion"}


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _number(section: dict, key: str, where: str, default=None):
    value = section.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    return number


def _laser_from_dict(section: dict, name: str) -> LaserDrive:
    _require_keys(section, _LASER_KEYS, name)
    for key in ("rabi", "detuning"):
        if key not in section:
            raise ConfigError(f"{name}.{key} is required")
    direction = section.get("direction", 1)
    if isinstance(direction, bool) or direction not in (1, -1):
        raise BadDirection(f"{name}.direction must be +1 or -1, got {direction!r}")
    return LaserDrive(
        rabi=from_mhz(_number(section, "rabi", name)),
        detuning=from_mhz(_number(section, "detuning", name)),
        wavelength=_number(section, "wavelength_nm", name, _WAVELENGTH_DEFAULTS[name]),
        direction=int(direction),
        linewidth=from_mhz(_number(section, "linewidth", name, 0.0)),
    )


def config_from_dict(data: dict) -> SystemConfig:
    """Build a SystemConfig from the JSON schema dict. Unknown keys are errors."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    _require_keys(data, _TOP_KEYS, "config")
    for name in ("laser_B", "laser_R", "laser_C"):
        if name not in data:
            raise ConfigError(f"section {name} is required")

    atom_section = data.get("atom", {})
    _require_keys(atom_section, _ATOM_KEYS, "atom")
    gamma_q_mhz = _number(atom_section, "gamma_Q", "atom")
    gamma_p_mhz = _number(atom_section, "gamma_P", "atom", to_mhz(GAMMA_P_DEFAULT))
    mass_amu = _number(atom_section, "mass_amu", "atom", MASS_DEFAULT / AMU_KG)
    atom = AtomSpec(
        gamma_p=from_mhz(gamma_p_mhz),
        gamma_q=GAMMA_Q_DEFAULT if gamma_q_mhz is None else from_mhz(gamma_q_mhz),
        beta_ps=_number(atom_section, "beta_PS", "atom", BETA_PS_DEFAULT),
        beta_pd=_number(atom_section, "beta_PD", "atom", BETA_PD_DEFAULT),
        mass=mass_amu * AMU_KG,
    )

    motion_section = data.get("motion", {})
    _require_keys(motion_section, _MOTION_KEYS, "motion")
    enabled = motion_section.get("enabled", False)
    if not isinstance(enabled, bool):
        raise ConfigError(f"motion.enabled must be true or false, got {enabled!r}")
    motion = MotionSpec(
        enabled=enabled,
        trap_frequency=from_mhz(_number(motion_section, "trap_frequency", "motion", 1.0)),
        amplitude=_number(motion_section, "amplitude_nm", "motion", 0.0),
    )

    return SystemConfig(
        laser_b=_laser_from_dict(data["laser_B"], "laser_B"),
        laser_r=_laser_from_dict(data["laser_R"], "laser_R"),
        laser_c=_laser_from_dict(data["laser_C"], "laser_C"),
        atom=atom,
        motion=motion,
    )


def config_to_dict(config: SystemConfig) -> dict:
    """Inverse of config_from_dict; frequencies back in MHz."""

    def laser(l: LaserDrive) -> dict:
        return {
            "rabi": to_mhz(l.rabi),
            "detuning": to_mhz(l.detuning),
            "wavelength_nm": l.wavelength,
            "direction": l.direction,
            "linewidth": to_mhz(l.linewidth),
        }

    return {
        "laser_B": laser(config.laser_b),
        "laser_R": laser(config.laser_r),
        "laser_C": laser(config.laser_c),
        "atom": {
            "gamma_P": to_mhz(config.atom.gamma_p),
            "gamma_Q": to_mhz(config.atom.gamma_q),
            "beta_PS": config.atom.beta_ps,
            "beta_PD": config.atom.beta_pd,
            "mass_amu": config.atom.mass / AMU_KG,
        },
        "motion": {
            "enabled": config.motion.enabled,
            "trap_frequency": to_mhz(config.motion.trap_frequency),
            "amplitude_nm": config.motion.amplitude,
        },
    }


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


_SECTION_ATTR = {
    "laser_B": "laser_b",
    "laser_R": "laser_r",
    "laser_C": "laser_c",
    "atom": "atom",
    "motion": "motion",
}

#: config fields holding angular frequencies (scan axes in MHz convert into these)
FREQUENCY_FIELDS = {
    "laser_B.rabi", "laser_B.detuning", "laser_B.linewidth",
    "laser_R.rabi", "laser_R.detuning", "laser_R.linewidth",
    "laser_C.rabi", "laser_C.detuning", "laser_C.linewidth",
    "atom.gamma_P", "atom.gamma_Q", "motion.trap_frequency",
}

_FIELD_ATTR = {
    "rabi": "rabi", "detuning": "detuning", "linewidth": "linewidth",
    "wavelength_nm": "wavelength", "direction": "direction",
    "gamma_P": "gamma_p", "gamma_Q": "gamma_q",
    "beta_PS": "beta_ps", "beta_PD": "beta_pd",
    "trap_frequency": "trap_frequency", "amplitude_nm": "amplitude",
    "enabled": "enabled",
}


def replace_param(config: SystemConfig, path: str, value) -> SystemConfig:
    """New config with one field replaced, e.g. ('laser_R.detuning', 18.85).

    The path uses the JSON schema names; the value is in internal
    units (rad/us for frequencies). Validation reruns on the rebuilt
    section.
    """
    try:
        section_name, field_name = path.split(".")
        attr = _SECTION_ATTR[section_name]
        field = _FIELD_ATTR[field_name]
    except (ValueError, KeyError):
        raise ConfigError(f"unknown parameter path {path!r}") from None
    section = getattr(config, attr)
    if not hasattr(section, field):
        raise ConfigError(f"unknown parameter path {path!r}")
    new_section = dataclasses.replace(section, **{field: value})
    return dataclasses.replace(config, **{attr: new_section})


def with_gamma_q(config: SystemConfig, gamma_q: float) -> SystemConfig:
    """New config with atom.gamma_q replaced (rad/us)."""
    return dataclasses.replace(config, atom=dataclasses.replace(config.atom, gamma_q=gamma_q))
