"""Dressed-state analysis of the driven four-level scheme.

Two regimes are covered: the perturbative trap state at the
three-photon resonance for weak C coupling, and the eigensystem of
the resonantly driven S-P-D Lambda block, whose dark state couples to
Q at the reduced effective Rabi frequency Omega_C Omega_R / Omega_bar.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .errors import ConfigError, PerturbationInvalid, ZeroCoupling, ZeroDetuningC
from .model import SystemConfig, lamb_dicke_parameters, resonance_mismatches

#: |alpha_C| above which the second-order expansion is flagged
PERTURBATION_GUARD = 0.1


@dataclasses.dataclass(frozen=True)
class PerturbativeReport:
    """Second-order description of the trap state at three-photon resonance.

    populations are exact squared amplitudes of the normalized trap
    state (P_Q, P_D, P_S ordering); the shifts are the dressed
    eigenfrequencies of the S-Q pair in rad/us; q_linewidth_scale is
    the dimensionless (alpha_C^2 Omega_B / Omega_R)^2 controlling the
    residual linewidth of the trap state.
    """

    alpha_c: float
    epsilon: float
    population_q: float
    population_d: float
    population_s: float
    shift_sq: float
    shift_qs: float
    q_linewidth_scale: float
    warning: str | None = None


def three_photon_report(config: SystemConfig) -> PerturbativeReport:
    """Perturbative trap-state report; requires exact three-photon resonance.

    alpha_C = Omega_C / (2 Delta_C) must satisfy |alpha_C| < 0.1 for
    the expansion to be meaningful; outside that range the report is
    still produced but carries a warning and emits
    PerturbationInvalid. A field beyond the float range is a
    ConfigError.
    """
    dc = config.laser_c.detuning
    if dc == 0.0:
        raise ZeroDetuningC("three_photon_report undefined at Delta_C = 0")
    if config.laser_r.rabi == 0.0:
        raise ZeroCoupling("epsilon undefined for Omega_R = 0")
    mism = resonance_mismatches(config).three_photon
    scale = max(abs(config.laser_b.detuning), abs(dc), 1.0)
    if abs(mism) > 1e-9 * scale:
        raise ConfigError(
            f"three_photon_report requires Delta_B - Delta_R - Delta_C = 0, got {mism:.3e} rad/us"
        )

    alpha = config.laser_c.rabi / (2.0 * dc)
    eps = (config.laser_b.rabi / config.laser_r.rabi) * alpha
    # exact squared amplitudes of N'(eps |D> + N(|Q> - alpha |S>)), in
    # hypot form so that a huge alpha or eps does not overflow its square
    norm_q = math.hypot(1.0, alpha)
    norm_d = math.hypot(1.0, eps)
    nn2 = (1.0 / norm_q) ** 2
    np2 = (1.0 / norm_d) ** 2
    linewidth_root = alpha * alpha * config.laser_b.rabi / config.laser_r.rabi
    values = dict(
        alpha_c=alpha,
        epsilon=eps,
        population_q=np2 * nn2,
        population_d=(eps / norm_d) ** 2,
        population_s=np2 * (alpha / norm_q) ** 2,
        shift_sq=alpha * config.laser_c.rabi / 2.0,
        shift_qs=-dc - alpha * config.laser_c.rabi / 2.0,
        q_linewidth_scale=linewidth_root * linewidth_root,
    )
    if not all(math.isfinite(v) for v in values.values()):
        raise ConfigError("three_photon_report overflows the float range at these parameters")

    warning = None
    if abs(alpha) >= PERTURBATION_GUARD:
        warning = f"|alpha_C| = {abs(alpha):.3g} >= {PERTURBATION_GUARD}; expansion unreliable"
        warnings.warn(warning, PerturbationInvalid, stacklevel=2)
    return PerturbativeReport(**values, warning=warning)


@dataclasses.dataclass(frozen=True)
class LambdaEigensystem:
    """Eigensystem of the S-P-D block at two-photon resonance.

    Eigenvectors are (S, P, D) component triples. omega_dark is zero
    by construction; omega_plus/omega_minus are the bright
    eigenfrequencies in rad/us. effective_rabi_c is the dark-state to
    Q coupling Omega_C Omega_R / Omega_bar.
    """

    omega_bar: float
    theta: float
    omega_dark: float
    omega_plus: float
    omega_minus: float
    dark_state: np.ndarray
    bright_plus: np.ndarray
    bright_minus: np.ndarray
    effective_rabi: float

    def __post_init__(self):
        for v in (self.dark_state, self.bright_plus, self.bright_minus):
            v.setflags(write=False)


def lambda_eigensystem(config: SystemConfig) -> LambdaEigensystem:
    """Dark and bright dressed states of the Lambda block.

    Uses Omega_B, Omega_R and Delta_B only: the block is evaluated at
    two-photon resonance Delta_R = Delta_B, where the common S/D
    energy is zero and the dark state decouples exactly.
    """
    ob = config.laser_b.rabi
    orr = config.laser_r.rabi
    db = config.laser_b.detuning
    obar = math.hypot(ob, orr)
    if obar == 0.0:
        raise ZeroCoupling("lambda_eigensystem undefined for Omega_B = Omega_R = 0")

    root = math.hypot(db, obar)
    theta = math.atan((db + root) / obar)  # in [0, pi/2)
    sin_t, cos_t = math.sin(theta), math.cos(theta)

    dark = np.array([orr, 0.0, -ob]) / obar
    bright = np.array([ob, 0.0, orr]) / obar  # orthogonal partner of the dark state
    e_p = np.array([0.0, 1.0, 0.0])
    return LambdaEigensystem(
        omega_bar=obar,
        theta=theta,
        omega_dark=0.0,
        omega_plus=-(db - root) / 2.0,
        omega_minus=-(db + root) / 2.0,
        dark_state=dark,
        bright_plus=cos_t * e_p + sin_t * bright,
        bright_minus=-sin_t * e_p + cos_t * bright,
        effective_rabi=config.laser_c.rabi * (orr / obar),
    )


#: nm/us per m/s
_VELOCITY_NM_PER_US = 1e3


def doppler_rate(config: SystemConfig, velocity: float) -> float:
    """First-order Doppler decay rate of the trap state, in rad/us.

    R = epsilon * v * (k_R - k_B + k_C) for an atom moving at the
    given velocity (m/s) along the beam axis. The residual wavevector
    comes from the configured beam geometry, so motion must be
    enabled; a phase-matched geometry gives zero. A velocity that is
    not finite, or a rate beyond the float range, is a ConfigError.
    """
    if not math.isfinite(velocity):
        raise ConfigError(f"velocity must be finite, got {velocity!r}")
    report = three_photon_report(config)
    delta_k = lamb_dicke_parameters(config).delta_k
    rate = report.epsilon * velocity * _VELOCITY_NM_PER_US * delta_k
    if not math.isfinite(rate):
        raise ConfigError(f"Doppler rate overflows the float range at velocity {velocity!r} m/s")
    return rate
