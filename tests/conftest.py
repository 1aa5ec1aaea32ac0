"""Shared config builders for the test suite."""

import dataclasses

from nscheme.liouvillian import build_hamiltonian, build_superoperator
from nscheme.model import (
    GAMMA_Q_DEFAULT,
    AtomSpec,
    LaserDrive,
    MotionSpec,
    SystemConfig,
    from_mhz,
)

# oscillation amplitude giving |eta_B| = 0.1 at 397 nm
OSC_AMPLITUDE_NM = 12.636902481496492


def make_config(db=8.0, dr=3.0, dc=5.0, ob=10.0, orr=2.5, oc=0.05, *, gq=None,
                lw=0.0, counter=False, motion=False, trap=1.0, amp=None):
    """Four-level config with all frequencies quoted in MHz (units of 2pi MHz).

    Defaults are the three-photon working point; pass dr=db, dc=0 for the
    two+one-photon point. gq=None keeps the physical metastable decay,
    gq=0.0 switches it off.
    """
    if amp is None:
        amp = OSC_AMPLITUDE_NM if motion else 0.0
    return SystemConfig(
        laser_b=LaserDrive(rabi=from_mhz(ob), detuning=from_mhz(db), wavelength=397.0,
                           direction=(-1 if counter else 1), linewidth=from_mhz(lw)),
        laser_r=LaserDrive(rabi=from_mhz(orr), detuning=from_mhz(dr), wavelength=866.0,
                           linewidth=from_mhz(lw)),
        laser_c=LaserDrive(rabi=from_mhz(oc), detuning=from_mhz(dc), wavelength=729.0,
                           linewidth=from_mhz(lw)),
        atom=AtomSpec(gamma_q=(GAMMA_Q_DEFAULT if gq is None else gq)),
        motion=MotionSpec(enabled=motion, trap_frequency=from_mhz(trap), amplitude=amp),
    )


def two_plus_one(**kw):
    kw.setdefault("db", 8.0)
    kw.setdefault("dr", 8.0)
    kw.setdefault("dc", 0.0)
    return make_config(**kw)


def sup_of(config):
    return build_superoperator(build_hamiltonian(config).h_total, config)


def with_linewidths(config, lw_mhz):
    lw = from_mhz(lw_mhz)
    return dataclasses.replace(
        config,
        laser_b=dataclasses.replace(config.laser_b, linewidth=lw),
        laser_r=dataclasses.replace(config.laser_r, linewidth=lw),
        laser_c=dataclasses.replace(config.laser_c, linewidth=lw),
    )
