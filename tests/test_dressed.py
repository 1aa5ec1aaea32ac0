"""Perturbative trap-state report, Lambda eigensystem, Doppler rate."""

import math

import numpy as np
import pytest

from conftest import make_config, sup_of
from nscheme.dressed import (
    doppler_rate,
    lambda_eigensystem,
    three_photon_report,
)
from nscheme.errors import (
    ConfigError,
    MotionDisabled,
    PerturbationInvalid,
    ZeroCoupling,
    ZeroDetuningC,
)
from nscheme.model import from_mhz, lamb_dicke_parameters, to_mhz
from nscheme.steady import steady_state


def test_report_against_direct_formulas():
    c = make_config(ob=10.0, orr=2.5, oc=0.05, db=8.0, dr=3.0, dc=5.0)
    rep = three_photon_report(c)
    alpha = 0.05 / (2 * 5.0)
    eps = (10.0 / 2.5) * alpha
    assert rep.alpha_c == pytest.approx(alpha, rel=1e-12)
    assert rep.epsilon == pytest.approx(eps, rel=1e-12)
    # exact normalization, not the O(alpha^2 eps^2) expansion
    norm = (1.0 + alpha**2) * (1.0 + eps**2)
    assert rep.population_q == pytest.approx(1.0 / norm, rel=1e-12)
    assert rep.population_d == pytest.approx(eps**2 / (1.0 + eps**2), rel=1e-12)
    assert rep.population_s == pytest.approx(alpha**2 / norm, rel=1e-12)
    # the expanded form agrees to fourth order
    assert rep.population_q == pytest.approx(1.0 / (1.0 + alpha**2 + eps**2), abs=1e-7)
    assert rep.population_q + rep.population_d + rep.population_s == pytest.approx(1.0, abs=1e-12)
    assert rep.q_linewidth_scale == pytest.approx((alpha**2 * 10.0 / 2.5) ** 2, rel=1e-12)
    assert rep.warning is None


def test_report_frozen_values():
    rep = three_photon_report(make_config())
    assert rep.population_q == pytest.approx(0.9995751705567617, abs=1e-12)
    assert rep.population_d == pytest.approx(3.998e-4, abs=1e-6)
    assert rep.population_s == pytest.approx(2.5e-5, abs=1e-7)


def test_decoupling_limit():
    rep = three_photon_report(make_config(oc=1e-9, dr=3.0))
    assert rep.epsilon == pytest.approx(0.0, abs=1e-9)
    assert rep.population_q == pytest.approx(1.0, abs=1e-12)


def test_q_linewidth_scale_quadruples_when_ratio_doubles():
    base = three_photon_report(make_config()).q_linewidth_scale
    via_b = three_photon_report(make_config(ob=20.0, db=8.0, dr=3.0)).q_linewidth_scale
    via_r = three_photon_report(make_config(orr=1.25)).q_linewidth_scale
    assert via_b / base == pytest.approx(4.0, rel=1e-9)
    assert via_r / base == pytest.approx(4.0, rel=1e-9)


def test_report_domain_errors():
    with pytest.raises(ZeroDetuningC):
        three_photon_report(make_config(db=8.0, dr=8.0, dc=0.0))
    # three-photon mismatch must vanish
    with pytest.raises(ConfigError):
        three_photon_report(make_config(db=8.0, dr=1.0, dc=5.0))


def test_perturbation_guard_warns():
    c = make_config(oc=1.2, dc=5.0, dr=3.0)  # alpha = 0.12
    with pytest.warns(PerturbationInvalid):
        rep = three_photon_report(c)
    assert rep.warning is not None


def test_oracle_agreement_with_full_solver():
    """Perturbative populations vs the exact steady state, gamma_Q = 0."""
    for oc, dc in ((0.05, 5.0), (0.1, 5.0), (0.2, 5.0), (0.12, 3.0)):
        c = make_config(oc=oc, dc=dc, dr=8.0 - dc, gq=0.0)
        rep = three_photon_report(c)
        assert rep.alpha_c <= 0.02
        rho = steady_state(sup_of(c))
        tol = max(1e-3, 10.0 * rep.alpha_c**4)
        assert abs(rho.population("Q") - rep.population_q) < tol
        assert abs(rho.population("D") - rep.population_d) < tol
        assert abs(rho.population("S") - rep.population_s) < tol


def test_lambda_eigensystem_frozen_values():
    eig = lambda_eigensystem(make_config())
    assert to_mhz(eig.omega_bar) == pytest.approx(10.3078, abs=1e-4)
    assert eig.theta == pytest.approx(1.11540, abs=1e-4)
    assert to_mhz(eig.omega_plus) == pytest.approx(2.5240, abs=1e-4)
    assert to_mhz(eig.omega_minus) == pytest.approx(-10.5240, abs=1e-4)
    assert eig.omega_dark == 0.0
    assert to_mhz(eig.effective_rabi) == pytest.approx(0.012127, abs=1e-6)
    assert eig.dark_state == pytest.approx(np.array([0.2425, 0.0, -0.9701]), abs=1e-4)


def test_lambda_eigensystem_formulas():
    c = make_config(ob=7.0, orr=3.0, db=4.0)
    eig = lambda_eigensystem(c)
    obar = math.hypot(c.laser_b.rabi, c.laser_r.rabi)
    assert eig.omega_bar == pytest.approx(obar, rel=1e-12)
    db = c.laser_b.detuning
    root = math.sqrt(db**2 + obar**2)
    assert math.tan(eig.theta) == pytest.approx((db + root) / obar, rel=1e-10)
    assert eig.omega_plus == pytest.approx(-(db - root) / 2, rel=1e-10)
    assert eig.omega_minus == pytest.approx(-(db + root) / 2, rel=1e-10)
    assert eig.effective_rabi == pytest.approx(
        c.laser_c.rabi * c.laser_r.rabi / obar, rel=1e-12)


def lambda_hamiltonian(config):
    """3x3 S-P-D block at two-photon resonance, for eigensystem checks."""
    ob = config.laser_b.rabi
    orr = config.laser_r.rabi
    db = config.laser_b.detuning
    return np.array(
        [
            [0.0, ob / 2.0, 0.0],
            [ob / 2.0, -db, orr / 2.0],
            [0.0, orr / 2.0, 0.0],
        ]
    )


def test_lambda_eigenvectors_solve_the_hamiltonian():
    for kw in ({}, {"db": 0.0}, {"ob": 3.0, "orr": 9.0, "db": -2.0}):
        c = make_config(**kw)
        h3 = lambda_hamiltonian(c)
        eig = lambda_eigensystem(c)
        for val, vec_ in ((eig.omega_dark, eig.dark_state),
                          (eig.omega_plus, eig.bright_plus),
                          (eig.omega_minus, eig.bright_minus)):
            assert np.abs(h3 @ vec_ - val * vec_).max() < 1e-10
            assert np.linalg.norm(vec_) == pytest.approx(1.0, abs=1e-12)


def test_lambda_symmetric_splitting():
    eig = lambda_eigensystem(make_config(db=0.0))
    assert eig.theta == pytest.approx(math.pi / 4, rel=1e-12)
    assert eig.omega_plus == pytest.approx(eig.omega_bar / 2, rel=1e-12)
    assert eig.omega_minus == pytest.approx(-eig.omega_bar / 2, rel=1e-12)


def test_lambda_requires_coupling():
    with pytest.raises(ZeroCoupling):
        lambda_eigensystem(make_config(ob=0.0, orr=0.0))


def test_doppler_rate_frozen_and_identity():
    c = make_config(motion=True, counter=True)
    rate = doppler_rate(c, 1.0)
    assert rate == pytest.approx(0.6340196682816897, rel=1e-12)
    rep = three_photon_report(c)
    ld = lamb_dicke_parameters(c)
    # velocity in m/s is 1e3 nm/us; delta_k is rad/nm
    assert rate == pytest.approx(rep.epsilon * 1.0e3 * abs(ld.delta_k), rel=1e-9)
    assert doppler_rate(c, 0.0) == 0.0
    assert doppler_rate(c, 2.0) == pytest.approx(2 * rate, rel=1e-12)


def test_doppler_rate_phase_matched_geometry():
    # wavelengths chosen so k_R - k_B + k_C = 0 exactly
    lam_c = 397.0 * 800.0 / (800.0 - 397.0)
    c = make_config(motion=True, counter=False)
    import dataclasses
    c = dataclasses.replace(
        c,
        laser_r=dataclasses.replace(c.laser_r, wavelength=800.0),
        laser_c=dataclasses.replace(c.laser_c, wavelength=lam_c),
    )
    assert abs(doppler_rate(c, 1.0)) < 1e-12


@pytest.mark.parametrize("velocity", [math.nan, math.inf, -math.inf])
def test_doppler_rate_refuses_a_non_finite_velocity(velocity):
    with pytest.raises(ConfigError, match="velocity must be finite"):
        doppler_rate(make_config(motion=True, counter=True), velocity)


@pytest.mark.parametrize("velocity", [1e308, -1.7e308])
def test_doppler_rate_refuses_a_rate_beyond_the_float_range(velocity):
    with pytest.raises(ConfigError, match="Doppler rate overflows the float range"):
        doppler_rate(make_config(motion=True, counter=True), velocity)


def test_doppler_requires_motion():
    with pytest.raises(MotionDisabled):
        doppler_rate(make_config(motion=False), 1.0)
