"""Units, config (de)serialization, validation, and beam geometry."""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import OSC_AMPLITUDE_NM, make_config
from nscheme.errors import (
    BadDirection,
    BranchingNotNormalized,
    ConfigError,
    MotionDisabled,
    NegativeRate,
    NonPhysicalState,
    UnknownLevel,
)
from nscheme.model import (
    FREQUENCY_FIELDS,
    GAMMA_P_DEFAULT,
    GAMMA_Q_DEFAULT,
    AtomSpec,
    DensityMatrix,
    LaserDrive,
    MotionSpec,
    config_from_dict,
    config_hash,
    config_to_dict,
    from_mhz,
    lamb_dicke_parameters,
    level_index,
    load_config,
    pure_state,
    replace_param,
    resonance_mismatches,
    to_mhz,
    with_gamma_q,
)


def test_unit_conversion_roundtrip():
    assert from_mhz(1.0) == pytest.approx(2.0 * math.pi, rel=1e-15)
    for x in (0.0, 0.05, 22.0, -8.0):
        assert to_mhz(from_mhz(x)) == pytest.approx(x, abs=1e-12)


def test_level_ordering():
    assert [level_index(l) for l in "SPDQ"] == [0, 1, 2, 3]
    with pytest.raises(UnknownLevel):
        level_index("X")


def test_pure_state():
    rho = pure_state("D")
    assert rho.matrix.shape == (4, 4)
    assert rho.population("D") == 1.0
    assert rho.populations[0] == 0.0


def test_density_matrix_rejects_nonphysical():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = 2.0
    with pytest.raises(NonPhysicalState):
        DensityMatrix(bad)
    bad[0, 0] = 1.0
    bad[0, 1] = 0.5
    with pytest.raises(NonPhysicalState):
        DensityMatrix(bad)


def test_atom_defaults():
    c = make_config()
    assert c.atom.gamma_p == pytest.approx(from_mhz(22.0), rel=1e-15)
    assert c.atom.gamma_p == pytest.approx(GAMMA_P_DEFAULT)
    assert c.atom.gamma_q == GAMMA_Q_DEFAULT
    assert c.atom.beta_ps + c.atom.beta_pd == pytest.approx(1.0, abs=1e-15)
    assert c.atom.beta_ps == pytest.approx(15.0 / 16.0)


def test_with_gamma_q():
    c = with_gamma_q(make_config(), 0.0)
    assert c.atom.gamma_q == 0.0
    # original untouched
    assert make_config().atom.gamma_q == GAMMA_Q_DEFAULT


def test_config_dict_roundtrip():
    c = make_config(lw=0.01, motion=True, counter=True, gq=0.0)
    assert config_from_dict(config_to_dict(c)) == c


def test_config_dict_units_are_mhz():
    d = config_to_dict(make_config(ob=10.0, db=8.0))
    assert d["laser_B"]["rabi"] == pytest.approx(10.0)
    assert d["laser_B"]["detuning"] == pytest.approx(8.0)


def test_config_from_dict_applies_defaults():
    d = {
        "laser_B": {"rabi": 10.0, "detuning": 8.0, "wavelength_nm": 397.0},
        "laser_R": {"rabi": 2.5, "detuning": 3.0, "wavelength_nm": 866.0},
        "laser_C": {"rabi": 0.05, "detuning": 5.0, "wavelength_nm": 729.0},
    }
    c = config_from_dict(d)
    assert c.atom.gamma_p == pytest.approx(GAMMA_P_DEFAULT)
    assert c.atom.gamma_q == GAMMA_Q_DEFAULT
    assert not c.motion.enabled
    assert c.laser_b.direction == 1
    assert c.laser_b.linewidth == 0.0


def test_config_from_dict_rejects_missing_laser():
    with pytest.raises(ConfigError):
        config_from_dict({"laser_B": {"rabi": 1.0, "detuning": 0.0, "wavelength_nm": 397.0}})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
def test_config_from_dict_rejects_non_finite_numbers(value):
    d = {
        "laser_B": {"rabi": 10.0, "detuning": 8.0},
        "laser_R": {"rabi": 2.5, "detuning": 3.0},
        "laser_C": {"rabi": 0.05, "detuning": 5.0},
    }
    d["laser_B"]["rabi"] = value
    with pytest.raises(ConfigError, match="laser_B.rabi must be finite"):
        config_from_dict(d)
    d["laser_B"]["rabi"] = 10.0
    d["atom"] = {"gamma_Q": value}
    with pytest.raises(ConfigError, match="atom.gamma_Q must be finite"):
        config_from_dict(d)


def test_load_config_rejects_bad_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_load_config_roundtrip(tmp_path):
    c = make_config(motion=True)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(config_to_dict(c)))
    assert load_config(p) == c


def test_validation_errors():
    with pytest.raises(NegativeRate):
        make_config(ob=-1.0)
    with pytest.raises(BadDirection):
        LaserDrive(rabi=1.0, detuning=0.0, wavelength=397.0, direction=0)
    with pytest.raises(BranchingNotNormalized):
        AtomSpec(beta_ps=0.9, beta_pd=0.2)
    with pytest.raises(NegativeRate):
        AtomSpec(gamma_p=0.0)
    for enabled in (0.5, 1, 0.0, "yes", np.True_):
        with pytest.raises(ConfigError, match="MotionSpec.enabled must be True or False"):
            MotionSpec(enabled=enabled)


@pytest.mark.parametrize("section, field", [("laser_b", "rabi"), ("laser_r", "detuning"),
                                            ("laser_c", "linewidth"), ("atom", "gamma_q"),
                                            ("motion", "trap_frequency")])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_sections_reject_non_finite_fields(section, field, value):
    c = make_config()
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        dataclasses.replace(getattr(c, section), **{field: value})


def test_config_from_dict_rejects_overflow_on_conversion():
    # 1e308 MHz is a finite float but 2pi x 1e308 rad/us is not
    with pytest.raises(ConfigError, match="LaserDrive.rabi must be finite, got inf"):
        config_from_dict({"laser_B": {"rabi": 1e308, "detuning": 8.0},
                          "laser_R": {"rabi": 2.5, "detuning": 3.0},
                          "laser_C": {"rabi": 0.05, "detuning": 5.0}})


def test_frequency_fields_cover_all_rates():
    expected = {
        "laser_B.rabi", "laser_B.detuning", "laser_B.linewidth",
        "laser_R.rabi", "laser_R.detuning", "laser_R.linewidth",
        "laser_C.rabi", "laser_C.detuning", "laser_C.linewidth",
        "atom.gamma_P", "atom.gamma_Q", "motion.trap_frequency",
    }
    assert expected <= set(FREQUENCY_FIELDS)


def test_replace_param():
    c = make_config()
    c2 = replace_param(c, "laser_R.detuning", from_mhz(4.0))
    assert to_mhz(c2.laser_r.detuning) == pytest.approx(4.0)
    assert to_mhz(c.laser_r.detuning) == pytest.approx(3.0)
    with pytest.raises(ConfigError):
        replace_param(c, "laser_R.nonsense", 1.0)
    with pytest.raises(ConfigError):
        replace_param(c, "nonsense.rabi", 1.0)


def test_config_hash_stable_and_discriminating():
    c = make_config()
    d = json.loads(json.dumps(config_to_dict(c)))
    assert config_hash(c) == config_hash(config_from_dict(d))
    assert config_hash(c) != config_hash(make_config(ob=10.1))
    assert len(config_hash(c)) >= 8


def test_resonance_mismatches():
    m = resonance_mismatches(make_config(db=8.0, dr=3.0, dc=5.0))
    assert m.three_photon == pytest.approx(0.0, abs=1e-12)
    assert m.two_photon == pytest.approx(from_mhz(-5.0))
    m2 = resonance_mismatches(make_config(db=8.0, dr=8.0, dc=0.0))
    assert m2.two_photon == pytest.approx(0.0, abs=1e-12)
    assert m2.carrier_c == 0.0


def test_lamb_dicke_counter_geometry():
    c = make_config(motion=True, counter=True)
    ld = lamb_dicke_parameters(c)
    assert ld.eta_b == pytest.approx(-0.1, abs=5e-4)
    assert abs(ld.eta_r) == pytest.approx(0.046, abs=5e-4)
    assert abs(ld.eta_c) == pytest.approx(0.054, abs=5e-4)
    # blue beam reversed: the loop mismatch approaches 2 k_B
    assert ld.delta_k_over_kb == pytest.approx(2.0, abs=0.01)


def test_lamb_dicke_co_geometry_nearly_phase_matched():
    ld = lamb_dicke_parameters(make_config(motion=True, counter=False))
    assert abs(ld.delta_k_over_kb) < 0.01
    assert ld.eta_b == pytest.approx(0.1, abs=5e-4)


def test_lamb_dicke_scales_with_amplitude():
    c1 = make_config(motion=True)
    c2 = make_config(motion=True, amp=OSC_AMPLITUDE_NM / 2)
    assert lamb_dicke_parameters(c2).eta_b == pytest.approx(
        lamb_dicke_parameters(c1).eta_b / 2)


def test_lamb_dicke_requires_motion():
    with pytest.raises(MotionDisabled):
        lamb_dicke_parameters(make_config(motion=False))
