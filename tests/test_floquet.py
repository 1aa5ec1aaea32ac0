"""Motional-sideband steady states from the block-tridiagonal expansion."""

import dataclasses

import numpy as np
import pytest

from conftest import OSC_AMPLITUDE_NM, make_config, sup_of
from nscheme.errors import ConfigError, MotionDisabled, TruncationNotConverged
from nscheme.floquet import (
    SOLVE_TRUNCATION_TOL,
    TRUNCATION_TOL,
    build_floquet_generator,
    convergence_check,
    solve_floquet_steady,
)
from nscheme.steady import steady_state

# counter-propagating oscillating-ion point, order 2, solved once and pinned
PQ_COUNTER_OSC = 0.9075893082612181


def _with_amplitude(c, amp):
    return dataclasses.replace(c, motion=dataclasses.replace(c.motion, amplitude=amp))


def test_zero_amplitude_reduces_to_carrier():
    c = _with_amplitude(make_config(motion=True, counter=True), 0.0)
    fb = solve_floquet_steady(c, 2)
    rho_ss = steady_state(sup_of(c))
    assert np.abs(fb.block(0) - rho_ss.matrix).max() < 1e-10
    assert np.abs(fb.block(1)).max() == 0.0
    assert np.abs(fb.block(-2)).max() == 0.0


def test_generator_dimensions():
    c = make_config(motion=True, counter=True)
    assert build_floquet_generator(c, 1).shape == (48, 48)
    assert build_floquet_generator(c, 3).shape == (112, 112)


def test_block_structure_invariants():
    c = make_config(motion=True, counter=True)
    fb = solve_floquet_steady(c, 2)
    assert fb.order == 2
    assert sorted(fb.blocks) == [-2, -1, 0, 1, 2]
    assert fb.pairing_defect < 1e-10
    for n in range(-2, 3):
        pair = np.abs(fb.block(-n) - fb.block(n).conj().T).max()
        assert pair < 1e-10
    assert np.trace(fb.block(0)).real == pytest.approx(1.0, abs=1e-10)
    assert abs(np.trace(fb.block(1))) < 1e-10
    assert abs(np.trace(fb.block(2))) < 1e-10
    assert fb.population("Q") == pytest.approx(PQ_COUNTER_OSC, abs=1e-9)
    assert fb.residual < 1e-9


def test_mirror_symmetry_under_direction_flip():
    """Reversing every beam is the parity map x -> -x."""
    c = make_config(motion=True, counter=True)
    flipped = dataclasses.replace(
        c,
        laser_b=dataclasses.replace(c.laser_b, direction=-c.laser_b.direction),
        laser_r=dataclasses.replace(c.laser_r, direction=-c.laser_r.direction),
        laser_c=dataclasses.replace(c.laser_c, direction=-c.laser_c.direction),
    )
    fa = solve_floquet_steady(c, 2)
    fbk = solve_floquet_steady(flipped, 2)
    assert np.abs(fa.block(0) - fbk.block(0)).max() < 1e-10
    assert np.abs(fa.block(1) + fbk.block(1)).max() < 1e-10


def test_first_harmonic_linear_in_amplitude():
    # Linear response needs small modulation; on the three-photon
    # resonance the harmonic saturates well below the reference
    # amplitude, so probe an eighth and a sixteenth of it.
    c = make_config(motion=True, counter=True)
    a = solve_floquet_steady(_with_amplitude(c, OSC_AMPLITUDE_NM / 8), 2).block(1)
    b = solve_floquet_steady(_with_amplitude(c, OSC_AMPLITUDE_NM / 16), 2).block(1)
    scale = np.abs(a).max() / np.abs(b).max()
    assert scale == pytest.approx(2.0, rel=0.01)


def test_convergence_check_reports_order_gap():
    c = make_config(motion=True, counter=True)
    delta, converged = convergence_check(c, 2)
    assert 1e-8 < delta < 1e-5
    assert not converged  # strict flag, see TRUNCATION_TOL
    assert TRUNCATION_TOL < SOLVE_TRUNCATION_TOL


def test_large_modulation_refused():
    c = _with_amplitude(make_config(motion=True, counter=True), 8 * OSC_AMPLITUDE_NM)
    delta, converged = convergence_check(c, 2)
    assert delta > SOLVE_TRUNCATION_TOL
    assert not converged
    with pytest.raises(TruncationNotConverged):
        solve_floquet_steady(c, 2)
    fb = solve_floquet_steady(c, 2, check_truncation=False)
    assert np.isfinite(fb.block(0)).all()


def test_motion_required_and_order_validated():
    with pytest.raises(MotionDisabled):
        solve_floquet_steady(make_config(motion=False), 2)
    with pytest.raises(ConfigError):
        solve_floquet_steady(make_config(motion=True, counter=True), 0)


def test_to_json_shape():
    fb = solve_floquet_steady(make_config(motion=True, counter=True), 2)
    data = fb.to_json()
    assert data["order"] == 2
    assert set(data["blocks"]) == {"-2", "-1", "0", "1", "2"}
    assert "residual" in data and "pairing_defect" in data
