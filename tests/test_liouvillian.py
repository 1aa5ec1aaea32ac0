"""Hamiltonian assembly, dissipators, and the vectorization convention."""

import dataclasses

import numpy as np
import pytest

from conftest import build_floquet_generator, make_config, sup_of, with_linewidths
from nscheme.liouvillian import (
    apply,
    build_hamiltonian,
    build_superoperator,
    commutator_superoperator,
    dephasing_rates,
    hamiltonian_stack,
    jump_operators,
    lindblad_dissipator,
    superoperator_stack,
    trace_defect,
    unvec,
    vec,
)
from nscheme.model import from_mhz, pure_state
from nscheme.scan import ScanSpec, _point_config

S, P, D, Q = range(4)


def test_vec_is_column_major():
    rho = np.arange(16.0).reshape(4, 4)
    v = vec(rho)
    # element (i, j) lands at index i + 4j
    assert v[0 + 4 * 1] == rho[0, 1]
    assert v[3 + 4 * 2] == rho[3, 2]
    assert np.array_equal(unvec(v), rho)


def test_h0_diagonal():
    parts = build_hamiltonian(make_config(db=8.0, dr=3.0, dc=5.0))
    expect = from_mhz(np.array([0.0, -8.0, -5.0, -5.0]))
    assert np.allclose(np.diag(parts.h0), expect, atol=1e-12)
    assert np.allclose(parts.h0 - np.diag(np.diag(parts.h0)), 0.0)


def test_carrier_couplings():
    c = make_config(ob=10.0, orr=2.5, oc=0.05)
    hc = build_hamiltonian(c).h_carrier
    assert hc[P, S] == pytest.approx(from_mhz(10.0) / 2)
    assert hc[P, D] == pytest.approx(from_mhz(2.5) / 2)
    assert hc[Q, S] == pytest.approx(from_mhz(0.05) / 2)
    assert hc[Q, D] == 0.0
    assert np.abs(hc - hc.conj().T).max() < 1e-14


def test_h_total_hermitian_and_wavelength_independent():
    c = make_config()
    h1 = build_hamiltonian(c).h_total
    assert np.abs(h1 - h1.conj().T).max() < 1e-12
    c2 = dataclasses.replace(c, laser_b=dataclasses.replace(c.laser_b, wavelength=500.0))
    assert np.array_equal(build_hamiltonian(c2).h_total, h1)


def test_sideband_parts_conjugate():
    # one Hermitian sideband field couples rho(n) to both rho(n - 1) and rho(n + 1)
    c = make_config(motion=True, counter=True)
    h_side = build_hamiltonian(c).h_side
    assert np.abs(h_side - h_side.conj().T).max() < 1e-12
    assert np.abs(h_side).max() > 0.0
    gen = build_floquet_generator(c, 1)
    c_side = commutator_superoperator(h_side)
    assert np.array_equal(gen[16:32, 0:16], c_side)
    assert np.array_equal(gen[16:32, 32:48], c_side)


def test_sideband_parts_vanish_without_motion():
    assert np.abs(build_hamiltonian(make_config(motion=False)).h_side).max() == 0.0


def test_jump_operator_rates_and_targets():
    c = make_config()
    ops = jump_operators(c)
    assert len(ops) == 3
    rates = sorted(r for r, _ in ops)
    gp, gq = c.atom.gamma_p, c.atom.gamma_q
    assert rates == pytest.approx(sorted([15 * gp / 16, gp / 16, gq]))
    for rate, op in ops:
        # each channel moves exactly one unit of population
        assert np.count_nonzero(op) == 1
        assert np.abs(op).max() == pytest.approx(1.0)


def test_dissipator_matches_elementwise_route():
    """Dissipator and full generator vs direct evaluation of the master equation."""
    c = make_config(gq=0.7)
    c = dataclasses.replace(c, laser_b=dataclasses.replace(c.laser_b, linewidth=from_mhz(0.01)),
                            laser_r=dataclasses.replace(c.laser_r, linewidth=from_mhz(0.003)),
                            laser_c=dataclasses.replace(c.laser_c, linewidth=from_mhz(0.02)))
    h = build_hamiltonian(c).h_total
    ops = jump_operators(c)
    rates = dephasing_rates(c)
    d_slow = np.zeros((16, 16), dtype=complex)
    m_slow = np.zeros((16, 16), dtype=complex)
    for col in range(16):
        basis = unvec(np.eye(16)[:, col])
        out = np.zeros((4, 4), dtype=complex)
        for rate, op in ops:
            anti = op.conj().T @ op
            out += rate * (op @ basis @ op.conj().T - 0.5 * (anti @ basis + basis @ anti))
        d_slow[:, col] = vec(out)
        m_slow[:, col] = vec(-1j * (h @ basis - basis @ h) + out - rates * basis)
    assert np.abs(lindblad_dissipator(ops) - d_slow).max() < 1e-12
    assert np.abs(build_superoperator(h, c).matrix - m_slow).max() < 1e-12


def test_decay_routes_agree():
    """Decay part of the generator vs the generic Lindblad sum."""
    c = make_config(gq=0.7)
    h = build_hamiltonian(c).h_total
    sup = build_superoperator(h, c)
    m_dissipator = sup.matrix - commutator_superoperator(h)
    assert np.abs(m_dissipator - lindblad_dissipator(jump_operators(c))).max() < 1e-12


def test_commutator_superoperator_action():
    c = make_config()
    h = build_hamiltonian(c).h_total
    m = commutator_superoperator(h)
    rho = pure_state("S").matrix
    lhs = unvec(m @ vec(rho))
    rhs = -1j * (h @ rho - rho @ h)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_apply_equals_matrix_action():
    c = make_config()
    sup = sup_of(c)
    rho = pure_state("S").matrix
    assert np.abs(apply(sup, rho) - unvec(sup.matrix @ vec(rho))).max() < 1e-14


def test_trace_preservation():
    for cfg in (make_config(), make_config(gq=0.0), with_linewidths(make_config(), 0.01)):
        assert trace_defect(sup_of(cfg).matrix) < 1e-12


def test_trace_preserved_for_branching_within_tolerance():
    # validation accepts beta_PS + beta_PD within 1e-12 of one; every
    # Lindblad channel preserves the trace whatever its rate
    c = make_config()
    c = dataclasses.replace(c, atom=dataclasses.replace(c.atom, beta_ps=0.9375 + 5e-13))
    assert trace_defect(sup_of(c).matrix) < 1e-12


def test_dephasing_rate_pairs():
    b_b, b_r, b_c = from_mhz(0.01), from_mhz(0.003), from_mhz(0.02)
    c = make_config()
    c = dataclasses.replace(
        c,
        laser_b=dataclasses.replace(c.laser_b, linewidth=b_b),
        laser_r=dataclasses.replace(c.laser_r, linewidth=b_r),
        laser_c=dataclasses.replace(c.laser_c, linewidth=b_c),
    )
    rates = dephasing_rates(c)
    assert np.abs(rates - rates.T).max() == 0.0
    assert np.all(np.diag(rates) == 0.0)
    assert rates[P, S] == pytest.approx(b_b)
    assert rates[P, D] == pytest.approx(b_r)
    assert rates[Q, S] == pytest.approx(b_c)
    assert rates[S, D] == pytest.approx(b_b + b_r)
    assert rates[Q, P] == pytest.approx(b_b + b_c)
    assert rates[Q, D] == pytest.approx(b_b + b_r + b_c)


def test_dephasing_noop_at_zero_linewidth():
    c = make_config()
    h = build_hamiltonian(c).h_total
    m_zero = build_superoperator(h, with_linewidths(c, 0.0)).matrix
    assert np.array_equal(m_zero, commutator_superoperator(h) + lindblad_dissipator(jump_operators(c)))


def test_dephasing_damps_only_coherences():
    c = make_config()
    h = build_hamiltonian(c).h_total
    diff = (build_superoperator(h, with_linewidths(c, 0.01)).matrix
            - build_superoperator(h, c).matrix)
    # pure dephasing: diagonal superoperator, zero on population entries
    off = diff - np.diag(np.diag(diff))
    assert np.abs(off).max() < 1e-14
    for i in range(4):
        assert diff[i + 4 * i, i + 4 * i] == 0.0
    assert diff[1 + 4 * 0, 1 + 4 * 0].real < 0.0


@pytest.mark.parametrize("base, spec", [
    (with_linewidths(make_config(), 0.01),
     ScanSpec(axis="laser_R.detuning", start=2.0, stop=4.0, points=41, gamma_q_mode="zero")),
    (make_config(motion=True, counter=True),
     ScanSpec(axis="laser_B.wavelength_nm", start=380.0, stop=420.0, points=41, solver="floquet")),
])
def test_stacked_builders_equal_per_point_builds(base, spec):
    configs = [_point_config(base, spec.axis, float(v), spec.gamma_q_mode) for v in spec.values_mhz]
    parts = hamiltonian_stack(configs)
    m = superoperator_stack(parts.h_total, configs)
    for i, c in enumerate(configs):
        single = build_hamiltonian(c)
        assert m[i].tobytes() == build_superoperator(single.h_total, c).matrix.tobytes()
        assert parts.h_side[i].tobytes() == single.h_side.tobytes()
