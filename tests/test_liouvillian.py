"""Hamiltonian assembly, dissipators, and the vectorization convention."""

import dataclasses

import numpy as np
import pytest

from conftest import (broadcast_commutator, build_floquet_generator, make_config, point_configs, sup_of, unvec,
                      with_linewidths)
from nscheme.liouvillian import (
    _DECAY_OPS,
    _decay_stack,
    build_hamiltonian,
    build_superoperator,
    commutator_superoperator,
    hamiltonian_stack,
    lindblad_dissipator,
    superoperator_stack,
    vec,
)
from nscheme.errors import NoConvergence, NotHermitian
from nscheme.model import ParamTable, from_mhz, pure_state
from nscheme.scan import ScanSpec, _sweep_table

S, P, D, Q = range(4)


def jump_operators(config):
    """(rate, operator) pairs of the three decay channels."""
    return [(float(rate), op) for rate, op in zip(_decay_stack(ParamTable.of([config]))[0][0], _DECAY_OPS)]


def dephasing_rates(config):
    """Symmetric 4x4 matrix of coherence decay rates from laser linewidths."""
    return _decay_stack(ParamTable.of([config]))[1][0]


def trace_defect(matrix):
    """Max absolute entry of the summed diagonal-element rows.

    Zero for any trace-preserving generator: the rows of d rho_ii /
    dt must cancel columnwise.
    """
    diag_rows = [i + 4 * i for i in range(4)]
    return float(np.abs(matrix[diag_rows, :].sum(axis=0)).max())


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
    configs = point_configs(base, spec)
    table = _sweep_table(base, spec, spec.values_mhz)
    parts = hamiltonian_stack(table)
    m = superoperator_stack(parts.h_total, table)
    for i, c in enumerate(configs):
        single = build_hamiltonian(c)
        assert m[i].tobytes() == build_superoperator(single.h_total, c).matrix.tobytes()
        assert parts.h_side[i].tobytes() == single.h_side.tobytes()


def _random_configs(rng, k):
    """Random carrier configs with zero, signed-zero and 1e300 rates and nonzero linewidths."""
    base = make_config()
    configs = []
    for _ in range(k):
        lasers = [dataclasses.replace(laser, rabi=rng.uniform(0.0, 50.0), detuning=rng.uniform(-50.0, 50.0),
                                      linewidth=rng.choice([0.0, rng.uniform(0.0, 2.0)]))
                  for laser in (base.laser_b, base.laser_r, base.laser_c)]
        beta_ps = rng.uniform()
        atom = dataclasses.replace(base.atom, beta_ps=beta_ps, beta_pd=1.0 - beta_ps,
                                   gamma_p=rng.choice([1e300, rng.uniform(1e-3, 100.0)]),
                                   gamma_q=rng.choice([0.0, -0.0, 1e300, rng.uniform(0.0, 1.0)]))
        configs.append(dataclasses.replace(base, laser_b=lasers[0], laser_r=lasers[1], laser_c=lasers[2],
                                           atom=atom))
    return configs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_superoperator_stack_is_the_generic_sum_to_the_bit(seed):
    configs = _random_configs(np.random.default_rng(seed), 64)
    table = ParamTable.of(configs)
    h = hamiltonian_stack(table).h_total
    ops = [op for _, op in jump_operators(configs[0])]
    channels = [(np.array([jump_operators(c)[j][0] for c in configs]), ops[j]) for j in range(3)]
    want = commutator_superoperator(h) + lindblad_dissipator(channels)
    diag = np.arange(16)
    want[:, diag, diag] -= np.stack([dephasing_rates(c).T.reshape(16) for c in configs])
    got = superoperator_stack(h, table)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def _random_hermitian_stack(rng, k):
    h = rng.normal(size=(k, 4, 4)) + 1j * rng.normal(size=(k, 4, 4))
    h = h + np.swapaxes(h, -1, -2).conj()
    h[rng.random((k, 4, 4)) < 0.3] = 0.0  # structural zeros, as in the N scheme's couplings
    return h


@pytest.mark.parametrize("seed", [0, 1])
def test_index_commutator_equals_broadcast_oracle(seed):
    rng = np.random.default_rng(seed)
    h = _random_hermitian_stack(rng, 64) * 10.0 ** rng.integers(-300, 300, size=(64, 1, 1))
    got = commutator_superoperator(h)
    assert got.shape == (64, 16, 16)
    assert np.array_equal(got, broadcast_commutator(h))
    assert np.array_equal(commutator_superoperator(h[0]), got[0])


def test_index_commutator_on_inf_carrying_stacks():
    # an overflowing Delta_R - Delta_B puts inf on the diagonal; eta Omega past the range on a coupling
    h = _random_hermitian_stack(np.random.default_rng(2), 8)
    h[1, 2, 2] = np.inf
    h[3, 1, 0] = h[3, 0, 1] = np.inf
    h[4, 3, 3] = -np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        want = broadcast_commutator(h)
    got = commutator_superoperator(h)
    both = np.isfinite(got) & np.isfinite(want)
    assert np.array_equal(got[both], want[both])
    # non-finite entries stay where the oracle has them, and the same points carry them
    assert not (np.isfinite(want) & ~np.isfinite(got)).any()
    assert np.array_equal((~np.isfinite(got)).any(axis=(1, 2)), (~np.isfinite(want)).any(axis=(1, 2)))
    assert np.flatnonzero((~np.isfinite(got)).any(axis=(1, 2))).tolist() == [1, 3, 4]


@pytest.mark.parametrize("h", [np.full((4, 4), np.nan), np.diag([0.0, 1.0, np.inf, 0.0])])
def test_non_finite_hamiltonian_is_not_hermitian(h):
    with pytest.raises(NotHermitian):
        build_superoperator(h, make_config())


def test_single_point_build_refuses_an_overflowing_carrier_hamiltonian():
    c = make_config()
    c = dataclasses.replace(c, laser_b=dataclasses.replace(c.laser_b, detuning=-1.7e308),
                            laser_r=dataclasses.replace(c.laser_r, detuning=1.7e308))
    with pytest.raises(NoConvergence, match="carrier Hamiltonian overflows the float range"):
        build_hamiltonian(c)
    # the stacked build keeps the inf in its point, for the solvers to flag
    h = hamiltonian_stack(ParamTable.of([make_config(), c])).h_total
    assert np.isfinite(h[0]).all() and h[1, D, D] == np.inf
