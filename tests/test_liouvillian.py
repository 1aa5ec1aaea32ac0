"""Hamiltonian assembly, the real generator against its column-major oracle, and the slot layout."""

import dataclasses

import numpy as np
import pytest

from conftest import (SLOTS, D, P, Q, S, build_floquet_generator, dephasing_rates, in_slots, jump_operators,
                      make_config, oracle_commutator, oracle_generator, point_configs, sup_of, with_linewidths)
from nscheme import scan
from nscheme.liouvillian import (
    build_hamiltonian,
    build_superoperator,
    commutator_stack,
    hamiltonian_stack,
    superoperator_stack,
    unvec,
    vec,
)
from nscheme.errors import NoConvergence, NotHermitian
from nscheme.model import ParamTable, from_mhz, pure_state
from nscheme.scan import ScanSpec, _sweep_table


def trace_defect(matrix):
    """Max absolute entry of the summed diagonal-element rows.

    Zero for any trace-preserving generator: the rows of d rho_ii /
    dt must cancel columnwise.
    """
    return float(np.abs(matrix[[0, 5, 10, 15], :].sum(axis=0)).max())


def _random_hermitian_stack(rng, k):
    h = rng.normal(size=(k, 4, 4)) + 1j * rng.normal(size=(k, 4, 4))
    h[rng.random((k, 4, 4)) < 0.3] = 0.0  # structural zeros, as in the N scheme's couplings
    return h + np.swapaxes(h, -1, -2).conj()


def test_vec_slot_layout():
    rho, other = _random_hermitian_stack(np.random.default_rng(0), 2)
    v = vec(rho)
    assert v.dtype == float
    # rho_ii at 5 i; for i < j, sqrt(2) Re rho_ij at i + 4 j and sqrt(2) Im rho_ij at j + 4 i
    assert v[5 * 2] == rho[2, 2].real
    assert v[1 + 4 * 3] == np.sqrt(2.0) * rho[1, 3].real
    assert v[3 + 4 * 1] == np.sqrt(2.0) * rho[1, 3].imag
    assert np.abs(v - (SLOTS @ rho.flatten(order="F")).real).max() < 1e-15 * np.abs(v).max()
    assert np.abs(unvec(v) - rho).max() < 1e-15 * np.abs(rho).max()
    # real coordinates give an exactly Hermitian matrix; the basis is orthonormal
    assert np.array_equal(unvec(v), unvec(v).conj().T)
    assert vec(rho) @ vec(other) == pytest.approx(np.trace(rho @ other).real, rel=1e-14)


def test_h0_diagonal():
    h = build_hamiltonian(make_config(db=8.0, dr=3.0, dc=5.0)).h_total
    expect = from_mhz(np.array([0.0, -8.0, -5.0, -5.0]))
    assert np.allclose(np.diag(h), expect, atol=1e-12)
    # at zero detuning the carrier's sum turns h0's -0.0 into 0.0
    h = build_hamiltonian(make_config(db=0.0, dr=0.0, dc=0.0)).h_total
    assert not np.signbit(np.diag(h).real).any()


def test_carrier_couplings():
    c = make_config(ob=10.0, orr=2.5, oc=0.05)
    h = build_hamiltonian(c).h_total
    hc = h - np.diag(np.diag(h))
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
    assert np.array_equal(gen[16:32, 0:16], oracle_commutator(h_side))
    assert np.array_equal(gen[16:32, 32:48], oracle_commutator(h_side))
    c_side = commutator_stack(h_side[None])[0]
    assert c_side.dtype == float
    assert np.abs(c_side - in_slots(gen[16:32, 0:16])).max() < 1e-15 * np.abs(c_side).max()


def test_sideband_parts_vanish_without_motion():
    assert np.abs(build_hamiltonian(make_config(motion=False)).h_side).max() == 0.0


def test_jump_operator_rates_and_targets():
    # the decay part of the generator moves population P -> S, P -> D and Q -> S at the three rates
    c = make_config(gq=0.7)
    h = build_hamiltonian(c).h_total
    decay = build_superoperator(h, c).matrix - commutator_stack(h[None])[0]
    gp, gq = c.atom.gamma_p, c.atom.gamma_q
    populations = decay[np.ix_([0, 5, 10, 15], [0, 5, 10, 15])]
    want = np.array([[0.0, 15 * gp / 16, 0.0, gq], [0.0, -gp, 0.0, 0.0],
                     [0.0, gp / 16, 0.0, 0.0], [0.0, 0.0, 0.0, -gq]])
    assert np.abs(populations - want).max() < 1e-14 * gp
    for _, op in jump_operators(c):
        # each channel moves exactly one unit of population
        assert np.count_nonzero(op) == 1
        assert np.abs(op).max() == pytest.approx(1.0)


def test_dissipator_matches_elementwise_route():
    """The generator vs direct evaluation of the master equation on each basis matrix."""
    c = make_config(gq=0.7)
    c = dataclasses.replace(c, laser_b=dataclasses.replace(c.laser_b, linewidth=from_mhz(0.01)),
                            laser_r=dataclasses.replace(c.laser_r, linewidth=from_mhz(0.003)),
                            laser_c=dataclasses.replace(c.laser_c, linewidth=from_mhz(0.02)))
    h = build_hamiltonian(c).h_total
    rates = dephasing_rates(c)
    m_slow = np.zeros((16, 16))
    for col in range(16):
        basis = unvec(np.eye(16)[col])
        out = -1j * (h @ basis - basis @ h) - rates * basis
        for rate, op in jump_operators(c):
            anti = op.conj().T @ op
            out += rate * (op @ basis @ op.conj().T - 0.5 * (anti @ basis + basis @ anti))
        m_slow[:, col] = vec(out)
    assert np.abs(build_superoperator(h, c).matrix - m_slow).max() < 1e-12


def test_decay_routes_agree():
    """Decay part of the generator vs the generic Lindblad sum of the oracle."""
    c = make_config(gq=0.7)
    h = build_hamiltonian(c).h_total
    decay = build_superoperator(h, c).matrix - commutator_stack(h[None])[0]
    want = in_slots(oracle_generator(h, c) - oracle_commutator(h))
    assert np.abs(decay - want).max() < 1e-15 * np.abs(decay).max()


def test_commutator_superoperator_action():
    c = make_config()
    h = build_hamiltonian(c).h_total
    m = commutator_stack(h[None])[0]
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
    h = build_hamiltonian(c).h_total
    diff = build_superoperator(h, c).matrix - build_superoperator(h, with_linewidths(c, 0.0)).matrix
    # both slots of a level pair dephase at the pair's rate: slot i + 4 j read at [i, j]
    rates = -np.diag(diff).reshape(4, 4).T
    assert np.abs(rates - rates.T).max() == 0.0
    assert np.all(np.diag(rates) == 0.0)
    assert rates[P, S] == pytest.approx(b_b)
    assert rates[P, D] == pytest.approx(b_r)
    assert rates[Q, S] == pytest.approx(b_c)
    assert rates[S, D] == pytest.approx(b_b + b_r)
    assert rates[Q, P] == pytest.approx(b_b + b_c)
    assert rates[Q, D] == pytest.approx(b_b + b_r + b_c)
    assert np.abs(rates - dephasing_rates(c)).max() < 1e-14


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


def _assert_is_the_oracle(got, want):
    """got is real and equals the oracle's want in the slot layout, to 1e-15 of each point's largest entry."""
    assert got.dtype == float
    scale = np.abs(got).max(axis=(-2, -1), keepdims=True)
    assert (np.abs(got - in_slots(want)) <= 1e-15 * scale).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_superoperator_stack_is_the_oracle_in_slots(seed):
    configs = _random_configs(np.random.default_rng(seed), 64)
    table = ParamTable.of(configs)
    h = hamiltonian_stack(table).h_total
    got = superoperator_stack(h, table)
    _assert_is_the_oracle(got, np.stack([oracle_generator(h[i], c) for i, c in enumerate(configs)]))
    # the trace row annihilates every generator
    trace_rows = got[:, [0, 5, 10, 15]].sum(axis=1)
    assert (np.abs(trace_rows) <= 1e-15 * np.abs(got).max(axis=(1, 2))[:, None]).all()


@pytest.mark.parametrize("seed", [0, 1])
def test_commutator_stack_is_the_oracle_in_slots(seed):
    rng = np.random.default_rng(seed)
    h = _random_hermitian_stack(rng, 64) * 10.0 ** rng.integers(-300, 300, size=(64, 1, 1))
    got = commutator_stack(h)
    assert got.shape == (64, 16, 16)
    _assert_is_the_oracle(got, np.stack([oracle_commutator(h_i) for h_i in h]))


def test_non_finite_column_values_stay_in_their_point():
    # an overflowing Delta_R - Delta_B puts inf on h's diagonal; eta Omega past the range on a sideband coupling
    base = make_config(motion=True, counter=True)
    overflow = dataclasses.replace(base, laser_b=dataclasses.replace(base.laser_b, detuning=-1.7e308),
                                   laser_r=dataclasses.replace(base.laser_r, detuning=1.7e308))
    strong = dataclasses.replace(base, laser_b=dataclasses.replace(base.laser_b, rabi=1e307),
                                 motion=dataclasses.replace(base.motion, amplitude=1e5))
    table = ParamTable.of([base, overflow, base, strong, base])
    with np.errstate(over="ignore"):
        parts = hamiltonian_stack(table)
    m = superoperator_stack(parts.h_total, table)
    c = commutator_stack(parts.h_side)
    assert np.flatnonzero(~np.isfinite(m).all(axis=(1, 2))).tolist() == [1]
    assert np.flatnonzero(~np.isfinite(c).all(axis=(1, 2))).tolist() == [3]
    for i in (2, 4):
        assert np.array_equal(m[i], m[0]) and np.array_equal(c[i], c[0])
    # the verdicts the column-major generator got: the huge Rabi frequency leaves no kernel gap
    carrier = ScanSpec("laser_R.detuning", 0.0, 1.0, 5)
    floquet = ScanSpec("laser_R.detuning", 0.0, 1.0, 5, solver="floquet")
    with np.errstate(over="ignore"):
        assert scan._solve_block(table, carrier)[3] == ["", "NoConvergence", "", "DegenerateKernel", ""]
        assert scan._solve_block(table, floquet)[3] == ["", "NoConvergence", "", "NoConvergence", ""]


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
