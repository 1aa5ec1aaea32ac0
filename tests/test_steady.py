"""Null-space steady states: frozen values, reductions, degeneracy handling."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from conftest import make_config, point_configs, sup_of, svd_gated_steady_states, two_plus_one
from nscheme import scan
from nscheme.cli import _load_config_arg
from nscheme.errors import ConfigError, DegenerateKernel, SolverError
from nscheme.liouvillian import build_hamiltonian, hamiltonian_stack, superoperator_stack
from nscheme.model import ParamTable, config_from_dict, from_mhz
from nscheme.scan import ScanSpec, run_scan
from nscheme.steady import GAP_THRESHOLD, _certified, _steady_vec, residual, steady_state, steady_states
from test_properties import config_dicts

# three-photon working point, solved once and pinned
PQ_THREE_PHOTON_PHYS = 0.9969903851363362
PQ_THREE_PHOTON_GQ0 = 0.9995743035651456
PQ_TWO_PLUS_ONE_GQ0 = 0.499544397469235


def test_three_photon_point_physical_decay():
    sup = sup_of(make_config())
    rho = steady_state(sup)
    assert rho.population("Q") == pytest.approx(PQ_THREE_PHOTON_PHYS, abs=1e-10)
    assert residual(sup, rho) < 1e-10
    assert rho.populations.sum() == pytest.approx(1.0, abs=1e-12)


def test_three_photon_point_no_decay():
    rho = steady_state(sup_of(make_config(gq=0.0)))
    assert rho.population("Q") == pytest.approx(PQ_THREE_PHOTON_GQ0, abs=1e-10)


def test_metastable_decay_lowers_trapping():
    assert PQ_THREE_PHOTON_GQ0 > PQ_THREE_PHOTON_PHYS


def test_two_plus_one_plateau():
    rho = steady_state(sup_of(two_plus_one(gq=0.0)))
    assert rho.population("Q") == pytest.approx(PQ_TWO_PLUS_ONE_GQ0, abs=1e-10)


def test_dark_state_exact():
    """No C laser at two-photon resonance: the dark state is analytic."""
    c = make_config(db=8.0, dr=8.0, oc=0.0, gq=0.0)
    rho = steady_state(sup_of(c))
    # amplitudes (O_R, 0, -O_B)/Obar give populations (1/17, 0, 16/17)
    assert rho.population("S") == pytest.approx(1.0 / 17.0, abs=1e-9)
    assert rho.population("P") < 1e-12
    assert rho.population("D") == pytest.approx(16.0 / 17.0, abs=1e-9)
    assert rho.population("Q") == 0.0


def steady_state_of_matrix(matrix):
    """Steady state of an n-level generator given as an n^2 x n^2 matrix.

    Returns the (hermitized, trace-1) n x n density matrix without the
    4-level wrapper, for restricted blocks.
    """
    matrix = np.asarray(matrix)
    n = round(matrix.shape[0] ** 0.5)
    rho = _steady_vec(matrix, n).reshape((n, n), order="F")
    return 0.5 * (rho + rho.conj().T)


def _lambda_generator(c):
    """Independent 3x3-system generator for the S, P, D block."""
    h3 = np.zeros((3, 3), dtype=complex)
    h3[1, 1] = -c.laser_b.detuning
    h3[2, 2] = c.laser_r.detuning - c.laser_b.detuning
    h3[1, 0] = h3[0, 1] = c.laser_b.rabi / 2
    h3[1, 2] = h3[2, 1] = c.laser_r.rabi / 2
    eye = np.eye(3)
    m = -1j * (np.kron(eye, h3) - np.kron(h3.T, eye))
    for rate, tgt in ((c.atom.beta_ps * c.atom.gamma_p, 0), (c.atom.beta_pd * c.atom.gamma_p, 2)):
        op = np.zeros((3, 3)); op[tgt, 1] = 1.0
        ldl = op.T @ op
        m += rate * (np.kron(op, op) - 0.5 * np.kron(eye, ldl) - 0.5 * np.kron(ldl.T, eye))
    return m


def test_unfed_level_reduction_matches_three_level_solver():
    """With the C laser off and gamma_Q=0, Q drops out of the problem."""
    c = make_config(db=8.0, dr=3.0, oc=0.0, gq=0.0)
    rho = steady_state(sup_of(c))
    rho3 = steady_state_of_matrix(_lambda_generator(c))
    assert rho.population("Q") == 0.0
    assert np.abs(rho.matrix[:3, :3] - rho3).max() < 1e-9


def test_steady_state_of_matrix_normalizes():
    rho3 = steady_state_of_matrix(_lambda_generator(make_config(oc=0.0, gq=0.0)))
    assert rho3.shape == (3, 3)
    assert np.trace(rho3).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rho3 - rho3.conj().T).max() < 1e-10


def test_degenerate_kernel_rejected():
    # no drive and no metastable decay: S and Q are both stationary
    with pytest.raises(DegenerateKernel):
        steady_state(sup_of(make_config(ob=0.0, orr=0.0, oc=0.0, gq=0.0)))


def test_detuning_continuity():
    """Steady populations move smoothly with a small detuning step."""
    a = steady_state(sup_of(make_config(dr=3.0))).populations
    b = steady_state(sup_of(make_config(dr=3.0 + 1e-6))).populations
    assert np.abs(a - b).max() < 1e-3


# -- the certificate and its SVD-gated oracle -------------------------------

def _spectrum_arrays(config, spec):
    sp = run_scan(config, spec)
    return sp.populations, sp.residuals, sp.flags


def _assert_same_as_oracle(monkeypatch, config, spec):
    got = _spectrum_arrays(config, spec)
    with monkeypatch.context() as m:
        m.setattr(scan, "steady_states", svd_gated_steady_states)
        want = _spectrum_arrays(config, spec)
    assert got[2] == want[2]
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert np.array_equal(got[1], want[1], equal_nan=True)
    return got


def test_certified_route_matches_svd_gated_oracle_on_flagged_sweep(monkeypatch):
    # 13 blocks; the 10 points below the gap stay DegenerateKernel
    spec = ScanSpec(axis="laser_C.rabi", start=0.0, stop=0.2, points=801)
    _, _, flags = _assert_same_as_oracle(monkeypatch, _load_config_arg("fig3a"), spec)
    assert flags.count("DegenerateKernel") == 10


def test_certified_route_matches_svd_gated_oracle_on_overflowing_rabi(monkeypatch):
    spec = ScanSpec(axis="laser_B.rabi", start=10.0, stop=1e301, points=3)
    _assert_same_as_oracle(monkeypatch, _load_config_arg("fig3a"), spec)


DEGENERATE_CONFIGS = [
    make_config(ob=0.0, orr=0.0, oc=0.0, gq=0.0),   # nothing fixes the kernel
    make_config(db=8.0, dr=3.0, oc=0.0, gq=0.0),     # Q unfed
    make_config(db=8.0, dr=8.0, oc=0.0, gq=0.0),     # dark state
    make_config(orr=0.0, oc=0.0, gq=0.0),            # test_scan's flagged sweep base
    make_config(),
]


def _bordered_matrices(m):
    """The generators with their first row replaced by the trace row."""
    a = np.array(m)
    a[:, 0, :] = 0.0
    a[:, 0, [0, 5, 10, 15]] = 1.0
    return a


def _outcome(solver, m):
    try:
        rho, errors = solver(m)
    except SolverError as exc:
        return type(exc).__name__
    return rho, [None if e is None else (type(e).__name__, str(e)) for e in errors]


def _assert_same_as_oracle_on_stack(m):
    got, want = _outcome(steady_states, m), _outcome(svd_gated_steady_states, m)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0], equal_nan=True)
        assert got[1] == want[1]


@pytest.mark.parametrize("stack", [[c] for c in DEGENERATE_CONFIGS] + [DEGENERATE_CONFIGS])
def test_certified_route_matches_svd_gated_oracle_on_degenerate_configs(stack):
    table = ParamTable.of(stack)
    _assert_same_as_oracle_on_stack(superoperator_stack(hamiltonian_stack(table).h_total, table))


def test_exactly_singular_bordered_block_is_decided_by_the_svd(monkeypatch):
    # gamma_Q = 0 and Omega_C = 0 at the first point: the bordered matrix is exactly singular
    config = _load_config_arg("fig3a")
    spec = ScanSpec(axis="laser_C.rabi", start=0.0, stop=0.2, points=129, gamma_q_mode="zero")
    first = point_configs(config, spec)[0]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(_bordered_matrices(sup_of(first).matrix[None]))

    calls = []
    solve_block = scan._solve_block

    def counted(table, s, *pencil):
        calls.append(len(table))
        return solve_block(table, s, *pencil)

    monkeypatch.setattr(scan, "_solve_block", counted)
    _, _, flags = _assert_same_as_oracle(monkeypatch, config, spec)
    assert calls == [64, 64, 1] * 2  # production and oracle runs, no point-by-point rerun
    assert flags[0] == ""


def _svd_spy(monkeypatch):
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def _uncertified(config, spec):
    """Indices of the points whose Frobenius-norm certificate fails, from np.linalg.inv."""
    table = ParamTable.of(point_configs(config, spec))
    m = superoperator_stack(hamiltonian_stack(table).h_total, table)
    bound = np.linalg.norm(m, axis=(1, 2)) * np.linalg.norm(np.linalg.inv(_bordered_matrices(m)), axis=(1, 2))
    return m, np.flatnonzero(GAP_THRESHOLD * bound > 1.0)


def test_certified_sweep_runs_no_svd(monkeypatch):
    seen = _svd_spy(monkeypatch)
    sp = run_scan(_load_config_arg("fig3a"), ScanSpec(axis="laser_R.detuning", start=2.0, stop=4.0, points=801))
    assert sp.n_failed == 0
    assert seen == []


def test_certified_block_makes_one_inverse_and_no_solve(monkeypatch):
    config = _load_config_arg("fig3a")
    spec = ScanSpec(axis="laser_R.detuning", start=2.0, stop=4.0, points=64)
    m, uncertified = _uncertified(config, spec)
    assert uncertified.size == 0
    calls = []

    def counter(name, f):
        def counted(a, *args):
            calls.append((name, a.shape))
            return f(a, *args)
        return counted

    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name, counter(name, getattr(np.linalg, name)))
    _, errors = steady_states(m)
    assert errors == [None] * 64
    assert calls == [("inv", (64, 16, 16))]


def test_svd_runs_only_on_uncertified_points(monkeypatch):
    config = _load_config_arg("fig3a")
    spec = ScanSpec(axis="laser_C.rabi", start=0.0, stop=0.2, points=801)
    m, uncertified = _uncertified(config, spec)
    assert 10 < uncertified.size < 64  # the flagged points and a few gapped neighbours
    seen = _svd_spy(monkeypatch)
    sp = run_scan(config, spec)
    assert sp.n_failed == 10
    assert np.array_equal(np.concatenate(seen), m[uncertified])


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=config_dicts())
def test_certified_points_pass_the_svd_gap(doc):
    try:
        config = config_from_dict(doc)
    except ConfigError:
        assume(False)
    m = sup_of(config).matrix[None]
    try:
        a_inv = np.linalg.inv(_bordered_matrices(m))
    except np.linalg.LinAlgError:
        a_inv = None
    if a_inv is not None and _certified(m, a_inv, 4)[0]:
        sing = np.linalg.svd(m[0], compute_uv=False)
        assert sing[0] >= 1e-300
        assert sing[-2] / sing[0] >= GAP_THRESHOLD
    _assert_same_as_oracle_on_stack(m)
