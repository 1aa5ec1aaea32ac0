"""Time evolution: propagation routes, physicality, fits, correlations."""

import math
import warnings

import numpy as np
import pytest

from conftest import make_config, propagate, sup_of, two_plus_one
from nscheme.cli import main
from nscheme.dressed import lambda_eigensystem
from nscheme.dynamics import (
    KERNEL_EIG_TOL,
    PopulationTrace,
    _hann,
    evolve,
    fit_timescales,
    g2,
    propagate_vectors,
)
from nscheme.errors import ConfigError, DefectiveGenerator, NoConvergence, NonPhysicalState
from nscheme.liouvillian import Superoperator
from nscheme.model import pure_state
from nscheme.steady import steady_state


def test_semigroup_composition():
    c = make_config()
    sup = sup_of(c)
    rho0 = pure_state("S").matrix
    one_step = propagate(sup, rho0, 7.0)
    two_step = propagate(sup, propagate(sup, rho0, 3.0), 4.0)
    assert np.abs(one_step - two_step).max() < 1e-9


def test_positivity_along_the_path():
    c = make_config(gq=0.2)
    trace = evolve(sup_of(c), pure_state("S"), np.linspace(0.0, 30.0, 301),
                   keep_states=True)
    for rho in trace.states:
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-8
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)


def test_long_time_limit_is_steady_state():
    c = make_config()
    sup = sup_of(c)
    rho_inf = propagate(sup, pure_state("S").matrix, 40000.0)
    rho_ss = steady_state(sup)
    assert np.abs(np.real(np.diag(rho_inf)) - rho_ss.populations).max() < 1e-6


@pytest.mark.parametrize("c", [
    make_config(),
    # exceptional point Omega_B = gamma_P / 2: two modes nearly merge, cond(V) = 1.4e8
    make_config(ob=11.0, orr=0.0, oc=0.0, db=0.0),
], ids=["default", "exceptional_point"])
def test_eig_and_rk_routes_agree(c):
    times = np.linspace(0.0, 20.0, 21)
    p_eig = evolve(sup_of(c), pure_state("S"), times, method="eig").populations
    p_rk = evolve(sup_of(c), pure_state("S"), times, method="rk").populations
    assert np.abs(p_eig - p_rk).max() < 1e-6


def test_decoupled_metastable_decay_is_exponential():
    c = make_config(ob=0.0, orr=0.0, oc=0.0, gq=0.05)
    times = np.linspace(0.0, 60.0, 61)
    trace = evolve(sup_of(c), pure_state("Q"), times)
    expect = np.exp(-0.05 * times)
    assert np.abs(trace.population("Q") - expect).max() < 1e-9
    assert np.abs(trace.population("S") - (1 - expect)).max() < 1e-9


def test_grid_validation():
    c = make_config()
    with pytest.raises(ConfigError):
        evolve(sup_of(c), pure_state("S"), np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        evolve(sup_of(c), pure_state("S"), np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ConfigError):
        evolve(sup_of(c), pure_state("S"), np.array([0.0, 1.0]), method="rk9")


def test_eig_overflow_is_no_convergence_without_warnings():
    # a 1e300 MHz Rabi frequency overflows exp(lambda t) at t > 0
    c = make_config(ob=1e300)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NoConvergence, match="overflowed"):
            evolve(sup_of(c), pure_state("S"), np.linspace(0.0, 5.0, 3), method="eig")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("method", ["auto", "eig"])
def test_singular_eigenbasis_is_defective(method):
    # a Jordan block whose second eigenvector underflows onto the first; "auto" is eig, with no fallback
    m = np.zeros((16, 16))
    m[0, 1] = 1e308
    sup = Superoperator(m)
    assert sup.eig()[2] is None and sup.eig()[3] == np.inf
    with pytest.raises(DefectiveGenerator):
        propagate_vectors(sup, pure_state("S"), np.linspace(0.0, 1.0, 3), method=method)


@pytest.mark.parametrize("method", ["auto", "eig", "rk"])
def test_generator_norm_past_the_float_range_is_refused(method):
    # finite entries whose column sum overflows: a kernel threshold of inf would pin every mode
    m = np.zeros((16, 16))
    m[[0, 5], 5] = 1e308, -1e308
    with pytest.raises(NoConvergence, match="overflows the float range"):
        propagate_vectors(Superoperator(m), pure_state("S"), np.linspace(0.0, 1.0, 3), method=method)


def test_kernel_eigenvalue_is_pinned_to_zero():
    # rounding leaves this point's kernel eigenvalue at 3.5e-16 rad/us, which over 1e15 us
    # would scale the steady state by exp(0.35)
    sup = sup_of(make_config())
    lam = sup.eig()[0]
    assert 0.0 < np.abs(lam).min() < KERNEL_EIG_TOL * np.abs(sup.matrix).sum(axis=0).max()
    trace = evolve(sup, pure_state("S"), np.array([0.0, 1e6, 1e15]))
    assert np.array_equal(trace.populations[1], trace.populations[2])
    assert np.abs(trace.populations[2] - steady_state(sup).populations).max() < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trace_rejects_non_finite_populations(bad):
    pops = np.array([[1.0, 0.0, 0.0, 0.0], [bad, bad, bad, bad]])
    with pytest.raises(NonPhysicalState, match="non-finite"):
        PopulationTrace(times=np.array([0.0, 1.0]), populations=pops)


@pytest.mark.parametrize("n", [2, 3, 10, 4096])
def test_hann_matches_scipy_bitwise(n):
    from scipy.signal.windows import hann

    assert _hann(n).tobytes() == hann(n).tobytes()


def test_trace_csv_format(capsys):
    assert main(["evolve", "--config", "fig3a", "--t-max", "1", "--points", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t_us,P_S,P_P,P_D,P_Q"
    assert len(lines) == 4
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0)


def test_fit_recovers_effective_rabi():
    c = two_plus_one(gq=0.0)
    trace = evolve(sup_of(c), pure_state("S"), np.linspace(0.0, 800.0, 4001))
    fit = fit_timescales(trace)
    eff = lambda_eigensystem(c).effective_rabi
    assert fit.rabi == pytest.approx(eff, rel=0.05)
    assert 0.0 < fit.fast < fit.slow


def test_fit_timescale_bands():
    c = make_config()  # three-photon point
    fast = fit_timescales(evolve(sup_of(c), pure_state("S"),
                                 np.linspace(0.0, 50.0, 2001))).fast
    slow = fit_timescales(evolve(sup_of(c), pure_state("S"),
                                 np.linspace(0.0, 15000.0, 6001))).slow
    assert 0.1 < fast < 5.0
    assert 100.0 < slow < 10000.0


def slowest_decay_rate(superop):
    """Smallest nonzero decay rate |Re lambda| of the generator, the kernel mode (below 1e-12) excluded."""
    lam = superop.eig()[0]
    decaying = np.abs(lam.real)[np.abs(lam.real) > 1e-12]
    if decaying.size == 0:
        raise DefectiveGenerator("generator has no decaying modes")
    return float(decaying.min())


def test_slowest_decay_rate_matches_fitted_slow_scale():
    c = make_config()
    rate = slowest_decay_rate(sup_of(c))
    slow = fit_timescales(evolve(sup_of(c), pure_state("S"),
                                 np.linspace(0.0, 15000.0, 6001))).slow
    assert 0.3 < 1.0 / (rate * slow) < 3.0


def test_g2_limits_and_channels():
    c = two_plus_one()
    sup = sup_of(c)
    rho_ss = steady_state(sup)
    tau = np.array([0.0, 8000.0])
    both = g2(sup, rho_ss, tau, c)
    assert both[0] == 0.0
    assert both[1] == pytest.approx(1.0, abs=1e-6)
    blue = g2(sup, rho_ss, tau, c, channel="blue")
    assert blue[0] == 0.0
    assert blue[1] == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ConfigError):
        g2(sup, rho_ss, tau, c, channel="green")


def test_g2_zero_delay_and_bunching():
    # The steady state is almost entirely shelved (Q plus the Raman dark
    # superposition), so a detection heralds the rare bright interval and
    # short delays are strongly bunched; tau=0 is exactly zero because a
    # jump leaves the atom in the ground manifold.
    c = two_plus_one()
    sup = sup_of(c)
    rho_ss = steady_state(sup)
    tau = np.linspace(0.0, 0.2, 21)
    vals = g2(sup, rho_ss, tau, c)
    assert vals[0] == 0.0
    assert np.all(vals[1:] > 0.0)
    assert vals[1] > 1.0
