"""End-to-end acceptance checks.

One test per acceptance criterion, asserted at its stated tolerance, so
the pytest -v report reads as a one-line pass/fail checklist. Frozen
regression values live in the per-module tests; here only the gates are
asserted and the measured numbers are printed for the log.

The trajectory ensemble (criteria 6a/6b: 500 trajectories, 7.1e6
photons) dominates the runtime at about 9 s on a 2-core machine;
everything else finishes in seconds.
"""

import numpy as np
import pytest

from conftest import make_config, propagate, sup_of, two_plus_one, with_linewidths
from nscheme.dressed import three_photon_report
from nscheme.dynamics import evolve, fit_timescales, g2
from nscheme.liouvillian import build_hamiltonian, build_superoperator
from nscheme.mcwf import bright_dark_statistics, default_dark_threshold, ensemble_populations
from nscheme.model import from_mhz, level_index, pure_state
from nscheme.scan import ScanSpec, run_scan
from nscheme.steady import steady_state
from nscheme.floquet import solve_floquet_steady

Q = level_index("Q")

ENSEMBLE_SEED = 20260819
ENSEMBLE_SIZE = 500
ENSEMBLE_GRID = np.linspace(0.0, 3000.0, 61)


@pytest.fixture(scope="module")
def trajectory_ensemble():
    """500 trajectories of the three-photon trapping configuration."""
    config = make_config()
    trace, records = ensemble_populations(
        config, "S", ENSEMBLE_GRID, ENSEMBLE_SIZE, ENSEMBLE_SEED, return_records=True
    )
    exact = evolve(sup_of(config), pure_state("S"), ENSEMBLE_GRID)
    return config, trace, records, exact


@pytest.fixture(scope="module")
def sideband_scan():
    """Probe-detuning scan across the motional sidebands, counter-propagating
    geometry at the two+one-photon resonance."""
    config = two_plus_one(motion=True, counter=True)
    return run_scan(config, ScanSpec("laser_C.detuning", -1.2, 1.2, 801, solver="floquet"))


@pytest.fixture(scope="module")
def coprop_scan():
    """Raman-detuning scan in the co-propagating geometry plus its
    motionless reference on the same grid."""
    moving = run_scan(
        make_config(motion=True, counter=False),
        ScanSpec("laser_R.detuning", 2.0, 10.0, 41, solver="floquet"),
    )
    still = run_scan(make_config(), ScanSpec("laser_R.detuning", 2.0, 10.0, 41, solver="carrier"))
    return moving, still


def _windowed_peak(axis, values, lo, hi):
    """Parabolically refined argmax of values on axis restricted to [lo, hi]."""
    mask = (axis >= lo) & (axis <= hi)
    x, y = axis[mask], values[mask]
    k = int(np.argmax(y))
    if 0 < k < x.size - 1:
        shift = 0.5 * (y[k - 1] - y[k + 1]) / (y[k - 1] - 2.0 * y[k] + y[k + 1])
        return float(x[k] + shift * (x[1] - x[0])), float(y[k])
    return float(x[k]), float(y[k])


def test_criterion_01_three_photon_trapping():
    config = make_config()
    pq_physical = steady_state(sup_of(config)).population("Q")
    print(f"P_Q (physical gamma_Q) = {pq_physical:.6f}")
    assert pq_physical >= 0.95

    report = three_photon_report(config)
    formula = 1.0 / (1.0 + report.alpha_c**2 + report.epsilon**2)
    pq_stable = steady_state(sup_of(make_config(gq=0.0))).population("Q")
    print(f"P_Q (gamma_Q = 0) = {pq_stable:.8f}, perturbative formula = {formula:.8f}")
    assert abs(pq_stable - formula) < 1e-3


def test_criterion_02_two_plus_one_plateau():
    pq = steady_state(sup_of(two_plus_one(gq=0.0))).population("Q")
    print(f"P_Q at two+one resonance (gamma_Q = 0) = {pq:.6f}")
    assert pq == pytest.approx(0.50, abs=0.02)


def test_criterion_03_dark_resonance_baseline():
    # C drive off at the two-photon resonance: pure Raman dark state
    rho = steady_state(sup_of(make_config(oc=0.0, dr=8.0)))
    pops = rho.populations
    print(f"populations = {np.array2string(pops, precision=8)}")
    assert pops[level_index("P")] < 1e-8
    # dark state of Rabi ratio 10 : 2.5 -> (1/17, 0, 16/17)
    assert abs(pops[level_index("S")] - 1.0 / 17.0) < 1e-6
    assert abs(pops[level_index("D")] - 16.0 / 17.0) < 1e-6
    assert pops[Q] == 0.0


def test_criterion_04_rabi_oscillation_frequency_and_phases():
    config = two_plus_one(gq=0.0)
    trace = evolve(sup_of(config), pure_state("S"), np.linspace(0.0, 800.0, 4001))
    fit = fit_timescales(trace)
    target = from_mhz(0.012127)
    print(f"fitted Rabi = {fit.rabi:.8f} rad/us, target = {target:.8f} rad/us, "
          f"rel err = {abs(fit.rabi - target) / target:.4f}")
    assert fit.rabi == pytest.approx(target, rel=0.05)

    # phase test: smooth out the fast Lambda transient, then correlate
    def boxcar(x, w=15):
        return np.convolve(x, np.ones(w) / w, mode="valid")

    def corr(a, b):
        a = a - a.mean()
        b = b - b.mean()
        return float(a @ b / np.sqrt((a @ a) * (b @ b)))

    pops = trace.populations
    s = boxcar(pops[:, level_index("S")])
    d = boxcar(pops[:, level_index("D")])
    q = boxcar(pops[:, Q])
    c_sd, c_sq, c_dq = corr(s, d), corr(s, q), corr(d, q)
    print(f"correlations: S-D {c_sd:+.3f}, S-Q {c_sq:+.3f}, D-Q {c_dq:+.3f}")
    assert c_sd > 0.0
    assert c_sq < 0.0
    assert c_dq < 0.0


def test_criterion_05_timescale_hierarchy():
    sup = sup_of(make_config())
    fast = fit_timescales(evolve(sup, pure_state("S"), np.linspace(0.0, 20.0, 2001))).fast
    slow = fit_timescales(evolve(sup, pure_state("S"), np.linspace(0.0, 20000.0, 2001))).slow
    print(f"fast = {fast:.4f} us, slow = {slow:.1f} us")
    assert fast <= 5.0
    assert 100.0 <= slow <= 10000.0


def test_criterion_06a_bright_period_photon_count(trajectory_ensemble):
    # The simulated value sits near 1.4e4: the bright-manifold emission
    # rate (gamma_P times its steady P population, 7.98 photons/us, cross
    # checked against the mean jump rate) times the mean bright duration
    # implied by the slow pumping time already exceeds 1e4, so the band
    # below is unreachable for this configuration. Kept failing rather
    # than tuned away; the companion 06b check pins the ensemble to the
    # master equation.
    config, _, records, _ = trajectory_ensemble
    stats = bright_dark_statistics(records, default_dark_threshold(config))
    print(f"mean bright photons = {stats.mean_bright_photons:.1f} "
          f"+- {stats.se_bright_photons:.1f} (n_bright = {stats.n_bright})")
    assert 1e3 <= stats.mean_bright_photons <= 1e4


def test_criterion_06b_ensemble_matches_master_equation(trajectory_ensemble):
    _, trace, _, exact = trajectory_ensemble
    diff = np.abs(trace.populations - exact.populations)
    se = trace.standard_errors
    inside = (diff <= 3.0 * se) | (diff < 1e-12)
    frac = float(inside.mean())
    print(f"fraction of grid points within 3 SE = {frac:.4f}")
    assert frac >= 0.95


def test_criterion_07_g2_sanity():
    config = two_plus_one(gq=0.0)
    sup = sup_of(config)
    rho_ss = steady_state(sup)
    ends = g2(sup, rho_ss, np.array([0.0, 8000.0]), config)
    print(f"g2(0) = {ends[0]:.3e}, g2(tau_max) - 1 = {ends[1] - 1.0:+.3e}")
    assert ends[0] < 1e-10
    assert ends[1] == pytest.approx(1.0, abs=1e-6)

    # modulation at the effective Rabi frequency: window out the slow
    # bunching envelope (bins below half the expected frequency), then
    # refine the maximum on a log-parabolic fit
    tau = np.linspace(0.0, 800.0, 4096)
    vals = g2(sup, rho_ss, tau, config)
    windowed = (vals - vals.mean()) * np.hanning(vals.size)
    spec = np.abs(np.fft.rfft(windowed))
    freqs = np.fft.rfftfreq(vals.size, d=tau[1] - tau[0])
    expected = 0.012127
    k = freqs.searchsorted(expected / 2.0) + int(np.argmax(spec[freqs.searchsorted(expected / 2.0):]))
    lo, mid, hi = np.log(spec[k - 1]), np.log(spec[k]), np.log(spec[k + 1])
    shift = 0.5 * (lo - hi) / (lo - 2.0 * mid + hi)
    peak = freqs[k] + shift * (freqs[1] - freqs[0])
    print(f"spectral peak = {peak:.6f} MHz, expected = {expected} MHz, "
          f"rel err = {abs(peak - expected) / expected:.4f}")
    assert spec[k] > spec[k - 1] and spec[k] > spec[k + 1]
    assert peak == pytest.approx(expected, rel=0.05)


def test_criterion_08_floquet_reduction_and_sidebands(sideband_scan, coprop_scan):
    # zero modulation amplitude reduces to the carrier steady state
    motionless = solve_floquet_steady(make_config(motion=True, counter=True, amp=0.0), 2)
    rho_carrier = steady_state(sup_of(make_config())).matrix
    gap = np.abs(motionless.block(0) - rho_carrier).max()
    print(f"eta = 0 reduction gap = {gap:.3e}")
    assert gap < 1e-10

    # counter-propagating geometry: sidebands displaced by the trap
    # frequency (1 MHz) within one grid step of the scan
    axis = sideband_scan.axis_mhz
    q_pop = sideband_scan.populations[:, Q]
    step = axis[1] - axis[0]
    carrier_loc, carrier_h = _windowed_peak(axis, q_pop, -0.5, 0.5)
    upper_loc, upper_h = _windowed_peak(axis, q_pop, 0.5, 1.2)
    lower_loc, lower_h = _windowed_peak(axis, q_pop, -1.2, -0.5)
    up_err = abs(upper_loc - carrier_loc) - 1.0
    dn_err = abs(lower_loc - carrier_loc) - 1.0
    print(f"carrier at {carrier_loc:+.6f} MHz h = {carrier_h:.4f}; displacements "
          f"{up_err * 1e3:+.3f} / {dn_err * 1e3:+.3f} kHz vs step {step * 1e3:.1f} kHz")
    assert abs(up_err) <= step
    assert abs(dn_err) <= step

    # carrier sits below the motionless value, in both configurations
    still_two_plus_one = steady_state(sup_of(two_plus_one(gq=0.0))).population("Q")
    assert carrier_h < still_two_plus_one
    moving_three_photon = solve_floquet_steady(make_config(motion=True, counter=True), 2)
    carrier_three_photon = float(np.real(moving_three_photon.block(0)[Q, Q]))
    still_three_photon = steady_state(sup_of(make_config())).population("Q")
    print(f"three-photon carrier {carrier_three_photon:.4f} vs motionless {still_three_photon:.4f}")
    assert carrier_three_photon < still_three_photon

    # co-propagating geometry is nearly phase matched
    moving, still = coprop_scan
    dev = np.abs(moving.populations - still.populations).max()
    print(f"co-propagating max deviation from motionless = {dev:.6f}")
    assert dev < 0.02


def test_criterion_09_sideband_exceeds_half(sideband_scan):
    axis = sideband_scan.axis_mhz
    q_pop = sideband_scan.populations[:, Q]
    side = (np.abs(axis) >= 0.5) & (np.abs(axis) <= 1.2)
    best = float(q_pop[side].max())
    print(f"max sideband P_Q = {best:.4f}")
    assert best > 0.5


def test_criterion_10_hermiticity_pairing(sideband_scan, coprop_scan):
    defects = [sideband_scan.metadata["max_pairing_defect"],
               coprop_scan[0].metadata["max_pairing_defect"]]
    print(f"max pairing defects = {defects}")
    assert max(defects) < 1e-10


def test_criterion_11_linewidth_robustness():
    # broadened-ratio configuration; 10 kHz HWHM on all three lasers
    config = make_config(db=5.0, dr=-9.0, dc=14.0, ob=10.0, orr=14.0, oc=0.8)
    pq = steady_state(sup_of(with_linewidths(config, 0.01))).population("Q")
    print(f"three-photon P_Q with 10 kHz linewidths = {pq:.4f}")
    assert pq >= 0.95

    plateau = make_config(db=5.0, dr=5.0, dc=0.0, ob=10.0, orr=14.0, oc=0.8)
    base = steady_state(sup_of(plateau)).population("Q")
    broad = steady_state(sup_of(with_linewidths(plateau, 0.01))).population("Q")
    print(f"two+one P_Q {base:.6f} -> {broad:.6f}, reduction = {base - broad:+.6f}")
    assert base - broad < 0.01


def test_criterion_12_global_invariant_suite():
    rng = np.random.default_rng(20260819)
    t_grid = np.array([0.0, 0.7, 1.9])
    worst = dict(trace=0.0, herm=0.0, positivity=0.0, semigroup=0.0, eig_vs_rk=0.0)
    for _ in range(100):
        mags = np.exp(rng.uniform(np.log(0.01), np.log(30.0), size=6))
        signs = rng.choice([-1.0, 1.0], size=3)
        config = make_config(ob=mags[0], orr=mags[1], oc=mags[2],
                             db=signs[0] * mags[3], dr=signs[1] * mags[4],
                             dc=signs[2] * mags[5])
        sup = build_superoperator(build_hamiltonian(config).h_total, config)
        trace = evolve(sup, pure_state("S"), t_grid, method="eig", keep_states=True)
        for rho in trace.states:
            worst["trace"] = max(worst["trace"], abs(np.trace(rho).real - 1.0))
            worst["herm"] = max(worst["herm"], np.abs(rho - rho.conj().T).max())
            worst["positivity"] = max(worst["positivity"], max(0.0, -np.linalg.eigvalsh(rho).min()))
        two_leg = propagate(sup, propagate(sup, pure_state("S"), 0.7), 1.2)
        one_leg = propagate(sup, pure_state("S"), 1.9)
        worst["semigroup"] = max(worst["semigroup"], np.abs(two_leg - one_leg).max())
        stepped = evolve(sup, pure_state("S"), t_grid, method="rk")
        worst["eig_vs_rk"] = max(worst["eig_vs_rk"],
                                 np.abs(trace.populations - stepped.populations).max())
    print("worst deviations:", {k: f"{v:.3e}" for k, v in worst.items()})
    assert worst["trace"] < 1e-9
    assert worst["herm"] < 1e-10
    assert worst["positivity"] < 1e-8
    assert worst["semigroup"] < 1e-9
    assert worst["eig_vs_rk"] < 1e-6
