"""Deterministic time evolution, timescale fits, and photon correlations.

The generator spans rates from gamma_P ~ 1e2 rad/us down to gamma_Q ~
1e-6 rad/us, so rho(t) = exp(M t) rho0 is evaluated through the
eigendecomposition of the 16x16 generator rather than by ODE
stepping; an adaptive Runge-Kutta integrator runs only on request
(method "rk"), as an independent oracle for the eigen route. The
generator is trace preserving, so its kernel eigenvalue is exactly 0;
eig returns it off zero by rounding (|lambda| ~ 1e-15 rad/us), which
exp(lambda t) would turn into a steady state growing or decaying
linearly in t. Eigenvalues within KERNEL_EIG_TOL ||M||_1 of zero are
therefore pinned to 0 before propagation.

scipy is imported on demand: scipy.integrate only when the stepwise
integrator runs, so importing this module costs numpy alone.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (ConfigError, DefectiveGenerator, FitFailed, NoConvergence, NonPhysicalState,
                     ZeroFluorescence)
from .liouvillian import Superoperator, vec
from .model import DensityMatrix, SystemConfig, level_index

#: eigenbasis condition number beyond which eigen-propagation is distrusted
EIG_COND_LIMIT = 1e12
#: eigenvalues with |lambda| <= KERNEL_EIG_TOL ||M||_1 are the kernel, propagated as exactly 0.
#: Rounding puts the presets' kernel eigenvalue within 2.3e-14 rad/us of 0, and their slowest
#: decaying mode sits at 3.9e-4 rad/us, against a threshold of 3.6e-10 at ||M||_1 = 355 rad/us
KERNEL_EIG_TOL = 1e-12
#: largest ||M||_1 (t_end - t_0) handed to the stepwise integrator. An explicit
#: step stays inside RK45's stability region, so the step count grows with it;
#: every preset has ||M||_1 near 355 rad/us, so a 2000 us evolve comes to 7.1e5
RK_SPAN_LIMIT = 1e7


@dataclasses.dataclass(frozen=True)
class PopulationTrace:
    """Level populations on a time grid.

    populations has one row per time, columns ordered (S, P, D, Q).
    standard_errors is filled by stochastic ensembles, None for
    deterministic propagation. states optionally retains the full
    rho(t) stack (n, 4, 4) including coherences.
    """

    times: np.ndarray
    populations: np.ndarray
    standard_errors: np.ndarray | None = None
    states: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.populations, dtype=float)
        if p.shape != (t.size, 4):
            raise NonPhysicalState(f"populations shape {p.shape} does not match {t.size} times")
        if not np.isfinite(p).all():
            raise NonPhysicalState("non-finite population")
        sums = p.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-8:
            raise NonPhysicalState(f"populations sum off unity by {np.abs(sums - 1.0).max():.3e}")
        if p.min() < -1e-10 or p.max() > 1.0 + 1e-10:
            raise NonPhysicalState(f"population outside [0, 1]: range [{p.min():.3e}, {p.max():.3e}]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "populations", p)
        t.setflags(write=False)
        p.setflags(write=False)

    def population(self, label: str) -> np.ndarray:
        """Series of one level's population."""
        return self.populations[:, level_index(label)]


def _as_matrix(rho0) -> np.ndarray:
    if isinstance(rho0, DensityMatrix):
        return rho0.matrix
    return DensityMatrix(np.asarray(rho0, dtype=complex)).matrix


def _check_grid(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ConfigError("time grid must be a 1-d array with at least two points")
    if times[0] != 0.0:
        raise ConfigError(f"time grid must start at 0, got {times[0]}")
    if np.any(np.diff(times) <= 0):
        raise ConfigError("time grid must be strictly increasing")
    return times


def propagate_vectors(superop: Superoperator, rho0, times, *, method: str = "auto") -> np.ndarray:
    """Stack of vectorized rho(t), shape (n_times, 16).

    method "auto" (the default) and "eig" name one route,
    eigen-propagation: it refuses an eigenbasis with condition number
    past EIG_COND_LIMIT with DefectiveGenerator, and pins the kernel
    eigenvalues (|lambda| <= KERNEL_EIG_TOL ||M||_1) to 0, so the steady
    state neither grows nor decays however long the span. "rk" runs the
    stepwise integrator on request, as an independent oracle; it refuses
    a span whose ||M||_1 (t_end - t_0) exceeds RK_SPAN_LIMIT with
    NoConvergence, so its run time stays bounded. A generator whose
    ||M||_1 overflows is refused on both routes.
    """
    times = _check_grid(times)
    v0 = vec(_as_matrix(rho0))
    m = superop.matrix

    if method not in ("auto", "eig", "rk"):
        raise ConfigError(f"unknown propagation method {method!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(m).sum(axis=0).max()  # ||M||_1
    if not np.isfinite(norm):
        raise NoConvergence("||M||_1 of the generator overflows the float range")
    if method != "rk":
        lam, v, v_inv, cond = superop.eig()
        if cond > EIG_COND_LIMIT:
            raise DefectiveGenerator(f"eigenbasis condition number {cond:.3e} exceeds {EIG_COND_LIMIT:.0e}")
        lam = np.where(np.abs(lam) <= KERNEL_EIG_TOL * norm, 0.0, lam)
        coeff = v_inv @ v0
        # rho_vec(t) = V diag(exp(lam t)) V^-1 rho_vec(0); an overflow shows as a non-finite stack
        with np.errstate(over="ignore", invalid="ignore"):
            stack = (v @ (coeff[:, None] * np.exp(np.outer(lam, times)))).T
        if not np.isfinite(stack).all():
            raise NoConvergence("eigen-propagation overflowed")
        return stack

    with np.errstate(over="ignore"):  # an overflowing span is inf, and refused
        span = norm * (times[-1] - times[0])
    if not span <= RK_SPAN_LIMIT:
        raise NoConvergence(f"stepwise integration over ||M||_1 (t_end - t_0) = {span:.3e} "
                            f"exceeds {RK_SPAN_LIMIT:.0e}")

    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: m @ y,
        (times[0], times[-1]),
        v0,
        t_eval=times,
        method="RK45",
        rtol=1e-8,
        atol=1e-12,
    )
    if not sol.success:
        raise DefectiveGenerator(f"stepwise integration failed: {sol.message}")
    return sol.y.T


def evolve(superop: Superoperator, rho0, times, *, method: str = "auto", keep_states: bool = False) -> PopulationTrace:
    """Populations of rho(t) = exp(M t) rho0 on the given grid.

    The grid must start at 0 and increase strictly. Populations are
    the real diagonal of the hermitized rho(t); the trace-sum and
    range invariants of PopulationTrace double as the propagation
    sanity check.
    """
    times = _check_grid(times)
    stack = propagate_vectors(superop, rho0, times, method=method)
    rhos = stack.reshape((times.size, 4, 4)).transpose(0, 2, 1)  # column-major unvec per row
    rhos = 0.5 * (rhos + np.conj(rhos.transpose(0, 2, 1)))
    pops = np.real(np.diagonal(rhos, axis1=1, axis2=2)).copy()
    # scrub eigen-propagation roundoff so exact-zero populations stay in range
    tiny = (pops < 0.0) & (pops > -1e-10)
    pops[tiny] = 0.0
    return PopulationTrace(
        times=times,
        populations=pops,
        states=rhos if keep_states else None,
    )


@dataclasses.dataclass(frozen=True)
class TimescaleFit:
    """fast/slow in us; rabi in rad/us, None when no oscillation found."""

    fast: float
    slow: float
    rabi: float | None


def _envelope_time(times: np.ndarray, series: np.ndarray) -> float:
    """1/e decay time of the running-maximum envelope of |series|."""
    dev = np.abs(series)
    env = np.maximum.accumulate(dev[::-1])[::-1]
    if env[0] <= 0.0:
        raise FitFailed("flat series, no envelope to fit")
    thr = env[0] / math.e
    below = np.nonzero(env <= thr)[0]
    if below.size == 0:
        raise FitFailed("envelope never decays to 1/e of its maximum")
    i = below[0]
    if i == 0:
        return float(times[0])
    # linear interpolation of the crossing
    t0, t1 = times[i - 1], times[i]
    e0, e1 = env[i - 1], env[i]
    if e0 == e1:
        return float(t1)
    return float(t0 + (e0 - thr) / (e0 - e1) * (t1 - t0))


def _tail_decay_time(times: np.ndarray, series: np.ndarray, t_start: float) -> float:
    """Exponential time constant of |series(t_max) - series| on the tail."""
    target = series[-1]
    dev = np.abs(target - series)
    mask = times >= t_start
    if mask.sum() < 8:
        raise FitFailed("tail window too short for the slow fit")
    t_sel = times[mask]
    d_sel = dev[mask]
    top = d_sel.max()
    if top <= 0.0:
        raise FitFailed("tail already converged, no slow scale to fit")
    keep = d_sel > top * 1e-3
    if keep.sum() < 8:
        raise FitFailed("fewer than 8 usable points in the slow-fit tail")
    slope, _ = np.polyfit(t_sel[keep], np.log(d_sel[keep]), 1)
    if slope >= 0.0:
        raise FitFailed(f"tail does not decay (log-slope {slope:.3e})")
    return float(-1.0 / slope)


def _hann(n: int) -> np.ndarray:
    """scipy's Hann window signal.windows.hann(n), by scipy's own general-cosine formula."""
    fac = np.linspace(-np.pi, np.pi, n)
    w = np.zeros(n)
    w += 0.5 * np.cos(0 * fac)
    w += 0.5 * np.cos(fac)
    return w


def _dominant_frequency(times: np.ndarray, series: np.ndarray) -> float | None:
    """Oscillation frequency (rad/us) of the detrended series, or None.

    The secular trend is removed with a cubic fit; a Hann-windowed
    FFT peak above the contrast threshold is refined by parabolic
    interpolation. Requires a uniform grid, so the series is
    resampled first.
    """
    n = 4096
    t_uni = np.linspace(times[0], times[-1], n)
    y = np.interp(t_uni, times, series)
    x = np.linspace(-1.0, 1.0, n)  # scaled abscissa keeps the cubic fit well conditioned
    trend = np.polyval(np.polyfit(x, y, 3), x)
    resid = y - trend
    if np.ptp(resid) <= 0.1:
        return None
    spec = np.abs(np.fft.rfft(resid * _hann(n)))
    k = int(np.argmax(spec[2:]) + 2)  # skip DC and the trend-leakage bin
    if k + 1 >= spec.size:
        return None
    a, b, c = spec[k - 1], spec[k], spec[k + 1]
    denom = a - 2 * b + c
    shift = 0.0 if denom == 0.0 else 0.5 * (a - c) / denom
    df = 1.0 / (t_uni[-1] - t_uni[0])
    return 2.0 * math.pi * (k + shift) * df


def fit_timescales(trace: PopulationTrace) -> TimescaleFit:
    """Fast and slow relaxation times plus the dominant Rabi frequency.

    Fast: 1/e time of the P-population envelope around its final
    value. Slow: log-linear least squares on the approach of P_Q to
    its asymptote, fitted after the fast transient has died out.
    Rabi: dominant spectral peak of the detrended P_Q when its
    oscillation contrast exceeds 0.1, else None.
    """
    t = trace.times
    p_p = trace.population("P")
    p_q = trace.population("Q")
    if np.ptp(trace.populations, axis=0).max() < 1e-12:
        raise FitFailed("constant trace, nothing to fit")
    fast = _envelope_time(t, p_p - p_p[-1])
    slow = _tail_decay_time(t, p_q, t_start=min(20.0 * fast, t[-1] / 10.0))
    rabi = _dominant_frequency(t, p_q)
    return TimescaleFit(fast=fast, slow=slow, rabi=rabi)


def _detection_projectors(config: SystemConfig, channel: str):
    """Per-target (rate, level) feeding terms of the monitored decay."""
    atom = config.atom
    if channel == "both":
        return ((atom.beta_ps * atom.gamma_p, 0), (atom.beta_pd * atom.gamma_p, 2))
    if channel == "blue":
        return ((atom.beta_ps * atom.gamma_p, 0),)
    raise ConfigError(f"unknown detection channel {channel!r}")


def g2(superop: Superoperator, rho_ss, tau_grid, config: SystemConfig, *, channel: str = "both") -> np.ndarray:
    """Normalized photon-photon correlation of the P-decay fluorescence.

    g2(tau) = Tr[J exp(M tau) J rho_ss] / Tr[J rho_ss]^2 with the
    detection superoperator J rho = gamma_P rho_PP (beta_PS |S><S| +
    beta_PD |D><D|); channel "blue" keeps only the P->S term. The
    post-jump state has no P population, so g2(0) comes out exactly
    zero for a single emitter.
    """
    tau_grid = _check_grid(tau_grid)
    rho = _as_matrix(rho_ss)
    feeds = _detection_projectors(config, channel)

    def jump_map(r: np.ndarray) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for rate, target in feeds:
            out[target, target] = out[target, target] + rate * r[1, 1]
        return out

    flux = float(np.real(np.trace(jump_map(rho))))
    if flux < 1e-30:
        raise ZeroFluorescence(f"steady fluorescence rate {flux:.3e} below 1e-30")

    seeded = jump_map(rho)
    stack = propagate_vectors(superop, DensityMatrix(seeded / np.trace(seeded).real), tau_grid)
    rhos = stack.reshape((tau_grid.size, 4, 4)).transpose(0, 2, 1)
    # Tr[J rho(tau)] needs only the P occupation of each propagated state
    p_pop = np.real(rhos[:, 1, 1]) * np.trace(seeded).real
    # the tau = 0 propagator is the identity; bypass its roundoff
    p_pop[0] = np.real(seeded[1, 1])
    total_rate = sum(rate for rate, _ in feeds)
    return total_rate * p_pop / flux**2
