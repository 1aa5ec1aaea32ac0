"""Quantum-jump (Monte-Carlo wave-function) trajectories.

Between jumps the state evolves under the non-Hermitian H_eff = H -
(i/2)(gamma_P |P><P| + gamma_Q |Q><Q|); the squared norm decays by
exactly the accumulated jump probability, so a waiting time is the
elapsed time at which the norm falls to a uniform draw. Every jump
projects onto |S> or |D> (global phase dropped; it never feeds back
into populations or jump statistics), so after the first segment each
waiting time and channel depends only on one of two fixed source kets
and that jump's pair of uniforms: the jump record is a Markov renewal
process. Trajectories are therefore sampled in blocks of uniform
pairs. Each source inverts a whole block at once: H_eff is only 4x4,
so the amplitudes are 4 exponentials through its eigendecomposition;
every draw is bracketed on a dense log-spaced survival table, started
from a cubic interpolation of the inverse and polished with
safeguarded Newton steps, whose slope -<psi|Gamma|psi> comes from the
same populations as the channel weights. A scalar pass then chains the
block by current source and stops at the first waiting time past t_max.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .dynamics import PopulationTrace, _check_grid
from .errors import (LinewidthUnsupported, MotionUnsupported, NoJumps, NonPhysicalState,
                     ZeroFluorescence)
from .liouvillian import build_hamiltonian, build_superoperator
from .model import SystemConfig, level_index
from .steady import steady_state

CHANNELS = ("P->S", "P->D", "Q->S")
#: post-jump source ket of each channel
_CHANNEL_TARGET = ("S", "D", "S")

#: accuracy bound on each waiting time, us (the Newton polish stops far below it)
JUMP_TIME_TOL = 1e-7

#: survival table: t = 0 plus log-spaced points from 1e-7 us to t_max
_TABLE_POINTS = 2048
#: uniform pairs in a trajectory's first block; later blocks double up to
#: _MAX_BLOCK, so a short trajectory draws few more pairs than it uses
_FIRST_BLOCK = 32
_MAX_BLOCK = 1024
#: Newton polish stops once a step is this small relative to the root;
#: bisection guarantees progress, _MAX_STEPS only bounds the loop
_STEP_RTOL = 1e-13
_MAX_STEPS = 100


@dataclasses.dataclass(frozen=True)
class TrajectoryRecord:
    """Jump times and channels of one trajectory.

    seed is whatever was passed to run_trajectory (an integer, or a
    (seed, index) tuple for ensemble members). sampled_states holds
    (time, normalized 4-amplitude) pairs when sampling was requested.
    """

    seed: object
    t_max: float
    jump_times: np.ndarray
    jump_channels: tuple[str, ...]
    sampled_states: list | None = None

    def __post_init__(self):
        t = np.asarray(self.jump_times, dtype=float)
        if t.size and np.any(np.diff(t) <= 0.0):
            raise NonPhysicalState("jump times must be strictly increasing")
        object.__setattr__(self, "jump_times", t)
        t.setflags(write=False)


class _Source:
    """No-jump evolution from one fixed start ket: amplitudes, survival, block sampling."""

    __slots__ = ("model", "coeffs", "neg_surv", "inv_slope")

    def __init__(self, model: "_EffectiveModel", psi: np.ndarray):
        self.model = model
        # psi(t) = V diag(exp(-i mu t)) V^-1 psi = coeffs @ exp(-i mu t)
        self.coeffs = (model.v * (model.v_inv @ psi)).T
        pops = self.populations(model.t_table)
        # survival is non-increasing, so its negation is sorted for searchsorted
        self.neg_surv = -pops.sum(axis=1)
        with np.errstate(divide="ignore"):
            self.inv_slope = -1.0 / np.einsum("nk,k->n", pops, model.decay)

    def amplitudes(self, dt: np.ndarray) -> np.ndarray:
        """Unnormalized amplitudes at elapsed times dt, shape (n, 4)."""
        # einsum rather than matmul: a threaded BLAS call on a k=4 product is
        # slower than the loop whenever another process holds a core
        return np.einsum("nk,kj->nj", np.exp(np.multiply.outer(dt, -1j * self.model.mu)), self.coeffs)

    def populations(self, dt: np.ndarray) -> np.ndarray:
        amps = self.amplitudes(dt)
        return amps.real**2 + amps.imag**2

    def sample(self, u_wait: np.ndarray, u_channel: np.ndarray) -> tuple[list, list]:
        """Waiting time and channel index for each pair of uniforms.

        The waiting time is where the squared norm first falls to
        u_wait, inf if it stays above u_wait up to the table's end
        (t_max). The channel is drawn from the decay weights at that
        time, -1 where no decay channel is open.
        """
        wait = np.full(u_wait.shape, np.inf)
        channel = np.full(u_wait.shape, -1)
        # first table point whose survival lies below u
        j = np.searchsorted(self.neg_surv, -u_wait, side="right")
        hit = np.nonzero(j < self.neg_surv.size)[0]
        if hit.size:
            root, pops = self._invert(u_wait[hit], np.maximum(j[hit], 1))
            wait[hit] = np.maximum(root, 1e-12)
            w = pops[:, [1, 1, 3]] * self.model.rates
            total = w.sum(axis=1)
            pick = u_channel[hit] * total
            chosen = (pick >= w[:, 0]).astype(int) + (pick >= w[:, 0] + w[:, 1])
            channel[hit] = np.where(total > 0.0, chosen, -1)
        return wait.tolist(), channel.tolist()

    def _invert(self, u: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Roots of survival(t) = u inside the table brackets [t[j-1], t[j]].

        Newton steps on the exact survival, whose slope is minus the
        decay rate -(gamma_P p_P + gamma_Q p_Q); a step that leaves the
        bracket, which shrinks around the root on every evaluation,
        is replaced by bisection. Also returns the populations at the
        last evaluation, within one converged step of each root.
        """
        t = self.model.t_table
        lo, hi = t[j - 1], t[j]
        s_lo, s_hi = -self.neg_surv[j - 1], -self.neg_surv[j]
        # first guess: cubic Hermite interpolation of the inverse t(s), using
        # dt/ds = 1/survival' at both ends; linear where a slope vanishes
        ds = s_hi - s_lo
        r = (u - s_lo) / ds
        x = lo + r * (hi - lo)
        with np.errstate(invalid="ignore"):
            cubic = ((2 * r - 3) * r * r + 1) * lo + (3 - 2 * r) * r * r * hi + r * (1 - r) * ds * (
                (1 - r) * self.inv_slope[j - 1] - r * self.inv_slope[j])
        inside = (cubic > lo) & (cubic < hi)
        x[inside] = cubic[inside]
        root = np.empty(u.size)
        pops_at = np.empty((u.size, 4))
        active = np.arange(u.size)
        floor = 4.0 * np.finfo(float).eps * u
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_MAX_STEPS):
                pops = self.populations(x)
                f = pops.sum(axis=1) - u
                lo = np.where(f > 0.0, x, lo)
                hi = np.where(f > 0.0, hi, x)
                step = np.where(np.abs(f) <= floor, 0.0, f / np.einsum("nk,k->n", pops, self.model.decay))
                done = np.abs(step) <= _STEP_RTOL * x
                root[active[done]] = (x + step)[done]
                pops_at[active[done]] = pops[done]
                keep = ~done
                if not keep.any():
                    return root, pops_at
                x, step, lo, hi = x[keep], step[keep], lo[keep], hi[keep]
                u, floor, active = u[keep], floor[keep], active[keep]
                x = x + step
                outside = ~((x > lo) & (x < hi))
                x[outside] = 0.5 * (lo[outside] + hi[outside])
        # bracket collapsed to rounding before a step fell below tolerance
        root[active] = x
        pops_at[active] = self.populations(x)
        return root, pops_at


class _EffectiveModel:
    """Eigendecomposition of H_eff plus lazily built per-source tables."""

    def __init__(self, config: SystemConfig, t_max: float):
        atom = config.atom
        h_eff = build_hamiltonian(config).h_total.astype(complex)
        h_eff[1, 1] -= 0.5j * atom.gamma_p
        h_eff[3, 3] -= 0.5j * atom.gamma_q
        self.mu, self.v = np.linalg.eig(h_eff)
        self.v_inv = np.linalg.inv(self.v)
        self.rates = np.array([atom.beta_ps * atom.gamma_p, atom.beta_pd * atom.gamma_p, atom.gamma_q])
        #: decay rate out of each level: d||psi||^2/dt = -pops @ decay
        self.decay = np.array([0.0, atom.gamma_p, 0.0, atom.gamma_q])
        self.t_table = np.concatenate(([0.0], np.geomspace(1e-7, max(t_max, 1e-6), _TABLE_POINTS)))
        self._sources: dict[str, _Source] = {}

    def source(self, key: str, psi: np.ndarray | None = None) -> _Source:
        """Cached source for a level label, or for psi under a custom key."""
        src = self._sources.get(key)
        if src is None:
            src = _Source(self, _basis_ket(key) if psi is None else psi)
            self._sources[key] = src
        return src


def _initial_vector(psi0) -> tuple[str, np.ndarray]:
    """Normalize psi0 to (cache key, 4-amplitude vector)."""
    if isinstance(psi0, str):
        return psi0.upper(), _basis_ket(psi0)
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (4,):
        raise NonPhysicalState(f"initial state must be a 4-amplitude vector, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise NonPhysicalState(f"initial state norm {norm:.12f} deviates from 1 by more than 1e-9")
    return "__init__", psi / norm


def _basis_ket(key: str) -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    psi[level_index(key)] = 1.0
    return psi


def _run_jumps(model: _EffectiveModel, source: _Source, t_max: float, rng) -> tuple[list, list]:
    """Jump times and channel indices of one trajectory starting from source.

    Uniforms come from rng in blocks of pairs (waiting time, channel),
    the same stream as one scalar draw per use. Blocks start small, so
    short trajectories stay cheap, and double up to _MAX_BLOCK.
    """
    targets = tuple(model.source(key) for key in _CHANNEL_TARGET)
    times: list[float] = []
    channels: list[int] = []
    t_now = 0.0
    size = _FIRST_BLOCK
    while True:
        u = rng.random(2 * size)
        drawn: dict[_Source, tuple[list, list]] = {}
        for i in range(size):
            block = drawn.get(source)
            if block is None:
                block = drawn[source] = source.sample(u[0::2], u[1::2])
            dt, channel = block[0][i], block[1][i]
            if dt > t_max - t_now or channel < 0:
                return times, channels
            t_now += dt
            times.append(t_now)
            channels.append(channel)
            source = targets[channel]
        size = min(2 * size, _MAX_BLOCK)


def _states_on_grid(model: _EffectiveModel, record: TrajectoryRecord, first: _Source, times: np.ndarray) -> np.ndarray:
    """Normalized amplitudes on a time grid, shape (n, 4)."""
    out = np.empty((times.size, 4), dtype=complex)
    seg_of = np.searchsorted(record.jump_times, times, side="right")
    starts = np.concatenate(([0.0], record.jump_times))
    for seg in np.unique(seg_of):
        sel = seg_of == seg
        source = first
        if seg:
            source = model.source(_CHANNEL_TARGET[CHANNELS.index(record.jump_channels[seg - 1])])
        amps = source.amplitudes(times[sel] - starts[seg])
        out[sel] = amps / np.linalg.norm(amps, axis=1, keepdims=True)
    return out


def _prepare(config: SystemConfig, psi0, t_max: float) -> tuple[_EffectiveModel, _Source]:
    """Validate a trajectory request; the shared model and the first segment's source."""
    if config.motion.enabled:
        raise MotionUnsupported("trajectories are carrier-only; disable motion")
    if any(laser.linewidth > 0.0 for laser in (config.laser_b, config.laser_r, config.laser_c)):
        raise LinewidthUnsupported("trajectories have no dephasing channel; set every laser linewidth to 0")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise NonPhysicalState(f"trajectory length must be finite and positive, got {t_max!r}")
    key, psi = _initial_vector(psi0)
    model = _EffectiveModel(config, t_max)
    return model, model.source(key, psi)


def _record(model: _EffectiveModel, first: _Source, t_max: float, seed) -> TrajectoryRecord:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    times, channels = _run_jumps(model, first, t_max, rng)
    return TrajectoryRecord(
        seed=seed,
        t_max=float(t_max),
        jump_times=np.asarray(times, dtype=float),
        jump_channels=tuple(CHANNELS[c] for c in channels),
    )


def run_trajectory(config: SystemConfig, psi0, t_max: float, seed, *, sample_times=None) -> TrajectoryRecord:
    """One quantum-jump trajectory of length t_max (us).

    psi0 is a level label or a normalized 4-amplitude vector. The
    random stream comes from numpy's SeedSequence of the seed value
    exactly as passed, so an integer and the tuple (base, index) used
    by ensembles are both reproducible addresses. Motion and laser
    linewidth are not part of the trajectory model.
    """
    model, first = _prepare(config, psi0, t_max)
    record = _record(model, first, t_max, seed)
    if sample_times is not None:
        grid = np.asarray(sample_times, dtype=float)
        states = _states_on_grid(model, record, first, grid)
        record = dataclasses.replace(record, sampled_states=[(float(t), s) for t, s in zip(grid, states)])
    return record


def run_trajectories(config: SystemConfig, psi0, t_max: float, seeds) -> list[TrajectoryRecord]:
    """One trajectory per seed, as run_trajectory gives it, sharing one H_eff model."""
    seeds = list(seeds)
    if not seeds:
        raise NonPhysicalState("need at least one trajectory")
    model, first = _prepare(config, psi0, t_max)
    return [_record(model, first, t_max, seed) for seed in seeds]


def ensemble_populations(config: SystemConfig, psi0, t_grid, n_traj: int, seed: int, *, return_records: bool = False):
    """Trajectory-averaged populations with per-point standard errors.

    Trajectory i draws its random stream from SeedSequence((seed, i)),
    so the ensemble is reproducible and independent of evaluation
    order. Returns a PopulationTrace; with return_records=True, a
    (trace, records) pair.
    """
    if n_traj < 1:
        raise NonPhysicalState("need at least one trajectory")
    times = _check_grid(t_grid)
    t_max = float(times[-1])
    model, first = _prepare(config, psi0, t_max)

    total = np.zeros((times.size, 4))
    total_sq = np.zeros((times.size, 4))
    records = []
    for i in range(n_traj):
        record = _record(model, first, t_max, (seed, i))
        pops = np.abs(_states_on_grid(model, record, first, times)) ** 2
        pops /= pops.sum(axis=1, keepdims=True)
        total += pops
        total_sq += pops**2
        if return_records:
            records.append(record)

    mean = total / n_traj
    if n_traj > 1:
        var = np.maximum(total_sq / n_traj - mean**2, 0.0) * n_traj / (n_traj - 1)
        std_err = np.sqrt(var / n_traj)
    else:
        std_err = np.zeros_like(mean)
    trace = PopulationTrace(times=times, populations=mean, standard_errors=std_err)
    return (trace, records) if return_records else trace


def default_dark_threshold(config: SystemConfig) -> float:
    """100x the mean inter-photon interval of the fluorescing state.

    The bright state is the steady state of the scheme with the weak
    C drive removed, which emits gamma_P P_P photons per us.
    """
    bare = dataclasses.replace(config, laser_c=dataclasses.replace(config.laser_c, rabi=0.0))
    rho = steady_state(build_superoperator(build_hamiltonian(bare).h_total, bare))
    rate = config.atom.gamma_p * rho.population("P")
    if rate <= 0.0:
        raise ZeroFluorescence("bright state does not fluoresce; no interval scale")
    return 100.0 / rate


@dataclasses.dataclass(frozen=True)
class BrightDarkStats:
    """Per-segment statistics of bright photon groups and dark gaps."""

    mean_bright_photons: float
    se_bright_photons: float
    mean_dark_duration: float
    se_dark_duration: float
    n_bright: int
    n_dark: int
    threshold: float


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return float("nan"), float("nan")
    if values.size == 1:
        return float(values[0]), float("nan")
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def bright_dark_statistics(records, dark_threshold: float) -> BrightDarkStats:
    """Segment photon records at gaps exceeding dark_threshold (us).

    Every maximal run of photons separated by gaps <= threshold
    counts as one bright period (including runs cut off by the record
    edges); every gap > threshold counts as one dark period of that
    gap's duration. Statistics pool all periods of all records; a mean
    over no period and a standard error over one are NaN. The
    threshold must be finite and positive.
    """
    if not (math.isfinite(dark_threshold) and dark_threshold > 0.0):
        raise NonPhysicalState(f"dark threshold must be finite and positive, got {dark_threshold!r}")
    bright_counts: list[int] = []
    dark_durations: list[float] = []
    total_jumps = 0
    for record in records:
        t = record.jump_times
        total_jumps += t.size
        if t.size == 0:
            continue
        gaps = np.diff(t)
        dark = gaps > dark_threshold
        dark_durations.extend(gaps[dark])
        # photons per maximal run between dark gaps
        edges = np.nonzero(dark)[0]
        bounds = np.concatenate(([0], edges + 1, [t.size]))
        bright_counts.extend(np.diff(bounds))
    if total_jumps == 0:
        raise NoJumps("no photons in any record")
    mb, seb = _mean_se(np.asarray(bright_counts, dtype=float))
    md, sed = _mean_se(np.asarray(dark_durations, dtype=float))
    return BrightDarkStats(
        mean_bright_photons=mb,
        se_bright_photons=seb,
        mean_dark_duration=md,
        se_dark_duration=sed,
        n_bright=len(bright_counts),
        n_dark=len(dark_durations),
        threshold=float(dark_threshold),
    )


def photon_records_to_csv(records, stream) -> None:
    """`trajectory_id,jump_time_us,channel` rows, one per photon."""
    stream.write("trajectory_id,jump_time_us,channel\n")
    for i, record in enumerate(records):
        for t, ch in zip(record.jump_times, record.jump_channels):
            stream.write("%d,%.12g,%s\n" % (i, t, ch))


def statistics_to_json(stats: BrightDarkStats) -> str:
    """The statistics as a JSON object; undefined (NaN) values become null."""

    def number(value: float):
        return value if math.isfinite(value) else None

    return json.dumps(
        {
            "mean_bright_photons": number(stats.mean_bright_photons),
            "se_bright_photons": number(stats.se_bright_photons),
            "mean_dark_duration_us": number(stats.mean_dark_duration),
            "se_dark_duration_us": number(stats.se_dark_duration),
            "n_bright": stats.n_bright,
            "n_dark": stats.n_dark,
            "dark_threshold_us": stats.threshold,
        },
        indent=2,
        sort_keys=True,
    )
