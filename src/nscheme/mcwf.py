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
pairs. Each source inverts many draws at once: H_eff is only 4x4,
so the amplitudes are 4 exponentials through its eigendecomposition;
every draw is bracketed on a dense log-spaced survival table, started
from a cubic interpolation of the inverse and polished with
safeguarded Newton steps. One exponential per step gives the
populations, whose decay-weighted sum -<psi|Gamma|psi> is the slope,
and their time derivatives, which give the curvature: a step whose
next correction (curvature over twice the slope, times the step
squared) is negligible is accepted as the root, which most draws
reach after one evaluation, and the channel weights come from the
populations extrapolated along that step to the root. Each waiting
time is accurate to 1e-7 us; the polish stops far below that. All
trajectories of a call run in lockstep stacks, one row of uniforms
each. |S> inverts every pair of a stack's block; since a pair's
source is fixed by the previous pair's channel (P->D leaves |D>), only
the pairs that follow a P->D jump are inverted again, from |D>, for a
few rounds until no source changes. A block that needs more rounds
(sources that change from pair to pair) inverts |D> over the rest of
its unsettled rows and composes every pair's source map in
log2(block) steps, so no source inverts a pair twice. Jump times are
running sums along each row, and a trajectory stops at its first
waiting time past t_max.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator

import numpy as np

from .dynamics import PopulationTrace, _check_grid
from .errors import (LinewidthUnsupported, MotionUnsupported, NoJumps, NonPhysicalState,
                     ZeroFluorescence)
from .liouvillian import build_hamiltonian, build_superoperator
from .model import SystemConfig, level_index, require_integer
from .steady import steady_state

CHANNELS = ("P->S", "P->D", "Q->S")
_CHANNEL_NAMES = np.array(CHANNELS, dtype=object)
#: post-jump source ket of each channel
_CHANNEL_TARGET = ("S", "D", "S")
#: the same as an index into the sampler's sources (S, D, first); the
#: closed channel -1 ends its trajectory and reads the last entry, S
_TARGET_CODE = np.array([("S", "D").index(key) for key in _CHANNEL_TARGET])

#: survival table: t = 0 plus log-spaced points from 1e-7 us to t_max
_TABLE_POINTS = 2048
#: uniform pairs in a trajectory's first block; later blocks double up to
#: _MAX_BLOCK, so a short trajectory draws few more pairs than it uses
_FIRST_BLOCK = 32
_MAX_BLOCK = 1024
#: trajectories sampled in lockstep; bounds the block arrays to
#: _STACK x _MAX_BLOCK pairs
_STACK = 64
#: rounds of re-sampling changed sources before a block falls back to
#: inverting |D> over each unsettled row and composing the sources
_ROUNDS = 4
#: draws inverted per Newton pass; the pass holds ~20 arrays of this length
_INVERT_CHUNK = 4096
#: Newton polish accepts a step once the step, or the correction that
#: the curvature predicts after it, is this small relative to the root
#: (and that correction's survival residual this small relative to u);
#: bisection guarantees progress, _MAX_STEPS only bounds the loop
_STEP_RTOL = 1e-13
_MAX_STEPS = 100
#: largest n_traj (_FIRST_BLOCK + (gamma_P + gamma_Q) t_max) a request may ask
#: for. Each trajectory draws a first block of _FIRST_BLOCK pairs and emits at
#: most (gamma_P + gamma_Q) t_max photons on average; a record holds 16 bytes
#: per photon and about 32 x 16 bytes per trajectory. The 500 x 3000 us fig3a
#: ensemble comes to 2.1e8
TRAJECTORY_WORK_LIMIT = 5e8


@dataclasses.dataclass(frozen=True)
class TrajectoryRecord:
    """Jump times and channels of one trajectory.

    seed is (seed, i), the SeedSequence entropy of trajectory i of a
    request made with that seed.
    """

    seed: object
    t_max: float
    jump_times: np.ndarray
    jump_channels: tuple[str, ...]

    def __post_init__(self):
        t = np.asarray(self.jump_times, dtype=float)
        if t.size and np.any(np.diff(t) <= 0.0):
            raise NonPhysicalState("jump times must be strictly increasing")
        object.__setattr__(self, "jump_times", t)
        t.setflags(write=False)


class _Source:
    """No-jump evolution from one fixed start ket: amplitudes, survival, block sampling."""

    __slots__ = ("mu", "rates", "decay", "t_table", "coeffs", "coeffs_dot", "neg_surv", "inv_slope")

    def __init__(self, model: "_EffectiveModel", psi: np.ndarray):
        # the model's arrays, not the model: the model caches its sources, and
        # that cycle would keep dead models alive until a full collection
        self.mu, self.rates, self.decay, self.t_table = model.mu, model.rates, model.decay, model.t_table
        # psi(t) = V diag(exp(-i mu t)) V^-1 psi = coeffs @ exp(-i mu t)
        self.coeffs = (model.v * (model.v_inv @ psi)).T
        # d/dt of the decaying amplitudes, P and Q (the odd levels):
        # (-i mu exp(-i mu t)) @ coeffs_dot
        self.coeffs_dot = (-1j * self.mu)[:, None] * self.coeffs[:, 1::2]
        pops = self.populations(model.t_table)
        # survival is non-increasing, so its negation is sorted for searchsorted
        self.neg_surv = -pops.sum(axis=1)
        # a vanishing or subnormal decay rate gives an infinite slope; _invert
        # then starts from the linear guess
        with np.errstate(divide="ignore", over="ignore"):
            self.inv_slope = -1.0 / np.einsum("nk,k->n", pops, model.decay)

    def amplitudes(self, dt: np.ndarray) -> np.ndarray:
        """Unnormalized amplitudes at elapsed times dt, shape (n, 4)."""
        phase = np.multiply.outer(dt, -1j * self.mu)
        # einsum, though at one BLAS thread `@` is about 7x faster here (34 against
        # 230 us at (4096, 4) x (4, 4)): `@` changes the amplitudes' last bits, and
        # with them the sampled records, so the switch waits for a records tolerance
        return np.einsum("nk,kj->nj", np.exp(phase, out=phase), self.coeffs)

    def populations(self, dt: np.ndarray) -> np.ndarray:
        amps = self.amplitudes(dt)
        pops = amps.real**2
        pops += amps.imag**2
        return pops

    def populations_and_derivatives(self, dt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Populations at elapsed times dt, (n, 4), and the time derivatives
        of the decaying ones, P and Q, (n, 2); one exponential serves both."""
        rotor = np.exp(np.multiply.outer(dt, -1j * self.mu))
        amps = np.einsum("nk,kj->nj", rotor, self.coeffs)
        amps_dot = np.einsum("nk,kj->nj", rotor, self.coeffs_dot)
        pops = amps.real**2
        pops += amps.imag**2
        decaying = amps[:, 1::2]
        dpops = decaying.real * amps_dot.real
        dpops += decaying.imag * amps_dot.imag
        dpops *= 2.0
        return pops, dpops

    def sample(self, u_wait: np.ndarray, u_channel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
        hits = np.nonzero(j < self.neg_surv.size)[0]
        for start in range(0, hits.size, _INVERT_CHUNK):
            hit = hits[start:start + _INVERT_CHUNK]
            root, decaying = self._invert(u_wait[hit], np.maximum(j[hit], 1))
            wait[hit] = np.maximum(root, 1e-12)
            w = decaying[:, [0, 0, 1]] * self.rates
            total = w.sum(axis=1)
            pick = u_channel[hit] * total
            chosen = (pick >= w[:, 0]).astype(int) + (pick >= w[:, 0] + w[:, 1])
            channel[hit] = np.where(total > 0.0, chosen, -1)
        return wait, channel

    def _invert(self, u: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Roots of survival(t) = u inside the table brackets [t[j-1], t[j]].

        Newton steps on the exact survival f, whose slope f' is minus the
        decay rate -(gamma_P p_P + gamma_Q p_Q) and whose curvature f''
        comes from the populations' time derivatives. A step is accepted
        as the root once it is below _STEP_RTOL of the root, or once it
        lands inside the bracket with Newton's next correction, about
        |f''/(2 f')| step^2, that small and the survival residual it
        leaves, about |f''| step^2 / 2, below _STEP_RTOL of u; most
        draws accept their first step. A step that leaves the bracket,
        which shrinks around the root on every evaluation, is replaced
        by bisection. Also returns the P and Q populations at each root,
        extrapolated along the accepted step from the last evaluation
        and clipped at 0, shape (n, 2).
        """
        t = self.t_table
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
        decaying_at = np.empty((u.size, 2))
        active = np.arange(u.size)
        floor = 4.0 * np.finfo(float).eps * u
        # a vanishing decay rate gives an infinite or NaN step, whose square
        # may overflow; such a step is never accepted and bisection replaces it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(_MAX_STEPS):
                pops, dpops = self.populations_and_derivatives(x)
                f = pops.sum(axis=1) - u
                lo = np.where(f > 0.0, x, lo)
                hi = np.where(f > 0.0, hi, x)
                decay_rate = np.einsum("nk,k->n", pops, self.decay)
                step = np.where(np.abs(f) <= floor, 0.0, f / decay_rate)
                # survival residual that the step leaves, |f''| step^2 / 2, and
                # the distance to the root that it means, residual / |f'|
                residual = np.abs(0.5 * np.einsum("nk,k->n", dpops, self.decay[1::2])) * step * step
                x_next = x + step
                tol = _STEP_RTOL * x
                done = (np.abs(step) <= tol) | (
                    (residual <= _STEP_RTOL * u) & (residual <= tol * decay_rate) & (x_next > lo) & (x_next < hi))
                # every active row is written; a later pass overwrites those not done
                root[active] = x_next
                decaying_at[active] = np.maximum(pops[:, 1::2] + step[:, None] * dpops, 0.0)
                keep = ~done
                if not keep.any():
                    return root, decaying_at
                x, lo, hi = x_next[keep], lo[keep], hi[keep]
                u, floor, active = u[keep], floor[keep], active[keep]
                outside = ~((x > lo) & (x < hi))
                x[outside] = 0.5 * (lo[outside] + hi[outside])
        # bracket collapsed to rounding before a step fell below tolerance
        root[active] = x
        decaying_at[active] = self.populations(x)[:, 1::2]
        return root, decaying_at


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
        self._sources: dict[int, _Source] = {}

    def source(self, label: str) -> _Source:
        """Cached source for a level label; anything else raises UnknownLevel."""
        level = level_index(label)
        src = self._sources.get(level)
        if src is None:
            src = self._sources[level] = _Source(self, np.eye(4, dtype=complex)[level])
        return src


def _sample_records(model: _EffectiveModel, first: _Source, t_max: float, n_traj: int, seed: int):
    """The records of trajectories (seed, 0) .. (seed, n_traj - 1), all starting from first, in order.

    Trajectories run in lockstep stacks of at most _STACK, each sampled
    when its first record is taken, so the block arrays and the records
    held stay small however many trajectories are asked for.
    """
    for start in range(0, n_traj, _STACK):
        stop = min(start + _STACK, n_traj)
        yield from _run_stack(model, first, t_max, [(seed, i) for i in range(start, stop)])


def _run_stack(model: _EffectiveModel, first: _Source, t_max: float, seeds: list) -> list[TrajectoryRecord]:
    """One trajectory per seed, sampled in lockstep.

    Trajectory k draws its uniforms from SeedSequence(seeds[k]) in blocks
    of pairs (waiting time, channel): _FIRST_BLOCK pairs, then doubling
    up to _MAX_BLOCK; _sample_block samples each block from the pairs'
    true sources. Jump times are running sums from each trajectory's
    current time, and a trajectory leaves the stack at its first waiting
    time past t_max or closed channel.
    """
    sources = (model.source("S"), model.source("D"), first)
    rngs = [np.random.default_rng(np.random.SeedSequence(seed)) for seed in seeds]
    times: list[list] = [[] for _ in seeds]
    channels: list[list] = [[] for _ in seeds]
    live = np.arange(len(seeds))
    t_now = np.zeros(len(seeds))
    carry = np.full(len(seeds), sources.index(first))
    size = _FIRST_BLOCK
    while live.size:
        u = np.empty((live.size, 2 * size))
        for row, k in zip(u, live):
            rngs[k].random(out=row)
        wait, channel = _sample_block(sources, carry, u[:, 0::2], u[:, 1::2])
        # np.cumsum adds left to right, the order of a running t_now += dt
        clock = np.cumsum(np.concatenate((t_now[:, None], wait), axis=1), axis=1)
        stop = (wait > t_max - clock[:, :-1]) | (channel < 0)
        ends = np.where(stop.any(axis=1), stop.argmax(axis=1), size)
        for k, end, row_clock, row_channel in zip(live, ends, clock, channel):
            times[k].append(row_clock[1:end + 1])
            channels[k].append(row_channel[:end].astype(np.int8))
        going = ends == size
        live, t_now = live[going], clock[going, -1]
        carry = _TARGET_CODE[channel[going, -1]]
        size = min(2 * size, _MAX_BLOCK)
    return [
        TrajectoryRecord(
            seed=seed,
            t_max=float(t_max),
            jump_times=np.concatenate(t),
            jump_channels=tuple(_CHANNEL_NAMES[np.concatenate(c)].tolist()),
        )
        for seed, t, c in zip(seeds, times, channels)
    ]


def _sample_block(sources, carry: np.ndarray, u_wait: np.ndarray, u_channel: np.ndarray):
    """Waiting times and channels of one stacked block, each pair from its true source.

    Row r's first pair starts from sources[carry[r]] (S, D or the start
    ket); every later pair from the target of the previous pair's
    channel, so a pair follows a P->D jump exactly when it is D-sourced.
    |S> inverts every pair. Up to _ROUNDS rounds then take the pairs
    whose source changed from |D>, which inverts each pair at most once
    (its draws are kept), until no source changes. A block still
    unsettled after that, which takes many source changes in a row,
    inverts |D> over the rest of each unsettled row and reads every
    pair's source off _compose_sources. No source inverts a pair twice,
    so a block costs at most one |S> and one |D> inversion per pair.
    """
    rows, size = u_wait.shape
    s_wait, s_channel = (a.reshape(rows, size) for a in sources[0].sample(u_wait.ravel(), u_channel.ravel()))
    wait, channel = s_wait.copy(), s_channel.copy()
    for code in (1, 2):
        sel = carry == code
        if sel.any():
            wait[sel, 0], channel[sel, 0] = sources[code].sample(u_wait[sel, 0], u_channel[sel, 0])
    d_wait, d_channel = np.zeros_like(wait), np.zeros_like(channel)
    # pairs inverted from |D> so far, and the pairs (after the first) taken from |D>
    has_d = np.zeros((rows, size), dtype=bool)
    is_d = np.zeros((rows, size), dtype=bool)
    for attempt in range(_ROUNDS + 1):
        wanted = np.zeros_like(is_d)
        wanted[:, 1:] = _TARGET_CODE[channel[:, :-1]] == 1
        changed = wanted != is_d
        if not changed.any():
            break
        if attempt < _ROUNDS:
            need = wanted
        else:
            # a row is settled up to its first changed source; its tail is not
            first = np.where(changed.any(axis=1), changed.argmax(axis=1), size)
            need = tail = np.arange(size) >= first[:, None]
        need = need & ~has_d
        if need.any():
            d_wait[need], d_channel[need] = sources[1].sample(u_wait[need], u_channel[need])
            has_d |= need
        if attempt == _ROUNDS:
            wanted = _compose_sources(s_channel, d_channel, wanted, tail)
        is_d = wanted
        wait[:, 1:] = np.where(is_d[:, 1:], d_wait[:, 1:], s_wait[:, 1:])
        channel[:, 1:] = np.where(is_d[:, 1:], d_channel[:, 1:], s_channel[:, 1:])
    return wait, channel


def _compose_sources(s_channel: np.ndarray, d_channel: np.ndarray, wanted: np.ndarray, tail: np.ndarray):
    """Which pairs are D-sourced, from every pair's source map.

    Pair p maps its own source (S or D) to the next pair's: the target of
    the channel that source gives it. Before a row's tail the next
    source is already known (wanted), so those maps are constant; in the
    tail both channels are known. An inclusive scan composes the maps in
    log2(size) doubling steps; pair 0's map is constant, so the prefix
    up to pair p gives the source of pair p + 1.
    """
    # wanted[p + 1] in column p; the last pair's map is never read
    known = np.roll(wanted, -1, axis=1)
    from_s = np.where(tail, _TARGET_CODE[s_channel] == 1, known)
    from_d = np.where(tail, _TARGET_CODE[d_channel] == 1, known)
    step = 1
    while step < wanted.shape[1]:
        # prefix(p) = map(p .. p - step + 1) after prefix(p - step)
        from_s[:, step:], from_d[:, step:] = (
            np.where(from_s[:, :-step], from_d[:, step:], from_s[:, step:]),
            np.where(from_d[:, :-step], from_d[:, step:], from_s[:, step:]),
        )
        step *= 2
    is_d = np.zeros_like(wanted)
    is_d[:, 1:] = from_s[:, :-1]
    return is_d


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


def check_trajectory_request(config: SystemConfig, t_max: float, n_traj) -> int:
    """n_traj as an int, once a request for n_traj trajectories of t_max us is valid.

    Trajectories are carrier-only and have no dephasing channel; t_max
    must be finite and positive, n_traj an integer >= 1, and n_traj
    (_FIRST_BLOCK + (gamma_P + gamma_Q) t_max) at most
    TRAJECTORY_WORK_LIMIT, so the request finishes in bounded time and
    memory. It runs before any seed or record is made.
    """
    if config.motion.enabled:
        raise MotionUnsupported("trajectories are carrier-only; disable motion")
    if any(laser.linewidth > 0.0 for laser in (config.laser_b, config.laser_r, config.laser_c)):
        raise LinewidthUnsupported("trajectories have no dephasing channel; set every laser linewidth to 0")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise NonPhysicalState(f"trajectory length must be finite and positive, got {t_max!r}")
    count = require_integer(n_traj, "trajectory count", NonPhysicalState)
    if count < 1:
        raise NonPhysicalState("need at least one trajectory")
    rate = config.atom.gamma_p + config.atom.gamma_q
    if count > TRAJECTORY_WORK_LIMIT / (_FIRST_BLOCK + rate * t_max):  # an overflowing rate * t_max is inf
        raise NonPhysicalState(
            f"{count} trajectories of {t_max!r} us at up to {rate:.4g} photons/us exceed "
            f"n_traj ({_FIRST_BLOCK} + (gamma_P + gamma_Q) t_max) <= {TRAJECTORY_WORK_LIMIT:.0e}")
    return count


def _check_seed(seed) -> int:
    """seed as an int once it is a non-negative integer.

    SeedSequence refuses a negative seed too, but only once its
    trajectory's stack has started sampling.
    """
    number = require_integer(seed, "seed", NonPhysicalState)
    if number < 0:
        raise NonPhysicalState(f"seed must be a non-negative integer, got {seed!r}")
    return number


def _prepare(config: SystemConfig, psi0: str, t_max: float, n_traj, seed):
    """(model, first segment's source, n_traj as an int, seed as an int) of a checked trajectory request."""
    n_traj = check_trajectory_request(config, t_max, n_traj)
    seed = _check_seed(seed)
    model = _EffectiveModel(config, t_max)
    return model, model.source(psi0), n_traj, seed


def run_trajectories(config: SystemConfig, psi0: str, t_max: float, n_traj,
                     seed) -> Iterator[TrajectoryRecord]:
    """The records of n_traj quantum-jump trajectories of length t_max (us), sharing one H_eff model.

    psi0 is a level label. Trajectory i draws its random stream from
    numpy's SeedSequence((seed, i)), so every record is reproducible
    and independent of how many others are asked for. The request is
    checked when this is called: it must pass check_trajectory_request,
    and seed must be a non-negative integer (else NonPhysicalState).
    The records are then sampled lazily, one lockstep stack of at most
    _STACK trajectories at a time, as the iterator is advanced. Motion
    and laser linewidth are not part of the trajectory model.
    """
    model, first, n_traj, seed = _prepare(config, psi0, t_max, n_traj, seed)
    return _sample_records(model, first, t_max, n_traj, seed)


def ensemble_populations(config: SystemConfig, psi0: str, t_grid, n_traj, seed, *, return_records: bool = False):
    """Trajectory-averaged populations with per-point standard errors.

    The trajectories are those of run_trajectories(config, psi0,
    t_grid[-1], n_traj, seed), checked the same way before any is
    sampled. Returns a PopulationTrace; with return_records=True, a
    (trace, records) pair.
    """
    times = _check_grid(t_grid)
    t_max = float(times[-1])
    model, first, n_traj, seed = _prepare(config, psi0, t_max, n_traj, seed)

    total = np.zeros((times.size, 4))
    total_sq = np.zeros((times.size, 4))
    records = []
    for record in _sample_records(model, first, t_max, n_traj, seed):
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


def statistics_as_dict(stats: BrightDarkStats) -> dict:
    """The statistics as a JSON-ready dict; undefined (NaN) values become None."""

    def number(value: float):
        return value if math.isfinite(value) else None

    return {
        "mean_bright_photons": number(stats.mean_bright_photons),
        "se_bright_photons": number(stats.se_bright_photons),
        "mean_dark_duration_us": number(stats.mean_dark_duration),
        "se_dark_duration_us": number(stats.se_dark_duration),
        "n_bright": stats.n_bright,
        "n_dark": stats.n_dark,
        "dark_threshold_us": stats.threshold,
    }
