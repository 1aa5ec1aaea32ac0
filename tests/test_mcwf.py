"""Quantum-jump trajectories: determinism, analytics, segmentation."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence, default_rng
from scipy.optimize import brentq

from conftest import make_config, sup_of, with_linewidths
from nscheme.dynamics import evolve
from nscheme.errors import (LinewidthUnsupported, MotionUnsupported, NoJumps, NonPhysicalState,
                            ZeroFluorescence)
from nscheme import mcwf
from nscheme.cli import _load_config_arg, main
from nscheme.mcwf import (
    CHANNELS,
    TRAJECTORY_WORK_LIMIT,
    TrajectoryRecord,
    _basis_ket,
    _CHANNEL_TARGET,
    _EffectiveModel,
    _FIRST_BLOCK,
    _MAX_BLOCK,
    _prepare,
    _sample_block,
    _STACK,
    _TARGET_CODE,
    _states_on_grid,
    bright_dark_statistics,
    check_trajectory_request,
    default_dark_threshold,
    ensemble_populations,
    run_trajectories,
    statistics_as_dict,
)
from nscheme.model import AtomSpec, pure_state

#: accuracy bound on each waiting time, us, that the mcwf module docstring states
JUMP_TIME_TOL = 1e-7


def _trajectory(config, psi0, t_max, seed):
    """The one record of run_trajectories for a single seed."""
    (record,) = run_trajectories(config, psi0, t_max, [seed])
    return record


def test_trajectories_are_deterministic():
    c = make_config()
    a = _trajectory(c, "S", 30.0, 42)
    b = _trajectory(c, "S", 30.0, 42)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert a.jump_channels == b.jump_channels
    other = _trajectory(c, "S", 30.0, 43)
    assert not np.array_equal(a.jump_times, other.jump_times)


def test_no_drive_no_jumps():
    c = make_config(ob=0.0, orr=0.0, oc=0.0, gq=0.0)
    rec = _trajectory(c, "S", 100.0, 1)
    assert rec.jump_times.size == 0
    assert len(rec.jump_channels) == 0


def test_bare_metastable_decay_time_is_analytic():
    """One undriven decay: the jump time inverts the first uniform draw."""
    gamma = 0.05
    c = make_config(ob=0.0, orr=0.0, oc=0.0, gq=gamma)
    rec = _trajectory(c, "Q", 400.0, 7)
    u0 = default_rng(SeedSequence(7)).random()
    assert rec.jump_times.size == 1
    assert tuple(rec.jump_channels) == ("Q->S",)
    assert rec.jump_times[0] == pytest.approx(-np.log(u0) / gamma, rel=1e-6)


def test_jump_times_sorted_and_in_range():
    c = make_config()
    rec = _trajectory(c, "S", 40.0, 3)
    assert rec.jump_times.size > 50
    assert np.all(np.diff(rec.jump_times) > 0)
    assert rec.jump_times[0] > 0.0
    assert rec.jump_times[-1] <= 40.0
    assert set(rec.jump_channels) <= {"P->S", "P->D", "Q->S"}


def test_sampled_states_are_normalized():
    c = make_config()
    sample = np.linspace(0.0, 20.0, 11)
    model, first = _prepare(c, "S", 20.0)
    rec = _trajectory(c, "S", 20.0, 5)
    assert rec.jump_times.size > 0
    states = _states_on_grid(model, rec, first, sample)
    assert states.shape == (11, 4)
    norms = np.linalg.norm(states, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9


def test_motion_unsupported():
    with pytest.raises(MotionUnsupported):
        run_trajectories(make_config(motion=True), "S", 1.0, [0])
    with pytest.raises(MotionUnsupported):
        ensemble_populations(make_config(motion=True), "S", np.linspace(0, 1, 2), 2, 0)


def test_linewidth_unsupported():
    c = with_linewidths(make_config(), 0.5)
    with pytest.raises(LinewidthUnsupported):
        run_trajectories(c, "S", 1.0, [0])
    with pytest.raises(LinewidthUnsupported):
        ensemble_populations(c, "S", np.linspace(0, 1, 2), 2, 0)


@pytest.mark.parametrize("t_max", [0.0, -5.0, float("nan"), float("inf")])
def test_trajectory_length_must_be_finite_and_positive(t_max):
    with pytest.raises(NonPhysicalState):
        run_trajectories(make_config(), "S", t_max, [0])


def test_trajectory_count_must_be_positive():
    with pytest.raises(NonPhysicalState):
        run_trajectories(make_config(), "S", 1.0, [])
    with pytest.raises(NonPhysicalState):
        ensemble_populations(make_config(), "S", np.linspace(0, 1, 2), 0, 0)


@pytest.mark.parametrize("n_traj", [2.5, True, False, "3", None, np.float64(2.0)])
def test_trajectory_count_must_be_an_integer(n_traj):
    with pytest.raises(NonPhysicalState):
        ensemble_populations(make_config(), "S", np.linspace(0, 1, 2), n_traj, 0)


def test_trajectory_work_is_refused_before_any_seed_is_made():
    c = make_config()
    rate = c.atom.gamma_p + c.atom.gamma_q
    # the tier-1 ensemble (500 x 3000 us) fits; one trajectory more than the limit allows does not
    assert check_trajectory_request(c, 3000.0, 500) == 500
    most = int(TRAJECTORY_WORK_LIMIT / (_FIRST_BLOCK + rate * 20.0))
    assert check_trajectory_request(c, 20.0, most) == most
    with pytest.raises(NonPhysicalState, match=r"exceed n_traj \(32 \+ \(gamma_P \+ gamma_Q\) t_max\) <= 5e\+08"):
        check_trajectory_request(c, 20.0, most + 1)
    with pytest.raises(NonPhysicalState, match="exceed n_traj"):
        run_trajectories(c, "S", 1e9, [0])
    with pytest.raises(NonPhysicalState, match="exceed n_traj"):
        ensemble_populations(c, "S", np.linspace(0.0, 20.0, 3), 10**12, 0)
    with pytest.raises(NonPhysicalState, match="exceed n_traj"):
        check_trajectory_request(c, 1e-300, 10**400)  # n_traj past the float range
    with pytest.raises(NonPhysicalState, match="exceed n_traj"):
        check_trajectory_request(c, 1.7e308, 1)  # rate * t_max past the float range


def test_trajectory_count_accepts_numpy_integers():
    grid = np.linspace(0, 1, 2)
    a = ensemble_populations(make_config(), "S", grid, np.int64(2), 0)
    b = ensemble_populations(make_config(), "S", grid, 2, 0)
    assert np.array_equal(a.populations, b.populations)


@pytest.mark.parametrize("seed", [-1, (-1, 0), (3, -2), np.int64(-5)], ids=str)
def test_negative_seed_is_refused_before_sampling(seed, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampling started")

    monkeypatch.setattr(mcwf, "_sample_records", no_sampling)
    with pytest.raises(NonPhysicalState, match="non-negative"):
        run_trajectories(make_config(), "S", 5.0, [0, seed])
    if not isinstance(seed, tuple):
        with pytest.raises(NonPhysicalState, match="non-negative"):
            ensemble_populations(make_config(), "S", np.linspace(0.0, 5.0, 3), 2, seed)


def test_ensemble_tracks_master_equation():
    # Rare-jump components are missed entirely by a small sample, which
    # collapses the naive standard error; floor it at the binomial scale
    # of one event so the z-test stays meaningful.
    c = make_config()
    t_grid = np.linspace(0.0, 50.0, 11)
    n = 200
    trace = ensemble_populations(c, "S", t_grid, n, 2026)
    exact = evolve(sup_of(c), pure_state("S"), t_grid).populations
    se = np.maximum(trace.standard_errors, 1.0 / n)
    z = np.abs(trace.populations - exact) / se
    assert z.max() < 5.0


def test_ensemble_is_deterministic_per_seed():
    c = make_config()
    t_grid = np.linspace(0.0, 10.0, 3)
    a = ensemble_populations(c, "S", t_grid, 4, 11)
    b = ensemble_populations(c, "S", t_grid, 4, 11)
    assert np.array_equal(a.populations, b.populations)


def test_single_trajectory_ensemble_has_zero_errors():
    c = make_config()
    trace = ensemble_populations(c, "S", np.linspace(0.0, 5.0, 3), 1, 0)
    assert np.all(trace.standard_errors == 0.0)


def test_default_dark_threshold_frozen():
    thr = default_dark_threshold(make_config())
    assert thr == pytest.approx(12.542318043947526, rel=1e-9)


def test_default_dark_threshold_requires_fluorescence():
    # With the B drive off the bright manifold drains into S, so the
    # reference steady state emits nothing.
    with pytest.raises(ZeroFluorescence):
        default_dark_threshold(make_config(ob=0.0, orr=2.5, oc=0.05))


def _synthetic_record():
    # 1000 photons at 0.1 us spacing, a 1000 us gap, 1000 more photons
    first = 0.1 * np.arange(1000)
    second = first[-1] + 1000.0 + 0.1 * np.arange(1000)
    times = np.concatenate([first, second])
    return TrajectoryRecord(seed=0, t_max=float(times[-1]) + 1.0,
                            jump_times=times,
                            jump_channels=["P->S"] * times.size)


def test_bright_dark_segmentation():
    stats = bright_dark_statistics([_synthetic_record()], 10.0)
    assert stats.n_bright == 2
    assert stats.n_dark == 1
    assert stats.mean_bright_photons == pytest.approx(1000.0)
    assert stats.se_bright_photons == pytest.approx(0.0, abs=1e-9)
    assert stats.mean_dark_duration == pytest.approx(1000.0, rel=1e-9)
    assert stats.threshold == 10.0


def test_threshold_above_all_gaps_means_one_bright_period():
    stats = bright_dark_statistics([_synthetic_record()], 2000.0)
    assert stats.n_bright == 1
    assert stats.n_dark == 0
    assert stats.mean_bright_photons == pytest.approx(2000.0)


def test_statistics_require_photons():
    rec = TrajectoryRecord(seed=0, t_max=1.0, jump_times=np.array([]),
                           jump_channels=[])
    with pytest.raises(NoJumps):
        bright_dark_statistics([rec], 1.0)


def test_photon_csv_format(capsys):
    records = run_trajectories(_load_config_arg("fig3a"), "S", 5.0, [(9, 0), (9, 1)])
    assert main(["traj", "--config", "fig3a", "--t-max", "5", "--n-traj", "2", "--seed", "9"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "trajectory_id,jump_time_us,channel"
    assert len(lines) == 1 + sum(rec.jump_times.size for rec in records)
    tid, t, ch = lines[1].split(",")
    assert tid == "0"
    assert float(t) == pytest.approx(records[0].jump_times[0])
    assert ch in ("P->S", "P->D", "Q->S")
    assert lines[-1].split(",")[0] == "1"


def test_statistics_json_keys():
    stats = bright_dark_statistics([_synthetic_record()], 10.0)
    data = statistics_as_dict(stats)
    assert set(data) == {
        "mean_bright_photons", "se_bright_photons", "mean_dark_duration_us",
        "se_dark_duration_us", "n_bright", "n_dark", "dark_threshold_us",
    }


# -- oracle: the previous sampler, one brentq root per jump ----------------

class _OracleSource:
    """Survival as the 16-exponential sum, bracketed on a 512-point table."""

    def __init__(self, model, psi, t_max):
        self.a = model.v_inv @ psi
        gram = model.v.conj().T @ model.v
        # ||psi(t)||^2 = Re sum_jk conj(a_j) a_k (V+V)_jk exp(i(conj(mu_j)-mu_k) t)
        self.c = (np.outer(self.a.conj(), self.a) * gram).ravel()
        self.z = (1j * (model.mu.conj()[:, None] - model.mu[None, :])).ravel()
        self.t_table = np.concatenate(([0.0], np.geomspace(1e-7, max(t_max, 1e-6), 512)))
        self.surv = self.survival(self.t_table)

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        vals = np.real(np.exp(np.multiply.outer(t, self.z)) @ self.c)
        return vals if t.ndim else float(vals)

    def waiting_time(self, u, t_rem):
        if self.survival(t_rem) >= u:
            return None
        idx = int(np.searchsorted(-self.surv, -u, side="right"))
        lo = self.t_table[idx - 1] if idx > 0 else 0.0
        hi = min(self.t_table[idx], t_rem) if idx < self.t_table.size else t_rem
        return max(float(brentq(lambda t: self.survival(t) - u, lo, hi, xtol=JUMP_TIME_TOL)), 1e-12)


def _oracle_trajectory(config, psi0, t_max, seed):
    """Per-jump (source key, uniform, waiting time, channel) of the scalar sampler."""
    model = _EffectiveModel(config, t_max)
    sources = {key: _OracleSource(model, _basis_ket(key), t_max) for key in {psi0, "S", "D"}}
    rng = default_rng(SeedSequence(seed))
    key, t_now, jumps = psi0, 0.0, []
    while True:
        u = rng.random()
        src = sources[key]
        dt = src.waiting_time(u, t_max - t_now)
        if dt is None:
            break
        t_now += dt
        amps = model.v @ (src.a * np.exp(-1j * model.mu * dt))
        w = model.rates * np.abs(amps[[1, 1, 3]]) ** 2
        total = w.sum()
        if total <= 0.0:
            break
        pick = rng.random() * total
        channel = 0 if pick < w[0] else (1 if pick < w[0] + w[1] else 2)
        jumps.append((key, u, dt, channel))
        key = _CHANNEL_TARGET[channel]
    return model, sources, jumps


def _assert_matches_oracle(config, psi0, t_max, seed):
    model, sources, jumps = _oracle_trajectory(config, psi0, t_max, seed)
    rec = _trajectory(config, psi0, t_max, seed)
    assert rec.jump_channels == tuple(CHANNELS[ch] for _, _, _, ch in jumps)
    waits = np.array([dt for _, _, dt, _ in jumps])
    assert np.abs(np.diff(rec.jump_times, prepend=0.0) - waits).max(initial=0.0) < JUMP_TIME_TOL
    # the block sampler's own roots, per segment, solve survival(dt) = u
    for key in sources:
        mine = [(u, dt) for k, u, dt, _ in jumps if k == key]
        if not mine:
            continue
        u = np.array([m[0] for m in mine])
        wait, _ = model.source(key).sample(u, np.zeros_like(u))
        assert np.abs(np.array(wait) - [m[1] for m in mine]).max() < JUMP_TIME_TOL
        assert np.abs(sources[key].survival(np.array(wait)) - u).max() < 1e-12
    return rec


@pytest.mark.parametrize("seed", [(1, 0), (20260819, 1)])
def test_block_sampler_matches_scalar_oracle(seed):
    # make_config() is the fig3a working point
    rec = _assert_matches_oracle(make_config(), "S", 60.0, seed)
    assert rec.jump_times.size > 100
    assert "P->D" in rec.jump_channels


def test_block_sampler_matches_oracle_over_several_blocks():
    rec = _assert_matches_oracle(make_config(), "S", 200.0, 7)
    assert rec.jump_times.size > 32 + 64 + 128 + 256


def test_block_sampler_matches_oracle_on_one_jump():
    rec = _assert_matches_oracle(make_config(ob=0.0, orr=0.0, oc=0.0, gq=0.05), "Q", 400.0, 7)
    assert rec.jump_channels == ("Q->S",)


# -- oracle: the per-jump chain the stacked sampler replaced ---------------

def _chain_record(model, source, t_max, seed):
    """One trajectory chained jump by jump from the sampler's own blocks.

    Each block of uniform pairs is inverted whole per source, then a
    scalar pass walks it, adding each waiting time to a running clock.
    """
    targets = tuple(model.source(key) for key in _CHANNEL_TARGET)
    rng = default_rng(SeedSequence(seed))
    times, channels = [], []
    t_now, size = 0.0, _FIRST_BLOCK
    while True:
        u = rng.random(2 * size)
        drawn = {}
        for i in range(size):
            block = drawn.get(source)
            if block is None:
                block = drawn[source] = tuple(a.tolist() for a in source.sample(u[0::2], u[1::2]))
            dt, channel = block[0][i], block[1][i]
            if dt > t_max - t_now or channel < 0:
                return TrajectoryRecord(seed=seed, t_max=float(t_max), jump_times=np.asarray(times, dtype=float),
                                        jump_channels=tuple(CHANNELS[c] for c in channels))
            t_now += dt
            times.append(t_now)
            channels.append(channel)
            source = targets[channel]
        size = min(2 * size, _MAX_BLOCK)


def _assert_records_equal(records, expected):
    assert len(records) == len(expected)
    for rec, ref in zip(records, expected):
        assert rec.seed == ref.seed
        assert np.array_equal(rec.jump_times, ref.jump_times)
        assert rec.jump_channels == ref.jump_channels


# a normalized superposition of S and Q, sampled from its own source
_MIXED = np.array([0.6, 0.0, 0.0, 0.8j])


@pytest.mark.parametrize("psi0", ["S", "P", "D", "Q", _MIXED], ids=["S", "P", "D", "Q", "vector"])
@pytest.mark.parametrize("t_max", [2.0, 600.0])
def test_stacked_sampler_equals_chain(psi0, t_max):
    # a fast metastable decay, so that starts in Q jump within t_max
    config = make_config(gq=0.05)
    model, first = _prepare(config, psi0, t_max)
    seeds = [(3, i) for i in range(3)]
    expected = [_chain_record(model, first, t_max, seed) for seed in seeds]
    _assert_records_equal(run_trajectories(config, psi0, t_max, seeds), expected)
    sizes = [rec.jump_times.size for rec in expected]
    if t_max < 10.0:
        assert max(sizes) < _FIRST_BLOCK
    else:
        # past six blocks: 32 + 64 + ... + 1024 pairs
        assert min(sizes) > _FIRST_BLOCK * (2 ** 6 - 1)


def test_stacked_sampler_equals_chain_when_sources_cascade():
    # A strong C drive and a fast Q decay let a pair re-sampled from |D>
    # pick another channel than it did from |S>; that moves the source of
    # the next pair, so blocks take several rounds to settle.
    config = make_config(oc=5.0, gq=5.0)
    model, first = _prepare(config, "S", 100.0)
    seeds = [(1, i) for i in range(3)]
    expected = [_chain_record(model, first, 100.0, seed) for seed in seeds]
    _assert_records_equal(run_trajectories(config, "S", 100.0, seeds), expected)
    assert all("Q->S" in rec.jump_channels for rec in expected)


def _alternating_config():
    # Every S-sourced pair jumps P->D; D is dark (no R drive), so every
    # D-sourced pair closes and hands the next pair back to S: within a
    # block the sources alternate from one pair to the next.
    config = make_config(orr=0.0, oc=0.0)
    return dataclasses.replace(config, atom=dataclasses.replace(config.atom, beta_ps=0.0, beta_pd=1.0))


def test_block_sampler_settles_alternating_sources_at_one_inversion_per_pair(monkeypatch):
    model, first = _prepare(_alternating_config(), _MIXED, 50.0)
    sources = (model.source("S"), model.source("D"), first)
    rows, size = 4, _MAX_BLOCK
    u = default_rng(SeedSequence(9)).random((rows, 2 * size))
    u_wait, u_channel = u[:, 0::2], u[:, 1::2]
    carry = np.array([0, 1, 2, 0])
    # oracle: every source inverts the whole block, a scalar walk picks pairs
    drawn = [[a.reshape(rows, size) for a in src.sample(u_wait.ravel(), u_channel.ravel())] for src in sources]
    expected_wait, expected_channel = np.empty((rows, size)), np.empty((rows, size), dtype=int)
    for r in range(rows):
        code = carry[r]
        for p in range(size):
            expected_wait[r, p], expected_channel[r, p] = drawn[code][0][r, p], drawn[code][1][r, p]
            code = _TARGET_CODE[expected_channel[r, p]]

    draws = {id(src): 0 for src in sources}
    sample = mcwf._Source.sample

    def counted(self, u_wait, u_channel):
        draws[id(self)] += u_wait.size
        return sample(self, u_wait, u_channel)

    monkeypatch.setattr(mcwf._Source, "sample", counted)
    wait, channel = _sample_block(sources, carry, u_wait, u_channel)
    assert np.array_equal(wait, expected_wait)
    assert np.array_equal(channel, expected_channel)
    # the sources really alternate, so round-by-round settling would take
    # one round per pair
    assert np.count_nonzero(np.diff(_TARGET_CODE[channel[:, 1:]], axis=1)) > rows * (size - 4)
    # no pair is inverted twice by a source: linear in the block, not quadratic
    assert draws[id(sources[0])] == rows * size
    assert draws[id(sources[1])] <= rows * size
    assert draws[id(sources[2])] == np.count_nonzero(carry == 2)


def test_stacked_sampler_equals_chain_when_sources_alternate():
    config = _alternating_config()
    model, first = _prepare(config, "S", 50.0)
    seeds = [(5, i) for i in range(3)]
    expected = [_chain_record(model, first, 50.0, seed) for seed in seeds]
    _assert_records_equal(run_trajectories(config, "S", 50.0, seeds), expected)
    assert all(rec.jump_channels == ("P->D",) for rec in expected)


def test_sources_build_without_warnings():
    # a decay rate that underflows at the end of a long survival table
    # used to overflow the inverse slope with a RuntimeWarning
    model, _ = _prepare(make_config(oc=5.0, gq=5.0), "S", 3000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model.source("D")


@pytest.mark.parametrize("n_traj", [1, 70])
def test_stacked_sampler_equals_chain_per_trajectory_count(n_traj):
    config = make_config()
    model, first = _prepare(config, _MIXED, 60.0)
    seeds = [(11, i) for i in range(n_traj)]
    expected = [_chain_record(model, first, 60.0, seed) for seed in seeds]
    assert n_traj == 1 or n_traj > _STACK
    _assert_records_equal(run_trajectories(config, _MIXED, 60.0, seeds), expected)


def test_ensemble_equals_chain_built_ensemble():
    config = make_config()  # fig3a
    grid = np.linspace(0.0, 300.0, 31)
    n_traj, seed = 70, 4
    trace, records = ensemble_populations(config, "S", grid, n_traj, seed, return_records=True)

    model, first = _prepare(config, "S", float(grid[-1]))
    expected = [_chain_record(model, first, float(grid[-1]), (seed, i)) for i in range(n_traj)]
    _assert_records_equal(records, expected)
    total = np.zeros((grid.size, 4))
    total_sq = np.zeros((grid.size, 4))
    for record in expected:
        pops = np.abs(_states_on_grid(model, record, first, grid)) ** 2
        pops /= pops.sum(axis=1, keepdims=True)
        total += pops
        total_sq += pops**2
    mean = total / n_traj
    var = np.maximum(total_sq / n_traj - mean**2, 0.0) * n_traj / (n_traj - 1)
    assert np.array_equal(trace.populations, mean)
    assert np.array_equal(trace.standard_errors, np.sqrt(var / n_traj))


# -- accuracy: the sampler against Newton run until its step is exactly 0 --

def _newton_sample(source, u_wait, u_channel):
    """Waiting times and channels by bracketed Newton until every step is 0.

    Starts from the table bracket's midpoint; a step is 0 once the
    survival is within the sampler's rounding floor 4 eps u of u. A draw
    whose iterate keeps moving (rounding noise above the floor) stops at
    100 steps. The channel is drawn as the sampler draws it, from the
    populations at the root.
    """
    wait = np.full(u_wait.shape, np.inf)
    channel = np.full(u_wait.shape, -1)
    j = np.searchsorted(source.neg_surv, -u_wait, side="right")
    hit = np.nonzero(j < source.neg_surv.size)[0]
    u, j = u_wait[hit], j[hit]
    lo, hi = source.t_table[j - 1], source.t_table[j]
    x = 0.5 * (lo + hi)
    floor = 4.0 * np.finfo(float).eps * u
    moving = np.arange(hit.size)
    for _ in range(100):
        pops = source.populations(x[moving])
        f = pops.sum(axis=1) - u[moving]
        lo[moving] = np.where(f > 0.0, x[moving], lo[moving])
        hi[moving] = np.where(f > 0.0, hi[moving], x[moving])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(np.abs(f) <= floor[moving], 0.0, f / (pops @ source.decay))
        nxt = x[moving] + step
        outside = ~((nxt >= lo[moving]) & (nxt <= hi[moving]))
        nxt[outside] = 0.5 * (lo[moving] + hi[moving])[outside]
        still = nxt != x[moving]
        x[moving] = nxt
        moving = moving[still]
        if not moving.size:
            break
    pops = source.populations(x)
    w = pops[:, [1, 1, 3]] * source.rates
    total = w.sum(axis=1)
    pick = u_channel[hit] * total
    chosen = (pick >= w[:, 0]).astype(int) + (pick >= w[:, 0] + w[:, 1])
    wait[hit] = np.maximum(x, 1e-12)
    channel[hit] = np.where(total > 0.0, chosen, -1)
    return wait, channel


def _survival_residual(source, wait, u):
    """|survival(wait) - u| / u at the finite waits."""
    finite = np.isfinite(wait)
    return np.abs(source.populations(wait[finite]).sum(axis=1) - u[finite]) / u[finite]


@pytest.mark.parametrize("cascade", [False, True], ids=["fig3a", "cascade"])
@pytest.mark.parametrize("key", ["S", "D"])
def test_sampler_matches_newton_run_to_a_zero_step(cascade, key):
    config = make_config(oc=5.0, gq=5.0) if cascade else make_config()
    model, _ = _prepare(config, "S", 3000.0)
    source = model.source(key)
    u_wait, u_channel = default_rng(SeedSequence(3)).random((2, 100_000))
    wait, channel = source.sample(u_wait, u_channel)
    ref_wait, ref_channel = _newton_sample(source, u_wait, u_channel)
    assert np.array_equal(channel, ref_channel)
    assert np.array_equal(np.isinf(wait), np.isinf(ref_wait))
    finite = np.isfinite(ref_wait)
    assert np.count_nonzero(finite) > 99_000
    assert _survival_residual(source, wait, u_wait).max() <= 1e-12
    # where the survival is flat to rounding (u near 1) a root is only fixed
    # to within the rounding floor over the slope; elsewhere to 1e-12
    w, ref, u = wait[finite], ref_wait[finite], u_wait[finite]
    flat = 8.0 * np.finfo(float).eps * u / (source.populations(ref) @ source.decay)
    assert np.all(np.abs(w - ref) <= 1e-12 * ref + flat)


def test_sampler_takes_about_one_evaluation_per_draw(monkeypatch):
    counts = {"draws": 0, "evaluations": 0}
    invert, evaluate = mcwf._Source._invert, mcwf._Source.populations_and_derivatives

    def counted_invert(self, u, j):
        counts["draws"] += u.size
        return invert(self, u, j)

    def counted_evaluate(self, dt):
        counts["evaluations"] += dt.size
        return evaluate(self, dt)

    monkeypatch.setattr(mcwf._Source, "_invert", counted_invert)
    monkeypatch.setattr(mcwf._Source, "populations_and_derivatives", counted_evaluate)
    records = run_trajectories(make_config(), "S", 1000.0, [(2, i) for i in range(4)])
    assert sum(rec.jump_times.size for rec in records) > 10_000
    assert counts["draws"] > 10_000
    assert counts["evaluations"] <= 1.1 * counts["draws"]


_RATES = st.one_of(st.floats(min_value=1e-6, max_value=1e3), st.sampled_from([1e-6, 1e3]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rabi=st.tuples(_RATES, _RATES, _RATES), detuning=st.tuples(_RATES, _RATES, _RATES),
       gamma_p=_RATES, gamma_q=st.one_of(st.just(0.0), _RATES), t_max=st.sampled_from([1.0, 3000.0]))
def test_sampler_draws_are_valid_at_any_rates(rabi, detuning, gamma_p, gamma_q, t_max):
    config = make_config()
    config = dataclasses.replace(
        config,
        laser_b=dataclasses.replace(config.laser_b, rabi=rabi[0], detuning=detuning[0]),
        laser_r=dataclasses.replace(config.laser_r, rabi=rabi[1], detuning=detuning[1]),
        laser_c=dataclasses.replace(config.laser_c, rabi=rabi[2], detuning=detuning[2]),
        atom=AtomSpec(gamma_p=gamma_p, gamma_q=gamma_q),
    )
    u_wait, u_channel = default_rng(SeedSequence(17)).random((2, 2000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, _ = _prepare(config, "S", t_max)
        for key in ("S", "D"):
            source = model.source(key)
            wait, channel = source.sample(u_wait, u_channel)
            assert np.all((wait > 0.0) & ~np.isnan(wait))
            assert set(np.unique(channel).tolist()) <= {-1, 0, 1, 2}
            assert np.all(channel[np.isinf(wait)] == -1)
            assert _survival_residual(source, wait, u_wait).max(initial=0.0) <= 1e-12
