"""Quantum-jump trajectories: determinism, analytics, segmentation."""

import io
import json

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng
from scipy.optimize import brentq

from conftest import make_config, sup_of, with_linewidths
from nscheme.dynamics import evolve
from nscheme.errors import (LinewidthUnsupported, MotionUnsupported, NoJumps, NonPhysicalState,
                            ZeroFluorescence)
from nscheme.mcwf import (
    CHANNELS,
    JUMP_TIME_TOL,
    TrajectoryRecord,
    _basis_ket,
    _CHANNEL_TARGET,
    _EffectiveModel,
    bright_dark_statistics,
    default_dark_threshold,
    ensemble_populations,
    photon_records_to_csv,
    run_trajectories,
    run_trajectory,
    statistics_to_json,
)
from nscheme.model import pure_state


def test_trajectories_are_deterministic():
    c = make_config()
    a = run_trajectory(c, "S", 30.0, 42)
    b = run_trajectory(c, "S", 30.0, 42)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert a.jump_channels == b.jump_channels
    other = run_trajectory(c, "S", 30.0, 43)
    assert not np.array_equal(a.jump_times, other.jump_times)


def test_no_drive_no_jumps():
    c = make_config(ob=0.0, orr=0.0, oc=0.0, gq=0.0)
    rec = run_trajectory(c, "S", 100.0, 1)
    assert rec.jump_times.size == 0
    assert len(rec.jump_channels) == 0


def test_bare_metastable_decay_time_is_analytic():
    """One undriven decay: the jump time inverts the first uniform draw."""
    gamma = 0.05
    c = make_config(ob=0.0, orr=0.0, oc=0.0, gq=gamma)
    rec = run_trajectory(c, "Q", 400.0, 7)
    u0 = default_rng(SeedSequence(7)).random()
    assert rec.jump_times.size == 1
    assert tuple(rec.jump_channels) == ("Q->S",)
    assert rec.jump_times[0] == pytest.approx(-np.log(u0) / gamma, rel=1e-6)


def test_jump_times_sorted_and_in_range():
    c = make_config()
    rec = run_trajectory(c, "S", 40.0, 3)
    assert rec.jump_times.size > 50
    assert np.all(np.diff(rec.jump_times) > 0)
    assert rec.jump_times[0] > 0.0
    assert rec.jump_times[-1] <= 40.0
    assert set(rec.jump_channels) <= {"P->S", "P->D", "Q->S"}


def test_sampled_states_are_normalized():
    c = make_config()
    sample = np.linspace(0.0, 20.0, 11)
    rec = run_trajectory(c, "S", 20.0, 5, sample_times=sample)
    assert len(rec.sampled_states) == 11
    stamps = np.array([t for t, _ in rec.sampled_states])
    states = np.array([s for _, s in rec.sampled_states])
    assert np.array_equal(stamps, sample)
    assert states.shape == (11, 4)
    norms = np.linalg.norm(states, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9


def test_motion_unsupported():
    with pytest.raises(MotionUnsupported):
        run_trajectory(make_config(motion=True), "S", 1.0, 0)
    with pytest.raises(MotionUnsupported):
        ensemble_populations(make_config(motion=True), "S", np.linspace(0, 1, 2), 2, 0)


def test_linewidth_unsupported():
    c = with_linewidths(make_config(), 0.5)
    with pytest.raises(LinewidthUnsupported):
        run_trajectory(c, "S", 1.0, 0)
    with pytest.raises(LinewidthUnsupported):
        run_trajectories(c, "S", 1.0, [0])
    with pytest.raises(LinewidthUnsupported):
        ensemble_populations(c, "S", np.linspace(0, 1, 2), 2, 0)


@pytest.mark.parametrize("t_max", [0.0, -5.0, float("nan"), float("inf")])
def test_trajectory_length_must_be_finite_and_positive(t_max):
    with pytest.raises(NonPhysicalState):
        run_trajectory(make_config(), "S", t_max, 0)
    with pytest.raises(NonPhysicalState):
        run_trajectories(make_config(), "S", t_max, [0])


def test_trajectory_count_must_be_positive():
    with pytest.raises(NonPhysicalState):
        run_trajectories(make_config(), "S", 1.0, [])
    with pytest.raises(NonPhysicalState):
        ensemble_populations(make_config(), "S", np.linspace(0, 1, 2), 0, 0)


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
                            jump_channels=["P->S"] * times.size,
                            sampled_states=None)


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
                           jump_channels=[], sampled_states=None)
    with pytest.raises(NoJumps):
        bright_dark_statistics([rec], 1.0)


def test_photon_csv_format():
    c = make_config()
    rec = run_trajectory(c, "S", 5.0, 9)
    buf = io.StringIO()
    photon_records_to_csv([rec, rec], buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "trajectory_id,jump_time_us,channel"
    assert len(lines) == 1 + 2 * rec.jump_times.size
    tid, t, ch = lines[1].split(",")
    assert tid == "0"
    assert float(t) == pytest.approx(rec.jump_times[0])
    assert ch in ("P->S", "P->D", "Q->S")


def test_statistics_json_keys():
    stats = bright_dark_statistics([_synthetic_record()], 10.0)
    data = json.loads(statistics_to_json(stats))
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
    rec = run_trajectory(config, psi0, t_max, seed)
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
