"""Motional-sideband steady states from the block-tridiagonal expansion."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from conftest import (OSC_AMPLITUDE_NM, SLOTS, build_floquet_generator, floquet_lower_ratios, in_slots, make_config,
                      solve_floquet_blocks, sup_of, two_plus_one, with_linewidths)
from nscheme import floquet, scan
from nscheme.errors import ConfigError, DegenerateKernel, MotionDisabled, NoConvergence, TruncationNotConverged
from nscheme.floquet import SOLVE_TRUNCATION_TOL, _truncation_delta, solve_floquet_steady
from nscheme.liouvillian import commutator_stack, hamiltonian_stack, superoperator_stack, vec
from nscheme.model import _COLUMN, _TABLE_FIELDS, TWO_PI, ParamTable, _resolve_path
from nscheme.scan import ScanSpec
from nscheme.steady import steady_state

# counter-propagating oscillating-ion point, order 2, solved once and pinned
PQ_COUNTER_OSC = 0.9075893082612181


def _with_amplitude(c, amp):
    return dataclasses.replace(c, motion=dataclasses.replace(c.motion, amplitude=amp))


def test_zero_amplitude_reduces_to_carrier():
    c = _with_amplitude(make_config(motion=True, counter=True), 0.0)
    fb = solve_floquet_steady(c, 2)
    rho_ss = steady_state(sup_of(c))
    assert np.abs(fb.block(0) - rho_ss.matrix).max() < 1e-10
    assert np.abs(fb.block(1)).max() == 0.0
    assert np.abs(fb.block(-2)).max() == 0.0


SIDEBAND_CONFIGS = [
    make_config(motion=True, counter=True),   # fig6_counter
    make_config(motion=True),                 # fig6_co
    two_plus_one(motion=True, counter=True),  # criterion 8's sideband point
    with_linewidths(make_config(motion=True, counter=True), 0.3),  # laser dephasing
    make_config(motion=True, counter=True, gq=0.0),
    # strong modulation: x8 fails the truncation gate, so the solves below skip it
    make_config(motion=True, counter=True, amp=3 * OSC_AMPLITUDE_NM),
    make_config(motion=True, counter=True, amp=8 * OSC_AMPLITUDE_NM),
]
SIDEBAND_IDS = ["counter", "co", "two_plus_one", "linewidths", "gq0", "counter_x3", "counter_x8"]


@pytest.mark.parametrize("config", SIDEBAND_CONFIGS, ids=SIDEBAND_IDS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_continued_fraction_matches_block_solve(config, order):
    fb = solve_floquet_steady(config, order, check_truncation=False)
    gen = build_floquet_generator(config, order)
    x, _ = solve_floquet_blocks(gen, order)
    refs = {n: x[16 * (n + order):16 * (n + order + 1)].reshape((4, 4), order="F")
            for n in range(-order, order + 1)}
    for n in range(-order, order + 1):
        # criterion 10 on the oracle itself: its lower harmonics are solved, not mirrored
        assert np.abs(refs[-n] - refs[n].conj().T).max() < 1e-12
        assert np.abs(fb.block(n) - refs[n]).max() < 1e-12
    returned = np.concatenate([fb.block(n).flatten(order="F") for n in range(-order, order + 1)])
    assert np.abs(gen @ returned).max() < 1e-9


@pytest.mark.parametrize("config", SIDEBAND_CONFIGS, ids=SIDEBAND_IDS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_lower_ratios_are_mirrored_upper_ratios(config, order):
    # M0 and C are real, so the lower ratios are the conjugate upper ones
    table = ParamTable.of([config])
    parts = hamiltonian_stack(table)
    m0 = superoperator_stack(parts.h_total, table)
    shift = -1j * table.trap_frequency[:, None]  # -i nu on the diagonal
    upper = floquet._fraction(m0, commutator_stack(parts.h_side), shift, order)
    for s_n, t_n in zip(upper, floquet_lower_ratios(config, order)):
        assert np.abs(s_n[0].conj() - in_slots(t_n)).max() < 1e-14


@pytest.mark.parametrize("config", SIDEBAND_CONFIGS, ids=SIDEBAND_IDS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_the_stack_returns_the_upper_blocks_and_the_lower_ones_are_mirrored(config, order):
    blocks, _, _, errors = floquet.solve_floquet_stack(ParamTable.of([config]), order)
    assert blocks.shape == (1, order + 1, 4, 4) and errors == [None]
    fb = floquet._solve(config, order)
    assert sorted(fb.blocks) == list(range(-order, order + 1))
    for n in range(order + 1):
        assert fb.block(n).tobytes() == blocks[0, n].tobytes()
    for n in range(1, order + 1):
        assert fb.block(-n).tobytes() == blocks[0, n].conj().T.tobytes()
    assert blocks[0, 0].tobytes() == solve_floquet_steady(config, order, check_truncation=False).block(0).tobytes()


def _vec(matrix):
    return vec(np.asarray(matrix, dtype=complex))


_NO_COUPLING = np.zeros((32, 16))
# the first 16 rows of [M0, C] transposed are M0^T: with M0 = 1 and C = 0, row 0 is x_0 itself
_UNIT_M0 = np.vstack([np.eye(16), np.zeros((16, 16))])
# each gate: (error, message, the failing point's x_0 up to a factor, its [M0, C] transposed)
_GATES = {
    "overflow": (NoConvergence, "Floquet solution overflowed", np.full(16, np.inf), _NO_COUPLING),
    "vanishing_trace": (DegenerateKernel, "Floquet solution has vanishing trace",
                        _vec([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]), _NO_COUPLING),
    "residual": (NoConvergence, "Floquet residual 2.500e-01 exceeds 1e-09", _vec(np.eye(4)), _UNIT_M0),
    "eigenvalue": (NoConvergence, "rho(0) eigenvalue -5.000e-01 below -1e-8",
                   _vec(np.diag([1.5, -0.5, 0.0, 0.0])), _NO_COUPLING),
}


@pytest.mark.parametrize("gate", sorted(_GATES))
def test_each_gate_fails_its_point_on_both_routes(monkeypatch, gate):
    error, message, x_0, coupling_t = _GATES[gate]
    order, points, target = 1, 16, 5
    column = _COLUMN["motion", "trap_frequency"]
    base = ParamTable.of([make_config(motion=True, counter=True)]).data[0]
    data = np.repeat(base[None], points, axis=0)
    data[:, column] *= np.linspace(0.8, 1.2, points)
    table = ParamTable(data)
    spec = ScanSpec("motion.trap_frequency_mhz", 1.0, 2.0, points, solver="floquet", floquet_order=order)
    pencil = floquet.floquet_pencil(table, column, order)
    assert pencil.solve(table)[3].all()
    verdict, target_shift = floquet._verdict, -1j * table.trap_frequency[target]

    def crafted(x, coupling, shift, upper=()):
        # the target point's blocks and generators are replaced before the shared verdict sees them
        hit = shift[:, 0] == target_shift
        x, coupling = x.copy(), coupling.copy()
        x[hit] = 0.0
        x[hit, 0] = x_0
        coupling[hit] = coupling_t
        return verdict(x, coupling, shift, [np.where(hit[:, None, None], 0.0, s_n) for s_n in upper])

    monkeypatch.setattr(floquet, "_verdict", crafted)
    others = np.arange(points) != target
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks, res, pairing, errors = floquet.solve_floquet_stack(table, order)
        pops, pencil_res, _, solved = pencil.solve(table)
        flags, by_pencil = scan._solve_block(table, spec, pencil)[3:]
    # the continued fraction
    assert type(errors[target]) is error and str(errors[target]) == message
    assert errors[:target] + errors[target + 1:] == [None] * (points - 1)
    assert np.isnan(blocks[target]).all() and np.isnan([res[target], pairing[target]]).all()
    assert np.isfinite(blocks[others]).all()
    # the pencil leaves the point to the continued fraction, which gives it the same verdict
    assert np.array_equal(solved, others) and np.isnan(pops[target]).all() and np.isnan(pencil_res[target])
    assert np.array_equal(by_pencil, others)
    assert flags == ["" if i != target else error.__name__ for i in range(points)]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_one_solve_per_ratio_and_one_for_the_kernel(monkeypatch, order):
    base = make_config(motion=True, counter=True)
    configs = [dataclasses.replace(base, laser_r=dataclasses.replace(base.laser_r, detuning=d))
               for d in np.linspace(10.0, 25.0, 8)]
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    _, _, _, errors = floquet.solve_floquet_stack(ParamTable.of(configs), order)
    assert errors == [None] * len(configs)
    assert calls == [(len(configs), 16, 16)] * (order + 1)


def test_generator_dimensions():
    c = make_config(motion=True, counter=True)
    assert build_floquet_generator(c, 1).shape == (48, 48)
    assert build_floquet_generator(c, 3).shape == (112, 112)


def test_block_structure_invariants():
    c = make_config(motion=True, counter=True)
    fb = solve_floquet_steady(c, 2)
    assert fb.order == 2
    assert sorted(fb.blocks) == [-2, -1, 0, 1, 2]
    assert fb.pairing_defect < 1e-10
    for n in range(-2, 3):
        # the lower blocks are the mirrored upper ones, rho(-n) = rho(n)+ exactly
        assert np.array_equal(fb.block(-n), fb.block(n).conj().T)
    assert np.trace(fb.block(0)).real == pytest.approx(1.0, abs=1e-10)
    assert abs(np.trace(fb.block(1))) < 1e-10
    assert abs(np.trace(fb.block(2))) < 1e-10
    assert fb.populations[3] == pytest.approx(PQ_COUNTER_OSC, abs=1e-9)
    assert fb.residual < 1e-9


def test_mirror_symmetry_under_direction_flip():
    """Reversing every beam is the parity map x -> -x."""
    c = make_config(motion=True, counter=True)
    flipped = dataclasses.replace(
        c,
        laser_b=dataclasses.replace(c.laser_b, direction=-c.laser_b.direction),
        laser_r=dataclasses.replace(c.laser_r, direction=-c.laser_r.direction),
        laser_c=dataclasses.replace(c.laser_c, direction=-c.laser_c.direction),
    )
    fa = solve_floquet_steady(c, 2)
    fbk = solve_floquet_steady(flipped, 2)
    assert np.abs(fa.block(0) - fbk.block(0)).max() < 1e-10
    assert np.abs(fa.block(1) + fbk.block(1)).max() < 1e-10


def test_first_harmonic_linear_in_amplitude():
    # Linear response needs small modulation; on the three-photon
    # resonance the harmonic saturates well below the reference
    # amplitude, so probe an eighth and a sixteenth of it.
    c = make_config(motion=True, counter=True)
    a = solve_floquet_steady(_with_amplitude(c, OSC_AMPLITUDE_NM / 8), 2).block(1)
    b = solve_floquet_steady(_with_amplitude(c, OSC_AMPLITUDE_NM / 16), 2).block(1)
    scale = np.abs(a).max() / np.abs(b).max()
    assert scale == pytest.approx(2.0, rel=0.01)


def _order_gap(c, order):
    """Max |rho0_N - rho0_{N+1}| at order N, the delta that solve_floquet_steady gates on."""
    return _truncation_delta(c, solve_floquet_steady(c, order, check_truncation=False))


def test_convergence_check_reports_order_gap():
    c = make_config(motion=True, counter=True)
    assert 1e-8 < _order_gap(c, 2) < SOLVE_TRUNCATION_TOL


def test_large_modulation_refused():
    c = _with_amplitude(make_config(motion=True, counter=True), 8 * OSC_AMPLITUDE_NM)
    assert _order_gap(c, 2) > SOLVE_TRUNCATION_TOL
    with pytest.raises(TruncationNotConverged):
        solve_floquet_steady(c, 2)
    fb = solve_floquet_steady(c, 2, check_truncation=False)
    assert np.isfinite(fb.block(0)).all()


def test_vanishing_trace_fails_without_warnings(monkeypatch):
    # a traceless Hermitian rho(0): dividing by its trace leaves inf - inf in the pairing defect
    traceless = np.zeros(16)
    traceless[[1, 4]] = 1.0
    monkeypatch.setattr(floquet, "bordered_kernel", lambda m, n: (np.tile(traceless, (len(m), 1)), [None] * len(m)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateKernel, match="vanishing trace"):
            solve_floquet_steady(make_config(motion=True, counter=True), 2)
    assert [str(w.message) for w in caught] == []


def test_motion_required_and_order_validated():
    with pytest.raises(MotionDisabled):
        solve_floquet_steady(make_config(motion=False), 2)
    for order in (0, floquet.MAX_ORDER + 1, 100_000_000):
        with pytest.raises(ConfigError, match=rf"Floquet order must lie in \[1, {floquet.MAX_ORDER}\], got {order}"):
            solve_floquet_steady(make_config(motion=True, counter=True), order)
        with pytest.raises(ConfigError):
            solve_floquet_steady(make_config(motion=True, counter=True), order, check_truncation=False)
    for order in (1.5, True):
        with pytest.raises(ConfigError, match=f"Floquet order must be an integer, got {order!r}"):
            solve_floquet_steady(make_config(motion=True, counter=True), order)


def test_largest_order_solves_with_its_truncation_check():
    # the check at order + 1 = MAX_ORDER + 1 is the stacked solver's own bound
    c = make_config(motion=True, counter=True)
    fb = solve_floquet_steady(c, floquet.MAX_ORDER)
    assert sorted(fb.blocks) == list(range(-floquet.MAX_ORDER, floquet.MAX_ORDER + 1))
    assert _truncation_delta(c, fb) < 1e-8
    table = ParamTable.of([c])
    floquet.solve_floquet_stack(table, floquet.MAX_ORDER + 1)
    with pytest.raises(ConfigError, match=rf"must lie in \[1, {floquet.MAX_ORDER + 1}\]"):
        floquet.solve_floquet_stack(table, floquet.MAX_ORDER + 2)


def test_to_json_shape():
    fb = solve_floquet_steady(make_config(motion=True, counter=True), 2)
    data = fb.to_json()
    assert set(data) == {"blocks"}
    assert set(data["blocks"]) == {"-2", "-1", "0", "1", "2"}


def _column_span(field, base):
    """An axis range of a table column around a config's value (zero-based for rates that may vanish).

    A Rabi frequency of zero at gamma_Q = 0 leaves a degenerate kernel, so
    the gq0 family holds flagged points.
    """
    return {"rabi": (0.0, 1.5 * base), "detuning": (base - TWO_PI, base + TWO_PI),
            "linewidth": (0.0, 0.5 * TWO_PI), "wavelength": (0.9 * base, 1.1 * base), "direction": (-1.0, 1.0),
            "gamma_p": (0.5 * base, 1.5 * base), "gamma_q": (0.0, 1e-3), "beta_ps": (0.0, 1.0),
            "beta_pd": (0.0, 1.0), "trap_frequency": (0.5 * base, 1.5 * base),
            "amplitude": (0.0, 1.5 * base)}[field]


# every column a sweep may move; motion.enabled is never swept (a float column is no bool)
_SWEPT_COLUMNS = [j for j, (_, field) in enumerate(_TABLE_FIELDS) if field != "enabled"]


@pytest.mark.parametrize("config", SIDEBAND_CONFIGS, ids=SIDEBAND_IDS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_pencil_sweeps_match_the_continued_fraction(config, order):
    # the fewest points at which a sweep takes the pencil; the table is built directly, so the
    # direction and branching columns, which no validated sweep can move far, are swept too
    points = -(-(2 * order + 1) ** 3 // (order + 1))
    # the blocks read only the solver and the order off the spec
    spec = ScanSpec("laser_R.detuning", 0.0, 1.0, points, solver="floquet", floquet_order=order)
    base = ParamTable.of([config]).data[0]
    by_pencil = 0
    for j in _SWEPT_COLUMNS:
        data = np.repeat(base[None], points, axis=0)
        data[:, j] = np.linspace(*_column_span(_TABLE_FIELDS[j][1], base[j]), points)
        table = ParamTable(data)
        pencil = floquet.floquet_pencil(table, j, order)
        assert pencil is not None
        pops, res, _, flags, solved = scan._solve_blocks(table, spec, 1, pencil)
        want, _, _, want_flags, _ = scan._solve_blocks(table, spec, 1)  # the continued fraction alone
        assert flags == want_flags, _TABLE_FIELDS[j]
        assert np.array_equal(np.isnan(pops), np.isnan(want))
        assert np.nanmax(np.abs(pops - want), initial=0.0) < 1e-12, _TABLE_FIELDS[j]
        assert np.nanmax(res, initial=0.0) <= floquet.FLOQUET_RESIDUAL_TOL
        by_pencil += solved.sum()
    # the pencil, not its fallback, solves the battery
    assert by_pencil >= 0.9 * points * len(_SWEPT_COLUMNS)


@pytest.mark.parametrize("order", [1, 2])
def test_block_system_is_affine_in_each_columns_coordinate(order):
    base = ParamTable.of([make_config(motion=True, counter=True)]).data[0]
    points = -(-(2 * order + 1) ** 3 // (order + 1))  # enough to take the pencil
    for j, (section, field) in enumerate(_TABLE_FIELDS):
        pencil = floquet.floquet_pencil(ParamTable(np.repeat(base[None], points, axis=0)), j, order)
        if field == "enabled":
            # the one column with no coordinate: A jumps from enabled = 0 to any nonzero value
            assert pencil is None
            continue
        assert pencil is not None and pencil.reciprocal == (field == "wavelength")
        q = floquet._coordinate(base[j], pencil.reciprocal) * np.array([0.5, 1.25, 2.0]) + np.array([0.0, 0.1, 0.7])
        data = np.repeat(base[None], 3, axis=0)
        data[:, j] = floquet._coordinate(q, pencil.reciprocal)  # 1/q is its own inverse map
        a = floquet._block_system(ParamTable(data), order)
        slope = (a[1] - a[0]) / (q[1] - q[0])
        scale = np.abs(a).max()
        assert np.abs(a[2] - a[0] - (q[2] - q[0]) * slope).max() <= 1e-13 * scale, (section, field)
        assert np.abs(slope).max() > 1e-6 * scale / abs(q[2] - q[0]), (section, field)  # the column moves A


def test_block_system_is_the_reference_generator_bordered():
    config = make_config(motion=True, counter=True)
    order = 2
    slots = np.kron(np.eye(2 * order + 1), SLOTS)  # the change of basis of every block
    gen = slots @ build_floquet_generator(config, order) @ slots.conj().T
    a = floquet._block_system(ParamTable.of([config]), order)[0]
    trace_row = 16 * order
    assert np.abs(np.delete(a - gen, trace_row, axis=0)).max() < 1e-15 * np.abs(a).max()
    assert np.array_equal(np.flatnonzero(a[trace_row]), trace_row + np.array(floquet._DIAG))


def test_a_singular_kernel_system_fails_its_point_alone(monkeypatch):
    # Omega_C = 0 at gamma_Q = 0 leaves Q unfed: that point's bordered kernel system is exactly singular
    config = make_config(motion=True, counter=True, gq=0.0)
    spec = ScanSpec("laser_C.rabi", 0.0, 0.2, 41, solver="floquet")
    table = scan._sweep_table(config, spec, spec.values_mhz)
    assert floquet.floquet_pencil(table, _COLUMN["laser_c", "rabi"], spec.floquet_order) is None
    calls = []
    stack = floquet.solve_floquet_stack

    def counted(table, order):
        calls.append(len(table))
        return stack(table, order)

    monkeypatch.setattr(scan, "solve_floquet_stack", counted)
    sp = scan.run_scan(config, spec)
    assert calls == [41]  # one stacked solve, no point-by-point rerun
    assert sp.flags == ("DegenerateKernel",) + ("",) * 40
    assert np.isnan(sp.populations[0]).all() and np.isnan(sp.residuals[0])
    # every other point gets what it gets alone
    for i in (1, 20, 40):
        alone = stack(table[i:i + 1], spec.floquet_order)[0][0, 0]
        assert np.array_equal(sp.populations[i], np.real(np.diag(alone)))


def test_pencil_is_refused_where_the_continued_fraction_is_cheaper():
    config = make_config(motion=True, counter=True)
    column = floquet._TABLE_FIELDS.index(_resolve_path("laser_R.detuning"))
    for order in (1, 2, 3, floquet.PENCIL_MAX_ORDER, floquet.PENCIL_MAX_ORDER + 1, floquet.MAX_ORDER):
        threshold = -(-(2 * order + 1) ** 3 // (order + 1))
        for points, expected in ((threshold - 1, False), (threshold, order <= floquet.PENCIL_MAX_ORDER)):
            table = ParamTable(np.repeat(ParamTable.of([config]).data, points, axis=0))
            assert (floquet.floquet_pencil(table, column, order) is not None) == expected
    # motion off at a point, or an anchor whose inverse overflows (entries near 1e306), leaves every
    # point to the continued fraction
    off = ParamTable.of([make_config(motion=False)] * 64)
    assert floquet.floquet_pencil(off, column, 1) is None
    huge = ParamTable.of([make_config(motion=True, counter=True, ob=1e306)] * 64)
    assert floquet.floquet_pencil(huge, column, 1) is None
