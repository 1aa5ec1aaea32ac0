"""Parameter sweeps: determinism, failure flagging, output formats."""

import io
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import make_config, point_configs, replace_param
from nscheme import cli, floquet, model, scan
from nscheme.cli import _load_config_arg
from nscheme.errors import ConfigError, SolverError
from nscheme.floquet import MAX_ORDER, solve_floquet_stack
from nscheme.liouvillian import build_hamiltonian, build_superoperator, hamiltonian_stack, superoperator_stack
from nscheme.model import FREQUENCY_FIELDS, ParamTable, config_hash, from_mhz
from nscheme.scan import BLOCK_POINTS, MAX_POINTS, ScanSpec, Spectrum, run_scan
from nscheme.steady import steady_state


def _csv(spectrum):
    """The spectrum's CSV rows as `nscheme scan` writes them."""
    return cli._csv_rows((spectrum.axis_mhz, *spectrum.populations.T, spectrum.residuals, spectrum.flags))


def test_scan_spec_validation():
    good = dict(axis="laser_R.detuning", start=2.0, stop=4.0, points=5)
    ScanSpec(**good)
    with pytest.raises(ConfigError):
        ScanSpec(**{**good, "points": 1})
    with pytest.raises(ConfigError):
        ScanSpec(**{**good, "start": 4.0, "stop": 2.0})
    with pytest.raises(ConfigError):
        ScanSpec(**{**good, "axis": "detuning"})
    with pytest.raises(ConfigError):
        ScanSpec(**{**good, "solver": "magic"})
    with pytest.raises(ConfigError):
        ScanSpec(**{**good, "gamma_q_mode": "maybe"})
    with pytest.raises(ConfigError):
        ScanSpec(**{**good, "floquet_order": 0})
    assert ScanSpec(**{**good, "floquet_order": MAX_ORDER}).floquet_order == MAX_ORDER
    with pytest.raises(ConfigError, match=f"floquet_order must lie in \\[1, {MAX_ORDER}\\], got {MAX_ORDER + 1}"):
        ScanSpec(**{**good, "floquet_order": MAX_ORDER + 1})
    for field, value in [("points", 2.5), ("points", True), ("floquet_order", 1.5), ("floquet_order", True)]:
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
            ScanSpec(**{**good, field: value})
    assert ScanSpec(**{**good, "points": np.int64(5)}).values_mhz.size == 5
    assert ScanSpec(**{**good, "points": MAX_POINTS}).points == MAX_POINTS
    with pytest.raises(ConfigError, match=f"a scan takes at most {MAX_POINTS} points, got {MAX_POINTS + 1}"):
        ScanSpec(**{**good, "points": MAX_POINTS + 1})
    with pytest.raises(ConfigError):
        ScanSpec(axis="atom.gamma_Q", start=0.0, stop=1.0, points=3, gamma_q_mode="zero")
    for start, stop in [(2.0, np.inf), (-np.inf, 2.0), (np.nan, 2.0), (2.0, np.nan), (-1.7e308, 1.7e308)]:
        with pytest.raises(ConfigError, match="axis range and its width must be finite"):
            ScanSpec(**{**good, "start": start, "stop": stop})


def test_scan_values_and_unknown_axis():
    spec = ScanSpec(axis="laser_R.detuning", start=2.0, stop=4.0, points=5)
    assert np.allclose(spec.values_mhz, [2.0, 2.5, 3.0, 3.5, 4.0])
    bad = ScanSpec(axis="laser_R.phase", start=0.0, stop=1.0, points=3)
    with pytest.raises(ConfigError):
        run_scan(make_config(), bad, workers=1)


_SOLVE_BLOCK = scan._solve_block

# (config, spec, flagged points) of multi-block sweeps
_THREADED_SWEEPS = {
    # 13 blocks; 10 points are DegenerateKernel
    "carrier": (_load_config_arg("fig3a"), ScanSpec("laser_C.rabi", 0.0, 0.2, 801), 10),
    # above PENCIL_MAX_ORDER: the continued fraction solves every block
    "floquet": (_load_config_arg("fig6_counter"),
                ScanSpec("laser_R.detuning", 1.8, 4.2, 801, solver="floquet",
                         floquet_order=floquet.PENCIL_MAX_ORDER + 1), 0),
    # Delta_R - Delta_B overflows: each block's stacked solve fails, and its points are solved alone
    "overflow": (make_config(db=-2.8e307, dr=2.8e307),
                 ScanSpec("laser_B.rabi", 5.0, 15.0, 2 * BLOCK_POINTS + 1), 2 * BLOCK_POINTS + 1),
}


def _outputs(spectrum):
    buf = io.StringIO()
    spectrum.to_json(buf)
    return (_csv(spectrum), buf.getvalue(), spectrum.populations.tobytes(),
            spectrum.residuals.tobytes(), spectrum.flags)


def _blocks_by_thread(monkeypatch):
    """Record (solved in a helper, points) of every _solve_block call, lone-point reruns included.

    The caller's first block waits until a helper has started one, so a
    threaded sweep always solves blocks on two threads or more.
    """
    caller, calls, helper_started = threading.current_thread(), [], threading.Event()

    def recorded(table, spec, *pencil):
        in_helper = threading.current_thread() is not caller
        if in_helper:
            helper_started.set()
        elif not calls:
            helper_started.wait(timeout=60)
        calls.append((in_helper, len(table)))
        return _SOLVE_BLOCK(table, spec, *pencil)

    monkeypatch.setattr(scan, "_solve_block", recorded)
    return calls


@pytest.mark.parametrize("sweep", sorted(_THREADED_SWEEPS))
def test_worker_count_does_not_change_output(monkeypatch, sweep):
    config, spec, n_failed = _THREADED_SWEEPS[sweep]
    serial = run_scan(config, spec, workers=1)
    assert serial.n_failed == n_failed
    for workers in (2, 3):
        calls = _blocks_by_thread(monkeypatch)
        assert _outputs(run_scan(config, spec, workers=workers)) == _outputs(serial)
        assert any(in_helper for in_helper, _ in calls)
        if sweep == "overflow":
            assert (True, 1) in calls  # a helper solved a failed block point by point
    assert _outputs(run_scan(config, spec)) == _outputs(serial)


def test_a_pencil_sweep_solves_every_block_on_the_calling_thread(monkeypatch):
    config, spec = _load_config_arg("fig6_counter"), ScanSpec("laser_R.detuning", 1.8, 4.2, 801, solver="floquet")
    serial = run_scan(config, spec, workers=1)
    assert _routes(serial) == {"pencil": 801, "continued_fraction": 0}
    caller, threads = threading.current_thread(), []

    def recorded(table, spec, *pencil):
        threads.append(threading.current_thread())
        return _SOLVE_BLOCK(table, spec, *pencil)

    monkeypatch.setattr(scan, "_solve_block", recorded)
    before = threading.active_count()
    for workers in (2, 3):
        threads.clear()
        assert _outputs(run_scan(config, spec, workers=workers)) == _outputs(serial)
        assert threads == [caller] * -(-spec.points // BLOCK_POINTS)
    assert threading.active_count() == before


def test_more_workers_than_cores_solve_every_block_once(monkeypatch):
    # 20 blocks on 8 threads with a short switch interval: a lost or repeated block shows
    config, spec = make_config(), ScanSpec("laser_R.detuning", 2.0, 4.0, 20 * BLOCK_POINTS)
    serial = run_scan(config, spec, workers=1)
    firsts = []

    def counted(table, spec, *pencil):
        firsts.append(float(table.detuning[0, 1]))
        return _SOLVE_BLOCK(table, spec, *pencil)

    monkeypatch.setattr(scan, "_solve_block", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_scan(config, spec, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert _outputs(threaded) == _outputs(serial)
    assert sorted(firsts) == sorted(set(firsts)) and len(firsts) == 20


def test_block_error_in_a_helper_reaches_the_caller(monkeypatch):
    caller, helpers, solved, helper_started = threading.current_thread(), [], [], threading.Event()

    def failing_block(table, spec, *pencil):
        if threading.current_thread() is caller:
            assert helper_started.wait(timeout=60)
            helpers[0].join(timeout=60)  # the helper has failed and stopped
            solved.append(len(table))
            return _SOLVE_BLOCK(table, spec, *pencil)
        helpers.append(threading.current_thread())
        helper_started.set()
        raise RuntimeError("block failed in a helper")

    monkeypatch.setattr(scan, "_solve_block", failing_block)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block failed in a helper"):
        run_scan(make_config(), ScanSpec("laser_R.detuning", 2.0, 4.0, 4 * BLOCK_POINTS), workers=2)
    # the caller's one block, if it took one, started before the failure; no block started after it
    assert len(helpers) == 1 and solved in ([], [BLOCK_POINTS])
    assert not helpers[0].is_alive()
    assert threading.active_count() == before


@pytest.mark.parametrize("errstate", [{"all": "ignore"}, {"all": "raise"}, {"over": "warn"}])
def test_caller_errstate_holds_in_every_worker(monkeypatch, errstate):
    # the overflowing points' stacked solves meet floating-point events
    config, spec = make_config(), ScanSpec("laser_B.rabi", 10.0, 1e306, 2 * BLOCK_POINTS)
    outcomes = []
    for workers in (1, 2):
        calls = _blocks_by_thread(monkeypatch) if workers > 1 else []
        solve_block, seen = scan._solve_block, []

        def errstate_recorded(table, spec, *pencil):
            seen.append(np.geterr())
            return solve_block(table, spec, *pencil)

        monkeypatch.setattr(scan, "_solve_block", errstate_recorded)
        with np.errstate(**errstate):
            expected = np.geterr()
            try:
                outcomes.append(_outputs(run_scan(config, spec, workers=workers)))
            except (FloatingPointError, RuntimeWarning) as exc:
                outcomes.append(repr(exc))
        assert seen and all(state == expected for state in seen)
        assert any(in_helper for in_helper, _ in calls) == (workers > 1)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("workers", [0, -1, True, 2.5, "2"])
def test_workers_must_be_a_positive_integer(workers):
    with pytest.raises(ConfigError, match="workers must be"):
        run_scan(make_config(), ScanSpec("laser_R.detuning", 2.0, 4.0, 3), workers=workers)


def test_stacked_blocks_match_point_by_point_solves():
    # 801 points span 13 stacked blocks; 10 of them are DegenerateKernel
    config = _load_config_arg("fig3a")
    spec = ScanSpec(axis="laser_C.rabi", start=0.0, stop=0.2, points=801)
    sp = run_scan(config, spec)
    assert -(-spec.points // BLOCK_POINTS) == 13
    assert sp.n_failed == 10
    for value, pops, flag in zip(spec.values_mhz, sp.populations, sp.flags):
        cfg = replace_param(config, "laser_C.rabi", from_mhz(value))
        try:
            rho = steady_state(build_superoperator(build_hamiltonian(cfg).h_total, cfg))
        except SolverError as exc:
            assert flag == type(exc).__name__
            assert np.isnan(pops).all()
        else:
            assert flag == ""
            assert np.abs(pops - rho.populations).max() < 1e-12


def test_run_scan_builds_a_constant_number_of_configs(monkeypatch):
    built = []
    for cls in (model.SystemConfig, model.LaserDrive, model.AtomSpec, model.MotionSpec):
        def counted(self, *args, __init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            __init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    config = make_config()
    counts = []
    for points in (2, 65, 300):
        for mode in ("physical", "zero"):
            built.clear()
            run_scan(config, ScanSpec(axis="laser_R.detuning", start=2.0, stop=4.0, points=points,
                                      gamma_q_mode=mode))
            counts.append((mode, len(built)))
    assert counts[:2] == counts[2:4] == counts[4:]
    assert max(n for _, n in counts) <= 2


# every frequency axis plus the non-affine inputs of the Lamb-Dicke factors
_AXES = sorted(FREQUENCY_FIELDS) + ["laser_B.wavelength_nm", "laser_R.wavelength_nm",
                                    "laser_C.wavelength_nm", "motion.amplitude_nm"]
_STARTS = st.one_of(st.floats(-60.0, 60.0), st.sampled_from([0.0, 1e300, 1e307, 2e307, -1e307]))
_WIDTHS = st.one_of(st.floats(1e-3, 60.0), st.sampled_from([1e300, 1e307, 2e307]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(axis=st.sampled_from(_AXES), start=_STARTS, width=_WIDTHS, points=st.integers(2, 7),
       mode=st.sampled_from(["physical", "zero"]), motion=st.booleans(), counter=st.booleans())
def test_sweep_table_equals_per_point_configs(axis, start, width, points, mode, motion, counter):
    assume(not (axis == "atom.gamma_Q" and mode == "zero"))
    try:
        spec = ScanSpec(axis=axis, start=start, stop=start + width, points=points, gamma_q_mode=mode)
    except ConfigError:
        assume(False)
    base = make_config(motion=motion, counter=counter)
    try:
        want = ParamTable.of(point_configs(base, spec))
    except ConfigError as exc:
        with pytest.raises(type(exc)) as raised:
            scan._sweep_table(base, spec, spec.values_mhz)
        assert str(raised.value) == str(exc)
        return
    got = scan._sweep_table(base, spec, spec.values_mhz)
    assert np.array_equal(got.data, want.data)
    parts = [hamiltonian_stack(table) for table in (got, want)]
    for a, b in zip(*(vars(p).values() for p in parts)):
        assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(superoperator_stack(parts[0].h_total, got),
                          superoperator_stack(parts[1].h_total, want), equal_nan=True)
    for solver in ("carrier", "floquet") if motion else ("carrier",):
        spec_s = ScanSpec(axis=axis, start=spec.start, stop=spec.stop, points=points, solver=solver)
        got_pops, _, _, got_flags, _ = scan._solve_block(got, spec_s)
        want_pops, _, _, want_flags, _ = scan._solve_block(want, spec_s)
        assert got_flags == want_flags
        assert np.array_equal(got_pops, want_pops, equal_nan=True)


def test_scan_metadata():
    c = make_config()
    spec = ScanSpec(axis="laser_C.detuning", start=4.9, stop=5.1, points=5)
    sp = run_scan(c, spec, workers=1)
    md = sp.metadata
    assert md["config_hash"] == config_hash(c)
    assert md["axis"] == "laser_C.detuning"
    assert md["points"] == 5
    assert md["solver"] == "carrier"
    assert md["gamma_q_mode"] == "physical"
    assert md["n_failed"] == 0
    assert "version" in md and "dephasing" in md
    assert md["start_MHz"] == 4.9 and md["stop_MHz"] == 5.1


def test_floquet_scan_metadata_and_pairing():
    c = make_config(motion=True, counter=True)
    spec = ScanSpec(axis="laser_C.detuning", start=4.99, stop=5.01, points=3,
                    solver="floquet", floquet_order=2)
    sp = run_scan(c, spec, workers=1)
    assert sp.metadata["floquet_order"] == 2
    assert sp.metadata["max_pairing_defect"] < 1e-10
    assert sp.n_failed == 0


def _routes(spectrum):
    return spectrum.metadata["solved_by"]


@pytest.mark.parametrize("points, order, pencil", [(2, 2, False), (9, 2, False), (801, 2, True),
                                                   (65, MAX_ORDER, False)])
def test_floquet_sweep_metadata_counts_each_route(points, order, pencil):
    spec = ScanSpec("laser_R.detuning", 1.8, 4.2, points, solver="floquet", floquet_order=order)
    sp = run_scan(_load_config_arg("fig6_counter"), spec, workers=1)
    assert set(_routes(sp)) == {"pencil", "continued_fraction"}
    assert _routes(sp)["pencil"] + _routes(sp)["continued_fraction"] == points == sp.metadata["points"]
    assert (_routes(sp)["pencil"] == points) == pencil
    assert (_routes(sp)["continued_fraction"] == points) == (not pencil)
    assert "solved_by" not in run_scan(make_config(), ScanSpec("laser_R.detuning", 2.0, 4.0, points)).metadata


def test_a_point_the_pencil_gets_wrong_takes_the_continued_fraction(monkeypatch):
    config, spec = _load_config_arg("fig6_counter"), ScanSpec("laser_R.detuning", 1.8, 4.2, 801, solver="floquet")
    clean = run_scan(config, spec, workers=1)
    assert _routes(clean) == {"pencil": 801, "continued_fraction": 0}
    # the pencil's own solve of point 100 uses a coordinate 1% off; its refinement cannot recover
    table = scan._sweep_table(config, spec, spec.values_mhz)
    target = table.detuning[100, 1]
    coordinate = floquet._coordinate
    monkeypatch.setattr(floquet, "_coordinate", lambda values, reciprocal: coordinate(
        np.where(values == target, 1.01 * values, values), reciprocal))
    corrupted = run_scan(config, spec, workers=1)
    assert _routes(corrupted) == {"pencil": 800, "continued_fraction": 1}
    blocks, res, _, errors = solve_floquet_stack(table[100:101], spec.floquet_order)
    assert errors == [None] and corrupted.flags[100] == ""
    assert np.array_equal(corrupted.populations[100], np.real(np.diag(blocks[0, 0])))
    assert corrupted.residuals[100] == res[0]
    keep = np.arange(801) != 100
    assert np.array_equal(corrupted.populations[keep], clean.populations[keep])
    assert corrupted.flags == clean.flags


def test_a_block_with_a_non_finite_generator_takes_the_continued_fraction():
    config, spec = _load_config_arg("fig6_counter"), ScanSpec("laser_R.detuning", 1.8, 4.2, 801, solver="floquet")
    table = scan._sweep_table(config, spec, spec.values_mhz)
    pencil = floquet.floquet_pencil(table, model._COLUMN["laser_r", "detuning"], spec.floquet_order)
    data = table[:BLOCK_POINTS].data.copy()
    data[5, [model._COLUMN["laser_b", "detuning"], model._COLUMN["laser_r", "detuning"]]] = -1.7e308, 1.7e308
    block = ParamTable(data)  # Delta_R - Delta_B overflows at point 5 only
    got = scan._solve_block(block, spec, pencil)
    want = scan._solve_block(block, spec)
    assert not got[4].any()
    assert got[3] == want[3] and got[3][5] == "NoConvergence" and got[3].count("") == BLOCK_POINTS - 1
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b, equal_nan=True)
    # the same block with point 5 finite is the pencil's
    assert scan._solve_block(table[:BLOCK_POINTS], spec, pencil)[4].all()


def _json_dump(spectrum):
    buf = io.StringIO()
    json.dump(spectrum.as_dict(), buf, indent=2)
    return buf.getvalue() + "\n"


def _written(spectrum):
    buf = io.StringIO()
    spectrum.to_json(buf)
    return buf.getvalue()


@pytest.mark.parametrize("config, spec, n_failed", [
    (make_config(), ScanSpec("laser_R.detuning", 2.0, 4.0, 101), 0),
    (make_config(), ScanSpec("laser_R.detuning", 2.0, 4.0, 101, gamma_q_mode="zero"), 0),
    (make_config(orr=0.0, oc=0.0, gq=0.0), ScanSpec("laser_B.rabi", 0.0, 1.0, 3, gamma_q_mode="zero"), 1),
    (make_config(motion=True, counter=True), ScanSpec("laser_R.detuning", 1.8, 4.2, 101, solver="floquet"), 0),
    (make_config(motion=True, counter=True), ScanSpec("laser_B.rabi", 10.0, 1e301, 3, solver="floquet"), 2),
    # every point flagged: max_pairing_defect is None
    (make_config(db=-2.8e307, dr=2.8e307, motion=True), ScanSpec("laser_B.rabi", 5.0, 15.0, 3, solver="floquet"), 3),
], ids=["carrier", "gamma_zero", "flagged", "floquet", "floquet_flagged", "all_flagged"])
def test_json_bytes_are_the_json_module_dump(config, spec, n_failed):
    sp = run_scan(config, spec, workers=1)
    assert sp.n_failed == n_failed
    if n_failed == spec.points:
        assert sp.metadata["max_pairing_defect"] is None
    assert _written(sp) == _json_dump(sp)


def test_json_bytes_of_edge_floats():
    values = np.array([-0.0, 5e-324, 1e300, np.nan, 0.1, 1.0 / 3.0, -1e-300, np.inf])
    sp = Spectrum(axis_mhz=values, populations=np.stack([values, -values, values[::-1], values], axis=1),
                  residuals=values[::-1].copy(), flags=("", "x", "", "NoConvergence", "", "", "", ""),
                  metadata={"nested": {"list": [1, 2.5, None], "text": "a\nb"}, "none": None})
    assert _written(sp) == _json_dump(sp)
    assert '"axis_MHz": [\n    -0.0,\n    5e-324,\n    1e+300,\n    NaN,' in _written(sp)
    empty = Spectrum(axis_mhz=values[:0], populations=np.zeros((0, 4)), residuals=values[:0], flags=(),
                     metadata={})
    assert _written(empty) == _json_dump(empty)


def test_gamma_q_mode_changes_the_answer():
    c = make_config()
    spec = dict(axis="laser_R.detuning", start=3.0, stop=3.1, points=2)
    phys = run_scan(c, ScanSpec(**spec), workers=1)
    zero = run_scan(c, ScanSpec(**spec, gamma_q_mode="zero"), workers=1)
    assert zero.population("Q")[0] > phys.population("Q")[0]


def test_failed_points_are_flagged_not_fatal():
    # at rabi_B = 0 with no other drive and gamma_Q = 0 nothing fixes the kernel
    c = make_config(orr=0.0, oc=0.0, gq=0.0)
    spec = ScanSpec(axis="laser_B.rabi", start=0.0, stop=1.0, points=3,
                    gamma_q_mode="zero")
    sp = run_scan(c, spec, workers=1)
    assert sp.flags[0] == "DegenerateKernel"
    assert np.isnan(sp.populations[0]).all()
    assert sp.flags[1] == "" and sp.flags[2] == ""
    assert sp.n_failed == 1
    assert sp.metadata["n_failed"] == 1
    # NaN rows serialize as nulls
    import json as _json
    buf = io.StringIO()
    sp.to_json(buf)
    data = _json.loads(buf.getvalue())
    assert data["populations"]["Q"][0] is None
    assert data["flags"][0] == "DegenerateKernel"


def test_csv_format(capsys):
    assert cli.main(["scan", "--config", "fig3a", "--axis", "laser_R.detuning", "--range", "3:3.1",
                     "--points", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "axis_MHz,P_S,P_P,P_D,P_Q,residual,flag"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert len(row) == 7
    assert float(row[0]) == 3.0

