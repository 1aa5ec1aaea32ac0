"""Parameter sweeps: determinism, failure flagging, peak extraction."""

import io

import numpy as np
import pytest

from conftest import make_config
from nscheme.cli import _load_config_arg
from nscheme.errors import ConfigError, SolverError, TooCoarse
from nscheme.liouvillian import build_hamiltonian, build_superoperator
from nscheme.model import config_hash, from_mhz, replace_param
from nscheme.scan import BLOCK_POINTS, Peak, ScanSpec, Spectrum, find_peaks, run_scan
from nscheme.steady import steady_state


def _csv(spectrum):
    buf = io.StringIO()
    spectrum.to_csv(buf)
    return buf.getvalue()


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


def test_worker_count_does_not_change_output():
    c = make_config()
    spec = ScanSpec(axis="laser_R.detuning", start=2.8, stop=3.2, points=9)
    serial = run_scan(c, spec, workers=1)
    parallel = run_scan(c, spec, workers=2)
    assert _csv(serial) == _csv(parallel)


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


def test_csv_format():
    sp = run_scan(make_config(), ScanSpec(axis="laser_R.detuning", start=3.0,
                                          stop=3.1, points=2), workers=1)
    lines = _csv(sp).strip().split("\n")
    assert lines[0] == "axis_MHz,P_S,P_P,P_D,P_Q,residual,flag"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert len(row) == 7
    assert float(row[0]) == 3.0


def _gaussian_spectrum(n, sigma):
    axis = np.linspace(2.0, 4.0, n)
    q = 0.8 * np.exp(-0.5 * ((axis - 3.0) / sigma) ** 2)
    pops = np.zeros((n, 4))
    pops[:, 3] = q
    pops[:, 0] = 1.0 - q
    return Spectrum(axis_mhz=axis, populations=pops,
                    residuals=np.zeros(n), flags=("",) * n, metadata={})


def test_find_peaks_on_synthetic_line():
    sp = _gaussian_spectrum(201, 0.05)
    peaks = find_peaks(sp)
    assert len(peaks) == 1
    peak = peaks[0]
    assert isinstance(peak, Peak)
    assert peak.location == pytest.approx(3.0, abs=1e-3)
    assert peak.height == pytest.approx(0.8, abs=1e-3)
    assert peak.fwhm == pytest.approx(2.3548 * 0.05, rel=0.02)


def test_find_peaks_rejects_undersampled_line():
    with pytest.raises(TooCoarse):
        find_peaks(_gaussian_spectrum(41, 0.01))


def test_find_peaks_rejects_flagged_spectra():
    c = make_config(orr=0.0, oc=0.0, gq=0.0)
    sp = run_scan(c, ScanSpec(axis="laser_B.rabi", start=0.0, stop=1.0, points=3,
                              gamma_q_mode="zero"), workers=1)
    with pytest.raises(SolverError):
        find_peaks(sp)


def test_find_peaks_prominence_filter():
    sp = _gaussian_spectrum(201, 0.05)
    assert find_peaks(sp, min_prominence=0.9) == []


def test_find_peaks_on_real_trapping_resonance():
    c = make_config(gq=0.0)
    sp = run_scan(c, ScanSpec(axis="laser_R.detuning", start=2.5, stop=3.5,
                              points=161, gamma_q_mode="zero"), workers=1)
    peaks = find_peaks(sp, min_prominence=0.3)
    assert len(peaks) == 1
    assert peaks[0].location == pytest.approx(3.0, abs=0.01)
    assert peaks[0].height > 0.9
