"""Command-line interface: subcommands, presets, exit codes, determinism."""

import io
import json
import warnings

import numpy as np
import pytest

from conftest import make_config, with_linewidths
from nscheme import __version__, scan
from nscheme.cli import main
from nscheme.liouvillian import build_hamiltonian, build_superoperator
from nscheme.mcwf import default_dark_threshold, photon_records_to_csv, run_trajectory
from nscheme.model import config_to_dict, lamb_dicke_parameters, load_config
from nscheme.scan import ScanSpec, run_scan
from nscheme.steady import steady_state

PRESETS = ("fig3a", "fig3e", "fig4a", "fig4d", "fig6_co", "fig6_counter")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    assert main(["--version"]) == 0
    out, _ = capsys.readouterr()
    assert __version__ in out


def test_steady_preset_stdout(capsys):
    code, out, err = run(capsys, "steady", "--config", "fig3a")
    assert code == 0
    data = json.loads(out)
    assert data["populations"]["Q"] == pytest.approx(0.99699, abs=1e-4)
    assert data["metadata"]["version"] == __version__
    assert data["residual"] < 1e-10


def test_steady_gamma_q_zero(capsys):
    code, out, _ = run(capsys, "steady", "--config", "fig3a", "--gamma-q-zero")
    assert code == 0
    assert json.loads(out)["populations"]["Q"] == pytest.approx(0.99957, abs=1e-4)


def test_presets_load_and_match_geometry():
    for name in PRESETS:
        code = main(["steady", "--config", name, "--out", "/dev/null"])
        assert code == 0, name
    co = load_config_from_preset("fig6_co")
    counter = load_config_from_preset("fig6_counter")
    assert co.motion.enabled and counter.motion.enabled
    ld = lamb_dicke_parameters(counter)
    assert abs(ld.eta_b) == pytest.approx(0.1, abs=5e-4)
    assert abs(ld.eta_r) == pytest.approx(0.046, abs=5e-4)
    assert abs(ld.eta_c) == pytest.approx(0.054, abs=5e-4)
    assert counter.laser_b.direction == -1
    assert co.laser_b.direction == 1


def load_config_from_preset(name):
    from importlib import resources
    path = resources.files("nscheme").joinpath("presets", f"{name}.json")
    return load_config(str(path))


def test_scan_csv_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan", "--config", "fig3a", "--axis", "laser_R.detuning",
            "--range", "2.9:3.1", "--points", "7", "--workers", "1"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == "axis_MHz,P_S,P_P,P_D,P_Q,residual,flag"
    assert len(lines) == 8


def test_scan_json_output(tmp_path):
    out = tmp_path / "scan.json"
    code = main(["scan", "--config", "fig3a", "--axis", "laser_R.detuning",
                 "--range", "2.9:3.1", "--points", "3", "--workers", "1",
                 "--json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["metadata"]["points"] == 3
    assert len(data["populations"]["Q"]) == 3


def test_evolve_csv(capsys):
    code, out, _ = run(capsys, "evolve", "--config", "fig3a",
                       "--t-max", "10", "--points", "11")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t_us,P_S,P_P,P_D,P_Q"
    assert len(lines) == 12
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0)


def test_evolve_fit_json(capsys):
    code, out, _ = run(capsys, "evolve", "--config", "fig4d", "--gamma-q-zero",
                       "--t-max", "800", "--points", "4001", "--fit")
    assert code == 0
    data = json.loads(out)
    assert set(data) >= {"metadata", "fast_us", "slow_us", "rabi_MHz"}
    assert data["rabi_MHz"] == pytest.approx(0.012127, rel=0.05)


def test_traj_photon_csv_deterministic(tmp_path):
    argv = ["traj", "--config", "fig4a", "--t-max", "40", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0] == "trajectory_id,jump_time_us,channel"
    assert len(lines) > 100


def test_traj_stats_json(capsys):
    code, out, _ = run(capsys, "traj", "--config", "fig4a", "--t-max", "40",
                       "--n-traj", "3", "--seed", "1", "--stats",
                       "--dark-threshold", "15")
    assert code == 0
    data = json.loads(out)
    assert data["dark_threshold_us"] == 15.0
    assert data["n_bright"] >= 3


def test_traj_csv_matches_per_trajectory_records(capsys):
    code, out, _ = run(capsys, "traj", "--config", "fig3a", "--t-max", "20",
                       "--n-traj", "3", "--seed", "4")
    assert code == 0
    config = load_config_from_preset("fig3a")
    buf = io.StringIO()
    photon_records_to_csv([run_trajectory(config, "S", 20.0, (4, i)) for i in range(3)], buf)
    assert out == buf.getvalue()


@pytest.mark.parametrize("args", [("--t-max", "-5"), ("--t-max", "0"), ("--t-max", "nan"),
                                  ("--t-max", "5", "--n-traj", "0"),
                                  ("--t-max", "5", "--n-traj", "-1", "--stats")])
def test_traj_rejects_bad_arguments(capsys, args):
    code, out, err = run(capsys, "traj", "--config", "fig3a", *args)
    assert code == 1
    assert out == ""
    assert err.startswith("nscheme: NonPhysicalState: ")
    assert err.count("\n") == 1


def test_traj_rejects_laser_linewidth(tmp_path, capsys):
    cfg = {
        "laser_B": {"rabi": 10.0, "detuning": 8.0},
        "laser_R": {"rabi": 2.5, "detuning": 3.0, "linewidth": 0.5},
        "laser_C": {"rabi": 0.05, "detuning": 5.0},
    }
    p = tmp_path / "broad.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "traj", "--config", str(p), "--t-max", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("nscheme: LinewidthUnsupported: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("steady",), ("evolve", "--t-max", "5"), ("traj", "--t-max", "5"), ("g2", "--tau-max", "1"),
    ("scan", "--axis", "laser_R.detuning", "--range", "2.9:3.1", "--points", "3"),
    ("floquet",), ("dressed",),
])
def test_nan_config_exits_one(tmp_path, capsys, argv):
    # json reads the NaN literal; every subcommand must refuse it at load time
    p = tmp_path / "bad.json"
    p.write_text('{"laser_B": {"rabi": NaN, "detuning": 8.0}, '
                 '"laser_R": {"rabi": 2.5, "detuning": 3.0}, '
                 '"laser_C": {"rabi": 0.05, "detuning": 5.0}}')
    code, out, err = run(capsys, argv[0], "--config", str(p), *argv[1:])
    assert code == 1
    assert out == ""
    assert err == "nscheme: ConfigError: laser_B.rabi must be finite, got nan\n"


def test_g2_csv(capsys):
    code, out, _ = run(capsys, "g2", "--config", "fig3e",
                       "--tau-max", "1.0", "--points", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "tau_us,g2"
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) == 0.0


def test_floquet_single_json(capsys):
    code, out, _ = run(capsys, "floquet", "--config", "fig6_counter")
    assert code == 0
    data = json.loads(out)
    assert data["populations"]["Q"] == pytest.approx(0.90759, abs=1e-4)
    assert data["order"] == 2
    assert data["pairing_defect"] < 1e-10


def test_floquet_scan(tmp_path):
    out = tmp_path / "side.csv"
    code = main(["floquet", "--config", "fig6_counter", "--axis", "laser_C.detuning",
                 "--range", "4.99:5.01", "--points", "3", "--workers", "1",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4


def test_dressed_reports(capsys):
    code, out, _ = run(capsys, "dressed", "--config", "fig3a", "--velocity", "1.0")
    assert code == 0
    data = json.loads(out)
    assert data["three_photon"]["alpha_c"] == pytest.approx(0.005)
    assert data["lambda"]["effective_rabi_MHz"] == pytest.approx(0.012127, abs=1e-6)
    # the Doppler report needs the beam geometry, which rides on motion
    assert "error" in data["doppler"]
    code, out, _ = run(capsys, "dressed", "--config", "fig6_counter", "--velocity", "1.0")
    assert code == 0
    data = json.loads(out)
    assert data["doppler"]["rate_MHz"] == pytest.approx(0.100907, abs=1e-5)
    assert data["doppler"]["velocity_m_per_s"] == 1.0


def test_dressed_off_domain_sections_embed_errors(capsys):
    # fig3e has detuning_C = 0: no perturbative report, still exit 0
    code, out, _ = run(capsys, "dressed", "--config", "fig3e")
    assert code == 0
    data = json.loads(out)
    assert "error" in data["three_photon"]
    assert "effective_rabi_MHz" in data["lambda"]


def test_exit_codes(tmp_path, capsys):
    # missing config file
    code, _, err = run(capsys, "steady", "--config", str(tmp_path / "nope.json"))
    assert code == 1
    assert "nscheme:" in err
    # malformed range
    code, _, err = run(capsys, "scan", "--config", "fig3a", "--axis",
                       "laser_R.detuning", "--range", "abc", "--points", "3")
    assert code == 1
    # floquet axis without range
    code, _, err = run(capsys, "floquet", "--config", "fig6_counter",
                       "--axis", "laser_C.detuning")
    assert code == 1
    # unknown subcommand
    code, _, err = run(capsys, "wibble")
    assert code == 1


def test_solver_failure_exits_two(tmp_path, capsys):
    cfg = json.loads(json.dumps({
        "laser_B": {"rabi": 10.0, "detuning": 8.0, "wavelength_nm": 397.0, "direction": -1},
        "laser_R": {"rabi": 2.5, "detuning": 3.0, "wavelength_nm": 866.0},
        "laser_C": {"rabi": 0.05, "detuning": 5.0, "wavelength_nm": 729.0},
        "motion": {"enabled": True, "trap_frequency": 1.0,
                   "amplitude_nm": 101.09521985197194},
    }))
    p = tmp_path / "wild.json"
    p.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "floquet", "--config", str(p))
    assert code == 2
    assert "TruncationNotConverged" in err


def test_out_file_writes(tmp_path):
    out = tmp_path / "pops.json"
    assert main(["steady", "--config", "fig3a", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["populations"]["Q"] > 0.99


def _strict_json(text):
    """json.loads that refuses the NaN/Infinity tokens, which are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
def test_traj_stats_rejects_bad_dark_threshold(capsys, threshold):
    code, out, err = run(capsys, "traj", "--config", "fig3a", "--t-max", "5", "--stats",
                         f"--dark-threshold={threshold}")
    assert code == 1
    assert out == ""
    assert err.startswith("nscheme: NonPhysicalState: dark threshold must be finite and positive")
    assert err.count("\n") == 1


def test_traj_stats_undefined_values_are_null(capsys):
    # no gap above the threshold: one bright period (no standard error), no dark period
    code, out, _ = run(capsys, "traj", "--config", "fig3a", "--t-max", "5", "--stats",
                       "--dark-threshold", "1000")
    assert code == 0
    data = _strict_json(out)
    assert (data["n_bright"], data["n_dark"]) == (1, 0)
    assert data["mean_bright_photons"] > 0
    assert data["se_bright_photons"] is None
    assert data["mean_dark_duration_us"] is None
    assert data["se_dark_duration_us"] is None


def test_traj_stats_single_dark_gap_has_null_standard_error(capsys):
    record = run_trajectory(load_config_from_preset("fig3a"), "S", 5.0, (0, 0))
    gaps = np.sort(np.diff(record.jump_times))
    threshold = 0.5 * (gaps[-1] + gaps[-2])  # only the longest gap is dark
    code, out, _ = run(capsys, "traj", "--config", "fig3a", "--t-max", "5", "--stats",
                       "--dark-threshold", repr(float(threshold)))
    assert code == 0
    data = _strict_json(out)
    assert data["n_dark"] == 1
    assert data["mean_dark_duration_us"] == pytest.approx(gaps[-1])
    assert data["se_dark_duration_us"] is None
    assert data["se_bright_photons"] is not None


def _write_config(tmp_path, **laser_b):
    cfg = {
        "laser_B": {"rabi": 10.0, "detuning": 8.0, **laser_b},
        "laser_R": {"rabi": 2.5, "detuning": 3.0},
        "laser_C": {"rabi": 0.05, "detuning": 5.0},
    }
    p = tmp_path / "edge.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_steady_rejects_rabi_overflowing_to_infinity(tmp_path, capsys):
    code, out, err = run(capsys, "steady", "--config", _write_config(tmp_path, rabi=1e308))
    assert code == 1
    assert out == ""
    assert err == "nscheme: ConfigError: LaserDrive.rabi must be finite, got inf\n"


def test_floquet_scan_flags_huge_rabi_points(capsys):
    code, out, err = run(capsys, "scan", "--config", "fig6_counter", "--solver", "floquet",
                         "--axis", "laser_B.rabi", "--range", "1e300:1e301", "--points", "3",
                         "--workers", "1")
    assert code == 0
    flags = [line.split(",")[-1] for line in out.strip().split("\n")[1:]]
    assert len(flags) == 3
    assert "NoConvergence" in flags
    assert set(flags) <= {"", "NoConvergence"}
    assert err.endswith("points flagged\n")


@pytest.mark.parametrize("config, solver, flags", [
    ("fig6_counter", "floquet", ["", "NoConvergence", "NoConvergence"]),
    ("fig3a", "carrier", ["", "DegenerateKernel", "DegenerateKernel"]),
])
def test_huge_rabi_points_fail_alone(capsys, config, solver, flags):
    # the overflowing points share a stacked block with a solvable one
    code, out, err = run(capsys, "scan", "--config", config, "--solver", solver,
                         "--axis", "laser_B.rabi", "--range", "10:1e301", "--points", "3", "--json")
    assert code == 0
    data = _strict_json(out)
    assert data["flags"] == flags
    assert data["populations"]["Q"][0] is not None
    assert err == "nscheme: 2 of 3 points flagged\n"


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_floquet_sweep_is_the_floquet_scan(capsys, fmt):
    sweep = ["--config", "fig6_counter", "--axis", "laser_B.rabi", "--range", "10:1e301",
             "--points", "3", *fmt]
    code, out, err = run(capsys, "floquet", *sweep)
    assert (code, err) == (0, "nscheme: 2 of 3 points flagged\n")
    assert (code, out, err) == run(capsys, "scan", "--solver", "floquet", *sweep)


def test_failed_floquet_points_warn_nothing(tmp_path, capsys):
    # the sideband coupling overflows while the carrier generator stays finite
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({
        "laser_B": {"rabi": 10.0, "detuning": 8.0}, "laser_R": {"rabi": 2.5, "detuning": 3.0},
        "laser_C": {"rabi": 1e300, "detuning": 5.0},
        "motion": {"enabled": True, "amplitude_nm": 1e10}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        single = run(capsys, "floquet", "--config", str(path))
        sweep = run(capsys, "floquet", "--config", str(path), "--axis", "laser_R.detuning",
                    "--range", "2:4", "--points", "3")
    assert single == (2, "", "nscheme: NoConvergence: Floquet solution overflowed\n")
    assert sweep[0] == 0 and sweep[2] == "nscheme: 3 of 3 points flagged\n"
    assert [str(w.message) for w in caught] == []
    # the carrier solvers build the overflowing sideband coupling too, but never read it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        steady = run(capsys, "steady", "--config", str(path))
        carrier = run(capsys, "scan", "--config", str(path), "--axis", "laser_R.detuning",
                      "--range", "2:4", "--points", "3")
    assert steady[0] == 2 and steady[2].startswith("nscheme: DegenerateKernel: ")
    assert carrier[0] == 0 and carrier[2] == "nscheme: 3 of 3 points flagged\n"
    assert [str(w.message) for w in caught] == []


def test_evolve_overflow_exits_two_without_warnings(tmp_path, capsys):
    path = _write_config(tmp_path, rabi=1e300)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "evolve", "--config", path, "--method", "eig",
                             "--t-max", "5", "--points", "3")
    assert (code, out) == (2, "")
    assert err == "nscheme: NoConvergence: eigen-propagation overflowed\n"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("argv, message", [
    (("evolve", "--t-max", "inf"), "--t-max must be finite and positive, got inf"),
    (("evolve", "--t-max", "nan"), "--t-max must be finite and positive, got nan"),
    (("g2", "--tau-max", "inf"), "--tau-max must be finite and positive, got inf"),
    (("g2", "--tau-max", "0"), "--tau-max must be finite and positive, got 0.0"),
    (("scan", "--axis", "laser_R.detuning", "--range", "2:inf"),
     "axis range and its width must be finite, got [2.0, inf]"),
])
def test_non_finite_time_or_axis_end_exits_one_without_warnings(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, argv[0], "--config", "fig3a", *argv[1:], "--points", "3")
    assert result == (1, "", f"nscheme: ConfigError: {message}\n")
    assert [str(w.message) for w in caught] == []


def test_scan_over_motion_enabled_is_refused(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a point was solved before the sweep was validated")

    monkeypatch.setattr(scan, "steady_states", never)
    result = run(capsys, "scan", "--config", "fig3a", "--axis", "motion.enabled",
                 "--range", "0:1", "--points", "3")
    assert result == (1, "", "nscheme: ConfigError: MotionSpec.enabled must be True or False, got 0.0\n")


def test_scan_rejects_any_invalid_point_before_solving(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a point was solved before the sweep was validated")

    monkeypatch.setattr(scan, "steady_states", never)
    code, out, err = run(capsys, "scan", "--config", "fig3a", "--axis", "laser_B.rabi",
                         "--range", "1e300:1.7e308", "--points", "5")
    assert code == 1
    assert out == ""
    assert err == "nscheme: ConfigError: LaserDrive.rabi must be finite, got inf\n"


def test_dressed_warning_only_in_json(tmp_path, capsys):
    path = tmp_path / "strong_c.json"
    path.write_text(json.dumps({"laser_B": {"rabi": 10.0, "detuning": 8.0},
                                "laser_R": {"rabi": 2.5, "detuning": 3.0},
                                "laser_C": {"rabi": 5.0, "detuning": 5.0}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "dressed", "--config", str(path))
    assert code == 0
    assert err == ""
    assert [str(w.message) for w in caught] == []
    assert "expansion unreliable" in _strict_json(out)["three_photon"]["warning"]


def test_dressed_survives_huge_detuning(tmp_path, capsys):
    code, out, _ = run(capsys, "dressed", "--config", _write_config(tmp_path, detuning=1e200))
    assert code == 0
    data = _strict_json(out)
    assert data["lambda"]["omega_minus_MHz"] == pytest.approx(-1e200)
    assert "error" in data["three_photon"]


def test_linewidths_dephase_every_entry_point(tmp_path, capsys):
    # 10 kHz on all three lasers; every route must apply the same dephasing
    config = with_linewidths(make_config(), 0.01)
    api = steady_state(build_superoperator(build_hamiltonian(config).h_total, config)).population("Q")
    path = tmp_path / "broad.json"
    path.write_text(json.dumps(config_to_dict(config)))
    code, out, _ = run(capsys, "steady", "--config", str(path))
    assert code == 0
    spectrum = run_scan(config, ScanSpec("laser_C.rabi", 0.0, 0.05, 2), workers=1)
    assert abs(json.loads(out)["populations"]["Q"] - api) < 1e-12
    assert abs(spectrum.population("Q")[1] - api) < 1e-12
    # the dark threshold solves the same config with the C drive off: scan point 0
    bright_rate = config.atom.gamma_p * spectrum.population("P")[0]
    assert default_dark_threshold(config) == pytest.approx(100.0 / bright_rate, rel=1e-12)
