"""Command-line interface: subcommands, presets, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import make_config, with_linewidths
from nscheme import __version__, cli, scan
from nscheme.cli import main
from nscheme.dynamics import PopulationTrace
from nscheme.liouvillian import build_hamiltonian, build_superoperator
from nscheme.mcwf import TrajectoryRecord, default_dark_threshold, run_trajectories
from nscheme.model import (GAMMA_Q_DEFAULT, _SCHEMA, config_from_dict, config_to_dict,
                           lamb_dicke_parameters, load_config)
from nscheme.scan import ScanSpec, Spectrum, run_scan
from nscheme.steady import steady_state

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
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


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_scan_refuses_a_worker_count_below_one(capsys, workers):
    result = run(capsys, "scan", "--config", "fig3a", "--axis", "laser_R.detuning",
                 "--range", "2.9:3.1", "--points", "3", f"--workers={workers}")
    assert result == (1, "", f"nscheme: ConfigError: workers must be >= 1, got {workers}\n")


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
    records = [run_trajectories(config, "S", 20.0, [(4, i)])[0] for i in range(3)]
    assert out == "trajectory_id,jump_time_us,channel\n" + "".join(
        cli._csv_rows((rec.jump_times, rec.jump_channels), prefix=f"{i},") for i, rec in enumerate(records))


@pytest.mark.parametrize("args", [("--t-max", "-5"), ("--t-max", "0"), ("--t-max", "nan"),
                                  ("--t-max", "5", "--n-traj", "0"),
                                  ("--t-max", "5", "--n-traj", "-1", "--stats"),
                                  ("--t-max", "5", "--seed", "-1"),
                                  ("--t-max", "5", "--n-traj", "3", "--seed", "-1", "--stats")])
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


def test_unwritable_out_path_names_the_error_type(tmp_path, capsys):
    code, out, err = run(capsys, "steady", "--config", "fig3a", "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("nscheme: FileNotFoundError: [Errno 2] "), err


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
    (record,) = run_trajectories(load_config_from_preset("fig3a"), "S", 5.0, [(0, 0)])
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


@pytest.mark.parametrize("section, key, value", [
    (section, key, value) for section, key in sorted(_SCHEMA) for value in [None, True, "1", [1], {}]
    # the two valid ones: a null gamma_Q selects the default, and motion may be enabled
    if (section, key, value) not in [("atom", "gamma_Q", None), ("motion", "enabled", True)]])
def test_any_json_type_of_a_key_exits_one_with_one_line(tmp_path, capsys, section, key, value):
    doc = config_to_dict(load_config_from_preset("fig3a"))
    doc[section][key] = value
    p = tmp_path / "typed.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "steady", "--config", str(p))
    assert (code, out) == (1, "")
    assert err.startswith("nscheme: ") and err.count("\n") == 1 and f"{section}.{key} must be " in err, err


def test_null_gamma_q_selects_the_default_lifetime(tmp_path):
    doc = config_to_dict(load_config_from_preset("fig3a"))
    doc["atom"]["gamma_Q"] = None
    without = json.loads(json.dumps(doc))
    del without["atom"]["gamma_Q"]
    p = tmp_path / "null.json"
    p.write_text(json.dumps(doc))
    assert load_config(p).atom.gamma_q == GAMMA_Q_DEFAULT
    assert load_config(p) == config_from_dict(without)


@pytest.mark.parametrize("section", ["laser_B", "laser_R", "laser_C", "atom", "motion"])
@pytest.mark.parametrize("value, json_type", [(None, "NoneType"), (5, "int"), ([], "list"), ("x", "str")])
def test_a_section_that_is_not_an_object_exits_one_with_one_line(tmp_path, capsys, section, value, json_type):
    doc = config_to_dict(load_config_from_preset("fig3a"))
    doc[section] = value
    p = tmp_path / "section.json"
    p.write_text(json.dumps(doc))
    assert run(capsys, "steady", "--config", str(p)) == (
        1, "", f"nscheme: ConfigError: {section} must be a JSON object, got {json_type}\n")


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


def _overflowing_two_photon_config(tmp_path):
    # every field is finite, Delta_R - Delta_B is not
    path = tmp_path / "two_photon.json"
    path.write_text(json.dumps({"laser_B": {"rabi": 10.0, "detuning": -2.8e307},
                                "laser_R": {"rabi": 2.5, "detuning": 2.8e307},
                                "laser_C": {"rabi": 0.05, "detuning": 5.0}}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("steady",),
    ("evolve", "--t-max", "5", "--points", "3"),
    ("evolve", "--t-max", "5", "--points", "3", "--method", "rk"),
    ("g2", "--tau-max", "5", "--points", "3"),
    ("traj", "--t-max", "5"),
    ("traj", "--t-max", "5", "--stats"),
])
def test_overflowing_two_photon_detuning_exits_two_with_one_line(tmp_path, capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, argv[0], "--config", _overflowing_two_photon_config(tmp_path), *argv[1:])
    assert result == (2, "", "nscheme: NoConvergence: carrier Hamiltonian overflows the float range\n")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("field", ["rabi", "detuning"])
def test_stepwise_evolve_refuses_a_huge_rate_in_bounded_time(tmp_path, field):
    doc = config_to_dict(load_config_from_preset("fig3a"))
    doc["laser_B"][field] = 1e300  # MHz
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    done = subprocess.run([sys.executable, "-c", "import sys; from nscheme.cli import main; sys.exit(main())",
                           "evolve", "--config", str(path), "--t-max", "5", "--points", "3", "--method", "rk"],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("nscheme: NoConvergence: stepwise integration over ||M||_1 (t_end - t_0)")
    assert done.stderr.count("\n") == 1 and done.stderr.endswith(" exceeds 1e+07\n")


@pytest.mark.parametrize("preset", ["fig3a", "fig3e", "fig4a", "fig4d"])
@pytest.mark.parametrize("t_max", ["3e6", "1e9", "1e15"])
def test_long_evolve_ends_at_the_steady_state(capsys, preset, t_max):
    # the kernel eigenvalue is pinned to 0, so no rounding drift grows with t; what is
    # left is eig's own error in the kernel eigenvector, 2.5e-11 at fig3a, at any t
    code, out, err = run(capsys, "evolve", "--config", preset, "--t-max", t_max, "--points", "3")
    assert (code, err) == (0, "")
    last = np.array(out.splitlines()[-1].split(","), dtype=float)
    pops = json.loads(run(capsys, "steady", "--config", preset)[1])["populations"]
    assert last[0] == float(t_max)
    assert np.abs(last[1:] - [pops[level] for level in "SPDQ"]).max() < 1e-10


def test_long_g2_tail_is_one(capsys):
    code, out, err = run(capsys, "g2", "--config", "fig3e", "--tau-max", "1e9", "--points", "3")
    assert (code, err) == (0, "")
    tail = np.array([row.split(",") for row in out.splitlines()[2:]], dtype=float)[:, 1]
    assert np.abs(tail - 1.0).max() < 1e-9


@pytest.mark.parametrize("argv, message", [
    (("traj", "--config", "fig3a", "--t-max", "1e9", "--n-traj", "1"),
     "nscheme: NonPhysicalState: 1 trajectories of 1000000000.0 us at up to 138.2 photons/us exceed "
     "n_traj (32 + (gamma_P + gamma_Q) t_max) <= 5e+08\n"),
    (("traj", "--config", "fig3a", "--t-max", "20", "--n-traj", "1000000000000"),
     "nscheme: NonPhysicalState: 1000000000000 trajectories of 20.0 us at up to 138.2 photons/us exceed "
     "n_traj (32 + (gamma_P + gamma_Q) t_max) <= 5e+08\n"),
    (("traj", "--config", "fig3a", "--t-max", "1e-9", "--n-traj", "1000000000000"),
     "nscheme: NonPhysicalState: 1000000000000 trajectories of 1e-09 us at up to 138.2 photons/us exceed "
     "n_traj (32 + (gamma_P + gamma_Q) t_max) <= 5e+08\n"),
    (("floquet", "--config", "fig6_counter", "--order", "100000000"),
     "nscheme: ConfigError: Floquet order must lie in [1, 64], got 100000000\n"),
    (("scan", "--config", "fig6_counter", "--solver", "floquet", "--order", "100000000",
      "--axis", "laser_R.detuning", "--range", "1.8:4.2"),
     "nscheme: ConfigError: floquet_order must lie in [1, 64], got 100000000\n"),
    (("floquet", "--config", "fig6_counter", "--order", "100000000", "--axis", "laser_R.detuning",
      "--range", "1.8:4.2"),
     "nscheme: ConfigError: floquet_order must lie in [1, 64], got 100000000\n"),
    (("scan", "--config", "fig3a", "--axis", "laser_R.detuning", "--range", "2:4", "--points", "1000000000000"),
     "nscheme: ConfigError: a scan takes at most 1000000 points, got 1000000000000\n"),
    (("floquet", "--config", "fig6_counter", "--axis", "laser_R.detuning", "--range", "1.8:4.2",
      "--points", "1000000000000"),
     "nscheme: ConfigError: a scan takes at most 1000000 points, got 1000000000000\n"),
    (("evolve", "--config", "fig3a", "--t-max", "5", "--points", "1000000000000"),
     "nscheme: ConfigError: --points must be at most 1000000, got 1000000000000\n"),
    (("g2", "--config", "fig3e", "--tau-max", "5", "--points", "1000001"),
     "nscheme: ConfigError: --points must be at most 1000000, got 1000001\n"),
])
def test_unbounded_work_is_refused_up_front(argv, message):
    done = subprocess.run([sys.executable, "-c", "import sys; from nscheme.cli import main; sys.exit(main())",
                           *argv], env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message)


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_scan_flags_overflowing_two_photon_detuning_quietly(tmp_path, capsys, fmt):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "scan", "--config", _overflowing_two_photon_config(tmp_path),
                             "--axis", "laser_C.detuning", "--range", "4:6", "--points", "3", *fmt)
    assert (code, err) == (0, "nscheme: 3 of 3 points flagged\n")
    flags = json.loads(out)["flags"] if fmt else [row.split(",")[-1] for row in out.splitlines()[1:]]
    assert flags == ["NoConvergence"] * 3
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


@pytest.mark.parametrize("argv", [
    ("evolve", "--t-max", "5", "--points", "-1"),
    ("evolve", "--t-max", "5", "--points", "1"),
    ("g2", "--tau-max", "5", "--points", "-3"),
    ("g2", "--tau-max", "5", "--points", "0"),
])
def test_too_few_points_exit_one_with_one_line(capsys, argv):
    result = run(capsys, argv[0], "--config", "fig3a", *argv[1:])
    assert result == (1, "", f"nscheme: ConfigError: --points must be at least 2, got {argv[-1]}\n")


def test_time_grids_take_up_to_max_points():
    assert cli._points(scan.MAX_POINTS) == scan.MAX_POINTS


@pytest.mark.parametrize("velocity, message", [
    ("nan", "velocity must be finite, got nan"),
    ("inf", "velocity must be finite, got inf"),
    ("-inf", "velocity must be finite, got -inf"),
    ("1e308", "Doppler rate overflows the float range at velocity 1e+308 m/s"),
])
def test_dressed_non_finite_doppler_rate_is_an_embedded_error(capsys, velocity, message):
    code, out, err = run(capsys, "dressed", "--config", "fig6_counter", f"--velocity={velocity}")
    assert (code, err) == (0, "")
    assert _strict_json(out)["doppler"] == {"error": f"ConfigError: {message}"}


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


@pytest.mark.parametrize("config, axis, rng, points, message", [
    ("fig3a", "laser_B.rabi", "-1:1", 3, "NegativeRate: rabi must be >= 0, got -6.283185307179586"),
    ("fig3a", "laser_B.wavelength_nm", "-1:1", 3, "NegativeRate: wavelength must be > 0, got -1.0"),
    ("fig3a", "laser_R.wavelength_nm", "0:1", 3, "NegativeRate: wavelength must be > 0, got 0.0"),
    ("fig3a", "laser_C.linewidth", "-1:1", 3, "NegativeRate: linewidth must be >= 0, got -6.283185307179586"),
    ("fig3a", "laser_B.direction", "-1:1", 3, "BadDirection: direction must be +1 or -1, got 0.0"),
    ("fig3a", "atom.gamma_P", "0:1", 3, "NegativeRate: gamma_p must be > 0, got 0.0"),
    ("fig3a", "atom.gamma_Q", "-1:1", 3, "NegativeRate: gamma_q must be >= 0, got -6.283185307179586"),
    ("fig3a", "atom.beta_PS", "0:1", 3, "BranchingNotNormalized: beta_ps + beta_pd must equal 1, got 0.0625"),
    ("fig3a", "atom.beta_PD", "0:1", 3, "BranchingNotNormalized: beta_ps + beta_pd must equal 1, got 0.9375"),
    ("fig3a", "atom.beta_PS", "2:3", 3,
     "BranchingNotNormalized: branching fractions must lie in [0, 1], got 2.0, 0.0625"),
    ("fig3a", "motion.enabled", "0:1", 3, "ConfigError: MotionSpec.enabled must be True or False, got 0.0"),
    ("fig6_counter", "motion.trap_frequency", "0:1", 3, "NegativeRate: trap_frequency must be > 0, got 0.0"),
    ("fig6_counter", "motion.amplitude_nm", "-1:1", 3, "NegativeRate: amplitude must be >= 0, got -1.0"),
    ("fig3a", "laser_R.phase", "0:1", 3, "ConfigError: unknown parameter path 'laser_R.phase'"),
    ("fig3a", "atom.mass_amu", "0:1", 3, "ConfigError: unknown parameter path 'atom.mass_amu'"),
    ("fig3a", "motion.direction", "0:1", 3, "ConfigError: unknown parameter path 'motion.direction'"),
    ("fig3a", "nonsense.rabi", "0:1", 3, "ConfigError: unknown parameter path 'nonsense.rabi'"),
    ("fig3a", "laser_B.rabi.x", "0:1", 3, "ConfigError: unknown parameter path 'laser_B.rabi.x'"),
    # point 0 fails the sign rule, point 1 the finiteness rule: the first point decides
    ("fig3a", "laser_B.rabi", "-1:1e308", 2, "NegativeRate: rabi must be >= 0, got -6.283185307179586"),
    # one point failing two rules: the earlier rule decides
    ("fig3a", "laser_B.rabi", "-1e308:0", 3, "ConfigError: LaserDrive.rabi must be finite, got -inf"),
])
@pytest.mark.parametrize("solver", ["carrier", "floquet"])
def test_sweep_refuses_the_first_invalid_point_before_solving(capsys, monkeypatch, config, axis, rng,
                                                              points, message, solver):
    def never(*args, **kwargs):
        raise AssertionError("a point was solved before the sweep was validated")

    monkeypatch.setattr(scan, "steady_states", never)
    monkeypatch.setattr(scan, "solve_floquet_stack", never)
    result = run(capsys, "scan", "--config", config, "--axis", axis, f"--range={rng}",
                 "--points", str(points), "--solver", solver)
    assert result == (1, "", f"nscheme: {message}\n")


def test_sweep_over_valid_directions_solves(capsys):
    code, out, err = run(capsys, "scan", "--config", "fig3a", "--axis", "laser_B.direction",
                         "--range=-1:1", "--points", "2")
    assert (code, err) == (0, "")
    assert [row.split(",")[-1] for row in out.splitlines()[1:]] == ["", ""]


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


# values whose printing differs most easily between numpy scalars and floats
_EDGES = np.array([float("nan"), -0.0, 5e-324, 1e300, 1.0 / 3.0, -2.5e-7, 1e16, float("inf")])


def test_writers_keep_the_per_row_bytes(capsys, monkeypatch):
    # each expected text is the per-row formatting of numpy scalars that
    # the writers used before they formatted whole columns at once; every
    # output goes through cli.main, with the solver it calls stubbed
    n = _EDGES.size
    pops = np.zeros((n, 4))
    pops[:, 0] = [1.0, -0.0, 5e-324, 0.5, 1.0 / 3.0, 0.25, 1e-9, 0.0]
    pops[:, 2] = 1e-300
    pops[:, 3] = 1.0 - pops.sum(axis=1)
    monkeypatch.setattr(cli, "evolve", lambda sup, rho0, times, method: PopulationTrace(times=_EDGES, populations=pops))
    code, out, _ = run(capsys, "evolve", "--config", "fig3a", "--t-max", "1.0", "--points", str(n))
    assert code == 0
    expected = "t_us,P_S,P_P,P_D,P_Q\n" + "".join(
        "%.12g,%.12g,%.12g,%.12g,%.12g\n" % (t, *row) for t, row in zip(_EDGES, pops))
    assert out == expected

    flagged = pops.copy()
    flagged[::3] = np.nan
    flags = tuple("DegenerateKernel" if i % 3 == 0 else "" for i in range(n))
    spectrum = Spectrum(axis_mhz=_EDGES[::-1].copy(), populations=flagged, residuals=_EDGES.copy(),
                        flags=flags, metadata={"version": __version__})
    monkeypatch.setattr(cli, "run_scan", lambda config, spec, workers: spectrum)
    scan_argv = ("scan", "--config", "fig3a", "--axis", "laser_R.detuning", "--range", "2:4", "--points", str(n))
    code, out, _ = run(capsys, *scan_argv)
    assert code == 0
    expected = "axis_MHz,P_S,P_P,P_D,P_Q,residual,flag\n"
    for i in range(n):
        nums = [spectrum.axis_mhz[i], *flagged[i], _EDGES[i]]
        expected += ",".join("%.12g" % v for v in nums) + f",{flags[i]}\n"
    assert out == expected
    code, out, _ = run(capsys, *scan_argv, "--json")
    assert code == 0
    old = {
        "metadata": {"version": __version__},
        "axis_MHz": [float(v) for v in spectrum.axis_mhz],
        "populations": {lbl: [None if np.isnan(v) else float(v) for v in flagged[:, j]]
                        for j, lbl in enumerate("SPDQ")},
        "residuals": [None if np.isnan(v) else float(v) for v in _EDGES],
        "flags": list(flags),
    }
    assert out == json.dumps(old, indent=2) + "\n"

    times = [-0.0, 5e-324, 1e-300, 1.0 / 3.0, 1e16, 1e300]
    records = [TrajectoryRecord(seed=0, t_max=1e300, jump_times=times, jump_channels=("P->S", "P->D", "Q->S") * 2),
               TrajectoryRecord(seed=1, t_max=1.0, jump_times=[], jump_channels=()),
               TrajectoryRecord(seed=2, t_max=1.0, jump_times=[0.5], jump_channels=("P->D",))]
    monkeypatch.setattr(cli, "run_trajectories", lambda config, psi0, t_max, seeds: records)
    code, out, _ = run(capsys, "traj", "--config", "fig3a", "--t-max", "1.0", "--n-traj", str(len(records)))
    assert code == 0
    expected = "trajectory_id,jump_time_us,channel\n" + "".join(
        "%d,%.12g,%s\n" % (i, t, ch)
        for i, rec in enumerate(records) for t, ch in zip(rec.jump_times, rec.jump_channels))
    assert out == expected

    monkeypatch.setattr(cli, "g2", lambda sup, rho, tau, config, channel: _EDGES[:tau.size].copy())
    code, out, _ = run(capsys, "g2", "--config", "fig3a", "--tau-max", "3.0", "--points", str(n))
    assert code == 0
    tau = np.linspace(0.0, 3.0, n)
    assert out == "tau_us,g2\n" + "".join("%.12g,%.12g\n" % (t, v) for t, v in zip(tau, _EDGES))
