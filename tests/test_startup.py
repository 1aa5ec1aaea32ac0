"""Start-up cost and process-level state of the command line.

Each test runs a fresh interpreter, so what it sees in sys.modules and
in the cached parser is what a one-shot `nscheme` call sees.
"""

import json
import os
import subprocess
import sys

import pytest

import nscheme

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nscheme.__file__)))

# runs main once per argv in this process and prints [[code, stdout, stderr], ...]
CALLS = """
import contextlib, io, json, sys
from nscheme.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _python(code, *args):
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded(code):
    """The scipy subpackages (scipy.<name>, private ones included) in sys.modules after running code, sorted."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.') and m.count('.') == 1)))")
    return json.loads(_python(probe).strip().split("\n")[-1])


def test_import_loads_no_scipy_subpackage():
    assert _loaded("import nscheme") == []
    assert _loaded("import nscheme.cli") == []


def test_rk_propagation_loads_scipy_integrate_on_demand():
    code = """
import contextlib, io
from nscheme.cli import main
import sys
before = "scipy.integrate" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["evolve", "--config", "fig3a", "--t-max", "1", "--points", "5", "--method", "rk"]) == 0
assert not before
assert out.getvalue().count("\\n") == 6
"""
    assert "scipy.integrate" in _loaded(code)


SWEEP = ["--axis", "laser_C.detuning", "--range", "4.99:5.01", "--points", "3"]


@pytest.mark.parametrize("argv", [
    ["steady", "--config", "fig3a"],
    ["scan", "--config", "fig3a", *SWEEP],
    ["scan", "--config", "fig6_counter", "--solver", "floquet", *SWEEP],
    ["floquet", "--config", "fig6_counter"],
    ["dressed", "--config", "fig3a", "--velocity", "1"],
    ["traj", "--config", "fig3a", "--t-max", "5", "--n-traj", "2"],
    ["evolve", "--config", "fig3a", "--t-max", "1", "--points", "5"],
    ["evolve", "--config", "fig4d", "--t-max", "800", "--points", "4001", "--fit"],
    ["g2", "--config", "fig3e", "--tau-max", "1", "--points", "5"],
], ids=["steady", "scan-carrier", "scan-floquet", "floquet", "dressed", "traj", "evolve", "evolve-fit", "g2"])
def test_default_propagation_loads_no_scipy_subpackage(argv):
    code = f"""
import contextlib, io
from nscheme.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""
    assert _loaded(code) == []


def test_cached_parser_keeps_no_state_between_calls():
    calls = [
        ["steady"],  # usage error: --config missing
        ["--version"],
        ["steady", "--config", "fig3a", "--gamma-q-zero"],
        ["steady", "--config", "fig3a"],
        ["floquet", "--config", "fig6_counter", *SWEEP],
        ["floquet", "--config", "fig6_counter"],
    ]
    in_one_process = json.loads(_python(CALLS, json.dumps(calls)))
    first_calls = [json.loads(_python(CALLS, json.dumps([argv])))[0] for argv in calls]
    assert in_one_process == first_calls

    usage = in_one_process[0]
    assert usage[0] == 1 and usage[1] == ""
    assert usage[2].startswith("usage: nscheme steady")
    assert usage[2].endswith("error: the following arguments are required: --config\n")
    assert in_one_process[1][:2] == [0, f"nscheme {nscheme.__version__}\n"]
    # the sequence would hide a leak if neighbouring calls printed the same
    assert in_one_process[2][1] != in_one_process[3][1]
    assert in_one_process[4][1].startswith("axis_MHz,")
    assert json.loads(in_one_process[5][1])["order"] == 2


def test_cli_import_loads_no_concurrent_futures():
    probe = "import sys\nimport nscheme.cli\nprint('concurrent.futures' in sys.modules)"
    assert _python(probe).strip() == "False"


def test_threaded_scan_leaves_no_thread_behind():
    code = """
import contextlib, io, threading
from nscheme.cli import main
before = threading.active_count()
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["scan", "--config", "fig3a", "--axis", "laser_R.detuning", "--range", "2:4",
                 "--points", "300", "--workers", "3"]) == 0
print(before, threading.active_count())
"""
    before, after = _python(code).split()
    assert after == before
