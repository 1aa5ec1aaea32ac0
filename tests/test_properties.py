"""Property test: any config either solves or fails with a documented exit code.

Each config goes through steady, dressed, a 3-point carrier and
Floquet scan, a single-point floquet, a short evolve on the default
route with and without --fit, a short g2, and two short trajectories
as a photon list and as --stats; dressed also runs with a --velocity
of any magnitude, NaN or infinite. A solved run prints strict JSON (no
NaN or Infinity tokens), a time or delay CSV of finite numbers, or a
photon list of finite jump times on known channels; a failed one exits
1 (config) or 2 (solver) with one `nscheme: ...` line on standard
error. No run raises a Python warning.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nscheme.cli import main
from nscheme.errors import ConfigError
from nscheme.mcwf import CHANNELS
from nscheme.model import _SCHEMA, config_from_dict

# finite values of every magnitude and sign, leaning to the physical
# (non-negative) side so that most configs get past validation
EDGES = [0.0, -0.0, -1.0, 1e-300, -1e-300, 1e-10, 1e10, 1e300, -1e300, 1e308, -1.7e308, 5e-324]
numbers = st.one_of(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.sampled_from(EDGES),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _overrides(keys):
    return st.dictionaries(st.sampled_from(keys), numbers, max_size=1)


@st.composite
def config_dicts(draw):
    doc = {}
    for name, rabi, detuning in (("laser_B", 10.0, 8.0), ("laser_R", 2.5, 3.0), ("laser_C", 0.05, 5.0)):
        doc[name] = {"rabi": rabi, "detuning": detuning,
                     "direction": draw(st.sampled_from([1, -1])),
                     **draw(_overrides(["rabi", "detuning", "wavelength_nm", "linewidth"]))}
    doc["atom"] = draw(_overrides(["gamma_P", "gamma_Q", "mass_amu"]))
    if draw(st.booleans()):
        beta_ps = draw(st.floats(min_value=0.0, max_value=1.0))
        doc["atom"].update(beta_PS=beta_ps, beta_PD=1.0 - beta_ps)
    doc["motion"] = {"enabled": draw(st.booleans()),
                     **draw(_overrides(["trap_frequency", "amplitude_nm"]))}
    if draw(st.integers(0, 4)) == 0:
        section = draw(st.sampled_from([None, *doc]))
        (doc if section is None else doc[section])[draw(st.sampled_from(["bogus", "Rabi", "laser_D"]))] = 1.0
    # JSON values of the wrong type: for a key, then for a whole section
    if draw(st.integers(0, 4)) == 0:
        section, key = draw(st.sampled_from(sorted(_SCHEMA)))
        doc[section][key] = draw(st.sampled_from([None, True, "1", [1], {}]))
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from([None, 5, [], "x"]))
    return doc


def _reject(token):
    raise ValueError(f"{token} is not JSON")


def _check_output(out):
    """Strict JSON, a time or delay CSV whose every field below the header is a finite
    number, or a photon list whose every jump time is finite and channel known."""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    if out.startswith(("t_us,", "tau_us,")):
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row), out
    elif out.startswith("trajectory_id,"):
        assert all(math.isfinite(float(t)) and channel in CHANNELS for _, t, channel in rows), out
    else:
        json.loads(out, parse_constant=_reject)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    # a Python warning would print more lines to standard error
    assert [str(w.message) for w in caught] == [], argv
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=config_dicts())
def test_any_config_solves_or_fails_with_one_line(doc):
    try:
        config_from_dict(doc)
    except ConfigError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        sweep = ["--axis", "laser_R.detuning", "--range", "2:4", "--points", "3", "--json"]
        evolve = ["evolve", "--t-max", "5", "--points", "5"]
        traj = ["traj", "--t-max", "5", "--n-traj", "2"]
        for command in (["steady"], ["dressed"], ["scan", *sweep], ["scan", "--solver", "floquet", *sweep],
                        ["floquet", "--json"], evolve, [*evolve, "--fit"],
                        ["g2", "--tau-max", "5", "--points", "5"], traj, [*traj, "--stats"]):
            code, out, err = _run([*command, "--config", path])
            assert code in (0, 1, 2), (command, code)
            if code:
                assert out == ""
                assert err.count("\n") == 1 and err.startswith("nscheme: "), (command, err)
            else:
                _check_output(out)


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=config_dicts(), velocity=st.one_of(numbers, st.sampled_from([math.nan, math.inf, -math.inf])))
def test_dressed_velocity_solves_or_fails_with_one_line(doc, velocity):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        # the = form: argparse would read a bare -inf as an option
        code, out, err = _run(["dressed", f"--velocity={velocity!r}", "--config", path])
    assert code in (0, 1), code
    if code:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("nscheme: "), err
    else:
        json.loads(out, parse_constant=_reject)
