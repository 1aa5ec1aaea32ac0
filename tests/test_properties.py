"""Property test: any config either solves or fails with a documented exit code.

A solved run prints strict JSON (no NaN or Infinity tokens); a failed
one exits 1 (config) or 2 (solver) with one `nscheme: ...` line on
standard error.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nscheme.cli import main
from nscheme.errors import ConfigError
from nscheme.model import config_from_dict

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
    return doc


def _reject(token):
    raise ValueError(f"{token} is not JSON")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
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
        for command in ("steady", "dressed"):
            code, out, err = _run([command, "--config", path])
            assert code in (0, 1, 2), (command, code)
            if code:
                assert out == ""
                assert err.count("\n") == 1 and err.startswith("nscheme: "), (command, err)
            else:
                json.loads(out, parse_constant=_reject)
