"""The per-operation paths call ndarray methods and ufuncs, not numpy's
Python-level convenience wrappers, and the replacements keep numpy's bits.

A wrapper such as ``np.any`` or ``np.flatnonzero`` costs several times the
method or ufunc that gives the same bits (about 2.7 against 0.95 us for
``np.any`` and ``.any()`` on a 30-element array), and a synthesis on about
30 points pays for calls, not arithmetic.  The guard below counts, under
``sys.setprofile``, the calls that ``exactquad`` frames make into those
wrappers; the properties check each replacement formula against numpy.
"""

import io
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

import exactquad
from exactquad import cli, hull, measure, stats
from exactquad.hull import CurveSystem
from exactquad.measure import measure_from_json
from exactquad.synth import synthesize_rule

_PACKAGE = os.path.dirname(exactquad.__file__)
_NUMPY = os.path.dirname(np.__file__)
# numpy's Python-level wrappers, by module stem (without leading
# underscores or an "_impl" suffix, so numpy 1.x and 2.x read alike) and
# function name; None takes every function of the module
_WRAPPERS = {
    "fromnumeric": None,
    "numeric": {"flatnonzero"},
    "function_base": {"linspace"},
    "shape_base": None,
    "linalg": {"norm"},
    "getlimits": {"__new__"},  # np.finfo(...)
}
# the calls that the paths below make into _WRAPPERS: none are left
WRAPPER_CALL_BOUND = 0


def _stem(path):
    stem = os.path.splitext(os.path.basename(path))[0].lstrip("_")
    return stem[:-len("_impl")] if stem.endswith("_impl") else stem


def _is_wrapper(code):
    if not code.co_filename.startswith(_NUMPY) or code.co_name.endswith("_dispatcher"):
        return False
    names = _WRAPPERS.get(_stem(code.co_filename), ())
    return names is None or code.co_name in names


def _wrapper_calls(run, is_caller=lambda path: path.startswith(_PACKAGE)):
    """``(site, wrapper)`` names of every call that a frame whose file
    ``is_caller`` accepts makes into a wrapper while ``run()`` runs.  The
    dispatch frames of numpy 1.x (``overrides.py``) between the two are
    skipped."""
    calls = []

    def profile(frame, event, arg):
        if event != "call" or not _is_wrapper(frame.f_code):
            return
        caller = frame.f_back
        while caller is not None and _stem(caller.f_code.co_filename) == "overrides":
            caller = caller.f_back
        if caller is not None and is_caller(caller.f_code.co_filename):
            calls.append((f"{os.path.basename(caller.f_code.co_filename)}:"
                          f"{caller.f_code.co_name}",
                          f"{_stem(frame.f_code.co_filename)}.{frame.f_code.co_name}"))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def _synthesize(functions, measure_obj):
    m = measure_from_json(measure_obj)
    return synthesize_rule(CurveSystem.from_texts(functions, m.interval), m)


_ACCEPTANCE_STYLE = (
    ["0.3+1.2*t+-0.7*t^2", "1.1*sin(2*t)+0.4*cos(t)", "0.8*exp(-0.5*t)"],
    {"interval": {"lower": -0.5, "upper": 1.5},
     "density": "(0.2+0.5*t+-0.3*t^2)^2+0.1",
     "atoms": [{"t": 0.1, "mass": 0.3}, {"t": 1.2, "mass": 0.2}]})
_OPEN_INTERVAL = (
    ["t", "t^2", "t^3"],
    {"interval": {"lower": 0, "upper": "inf", "lower_open": True},
     "density": "exp(-t)", "atoms": []})
_COVWITNESS = {
    "f": "0.5+1.2*t+-0.4*t^3", "g": "sin(1.3*t)+0.2*t^2",
    "measure": {"interval": {"lower": -0.4, "upper": 1.1},
                "density": "(0.3+0.6*t)^2+0.2", "atoms": []}}


def test_per_operation_paths_call_no_numpy_wrappers(tmp_path):
    path = tmp_path / "covwitness.json"
    path.write_text(json.dumps(_COVWITNESS))
    out = io.StringIO()

    def run():
        _synthesize(*_ACCEPTANCE_STYLE)
        _synthesize(*_OPEN_INTERVAL)
        assert cli.run(["covwitness", str(path)], stdout=out,
                       stderr=io.StringIO()) == 0

    calls = _wrapper_calls(run)
    assert len(calls) <= WRAPPER_CALL_BOUND, sorted(set(calls))
    assert json.loads(out.getvalue())["t1"] != json.loads(out.getvalue())["t2"]


def test_the_counter_sees_wrapper_calls():
    # a control: the same counter, watching this file, sees its own calls
    # (np.any, np.flatnonzero, np.linalg.norm) on this numpy version
    x = np.array([0.0, 1.0, -1.0])

    def run():
        np.any(x > 0)
        np.flatnonzero(x)
        np.linalg.norm(x)

    calls = _wrapper_calls(run, lambda path: path == __file__)
    assert [wrapper for _, wrapper in calls] == [
        "fromnumeric.any", "numeric.flatnonzero", "linalg.norm"]


# --- the replacements keep numpy's bits ---------------------------------------

_FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def _brackets(draw):
    """Brackets [lo, hi]: a few ulps wide, near the curve walk's 8-ulp
    width floor, or of any width."""
    lo = draw(_FINITE)
    if draw(st.booleans()):
        hi = lo
        for _ in range(draw(st.integers(1, 40))):
            hi = float(np.nextafter(hi, math.inf))
    else:
        hi = lo + draw(st.floats(min_value=0.0, max_value=1e300, exclude_min=True))
    assume(math.isfinite(hi) and hi > lo)
    return lo, hi


# each caller's step table and the points of it that the caller uses: the
# walk's even rounds, the integrator's starting edges, the Gruss extrema scan
@pytest.mark.parametrize("steps, part", [
    (hull._EVEN_STEPS, slice(1, -1)),
    (measure._HALVES, slice(None)),
    (stats._SCAN_STEPS, slice(None)),
], ids=["even-round", "starting-edges", "gruss-scan"])
@given(bracket=_brackets())
def test_linspace_tables_are_np_linspace(steps, part, bracket):
    lo, hi = bracket
    # below that step linspace switches formulas (see measure._linspace)
    assume((hi - lo) / (steps.size - 1) > 0.0)
    want = np.linspace(lo, hi, steps.size)[part]
    assert measure._linspace(lo, hi, steps)[part].tobytes() == want.tobytes()


@given(hnp.arrays(np.float64, st.integers(1, 16),
                  elements=st.floats(min_value=-1e200, max_value=1e200)))
def test_sqrt_of_dot_is_norm(r):
    with np.errstate(over="ignore"):  # both overflow to inf alike
        assert math.sqrt(r.dot(r)) == float(np.linalg.norm(r))


_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@given(st.data(), _SIGNED_ZEROS | _FINITE, _SIGNED_ZEROS | _FINITE)
def test_clip_method_is_np_clip(data, a, b):
    a, b = min(a, b), max(a, b)
    # values on the bounds and both zeros among arbitrary ones
    elements = st.sampled_from([a, b, 0.0, -0.0]) | _FINITE
    x = data.draw(hnp.arrays(np.float64, st.integers(1, 16), elements=elements))
    assert x.clip(a, b).tobytes() == np.clip(x, a, b).tobytes()
