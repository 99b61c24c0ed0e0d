import ast
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import exactquad
from exactquad import hull
from exactquad.cli import chebyshev_sample_test, run
from exactquad.hull import RANK_TOL, CurveSystem
from exactquad.measure import IntervalSpec

UNIT_MEASURE = {
    "interval": {"lower": 0, "upper": 1, "lower_open": False, "upper_open": False},
    "density": "1",
    "atoms": [],
}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(path)


class TestSynthesizeCommand:
    def test_mean_of_uniform(self, tmp_path):
        path = write(tmp_path, "p.json",
                     {"functions": ["t"], "measure": UNIT_MEASURE})
        code, out, err = invoke(["synthesize", path])
        assert code == 0
        rule = json.loads(out)
        assert rule["nodes"] == pytest.approx([0.5], abs=1e-9)
        assert rule["weights"] == pytest.approx([1.0], rel=1e-10)
        assert rule["rank_used"] == 1
        assert "synthesized" in err

    def test_tolerances_block_and_flags(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "functions": ["t", "t^2"],
            "measure": UNIT_MEASURE,
            "tolerances": {"tol": 1e-8},
        })
        code, out, _ = invoke(["synthesize", path, "--tol", "1e-9"])
        assert code == 0

    def test_grid_flag_is_gone(self, tmp_path):
        # synthesis discretizes on the integrator's nodes; there is no grid
        path = write(tmp_path, "p.json", {"functions": ["t"], "measure": UNIT_MEASURE})
        code, out, _ = invoke(["synthesize", path, "--grid", "64"])
        assert code == 2 and out == ""

    def test_malformed_json_offset(self, tmp_path):
        path = write(tmp_path, "bad.json", "{ nope")
        code, out, err = invoke(["synthesize", path])
        assert code == 2
        msg = json.loads(err.splitlines()[0])
        assert msg["kind"] == "schema"
        assert "offset 2" in msg["message"]

    def test_unknown_field_rejected(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "functions": ["t"], "measure": UNIT_MEASURE, "extra": 1})
        code, _, err = invoke(["synthesize", path])
        assert code == 2
        assert json.loads(err.splitlines()[0])["kind"] == "schema"

    def test_expression_syntax_error_is_validation(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "functions": ["t +"], "measure": UNIT_MEASURE})
        code, _, err = invoke(["synthesize", path])
        assert code == 2
        assert json.loads(err.splitlines()[0])["kind"] == "syntax"

    def test_numerical_failure_exit_code(self, tmp_path):
        measure = {
            "interval": {"lower": 0, "upper": 1,
                         "lower_open": True, "upper_open": False},
            "density": "1/t",
            "atoms": [],
        }
        path = write(tmp_path, "p.json", {"functions": ["t"], "measure": measure})
        code, _, err = invoke(["synthesize", path])
        assert code == 3
        assert json.loads(err.splitlines()[0])["kind"] == "divergent-mass"

    @pytest.mark.parametrize("f,density", [
        ("t", "(1+abs(t))^-2"),
        ("t^3", "1/(1+t^4)"),
        ("t", "1/(1+t^2)"),
    ])
    def test_principal_value_is_not_an_integral(self, tmp_path, f, density):
        # symmetric windows cancel the two tails of f, so only the integral
        # of |f| shows that f is not integrable
        measure = {"interval": {"lower": "-inf", "upper": "inf"},
                   "density": density}
        path = write(tmp_path, "p.json", {"functions": [f], "measure": measure})
        code, out, err = invoke(["synthesize", path])
        assert code == 3 and out == ""
        assert json.loads(err.splitlines()[0])["kind"] == "non-convergence"

    def test_missing_file(self):
        code, _, err = invoke(["synthesize", "/nonexistent/x.json"])
        assert code == 2

    def test_deterministic_output(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "functions": ["cos(t)", "sin(t)", "t"],
            "measure": {"interval": {"lower": 0, "upper": 3,
                                     "lower_open": False, "upper_open": False},
                        "density": "1+t^2",
                        "atoms": [{"t": 1.5, "mass": 0.25}]},
        })
        outputs = {invoke(["synthesize", path])[1] for _ in range(3)}
        assert len(outputs) == 1


class TestVerifyCommand:
    def test_round_trip(self, tmp_path):
        prob = {"functions": ["cos(t)", "sin(t)"],
                "measure": {"interval": {"lower": 0, "upper": 3.14,
                                         "lower_open": False,
                                         "upper_open": False},
                            "density": "1", "atoms": []}}
        path = write(tmp_path, "p.json", prob)
        code, out, _ = invoke(["synthesize", path])
        assert code == 0
        prob["rule"] = json.loads(out)
        path2 = write(tmp_path, "v.json", prob)
        code2, out2, _ = invoke(["verify", path2])
        assert code2 == 0
        assert json.loads(out2)["passed"] is True


class TestReduceCommand:
    def test_three_to_two(self, tmp_path):
        path = write(tmp_path, "r.json", {
            "functions": ["t", "t^2"],
            "interval": {"lower": 0, "upper": 1,
                         "lower_open": False, "upper_open": False},
            "combination": {"params": [0.1, 0.5, 0.9],
                            "weights": [0.25, 0.5, 0.25],
                            "total": 1.0},
        })
        code, out, err = invoke(["reduce", path])
        assert code == 0
        comb = json.loads(out)
        assert len(comb["params"]) <= 2
        assert math.fsum(comb["weights"]) == pytest.approx(1.0, rel=1e-12)

    def test_five_points_prune_and_walk_seeded_to_two(self, tmp_path):
        # the CI example: five points of (t, t^2) exceed n + 1 = 3, so the
        # command prunes, then walks with its own input rows as seeds
        params = [0.1, 0.3, 0.5, 0.7, 0.9]
        weights = [0.1, 0.3, 0.2, 0.25, 0.15]
        path = write(tmp_path, "r.json", {
            "functions": ["t", "t^2"],
            "interval": {"lower": 0, "upper": 1},
            "combination": {"params": params, "weights": weights, "total": 1},
        })
        code, out, _ = invoke(["reduce", path])
        assert code == 0
        comb = json.loads(out)
        assert len(comb["params"]) <= 2
        t, w = np.array(comb["params"]), np.array(comb["weights"])
        v = np.array(weights) @ np.column_stack([params, np.square(params)])
        assert np.max(np.abs(w @ np.column_stack([t, t * t]) - v)) <= 1e-9


def test_module_entry_point_runs_the_command(tmp_path):
    path = write(tmp_path, "g.json", {"f": "t", "g": "t^2", "measure": UNIT_MEASURE})
    env = dict(os.environ, PYTHONPATH=str(Path(exactquad.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "exactquad.cli", "gruss", path],
                          capture_output=True, text=True, env=env, timeout=60)
    code, out, _ = invoke(["gruss", path])
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and out



def test_package_entry_point_runs_without_warning(tmp_path):
    path = write(tmp_path, "g.json", {"f": "t", "g": "t^2", "measure": UNIT_MEASURE})
    env = dict(os.environ, PYTHONPATH=str(Path(exactquad.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "exactquad", "gruss", path],
                          capture_output=True, text=True, env=env, timeout=60)
    code, out, _ = invoke(["gruss", path])
    assert proc.returncode == code == 0
    assert proc.stdout == out
    assert "Warning" not in proc.stderr


_NO_SCIPY_SCRIPT = """
import io, sys
import exactquad
from exactquad.cli import run
from exactquad.expr import parse
from exactquad.hull import CurveSystem
from exactquad.measure import IntervalSpec, MeasureSpec
from exactquad.synth import synthesize_rule
m = MeasureSpec(IntervalSpec(0, 1), density=parse("1+t"))
assert len(synthesize_rule(CurveSystem.from_texts(["t", "t^2"], m.interval), m)) == 2
for argv in (["gruss", sys.argv[1]], ["chebyshev-test", sys.argv[2]]):
    assert run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_import_synthesis_and_gruss_load_no_scipy(tmp_path):
    # scipy is a test-only dependency: importing the package, a synthesis,
    # a Gruss report and an alternant test (one that finds its witness)
    # may load no scipy module
    path = write(tmp_path, "g.json", {"f": "t", "g": "t^2", "measure": UNIT_MEASURE})
    alt = write(tmp_path, "ch.json", {"functions": ["t", "t^3"], "interval": {
        "lower": -1, "upper": 1, "lower_open": False, "upper_open": False}})
    env = dict(os.environ, PYTHONPATH=str(Path(exactquad.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, path, alt],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    # the static half of the guard above: no import statement of the
    # package, at module level or inside a function, names scipy
    paths = sorted(Path(exactquad.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), (
                f"{path.name}:{node.lineno} imports scipy")


class TestStatsCommands:
    def test_covwitness(self, tmp_path):
        path = write(tmp_path, "c.json",
                     {"f": "t", "g": "t", "measure": UNIT_MEASURE})
        code, out, _ = invoke(["covwitness", path])
        assert code == 0
        w = json.loads(out)
        assert abs(w["t1"] - w["t2"]) == pytest.approx(3 ** -0.5, abs=1e-6)

    def test_covwitness_tolerance_only_tightens(self, tmp_path):
        # the one integration pass runs at min(MOMENT_TOL, tol): a looser
        # tol changes nothing, a tighter one still meets the witness gap
        problem = {"f": "sin(3*t)+t", "g": "t^2*exp(-t)",
                   "measure": dict(UNIT_MEASURE, density="1+t^2")}
        outputs = {}
        for tol in (None, 1e-6, 1e-13):
            body = dict(problem, tolerances={"tol": tol}) if tol else problem
            code, out, _ = invoke(["covwitness", write(tmp_path, "c.json", body)])
            assert code == 0
            outputs[tol] = out
        assert outputs[1e-6] == outputs[None]
        w = json.loads(outputs[1e-13])
        assert abs(w["product_gap"] - w["covariance"]) <= (
            1e-8 * (1 + abs(w["covariance"])))

    def test_covwitness_probes_a_closed_end(self, tmp_path):
        # log(t) is finite at every Gauss node of [0, 1]; only the
        # continuity probe at the window's end t = 0 meets its domain
        path = write(tmp_path, "c.json",
                     {"f": "log(t)", "g": "t", "measure": UNIT_MEASURE})
        code, out, err = invoke(["covwitness", path])
        assert code == 3 and out == ""
        assert json.loads(err.splitlines()[0])["kind"] == "domain"

    def test_gruss(self, tmp_path):
        path = write(tmp_path, "g.json",
                     {"f": "t", "g": "t", "measure": UNIT_MEASURE})
        code, out, _ = invoke(["gruss", path])
        assert code == 0
        r = json.loads(out)
        assert r["slack"] == pytest.approx(1 / 6, abs=1e-9)

    @pytest.mark.parametrize("command", ["gruss", "covwitness"])
    def test_divergent_mass_in_stats_commands(self, tmp_path, command):
        # t^2 underflows below t = 1e-162, where 1/t^2 divides by 0
        for density in ("1/t", "1/t^2"):
            measure = {
                "interval": {"lower": 0, "upper": 1,
                             "lower_open": True, "upper_open": False},
                "density": density,
                "atoms": [],
            }
            path = write(tmp_path, "p.json",
                         {"f": "t", "g": "t^2", "measure": measure})
            code, _, err = invoke([command, path])
            assert code == 3
            assert json.loads(err.splitlines()[0])["kind"] == "divergent-mass"

    @pytest.mark.parametrize("command", ["gruss", "covwitness"])
    @pytest.mark.parametrize("f,lower,kind", [
        ("1e200*t", 0, "moment-divergence"),  # f*f overflows, f does not
        ("log(t)", -1, "domain"),             # f itself leaves its domain
    ], ids=["overflowing-product", "domain-of-f"])
    def test_moment_failure_kinds(self, tmp_path, command, f, lower, kind):
        measure = dict(UNIT_MEASURE, interval=dict(UNIT_MEASURE["interval"],
                                                   lower=lower))
        path = write(tmp_path, "p.json", {"f": f, "g": f, "measure": measure})
        code, out, err = invoke([command, path])
        assert code == 3 and out == ""
        assert json.loads(err.splitlines()[0])["kind"] == kind

    def test_gruss_discrete_equality(self, tmp_path):
        path = write(tmp_path, "d.json",
                     {"p": [0.5, 0.5], "u": [0, 1], "v": [0, 1]})
        code, out, _ = invoke(["gruss-discrete", path])
        assert code == 0
        r = json.loads(out)
        assert r["lhs"] == 0.25 and r["bound"] == 0.25 and r["slack"] == 0.0


_SEEDS = (0, 1, 7, 42)
_SYMMETRIC = IntervalSpec(-1, 1)


def assert_certificate(functions, interval, w):
    """``w`` certifies a zero of det[x_i(t_j)] at distinct nodes."""
    curve = CurveSystem.from_texts(functions, interval)
    a, b = (np.array(t) for t in w["segment"])
    assert np.all(np.diff(a) > 0) and np.all(np.diff(b) > 0)
    mats = np.stack([curve.evaluate(a).T, curve.evaluate(b).T])
    s = np.linalg.svd(mats, compute_uv=False)
    assert np.all(s[:, -1] > RANK_TOL * s[:, 0])
    det = np.linalg.det(mats)
    assert det[0] * det[1] < 0
    t = np.array(w["tuple"])
    k = int(np.argmax(np.abs(b - a)))
    u = (t[k] - a[k]) / (b[k] - a[k])
    assert 0.0 <= u <= 1.0
    span = interval.upper - interval.lower
    assert np.max(np.abs(a + u * (b - a) - t)) <= 1e-12 * span
    assert abs(w["det"]) <= 1e-12 * np.max(np.abs(det))


def one_tuple_at_a_time(functions, interval, trials, seed):
    """The sampled tuples and the evidence fields as drawing and evaluating
    one tuple at a time gives them."""
    curve = CurveSystem.from_texts(functions, interval)
    lo, hi = interval.lower, interval.upper
    rng = np.random.default_rng(seed)
    tuples, best = [], None
    for _ in range(trials):
        for _ in range(100):
            ts = np.sort(rng.uniform(lo, hi, curve.n))
            if curve.n == 1 or np.min(np.diff(ts)) > 1e-12 * (hi - lo):
                break
        tuples.append(ts)
        mat = curve.evaluate(ts).T
        det = float(np.linalg.det(mat))
        scale = float(np.prod(np.linalg.norm(mat, axis=0))) + 1e-300
        if best is None or abs(det) / scale < best[0]:
            best = (abs(det) / scale, ts, det)
    return np.array(tuples), {"min_abs_det": abs(best[2]), "min_scaled_det": best[0],
                              "argmin_tuple": [float(x) for x in best[1]]}


class TestChebyshevCommand:
    def test_order_system_has_no_witness(self):
        report = chebyshev_sample_test(["1", "t"], IntervalSpec(0, 1),
                                       trial_count=100, seed=42)
        assert report["witness"] is None

    def test_vandermonde_has_no_witness(self):
        report = chebyshev_sample_test(["1", "t", "t^2"], IntervalSpec(0, 1),
                                       trial_count=100, seed=42)
        assert report["witness"] is None

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_degree_five_vandermonde_has_no_witness(self, seed):
        # |det| / scale falls below 1e-12 at close nodes, yet every sampled
        # determinant is positive
        report = chebyshev_sample_test([f"t^{k}" for k in range(6)],
                                       IntervalSpec(0, 1), seed=seed)
        assert report["witness"] is None

    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize("functions", [["t", "t^2"], ["t"]])
    def test_sign_change_is_certified(self, functions, seed):
        # det = t1 t2 (t2 - t1) and det = t1 change sign at t = 0
        report = chebyshev_sample_test(functions, _SYMMETRIC, seed=seed)
        assert report["witness"] is not None
        assert_certificate(functions, _SYMMETRIC, report["witness"])

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_zero_without_sign_change_is_not_found(self, seed):
        # det = t1^2 vanishes at t1 = 0 but never changes sign: the stated
        # limit of a sign-change certificate
        report = chebyshev_sample_test(["t^2"], _SYMMETRIC, seed=seed)
        assert report["witness"] is None

    @pytest.mark.parametrize("functions", [
        ["exp(t)", "exp(t+1)"], ["1", "t", "(1+t)/3"],
        ["sin(t)", "cos(t)", "sin(t+1)"]])
    def test_signs_of_singular_matrices_do_not_count(self, functions):
        # det is 0 at every tuple of these dependent systems, so the signs
        # the sampled determinants take are roundoff and certify nothing
        report = chebyshev_sample_test(functions, IntervalSpec(0, 1))
        assert report["witness"] is None

    def test_odd_pair_witness_found(self):
        # det = t1 t2 (t2^2 - t1^2) changes sign at t1 = -t2 and where a
        # node crosses 0; seed 42 finds the zero at t1 = 0
        report = chebyshev_sample_test(["t", "t^3"], _SYMMETRIC,
                                       trial_count=100, seed=42)
        assert report["witness"] is not None
        assert_certificate(["t", "t^3"], _SYMMETRIC, report["witness"])

    @pytest.mark.parametrize("functions, lower, upper", [
        ([f"t^{k}" for k in range(6)], 0.0, 1.0),
        ([f"t^{k}" for k in range(10)], 0.0, 1.0),
        (["sin(3*t)", "exp(-t)", "log(2+t)", "sqrt(t+1)"], -1.0, 2.0),
        (["t", "t^3"], -1.0, 1.0),
        # 41 of the first 300 draws have equal nodes and are drawn again
        (["1", "t", "t^2"], 1.0, 1.0 + 4e-15),
    ], ids=["degree-5", "degree-9", "mixed", "odd-pair", "redraws"])
    def test_evidence_matches_one_tuple_at_a_time(self, functions, lower, upper,
                                                  monkeypatch):
        # 300 trials span a batch boundary; the batches sample the same
        # tuples and report the same evidence, bit for bit
        sampled = []
        determinants = hull._determinants
        monkeypatch.setattr(hull, "_determinants", lambda curve, ts: (
            sampled.append(ts.copy()) or determinants(curve, ts)))
        interval = IntervalSpec(lower, upper)
        report = chebyshev_sample_test(functions, interval, trial_count=300, seed=3)
        tuples, expected = one_tuple_at_a_time(functions, interval, 300, 3)
        assert np.array_equal(np.concatenate(sampled)[:300], tuples)
        assert json.dumps({k: report[k] for k in expected}) == json.dumps(expected)

    def test_seed_recorded_and_deterministic(self, tmp_path):
        path = write(tmp_path, "ch.json", {
            "functions": ["t", "t^3"],
            "interval": {"lower": -1, "upper": 1,
                         "lower_open": False, "upper_open": False},
        })
        code, out1, _ = invoke(["chebyshev-test", path, "--seed", "7"])
        _, out2, _ = invoke(["chebyshev-test", path, "--seed", "7"])
        assert code == 0
        assert out1 == out2
        assert json.loads(out1)["seed"] == 7


def _with(obj, **changes):
    return {**obj, **changes}


_SYNTH = {"functions": ["t"], "measure": UNIT_MEASURE}
_INTERVAL = UNIT_MEASURE["interval"]
# two atoms whose masses sum past the largest double
_HUGE_ATOMS = _with(UNIT_MEASURE, atoms=[{"t": 0.25, "mass": 1e308},
                                         {"t": 0.75, "mass": 1e308}])
# densities whose integrals leave the double range
_OVERFLOWING_DENSITY = _with(UNIT_MEASURE, density="1e308")
_OVERFLOWING_ON_THE_LINE = {"interval": {"lower": "-inf", "upper": "inf"},
                            "density": "1e308*exp(-t^2)", "atoms": []}


@pytest.mark.parametrize("command, problem, flags", [
    ("synthesize", _with(_SYNTH, tolerances={"tol": "abc"}), []),
    ("synthesize", _with(_SYNTH, tolerances={"tol": -1}), []),
    ("synthesize", _with(_SYNTH, tolerances={"probe_points": 0}), []),
    ("synthesize", _with(_SYNTH, tolerances={"grid0": 128}), []),
    ("synthesize", _with(_SYNTH, tolerances={"tol": 0}), ["--tol", "1e-9"]),
    ("synthesize", _SYNTH, ["--tol", "-1"]),
    ("covwitness", {"f": "t", "g": "t", "measure": UNIT_MEASURE},
     ["--tol", "nan"]),
    ("covwitness", {"f": "t", "g": "t", "measure": UNIT_MEASURE},
     ["--tol", "inf"]),
    ("synthesize", _with(_SYNTH, measure=_with(
        UNIT_MEASURE, atoms=[{"t": "x", "mass": 1.0}])), []),
    ("synthesize", _with(_SYNTH, measure=_with(
        UNIT_MEASURE, interval=_with(_INTERVAL, lower=True, upper=2))), []),
    ("synthesize", _with(_SYNTH, measure=_with(
        UNIT_MEASURE, interval=_with(_INTERVAL, upper=10 ** 400))), []),
    ("reduce", {"functions": [1, "t"], "interval": _INTERVAL,
                "combination": {"params": [0.2, 0.8], "weights": [0.5, 0.5],
                                "total": 1.0}}, []),
    ("reduce", {"functions": ["t"], "interval": _INTERVAL,
                "combination": {"params": [0.2, 0.8], "weights": [0.5, 0.5],
                                "total": 1.0},
                "tolerances": {"bisect_tol": 1e-13}}, []),
    ("verify", _with(_SYNTH, rule={"nodes": [0.5], "weights": [1.0],
                                   "total": 1.0},
                     tolerances={"tol": 1e-12}), []),
    ("covwitness", {"f": 1, "g": "t", "measure": UNIT_MEASURE}, []),
    ("gruss", {"f": "t", "g": "t", "measure": UNIT_MEASURE,
               "tolerances": {"tol": 1e-3, "residual_gate": 1e-2}}, []),
    ("gruss-discrete", {"p": ["a"], "u": [0], "v": [0]}, []),
    ("chebyshev-test", {"functions": ["1", "t"], "interval": _INTERVAL},
     ["--trials", "0"]),
    ("gruss-discrete", {"p": [math.nan], "u": [0], "v": [0]}, []),
    ("verify", _with(_SYNTH, rule={"nodes": [math.nan], "weights": [1.0],
                                   "total": 1.0}), []),
    ("reduce", {"functions": ["t"], "interval": _INTERVAL,
                "combination": {"params": [0.2, math.nan],
                                "weights": [0.5, 0.5], "total": 1.0}}, []),
    ("gruss-discrete", {"p": [1.0], "u": [math.inf], "v": [0]}, []),
    ("reduce", {"functions": ["t"], "interval": _INTERVAL,
                "combination": {"params": [-3, 0.5, 4], "weights": [0.25, 0.5, 0.25],
                                "total": 1.0}}, []),
    ("reduce", {"functions": ["log(t)", "t"],
                "interval": _with(_INTERVAL, lower_open=True),
                "combination": {"params": [-0.5, 0.5], "weights": [0.5, 0.5],
                                "total": 1.0}}, []),
    ("gruss-discrete", {"p": [1e308, 1e308], "u": [0, 1], "v": [0, 1]}, []),
    # the weighted sum of 1.7e308*(2*t-1) overflows to -inf + inf
    ("reduce", {"functions": ["1.7e308*(2*t-1)", "t"], "interval": _INTERVAL,
                "combination": {"params": [0, 0.05, 0.95, 1],
                                "weights": [2.5] * 4, "total": 10.0}}, []),
    ("synthesize", _with(_SYNTH, measure=_HUGE_ATOMS), []),
    ("gruss", {"f": "t", "g": "t", "measure": _HUGE_ATOMS}, []),
    # the atoms' terms of 1e10*(t-0.5) overflow to -inf and +inf, and
    # those of 1e10*t to +inf
    ("synthesize", _with(_SYNTH, functions=["1e10*(t-0.5)"], measure=_with(
        UNIT_MEASURE, atoms=[{"t": 0.25, "mass": 1e308},
                             {"t": 0.75, "mass": 1e307}])), []),
    ("synthesize", _with(_SYNTH, functions=["1e10*t"], measure=_with(
        UNIT_MEASURE, atoms=[{"t": 0.25, "mass": 1e308},
                             {"t": 0.75, "mass": 1e307}])), []),
    ("synthesize", _with(_SYNTH, measure=_OVERFLOWING_DENSITY), []),
    ("gruss", {"f": "t", "g": "t^2", "measure": _OVERFLOWING_DENSITY}, []),
    ("synthesize", _with(_SYNTH, measure=_OVERFLOWING_ON_THE_LINE), []),
    ("gruss", {"f": "t", "g": "t^2", "measure": _OVERFLOWING_ON_THE_LINE}, []),
], ids=["tol-string", "tol-negative", "probe-points-zero", "grid0-unknown",
        "tol-zero-under-flag", "tol-flag-negative", "covwitness-tol-flag-nan",
        "covwitness-tol-flag-infinity",
        "atom-t-string", "lower-boolean", "upper-overflows-float",
        "reduce-function-number", "reduce-tolerances", "verify-tolerances",
        "covwitness-f-number", "gruss-tolerances", "gruss-discrete-p-string",
        "trials-zero", "gruss-discrete-p-nan", "verify-node-nan",
        "reduce-param-nan", "gruss-discrete-u-infinity",
        "reduce-params-outside-interval", "reduce-param-outside-open-end",
        "gruss-discrete-p-overflows", "reduce-target-overflows",
        "synthesize-atom-masses-overflow",
        "gruss-atom-masses-overflow", "synthesize-atom-moments-cancel",
        "synthesize-atom-moment-overflows", "synthesize-density-overflows",
        "gruss-density-overflows", "synthesize-density-overflows-on-the-line",
        "gruss-density-overflows-on-the-line"])
def test_malformed_input_is_schema_error(tmp_path, command, problem, flags):
    code, out, err = invoke([command, write(tmp_path, "p.json", problem), *flags])
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert json.loads(err.splitlines()[0])["kind"] == "schema"


@pytest.mark.parametrize("function", [
    "(" * 3000 + "t" + ")" * 3000,
    "-" * 3000 + "t",
    "^".join(["t"] * 2000),
    "+".join(["t"] * 2000),
], ids=["parentheses", "unary-minus", "power-chain", "flat-sum"])
def test_deep_expression_is_syntax_error(tmp_path, function):
    problem = _with(_SYNTH, functions=[function])
    code, out, err = invoke(["synthesize", write(tmp_path, "p.json", problem)])
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert json.loads(err.splitlines()[0])["kind"] == "syntax"


@pytest.mark.parametrize("command", ["synthesize", "reduce", "verify", "covwitness",
                                     "gruss", "gruss-discrete", "chebyshev-test"])
@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000,
                                  '{"a":' * 100000 + "1" + "}" * 100000],
                         ids=["arrays", "objects"])
def test_deeply_nested_json_is_schema_error(tmp_path, command, text):
    # json.loads raises RecursionError on such nesting, not JSONDecodeError
    code, out, err = invoke([command, write(tmp_path, "p.json", text)])
    assert code == 2 and out == ""
    assert "Traceback" not in err
    msg = json.loads(err.splitlines()[0])
    assert msg["kind"] == "schema" and "nest too deeply" in msg["message"]


@pytest.mark.parametrize("command, problem, exit_code", [
    # the weights' sum overflows in ConvexCombination
    ("reduce", {"functions": ["t"], "interval": _INTERVAL,
                "combination": {"params": [0.2, 0.8], "weights": [1e308, 1e308],
                                "total": 1e308}}, 2),
    # the K15 sums of the density overflow: the integrals leave the doubles
    ("synthesize", _with(_SYNTH, measure=_OVERFLOWING_DENSITY), 2),
    ("gruss", {"f": "t", "g": "t^2", "measure": _OVERFLOWING_DENSITY}, 2),
    ("synthesize", _with(_SYNTH, measure=_OVERFLOWING_ON_THE_LINE), 2),
    # the rank test scales the samples before it centres them
    ("synthesize", _with(_SYNTH, functions=["1e308*t", "t"]), 0),
], ids=["reduce-weights-overflow", "density-overflows", "gruss-density-overflows",
        "density-overflows-on-the-line", "function-overflows"])
def test_numpy_warnings_stay_off_stderr(tmp_path, command, problem, exit_code):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = invoke([command, write(tmp_path, "p.json", problem)])
    assert code == exit_code
    assert not caught and "Warning" not in err
