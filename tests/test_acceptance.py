"""Acceptance suite.

Each criterion runs once per session (cached in a module fixture), records
a JSON-serializable artifact, and prints one PASS/FAIL line.  The final
criterion reruns everything with the same seeds and requires the combined
artifact bytes to be identical, which pins the whole pipeline down as
deterministic.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from exactquad.expr import parse
from exactquad.hull import ConvexCombination, CurveSystem, reduce_on_curve
from exactquad.measure import IntervalSpec, MeasureSpec, integrate_system, total_mass
from exactquad.stats import covariance_witness, gruss_check, gruss_discrete
from exactquad.synth import affine_rank, rule_to_json, synthesize_rule

SEED = 20260808


# --- randomized generators (shared by criteria, all explicitly seeded) ---

def _poly_text(rng, deg, scale=2.0):
    coefs = [float(x) for x in rng.uniform(-scale, scale, deg + 1)]
    terms = [repr(coefs[0])]
    for p, c in enumerate(coefs[1:], start=1):
        terms.append(f"{c!r}*t^{p}" if p > 1 else f"{c!r}*t")
    return "+".join(terms)


def _random_function(rng):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return _poly_text(rng, int(rng.integers(0, 5)))
    if kind == 1:
        a, b = (float(x) for x in rng.uniform(-2, 2, 2))
        k1, k2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        return f"{a!r}*sin({k1}*t)+{b!r}*cos({k2}*t)"
    a = float(rng.uniform(-2, 2))
    b = float(rng.uniform(-1, 1))
    return f"{a!r}*exp({b!r}*t)"


def _random_problem(rng):
    n = int(rng.integers(1, 7))
    a = float(rng.uniform(-2, 2))
    width = float(rng.uniform(0.5, 3.0))
    interval = IntervalSpec(a, a + width)
    texts = [_random_function(rng) for _ in range(n)]
    density = f"({_poly_text(rng, 2, scale=1.0)})^2+{float(rng.uniform(0.01, 1.0))!r}"
    atoms = ()
    if rng.random() < 0.5:
        k = int(rng.integers(1, 4))
        atoms = tuple(
            (float(rng.uniform(a, a + width)), float(rng.uniform(0.1, 1.0)))
            for _ in range(k)
        )
    curve = CurveSystem.from_texts(texts, interval)
    return curve, MeasureSpec(interval, density=parse(density), atoms=atoms)


def _random_smooth_curve(rng, n):
    texts = []
    for i in range(n):
        c = [float(x) for x in rng.uniform(-1, 1, 4)]
        texts.append(
            f"{c[0]!r}+{c[1]!r}*t+{c[2]!r}*t^2+{c[3]!r}*sin({(i % 3) + 1}*t)"
        )
    return CurveSystem.from_texts(texts, IntervalSpec(0, 1))


# --- criteria --------------------------------------------------------------

def criterion_1_exactness_suite():
    rng = np.random.default_rng(SEED)
    cases = []
    all_ok = True
    for index in range(200):
        curve, m = _random_problem(rng)
        rule = synthesize_rule(curve, m)
        mass = total_mass(m, 1e-12)
        j_ref = integrate_system(m, curve, 1e-12).values
        recon = rule.weights @ curve.evaluate(rule.nodes)
        rel = float(np.max(np.abs(recon - j_ref) / (1.0 + np.abs(j_ref))))
        mass_err = abs(math.fsum(rule.weights) - mass) / mass
        ok = (
            len(rule) <= curve.n
            and bool(np.all(rule.weights >= 0.0))
            and mass_err <= 1e-10
            and rel <= 1e-8
        )
        all_ok = all_ok and ok
        cases.append({
            "n": curve.n,
            "rule": rule_to_json(rule),
            "max_rel_residual": rel,
            "mass_rel_error": mass_err,
            "ok": ok,
        })
    return {"cases": cases, "pass": all_ok}


def criterion_2_lebesgue_weight_sum():
    rng = np.random.default_rng(SEED + 2)
    cases = []
    all_ok = True
    for _ in range(20):
        a = float(rng.uniform(-3, 3))
        b = a + float(rng.uniform(0.5, 4.0))
        n = int(rng.integers(1, 5))
        interval = IntervalSpec(a, b)
        curve = CurveSystem.from_texts(
            [_random_function(rng) for _ in range(n)], interval)
        m = MeasureSpec(interval, density=parse("1"))
        rule = synthesize_rule(curve, m)
        err = abs(math.fsum(rule.weights) - (b - a)) / (b - a)
        ok = err <= 1e-10
        all_ok = all_ok and ok
        cases.append({"a": a, "b": b, "n": n,
                      "weight_sum": math.fsum(rule.weights),
                      "rel_error": err, "ok": ok})
    return {"cases": cases, "pass": all_ok}


def criterion_3_noncompact_support():
    m = MeasureSpec(IntervalSpec(0.0, math.inf), density=parse("exp(-t)"))
    curve = CurveSystem.from_texts(["t", "t^2"], m.interval)
    rule = synthesize_rule(curve, m)
    recon = rule.weights @ curve.evaluate(rule.nodes)
    gaps = np.abs(recon - np.array([1.0, 2.0]))  # Gamma(2) = 1, Gamma(3) = 2
    ok = bool(np.all(gaps <= 1e-7))
    return {"rule": rule_to_json(rule),
            "closed_form_gaps": [float(g) for g in gaps],
            "pass": ok}


def criterion_4_curve_reduction_suite():
    rng = np.random.default_rng(SEED + 4)
    all_ok = True
    worst = 0.0
    summaries = []
    for index in range(1000):
        n = int(rng.integers(1, 6))
        curve = _random_smooth_curve(rng, n)
        while True:
            ts = np.sort(rng.uniform(0, 1, n + 1))
            if np.all(np.diff(ts) > 1e-3):
                break
        w = rng.uniform(0.05, 1.0, n + 1)
        w /= w.sum()
        v = w @ curve.evaluate(ts)
        comb = ConvexCombination(params=ts, weights=w, total=1.0)
        out = reduce_on_curve(curve, comb, v)
        recon = float(np.max(np.abs(out.weights @ curve.evaluate(out.params) - v)))
        ok = (
            len(out) <= n
            and recon <= 1e-9 * (1.0 + float(np.max(np.abs(v))))
            and bool(np.all(out.weights >= -1e-12))
        )
        all_ok = all_ok and ok
        worst = max(worst, recon)
        if index % 100 == 0:
            summaries.append({
                "index": index, "n": n,
                "params": [float(x) for x in out.params],
                "weights": [float(x) for x in out.weights],
            })
    return {"worst_reconstruction": worst, "sampled_outputs": summaries,
            "pass": all_ok}


def criterion_5_covariance_witness():
    unit = MeasureSpec(IntervalSpec(0, 1), density=parse("1"))
    w = covariance_witness(parse("t"), parse("t"), unit)
    forced_gap = abs(abs(w.t1 - w.t2) - 3.0 ** -0.5)
    ok = forced_gap <= 1e-6
    rng = np.random.default_rng(SEED + 5)
    cases = []
    for _ in range(100):
        a = float(rng.uniform(-1, 1))
        b = a + float(rng.uniform(0.5, 2.0))
        m = MeasureSpec(
            IntervalSpec(a, b),
            density=parse(f"({_poly_text(rng, 1, scale=1.0)})^2"
                          f"+{float(rng.uniform(0.05, 1.0))!r}"),
        )
        f = parse(_poly_text(rng, int(rng.integers(1, 4)), scale=1.5))
        g = parse(f"sin({float(rng.uniform(0.5, 2.0))!r}*t)"
                  f"+{float(rng.uniform(-1, 1))!r}*t^2")
        witness = covariance_witness(f, g, m)
        gap = abs(witness.product_gap - witness.covariance)
        case_ok = gap <= 1e-8 * (1.0 + abs(witness.covariance))
        ok = ok and case_ok
        cases.append({"t1": witness.t1, "t2": witness.t2,
                      "covariance": witness.covariance,
                      "identity_gap": gap, "ok": case_ok})
    return {"uniform_t1_t2_gap": forced_gap, "cases": cases, "pass": ok}


def criterion_6_gruss_tightness():
    tight = gruss_discrete([0.5, 0.5], [0, 1], [0, 1])
    ok = abs(tight.covariance) == 0.25 and tight.bound == 0.25 and tight.slack == 0.0
    rng = np.random.default_rng(SEED + 6)
    cases = []
    for _ in range(100):
        a = float(rng.uniform(-1, 1))
        b = a + float(rng.uniform(0.5, 2.0))
        m = MeasureSpec(
            IntervalSpec(a, b),
            density=parse(f"({_poly_text(rng, 1, scale=1.0)})^2"
                          f"+{float(rng.uniform(0.05, 1.0))!r}"),
        )
        f = parse(f"sin({float(rng.uniform(0.5, 3.0))!r}*t)"
                  f"+{float(rng.uniform(-1, 1))!r}*t")
        g = parse(_poly_text(rng, int(rng.integers(0, 4)), scale=1.0))
        report = gruss_check(f, g, m)
        case_ok = report.slack >= -1e-9 * (1.0 + report.bound)
        ok = ok and case_ok
        cases.append({"covariance": report.covariance, "bound": report.bound,
                      "slack": report.slack, "ok": case_ok})
    return {"tight_case": asdict(tight), "cases": cases, "pass": bool(ok)}


def criterion_7_degeneracy_handling():
    unit = MeasureSpec(IntervalSpec(0, 1), density=parse("1"))
    curve = CurveSystem.from_texts(["t", "2*t+3", "t^2"], IntervalSpec(0, 1))
    report = affine_rank(curve, unit)
    rule = synthesize_rule(curve, unit)
    j_ref = integrate_system(unit, curve, 1e-12).values
    recon = rule.weights @ curve.evaluate(rule.nodes)
    dependent_gap = float(abs(recon[1] - j_ref[1]))
    ok = bool(
        report.rank == 2
        and rule.rank_used == 2
        and len(rule) <= 2
        and dependent_gap <= 1e-8 * (1.0 + float(abs(j_ref[1])))
    )
    return {"detected_rank": report.rank,
            "independent_indices": list(report.independent_indices),
            "rule": rule_to_json(rule),
            "dependent_function_gap": dependent_gap,
            "pass": ok}


_CRITERIA = [
    ("randomized exactness suite", criterion_1_exactness_suite, 60.0),
    ("Lebesgue weight sum", criterion_2_lebesgue_weight_sum, None),
    ("non-compact support", criterion_3_noncompact_support, 1.0),
    ("curve reduction geometry suite", criterion_4_curve_reduction_suite, 30.0),
    ("covariance witness", criterion_5_covariance_witness, None),
    ("Gruss tightness", criterion_6_gruss_tightness, None),
    ("degeneracy handling", criterion_7_degeneracy_handling, None),
]


def _run_all():
    artifacts = {}
    timings = {}
    for index, (name, fn, _) in enumerate(_CRITERIA, start=1):
        start = time.perf_counter()
        artifacts[f"criterion_{index}"] = fn()
        timings[f"criterion_{index}"] = time.perf_counter() - start
    return artifacts, timings


@pytest.fixture(scope="module")
def acceptance():
    artifacts, timings = _run_all()
    return {"artifacts": artifacts, "timings": timings,
            "bytes": json.dumps(artifacts, sort_keys=True).encode()}


def _report(index, name, passed):
    print(f"ACCEPTANCE {index} ({name}): {'PASS' if passed else 'FAIL'}")


@pytest.mark.parametrize("index", range(1, 8))
def test_criterion(acceptance, index):
    name, _, budget = _CRITERIA[index - 1]
    artifact = acceptance["artifacts"][f"criterion_{index}"]
    elapsed = acceptance["timings"][f"criterion_{index}"]
    passed = artifact["pass"] and (budget is None or elapsed <= budget)
    _report(index, name, passed)
    assert artifact["pass"], f"criterion {index} ({name}) failed its gates"
    if budget is not None:
        assert elapsed <= budget, (
            f"criterion {index} took {elapsed:.1f}s (budget {budget}s)")


def test_criterion_8_determinism(acceptance):
    artifacts, _ = _run_all()
    rerun_bytes = json.dumps(artifacts, sort_keys=True).encode()
    passed = rerun_bytes == acceptance["bytes"]
    _report(8, "determinism", passed)
    assert passed, "rerunning criteria 1-7 changed the JSON artifacts"
