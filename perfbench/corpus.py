"""Seeded problem corpora for the three benchmark workloads.

Every problem is plain JSON in the command-line input format, so the same
text can be hashed, written to disk and handed to the library or the CLI.
Generators are copies, not imports, of the acceptance-suite generators:
later edits to ``tests/`` must not move the benchmark's inputs.

A run measures several passes; pass ``j`` uses corpus variant ``j``.
Variant 0 draws from ``default_rng(seed)`` exactly as acceptance criterion
1 does, so ``--seed 20260808`` variant 0 is the ROADMAP corpus.  Variant
``j > 0`` draws from ``default_rng([seed, j])``.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def variant_rng(seed: int, variant: int) -> np.random.Generator:
    if variant == 0:
        return np.random.default_rng(seed)
    return np.random.default_rng([seed, variant])


def corpus_hash(problems) -> str:
    """SHA-256 of the problem texts, canonical JSON with sorted keys."""
    text = json.dumps([p["problem"] for p in problems], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _interval(lower, upper, lower_open=False, upper_open=False) -> dict:
    return {
        "lower": "-inf" if lower == -math.inf else lower,
        "upper": "inf" if upper == math.inf else upper,
        "lower_open": lower_open,
        "upper_open": upper_open,
    }


def _measure(interval: dict, density: str | None, atoms=()) -> dict:
    return {"interval": interval, "density": density,
            "atoms": [{"t": loc, "mass": mass} for loc, mass in atoms]}


# --- acceptance: copy of tests/test_acceptance.py criterion 1 --------------

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


def _acceptance_problem(rng) -> dict:
    n = int(rng.integers(1, 7))
    a = float(rng.uniform(-2, 2))
    width = float(rng.uniform(0.5, 3.0))
    texts = [_random_function(rng) for _ in range(n)]
    density = f"({_poly_text(rng, 2, scale=1.0)})^2+{float(rng.uniform(0.01, 1.0))!r}"
    atoms = ()
    if rng.random() < 0.5:
        k = int(rng.integers(1, 4))
        atoms = tuple(
            (float(rng.uniform(a, a + width)), float(rng.uniform(0.1, 1.0)))
            for _ in range(k)
        )
    return {"functions": texts,
            "measure": _measure(_interval(a, a + width), density, atoms)}


def acceptance_corpus(seed: int, variant: int) -> list[dict]:
    rng = variant_rng(seed, variant)
    return [{"name": f"acceptance#{i}", "kind": "synthesize",
             "problem": _acceptance_problem(rng)} for i in range(200)]


# --- tail: infinite and open intervals, large n, near dependence, shifts ---

def _moments(k_max):
    return ["t"] + [f"t^{k}" for k in range(2, k_max + 1)]


_ROOT_2PI = math.sqrt(2.0 * math.pi)

_NEAR_DEPENDENT_REPRODUCER = [
    "sin(1.9142055186937508*t)", "t^2", "exp(0.33131483393150685*t)",
    "sin(1.9142055186937508*t)+5.137718947561212e-07*t^3",
]

# (name, functions, interval, density, exact [mass, integral of each
# function] or None to re-integrate)
_TAIL_FIXED = [
    ("exp(-t) on [0,inf)", _moments(4), _interval(0.0, math.inf), "exp(-t)",
     [1.0, 1.0, 2.0, 6.0, 24.0]),
    ("exp(-t^2/2) on R, 6 moments", _moments(6),
     _interval(-math.inf, math.inf), "exp(-t^2/2)",
     [_ROOT_2PI, 0.0, _ROOT_2PI, 0.0, 3.0 * _ROOT_2PI, 0.0, 15.0 * _ROOT_2PI]),
    ("(1+t^2)^-2 on R", _moments(2), _interval(-math.inf, math.inf),
     "(1+t^2)^-2", [0.5 * math.pi, 0.0, 0.5 * math.pi]),
    ("t*exp(-t) on (0,inf)", ["t", "t^2", "exp(-t)"],
     _interval(0.0, math.inf, lower_open=True), "t*exp(-t)",
     [1.0, 2.0, 6.0, 0.25]),
    ("t^-1/2 on (0,1)", _moments(2), _interval(0.0, 1.0, lower_open=True),
     "t^-0.5", [2.0, 2.0 / 3.0, 0.4]),
] + [
    (f"{n} monomials on [0,1]", _moments(n), _interval(0.0, 1.0), "1",
     [1.0] + [1.0 / (k + 1) for k in range(1, n + 1)])
    for n in range(8, 13)
] + [
    (f"near-dependent {base[0]}, eps={eps}", base + [f"{base[0]}+{eps}*t^3"],
     _interval(lo, hi), "1+0.5*t^2", None)
    for base, lo, hi in ((["sin(t)", "t^2", "exp(0.5*t)"], -1.0, 1.0),
                         (["t", "t^2", "t^4"], 0.2, 1.8))
    for eps in ("1e-3", "1e-4", "1e-5", "1e-6", "1e-7")
] + [
    ("near-dependent reproducer", _NEAR_DEPENDENT_REPRODUCER,
     _interval(0.21770323368909517, 1.775000352036209),
     "(-0.7332084890966137+-0.004264802429251091*t)^2+0.5189388422583091",
     None),
]

# (t, t^2) on [a, a+1]: every shift must keep the affine rank of a = 0
_SHIFTS = (0.0, 1e4, 1e5)


def _twin_name(a: float) -> str:
    return f"shift twin (t,t^2) on [a,a+1], a={a:g}"


# Cases that fail today.  They stay in the corpus and count as failed
# operations; a run is still correct when only these fail.
TAIL_KNOWN_DEFECTS = {
    "(1+t^2)^-2 on R": "caratheodory_finite divides by a zero weight sum "
                       "(ZeroDivisionError)",
    "t*exp(-t) on (0,inf)": "exhaustion of (0,inf) loses the mass: the rule "
                            "has total mass ~1e-81 instead of 1",
    "t^-1/2 on (0,1)": "integrable endpoint singularity raises "
                       "DivergentMassError",
    _twin_name(1e5): "affine rank collapses to 1 far from the origin",
    "near-dependent reproducer": "curve walk raises ReconstructionError "
                                 "(misses the target by 8.7e-9)",
}


def _trig_with_atom(rng) -> dict:
    n = int(rng.integers(8, 13))
    length = float(rng.uniform(3.0, 6.0))
    texts = []
    for k in range(1, n // 2 + 2):
        texts += [f"sin({k}*t)", f"cos({k}*t)"]
    atom = (float(rng.uniform(0.0, length)), float(rng.uniform(0.1, 1.0)))
    density = f"1+{float(rng.uniform(0.0, 0.5))!r}*t"
    return {"functions": texts[:n],
            "measure": _measure(_interval(0.0, length), density, (atom,))}


def tail_corpus(seed: int, variant: int) -> list[dict]:
    rng = variant_rng(seed, variant)
    out = []
    for name, texts, interval, density, exact in _TAIL_FIXED:
        out.append({"name": name, "kind": "synthesize", "exact": exact,
                    "problem": {"functions": texts,
                                "measure": _measure(interval, density)}})
    for a in _SHIFTS:
        out.append({"name": _twin_name(a), "kind": "synthesize",
                    "exact": [1.0, a + 0.5, a * a + a + 1.0 / 3.0],
                    "twin_of": _twin_name(_SHIFTS[0]) if a else None,
                    "problem": {"functions": _moments(2),
                                "measure": _measure(_interval(a, a + 1.0), "1")}})
    for i in range(6):
        out.append({"name": f"trig with atom #{i}", "kind": "synthesize",
                    "problem": _trig_with_atom(rng)})
    return out


# --- stats: criteria 5 and 6 style random families, through the CLI --------

def _stats_measure(rng) -> dict:
    a = float(rng.uniform(-1, 1))
    b = a + float(rng.uniform(0.5, 2.0))
    density = (f"({_poly_text(rng, 1, scale=1.0)})^2"
               f"+{float(rng.uniform(0.05, 1.0))!r}")
    return _measure(_interval(a, b), density)


def _covwitness_problem(rng) -> dict:
    m = _stats_measure(rng)
    f = _poly_text(rng, int(rng.integers(1, 4)), scale=1.5)
    g = (f"sin({float(rng.uniform(0.5, 2.0))!r}*t)"
         f"+{float(rng.uniform(-1, 1))!r}*t^2")
    return {"f": f, "g": g, "measure": m}


def _gruss_problem(rng) -> dict:
    m = _stats_measure(rng)
    f = (f"sin({float(rng.uniform(0.5, 3.0))!r}*t)"
         f"+{float(rng.uniform(-1, 1))!r}*t")
    g = _poly_text(rng, int(rng.integers(0, 4)), scale=1.0)
    return {"f": f, "g": g, "measure": m}


def stats_corpus(seed: int, variant: int) -> list[dict]:
    # two covwitness calls per gruss call: an even split would put the
    # median in the gap between the two commands' latencies
    rng = variant_rng(seed, variant)
    out = []
    for i in range(60):
        if i % 3 == 2:
            out.append({"name": f"gruss #{i}", "kind": "gruss",
                        "problem": _gruss_problem(rng)})
        else:
            out.append({"name": f"covwitness #{i}", "kind": "covwitness",
                        "problem": _covwitness_problem(rng)})
    return out


CORPORA = {
    "acceptance": acceptance_corpus,
    "tail": tail_corpus,
    "stats": stats_corpus,
}
