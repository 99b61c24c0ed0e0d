"""Correctness sweep: outcome counts of the benchmark corpora, from one script.

Synthesizes every problem of the ``acceptance`` corpus (variants 0-5) and
of the ``tail`` corpus (variants 0-3) at each seed, and writes one JSON
with, per corpus:

- ``problems``: how many were synthesized;
- ``refusals`` and ``refusal_count``: the ids of the refused problems by
  error kind, and their number;
- ``extra_node_rules``: the rules with more nodes than max(rank_used, 1),
  with their node count and rank;
- ``second_passes``: how many syntheses ran the candidate pass a second
  time, on all n functions.

``verify`` holds the median, p99 and max over the accepted ``acceptance``
rules of seeds 20260808 and 401 (when swept) of the largest
``verify_rule`` relative residual of each rule.  An id reads
``seed/variant/#index``.  The problem generators are the benchmark's,
imported read-only as in ``test_golden.py``.

When seed 20260808 is swept, ``invariance`` holds, for each transform of
its ``acceptance`` problems that leaves the affine rank as it is (a
function scaled by 1e3 or 1e-3 as ``1000.0*(f)``, the density and atom
masses scaled by 1e3, the functions reversed, f0 duplicated), how many
problems change their (rank_used, node count) or refusal, how many of
those are new refusals, and how many rules lose or gain rank.
``shift_twin`` is (t, t^2) under the uniform density on [1e5, 1e5 + 1],
a shift of t that no text transform makes: its node count and rank, and
the ``verify_rule`` residuals, or its error kind.

    PYTHONPATH=src python tests/sweep.py [--seeds S ...] [--out FILE]

The default seeds are 20260808, 401, 610, 1301 and 1307 (6000
``acceptance`` and 600 ``tail`` problems).  The JSON goes to stdout, and
also to ``--out`` when given.
"""

import argparse
import itertools
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from exactquad import synth
from exactquad.errors import ExactQuadError
from exactquad.hull import CurveSystem
from exactquad.measure import measure_from_json

# the benchmark's problem generators, imported read-only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

sys.path.pop(0)

SEEDS = (20260808, 401, 610, 1301, 1307)
VARIANTS = {"acceptance": 6, "tail": 4}
VERIFY_SEEDS = (20260808, 401)
INVARIANCE_SEED = 20260808


def _scaled(text: str, factor: float) -> str:
    return f"{factor!r}*({text})"


def _scale_function(k: int, factor: float):
    def transform(problem):
        texts = list(problem["functions"])
        texts[k] = _scaled(texts[k], factor)
        return {**problem, "functions": texts}
    return transform


def _scale_mass(problem):
    m = problem["measure"]
    density = m["density"] and _scaled(m["density"], 1e3)
    atoms = [{**a, "mass": 1e3 * a["mass"]} for a in m["atoms"]]
    return {**problem, "measure": {**m, "density": density, "atoms": atoms}}


# each keeps the affine rank of the system and the rule's node count
TRANSFORMS = {
    "f0 x 1e3": _scale_function(0, 1e3),
    "f0 x 1e-3": _scale_function(0, 1e-3),
    "last x 1e-3": _scale_function(-1, 1e-3),
    "mass x 1e3": _scale_mass,
    "reversed order": lambda p: {**p, "functions": p["functions"][::-1]},
    "f0 duplicated": lambda p: {**p, "functions": p["functions"][:1] + p["functions"]},
}
SHIFT_TWIN = {"functions": ["t", "t^2"], "measure": {
    "interval": {"lower": 1e5, "upper": 1e5 + 1}, "density": "1", "atoms": []}}


def synthesize(problem):
    """``(rule, curve, measure)`` of one problem; ``rule`` is the typed
    error when it is refused."""
    try:
        m = measure_from_json(problem["measure"])
        c = CurveSystem.from_texts(problem["functions"], m.interval)
        return synth.synthesize_rule(c, m), c, m
    except ExactQuadError as exc:
        return exc, None, None


def outcome(rule):
    """``(rank_used, node count)`` of a rule, or the kind of its error."""
    if isinstance(rule, ExactQuadError):
        return rule.kind
    return rule.rank_used, len(rule)


def invariance(problems, base) -> dict:
    """The outcome changes of each transform against ``base``, the
    outcomes of ``problems``."""
    out = {}
    for name, transform in TRANSFORMS.items():
        changed = refused = drops = rises = 0
        for problem, before in zip(problems, base):
            after = outcome(synthesize(transform(problem))[0])
            changed += after != before
            if isinstance(after, str):
                refused += not isinstance(before, str)
            elif not isinstance(before, str):
                drops += after[0] < before[0]
                rises += after[0] > before[0]
        out[name] = {"changed": changed, "new_refusals": refused,
                     "rank_drops": drops, "rank_rises": rises}
    return out


def shift_twin() -> dict:
    rule, c, m = synthesize(SHIFT_TWIN)
    if isinstance(rule, ExactQuadError):
        return {"error": rule.kind}
    report = synth.verify_rule(rule, c, m)
    return {"nodes": len(rule), "rank": rule.rank_used,
            "residuals": report.residuals.tolist()}


def sweep(seeds) -> dict:
    calls = []  # one entry per candidate pass of the current synthesis
    one_pass = synth._synthesize_pass
    synth._synthesize_pass = lambda *args: calls.append(1) or one_pass(*args)
    out, verified = {"seeds": list(seeds)}, []
    base_problems, base = [], []  # acceptance at INVARIANCE_SEED
    try:
        for workload, count in VARIANTS.items():
            problems, second, refusals, extra = 0, 0, defaultdict(list), {}
            for seed, variant in itertools.product(seeds, range(count)):
                for i, item in enumerate(corpus.CORPORA[workload](seed, variant)):
                    problem, pid = item["problem"], f"{seed}/{variant}/#{i}"
                    calls.clear()
                    rule, c, m = synthesize(problem)
                    if workload == "acceptance" and seed == INVARIANCE_SEED:
                        base_problems.append(problem)
                        base.append(outcome(rule))
                    if isinstance(rule, ExactQuadError):
                        refusals[rule.kind].append(pid)
                        rule = None
                    problems += 1
                    second += len(calls) > 1
                    if rule is not None and len(rule) > max(rule.rank_used, 1):
                        extra[pid] = {"nodes": len(rule), "rank": rule.rank_used}
                    if (rule is not None and workload == "acceptance"
                            and seed in VERIFY_SEEDS):
                        report = synth.verify_rule(rule, c, m)
                        verified.append(float(np.max(report.relative_residuals)))
            out[workload] = {
                "variants": count, "problems": problems,
                "refusals": dict(sorted(refusals.items())),
                "refusal_count": sum(map(len, refusals.values())),
                "extra_node_rules": extra, "second_passes": second,
            }
    finally:
        synth._synthesize_pass = one_pass
    if verified:
        median, p99 = np.percentile(verified, [50, 99])
        out["verify"] = {
            "seeds": [s for s in VERIFY_SEEDS if s in seeds],
            "rules": len(verified), "median": float(median),
            "p99": float(p99), "max": max(verified)}
    if base:
        out["invariance"] = {"seed": INVARIANCE_SEED, "problems": len(base),
                             "transforms": invariance(base_problems, base),
                             "shift_twin": shift_twin()}
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    text = json.dumps(sweep(args.seeds), indent=1)
    print(text)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
