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


def sweep(seeds) -> dict:
    calls = []  # one entry per candidate pass of the current synthesis
    one_pass = synth._synthesize_pass
    synth._synthesize_pass = lambda *args: calls.append(1) or one_pass(*args)
    out, verified = {"seeds": list(seeds)}, []
    try:
        for workload, count in VARIANTS.items():
            problems, second, refusals, extra = 0, 0, defaultdict(list), {}
            for seed, variant in itertools.product(seeds, range(count)):
                for i, item in enumerate(corpus.CORPORA[workload](seed, variant)):
                    problem, pid = item["problem"], f"{seed}/{variant}/#{i}"
                    calls.clear()
                    try:
                        m = measure_from_json(problem["measure"])
                        c = CurveSystem.from_texts(problem["functions"], m.interval)
                        rule = synth.synthesize_rule(c, m)
                    except ExactQuadError as exc:
                        refusals[exc.kind].append(pid)
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
