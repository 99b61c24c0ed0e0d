"""Golden digests: the benchmark's corpus texts and the acceptance rules.

``golden.json`` stores

* ``corpus_sha256``: the hash of variant 0 of each workload's corpus for
  the ROADMAP seed 20260808 and for seed 12345.  A mismatch means the
  benchmark's generators changed, so its numbers are not comparable;
* ``acceptance_rules``: for the ROADMAP corpus, the SHA-256 of all 200
  rules (``rule_to_json``, sorted keys) and one digest per rule, so a run
  can say how many rules a change moved.

Regenerate after a change that is meant to change rules::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
ROADMAP_SEED = 20260808
CORPUS_SEEDS = (ROADMAP_SEED, 12345)


def rule_text(rule_json: dict) -> str:
    return json.dumps(rule_json, sort_keys=True)


def digests(rule_texts: list[str]) -> dict:
    return {
        "sha256": hashlib.sha256("\n".join(rule_texts).encode()).hexdigest(),
        "per_rule": [hashlib.sha256(t.encode()).hexdigest()[:16] for t in rule_texts],
    }


def load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compare_rules(rule_texts: list[str], golden: dict) -> dict:
    """Report, not gate: whether the rules match and how many changed."""
    got = digests(rule_texts)
    want = golden["acceptance_rules"]
    changed = [i for i, (a, b) in enumerate(zip(got["per_rule"], want["per_rule"]))
               if a != b]
    return {"match": got["sha256"] == want["sha256"], "sha256": got["sha256"],
            "rules_changed": len(changed), "changed_indices": changed}


def _write():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from exactquad import CurveSystem, measure_from_json, rule_to_json, synthesize_rule

    import corpus

    hashes = {name: {str(seed): corpus.corpus_hash(make(seed, 0))
                     for seed in CORPUS_SEEDS}
              for name, make in corpus.CORPORA.items()}
    texts = []
    for item in corpus.acceptance_corpus(ROADMAP_SEED, 0):
        m = measure_from_json(item["problem"]["measure"])
        curve = CurveSystem.from_texts(item["problem"]["functions"], m.interval)
        texts.append(rule_text(rule_to_json(synthesize_rule(curve, m))))
    golden = {"corpus_sha256": hashes, "acceptance_rules": digests(texts)}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH.name}: rules sha256 {golden['acceptance_rules']['sha256']}")


if __name__ == "__main__":
    _write()
