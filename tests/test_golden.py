"""Golden rules: variant 0 of the three benchmark corpora at seed 20260808.

``golden_rules.json`` holds, for every problem, the rule's nodes, weights
and ``rank_used`` or the typed error's ``kind`` (acceptance and tail), and
the exit code and JSON output of ``cli.run`` (stats).  Node counts,
``rank_used``, error kinds, exit codes and non-numeric output fields must
match exactly.  Nodes, weights and numeric output fields must match within
``RTOL``, relative with an absolute floor of the same size
(``|a - b| <= RTOL * (1 + |b|)``).  The bytes depend on the BLAS kernels
and numpy's SIMD loops, which the CPU selects: a rule with n nodes for n
functions is one point of a family of exact rules, and the polish stops
at whichever point its path reaches.  Forcing other OpenBLAS kernels
(``OPENBLAS_CORETYPE`` Haswell, Sandybridge, Prescott) moved no node
count, rank or error kind, and moved nodes and weights by at most 7.1e-9
on acceptance, 4.5e-8 on tail and 5.2e-16 on stats, all inside ``RTOL``.
Loosening the polish target from 1e-12 to 1e-11 moves acceptance rules
by at most 7.5e-9, inside ``RTOL`` too; a changed support, or a polish that stops at another
point, moves rules by 1e-5 to 1e-2.
The file's ``digests`` record the exact digests of variants 0-5
(acceptance, stats) and 0-3 (tail) on the machine that wrote it.

A change that moves rules on purpose rewrites the file with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
``PYTHONPATH=src python tests/test_golden.py --check`` prints the digests
and, per corpus, the largest ``|a - b| / (1 + |b|)`` of variant 0 against
the file, and exits 1 if any digest differs from the file's, without
writing the file.
"""

import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from exactquad import cli
from exactquad.errors import ExactQuadError
from exactquad.hull import CurveSystem
from exactquad.measure import measure_from_json
from exactquad.synth import rule_to_json, synthesize_rule

GOLDEN = Path(__file__).resolve().parent / "golden_rules.json"
SEED = 20260808
RTOL = 1e-6
# corpus variants of the digests in the file's header
DIGEST_VARIANTS = {"acceptance": 6, "tail": 4, "stats": 6}
DIGEST_DEFINITION = (
    "SHA-256, first 16 hex, of the newline-joined lines of every problem: "
    "the rule_to_json text with sorted keys or 'ERR <kind>' (acceptance, "
    "tail), '<exit code> <stdout of cli.run>' (stats)")

# the benchmark's problem generators, imported read-only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

sys.path.pop(0)


def synthesize(problem):
    """The rule of one synthesis problem, or its typed error."""
    try:
        m = measure_from_json(problem["measure"])
        return synthesize_rule(CurveSystem.from_texts(problem["functions"],
                                                      m.interval), m)
    except ExactQuadError as exc:
        return exc


def run_cli(item, tmp: Path):
    """``(exit code, stdout)`` of one stats problem through ``cli.run``."""
    path = tmp / "problem.json"
    path.write_text(json.dumps(item["problem"]), encoding="utf-8")
    out = io.StringIO()
    code = cli.run([item["kind"], str(path)], stdout=out, stderr=io.StringIO())
    return code, out.getvalue()


def results(workload: str, variant: int, tmp: Path) -> list:
    items = corpus.CORPORA[workload](SEED, variant)
    if workload == "stats":
        return [run_cli(item, tmp) for item in items]
    return [synthesize(item["problem"]) for item in items]


def golden_records(workload: str, raw: list) -> list[dict]:
    if workload == "stats":
        return [{"exit": code, "output": json.loads(out or "null")}
                for code, out in raw]
    return [{"error": r.kind} if isinstance(r, ExactQuadError) else
            {"nodes": r.nodes.tolist(), "weights": r.weights.tolist(),
             "rank_used": r.rank_used} for r in raw]


def digest_lines(workload: str, raw: list) -> list[str]:
    if workload == "stats":
        return [f"{code} {out}" for code, out in raw]
    return [f"ERR {r.kind}" if isinstance(r, ExactQuadError)
            else json.dumps(rule_to_json(r), sort_keys=True) for r in raw]


def mismatches(got, want, where: str) -> list[str]:
    """Where ``got`` differs from ``want``: floats within ``RTOL``, the rest exactly."""
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: fields {sorted(got)} != {sorted(want)}"]
        return [line for key in want
                for line in mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [line for i, (g, w) in enumerate(zip(got, want))
                for line in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if math.isfinite(want) and abs(got - want) <= RTOL * (1.0 + abs(want)):
            return []
    elif got == want and type(got) is type(want):
        return []
    return [f"{where}: {got!r} != {want!r}"]


def largest_move(got, want) -> float:
    """Largest ``|a - b| / (1 + |b|)`` over the floats that ``got`` and
    ``want`` hold at the same place; places whose shapes differ count 0."""
    if isinstance(want, dict) and isinstance(got, dict):
        return max((largest_move(got[k], want[k]) for k in want if k in got),
                   default=0.0)
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return max((largest_move(g, w) for g, w in zip(got, want)), default=0.0)
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) / (1.0 + abs(want))
    return 0.0


@pytest.mark.parametrize("workload", ["acceptance", "tail", "stats"])
def test_rules_match_the_golden_file(workload, tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[workload]
    got = golden_records(workload, results(workload, 0, tmp_path))
    bad = mismatches(got, want, workload)
    assert not bad, f"{len(bad)} mismatches, first: " + "; ".join(bad[:5])


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: test_golden.py [--check]")
    out = {"about": __doc__.split("\n\n")[0], "seed": SEED, "rtol": RTOL,
           "digest_definition": DIGEST_DEFINITION, "digests": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, count in DIGEST_VARIANTS.items():
            lines = []
            for variant in range(count):
                raw = results(workload, variant, Path(tmp))
                lines += digest_lines(workload, raw)
                if variant == 0:
                    out[workload] = golden_records(workload, raw)
            out["digests"][f"{workload} v0-{count - 1}"] = hashlib.sha256(
                "\n".join(lines).encode()).hexdigest()[:16]
    print(json.dumps(out["digests"]))
    if sys.argv[1:] == ["--check"]:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        for workload in DIGEST_VARIANTS:
            move = largest_move(out[workload], golden[workload])
            print(f"{workload} v0: largest |a - b| / (1 + |b|) {move:.3g}")
        stored = golden["digests"]
        changed = [key for key, digest in out["digests"].items()
                   if stored.get(key) != digest]
        for key in changed:
            print(f"{key}: {out['digests'][key]}, the file has {stored.get(key)}")
        sys.exit(1 if changed else 0)
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
