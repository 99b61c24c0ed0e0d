"""Correctness sweep: outcome counts of the benchmark corpora, from one script.

Synthesizes every problem of the ``acceptance`` corpus (variants 0-5) and
of the ``tail`` corpus (variants 0-3) at each seed, and writes one JSON
with, per synthesis corpus:

- ``problems``: how many were synthesized;
- ``refusals`` and ``refusal_count``: the ids of the refused problems by
  error kind, and their number;
- ``extra_node_rules``: the rules with more nodes than max(rank_used, 1),
  with their node count and rank;
- ``second_passes``: how many syntheses ran the candidate pass a second
  time, on all n functions;
- ``walk_misses``: how many curve walks leave a reweighted support that
  would miss the prune's gate, ``hull._miss`` above ``RECON_TOL``; the
  support goes to the polish on all n functions ungated either way;
- ``polish_evals``: the ``CurveSystem.evaluate`` calls made inside
  ``polish_combination``, synthesis's one polish per candidate pass;
- ``walk_rounds``: the ``CurveSystem.evaluate`` calls made inside
  ``hull._first_zero_crossing``, one per probe round of the curve walk;
- ``evaluate_calls``: every ``CurveSystem.evaluate`` call of the corpus;
- ``rules_digest``: SHA-256, first 16 hex, of the newline-joined lines of
  every problem of every seed, in the line format of ``test_golden.py``'s
  ``DIGEST_DEFINITION``, so that two sweeps show whether any rule or
  refusal moved.  Like the golden digests, it depends on the machine: the
  BLAS kernels and numpy's SIMD loops move converged rules in their last
  bits.

The ``stats`` corpus (variants 0-5) runs through ``cli.run`` at each
seed, as the benchmark runs it; its block holds ``problems``,
``refusals`` and ``refusal_count`` as above, ``witness_gap``, the largest
``|product_gap - covariance| / (1 + |covariance|)`` of the witnesses,
``gruss_slack``, the least ``gruss`` slack, ``gruss_negative_slack``, how
many ``gruss`` outputs have a slack below 0, ``witness_evals``, the
``evaluate_columns`` calls made inside ``covariance_witness`` (its node
batch and its probe rounds), ``gruss_evals`` and ``gruss_points``, the
``evaluate_columns`` calls made inside ``stats._extrema`` (its scan and
its refinement rounds) and the points they evaluate, and
``rules_digest`` over the ``test_golden.py`` lines of its outputs.

``verify`` holds the median, p99 and max over the accepted ``acceptance``
rules of seeds 20260808 and 401 (when swept) of the largest
``verify_rule`` relative residual of each rule.  An id reads
``seed/variant/#index``.  The problem generators are the benchmark's,
imported read-only as in ``test_golden.py``.

When seed 20260808 is swept, ``invariance`` holds, for each transform of
its ``acceptance`` problems that leaves the affine rank as it is (a
function scaled by 1e3 or 1e-3 as ``1000.0*(f)``, the density and atom
masses scaled by 1e3, the functions reversed, f0 duplicated, the function
``0`` appended, t shifted by 1e7 and t scaled by 1e-9), how many problems
change their (rank_used, node count) or refusal, how many of those are new
refusals, and how many rules lose or gain rank.  Shifting t by a composes
every function and the density with t - a and moves the interval and the
atoms by a; scaling t by c composes with t/c, divides the density by c,
so the mass stays, and scales the interval and the atoms by c.  Both
compose through ``expr``'s parse tree, not the text.
``shift_twin`` is (t, t^2) under the uniform density on [1e5, 1e5 + 1],
a shift of t that no text transform makes: its node count and rank, and
the ``verify_rule`` residuals, or its error kind.

When seed 20260808 is swept, ``reduce`` holds the curve theorem's
outcomes: ``hull.reduce_on_curve`` on the functions of its
``acceptance`` variants 0-1 (400 problems), each on 2n+2 evenly spaced
points of the problem's interval, ends included, with seeded random
weights summing to 1.  It holds ``refusals`` and ``refusal_count`` as
above, ``extra_point_results``, the results with more points than
max(r, 1), r the affine rank of the functions over the combination's
support (``synth.affine_rank`` on its atomic measure), and
``worst_miss``, the largest ``max_k |sum_i w_i x_k(t_i) - v_k| / (1 +
max_k |v_k|)`` of the results against their targets v.

The counters replace the library attributes that ``TARGETS`` lists,
through :func:`patched`, which refuses a name that the library no longer
has; ``test_instruments.py`` checks the table against the library.

    PYTHONPATH=src python tests/sweep.py [--seeds S ...] [--out FILE]

The default seeds are 20260808, 401, 610, 1301 and 1307 (6000
``acceptance``, 600 ``tail`` and 1800 ``stats`` problems).  The JSON goes to stdout, and
also to ``--out`` when given.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

from exactquad import cli, hull, stats, synth
from exactquad.errors import ExactQuadError
from exactquad.expr import Expression, parse
from exactquad.hull import CurveSystem
from exactquad.measure import MeasureSpec, measure_from_json
from test_golden import digest_lines

# the benchmark's problem generators, imported read-only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

sys.path.pop(0)

SEEDS = (20260808, 401, 610, 1301, 1307)
VARIANTS = {"acceptance": 6, "tail": 4}
STATS_VARIANTS = 6
VERIFY_SEEDS = (20260808, 401)
INVARIANCE_SEED = 20260808
REDUCE_SEED, REDUCE_VARIANTS = 20260808, 2
# every library attribute that the counters replace, as (owner, name):
# :func:`patched` replaces no other, and ``test_instruments.py`` checks
# that the library still has each one
TARGETS = (
    (synth, "_synthesize_pass"),
    (synth, "_walk"),
    (synth, "polish_combination"),
    (hull, "polish_combination"),
    (hull, "_first_zero_crossing"),
    (CurveSystem, "evaluate"),
    (cli, "covariance_witness"),
    (stats, "evaluate_columns"),
    (stats, "_extrema"),
)


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


def _composed(text: str, inner) -> str:
    """The text of ``text`` with every t replaced by the parse tree ``inner``."""
    def substitute(node):
        if node == ("t",):
            return inner
        if node[0] == "neg":
            return ("neg", substitute(node[1]))
        if node[0] == "bin":
            return ("bin", node[1], substitute(node[2]), substitute(node[3]))
        if node[0] == "fn":
            return ("fn", node[1], tuple(substitute(a) for a in node[2]))
        return node
    return Expression(substitute(parse(text).ast)).text


def _move_t(op: str, a: float, place):
    """The transform composing every function and the density with
    ``t op a``, the density then also divided by ``a`` when ``op`` is
    "/", and mapping the interval's ends and the atoms by ``place``."""
    inner = ("bin", op, ("t",), ("num", a))

    def transform(problem):
        m, iv = problem["measure"], problem["measure"]["interval"]
        density = m["density"] and _composed(m["density"], inner)
        if density and op == "/":
            density = f"({density})/{a!r}"
        measure = {
            **m, "interval": {**iv, "lower": place(iv["lower"]),
                              "upper": place(iv["upper"])},
            "density": density,
            "atoms": [{**x, "t": place(x["t"])} for x in m["atoms"]]}
        return {**problem, "measure": measure,
                "functions": [_composed(f, inner) for f in problem["functions"]]}
    return transform


# each keeps the affine rank of the system and the rule's node count
TRANSFORMS = {
    "f0 x 1e3": _scale_function(0, 1e3),
    "f0 x 1e-3": _scale_function(0, 1e-3),
    "last x 1e-3": _scale_function(-1, 1e-3),
    "mass x 1e3": _scale_mass,
    "reversed order": lambda p: {**p, "functions": p["functions"][::-1]},
    "f0 duplicated": lambda p: {**p, "functions": p["functions"][:1] + p["functions"]},
    "0 appended": lambda p: {**p, "functions": p["functions"] + ["0"]},
    "shift t by 1e7": _move_t("-", 1e7, lambda t: t + 1e7),
    "scale t by 1e-9": _move_t("/", 1e-9, lambda t: t * 1e-9),
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


def reduce_sweep() -> dict:
    """The ``reduce`` block: the curve theorem on ``acceptance`` v0-1."""
    rng = np.random.default_rng(REDUCE_SEED)
    problems, refusals, extra, worst = 0, defaultdict(list), {}, 0.0
    for variant in range(REDUCE_VARIANTS):
        for i, item in enumerate(corpus.acceptance_corpus(REDUCE_SEED, variant)):
            pid = f"{REDUCE_SEED}/{variant}/#{i}"
            interval = measure_from_json(item["problem"]["measure"]).interval
            curve = CurveSystem.from_texts(item["problem"]["functions"], interval)
            ts = np.linspace(interval.lower, interval.upper, 2 * curve.n + 2)
            w = rng.uniform(0.05, 1.0, ts.size)
            w /= w.sum()
            v = w @ curve.evaluate(ts)
            problems += 1
            try:
                out = hull.reduce_on_curve(curve, hull.ConvexCombination(ts, w, 1.0), v)
            except ExactQuadError as exc:
                refusals[exc.kind].append(pid)
                continue
            rank = synth.affine_rank(curve, MeasureSpec(
                interval, atoms=tuple(zip(ts, w)))).rank
            if len(out) > max(rank, 1):
                extra[pid] = {"points": len(out), "rank": rank}
            miss = np.abs(out.weights @ curve.evaluate(out.params) - v).max()
            worst = max(worst, float(miss) / (1.0 + float(np.abs(v).max())))
    return {"seed": REDUCE_SEED, "variants": REDUCE_VARIANTS, "problems": problems,
            "refusals": dict(sorted(refusals.items())),
            "refusal_count": sum(map(len, refusals.values())),
            "extra_point_results": extra, "worst_miss": worst}


@contextlib.contextmanager
def patched(*replacements):
    """Replace the attribute of each ``(owner, name, wrap)`` by
    ``wrap(original)`` while the block runs, and restore the originals.

    A pair that ``TARGETS`` does not declare is a ``KeyError``, and a name
    that the owner no longer has an ``AttributeError``: assigning it would
    add an attribute that nothing calls, whose counter would read 0.
    """
    saved = []
    try:
        for owner, name, wrap in replacements:
            if (owner, name) not in TARGETS:
                raise KeyError(f"{owner.__name__}.{name} is not in TARGETS")
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, wrap(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _tracked(open_calls):
    """A wrap for :func:`patched`: the function, with an entry in the list
    ``open_calls`` while it runs."""
    def wrap(fn):
        def tracked(*args, **kwargs):
            open_calls.append(1)
            try:
                return fn(*args, **kwargs)
            finally:
                open_calls.pop()
        return tracked
    return wrap


def stats_sweep(seeds) -> dict:
    """The ``stats`` block: every ``stats`` problem through ``cli.run``."""
    witnessing, evals = [], []  # the open witnesses; their evaluate calls
    scanning, scans = [], []  # the open extrema; their evaluate calls' points

    def counted(columns):
        def counted_columns(fns, ts, **kwargs):
            if witnessing:
                evals.append(1)
            if scanning:
                scans.append(np.size(ts))
            return columns(fns, ts, **kwargs)
        return counted_columns

    problems, refusals, lines = 0, defaultdict(list), []
    gap, slack, negative = 0.0, np.inf, 0
    with patched((cli, "covariance_witness", _tracked(witnessing)),
                 (stats, "_extrema", _tracked(scanning)),
                 (stats, "evaluate_columns", counted)):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "problem.json"
            for seed, variant in itertools.product(seeds, range(STATS_VARIANTS)):
                for i, item in enumerate(corpus.CORPORA["stats"](seed, variant)):
                    path.write_text(json.dumps(item["problem"]), encoding="utf-8")
                    out, err = io.StringIO(), io.StringIO()
                    code = cli.run([item["kind"], str(path)], stdout=out, stderr=err)
                    lines += digest_lines("stats", [(code, out.getvalue())])
                    problems += 1
                    if code:
                        kind = json.loads(err.getvalue().splitlines()[0])["kind"]
                        refusals[kind].append(f"{seed}/{variant}/#{i}")
                        continue
                    result = json.loads(out.getvalue())
                    if item["kind"] == "gruss":
                        slack = min(slack, result["slack"])
                        negative += result["slack"] < 0.0
                    else:
                        cov = result["covariance"]
                        gap = max(gap, abs(result["product_gap"] - cov) / (1.0 + abs(cov)))
    return {"variants": STATS_VARIANTS, "problems": problems,
            "refusals": dict(sorted(refusals.items())),
            "refusal_count": sum(map(len, refusals.values())),
            "witness_gap": gap, "gruss_slack": float(slack),
            "gruss_negative_slack": negative, "witness_evals": len(evals),
            "gruss_evals": len(scans), "gruss_points": sum(scans),
            "rules_digest": hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]}


def sweep(seeds) -> dict:
    calls = []  # one entry per candidate pass of the current synthesis
    misses = []  # one entry per walked support that misses RECON_TOL
    polishing, evals = [], []  # the open polishes; their evaluate calls
    walking, rounds = [], []  # the open walks; their evaluate calls
    evaluations = []  # one entry per evaluate call

    def counted_pass(one_pass):
        return lambda *args: calls.append(1) or one_pass(*args)

    def counted_evaluate(evaluate):
        def counted(self, ts):
            evaluations.append(1)
            if polishing:
                evals.append(1)
            if walking:
                rounds.append(1)
            return evaluate(self, ts)
        return counted

    def missing(walk):
        def missing_walk(curve, params, weights, points, seed_params,
                         seed_points, v, total):
            out = walk(curve, params, weights, points, seed_params, seed_points,
                       v, total)
            _, w, x = hull._rescaled(*out, total)
            if hull._miss(w, x, v) > hull.RECON_TOL:
                misses.append(1)
            return out
        return missing_walk

    out, verified = {"seeds": list(seeds)}, []
    base_problems, base = [], []  # acceptance at INVARIANCE_SEED
    with patched((synth, "_synthesize_pass", counted_pass),
                 (synth, "polish_combination", _tracked(polishing)),
                 (hull, "polish_combination", _tracked(polishing)),
                 (synth, "_walk", missing),
                 (hull, "_first_zero_crossing", _tracked(walking)),
                 (CurveSystem, "evaluate", counted_evaluate)):
        for workload, count in VARIANTS.items():
            problems, second, refusals, extra = 0, 0, defaultdict(list), {}
            lines = []  # of the rules digest
            for counter in (misses, evals, rounds, evaluations):
                counter.clear()
            for seed, variant in itertools.product(seeds, range(count)):
                for i, item in enumerate(corpus.CORPORA[workload](seed, variant)):
                    problem, pid = item["problem"], f"{seed}/{variant}/#{i}"
                    calls.clear()
                    rule, c, m = synthesize(problem)
                    lines += digest_lines(workload, [rule])
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
                "walk_misses": len(misses), "polish_evals": len(evals),
                "walk_rounds": len(rounds), "evaluate_calls": len(evaluations),
                "rules_digest": hashlib.sha256(
                    "\n".join(lines).encode()).hexdigest()[:16],
            }
    out["stats"] = stats_sweep(seeds)
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
    if REDUCE_SEED in seeds:
        out["reduce"] = reduce_sweep()
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
