"""exactquad benchmark: seeded workloads, one operation at a time.

    python3 perfbench/run.py --workload acceptance --seed 20260808 --seconds 25 --trace 0

Workloads (README.md says why each was chosen):

* ``acceptance`` -- ``synthesize_rule`` on the 200-problem acceptance corpus;
* ``tail`` -- ``synthesize_rule`` on infinite and open intervals, n up to 12,
  near-dependent systems and shifted twins;
* ``stats`` -- ``covwitness`` and ``gruss`` through ``exactquad.cli.run``.

The load is a closed loop with one caller: each operation starts when the
previous one has returned.  There are no worker threads and BLAS is fixed
at one thread.  A run measures ``ceil(seconds / nominal pass time)``
passes, pass ``j`` over corpus variant ``j``, so a run does the same work
on every commit.  Every output is checked after its pass, outside the
timed region.  Times are reported in reference seconds: wall time scaled
by the machine-speed kernel of ``calibrate.py``, sampled between
operations.  The wall-clock figures are printed next to them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` pairs each
traced pass with an untraced pass of the same corpus, prints the per-layer
metrics, the tracing overhead and a stage table, and writes the spans.
Files go to ``.perfbench_out/`` at the repository root.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation fails when it
raises or its output fails the check; ``failed`` counts them all.  The run
is incorrect, exit code 1, when an output fails its check or an operation
crashes with an exception that is not an ``ExactQuadError``, outside the
known defects listed in ``corpus.py``.  Typed refusals (``PolishError``
and the like) are failed operations but not incorrect outputs.  Exit code
2 means the benchmark cannot run.
"""

from __future__ import annotations

import os

# one BLAS thread for a single caller; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# standard library only, so importing them leaves the set-up timing alone
import calibrate  # noqa: E402
import golden  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# nominal reference seconds per pass; sets the pass count
PASS_SECONDS = {"acceptance": 4.2, "tail": 7.9, "stats": 1.2}
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "fail_frac": "frac",
    "unconverged_frac": "frac",
    "worst_rel_residual": "1",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _load_benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_exactquad():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import exactquad
    except ImportError as exc:
        raise BenchError(f"cannot import exactquad from {src}: {exc}") from None
    if not Path(exactquad.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"exactquad was imported from {exactquad.__file__}, not {src}")
    return exactquad


# --- set-up ------------------------------------------------------------------

def setup(workload: str, seed: int, passes: int):
    """Import exactquad, generate the corpora, write and load the problem files.

    Returns ``variants``; ``variants[j]`` is the list of operations of pass ``j``.
    """
    exactquad = _import_exactquad()
    import corpus

    work = OUT / "work" / f"{workload}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    variants = []
    for j in range(passes):
        items = corpus.CORPORA[workload](seed, j)
        if workload == "stats":
            vdir = work / f"v{j}"
            vdir.mkdir(exist_ok=True)
            for i, item in enumerate(items):
                item["path"] = str(vdir / f"{i:02d}-{item['kind']}.json")
                with open(item["path"], "w", encoding="utf-8") as fh:
                    json.dump(item["problem"], fh)
        else:
            path = work / f"v{j}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([item["problem"] for item in items], fh)
            with open(path, encoding="utf-8") as fh:
                problems = json.load(fh)
            for item, problem in zip(items, problems):
                m = exactquad.measure_from_json(problem["measure"])
                item["measure"] = m
                item["curve"] = exactquad.CurveSystem.from_texts(
                    problem["functions"], m.interval)
        variants.append(items)
    return variants


def timed_setup(args, passes: int):
    """``(variants, wall seconds, reference seconds)`` of one set-up."""
    return calibrate.scalar_factor(lambda: setup(args.workload, args.seed, passes))


def _child_setup_seconds(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"set-up in a child process failed: {proc.stderr.strip()}")
    wall, scaled = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(scaled)


# --- operations ----------------------------------------------------------------

class Record:
    __slots__ = ("op", "seconds", "scaled", "result", "error", "refused", "ok",
                 "note", "rel", "converged")

    def __init__(self, op, seconds, result, error, refused):
        self.op = op
        self.seconds = seconds
        self.scaled = seconds  # in reference seconds, set by run_pass
        self.result = result
        self.error = error
        # the library declined with a typed error instead of returning a result
        self.refused = refused
        self.ok = False
        self.note = ""
        self.rel = None
        self.converged = None


def run_op(op: dict, tracer=None, op_id: int = 0) -> Record:
    from exactquad import cli, errors, synth

    if op["kind"] == "synthesize":
        def call():
            return synth.synthesize_rule(op["curve"], op["measure"])
    else:
        out, err = io.StringIO(), io.StringIO()

        def call():
            code = cli.run([op["kind"], op["path"]], stdout=out, stderr=err)
            return code, out.getvalue(), err.getvalue()

    if tracer is not None:
        tracer.begin_op(op_id)
    start = time.perf_counter()
    try:
        result, error, refused = call(), None, False
    except Exception as exc:  # one failed operation must not stop the run
        result, error = None, f"{type(exc).__name__}: {exc}"
        refused = isinstance(exc, errors.ExactQuadError)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op(seconds)
    if result is not None and op["kind"] != "synthesize":
        if tracer is not None:
            tracer.cli_bytes_out += len(result[1].encode())
        # exit codes 2 and 3 are the CLI's typed failures
        refused = result[0] in (2, 3)
    return Record(op, seconds, result, error, refused)


class Pass:
    """One pass: its records and summed operation time, wall and reference."""

    def __init__(self, records):
        self.records = records
        self.seconds = sum(rec.seconds for rec in records)
        self.scaled = sum(rec.scaled for rec in records)


def run_pass(ops, calibrator, tracer=None, first_id: int = 0) -> Pass:
    calibrator.sample()
    records, before = [], []
    for i, op in enumerate(ops):
        before.append(len(calibrator.samples) - 1)
        records.append(run_op(op, tracer, first_id + i))
        calibrator.maybe_sample()
    calibrator.sample()
    for rec, b in zip(records, before):
        rec.scaled = rec.seconds * calibrator.factor(b)
    return Pass(records)


# --- correctness ---------------------------------------------------------------

def _check_rule(rec: Record, by_name: dict):
    import numpy as np
    from exactquad import measure

    rule = rec.result
    curve, m = rec.op["curve"], rec.op["measure"]
    exact = rec.op.get("exact")
    if exact is not None:
        mass, j_ref = exact[0], np.array(exact[1:])
    else:
        mass = measure.total_mass(m, 1e-12)
        j_ref = measure.integrate_system(m, curve, 1e-12).values
    recon = rule.weights @ curve.evaluate(rule.nodes)
    rec.rel = float(np.max(np.abs(recon - j_ref) / (1.0 + np.abs(j_ref))))
    rec.converged = bool(rule.converged)
    mass_err = abs(math.fsum(rule.weights) - mass) / mass
    problems = []
    if len(rule) > curve.n:
        problems.append(f"{len(rule)} nodes for n={curve.n}")
    if not np.all(rule.weights >= 0.0):
        problems.append("negative weight")
    if not mass_err <= 1e-10:
        problems.append(f"mass relative error {mass_err:.3g}")
    if not rec.rel <= 1e-8:
        problems.append(f"relative residual {rec.rel:.3g}")
    twin = rec.op.get("twin_of")
    if twin is not None:
        base = by_name[twin].result
        if base is None or base.rank_used != rule.rank_used:
            problems.append(f"rank_used {rule.rank_used} differs from the unshifted twin")
    return problems


def _check_stats(rec: Record):
    from exactquad import parse

    code, stdout, stderr = rec.result
    if code != 0:
        return [f"exit code {code}: {stderr.strip()}"]
    problem = rec.op["problem"]
    try:
        out = json.loads(stdout)
        if rec.op["kind"] == "covwitness":
            f, g = parse(problem["f"]), parse(problem["g"])
            t1, t2, cov = float(out["t1"]), float(out["t2"]), float(out["covariance"])
            gap = abs(0.25 * (f(t1) - f(t2)) * (g(t1) - g(t2)) - cov)
            if not gap <= 1e-8 * (1.0 + abs(cov)):
                return [f"witness identity gap {gap:.3g}"]
        else:
            bound = 0.25 * (float(out["M_f"]) - float(out["m_f"])) * (
                float(out["M_g"]) - float(out["m_g"]))
            slack = bound - abs(float(out["covariance"]))
            if not slack >= -1e-9 * (1.0 + bound):
                return [f"Gruss slack {slack:.3g}"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output {stdout[:200]!r}: {exc}"]
    return []


def check_pass(records):
    by_name = {rec.op["name"]: rec for rec in records}
    for rec in records:
        if rec.error is not None:
            problems = [rec.error]
        elif rec.op["kind"] == "synthesize":
            problems = _check_rule(rec, by_name)
        else:
            problems = _check_stats(rec)
        rec.ok = not problems
        rec.note = "; ".join(problems)


# --- reporting ---------------------------------------------------------------

def _proc_field(path: str, key: str):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args, passes: int) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _proc_field("/proc/cpuinfo", "model name"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "process_threads": _proc_field("/proc/self/status", "Threads"),
        "git_commit": commit,
    }


def _corpus_report(workload, seed, ops) -> dict:
    import corpus

    got = corpus.corpus_hash(ops)
    want = golden.load()["corpus_sha256"][workload].get(str(seed))
    if want is not None and got != want:
        raise BenchError(
            f"variant 0 of the {workload} corpus for seed {seed} hashes to {got}, "
            f"not the stored {want}: the generators changed")
    return {"sha256": got, "stored": want is not None}


def _golden_report(records) -> dict:
    from exactquad import rule_to_json

    texts = [golden.rule_text(rule_to_json(rec.result)) if rec.result is not None
             else f"error: {rec.error}" for rec in records]
    return golden.compare_rules(texts, golden.load())


def _tail_stat(samples):
    """The highest percentile with TAIL_BEYOND samples beyond it, and its level."""
    ordered = sorted(samples, reverse=True)
    n = len(ordered)
    k = min(TAIL_BEYOND, n - 1)
    return ordered[k], 100.0 * (n - k) / n


def _timing(passes, scaled: bool) -> dict:
    """ops_per_s, op_p50_ms and op_tail_ms, in reference or wall-clock seconds."""
    def op_s(rec):
        return rec.scaled if scaled else rec.seconds

    samples = [op_s(rec) for p in passes for rec in p.records]
    # one tail value per pass, then the median over passes: across seeds the
    # rare slow problems make a pooled top-10 statistic far too unsteady
    tails = [_tail_stat([op_s(rec) for rec in p.records])[0] for p in passes]
    return {
        "ops_per_s": statistics.median(
            len(p.records) / (p.scaled if scaled else p.seconds) for p in passes),
        "op_p50_ms": 1e3 * statistics.median(samples),
        "op_tail_ms": 1e3 * statistics.median(tails),
    }


def end_to_end(passes, setup_times):
    records = [rec for p in passes for rec in p.records]
    rules = [rec for rec in records if rec.converged is not None]
    n = len(records)
    per_pass = len(passes[0].records)
    tail_pct = _tail_stat([rec.seconds for rec in passes[0].records])[1]
    raw = _timing(passes, scaled=False)
    values = {
        **_timing(passes, scaled=True),
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "fail_frac": sum(not rec.ok for rec in records) / len(records),
        "unconverged_frac": (sum(not rec.converged for rec in rules) / len(rules)
                             if rules else None),
        "worst_rel_residual": max((rec.rel for rec in rules), default=None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    factors = sorted(p.scaled / p.seconds for p in passes)
    notes = {
        "ops_per_s": f"median over {len(passes)} passes of ops / pass time; "
                     f"wall clock {raw['ops_per_s']:.6g}",
        "op_p50_ms": f"median of {n} samples; wall clock {raw['op_p50_ms']:.6g}",
        "op_tail_ms": f"p{tail_pct:.2f} ({TAIL_BEYOND + 1}th largest of the "
                      f"{per_pass} ops of a pass), median over {len(passes)} passes "
                      f"of {n} samples; wall clock {raw['op_tail_ms']:.6g}",
        "setup_s": f"median of {len(setup_times)} set-ups "
                   f"({', '.join(f'{s:.3f}' for _, s in setup_times)}); wall clock "
                   f"{statistics.median(wall for wall, _ in setup_times):.6g}",
        "fail_frac": f"{sum(not rec.ok for rec in records)} of {len(records)}",
        "unconverged_frac": f"{sum(not r.converged for r in rules)} of {len(rules)} rules",
        "worst_rel_residual": "against exact moments or re-integration at 1e-12",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    speed = {"pass_factors": [p.scaled / p.seconds for p in passes],
             "factor_min": factors[0], "factor_max": factors[-1], "wall_clock": raw}
    return values, notes, speed


def _print_metric(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<26} {shown:>14} {unit:<6} {note}")


def _failure_summary(records, known: dict):
    """Split failures: known defects, typed refusals, and incorrect outputs.

    Only the last make a run incorrect: a returned output that fails its
    check, or a crash with an exception that is not an ExactQuadError.
    """
    incorrect, refused, expected, fixed = [], [], set(), set()
    for rec in records:
        name = rec.op["name"]
        if rec.ok:
            if name in known:
                fixed.add(name)
        elif name in known:
            expected.add(name)
        elif rec.refused:
            refused.append(f"{name}: {rec.note}")
        else:
            incorrect.append(f"{name}: {rec.note}")
    return incorrect, refused, sorted(expected), sorted(fixed)


# --- main ----------------------------------------------------------------------

def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, default=golden.ROADMAP_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _measure(variants):
    """Untraced passes, each checked after it ran."""
    from calibrate import Calibrator

    calibrator = Calibrator()
    passes = []
    for ops in variants:
        passes.append(run_pass(ops, calibrator))
        check_pass(passes[-1].records)
    return passes


def _measure_traced(variants, tag):
    from layers import Tracer

    from calibrate import Calibrator

    calibrator = Calibrator()
    tracer = Tracer()
    tracer.install()
    ratios, records = [], []
    origin = time.perf_counter()
    try:
        for j, ops in enumerate(variants):
            plain = run_pass(ops, calibrator)
            traced = run_pass(ops, calibrator, tracer, first_id=j * len(ops))
            ratios.append(traced.scaled / plain.scaled)
            check_pass(plain.records)
            check_pass(traced.records)
            records += plain.records + traced.records
    finally:
        tracer.uninstall()
    overhead = statistics.median(ratios) - 1.0
    tracer.write_spans(OUT / f"{tag}-spans.jsonl", origin)
    return tracer, overhead, records


def _layer_table(tracer, overhead, passes) -> list[str]:
    lines = [f"per-layer table: {passes} traced pass(es); tracing overhead "
             f"{100 * overhead:+.1f}% of untraced pass time",
             f"  {'span':<30} {'calls':>8} {'total_s':>10} {'self_s':>10} {'expr_s':>10}"]
    rows = tracer.per_name()
    for name in sorted(rows, key=lambda n: -rows[n]["total_s"]):
        row = rows[name]
        lines.append(f"  {name:<30} {row['calls']:>8} {row['total_s']:>10.4f} "
                     f"{row['self_s']:>10.4f} {row['expr_s']:>10.4f}")
    stages = tracer.stage_seconds()
    total = sum(stages.values())
    lines.append(f"  stage shares of {total:.3f} s traced operation time "
                 "(each span's self time, expression work included, goes to "
                 "its nearest stage):")
    for stage, secs in sorted(stages.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {stage:<22} {secs:>9.4f} s {100 * secs / total:>6.1f}%")
    return lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    traced = bool(args.trace)
    per_pass = PASS_SECONDS[args.workload] * (3.0 if traced else 1.0)
    passes = math.ceil(args.seconds / per_pass)
    variants, setup_wall, setup_scaled = timed_setup(args, passes)
    if args.setup_only:
        print(f"{setup_wall!r} {setup_scaled!r}")
        return 0

    import corpus

    spec = _load_benchmark_json()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    corpus_info = _corpus_report(args.workload, args.seed, variants[0])
    setup_times = [(setup_wall, setup_scaled)]
    if not traced:
        setup_times += [_child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]

    warm = variants[0][-3:] if args.workload == "tail" else variants[0][:3]
    for op in warm:
        run_op(op)

    env = environment(args, passes)
    known = corpus.TAIL_KNOWN_DEFECTS if args.workload == "tail" else {}
    print(f"exactquad benchmark: workload {args.workload}, seed {args.seed}, "
          f"{passes} pass(es){', traced' if traced else ''}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"corpus variant 0 sha256 {corpus_info['sha256']}"
          + (" (matches the stored hash)" if corpus_info["stored"] else ""))

    result = {"environment": env, "corpus": corpus_info}
    if traced:
        tracer, overhead, records = _measure_traced(variants, tag)
        layer = tracer.metrics()
        layer["trace.overhead_frac"] = (overhead, "frac")
        table = _layer_table(tracer, overhead, passes)
        with open(OUT / f"{tag}-layers.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(table) + "\n")
        print("\n".join(table))
        print("per-layer metrics:")
        for name, (value, unit) in layer.items():
            _print_metric(name, value, unit)
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {name: {"value": layer[name][0], "unit": layer[name][1]}
                   for name in wanted}
        result["per_layer"] = {k: v for k, (v, _) in layer.items()}
    else:
        passes = _measure(variants)
        records = [rec for p in passes for rec in p.records]
        values, notes, speed = end_to_end(passes, setup_times)
        print("end-to-end metrics (times in reference seconds, see calibrate.py; "
              f"speed factor {speed['factor_min']:.3f}..{speed['factor_max']:.3f}):")
        for name, unit in END_TO_END_UNITS.items():
            _print_metric(name, values[name], unit, notes[name])
        if args.workload == "acceptance":
            first = passes[0]
            print(f"  pass 0 (variant 0): {first.seconds:.3f} s wall clock, "
                  f"{first.scaled:.3f} reference s")
            if args.seed == golden.ROADMAP_SEED:
                report = _golden_report(first.records)
                result["golden"] = report
                print("golden rule digest: "
                      + ("match" if report["match"] else
                         f"MISMATCH, {report['rules_changed']} of "
                         f"{len(first.records)} rules changed"))
        wanted = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
                   for name in wanted}
        result["end_to_end"] = values
        result["end_to_end_notes"] = notes
        result["speed"] = speed

    incorrect, refused, expected, fixed = _failure_summary(records, known)
    for name in expected:
        print(f"known defect still fails: {name} ({known[name]})")
    for name in fixed:
        print(f"known defect now passes: {name}")
    for line in refused[:20]:
        print(f"refused (counts as failed): {line}")
    for line in incorrect[:20]:
        print(f"INCORRECT: {line}")
    failed = sum(not rec.ok for rec in records)
    summary = {"correct": not incorrect, "attempted": len(records),
               "failed": failed, "metrics": metrics}
    result.update(summary, incorrect=incorrect, refused=refused,
                  known_defects_failing=expected, known_defects_fixed=fixed,
                  operations=[[rec.op["name"], rec.seconds, rec.scaled, rec.ok, rec.note]
                              for rec in records])
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
