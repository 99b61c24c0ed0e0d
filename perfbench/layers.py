"""Span tracing of the exactquad layers, installed from outside the package.

Public functions of ``measure``, ``synth``, ``hull``, ``stats`` and ``cli``
are replaced by wrappers in every module namespace where a caller looks
them up, so calls between modules are seen without editing ``src/``.  Each
wrapped call records a span: name, start, end, parent span and operation
id.  ``Expression.__call__`` and ``CurveSystem.evaluate`` are far too
frequent for one span each; they only update counters and add their time
to the innermost open span, so self times still exclude expression work.

Spans are kept in memory; :meth:`Tracer.write_spans` writes them when the
run ends.  Wrappers do nothing but forward while the tracer is inactive,
so the benchmark's own correctness checks are never traced.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# wrapped public functions, by defining module; the span name is
# "<layer>.<function>"
SPANNED = {
    "measure": ("total_mass", "integrate", "integrate_system",
                "exhaust_interval", "density_cell_masses"),
    "synth": ("synthesize_rule", "affine_rank", "discretize_hull_point"),
    "hull": ("caratheodory_finite", "reduce_on_curve", "polish_combination"),
    "stats": ("covariance_witness", "gruss_check", "covariance"),
    "cli": ("run",),
}
_CALLER_MODULES = ("expr", "measure", "hull", "synth", "stats", "cli")

# integrators whose expression points count as quadrature panels
_INTEGRATORS = {"measure.total_mass", "measure.integrate",
                "measure.integrate_system", "measure.exhaust_interval"}
_GAUSS_POINTS_PER_PANEL = 22  # 15-point Gauss plus embedded 7-point rule

# pipeline stages for the share table: a span's self time (expression work
# included) goes to its nearest ancestor-or-self that names a stage
STAGES = {
    "measure.total_mass": "integrate",
    "measure.integrate": "integrate",
    "measure.integrate_system": "integrate",
    "measure.exhaust_interval": "integrate",
    "synth.affine_rank": "affine rank",
    "synth.discretize_hull_point": "discretize",
    "hull.caratheodory_finite": "prune",
    "hull.reduce_on_curve": "curve walk",
    "hull.polish_combination": "polish",
    "synth.synthesize_rule": "synthesis, other",
    "stats.covariance_witness": "witness search",
    "stats.gruss_check": "gruss extrema",
    "stats.covariance": "gruss extrema",
    "cli.run": "cli",
}

NAME, START, END, PARENT, OP, EXPR_S, CHILD_S = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.op_wall_s = 0.0
        self.expr_calls = 0
        self.expr_scalar_calls = 0
        self.expr_points = 0
        self.expr_busy_s = 0.0
        self.measure_points = 0
        self.panels_est = 0.0
        self.polish_evals = 0
        self.polish_unconverged = 0
        self.prune_points_in = 0
        self.prune_points_out = 0
        self.rank_deficient = 0
        self.last_grid = 0
        self.grid_cells_sum = 0
        self.grid_cells_max = 0
        self.cli_bytes_out = 0
        self._restore: list[tuple[object, str, object]] = []

    # --- installation ----------------------------------------------------

    def install(self):
        mods = {name: sys.modules[f"exactquad.{name}"] for name in _CALLER_MODULES}
        mods["exactquad"] = sys.modules["exactquad"]
        for layer, names in SPANNED.items():
            for fname in names:
                original = getattr(mods[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in mods.values():
                    if getattr(mod, fname, None) is original:
                        self._patch(mod, fname, wrapper)
        expression = mods["expr"].Expression
        self._patch(expression, "__call__", self._wrap_expr(expression.__call__))
        curve = mods["hull"].CurveSystem
        self._patch(curve, "evaluate", self._wrap_evaluate(curve.evaluate))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # --- spans -------------------------------------------------------------

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0, 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        span = self.spans[idx]
        span[END] = end
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]][CHILD_S] += end - span[START]

    def _wrap(self, name, fn):
        tracer = self
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _wrap_expr(self, call):
        tracer = self
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def traced_call(expr, t):
            if not tracer.active:
                return call(expr, t)
            start = clock()
            try:
                return call(expr, t)
            finally:
                dt = clock() - start
                ndim = getattr(t, "ndim", 0)
                size = t.size if ndim else 1
                tracer.expr_calls += 1
                tracer.expr_points += size
                tracer.expr_busy_s += dt
                if not ndim:
                    tracer.expr_scalar_calls += 1
                if stack:
                    top = spans[stack[-1]]
                    top[EXPR_S] += dt
                    if ndim and top[NAME] in _INTEGRATORS:
                        tracer.measure_points += size

        return traced_call

    def _wrap_evaluate(self, evaluate):
        tracer = self
        spans = self.spans
        stack = self.stack

        @functools.wraps(evaluate)
        def traced_evaluate(curve, ts):
            if tracer.active and any(
                    spans[i][NAME] == "hull.polish_combination" for i in stack):
                tracer.polish_evals += 1
            return evaluate(curve, ts)

        return traced_evaluate

    # --- per-function counters ----------------------------------------------

    def _before_integrator(self, m, n_functions):
        self._panel_start = self.measure_points
        self._exprs_per_point = n_functions + (m.density is not None)

    def _after_integrator(self, *args, **kwargs):
        points = self.measure_points - self._panel_start
        self.panels_est += points / (_GAUSS_POINTS_PER_PANEL * self._exprs_per_point)

    def _before_measure_total_mass(self, m, *args, **kwargs):
        self._before_integrator(m, 1)

    def _before_measure_integrate(self, m, *args, **kwargs):
        self._before_integrator(m, 1)

    def _before_measure_integrate_system(self, m, curve, *args, **kwargs):
        self._before_integrator(m, len(curve.components))

    def _before_measure_exhaust_interval(self, m, curve, *args, **kwargs):
        self._before_integrator(m, len(curve.components))

    _after_measure_total_mass = _after_integrator
    _after_measure_integrate = _after_integrator
    _after_measure_integrate_system = _after_integrator
    _after_measure_exhaust_interval = _after_integrator

    def _after_measure_density_cell_masses(self, result, m, edges, *args, **kwargs):
        self.last_grid = len(edges) - 1

    def _before_synth_discretize_hull_point(self, *args, **kwargs):
        self.last_grid = 0

    def _after_synth_discretize_hull_point(self, result, *args, **kwargs):
        self.grid_cells_sum += self.last_grid
        self.grid_cells_max = max(self.grid_cells_max, self.last_grid)

    def _after_synth_affine_rank(self, report, curve, *args, **kwargs):
        if report.rank < curve.n:
            self.rank_deficient += 1

    def _after_hull_caratheodory_finite(self, comb, points, *args, **kwargs):
        self.prune_points_in += len(points)
        self.prune_points_out += len(comb)

    def _after_hull_polish_combination(self, result, *args, **kwargs):
        if not result[2]:
            self.polish_unconverged += 1

    # --- operations ----------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op = op_id
        self.active = True

    def end_op(self, wall_s: float):
        self.active = False
        self.op_wall_s += wall_s

    # --- analysis ----------------------------------------------------------

    def _outer_sum(self, predicate) -> float:
        """Duration of spans matching ``predicate`` with no matching ancestor."""
        total = 0.0
        for span in self.spans:
            if not predicate(span[NAME]):
                continue
            parent = span[PARENT]
            nested = False
            while parent >= 0:
                if predicate(self.spans[parent][NAME]):
                    nested = True
                    break
                parent = self.spans[parent][PARENT]
            if not nested:
                total += span[END] - span[START]
        return total

    def _self_s(self, span) -> float:
        return span[END] - span[START] - span[CHILD_S] - span[EXPR_S]

    def per_name(self) -> dict:
        """calls, inclusive seconds, self seconds and expression seconds per span name."""
        rows: dict[str, dict] = {}
        for span in self.spans:
            row = rows.setdefault(span[NAME], {"calls": 0, "self_s": 0.0,
                                               "expr_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self._self_s(span)
            row["expr_s"] += span[EXPR_S]
        for name, row in rows.items():
            row["total_s"] = self._outer_sum(lambda n, name=name: n == name)
        return rows

    def stage_seconds(self) -> dict:
        stages: dict[str, float] = {}
        for span in self.spans:
            node = span
            while node[NAME] not in STAGES and node[PARENT] >= 0:
                node = self.spans[node[PARENT]]
            stage = STAGES.get(node[NAME], "other")
            stages[stage] = stages.get(stage, 0.0) + (
                span[END] - span[START] - span[CHILD_S])
        covered = sum(stages.values())
        stages["outside spans"] = max(self.op_wall_s - covered, 0.0)
        return stages

    def metrics(self) -> dict:
        rows = self.per_name()

        def total(name):
            return rows.get(name, {}).get("total_s", 0.0)

        def layer_self(layer):
            return sum(r["self_s"] for n, r in rows.items()
                       if n.startswith(layer + "."))

        return {
            "expr.calls": (self.expr_calls, "count"),
            "expr.scalar_calls": (self.expr_scalar_calls, "count"),
            "expr.points": (self.expr_points, "count"),
            "expr.busy_s": (self.expr_busy_s, "s"),
            "expr.us_per_call": (1e6 * self.expr_busy_s / max(self.expr_calls, 1), "us"),
            "measure.calls": (sum(r["calls"] for n, r in rows.items()
                                  if n.startswith("measure.")), "count"),
            "measure.busy_s": (self._outer_sum(lambda n: n.startswith("measure.")), "s"),
            "measure.points": (self.measure_points, "count"),
            "measure.panels_est": (self.panels_est, "count"),
            "synth.self_s": (layer_self("synth"), "s"),
            "synth.affine_rank_s": (total("synth.affine_rank"), "s"),
            "synth.discretize_s": (total("synth.discretize_hull_point"), "s"),
            "synth.discretize_calls": (rows.get("synth.discretize_hull_point", {}).get("calls", 0), "count"),
            "synth.grid_cells_sum": (self.grid_cells_sum, "count"),
            "synth.grid_cells_max": (self.grid_cells_max, "count"),
            "synth.rank_deficient": (self.rank_deficient, "count"),
            "hull.prune_s": (total("hull.caratheodory_finite"), "s"),
            "hull.prune_points_in": (self.prune_points_in, "count"),
            "hull.prune_points_out": (self.prune_points_out, "count"),
            "hull.walk_s": (total("hull.reduce_on_curve"), "s"),
            "hull.walk_calls": (rows.get("hull.reduce_on_curve", {}).get("calls", 0), "count"),
            "hull.polish_s": (total("hull.polish_combination"), "s"),
            "hull.polish_evals": (self.polish_evals, "count"),
            "hull.polish_unconverged": (self.polish_unconverged, "count"),
            "stats.witness_s": (total("stats.covariance_witness"), "s"),
            "stats.gruss_s": (total("stats.gruss_check"), "s"),
            "cli.self_s": (layer_self("cli"), "s"),
            "cli.bytes_out": (self.cli_bytes_out, "bytes"),
        }

    def write_spans(self, path, origin: float):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span[NAME],
                    "start": span[START] - origin,
                    "end": span[END] - origin,
                    "parent": span[PARENT],
                    "op": span[OP],
                    "expr_s": span[EXPR_S],
                }) + "\n")
