"""Synthesis of exact n-point quadrature rules.

Given n integrable continuous functions and a finite positive measure, the
pipeline produces at most n nodes with non-negative weights summing to the
total mass, reproducing every function integral:

1. integrate the functions and the mass in one pass, which also reduces
   an open or infinite interval to a compact working window by exhaustion;
2. detect affine dependencies among the functions over the measure's
   support and restrict to a maximal independent subset;
3. normalize the integral vector to unit mass, the mass being column 0 of
   that same pass, so the target is consistent with its window;
4. discretize the measure into grid cells plus atoms, correcting the cell
   weights so the discrete combination reproduces the integral vector
   exactly; the grid doubles only when it cannot hold the target;
5. prune the combination to at most rank+1 support points with a
   merge-reduce Caratheodory elimination over contiguous grid clusters
   (:func:`~exactquad.hull.caratheodory_finite`), then to at most rank
   points (:func:`~exactquad.hull.reduce_on_curve`);
6. polish nodes and weights with a damped Gauss-Newton solve, dropping
   nodes whose weight reaches zero;
7. rescale to the original mass and check residuals for all functions,
   including the dependent ones; a rank-restricted rule that misses the
   gate is rebuilt once on the full system.

The produced rule is one of infinitely many valid rules; the pipeline is
deterministic, so identical inputs give identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    DiscretizationError,
    PolishError,
    SchemaError,
    check_fields,
    integer,
    number,
    numbers,
)
from .expr import continuity_probe
from .hull import (
    RANK_TOL,
    CurveSystem,
    caratheodory_finite,
    merge_coincident,
    polish_combination,
    reduce_on_curve,
)
from .measure import (
    DEFAULT_TOL,
    IntervalSpec,
    MeasureSpec,
    density_cell_masses,
    exhaust_interval,
    integrate_system,
    total_mass,
)

__all__ = [
    "SynthesisConfig",
    "AffineRankReport",
    "QuadratureRule",
    "VerificationReport",
    "affine_rank",
    "discretize_hull_point",
    "synthesize_rule",
    "verify_rule",
    "rule_from_json",
    "rule_to_json",
    "config_from_json",
]

CORRECTION_TOL = 1e-11  # discretization correction gate
RESIDUAL_GATE = 1e-8    # final per-function exactness gate, relative
MASS_GATE = 1e-10       # weight sum against the total mass, relative
VERIFY_TOL = 1e-12      # re-integration tolerance of verify_rule
GRID_CAP = 2**18        # largest discretization grid
PROBE_POINTS = 512      # support probes of the affine rank


@dataclass(frozen=True)
class SynthesisConfig:
    """What a caller may set; both positive, ``grid0`` at most ``GRID_CAP``."""

    tol: float = DEFAULT_TOL  # integration tolerance (relative)
    grid0: int = 128          # initial discretization cells

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise SchemaError(f"{f.name} must be finite and > 0, got {value}")
        if self.grid0 > GRID_CAP:
            raise SchemaError(f"grid0 {self.grid0} is above the grid cap {GRID_CAP}")


@dataclass(frozen=True)
class AffineRankReport:
    """Affine rank of the sampled curve over the measure's support.

    ``dependency_coefficients`` maps each dependent function index to
    ``(coefficients over the independent functions, intercept)``.
    """

    rank: int
    independent_indices: tuple[int, ...]
    dependency_coefficients: dict[int, tuple[np.ndarray, float]]
    residual_of_fit: float


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    total: float
    residuals: np.ndarray
    rank_used: int
    converged: bool = True

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise SchemaError("nodes and weights must be equal-length 1-d arrays")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))

    def __len__(self):
        return self.nodes.size


@dataclass(frozen=True, eq=False)
class VerificationReport:
    reference: np.ndarray
    residuals: np.ndarray
    relative_residuals: np.ndarray
    weight_sum: float
    weight_sum_rel_error: float
    nodes_in_interval: bool
    weights_nonnegative: bool
    passed: bool

    def to_json(self) -> dict:
        return {
            "reference": [float(x) for x in self.reference],
            "residuals": [float(x) for x in self.residuals],
            "relative_residuals": [float(x) for x in self.relative_residuals],
            "weight_sum": self.weight_sum,
            "weight_sum_rel_error": self.weight_sum_rel_error,
            "nodes_in_interval": self.nodes_in_interval,
            "weights_nonnegative": self.weights_nonnegative,
            "passed": self.passed,
        }


class _DependentMismatch(Exception):
    """Internal: a rule restricted to the independent functions failed the gate."""


def _measure_probes(m: MeasureSpec, working: IntervalSpec) -> np.ndarray:
    """Probe points where the measure has mass: density support plus atoms."""
    pieces = []
    if m.density is not None:
        grid = np.linspace(working.lower, working.upper, PROBE_POINTS)
        vals = np.maximum(np.asarray(m.density(grid), dtype=float), 0.0)
        support = grid[vals > 0.0]
        pieces.append(support if support.size else grid)
    if m.atoms:
        pieces.append(np.array([loc for loc, _ in m.atoms]))
    return np.unique(np.concatenate(pieces))


def _resolve_working(curve: CurveSystem, m: MeasureSpec, cfg: SynthesisConfig):
    if m.interval.is_compact:
        return m.interval
    _, window = exhaust_interval(m, curve, cfg.tol)
    return window


def affine_rank(curve: CurveSystem, m: MeasureSpec, working: IntervalSpec | None = None,
                config: SynthesisConfig | None = None) -> AffineRankReport:
    """Affine rank of the function system over the measure's support.

    Rank is read off the singular values of the centered probe samples with
    relative threshold ``RANK_TOL``; the independent subset is chosen
    greedily in index order, so earlier functions win.  Rank 0 means every
    function is constant wherever the measure has mass.
    """
    cfg = config or SynthesisConfig()
    if working is None:
        working = _resolve_working(curve, m, cfg)
    probes = _measure_probes(m, working)
    x = curve.evaluate(probes)
    xc = x - x.mean(axis=0)
    smax = float(np.linalg.svd(xc, compute_uv=False)[0]) if probes.size else 0.0
    thresh = RANK_TOL * smax
    indep: list[int] = []
    for k in range(curve.n):
        cand = xc[:, indep + [k]]
        s = np.linalg.svd(cand, compute_uv=False)
        if s.size == len(indep) + 1 and s[-1] > thresh:
            indep.append(k)
    deps: dict[int, tuple[np.ndarray, float]] = {}
    residual_of_fit = 0.0
    dependent = [k for k in range(curve.n) if k not in indep]
    if dependent:
        a = np.column_stack([x[:, indep], np.ones(len(probes))])
        for k in dependent:
            coef, *_ = np.linalg.lstsq(a, x[:, k], rcond=None)
            fit = float(np.max(np.abs(a @ coef - x[:, k]))) if probes.size else 0.0
            deps[k] = (coef[:-1], float(coef[-1]))
            residual_of_fit = max(residual_of_fit, fit)
    return AffineRankReport(
        rank=len(indep),
        independent_indices=tuple(indep),
        dependency_coefficients=deps,
        residual_of_fit=residual_of_fit,
    )


def _nonneg_correction(x, w0, target):
    """Minimum-norm non-negative adjustment so the combination hits target.

    Solves min ||w - w0|| subject to sum(w) = 1, sum(w_i x_i) = target,
    w >= 0, by the min-norm equality solution plus an active-set loop that
    zeroes violated weights.  Returns (w, ok).

    Each step is the min-norm least-squares solution on the free columns
    (orthogonal factorization), refined once by solving again on its
    residual.  The normal equations would square the constraint matrix's
    condition number, about 1e8 for 11 monomials on a 128-cell grid of
    [0, 1], and miss the ``CORRECTION_TOL`` gate on targets the grid holds.
    """
    m, n = x.shape
    a = np.vstack([(x - target).T, np.ones(m)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    scale = 1.0 + float(np.max(np.abs(target)))
    free = np.ones(m, dtype=bool)
    w = w0.copy()
    for _ in range(60):
        af = a[:, free]
        rhs = b - af @ w0[free]
        step = np.linalg.lstsq(af, rhs, rcond=None)[0]
        step += np.linalg.lstsq(af, rhs - af @ step, rcond=None)[0]
        w_free = w0[free] + step
        w = np.zeros(m)
        w[free] = w_free
        neg = w_free < 0.0
        if not np.any(neg):
            break
        idx = np.flatnonzero(free)
        free[idx[neg]] = False
        if not np.any(free):
            return w0, False
    w = np.maximum(w, 0.0)
    ok = float(np.max(np.abs(a @ w - b))) <= CORRECTION_TOL * scale
    return w, ok


def discretize_hull_point(curve: CurveSystem, m: MeasureSpec, J, grid: int,
                          working: IntervalSpec | None = None,
                          mu_total: float | None = None,
                          config: SynthesisConfig | None = None):
    """Grid combination of curve points reproducing the integral vector.

    Cells are ``[s_i, s_{i+1})`` with the last cell closed; each cell
    contributes its left endpoint with the cell's density mass, and every
    atom contributes its own location with its mass.  The raw weights are
    then corrected (minimum-norm, non-negative) so the combination
    reproduces ``J / mu_total`` within ``CORRECTION_TOL``.  The grid
    doubles only when its own points cannot hold the target, for instance
    when the window puts nearly all the mass in one or two cells.  Failure
    at the grid cap signals that the integral vector sits on the hull
    boundary, so the caller must reduce the affine rank first.

    Returns ``(params, weights)`` with ``sum(weights) = mu_total``.
    """
    cfg = config or SynthesisConfig()
    if working is None:
        working = _resolve_working(curve, m, cfg)
    if grid < curve.n + 2:
        raise SchemaError(f"grid must be at least n+2 = {curve.n + 2}")
    if mu_total is None:
        mu_total = total_mass(m, cfg.tol)
    j_vals = np.asarray(getattr(J, "values", J), dtype=float)
    target = j_vals / mu_total
    atom_locs = np.array([loc for loc, _ in m.atoms])
    atom_masses = np.array([mass for _, mass in m.atoms])
    g = int(grid)
    while True:
        if m.density is not None:
            edges = np.linspace(working.lower, working.upper, g + 1)
            params = edges[:-1]
            masses = density_cell_masses(m, edges)
        else:
            params = np.empty(0)
            masses = np.empty(0)
        if atom_locs.size:
            params = np.concatenate([params, atom_locs])
            masses = np.concatenate([masses, atom_masses])
        params, masses = merge_coincident(params, masses)
        keep = masses > 0.0
        params, masses = params[keep], masses[keep]
        nu = masses / math.fsum(masses)
        x = curve.evaluate(params)
        nu2, ok = _nonneg_correction(x, nu, target)
        if ok:
            return params, nu2 * mu_total
        if g >= GRID_CAP:
            raise DiscretizationError(
                f"no grid up to {GRID_CAP} admits a non-negative exact "
                "correction; the integral vector is numerically on the hull "
                "boundary"
            )
        g *= 2


def _constant_rule(curve, m, working, j_vals, mu):
    """Rank-0 case: every function is constant wherever the measure has mass."""
    mean = j_vals / mu
    candidates = _measure_probes(m, working)
    vals = curve.evaluate(candidates)
    miss = np.max(np.abs(vals - mean), axis=1)
    node = float(candidates[int(np.argmin(miss))])
    full = CurveSystem(components=curve.components, interval=m.interval)
    return polish_combination(full, np.array([node]), np.array([mu]), mean, mu)


def _gate_residuals(curve, nodes, lam, j_vals):
    node_vals = curve.evaluate(nodes)
    recon = lam @ node_vals
    resid = np.abs(recon - j_vals)
    ok = resid <= RESIDUAL_GATE * (1.0 + np.abs(j_vals))
    return resid, ok


def _refit_weights(node_vals, j_vals, mu, lam):
    """Weights minimizing the scaled residual subject to sum = mu exactly.

    Solves the KKT system of min ||D (node_vals^T w - J)||^2 with the mass
    equality constraint; keeps the polished weights when the refit turns a
    weight genuinely negative or worsens the residual.
    """
    m = lam.size
    d = 1.0 / (1.0 + np.abs(j_vals))
    a = node_vals.T * d[:, None]
    b = j_vals * d
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * a.T @ a
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.concatenate([2.0 * a.T @ b, [mu]])
    try:
        sol = np.linalg.solve(kkt, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    fit = sol[:m]
    if np.any(fit < -1e-12 * mu):
        return lam
    fit = np.maximum(fit, 0.0)

    def key(w):
        mass_ok = abs(math.fsum(w) - mu) <= MASS_GATE * mu
        rel = float(np.max(np.abs(w @ node_vals - j_vals) * d))
        return (not mass_ok, rel)

    return fit if key(fit) <= key(lam) else lam


def _synthesize_pass(curve, m, working, j_vals, mu, cfg, restrict):
    n = curve.n
    if restrict:
        report = affine_rank(curve, m, working=working, config=cfg)
        indep = list(report.independent_indices)
    else:
        report = None
        indep = list(range(n))

    if not indep:
        nodes, lam, converged = _constant_rule(curve, m, working, j_vals, mu)
        rank_used = 0
    else:
        while True:
            sub = CurveSystem(
                components=tuple(curve.components[i] for i in indep),
                interval=working,
            )
            sub_j = j_vals[indep]
            try:
                params, w = discretize_hull_point(
                    sub, m, sub_j, cfg.grid0, working=working, mu_total=mu,
                    config=cfg,
                )
                break
            except DiscretizationError:
                if not restrict or len(indep) <= 1:
                    raise
                indep = indep[:-1]  # enforce A2: drop into a lower rank
        rank_used = len(indep)
        target = sub_j / mu
        comb = caratheodory_finite(sub.evaluate(params), w / mu, target,
                                   params=params)
        if len(comb) > rank_used:
            comb = reduce_on_curve(sub, comb, target)
        # polish against the measure's full interval: exhaustion bias is
        # absorbed here because nodes may move anywhere in it
        polish_curve = CurveSystem(components=sub.components,
                                   interval=m.interval)
        nodes, lam = comb.params, comb.weights * mu
        converged = False
        for _ in range(max(1, len(nodes))):
            nodes, lam, converged = polish_combination(
                polish_curve, nodes, lam, target, mu)
            drop = lam <= 1e-14 * mu
            if not np.any(drop) or np.all(drop):
                break
            nodes, lam = nodes[~drop], lam[~drop]

    nodes, lam = merge_coincident(nodes, lam)
    lam = _refit_weights(curve.evaluate(nodes), j_vals, mu, lam)

    mass_ok = abs(math.fsum(lam) - mu) <= MASS_GATE * mu
    resid, ok = _gate_residuals(curve, nodes, lam, j_vals)
    if not (mass_ok and np.all(ok)):
        # the weight refit spans all n functions, so a dependent function's
        # miss can land on independent ones or on the mass: any gate failure
        # of a pass that dropped dependents is retried on the full system
        if restrict and report.dependency_coefficients:
            raise _DependentMismatch
        if not mass_ok:
            raise PolishError(
                f"weights sum to {math.fsum(lam)} instead of the total mass {mu}"
            )
        bad = np.flatnonzero(~ok)
        raise PolishError(
            f"rule residuals exceed the {RESIDUAL_GATE} gate for "
            f"function(s) {bad.tolist()}"
        )
    return QuadratureRule(
        nodes=nodes,
        weights=lam,
        total=mu,
        residuals=resid,
        rank_used=rank_used,
        converged=bool(converged),
    )


def synthesize_rule(curve: CurveSystem, m: MeasureSpec,
                    config: SynthesisConfig | None = None) -> QuadratureRule:
    """Build an exact rule with at most n nodes and non-negative weights.

    The weights sum to the total mass of the measure, and each function's
    weighted node sum matches its integral within the residual gate.
    Raises :class:`DiscretizationError` when the integral vector cannot be
    represented (hull boundary at full rank), :class:`PolishError` when the
    final residuals miss the gate, and propagates integration or domain
    failures from the inputs.
    """
    cfg = config or SynthesisConfig()
    ivec, working = exhaust_interval(m, curve, cfg.tol)
    mu, j_vals = ivec.mass, ivec.values
    for comp in curve.components:
        continuity_probe(comp, working.lower, working.upper)
    try:
        return _synthesize_pass(curve, m, working, j_vals, mu, cfg, restrict=True)
    except _DependentMismatch:
        # the affine relation held only on the measure's support, not at the
        # synthesized nodes, or the refit spread a miss; retry on the full
        # system
        return _synthesize_pass(curve, m, working, j_vals, mu, cfg, restrict=False)


def verify_rule(rule: QuadratureRule, curve: CurveSystem,
                m: MeasureSpec) -> VerificationReport:
    """Re-integrate at ``VERIFY_TOL`` and check the rule against the
    synthesis gates ``RESIDUAL_GATE`` and ``MASS_GATE``."""
    ref = integrate_system(m, curve, VERIFY_TOL)
    j_ref, mass = ref.values, ref.mass
    node_vals = curve.evaluate(rule.nodes)
    recon = rule.weights @ node_vals
    resid = np.abs(recon - j_ref)
    rel = resid / (1.0 + np.abs(j_ref))
    weight_sum = float(math.fsum(rule.weights))
    ws_err = abs(weight_sum - mass) / mass
    nodes_in = all(m.interval.contains(float(t)) for t in rule.nodes)
    nonneg = bool(np.all(rule.weights >= 0.0))
    passed = bool(np.all(rel <= RESIDUAL_GATE) and ws_err <= MASS_GATE
                  and nodes_in and nonneg)
    return VerificationReport(
        reference=j_ref,
        residuals=resid,
        relative_residuals=rel,
        weight_sum=weight_sum,
        weight_sum_rel_error=ws_err,
        nodes_in_interval=nodes_in,
        weights_nonnegative=nonneg,
        passed=passed,
    )


def rule_to_json(rule: QuadratureRule) -> dict:
    return {
        "nodes": [float(x) for x in rule.nodes],
        "weights": [float(x) for x in rule.weights],
        "total": float(rule.total),
        "residuals": [float(x) for x in rule.residuals],
        "rank_used": int(rule.rank_used),
    }


def rule_from_json(obj) -> QuadratureRule:
    check_fields(obj, "rule",
                 {"nodes": numbers, "weights": numbers, "total": number,
                  "residuals": numbers, "rank_used": integer},
                 optional=("residuals", "rank_used"))
    return QuadratureRule(
        nodes=np.asarray(obj["nodes"], dtype=float),
        weights=np.asarray(obj["weights"], dtype=float),
        total=float(obj["total"]),
        residuals=np.asarray(obj.get("residuals", []), dtype=float),
        rank_used=obj.get("rank_used", len(obj["nodes"])),
    )


_CONFIG_KINDS = {"tol": number, "grid0": integer}


def config_from_json(obj, base: SynthesisConfig | None = None) -> SynthesisConfig:
    base = base or SynthesisConfig()
    if obj is None:
        return base
    check_fields(obj, "tolerances", _CONFIG_KINDS, optional=_CONFIG_KINDS)
    return replace(base, **{key: type(getattr(base, key))(value)
                            for key, value in obj.items()})
