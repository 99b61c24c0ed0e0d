"""Synthesis of exact n-point quadrature rules.

Given n integrable continuous functions and a finite positive measure, the
pipeline produces at most n nodes with non-negative weights summing to the
total mass, reproducing every function integral:

1. integrate the functions and the mass in one pass, after a
   double-exponential change of variables on an open or infinite
   interval; the hull of the pass's nodes and the atoms is the compact
   working window;
2. detect affine dependencies among the functions over the measure's
   support (one weighted QR) and keep a maximal independent subset;
3. normalize the integral vector to unit mass, the mass being column 0 of
   that same pass, so the target is consistent with its window;
4. discretize the measure as the K15 nodes of step 1's accepted G7-K15
   panels (2 to start with) plus the atoms; the moments of this positive
   discrete measure are the integral vector itself, so the target lies in
   its hull by construction and the affine rank of step 2 is read on the
   same nodes; the curve is evaluated on them once, in one batch with
   the working window's two ends, where a function undefined at a closed
   end of the interval fails as a domain error, and the rank, the prune
   and the walk of step 5 share those values;
5. hand the whole discrete combination, with its rows, to
   :func:`~exactquad.hull.reduce_on_curve`: it prunes to at most rank+1
   support points with a merge-reduce Caratheodory elimination over
   contiguous node clusters (:func:`~exactquad.hull.caratheodory_finite`),
   then walks to at most rank points, scoring the discrete nodes inside
   the walked gap before it probes the curve; the result carries the
   rows of its support;
6. polish nodes and weights on all n functions, the dependent ones
   included (:func:`~exactquad.hull.polish_combination`): from those
   rows, first a least-squares correction of the weights alone, which
   ends the polish without evaluating the curve when it meets the
   target, and otherwise a damped Gauss-Newton solve that fits the
   weights at each trial's nodes with the mass exact; drop nodes whose weight
   reaches zero, rescale the rest to the exact mass, and gate every
   residual and the mass on the rows that the polish returns: the rows of
   :func:`~exactquad.hull.residual`, each function's over 1 + |J_k|
   (``RESIDUAL_GATE``) and the mass's over the mass (``MASS_GATE``), the
   gate that :func:`verify_rule` applies too.  Steps 5-6 run in one loop:
   on the independent subset, then, only if it dropped functions and
   missed the gate, on all n functions.

The produced rule is one of infinitely many valid rules; the pipeline is
deterministic, so identical inputs give identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    PolishError,
    SchemaError,
    check_fields,
    integer,
    number,
    numbers,
)
from .hull import (
    RANK_TOL,
    ConvexCombination,
    CurveSystem,
    merge_coincident,
    polish_combination,
    reduce_on_curve,
    residual,
)
from .measure import (
    DEFAULT_TOL,
    IntegralVector,
    IntervalSpec,
    MeasureSpec,
    exhaust_interval,
    integrate_system,
)

__all__ = [
    "AffineRankReport",
    "QuadratureRule",
    "VerificationReport",
    "affine_rank",
    "discretize_hull_point",
    "synthesize_rule",
    "verify_rule",
    "rule_from_json",
    "rule_to_json",
]

RESIDUAL_GATE = 1e-8    # final per-function exactness gate, relative
MASS_GATE = 1e-10       # weight sum against the total mass, relative
VERIFY_TOL = 1e-12      # re-integration tolerance of verify_rule
# a centred column whose weighted norm is below this times its weighted
# mean magnitude is the rounding of its mean: the function is constant.
# It is the rounding of a column's samples relative to its norm, too
ROUNDING_FLOOR = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class AffineRankReport:
    """Affine rank of the sampled curve over the measure's support."""

    rank: int
    independent_indices: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    total: float
    residuals: np.ndarray
    rank_used: int  # affine rank of the functions over the measure's support
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


def discretize_hull_point(curve: CurveSystem, m: MeasureSpec, J: IntegralVector):
    """The positive discrete measure whose moments are ``J``.

    ``J`` is the integral vector of ``curve`` against ``m``, from
    :func:`~exactquad.measure.exhaust_interval` or
    :func:`~exactquad.measure.integrate_system`.  Its K15 nodes and the
    atoms of ``m`` are merged and sorted, and zero weights (density
    underflow) are dropped.  Without atoms the K15 nodes are already
    strictly increasing, unless two nodes of panels at the integrator's
    width floor round together, and are kept as they are.  Since the
    integrals are the moments of this measure, ``J / J.mass`` lies in the
    convex hull of its curve points by construction.

    Returns ``(params, weights)``: distinct increasing parameters, weights
    > 0 that sum to ``J.mass`` and reproduce ``J.values`` up to rounding.
    """
    if len(J.values) != curve.n:
        raise SchemaError(f"J has {len(J.values)} integrals for {curve.n} functions")
    params = np.concatenate([J.nodes, [loc for loc, _ in m.atoms]])
    weights = np.concatenate([J.weights, [mass for _, mass in m.atoms]])
    if m.atoms or not (params[1:] > params[:-1]).all():
        params, weights = merge_coincident(params, weights)
    keep = weights > 0.0
    return params[keep], weights[keep]


def affine_rank(curve: CurveSystem, m: MeasureSpec, *,
                support=None) -> AffineRankReport:
    """Affine rank of the function system over the measure's support.

    The support is the discrete measure of :func:`discretize_hull_point`;
    ``support``, the curve at its nodes and their weights (> 0) when the
    caller holds them, spares the integration pass and the evaluation.  The
    functions are centred on their weighted means, the rows weighted by
    the weights' square roots, and one QR factorization gives each
    function's sine to the span of the earlier independent ones: function
    k is independent when that sine exceeds ``RANK_TOL``, a greedy choice
    in index order in which no function's scale moves another's test.  A
    function whose centred norm is at the rounding of its mean
    (``ROUNDING_FLOOR``) is constant; rank 0 means every function is
    constant wherever the measure has mass.
    """
    if support is None:
        ivec, _ = exhaust_interval(m, curve, DEFAULT_TOL)
        params, w = discretize_hull_point(curve, m, ivec)
        support = curve.evaluate(params), w
    x, w = support
    # a power of two per column brings its largest entry below 1, so that
    # its centring cannot overflow nor its squares underflow
    a = np.ldexp(x, -np.frexp(np.maximum.reduce(np.abs(x)))[1])
    p = w / np.add.reduce(w)
    floor = ROUNDING_FLOOR * (p @ np.abs(a))
    a -= p @ a
    a -= p @ a  # the rounding of the first mean, which a constant keeps
    a *= np.sqrt(p)[:, None]
    norm = np.sqrt(np.add.reduce(a * a))
    live = (norm > floor).nonzero()[0]
    if live.size < norm.size:
        # a constant's centred norm is the rounding of its mean; in the QR
        # it would only cost the projections below
        a = a[:, live]
    norm = norm.tolist()
    # 'raw' holds R above h's diagonal and copies out no triangle
    h = np.linalg.qr(a, mode="raw")[0]
    d = np.abs(h.diagonal()).tolist()
    q = None  # rows: the accepted columns' directions in R's frame
    amp: list[float] = []  # ROUNDING_FLOOR over each accepted sine
    indep: list[int] = []
    worst, cap = 0.0, len(p) - 1  # c points of weight > 0 span c - 1 dims
    for i, k in enumerate(live.tolist()):
        j = len(indep)
        if j == i:
            s = d[i] / norm[k]  # the accepted columns span R's first i rows
        else:
            # a rejected column's row of R is no direction of the accepted
            # ones: project R's column i on those alone
            q = np.eye(len(d)) if q is None else q
            b, v = q[:j, :i + 1], h[i, :i + 1]
            coef = b @ v
            v = v - coef @ b
            s = math.sqrt(v @ v) / norm[k]
        # an accepted column's rounding, ROUNDING_FLOOR of its norm, turns
        # its direction by ROUNDING_FLOOR over its sine, and column i's
        # sine moves by that times column i's share of the direction
        tol = RANK_TOL
        if worst * j > RANK_TOL:
            coef = h[i, :i] if j == i else coef
            tol = max(tol, float(np.abs(coef) @ amp) / norm[k])
        if j < cap and s > tol:
            if j < i:  # twice, so that its direction is orthogonal to b's
                v -= (b @ v) @ b
                q[j, :i + 1] = v / math.sqrt(v @ v)
            indep.append(k)
            amp.append(ROUNDING_FLOOR / s)
            worst = max(worst, amp[-1])
    return AffineRankReport(rank=len(indep), independent_indices=tuple(indep))


def _synthesize_pass(curve, m, working, params, w, x, j_vals, mu, indep):
    """Candidate nodes and weights on the functions ``indep``: prune and
    walk (rank 0: the node whose row is nearest the target), then polish
    on all n functions, drop zero weights, rescale the rest to the mass
    ``mu`` and merge coincident nodes.
    ``x`` is the curve at the discrete measure's ``params``.  Returns
    ``(nodes, weights, rows, converged)``, ``rows`` being all n functions
    at the nodes."""
    target = j_vals / mu
    if not indep:
        i = int(np.abs(x - target).max(axis=1).argmin())
        start, lam, rows = params[i:i + 1], np.array([mu]), x[i:i + 1]
    else:
        sub = CurveSystem(tuple(curve.components[i] for i in indep), working)
        # the whole discrete measure: the walk is seeded with its rows
        comb = reduce_on_curve(
            sub, ConvexCombination(params, w / mu, 1.0, points=x[:, indep]),
            target[indep])
        start, lam = comb.params, comb.weights * mu
        rows = comb.points if len(indep) == curve.n else None
    # polish against the measure's full interval: nodes may move out of the
    # working window, which is only the hull of the discrete measure
    nodes, lam, converged, rows = polish_combination(
        CurveSystem(curve.components, m.interval), start, lam, target, mu,
        points=rows)
    keep = lam > 1e-14 * mu
    if keep.any():
        # Gauss-Newton weights hold the mass only to the polish's absolute
        # target, which MASS_GATE, relative to mu, misses when mu is small
        nodes, lam, rows = nodes[keep], lam[keep], rows[keep]
        lam = lam * (mu / math.fsum(lam))
    return (*merge_coincident(nodes, lam, rows), converged)


def synthesize_rule(curve: CurveSystem, m: MeasureSpec,
                    tol: float = DEFAULT_TOL) -> QuadratureRule:
    """Build an exact rule with at most n nodes and non-negative weights.

    The weights sum to the total mass of the measure, and each function's
    weighted node sum matches its integral within the residual gate.
    ``tol`` is the relative tolerance of the integration pass; the
    integrator refuses one that is not finite and > 0 with a
    :class:`SchemaError`.  Raises :class:`PolishError` when the final
    residuals miss the gate, and propagates integration or domain failures
    from the inputs.
    """
    return synthesize_on_pass(curve, m, *exhaust_interval(m, curve, tol))


def synthesize_on_pass(curve: CurveSystem, m: MeasureSpec, J: IntegralVector,
                       working: IntervalSpec) -> QuadratureRule:
    """:func:`synthesize_rule` after its integration pass.

    ``J`` holds the integrals of ``curve`` against ``m`` and the K15
    rule of the pass that computed them, ``working`` that pass's window.
    Discretizes, evaluates the discrete measure in one batch with the
    window's two ends (the continuity probe: the discrete nodes cover the
    interior, and a closed end of the interval is an end of the window),
    and reads the affine rank.  One loop builds a candidate on the
    independent subset, polishes it on all n functions and gates every
    residual; if the subset dropped functions and missed the gate (a
    dependence that holds on the support, not at the nodes), it runs once
    more on all n functions.  ``rank_used`` is the affine rank either way.
    """
    params, w = discretize_hull_point(curve, m, J)
    # one batch: the discrete measure's nodes, then the window's two ends
    x = curve.evaluate(np.concatenate(
        [params, (working.upper, working.lower)]))[:params.size]
    report = affine_rank(curve, m, support=(x, w))
    subsets = [list(report.independent_indices)]
    if report.rank < curve.n:
        subsets.append(list(range(curve.n)))
    for indep in subsets:
        nodes, lam, rows, converged = _synthesize_pass(
            curve, m, working, params, w, x, J.values, J.mass, indep)
        r, scale = residual(lam, rows, J.values, J.mass)
        rel, mass_err = np.abs(r[:-1]) / scale[:-1], abs(r[-1]) / J.mass
        if mass_err <= MASS_GATE and (rel <= RESIDUAL_GATE).all():
            return QuadratureRule(nodes=nodes, weights=lam, total=J.mass,
                                  residuals=np.abs(r[:-1]), rank_used=report.rank,
                                  converged=bool(converged))
    if not mass_err <= MASS_GATE:
        raise PolishError(
            f"weights sum to {math.fsum(lam)} instead of the total mass {J.mass}"
        )
    raise PolishError(
        f"rule residuals exceed the {RESIDUAL_GATE} gate for "
        f"function(s) {(~(rel <= RESIDUAL_GATE)).nonzero()[0].tolist()}"
    )


def verify_rule(rule: QuadratureRule, curve: CurveSystem,
                m: MeasureSpec) -> VerificationReport:
    """Re-integrate at ``VERIFY_TOL`` and check the rule against the
    synthesis gates ``RESIDUAL_GATE`` and ``MASS_GATE``."""
    ref = integrate_system(m, curve, VERIFY_TOL)
    r, scale = residual(rule.weights, curve.evaluate(rule.nodes), ref.values, ref.mass)
    resid, ws_err = np.abs(r[:-1]), abs(r[-1]) / ref.mass
    rel = resid / scale[:-1]
    nodes_in = all(m.interval.contains(float(t)) for t in rule.nodes)
    nonneg = bool((rule.weights >= 0.0).all())
    passed = bool((rel <= RESIDUAL_GATE).all() and ws_err <= MASS_GATE
                  and nodes_in and nonneg)
    return VerificationReport(
        reference=ref.values,
        residuals=resid,
        relative_residuals=rel,
        weight_sum=float(math.fsum(rule.weights)),
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
