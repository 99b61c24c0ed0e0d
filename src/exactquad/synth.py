"""Synthesis of exact n-point quadrature rules.

Given n integrable continuous functions and a finite positive measure, the
pipeline produces at most n nodes with non-negative weights summing to the
total mass, reproducing every function integral:

1. integrate the functions and the mass in one pass, after a
   double-exponential change of variables on an open or infinite
   interval (:func:`~exactquad.measure.integrate_system`); the pass's
   :class:`~exactquad.measure.IntegralVector` carries its K15 nodes and
   the compact working window, the hull of those nodes and the atoms;
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
5. prune the whole discrete combination, held as arrays of parameters,
   weights and rows up to the gate, to at most rank+1 support points with
   a merge-reduce Caratheodory elimination over contiguous node clusters,
   then walk to at most rank points, scoring the discrete nodes inside the
   walked gap before probing the curve: hull's kernels ``_prune`` and
   ``_walk``, without the input check of
   :func:`~exactquad.hull.caratheodory_finite`, which the discrete
   measure meets by construction.  The prune's output is gated at
   ``RECON_TOL``; the walked support is merged, rescaled and handed to
   step 6 ungated, since the walk's crossing may leave a miss that only
   the polish removes.  :func:`~exactquad.hull.reduce_on_curve` is this
   whole pipeline on an atomic measure, so the curve theorem shares steps
   1-6 and their gate;
6. polish nodes and weights on all n functions, the dependent ones
   included (:func:`~exactquad.hull.polish_combination`): from those
   rows, first a least-squares correction of the weights alone, which
   ends the polish without evaluating the curve when it meets the
   target, and otherwise a damped Gauss-Newton solve, from the corrected
   weights when they cut the residual tenfold, that fits the weights at
   each trial's nodes with the mass exact; drop nodes whose weight
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
    CurveSystem,
    _prune,
    _rescaled,
    _walk,
    merge_coincident,
    polish_combination,
    residual,
)
from .measure import DEFAULT_TOL, IntegralVector, MeasureSpec, integrate_system

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


def discretize_hull_point(curve: CurveSystem, m: MeasureSpec, J: IntegralVector):
    """The positive discrete measure whose moments are ``J``.

    ``J`` is the integral vector of ``curve`` against ``m``, from
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
        params, w = discretize_hull_point(
            curve, m, integrate_system(m, curve, DEFAULT_TOL))
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


def _synthesize_pass(curve, m, J, params, w, x, indep):
    """Candidate nodes and weights on the functions ``indep``: prune and
    walk (rank 0: the node whose row is nearest the target), then polish
    on all n functions, drop zero weights, merge coincident nodes and
    rescale the rest to the mass mu = ``J.mass`` (hull's ``_rescaled``).
    ``x`` is the curve at the discrete measure's ``params``.  The prune and
    the walk are hull's array kernels on the unit-mass weights w / mu; the
    prune's output is gated at ``RECON_TOL`` (see step 5), the walked
    support goes to the polish as it is, and the caller's :func:`_gate`
    judges the polished rule.
    Returns ``(nodes, weights, rows, converged)``, ``rows`` being all n
    functions at the nodes."""
    mu = J.mass
    target = J.values / mu
    if not indep:
        i = int(np.abs(x - target).max(axis=1).argmin())
        start, lam, rows = params[i:i + 1], np.array([mu]), x[i:i + 1]
    else:
        v, xs, nu = target[indep], x[:, indep], w / mu
        total = math.fsum(nu.tolist())
        start, lam, rows = _prune(xs, nu, v, total, params)
        if start.size > len(indep):
            # the whole discrete measure seeds the walk with its rows
            sub = CurveSystem(tuple(curve.components[i] for i in indep), J.window)
            start, lam, rows = _rescaled(*_walk(
                sub, start, lam, rows, params, xs, v, 1.0), 1.0)
        lam = lam * mu
        rows = rows if len(indep) == curve.n else None
    # polish against the measure's full interval: nodes may move out of the
    # working window, which is only the hull of the discrete measure
    nodes, lam, converged, rows = polish_combination(
        CurveSystem(curve.components, m.interval), start, lam, target, mu,
        points=rows)
    keep = lam > 1e-14 * mu
    if keep.any():
        # Gauss-Newton weights hold the mass only to the polish's absolute
        # target, which MASS_GATE, relative to mu, misses when mu is small
        return (*_rescaled(nodes[keep], lam[keep], rows[keep], mu), converged)
    return (*merge_coincident(nodes, lam, rows), converged)


def _gate(weights, rows, values, mass):
    """The exactness gate of a rule with curve ``rows`` at its nodes against
    the integrals ``values`` and the ``mass``: each function's absolute
    residual, its relative residual over 1 + |J_k|, the mass's relative
    error, and whether they meet ``RESIDUAL_GATE`` and ``MASS_GATE``."""
    r, scale = residual(weights, rows, values, mass)
    resid, mass_err = np.abs(r[:-1]), abs(r[-1]) / mass
    rel = resid / scale[:-1]
    return resid, rel, mass_err, bool(mass_err <= MASS_GATE
                                      and (rel <= RESIDUAL_GATE).all())


def synthesize_rule(curve: CurveSystem, m: MeasureSpec,
                    tol: float = DEFAULT_TOL) -> QuadratureRule:
    """Build an exact rule with at most n nodes and non-negative weights.

    The weights sum to the total mass of the measure, and each function's
    weighted node sum matches its integral within the residual gate.
    ``tol`` is the relative tolerance of the integration pass; the
    integrator refuses one that is not finite and > 0 with a
    :class:`SchemaError`.  After the pass, discretizes, evaluates the
    discrete measure in one batch with the working window's two ends (the
    continuity probe: the discrete nodes cover the interior, and a closed
    end of the interval is an end of the window), and reads the affine
    rank.  One loop builds a candidate on the independent subset, polishes
    it on all n functions and gates every residual; if the subset dropped
    functions and missed the gate (a dependence that holds on the support,
    not at the nodes), it runs once more on all n functions.  ``rank_used``
    is the affine rank either way.  Raises :class:`PolishError` when the
    final residuals miss the gate, and propagates integration or domain
    failures from the inputs.
    """
    J = integrate_system(m, curve, tol)
    params, w = discretize_hull_point(curve, m, J)
    # one batch: the discrete measure's nodes, then the window's two ends
    x = curve.evaluate(np.concatenate(
        [params, (J.window.upper, J.window.lower)]))[:params.size]
    report = affine_rank(curve, m, support=(x, w))
    subsets = [list(report.independent_indices)]
    if report.rank < curve.n:
        subsets.append(list(range(curve.n)))
    for indep in subsets:
        nodes, lam, rows, converged = _synthesize_pass(curve, m, J, params, w,
                                                       x, indep)
        resid, rel, mass_err, passed = _gate(lam, rows, J.values, J.mass)
        if passed:
            return QuadratureRule(nodes=nodes, weights=lam, total=J.mass,
                                  residuals=resid, rank_used=report.rank,
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
    resid, rel, ws_err, exact = _gate(rule.weights, curve.evaluate(rule.nodes),
                                      ref.values, ref.mass)
    nodes_in = all(m.interval.contains(float(t)) for t in rule.nodes)
    nonneg = bool((rule.weights >= 0.0).all())
    return VerificationReport(
        reference=ref.values,
        residuals=resid,
        relative_residuals=rel,
        weight_sum=float(math.fsum(rule.weights)),
        weight_sum_rel_error=ws_err,
        nodes_in_interval=nodes_in,
        weights_nonnegative=nonneg,
        passed=exact and nodes_in and nonneg,
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
