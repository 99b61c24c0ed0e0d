"""Covariance representation and Gruss-type bounds for functions of a
random variable.

For continuous f, g with finite second moments under a probability measure
on an interval, the covariance of f(X) and g(X) equals
(1/4)(f(t1) - f(t2))(g(t1) - g(t2)) for some t1, t2 in the interval.  The
witness pair is built constructively: a two-node exact rule for the system
(x1, x2) = ((f - Ef)(g - Eg), f) gives

    Cov = lambda (1 - lambda) (f(t1) - f(t2)) (g(t1) - g(t2)),

and a batched bracket refinement along the curve parameter (one even
round, then secant-centred rounds, usually 3 or 4 in all) moves the second
node until the factor lambda(1 - lambda) is replaced by its maximal value
1/4.  The moments and the rule share one integration pass: the integrals
of x1 and x2 are linear in the moments, and the pass's Gauss rule is a
positive discrete measure with those moments.

The covariance bound |Cov| <= (1/4)(M_f - m_f)(M_g - m_g) then follows
with function extrema over the interval.  They are found by a scan of
4096 points and batched rounds that sample the cells around the four
best points in one evaluation of (f, g) each, usually 5 rounds.  A
discrete sequence version falls out by using an atomic measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EvalDomainError,
    MomentDivergenceError,
    NonConvergenceError,
    SchemaError,
    UnboundedFunctionError,
    WeightNormalizationError,
)
from .expr import Expression, evaluate_columns
from .hull import REFINE_POINTS, CurveSystem, refine_bracket
from .measure import MeasureSpec, exhaust, exhaust_interval
from .synth import RESIDUAL_GATE, SynthesisConfig, synthesize_on_pass

__all__ = [
    "CovarianceWitness",
    "GrussReport",
    "covariance",
    "covariance_witness",
    "gruss_check",
    "gruss_discrete",
]

_SCAN_POINTS = 4096
_CELL_TOL = 1e-10      # relative width at which an extremum's cell closes
# sample offsets of a refinement round, in cell widths: both ends and
# REFINE_POINTS even interior points
_CELL_STEPS = np.linspace(0.0, 1.0, REFINE_POINTS + 2)
_EXTREMA_RTOL = 1e-10  # window-to-window stability of the extrema
MOMENT_TOL = 1e-11     # integration tolerance of the moments


@dataclass(frozen=True)
class CovarianceWitness:
    """Two points realizing the covariance as a quarter product gap."""

    t1: float
    t2: float
    covariance: float
    product_gap: float


@dataclass(frozen=True)
class GrussReport:
    covariance: float
    m_f: float
    M_f: float
    m_g: float
    M_g: float
    bound: float
    slack: float


def _moments(f: Expression, g: Expression, m: MeasureSpec,
             tol: float = MOMENT_TOL):
    """Probability-normalized Ef, Eg, Efg; checks the second moments.

    Returns ``((ef, eg, efg), J, window)``: ``J`` integrates
    (f, g, fg, f^2, g^2) in one pass at ``tol`` and ``window`` is that
    pass's window, as :func:`~exactquad.measure.exhaust_interval` returns
    them.  f and g are evaluated before their products at every point, so
    a non-finite product is an overflowing second moment, not a domain
    error.
    """
    products = (f * g, f * f, g * g)
    system = CurveSystem(components=(f, g, *products), interval=m.interval)
    try:
        moments, window = exhaust_interval(m, system, tol)
    except NonConvergenceError as exc:
        raise MomentDivergenceError(
            f"first or second moments do not converge: {exc}"
        ) from exc
    except EvalDomainError as exc:
        if exc.subexpr not in {p.text for p in products}:
            raise
        raise MomentDivergenceError(f"second moments overflow: {exc}") from exc
    ef, eg, efg, ef2, eg2 = (float(v) / moments.mass for v in moments.values)
    if not all(math.isfinite(v) for v in (ef, eg, efg, ef2, eg2)):
        raise MomentDivergenceError("moments are not finite")
    return (ef, eg, efg), moments, window


def covariance(f: Expression, g: Expression, m: MeasureSpec) -> float:
    """Cov(f(X), g(X)) under the measure normalized to a probability law."""
    (ef, eg, efg), _, _ = _moments(f, g, m)
    return efg - ef * eg


def _support_point(m: MeasureSpec) -> float:
    if m.atoms:
        return float(max(m.atoms, key=lambda a: a[1])[0])
    lo, hi = m.interval.lower, m.interval.upper
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    if math.isfinite(lo):
        return lo + 1.0
    if math.isfinite(hi):
        return hi - 1.0
    return 0.0


def covariance_witness(f: Expression, g: Expression, m: MeasureSpec,
                       config: SynthesisConfig | None = None) -> CovarianceWitness:
    """Points (t1, t2) with Cov(f(X), g(X)) = (1/4)(f(t1)-f(t2))(g(t1)-g(t2)).

    One integration pass computes the moments, at ``MOMENT_TOL`` or at
    ``config.tol`` if that is tighter.  Zero covariance returns t1 = t2.
    Otherwise a two-node exact rule for ((f - Ef)(g - Eg), f) supplies
    nodes satisfying the lambda(1 - lambda) identity; both integrals are
    linear in the moments, so the rule is synthesized on the Gauss rule of
    the same pass (:func:`~exactquad.synth.synthesize_on_pass`).  With t1
    held fixed, batched rounds of :func:`~exactquad.hull.refine_bracket`
    on [t1, t2] locate the point where the product gap reaches 4 Cov,
    which exists by continuity.  The score is psi + tol_phi, with psi the
    signed excess of the gap over 4 Cov and tol_phi = 1e-11 (1 + 4 |Cov|),
    so a point with psi >= -tol_phi hits, and one with |psi| <= tol_phi
    ends the search.  It returns the first such point the probes see.  A
    failed bracket is reported as an error, never patched.
    """
    tol = min(MOMENT_TOL, (config or SynthesisConfig()).tol)
    (ef, eg, efg), moments, window = _moments(f, g, m, tol)
    cov = efg - ef * eg
    zero_scale = 1e-12 * (1.0 + abs(efg) + abs(ef * eg))
    if abs(cov) <= zero_scale:
        t = _support_point(m)
        return CovarianceWitness(t1=t, t2=t, covariance=cov, product_gap=0.0)

    x1 = (f - ef) * (g - eg)
    system = CurveSystem(components=(x1, f), interval=m.interval)
    # the pass integrated the mass, f, g and fg, so it integrated x1 too
    J = replace(moments, values=np.array([moments.mass * cov,
                                          moments.values[0]]))
    rule = synthesize_on_pass(system, m, J, window)
    nu = rule.weights / math.fsum(rule.weights)

    if len(rule) == 1:
        # a single node forces lambda in {0, 1}, which forces Cov = 0;
        # reaching here with |Cov| above the gate is an inconsistency
        if abs(cov) > RESIDUAL_GATE * (1.0 + abs(cov)):
            raise NonConvergenceError(
                "single-node rule is inconsistent with a non-zero covariance"
            )
        t = float(rule.nodes[0])
        return CovarianceWitness(t1=t, t2=t, covariance=cov, product_gap=0.0)

    t1, t2 = float(rule.nodes[0]), float(rule.nodes[1])
    (f1, g1), (f2, g2) = evaluate_columns((f, g), rule.nodes[:2])
    h2 = float((f1 - f2) * (g1 - g2))

    def gaps(ss):
        # the product gaps h(s) = (f(t1)-f(s))(g(t1)-g(s))
        vals = evaluate_columns((f, g), ss)
        return (f1 - vals[:, 0]) * (g1 - vals[:, 1])

    lam = float(nu[0])
    if abs(lam * (1.0 - lam) - 0.25) <= 1e-12:
        return CovarianceWitness(t1=t1, t2=t2, covariance=cov,
                                 product_gap=0.25 * h2)

    # move the second point until h(s) grows from 0 to 4 Cov;
    # h(t2) = Cov / (lam (1 - lam)) overshoots it
    sign = 1.0 if cov > 0 else -1.0

    def psi(h):
        return sign * (h - 4.0 * cov)

    psi_b = psi(h2)
    if psi_b < 0.0:
        raise NonConvergenceError(
            "witness bracket failed: the two-node gap does not cover 4*Cov "
            f"(psi(t2) = {psi_b:.3e}); continuity assumptions look violated"
        )
    tol_phi = 1e-11 * (1.0 + 4.0 * abs(cov))
    width_floor = 8.0 * np.finfo(float).eps * max(1.0, abs(t1), abs(t2))

    def probe(ss):
        # a point with psi >= -tol_phi hits; one with |psi| <= tol_phi ends
        # the search there
        h = gaps(ss)
        return psi(h) + tol_phi, h

    def done(a, b, h_hi):
        return b - a <= width_floor or abs(psi(h_hi)) <= tol_phi

    s_star, h_star = refine_bracket(probe, t1, t2, psi_b + tol_phi, h2, done)
    product_gap = 0.25 * float(h_star)
    if abs(product_gap - cov) > RESIDUAL_GATE * (1.0 + abs(cov)):
        raise NonConvergenceError(
            f"witness search left a gap of {abs(product_gap - cov):.3e}; "
            "continuity assumptions look violated"
        )
    return CovarianceWitness(t1=t1, t2=float(s_star), covariance=cov,
                             product_gap=product_gap)


def _best_cells(grid, scores):
    """Each row's best score and the two gaps of ``grid`` around it."""
    j = np.argmax(scores, axis=1)
    rows = np.arange(len(j))
    last = grid.shape[1] - 1
    return (scores[rows, j], grid[rows, np.maximum(j - 1, 0)],
            grid[rows, np.minimum(j + 1, last)])


def _window_extrema(fns, lo: float, hi: float, extra: np.ndarray):
    """Minimum and maximum of each function on [lo, hi], in that order.

    One evaluation scans ``_SCAN_POINTS`` even points and the atoms in
    ``extra``; each extremum keeps the two scan gaps around its best
    point.  Each round then samples every open cell at ``REFINE_POINTS``
    interior points and its two ends, in one evaluation, and keeps the two
    sample gaps around the cell's best point, so a cell shrinks 32-fold
    or more.  A cell closes once it is narrower than ``_CELL_TOL`` times
    max(1, |a|, |b|) of its scan cell [a, b].  An extremum is the best
    value sampled, so one at a scan point, an end of the window included,
    is exact.
    """
    k = len(fns)
    col = np.repeat(np.arange(k), 2)  # cell c refines function col[c] ...
    sign = np.tile([-1.0, 1.0], k)    # ... towards its minimum or maximum
    ts = np.linspace(lo, hi, _SCAN_POINTS)
    if extra.size:
        ts = np.unique(np.concatenate([ts, extra]))
    scores = sign[:, None] * evaluate_columns(fns, ts).T[col]
    best, a, b = _best_cells(np.broadcast_to(ts, scores.shape), scores)
    tol = _CELL_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    cells = np.flatnonzero(b - a > tol)
    while cells.size:
        grid = a[cells, None] + (b - a)[cells, None] * _CELL_STEPS
        vals = evaluate_columns(fns, grid.ravel()).reshape(grid.shape + (k,))
        scores = sign[cells, None] * vals[np.arange(cells.size), :, col[cells]]
        top, a[cells], b[cells] = _best_cells(grid, scores)
        best[cells] = np.maximum(best[cells], top)
        cells = cells[b[cells] - a[cells] > tol[cells]]
    return sign * best


def _extrema(fns, m: MeasureSpec) -> list[float]:
    """Infimum and supremum of each function over the measure's interval,
    in that order."""
    atoms = np.array([loc for loc, _ in m.atoms])

    def on_window(window, inner):
        inside = atoms[(atoms >= window.lower) & (atoms <= window.upper)]
        return _window_extrema(fns, window.lower, window.upper, inside)

    try:
        vals, _ = exhaust(m, on_window, _EXTREMA_RTOL)
    except NonConvergenceError:
        raise UnboundedFunctionError(
            "extrema did not stabilize under interval expansion; "
            "a function looks unbounded on the interval"
        ) from None
    return [float(v) for v in vals]


def _gruss_report(cov, m_f, big_f, m_g, big_g) -> GrussReport:
    bound = 0.25 * (big_f - m_f) * (big_g - m_g)
    return GrussReport(covariance=cov, m_f=m_f, M_f=big_f, m_g=m_g, M_g=big_g,
                       bound=bound, slack=bound - abs(cov))


def gruss_check(f: Expression, g: Expression, m: MeasureSpec) -> GrussReport:
    """Covariance bound report: |Cov| <= (1/4)(M_f - m_f)(M_g - m_g)."""
    cov = covariance(f, g, m)
    return _gruss_report(cov, *_extrema((f, g), m))


def gruss_discrete(p, u, v) -> GrussReport:
    """Discrete covariance bound for weighted bounded sequences.

    ``p`` must be non-negative and sum to 1 within 1e-12; all three
    sequences share one length (at most 10^6, so the fixed-order exact
    sums stay reproducible).  Raises :class:`MomentDivergenceError` when a
    moment or the bound overflows a double.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if p.ndim != 1 or p.shape != u.shape or p.shape != v.shape:
        raise SchemaError("p, u, v must be 1-d sequences of one length")
    if p.size == 0 or p.size > 10**6:
        raise SchemaError("sequence length must be between 1 and 10^6")
    if np.any(p < 0.0):
        raise WeightNormalizationError("weights must be non-negative")
    total = math.fsum(p)
    if not abs(total - 1.0) <= 1e-12:
        raise WeightNormalizationError(
            f"weights sum to {total}, not 1 (within 1e-12)"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (p * u, p * v, p * u * v)
    try:
        e_u, e_v, e_uv = map(math.fsum, terms)
    except (OverflowError, ValueError):  # the sum leaves the double range
        e_u = e_v = e_uv = math.inf
    cov = e_uv - e_u * e_v
    report = _gruss_report(cov, float(np.min(u)), float(np.max(u)),
                           float(np.min(v)), float(np.max(v)))
    if not all(map(math.isfinite, (e_u, e_v, e_uv, cov, report.bound))):
        raise MomentDivergenceError(
            "the moments or the bound of the sequences overflow a double")
    return report
