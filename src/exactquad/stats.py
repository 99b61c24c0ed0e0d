"""Covariance representation and Gruss-type bounds for functions of a
random variable.

For continuous f, g with finite second moments under a probability measure
on an interval, the covariance of f(X) and g(X) equals
(1/4)(f(t1) - f(t2))(g(t1) - g(t2)) for some t1, t2 in the interval.  The
witness pair is built constructively from the moments pass: its K15 nodes
and the atoms carry a discrete measure with the same covariance, and the
node pair with the widest product gap brackets the witness, since that
gap is at least 4 Cov (see :func:`covariance_witness`).  A batched
bracket refinement along t (one even round, then secant-centred rounds,
usually 3 or 4 in all) then moves the second point until the gap is
4 Cov.

The covariance bound |Cov| <= (1/4)(M_f - m_f)(M_g - m_g) then follows
with function extrema over the interval.  They are found by a scan of
4096 points and batched rounds that sample the cells around the four
best points in one evaluation of (f, g) each, usually 5 rounds, in u at
t = phi(u) on an open or infinite interval.  A far-out extremum narrower
than the scan's spacing in t is missed.  A discrete sequence version falls
out by using an atomic measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvalDomainError,
    MomentDivergenceError,
    NonConvergenceError,
    SchemaError,
    UnboundedFunctionError,
    WeightNormalizationError,
)
from .expr import Expression, evaluate_columns, overflows
from .hull import REFINE_POINTS, CurveSystem, refine_bracket
from .measure import _DE_GRID, DEFAULT_TOL, MeasureSpec, _de_map, exhaust_interval
from .synth import RESIDUAL_GATE, discretize_hull_point

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
_EXTREMA_RTOL = 1e-10  # move of an extremum by the last grid step at an open end
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

    Returns ``((ef, eg, efg), system, J, window)``: ``J`` integrates
    ``system`` = (f, g, fg, f^2, g^2) in one pass at ``tol`` and
    ``window`` is that pass's window, as
    :func:`~exactquad.measure.exhaust_interval` returns them.  f and g
    are evaluated before their products at every point, so a non-finite
    product is an overflowing second moment, not a domain error.
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
    return (ef, eg, efg), system, moments, window


def covariance(f: Expression, g: Expression, m: MeasureSpec) -> float:
    """Cov(f(X), g(X)) under the measure normalized to a probability law."""
    (ef, eg, efg), *_ = _moments(f, g, m)
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


def _staircase(u, v):
    """Indices of the points that no other point dominates from above,
    both coordinates at least as large, in decreasing u and so in
    increasing v; of equal points one is kept."""
    # decreasing u, and of equal u decreasing v: a point is kept when its
    # v exceeds every earlier one's
    order = np.lexsort((-v, -u))
    vs = v[order]
    keep = np.empty(vs.size, dtype=bool)
    keep[0] = True
    keep[1:] = vs[1:] > np.maximum.accumulate(vs)[:-1]
    return order[keep]


def _widest_pair(u, v):
    """Indices ``(i, j)`` of two points, maybe one, with the largest product
    gap (u_i - u_j)(v_i - v_j), in O(m log m) time and O(m) memory.

    Replacing a point by one that dominates it, both coordinates at least
    as large (or at most as large), never lowers a gap, so i lies on the
    upper-right staircase of the points and j on the lower-left one.  With
    both in decreasing u, so in increasing v, the gap matrix A of
    staircase rows i < i' and columns j < j' satisfies

        A(i, j) + A(i', j') - A(i, j') - A(i', j)
            = (u_i' - u_i)(v_j - v_j') + (u_j - u_j')(v_i' - v_i) > 0,

    so a row's best column never lies left of an earlier row's, and a
    divide and conquer over the rows (Aggarwal et al., 1987) finds every
    row's best column: the middle row of each block of rows scans the
    columns its block's neighbours leave it, one batch per level.
    """
    upper = _staircase(u, v)
    lower = _staircase(-u, -v)[::-1]
    ur, vr, ul, vl = u[upper], v[upper], u[lower], v[lower]
    best = np.empty(upper.size, dtype=np.intp)
    # blocks of rows [r0, r1) whose best columns lie in [c0, c1]
    r0, r1 = np.array([0]), np.array([upper.size])
    c0, c1 = np.array([0]), np.array([lower.size - 1])
    while r0.size:
        mid = (r0 + r1) // 2
        span = c1 - c0 + 1
        starts = span.cumsum() - span
        cols = np.arange(starts[-1] + span[-1]) - (starts - c0).repeat(span)
        rows = mid.repeat(span)
        gap = (ur[rows] - ul[cols]) * (vr[rows] - vl[cols])
        top = np.maximum.reduceat(gap, starts).repeat(span)
        first = np.where(gap == top, np.arange(gap.size), gap.size)
        j = cols[np.minimum.reduceat(first, starts)]
        best[mid] = j
        above, below = r0 < mid, mid + 1 < r1
        r0, r1 = (np.concatenate([r0[above], mid[below] + 1]),
                  np.concatenate([mid[above], r1[below]]))
        c0, c1 = (np.concatenate([c0[above], j[below]]),
                  np.concatenate([j[above], c1[below]]))
    i = int(((ur - ul[best]) * (vr - vl[best])).argmax())
    return int(upper[i]), int(lower[best[i]])


def covariance_witness(f: Expression, g: Expression, m: MeasureSpec,
                       tol: float = DEFAULT_TOL) -> CovarianceWitness:
    """Points (t1, t2) with Cov(f(X), g(X)) = (1/4)(f(t1)-f(t2))(g(t1)-g(t2)).

    One integration pass computes the moments, at ``MOMENT_TOL`` or at
    ``tol`` if that is tighter; a ``tol`` that is not finite is passed on
    unchanged, so the integrator refuses it as it refuses one that is not
    > 0.  Zero covariance returns t1 = t2.

    Otherwise the pass's K15 nodes and the atoms carry a discrete
    probability p with the same moments
    (:func:`~exactquad.synth.discretize_hull_point`), and one of its node
    pairs brackets the witness.  With (u_i, v_i) = (f, g) at node i and
    P_ij = (u_i - u_j)(v_i - v_j), 2 Cov = p^T P p.  On a face of the
    simplex with 3 or more vertices the second derivative of p^T P p along
    a direction delta (sum 0) is -2 (delta . u)(delta . v), up to a factor:
    a product of two linear forms on a space of dimension 2 or more, so
    either indefinite, and no interior point of the face is a maximum, or
    zero along some delta, along which p^T P p is affine and so constant
    through an interior maximum.  The maximum over the simplex thus lies on
    an edge, where p^T P p = 2 lambda (1 - lambda) P_ij <= P_ij / 2, hence
    max_ij P_ij >= 4 Cov, with equality for two equal atoms; for Cov < 0
    the same holds with -v.  The pair that maximizes the signed product
    gap (:func:`_widest_pair`) gives t1 < t2.  (f, g) is evaluated at the
    nodes in one batch with the window's two ends, the continuity probe: a
    closed end of the interval is an end of the window.

    With t1 held fixed, batched rounds of
    :func:`~exactquad.hull.refine_bracket` on [t1, t2] locate the point
    where the product gap grows from 0 to 4 Cov, which exists by
    continuity.  The score is psi + tol_phi, with psi the signed excess of
    the gap over 4 Cov and tol_phi = 1e-11 (1 + 4 |Cov|), so a point with
    psi >= -tol_phi hits; the search ends on |psi| <= tol_phi at any scale
    of t, or on a closed bracket.  A failed bracket, or a gap off by more
    than ``RESIDUAL_GATE``, is an error, never patched.
    """
    tol = min(MOMENT_TOL, tol) if math.isfinite(tol) else tol
    (ef, eg, efg), system, moments, window = _moments(f, g, m, tol)
    cov = efg - ef * eg
    zero_scale = 1e-12 * (1.0 + abs(efg) + abs(ef * eg))
    if abs(cov) <= zero_scale:
        t = _support_point(m)
        return CovarianceWitness(t1=t, t2=t, covariance=cov, product_gap=0.0)

    params, _ = discretize_hull_point(system, m, moments)
    # one batch: the discrete measure's nodes, then the window's two ends
    fg = evaluate_columns((f, g), np.concatenate(
        [params, (window.upper, window.lower)]))[:params.size]
    sign = 1.0 if cov > 0 else -1.0
    k1, k2 = sorted(_widest_pair(fg[:, 0], sign * fg[:, 1]))
    t1, t2 = float(params[k1]), float(params[k2])
    (f1, g1), (f2, g2) = fg[k1], fg[k2]
    h2 = float((f1 - f2) * (g1 - g2))

    def gaps(ss):
        # the product gaps h(s) = (f(t1)-f(s))(g(t1)-g(s))
        vals = evaluate_columns((f, g), ss)
        return (f1 - vals[:, 0]) * (g1 - vals[:, 1])

    # move the second point until h(s) grows from 0 to 4 Cov;
    # h(t2) covers it
    def psi(h):
        return sign * (h - 4.0 * cov)

    psi_b = psi(h2)
    tol_phi = 1e-11 * (1.0 + 4.0 * abs(cov))
    # t2 must hit: two equal atoms meet 4 Cov only up to rounding
    if psi_b + tol_phi < 0.0:
        raise NonConvergenceError(
            "witness bracket failed: the widest node pair's gap does not cover "
            f"4*Cov (psi(t2) = {psi_b:.3e}); continuity assumptions look violated"
        )

    def probe(ss):
        # a point with psi >= -tol_phi hits; one with |psi| <= tol_phi ends
        # the search there
        h = gaps(ss)
        return psi(h) + tol_phi, h

    def done(a, b, h_hi):
        return abs(psi(h_hi)) <= tol_phi

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
    j = scores.argmax(axis=1)
    rows = np.arange(len(j))
    last = grid.shape[1] - 1
    return (scores[rows, j], grid[rows, np.maximum(j - 1, 0)],
            grid[rows, np.minimum(j + 1, last)])


def _scan_extrema(fns, xs, ts, to_t, scopes):
    """Minimum and maximum of each function, in that order, in each scope
    of a scan at the points ``ts``: one row per row of the boolean
    ``scopes``, which marks the scope's scan points.

    ``xs`` are the scan points' increasing coordinates, which ``to_t`` maps
    to points.  Each extremum keeps the two scan gaps around its scope's
    best point; each round samples every open cell at its two ends and
    ``REFINE_POINTS`` interior points in one evaluation and keeps the two
    gaps around the best sample, until the cell is narrower than
    ``_CELL_TOL`` max(1, |a|, |b|) of its scan cell [a, b].
    """
    k, n = len(fns), len(scopes)
    col = np.arange(2 * k * n) // 2 % k           # cell c refines function col[c] ...
    sign = np.array([-1.0, 1.0] * (k * n))        # ... towards its minimum or maximum
    seen = scopes.repeat(2 * k, axis=0)           # ... from its scope's scan points
    scores = np.where(seen, sign[:, None] * evaluate_columns(fns, ts).T[col], -np.inf)
    best, a, b = _best_cells(np.broadcast_to(xs, scores.shape), scores)
    tol = _CELL_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    cells = (b - a > tol).nonzero()[0]
    while cells.size:
        grid = a[cells, None] + (b - a)[cells, None] * _CELL_STEPS
        vals = evaluate_columns(fns, to_t(grid.ravel())).reshape(grid.shape + (k,))
        scores = sign[cells, None] * vals[np.arange(cells.size), :, col[cells]]
        top, a[cells], b[cells] = _best_cells(grid, scores)
        best[cells] = np.maximum(best[cells], top)
        cells = cells[b[cells] - a[cells] > tol[cells]]
    return (sign * best).reshape(n, 2 * k)


def _extrema(fns, m: MeasureSpec) -> list[float]:
    """Infimum and supremum of each function over the measure's interval,
    in that order.

    A compact interval is scanned even in t, an open or infinite one even
    in u at t = phi(u), on the integrator's double-exponential map, between
    the outermost u-grid nodes where the functions are finite and did not
    overflow on the way.  Cells are refined in several scopes: without the
    scan's last grid step at each open end; windows of a half, a quarter
    and an eighth of it around the map's centre, so that far-out points
    where ``sin(t)`` has random phases cannot shadow the centre's peaks;
    and with the last grid step at each open end.  An extremum that this
    step moves by more than ``_EXTREMA_RTOL * (1 + |v|)`` raises
    :class:`UnboundedFunctionError`: the function is unbounded there, or
    its limit cannot be resolved in doubles (``t^0.01`` at 0).
    """
    iv = m.interval
    atoms = np.array([loc for loc, _ in m.atoms])
    if iv.is_compact:
        ts = np.linspace(iv.lower, iv.upper, _SCAN_POINTS)
        if atoms.size:
            ts = np.unique(np.concatenate([ts, atoms]))
        scope = np.ones((1, ts.size), dtype=bool)
        return [float(v) for v in _scan_extrema(fns, ts, ts, lambda ts: ts, scope)[0]]
    phi = _de_map(iv)
    nodes, dphi = phi(_DE_GRID)
    live = (dphi > 0.0).nonzero()[0]

    def clean(i):
        return (np.isfinite(evaluate_columns(fns, nodes[i], finite=False)).all()
                and not any(overflows(f, nodes[i]) for f in fns))

    # no limit: a value after an overflow on the way ((1+t^2)^-0.5 is 0 past
    # 1e154) or over an underflowed denominator (exp(-1/t)/t^2 below 1e-162)
    while live.size > 1 and not clean(live[0]):
        live = live[1:]
    while live.size > 1 and not clean(live[-1]):
        live = live[:-1]
    if live.size < 3:
        raise UnboundedFunctionError("the functions overflow all over the interval")
    us = np.linspace(_DE_GRID[live[0]], _DE_GRID[live[-1]], _SCAN_POINTS)
    ts = phi(us)[0]
    closed = [end for end in (iv.lower, iv.upper) if iv.contains(end)]
    # an atom or a closed end takes the u interpolated between scan points
    pts = np.unique(np.concatenate([ts, atoms, closed]))
    xs = np.interp(pts, ts, us)
    u_lo = _DE_GRID[live[1]] if iv.lower_open else -np.inf
    u_hi = _DE_GRID[live[-2]] if iv.upper_open else np.inf
    inner = (xs >= u_lo) & (xs <= u_hi)
    c = min(max(0.0, us[0]), us[-1])
    centre = [(xs >= c + (us[0] - c) / 2**j) & (xs <= c + (us[-1] - c) / 2**j)
              for j in (1, 2, 3)]
    ends = [(end, inner | step) for end, step, is_open in (
        (live[0], xs < u_lo, iv.lower_open), (live[-1], xs > u_hi, iv.upper_open))
        if is_open]
    rows = _scan_extrema(fns, xs, pts, lambda us: phi(us)[0],
                         np.array([inner, *centre] + [scope for _, scope in ends]))
    sign = np.array([-1.0, 1.0] * len(fns))
    base = sign * (sign * rows[:4]).max(axis=0)
    for (end, _), row in zip(ends, rows[4:]):
        moved = (sign * (row - base) > _EXTREMA_RTOL * (1.0 + np.abs(row))).nonzero()[0]
        if moved.size:
            j = moved[0]
            raise UnboundedFunctionError(
                f"function {j // 2} is unbounded towards t = {nodes[end]:.6g}, or its "
                "limit there cannot be resolved in doubles: the last grid step "
                f"there moves an extremum from {base[j]:.6g} to {row[j]:.6g}")
    return [float(v) for v in sign * (sign * rows).max(axis=0)]


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
    if (p < 0.0).any():
        raise WeightNormalizationError("weights must be non-negative")
    try:
        total = math.fsum(p)
    except OverflowError:
        raise SchemaError("the weights p sum past the double range") from None
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
    report = _gruss_report(cov, float(u.min()), float(u.max()),
                           float(v.min()), float(v.max()))
    if not all(map(math.isfinite, (e_u, e_v, e_uv, cov, report.bound))):
        raise MomentDivergenceError(
            "the moments or the bound of the sequences overflow a double")
    return report
