"""Covariance representation and Gruss-type bounds for functions of a
random variable.

For continuous f, g with finite second moments under a probability measure
on an interval, the covariance of f(X) and g(X) equals
(1/4)(f(t1) - f(t2))(g(t1) - g(t2)) for some t1, t2 in the interval.  The
witness pair is built constructively from the moments pass: its K15 nodes
and the atoms carry a discrete measure with the same covariance, and the
node pair with the widest product gap brackets the witness, since that
gap is at least 4 Cov (see :func:`covariance_witness`).  The nodes
between the pair's ends, already evaluated, narrow that bracket to one
cell between two nodes, and a batched bracket refinement along t
(secant-centred rounds, usually 3 in all) then moves the second point
until the gap is 4 Cov.

The covariance bound |Cov| <= (1/4)(M_f - m_f)(M_g - m_g) then follows
with function extrema over the interval.  They are found by a scan of
4096 points and batched rounds that sample the cells around the four
best points in one evaluation of (f, g) each, 4.71 rounds on average on
the ``stats`` corpus (variants 0-5, seed 20260808, re-measured in October
2026), in u at t = phi(u) on an open or infinite interval, where several
scopes of the scan are searched and a cell that several scopes share is
refined once.  A far-out extremum narrower than the scan's spacing in t
is missed.  A discrete sequence version falls out by using an atomic
measure.
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
from .measure import (_DE_GRID, DEFAULT_TOL, MeasureSpec, _de_map, _linspace,
                      integrate_system)
from .synth import RESIDUAL_GATE, discretize_hull_point

__all__ = [
    "CovarianceWitness",
    "GrussReport",
    "covariance",
    "covariance_witness",
    "gruss_check",
    "gruss_discrete",
]

_CELL_TOL = 1e-10      # relative width at which an extremum's cell closes
# sample offsets of a refinement round, in cell widths: both ends and
# REFINE_POINTS even interior points
_CELL_STEPS = np.linspace(0.0, 1.0, REFINE_POINTS + 2)
_STEP_SLOTS = np.arange(_CELL_STEPS.size)  # a cell's grid points in a round
_SIDES = np.array([[-1], [1]])  # a scan point's two neighbours
_SCAN_STEPS = np.arange(4096.0)  # the steps of the even extrema scan
_HALVINGS = np.array([2.0, 4.0, 8.0])  # the centre windows' shares of the scan
_EXTREMA_RTOL = 1e-10  # move of an extremum by the last grid step at an open end
_ONE_BATCH = 4         # staircase gap entries per point that one batch computes
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

    Returns ``((ef, eg, efg), system, J)``: ``J`` integrates ``system`` =
    (f, g, fg, f^2, g^2) in one pass at ``tol``
    (:func:`~exactquad.measure.integrate_system`) and carries that pass's
    window.  f and g are evaluated before their products at every point,
    so a non-finite product is an overflowing second moment, not a domain
    error.
    """
    products = (f * g, f * f, g * g)
    system = CurveSystem(components=(f, g, *products), interval=m.interval)
    try:
        moments = integrate_system(m, system, tol)
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
    return (ef, eg, efg), system, moments


def _covariance_from(ef: float, eg: float, efg: float) -> float:
    """Cov = E fg - E f E g, or exactly 0.0 when it is rounding:
    |Cov| <= 1e-12 (1 + |E fg| + |E f E g|).  A constant's covariance
    rounds to a few 1e-17 instead of 0, which would put a Gruss bound of
    0 below it."""
    cov = efg - ef * eg
    return 0.0 if abs(cov) <= 1e-12 * (1.0 + abs(efg) + abs(ef * eg)) else cov


def covariance(f: Expression, g: Expression, m: MeasureSpec) -> float:
    """Cov(f(X), g(X)) under the measure normalized to a probability law,
    0.0 when it is rounding (:func:`_covariance_from`)."""
    (ef, eg, efg), *_ = _moments(f, g, m)
    return _covariance_from(ef, eg, efg)


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

    so a row's first best column never lies left of an earlier row's.  When
    A has at most ``_ONE_BATCH`` entries per point, one batch computes it
    and takes its first maximum in row-major order.  Otherwise a divide and
    conquer over the rows (:func:`_best_columns`) finds every row's first
    best column, and the first row with the largest gap wins: the same
    pair, unless rounding breaks the inequality above.
    """
    upper = _staircase(u, v)
    lower = _staircase(-u, -v)[::-1]
    ur, vr, ul, vl = u[upper], v[upper], u[lower], v[lower]
    if upper.size * lower.size <= _ONE_BATCH * u.size:
        gap = (ur[:, None] - ul) * (vr[:, None] - vl)
        i, j = divmod(int(gap.argmax()), lower.size)
        return int(upper[i]), int(lower[j])
    best = _best_columns(ur, vr, ul, vl)
    i = int(((ur - ul[best]) * (vr - vl[best])).argmax())
    return int(upper[i]), int(lower[best[i]])


def _best_columns(ur, vr, ul, vl):
    """Each row's first best column of the staircase gap matrix of
    :func:`_widest_pair`, by a divide and conquer over the rows (Aggarwal
    et al., 1987): the middle row of each block of rows scans the columns
    its block's neighbours leave it, one batch per level."""
    best = np.empty(ur.size, dtype=np.intp)
    # blocks of rows [r0, r1) whose best columns lie in [c0, c1]
    r0, r1 = np.array([0]), np.array([ur.size])
    c0, c1 = np.array([0]), np.array([ul.size - 1])
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
    return best


def covariance_witness(f: Expression, g: Expression, m: MeasureSpec,
                       tol: float = DEFAULT_TOL) -> CovarianceWitness:
    """Points (t1, t2) with Cov(f(X), g(X)) = (1/4)(f(t1)-f(t2))(g(t1)-g(t2)).

    One integration pass computes the moments, at ``MOMENT_TOL`` or at
    ``tol`` if that is tighter; a ``tol`` that is not finite is passed on
    unchanged, so the integrator refuses it as it refuses one that is not
    > 0.  A covariance that is rounding (:func:`_covariance_from`) is 0.0,
    and returns t1 = t2.

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
    of t, or on a closed bracket.  The nodes strictly between t1 and t2
    are scored from the batch in hand, as the search's first round: the
    first that hits and the node before it bracket the search, with that
    node's score, so it opens with a secant round.  When no node lies
    between or the first one hits, the bracket starts at t1, whose score
    psi(0) + tol_phi is exact since h(t1) = 0.  A failed bracket, or a gap
    off by more than ``RESIDUAL_GATE``, is an error, never patched.
    """
    tol = min(MOMENT_TOL, tol) if math.isfinite(tol) else tol
    (ef, eg, efg), system, moments = _moments(f, g, m, tol)
    cov = _covariance_from(ef, eg, efg)
    if cov == 0.0:
        t = _support_point(m)
        return CovarianceWitness(t1=t, t2=t, covariance=cov, product_gap=0.0)

    params, _ = discretize_hull_point(system, m, moments)
    # one batch: the discrete measure's nodes, then the window's two ends
    fg = evaluate_columns((f, g), np.concatenate(
        [params, (moments.window.upper, moments.window.lower)]))[:params.size]
    sign = 1.0 if cov > 0 else -1.0
    k1, k2 = sorted(_widest_pair(fg[:, 0], sign * fg[:, 1]))
    t1 = float(params[k1])
    f1, g1 = fg[k1]

    def gaps(vals):
        # the product gaps h(s) = (f(t1)-f(s))(g(t1)-g(s)), from rows (f, g)(s)
        return (f1 - vals[:, 0]) * (g1 - vals[:, 1])

    # move the second point until h(s) grows from 0 to 4 Cov;
    # h(t2) covers it
    def psi(h):
        return sign * (h - 4.0 * cov)

    tol_phi = 1e-11 * (1.0 + 4.0 * abs(cov))
    # the nodes after t1 up to t2, already evaluated, are the search's first
    # round; a point with psi >= -tol_phi hits
    h = gaps(fg[k1 + 1:k2 + 1])
    score = psi(h) + tol_phi
    # t2 must hit: two equal atoms meet 4 Cov only up to rounding
    if score[-1] < 0.0:
        raise NonConvergenceError(
            "witness bracket failed: the widest node pair's gap does not cover "
            f"4*Cov (psi(t2) = {psi(h[-1]):.3e}); continuity assumptions look violated"
        )

    def probe(ss):
        # a probe with |psi| <= tol_phi ends the search there
        h = gaps(evaluate_columns((f, g), ss))
        return psi(h) + tol_phi, h

    def done(a, b, h_hi):
        return abs(psi(h_hi)) <= tol_phi

    # the first hit and the node before it, or t1, bracket the crossing
    c = int((score >= 0.0).argmax())
    if c:
        lo, lo_g = float(params[k1 + c]), float(score[c - 1])
    else:
        # h(t1) = 0 exactly; t1 must not hit
        lo, lo_g = t1, psi(0.0) + tol_phi
        lo_g = lo_g if lo_g < 0.0 else None
    s_star, h_star = refine_bracket(probe, lo, float(params[k1 + 1 + c]),
                                    float(score[c]), h[c], done, lo_g)
    product_gap = 0.25 * float(h_star)
    if abs(product_gap - cov) > RESIDUAL_GATE * (1.0 + abs(cov)):
        raise NonConvergenceError(
            f"witness search left a gap of {abs(product_gap - cov):.3e}; "
            "continuity assumptions look violated"
        )
    return CovarianceWitness(t1=t1, t2=float(s_star), covariance=cov,
                             product_gap=product_gap)


def _scan_extrema(fns, xs, ts, to_t, scopes):
    """Minimum and maximum of each function, in that order, in each scope
    of a scan at the points ``ts``: one row per scope ``(lo, hi)``, the
    scan points ``lo:hi``.

    ``xs`` are the scan points' increasing coordinates, which ``to_t`` maps
    to points.  An extremum's cell is the two scan gaps around its scope's
    first best point, and a cell that several scopes share, the same point,
    function and direction, is refined once.  Each round samples every
    open cell at its two ends and ``REFINE_POINTS`` interior points in one
    evaluation and keeps the two gaps around the best sample, until the
    cell is narrower than ``_CELL_TOL`` max(1, |a|, |b|) of its scan cell
    [a, b]; the rounds hold only the open cells, compacted as cells close.
    An empty scope scores -inf at every point, so its cells start from the
    first scan gap with no best value.
    """
    k = len(fns)
    vals = np.ascontiguousarray(evaluate_columns(fns, ts).T)
    keys, cells = {}, []  # (first best index, function, is maximum) -> cell
    for lo, hi in scopes:
        if hi > lo:
            part = vals[:, lo:hi]
            firsts = ((part.argmin(axis=1) + lo).tolist(),
                      (part.argmax(axis=1) + lo).tolist())
        else:
            firsts = ([-1] * k,) * 2
        for i in range(k):
            for up in (0, 1):
                cells.append(keys.setdefault((firsts[up][i], i, up), len(keys)))
    j, col, up = np.array(list(keys)).T
    sign = 2.0 * up - 1.0
    best = np.where(j < 0, -np.inf, sign * vals[col, j])
    # the scan points on either side, or the point itself at an end
    a, b = xs.take(np.maximum(j, 0) + _SIDES, mode="clip")
    tol = _CELL_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    out, ids, live = np.empty_like(best), np.arange(best.size), b - a > tol
    steps = _CELL_STEPS.size
    while True:
        out[ids] = sign * best
        ids, a, b, tol, col, sign, best = (
            x[live] for x in (ids, a, b, tol, col, sign, best))
        if not ids.size:
            return out[cells].reshape(len(scopes), 2 * k)
        # a round's flat indices: each open cell's first and last grid
        # point, and its function's value at each grid point
        first = np.arange(0, ids.size * steps, steps)
        final = first + (steps - 1)
        pick = (first[:, None] + _STEP_SLOTS) * k + col[:, None]
        while True:  # rounds until a cell closes
            grid = a[:, None] + (b - a)[:, None] * _CELL_STEPS
            vals = evaluate_columns(fns, to_t(grid.ravel()))
            scores = sign[:, None] * vals.take(pick)
            at = scores.argmax(axis=1) + first
            best = np.maximum(best, scores.take(at))
            grid = grid.ravel()
            a = grid.take(np.maximum(at - 1, first))
            b = grid.take(np.minimum(at + 1, final))
            live = b - a > tol
            if np.count_nonzero(live) < ids.size:
                break


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
    and with the last grid step at each open end.  The scan coordinates
    increase, so each scope is a range of scan points.  An extremum that this
    step moves by more than ``_EXTREMA_RTOL * (1 + |v|)`` raises
    :class:`UnboundedFunctionError`: the function is unbounded there, or
    its limit cannot be resolved in doubles (``t^0.01`` at 0).
    """
    iv = m.interval
    atoms = np.array([loc for loc, _ in m.atoms])
    if iv.is_compact:
        ts = _linspace(iv.lower, iv.upper, _SCAN_STEPS)
        if atoms.size:
            ts = np.unique(np.concatenate([ts, atoms]))
        rows = _scan_extrema(fns, ts, ts, lambda ts: ts, [(0, ts.size)])
        return [float(v) for v in rows[0]]
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
    us = _linspace(_DE_GRID[live[0]], _DE_GRID[live[-1]], _SCAN_STEPS)
    ts = phi(us)[0]
    closed = [end for end in (iv.lower, iv.upper) if iv.contains(end)]
    # an atom or a closed end takes the u interpolated between scan points
    pts = np.unique(np.concatenate([ts, atoms, closed]))
    xs = np.interp(pts, ts, us)
    u_lo = _DE_GRID[live[1]] if iv.lower_open else -np.inf
    u_hi = _DE_GRID[live[-2]] if iv.upper_open else np.inf
    c = min(max(0.0, us[0]), us[-1])
    # xs increases, so each scope is a range of scan points: inner and the
    # centre windows, then inner with the last grid step at each open end
    los = xs.searchsorted(np.append(u_lo, c + (us[0] - c) / _HALVINGS), "left")
    his = xs.searchsorted(np.append(u_hi, c + (us[-1] - c) / _HALVINGS), "right")
    los, his = los.tolist(), his.tolist()
    ends = [(end, scope) for end, scope, is_open in (
        (live[0], (0, his[0]), iv.lower_open),
        (live[-1], (los[0], xs.size), iv.upper_open)) if is_open]
    rows = _scan_extrema(fns, xs, pts, lambda us: phi(us)[0],
                         list(zip(los, his)) + [scope for _, scope in ends])
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
