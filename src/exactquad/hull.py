"""Convex-combination machinery on curves in R^n.

Two reduction mechanisms live here.  ``caratheodory_finite`` prunes a large
non-negative combination of points in R^n down to at most n+1 support
points by shifting weight along null vectors of the homogeneous system
[points; 1] until weights hit zero.  It works merge-reduce, eliminating
the means of 2(n+1) contiguous clusters per round, so its cost grows
linearly in the number of points.  Each round factorizes once: one SVD
gives a null-space basis and the system's rank, and a rank-one update
after every elimination keeps the rest of the basis null on the surviving
points.  The shifts and the updates run on Python floats in numpy's
operation order, so they give numpy's bits: they touch at most 2(n+1)
numbers each, where a numpy call costs more than its arithmetic.
``reduce_on_curve`` takes a positive combination of curve points, prunes
it to at most n+1, and produces at most n curve points with the same total
weight and the same weighted sum: it rebuilds coordinates in
the barycentric frame rooted at the target, solved through one SVD of the
frame's basis, slides the parameter from a support point toward its right
neighbour until one coordinate first crosses zero, and reweights the
remaining points.
The crossing is found by ``refine_bracket``, which probes up to 63
points of the bracket per vectorized call and keeps the cell ending at
the first sign change: an evenly spaced round while the bracket's lower
end has no score, rounds centred on the secant root of the end scores
once it has one, and an even round after any round that narrows the
bracket less than 4-fold.  The input points inside the walked gap are
scored first, as a probe round that costs no evaluation, so a walk on a
discrete measure starts from a bracket one cell wide: it opens with a
secant round when the cell is at most ``_WIDE_CELL`` of the parameter
scale wide, and with an even round otherwise.  Such a walk takes 3.75
calls on average on the acceptance corpus; from a bare support it takes
about 4.  The
vanishing coordinate, the reweighting and the new point's curve row all
come from the batch probed at the crossing, and a combination carries
its support's rows (``ConvexCombination.points``) from the prune to the
walk and on to the polish, so no stage evaluates a point twice.
``stats.covariance_witness`` narrows its bracket the same way.

Per-operation code, here and in the other layers, calls ndarray methods,
ufuncs and module constants, not numpy's Python-level wrappers: on the
arrays of about 30 points that a synthesis handles, the wrapper costs
more than the arithmetic.  Timed per call (timeit, 2-vCPU Xeon VM,
numpy 2.4): ``np.any`` 3.2 us against ``.any()`` 0.95 us,
``np.flatnonzero`` 2.2 us against ``.nonzero()[0]`` 0.32 us,
``float(np.linalg.norm(r))`` 1.2 us against ``math.sqrt(r.dot(r))``
0.46 us, and an even round's ``np.linspace`` 8.2 us against 2.2 us for
the same formula on a module table (:func:`_even_probes`); a per-call
``np.finfo`` is a module constant.  Each replacement gives numpy's bits.
``np.linalg.svd``, ``solve``, ``lstsq`` and ``np.einsum`` stay, since no
public form without the wrapper gives their bits, and so do the calls
that the Gruss extrema scan makes once per operation on 4096 points.

``merge_coincident`` is the one sort-and-merge of equal parameters that
the reductions and the synthesis pipeline share.  ``chebyshev_sample_test``
is the alternant test, a sign-change certificate: it samples ordered node
tuples from a seeded generator, and when det[x_i(t_j)] has opposite signs
at two of them, ``refine_bracket`` finds where it vanishes on the segment
between them, at distinct nodes, which shows that the system is not a
Chebyshev (alternant) system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleCombinationError,
    ReconstructionError,
    SchemaError,
    check_fields,
    number,
    numbers,
)
from .expr import Expression, evaluate_columns, parse
from .measure import _EPS, IntervalSpec

__all__ = [
    "ConvexCombination",
    "CurveSystem",
    "caratheodory_finite",
    "reduce_on_curve",
    "chebyshev_sample_test",
    "combination_from_json",
    "combination_to_json",
]

RECON_TOL = 1e-9        # reconstruction gate of the reductions, relative
RANK_TOL = 1e-10        # singular-value rank threshold, relative
BISECT_TOL = 1e-13      # crossing bracket width, relative to the parameter
ZERO_TOL = 1e-11        # a coordinate within this of zero has vanished
POLISH_TARGET = 1e-12   # relative residual at which the polish stops
POLISH_MAX_ITER = 200   # Gauss-Newton iterations before the polish gives up
REFINE_POINTS = 63  # interior points per batched bracket-refinement round
_WIDE_CELL = 1e-2  # a seeded walk cell wider than this, relative, opens evenly
_CHEBYSHEV_BATCH = 256  # sampled tuples per batch of the alternant test
# offsets of a secant-centred round, in bracket widths: 0 and +-4^-j, j = 1..31
_SECANT_OFFSETS = np.concatenate(
    [-(4.0 ** -np.arange(1, 32)), [0.0], 4.0 ** -np.arange(31, 0, -1)])
_EVEN_STEPS = np.arange(1.0, REFINE_POINTS + 1)  # the steps of an even round
_DIFF_STEP = np.cbrt(_EPS)  # relative central-difference step of the polish


@dataclass(frozen=True, eq=False)
class ConvexCombination:
    """Support parameters with non-negative weights summing to ``total``.

    ``points``, when set, holds the curve at ``params``, one row per
    parameter, so that a later stage need not evaluate it again.
    """

    params: np.ndarray
    weights: np.ndarray
    total: float
    points: np.ndarray | None = None

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        total = float(self.total)
        if params.ndim != 1 or params.shape != weights.shape or params.size == 0:
            raise SchemaError("params and weights must be equal-length 1-d arrays")
        if self.points is not None:
            points = np.asarray(self.points, dtype=float)
            if points.ndim != 2 or len(points) != params.size:
                raise SchemaError(f"points must have one row per parameter, "
                                  f"got shape {points.shape}")
            object.__setattr__(self, "points", points)
        if not math.isfinite(total) or total <= 0:
            raise SchemaError(f"total must be finite and > 0, got {total}")
        if (params[1:] <= params[:-1]).any():
            raise SchemaError("params must be strictly increasing")
        floor = -1e-12 * max(1.0, total)
        if (weights < floor).any():
            raise SchemaError(f"weights below {floor} are not a convex combination")
        weights = np.maximum(weights, 0.0)
        # a pairwise sum of non-negative weights is within about
        # log2(size) ulps, far inside this tolerance, and synthesis passes
        # every node of its discrete measure here
        if abs(float(weights.sum()) - total) > 1e-12 * total:
            raise SchemaError("weights do not sum to total within 1e-12 relative")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total", total)

    def __len__(self):
        return self.params.size


@dataclass(frozen=True, eq=False)
class CurveSystem:
    """n continuous functions of t on an interval, viewed as a curve in R^n."""

    components: tuple[Expression, ...]
    interval: IntervalSpec

    def __post_init__(self):
        if len(self.components) == 0:
            raise SchemaError("a curve needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def n(self) -> int:
        return len(self.components)

    @classmethod
    def from_texts(cls, texts, interval: IntervalSpec) -> "CurveSystem":
        return cls(tuple(parse(s) for s in texts), interval)

    def evaluate(self, ts) -> np.ndarray:
        """Curve values at the given parameters, one row per parameter.

        One batch for the whole system (:func:`~exactquad.expr.evaluate_columns`):
        a new ``(len(ts), n)`` array, a scalar counting as one parameter.
        The first failing component, in index order, raises the
        :class:`EvalDomainError` of its own call.
        """
        return evaluate_columns(self.components, ts)


def chebyshev_sample_test(functions, interval, trial_count: int = 200,
                          seed: int = 0) -> dict:
    """Seeded search for a sign change of det[x_i(t_j)] over ordered tuples.

    Draws ``trial_count`` increasing node tuples from a seeded 64-bit PRNG,
    ``_CHEBYSHEV_BATCH`` per batched determinant, and reports the least
    |det| over ``scale``, the product of the tuple's column norms.  Signs
    count only where the matrix passes the frame's rank test.  Ordered
    tuples form a convex set, so det vanishes at distinct nodes on the
    segment from the first counted positive tuple to the first negative
    one (Karlin & Studden, 1966): the witness holds that ``segment``, and
    ``tuple``, ``det`` and ``scale`` at the zero :func:`refine_bracket`
    finds on it, |det| <= 1e-12 times the larger |det| of the ends unless
    the bracket narrows to a float first.  A zero without a sign change is
    not found; no witness is evidence only.
    """
    curve = (functions if isinstance(functions, CurveSystem)
             else CurveSystem.from_texts(functions, interval))
    lo, hi = curve.interval.lower, curve.interval.upper
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SchemaError("the determinant test needs a compact interval")
    if trial_count < 1 or seed < 0:
        raise SchemaError("need at least one trial and a non-negative seed, "
                          f"got {trial_count} trials and seed {seed}")
    rng = np.random.default_rng(seed)
    best = None  # (ratio, tuple, det)
    ends = {}  # sign -> the first counted tuple of that sign, (tuple, det, scale)
    drawn = 0
    while drawn < trial_count:
        ts = _draw_tuples(rng, lo, hi, curve.n,
                          min(_CHEBYSHEV_BATCH, trial_count - drawn))
        drawn += len(ts)
        det, scale, mats = _determinants(curve, ts)
        ratio = np.abs(det) / scale
        i = int(ratio.argmin())
        if best is None or ratio[i] < best[0]:
            best = (float(ratio[i]), ts[i], float(det[i]))
        if len(ends) < 2:
            s = np.linalg.svd(mats, compute_uv=False)
            signs = np.sign(det) * (s[:, -1] > RANK_TOL * s[:, 0])
            for sign in (1.0, -1.0):
                for j in (signs == sign).nonzero()[0][:1]:
                    ends.setdefault(sign, (ts[j], float(det[j]), float(scale[j])))
    witness = None
    if len(ends) == 2:
        (ta, da, _), (tb, db, sb) = ends[1.0], ends[-1.0]
        tol = 1e-12 * max(da, -db)

        def probe(us):  # scores -det, -da at u = 0 and -db at u = 1
            ts = (1.0 - us)[:, None] * ta + us[:, None] * tb
            det, scale, _ = _determinants(curve, ts)
            return -det, np.concatenate([det[:, None], scale[:, None]], axis=1)

        u, (det, scale) = refine_bracket(probe, 0.0, 1.0, -db, (db, sb),
                                         lambda lo, hi, info: abs(info[0]) <= tol)
        witness = {"tuple": [float(x) for x in (1.0 - u) * ta + u * tb],
                   "det": float(det), "scale": float(scale),
                   "segment": [[float(x) for x in ta], [float(x) for x in tb]]}
    return {
        "trials": trial_count,
        "seed": seed,
        "min_abs_det": abs(best[2]),
        "min_scaled_det": best[0],
        "argmin_tuple": [float(x) for x in best[1]],
        "witness": witness,
    }


def _draw_tuples(rng, lo: float, hi: float, m: int, count: int) -> np.ndarray:
    """The next at most ``count`` sorted m-tuples of [lo, hi], as drawing
    them one by one gives: a tuple with two nodes within 1e-12 of the span
    is drawn again, at most 99 times.  At such a row the generator is
    replayed to just past it, the row is redrawn, and the rows up to it
    are returned."""
    state = rng.bit_generator.state
    ts = rng.uniform(lo, hi, (count, m))
    ts.sort(axis=1)
    gap = 1e-12 * (hi - lo)
    close = (np.diff(ts, axis=1).min(axis=1, initial=np.inf) <= gap).nonzero()[0]
    if close.size:
        ts = ts[:close[0] + 1]
        rng.bit_generator.state = state
        rng.uniform(lo, hi, ts.size)
        for _ in range(99):
            ts[-1] = rng.uniform(lo, hi, m)
            ts[-1].sort()
            if np.diff(ts[-1]).min() > gap:
                break
    return ts


def _determinants(curve: CurveSystem, ts):
    """``(det, scale, mats)`` for the rows of the (k, n) array ``ts``: the
    (k, n, n) matrices [x_i(t_j)], their determinants, each with the bits
    of its own ``np.linalg.det``, and their column norms' products + 1e-300."""
    k, m = ts.shape
    mats = curve.evaluate(ts.ravel()).reshape(k, m, m).transpose(0, 2, 1)
    scale = np.linalg.norm(mats, axis=1).prod(axis=1) + 1e-300
    return np.linalg.det(mats), scale, mats


@dataclass(frozen=True, eq=False)
class _BarycentricFrame:
    """Coordinates rooted at a target point with curve-point basis vectors."""

    origin: np.ndarray
    basis: np.ndarray  # columns are basis vectors
    u: np.ndarray      # basis = u @ diag(s) @ vt, its SVD
    s: np.ndarray
    vt: np.ndarray


def _build_frame(v, curve_points) -> _BarycentricFrame | None:
    """Frame with origin ``v`` and basis vectors ``curve_points[j] - v``.

    ``curve_points`` holds n points of R^n as rows.  Returns ``None`` when
    the basis is numerically singular (smallest singular value <=
    ``RANK_TOL`` times the largest).
    """
    v = np.asarray(v, dtype=float)
    basis = (np.asarray(curve_points, dtype=float) - v).T
    u, s, vt = np.linalg.svd(basis)
    if s[-1] <= RANK_TOL * s[0]:
        return None
    return _BarycentricFrame(origin=v, basis=basis, u=u, s=s, vt=vt)


def _coords(frame: _BarycentricFrame, x) -> np.ndarray:
    """Frame coordinates p with ``frame.basis @ p = x - frame.origin``.

    Accepts a single point (n,) or a batch (k, n); returns matching shape.
    Solved through the SVD of the basis: p = V diag(1/s) U^T (x - origin).
    """
    x = np.asarray(x, dtype=float)
    return ((x - frame.origin) @ frame.u / frame.s) @ frame.vt


def _homogeneous(points, target):
    """The (n+1, m) system [points - target; 1] of m points of R^n."""
    m, n = points.shape
    a = np.empty((n + 1, m))
    a[:n] = (points - target).T
    a[n] = 1.0
    return a


def _shift_to_zero(w, c):
    """Step the weights ``w`` along -c, in place, until the first reaches zero.

    ``w`` and ``c`` are lists of floats.  ``c`` is sign-normalized first,
    negated when its most negative entry outweighs its largest.  The step
    is the ratio test over the entries above 1e-14 times the largest.  The
    weight it zeroes is set to exactly 0 and roundoff negatives are clipped
    to 0.  Returns the index of the zeroed weight.
    """
    if -min(c) > max(c):
        c = [-x for x in c]
    cut = 1e-14 * max(c)
    step, j = math.inf, -1
    for k, ck in enumerate(c):
        if ck > cut and w[k] / ck < step:  # the first smallest ratio
            step, j = w[k] / ck, k
    # clipped as np.maximum(x, 0.0) clips: -0.0 becomes 0.0
    w[:] = [d if (d := wk - step * ck) > 0.0 else 0.0 for wk, ck in zip(w, c)]
    w[j] = 0.0
    return j


def _null_shifts(points, w, target):
    """Shift the positive weights ``w`` (a list of floats, one per row of
    the (m, n) ``points``) until at most rank r of them are nonzero.

    One SVD of [points - target; 1] gives r, its singular values above
    ``RANK_TOL`` times the largest.  The rows of vt past n+1 are null
    vectors, rows r to n near-null ones.  Each step, first along the null
    rows, then along the near-null ones, moves along its vector until one
    weight reaches zero at point j, and subtracts multiples of it from the
    remaining vectors so they vanish at j: they stay (near-)null vectors of
    the surviving points, so every step zeroes a new point (the
    recombination of Litterer & Lyons, 2012).  When the near-null steps
    leave weights that sum to 0 or miss ``target`` by more than
    ``RECON_TOL``, the weights from before them are returned.  The steps
    run on lists of floats, converted once after the SVD.  Returns the
    weights as an array.
    """
    n = points.shape[1]
    _, s, vt = np.linalg.svd(_homogeneous(points, target))
    basis = vt[n + 1:].tolist()
    exact = len(basis)
    basis += vt[int((s > RANK_TOL * s[0]).sum()):n + 1].tolist()
    before = None  # the weights before the first near-null step
    for i, c in enumerate(basis):
        if i == exact:
            before = w.copy()
        j = _shift_to_zero(w, c)
        cj = c[j]
        for r in range(i + 1, len(basis)):
            row = basis[r]
            f = row[j] / cj
            row = [x - f * y for x, y in zip(row, c)]
            row[j] = 0.0
            basis[r] = row
    shifted = np.array(w)
    if before is not None and (not shifted.any()
                               or _miss(shifted, points, target) > RECON_TOL):
        return np.array(before)
    return shifted


def _miss(weights, points, target) -> float:
    """Largest coordinate miss of the weighted mean of ``points`` against
    ``target``, relative to 1 + max|target|; the reductions' gate is
    ``RECON_TOL``."""
    miss = np.abs(weights @ points / weights.sum() - target).max()
    return float(miss) / (1.0 + float(np.abs(target).max()))


def caratheodory_finite(points, weights, target, params=None) -> ConvexCombination:
    """Prune a combination of m points of R^n to at most n+1 support points.

    ``points`` is (m, n), ``weights`` non-negative with positive sum, and
    the weighted mean of the points must already reproduce ``target``
    within ``RECON_TOL`` (relative); otherwise the input is infeasible, and
    the pruned combination must meet the same gate.
    ``params`` optionally maps point indices to curve parameters; when
    omitted, point indices serve as the output parameters.  The result is
    built by :func:`_rebuild`: sorted by parameter, coincident parameters
    merged, rescaled to the input's total, gated, and carrying the kept
    rows of ``points`` as its ``points``.

    Merge-reduce: while more than k = 2(n+1) points carry weight, they are
    split in index order into k contiguous clusters.  The cluster means are
    eliminated down to n+1 clusters by null-vector shifts, and each
    surviving cluster's weights are rescaled by its new mass over its old
    one, which keeps the total and the weighted sum.  A round drops about
    half the points with one SVD of 2(n+1) columns (see ``_null_shifts``).
    The last at most 2(n+1) points are eliminated directly, again with one
    SVD, which also reads the rank of the system: while the support is
    affinely dependent, its near-null vectors eliminate more points.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float).copy()
    target = np.asarray(target, dtype=float)
    if points.ndim != 2 or points.shape[0] != weights.size:
        raise SchemaError("points must be (m, n) with one weight per point")
    m, n = points.shape
    if (weights < -1e-12).any():
        raise SchemaError("weights must be non-negative")
    weights = np.maximum(weights, 0.0)
    total = math.fsum(weights.tolist())
    if total <= 0:
        raise SchemaError("weights must have positive sum")
    gap = _miss(weights, points, target)
    if gap > RECON_TOL:
        raise InfeasibleCombinationError(
            f"input combination misses the target by {gap:.3e} relative "
            f"(allowed {RECON_TOL:.0e})"
        )

    floor = 1e-15 * total
    k = 2 * (n + 1)
    # the rounds run on the active points alone: idx maps them back
    idx = (weights > floor).nonzero()[0]
    pts, w = points[idx], weights[idx]
    while idx.size > k:
        bounds = np.arange(k + 1) * idx.size // k
        starts = bounds[:-1]
        mass = np.add.reduceat(w, starts)
        means = np.add.reduceat(pts * w[:, None], starts) / mass[:, None]
        new_mass = _null_shifts(means, mass.tolist(), target)
        w = w * (new_mass / mass).repeat(bounds[1:] - starts)
        keep = w > floor
        idx, pts, w = idx[keep], pts[keep], w[keep]
    if idx.size > 1:
        w = _null_shifts(pts, w.tolist(), target)
        keep = w > floor
        idx, pts, w = idx[keep], pts[keep], w[keep]
    if idx.size == 0:
        raise ReconstructionError("the prune eliminated every support point")

    out_params = (idx.astype(float) if params is None
                  else np.asarray(params, dtype=float)[idx])
    return _rebuild(out_params, w, pts, target, total)


def _even_probes(lo: float, hi: float) -> np.ndarray:
    """The ``REFINE_POINTS`` interior points of an even round on [lo, hi].

    This is the formula of ``np.linspace(lo, hi, REFINE_POINTS + 2)[1:-1]``,
    steps times (hi - lo) / (REFINE_POINTS + 1) plus lo, so it gives
    linspace's bits at a fraction of its cost, for every bracket wider than
    32 subnormal steps; below that the step rounds to 0, where linspace
    switches formulas and this returns lo throughout.
    """
    return _EVEN_STEPS * ((hi - lo) / (REFINE_POINTS + 1)) + lo


def refine_bracket(probe, lo: float, hi: float, hi_g: float, hi_info, done,
                   lo_g: float | None = None):
    """Narrow ``[lo, hi]`` to the first parameter where ``probe`` hits.

    ``probe(ts)`` takes an increasing array of parameters and returns
    ``(g, info)``: a score array, negative before the crossing and ``>= 0``
    (a hit) at or past it, and per-point data indexable like ``ts``.
    ``lo`` must not hit and ``hi`` must, with ``hi_g`` and ``hi_info`` its
    score and data; ``lo_g`` is the score at ``lo`` when the caller holds
    it.  Each round probes up to ``REFINE_POINTS`` interior points in one
    call and keeps the cell that ends at the first hit.  While ``lo``
    carries no score, a round spaces them evenly.  Once it does, a round
    centres them on the secant root s of the scores at ``lo`` and ``hi``,
    at s and s +- w 4^-j (j = 1..31, w the bracket width), so the kept cell
    is about as wide as the secant's error and the bracket shrinks about
    quadratically (a batched Dekker-Brent secant).  So a bracket whose
    ``lo_g`` is given opens with a secant round, one without it with an
    even round.  A round that shrinks the bracket less than 4-fold is
    followed by an even one, which shrinks it ``REFINE_POINTS + 1``-fold.
    Rounds stop when ``done(lo, hi, hi_info)`` holds or no float lies
    strictly inside.  Returns ``(hi, hi_info)``: the first hit the probes
    saw, which is the first crossing in ``[lo, hi]`` unless the scores
    cross zero more than once inside one probed cell.
    """
    even = lo_g is None
    while not done(lo, hi, hi_info):
        width = hi - lo
        if not even:
            s = lo + width * (lo_g / (lo_g - hi_g))
            # non-decreasing by construction, so equal probes are neighbours
            ts = s + width * _SECANT_OFFSETS
            keep = (ts > lo) & (ts < hi)
            keep[1:] &= ts[1:] != ts[:-1]
            ts = ts[keep]
            even = ts.size == 0
        if even:
            ts = _even_probes(lo, hi)
            ts = ts[(ts > lo) & (ts < hi)]
            if ts.size == 0:
                break
        g, info = probe(ts)
        hits = (g >= 0.0).nonzero()[0]
        i = int(hits[0]) if hits.size else ts.size
        if i > 0:
            lo, lo_g = float(ts[i - 1]), float(g[i - 1])
        if i < ts.size:
            hi, hi_g, hi_info = float(ts[i]), float(g[i]), info[i]
        even = lo_g is None or 4.0 * (hi - lo) > width
    return hi, hi_info


def _first_zero_crossing(frame: _BarycentricFrame, curve: CurveSystem, ts, xs):
    """First parameter in (ts[0], ts[-1]] where some frame coordinate reaches zero.

    ``ts`` is increasing: the walk's start t0, any parameters inside the
    gap whose curve rows the caller holds, and its stop; ``xs`` holds the
    curve at ``ts``, one row each.  Requires all
    coordinates of ``x(t0) - origin`` negative and ``x(ts[-1])`` a basis
    point of the frame, whose coordinate row is a unit vector up to
    roundoff, so the largest coordinate g(t) is negative at t0 and positive
    at the stop.  The rows after t0 are scored in one batch, the walk's
    first probe round, and the first of them with g >= 0 ends the bracket.
    :func:`refine_bracket` narrows the bracket until it is ``BISECT_TOL``
    wide (relative) with g(hi) <= ``ZERO_TOL``, or a few ulps wide, and
    returns the first crossing its probes see; it opens with a secant round
    when the bracket starts at a scored row inside the gap and is at most
    ``_WIDE_CELL`` times the parameter scale wide.  Any such
    crossing leaves every coordinate <= ``ZERO_TOL`` (up to roundoff on a
    frame of condition above about 1e5), which is all the reweighting
    needs.  Returns ``(t_bar, k, p, x_bar)``: x_bar is the curve row at
    t_bar and p its coordinate row, both from the batch that met g >= 0
    there, and k the 0-based index of the vanishing coordinate; ties pick
    the smallest index.  Callers use this p rather than a re-solve at
    t_bar, which can differ by more than ``ZERO_TOL`` on an
    ill-conditioned frame.  The curve is evaluated only at the probes.
    """
    n = xs.shape[1]
    p0 = _coords(frame, xs[0])
    if p0.max() >= -ZERO_TOL:
        return float(ts[0]), int((p0 >= -ZERO_TOL).nonzero()[0][0]), p0, xs[0]
    scale_t = max(1.0, abs(float(ts[0])), abs(float(ts[-1])))
    width_floor = 8.0 * _EPS * scale_t

    def scored(x):
        # each point's data: its coordinate row, then its curve row
        rows = _coords(frame, x)
        return rows.max(axis=1), np.concatenate([rows, x], axis=1)

    def probe(us):
        return scored(curve.evaluate(us))

    def done(lo, hi, info):
        return hi - lo <= width_floor or (
            hi - lo <= BISECT_TOL * scale_t and info[:n].max() <= ZERO_TOL)

    g, info = scored(xs[1:])
    hits = (g >= 0.0).nonzero()[0]
    h = int(hits[0]) if hits.size else g.size - 1
    # a wide seeded cell opens with an even round: a secant root of scores
    # that far apart misses by about the cell
    lo_g = (float(g[h - 1]) if h > 0 and ts[h + 1] - ts[h] <= _WIDE_CELL * scale_t
            else None)
    hi_t, hi_info = refine_bracket(probe, float(ts[h]), float(ts[h + 1]),
                                   float(g[h]), info[h], done, lo_g)
    p, x_bar = hi_info[:n], hi_info[n:]
    return hi_t, int((p >= -ZERO_TOL).nonzero()[0][0]), p, x_bar


def _clip_bounds(iv: IntervalSpec):
    """Clipping range for node parameters: open finite ends get a tiny inset."""
    span = iv.upper - iv.lower if math.isfinite(iv.upper - iv.lower) else 1.0
    lo = iv.lower
    if math.isfinite(lo) and iv.lower_open:
        lo = lo + 1e-12 * span
    hi = iv.upper
    if math.isfinite(hi) and iv.upper_open:
        hi = hi - 1e-12 * span
    return lo, hi


_LM_LADDER = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1)
_LM_MIN_GAIN = 0.01  # a step gaining less than this fraction ends the polish


def _exact_mass_fits(xs, target, total, scale):
    """For each row block x of ``xs`` (k, m, n), the weights minimizing
    ||scale * (w @ x - total * target)|| with sum(w) = total: one batched
    KKT solve, least squares where it is singular.  Returns (k, m), a row
    of NaN for a fit with a weight below -1e-12 * total."""
    a = xs * scale
    m = xs.shape[1]
    kkt = np.zeros((len(xs), m + 1, m + 1))
    kkt[:, :m, :m] = 2.0 * a @ a.transpose(0, 2, 1)
    kkt[:, :m, m] = 1.0
    kkt[:, m, :m] = 1.0
    rhs = np.empty((len(xs), m + 1))
    rhs[:, :m] = 2.0 * a @ (total * target * scale)
    rhs[:, m] = total
    try:
        sol = np.linalg.solve(kkt, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        sol = np.full(rhs.shape, np.nan)
    for i in (~np.isfinite(sol).all(axis=1)).nonzero()[0]:
        sol[i] = np.linalg.lstsq(kkt[i], rhs[i], rcond=None)[0]
    fits = sol[:, :m]
    fits[(fits < -1e-12 * total).any(axis=1)] = np.nan
    return np.maximum(fits, 0.0)


def polish_combination(curve: CurveSystem, params, weights, target, total,
                       target_resid: float = POLISH_TARGET, points=None):
    """Damped Gauss-Newton refinement of a reproducing combination.

    Drives the residual map (sum(w_i x(t_i)) - total*target, sum(w_i) - total)
    toward zero by moving both the support parameters and the weights.
    Residual rows are scaled relative to the target components, so
    ``target_resid`` is a relative stopping measure.  Steps come from an
    SVD factorization of the Jacobian with a ladder of Levenberg damping
    values (near-dependent systems make the plain Gauss-Newton step
    overshoot along weak singular directions).  Parameters are clipped
    into the curve interval (nudged inside open ends) and weights are
    projected to be non-negative.

    At each trial's parameters the weights are also fitted by least squares
    on the scaled function rows with sum(w) = total exactly (variable
    projection; Golub & Pereyra, 1973).  The fit replaces the trial's
    Gauss-Newton weights when its scaled residual norm is no larger, unless
    it makes a weight < -1e-12 * total; the best strictly-improving trial
    wins.  Gauss-Newton weights hold the mass only to about the residual,
    so a caller that needs it exact rescales them.

    The iteration also stops after a step that lowers the residual norm by
    less than 1%: near a rank-deficient Jacobian the residual sits in a
    weak singular direction, the damped steps crawl along it, and running
    to ``POLISH_MAX_ITER`` would cost hundreds of evaluations for almost no gain.

    ``points``, the curve at ``params`` (one row each) when the caller
    holds it, spares the evaluation at the start.  An iteration evaluates
    the curve twice: once at the two central-difference neighbours of the
    parameters for the Jacobian, and once at the parameters of all 6
    damped trial steps, one full step per damping value; the rows at the
    parameters come from the trial that moved them there.  So a polish of
    k iterations makes at most 1 + 2k :meth:`CurveSystem.evaluate` calls,
    and one that starts within ``target_resid`` from given ``points`` makes
    none and returns the weights as given.

    Returns ``(params, weights, converged, points)``, ``points`` being the
    curve at the returned parameters.  A ``False`` flag means the
    iteration stalled above ``target_resid``; the caller decides whether
    the achieved residual is acceptable.
    """
    params = np.asarray(params, dtype=float).copy()
    weights = np.maximum(np.asarray(weights, dtype=float), 0.0)
    target = np.asarray(target, dtype=float)
    n, m = curve.n, params.size
    lo, hi = _clip_bounds(curve.interval)
    row_scale = np.concatenate(
        [1.0 / (1.0 + np.abs(total * target)), [1.0 / (1.0 + abs(total))]]
    )

    def residual(x, w):
        raw = np.concatenate([w @ x - total * target, [math.fsum(w) - total]])
        return raw * row_scale

    x = curve.evaluate(params) if points is None else np.asarray(points, dtype=float)
    r = residual(x, weights)
    norm = math.sqrt(r.dot(r))
    for _ in range(POLISH_MAX_ITER):
        if float(np.abs(r).max()) <= target_resid:
            return params, weights, True, x
        h = _DIFF_STEP * np.maximum(1.0, np.abs(params))
        up = np.minimum(params + h, hi)
        dn = np.maximum(params - h, lo)
        x_both = curve.evaluate(np.concatenate([up, dn]))
        x_up, x_dn = x_both[:m], x_both[m:]
        dx = (x_up - x_dn) / (up - dn)[:, None]
        jac = np.zeros((n + 1, 2 * m))
        jac[:n, :m] = (weights[:, None] * dx).T
        jac[:n, m:] = x.T
        jac[n, m:] = 1.0
        jac *= row_scale[:, None]
        u, s, vt = np.linalg.svd(jac, full_matrices=False)
        utr = u.T @ (-r)
        trials = []
        for lam_rel in _LM_LADDER:
            lam = lam_rel * s[0]
            step = vt.T @ (s / (s * s + lam * lam) * utr)
            trials.append(((params + step[:m]).clip(lo, hi),
                           np.maximum(weights + step[m:], 0.0)))
        x_try = curve.evaluate(np.concatenate([p for p, _ in trials])).reshape(
            len(trials), m, n)
        fits = _exact_mass_fits(x_try, target, total, row_scale[:n])
        best = None
        for (p_try, w_try), x_t, fit in zip(trials, x_try, fits):
            r_try = residual(x_t, w_try)
            norm_try = math.sqrt(r_try.dot(r_try))
            if not np.isnan(fit[0]):
                r_fit = residual(x_t, fit)
                norm_fit = math.sqrt(r_fit.dot(r_fit))
                if norm_fit <= norm_try:
                    w_try, r_try, norm_try = fit, r_fit, norm_fit
            if best is None or norm_try < best[0]:
                best = (norm_try, p_try, w_try, r_try, x_t)
        if best is None or best[0] >= norm:
            break  # first-order stationary; caller checks the residual gate
        stalled = best[0] > (1.0 - _LM_MIN_GAIN) * norm
        norm, params, weights, r, x = best
        if stalled:
            break
    return params, weights, float(np.abs(r).max()) <= target_resid, x


def merge_coincident(params, weights, points=None):
    """Sort by parameter and sum the weights of equal parameters.

    Returns ``(params, weights)``, or ``(params, weights, points)`` when
    ``points`` (one row per parameter) is given; a merged parameter keeps
    the row of its first occurrence.  The parameters come out strictly
    increasing, and each sum adds its terms in input order onto 0.0, so
    a lone -0.0 weight comes out as 0.0.  A stable sort keeps ties in
    input order; only when some parameter repeats are the sums formed.
    """
    params = np.asarray(params, dtype=float)
    if (params[1:] > params[:-1]).all():
        weights = np.asarray(weights, dtype=float) + 0.0
        return (params, weights) if points is None else (params, weights, points)
    order = params.argsort(kind="stable")
    params = params[order]
    weights = np.asarray(weights, dtype=float)[order] + 0.0
    first = np.ones(params.size, dtype=bool)
    np.not_equal(params[1:], params[:-1], out=first[1:])
    if not first.all():
        merged = np.zeros(int(first.sum()))
        np.add.at(merged, first.cumsum() - 1, weights)
        params, weights, order = params[first], merged, order[first]
    if points is None:
        return params, weights
    return params, weights, points[order]


def _rebuild(params, weights, points, target, total):
    """The combination of the support ``params`` (merged by
    :func:`merge_coincident`), its weights rescaled to sum to ``total``;
    a miss of ``target`` above ``RECON_TOL`` is a
    :class:`ReconstructionError`."""
    params, weights, points = merge_coincident(params, weights, points)
    weights = weights * (total / math.fsum(weights.tolist()))
    recon = _miss(weights, points, target)
    if recon > RECON_TOL:
        raise ReconstructionError(
            f"reduced combination misses the target by {recon:.3e} relative"
        )
    return ConvexCombination(params=params, weights=weights, total=total,
                             points=points)


def reduce_on_curve(curve: CurveSystem, comb: ConvexCombination,
                    v) -> ConvexCombination:
    """Re-express ``v`` with at most n points of the curve.

    ``comb`` must reproduce ``v``: sum(w_i x(t_i)) = total * v.  It is
    pruned to at most n+1 points by :func:`caratheodory_finite`, which
    gates it, drops its zero weights and eliminates along null vectors
    while the support is affinely dependent.  A pruned support of at most
    n points is the result.  Otherwise the n+1 -> n step walks the curve
    from support point i toward point i+1, to the first coordinate
    zero-crossing that :func:`_first_zero_crossing` sees in the frame built
    from the other n points, and reweights; any crossing it returns leaves
    every coordinate <= ``ZERO_TOL``, so the n kept points carry
    non-negative weights (positives left by roundoff are clipped).  It
    takes the first i, in index order, whose frame :func:`_build_frame`
    builds: the walk has a crossing in that gap, because every coordinate
    of x(t_i) is negative and x(t_(i+1)) is a basis point.  Only when every
    frame is singular (a support point of tiny weight leaves ``v`` within
    roundoff of the others' hull) is one point eliminated along a null
    vector instead.

    The curve at the input parameters is ``comb.points`` when set, and is
    evaluated once otherwise.  The input points strictly inside the walked
    gap are the walk's first probe round, so a dense input (such as a
    discrete measure) leaves a bracket one input cell wide, and the walk
    evaluates the curve only at its probes.  The result carries its
    support's rows as ``points``.
    """
    v = np.asarray(v, dtype=float)
    n = curve.n
    if v.size != n:
        raise SchemaError(f"target has dimension {v.size}, curve has {n}")
    total = comb.total
    seed_params, seed_points = comb.params, comb.points
    if seed_points is None:
        seed_points = curve.evaluate(seed_params)
    elif seed_points.shape[1] != n:
        raise SchemaError(f"points must have {n} columns, "
                          f"got {seed_points.shape[1]}")
    pruned = caratheodory_finite(seed_points, comb.weights, v, params=seed_params)
    params, weights, points = pruned.params, pruned.weights, pruned.points
    if params.size <= n:
        return pruned

    def finish(new_params, new_weights, new_points):
        try:
            return _rebuild(new_params, new_weights, new_points, v, total)
        except ReconstructionError:
            # an ill-conditioned frame can leave the dropped coordinate at
            # its forward-error floor; a local Gauss-Newton solve recovers
            # the nearby exact root; polish rows within this target keep
            # the miss well inside RECON_TOL at any total
            p2, w2, _, x2 = polish_combination(
                curve, new_params, new_weights, v, total,
                target_resid=0.01 * RECON_TOL * min(total, 1.0),
                points=new_points,
            )
            return _rebuild(p2, w2, x2, v, total)

    for i in range(n):
        # a support point of small weight leaves v near the affine hull of
        # the others, so the frame without it can be singular; the next
        # point's frame then serves, walking toward its right neighbour
        others = np.arange(n + 1) != i
        basis_params, basis_points = params[others], points[others]
        frame = _build_frame(v, basis_points)
        if frame is None:
            continue
        # the input points strictly inside the gap seed the walk
        a = int(seed_params.searchsorted(params[i], side="right"))
        b = int(seed_params.searchsorted(params[i + 1], side="left"))
        t_bar, k, p, x_bar = _first_zero_crossing(
            frame, curve, np.concatenate([params[i:i + 1], seed_params[a:b],
                                          params[i + 1:i + 2]]),
            np.concatenate([points[i:i + 1], seed_points[a:b],
                            points[i + 1:i + 2]]))
        p[k] = 0.0
        p = np.minimum(p, 0.0)  # residual positives are within ZERO_TOL
        denom = 1.0 - p.sum()
        rest = np.arange(n) != k
        new_params = np.concatenate([[t_bar], basis_params[rest]])
        new_nu = np.concatenate([[1.0 / denom], -p[rest] / denom])
        new_points = np.concatenate([x_bar[None, :], basis_points[rest]])
        return finish(new_params, new_nu * total, new_points)

    # every frame is singular: a point of tiny weight leaves v within
    # roundoff of the affine hull of the others; one shift along the last
    # singular vector of [points - v; 1] eliminates a point
    w = weights.tolist()
    _shift_to_zero(w, np.linalg.svd(_homogeneous(points, v))[2][-1].tolist())
    weights = np.array(w)
    keep = weights > 0.0
    return finish(params[keep], weights[keep], points[keep])


def combination_from_json(obj) -> ConvexCombination:
    check_fields(obj, "combination",
                 {"params": numbers, "weights": numbers, "total": number})
    return ConvexCombination(
        params=np.asarray(obj["params"], dtype=float),
        weights=np.asarray(obj["weights"], dtype=float),
        total=float(obj["total"]),
    )


def combination_to_json(comb: ConvexCombination) -> dict:
    return {
        "params": [float(x) for x in comb.params],
        "weights": [float(x) for x in comb.weights],
        "total": float(comb.total),
    }
