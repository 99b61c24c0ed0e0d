"""Finite positive measures on an interval and integration against them.

A measure is a non-negative density (an :class:`~exactquad.expr.Expression`
in ``t``) plus a finite list of point atoms, on an interval that may be
open or infinite.  Integration over a compact interval uses interval
bisection from 2 panels, each integrated with QUADPACK's Gauss-Kronrod
pair G7-K15 (Piessens et al., 1983): 15 evaluations give the Kronrod
value, the Gauss 7 value reads every second node, and the error estimate
is |K15 - G7|.  An open or infinite interval is mapped onto a finite
u-range by a double-exponential change of variables (tanh-sinh, exp-sinh
or sinh-sinh: Takahasi and Mori, 1974; Mori and Sugihara, 2001), on which
the same bisection runs once.  All three public integrators run on the one
private integrator ``_integrals``, whose column 0 is the mass: every
integration checks that its tolerance ``tol`` (relative, default
``DEFAULT_TOL``) and the mass are finite and positive.  On an open or
infinite interval it also integrates each ``|f|``, and every integrand
must have decayed at the ends of the u-range: symmetric nodes let the two
tails of a non-integrable ``f`` cancel, so the signed integrals alone
could settle on a principal value.

The integrator keeps the K15 nodes of the panels it accepts, weighted by
half-width, Kronrod weight (all positive) and density (and dt/du, mapped
back to t), and returns them with the integrals and their window
(:class:`IntegralVector`).  This positive discrete measure, with the
atoms, has exactly the computed integrals as its moments, up to
summation order, so synthesis prunes it directly (Tchakaloff's theorem
used constructively).

Atom contributions are added exactly, as plain sums in sorted-by-location
order, so they are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergentMassError,
    NegativeDensityError,
    NonConvergenceError,
    SchemaError,
    boolean,
    check_fields,
    number,
    string,
)
from .expr import Expression, evaluate_columns, overflows, parse

__all__ = [
    "IntervalSpec",
    "MeasureSpec",
    "IntegralVector",
    "total_mass",
    "integrate",
    "integrate_system",
    "density_cell_masses",
    "measure_from_json",
    "interval_from_json",
]

DEFAULT_TOL = 1e-10

# QUADPACK's Gauss-Kronrod 7/15 pair (qk15; Piessens et al., 1983): the
# Kronrod abscissae of [0, 1] from 1 down to 0, their weights, and the
# weights of the Gauss 7 nodes, which are every second Kronrod abscissa
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# the K15 rule on [-1, 1] in increasing order; its odd-indexed nodes are
# the G7 nodes, with weights _G7_W
_K15_X = np.concatenate([-np.array(_XGK[:-1]), _XGK[::-1]])
_K15_W = np.array(_WGK + _WGK[-2::-1])
_G7_W = np.array(_WG + _WG[-2::-1])

_MAX_PANELS = 65536
_MAX_ROUNDS = 48
# the u-grid of the double-exponential maps, which the extrema scan of
# :mod:`exactquad.stats` shares: every map leaves the doubles before |u| = 7
_DE_STEP = 0.125
_DE_GRID = _DE_STEP * np.arange(-56, 57)
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
_HALVES = np.arange(3.0)  # the steps of the starting panels' edges


@dataclass(frozen=True)
class IntervalSpec:
    """An interval of the real line; infinite endpoints are always open."""

    lower: float
    upper: float
    lower_open: bool = False
    upper_open: bool = False

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi) or not lo < hi:
            raise SchemaError(f"invalid interval [{lo}, {hi}]: need lower < upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if math.isinf(lo):
            object.__setattr__(self, "lower_open", True)
        if math.isinf(hi):
            object.__setattr__(self, "upper_open", True)

    @property
    def is_compact(self) -> bool:
        return (
            math.isfinite(self.lower)
            and math.isfinite(self.upper)
            and not self.lower_open
            and not self.upper_open
        )

    def contains(self, t: float) -> bool:
        above = self.lower < t or (t == self.lower and not self.lower_open)
        below = t < self.upper or (t == self.upper and not self.upper_open)
        return above and below


@dataclass(frozen=True, eq=False)
class MeasureSpec:
    """Finite positive measure: optional density part plus point atoms.

    Atoms are stored sorted by location with coincident locations merged.
    The density must evaluate to >= -1e-12 wherever it is sampled (values
    in (-1e-12, 0) are clipped to zero; anything lower is a modeling error).
    """

    interval: IntervalSpec
    density: Expression | None = None
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        merged: dict[float, float] = {}
        for loc, mass in self.atoms:
            loc, mass = float(loc), float(mass)
            if not math.isfinite(loc) or not self.interval.contains(loc):
                raise SchemaError(f"atom location {loc} outside the interval")
            if not mass > 0 or not math.isfinite(mass):
                raise SchemaError(f"atom mass must be finite and > 0, got {mass}")
            merged[loc] = merged.get(loc, 0.0) + mass
        object.__setattr__(
            self, "atoms", tuple(sorted(merged.items()))
        )
        if self.density is None and not self.atoms:
            raise SchemaError("measure needs a density or at least one atom")


@dataclass(frozen=True, eq=False)
class IntegralVector:
    """Component integrals of a function system, and the measure's mass.

    ``nodes`` (increasing) and ``weights`` are the positive quadrature
    rule of the density part that computed them: the K15 nodes of every
    accepted G7-K15 panel, each weighted by the panel's half-width, its
    Kronrod weight and the density there.  On an open or infinite interval
    the panels lie in u, each node is mapped back to t and its weight
    also carries dt/du; only the nodes with positive weight are kept, and
    several of them may round to the same t near a finite end or sit on a
    closed one.  With the atoms added, their moments are ``mass`` and
    ``values`` up to summation order.

    ``window``, the pass's compact working window, is the interval when it
    is compact, else the hull of the nodes, the atoms and the closed ends
    (one double wide around a single point).
    """

    values: np.ndarray
    mass: float
    nodes: np.ndarray
    weights: np.ndarray
    window: IntervalSpec


def _density_callable(m: MeasureSpec):
    """The density as a function of an array of ``t``, with its sign
    check; ``finite=False`` lets non-finite values through, as
    :func:`~exactquad.expr.evaluate_columns` does."""
    dens = m.density

    def w(ts, finite=True):
        vals = evaluate_columns((dens,), ts, finite=finite)[:, 0]
        if (vals < -1e-12).any():
            worst = float(vals.min())
            raise NegativeDensityError(
                f"density evaluates to {worst} (< -1e-12); not a positive measure"
            )
        return np.maximum(vals, 0.0)

    return w


def _gauss_nodes(lo, hi, x):
    """Half-widths and the (panels, len(x)) nodes of a rule with
    abscissae ``x`` on [-1, 1], for a batch of panels."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half, mid[:, None] + half[:, None] * x[None, :]


def _panel_rule(vec_fn, lo, hi):
    """K15 values, |K15 - G7| error estimates and the (panels, 15)
    column-0 samples of ``vec_fn`` for a batch of panels.

    One ``vec_fn`` call takes the K15 nodes of every panel; the G7 sum
    reads the odd-indexed ones."""
    half, pts = _gauss_nodes(lo, hi, _K15_X)
    vals = np.asarray(vec_fn(pts.ravel()), dtype=float).reshape(len(lo), 15, -1)
    i15 = half[:, None] * np.einsum("pkn,k->pn", vals, _K15_W)
    i7 = half[:, None] * np.einsum("pkn,k->pn", vals[:, 1::2], _G7_W)
    return i15, np.abs(i15 - i7), vals[:, :, 0]


def _linspace(lo, hi, steps):
    """``np.linspace(lo, hi, steps.size)`` by its formula, for a step table
    ``steps`` = 0, 1, ..., size - 1: steps times (hi - lo) / (size - 1)
    plus lo, and then hi.  This gives linspace's bits at a fraction of its
    cost whenever that step is > 0; below it linspace switches formulas."""
    xs = steps * ((hi - lo) / (steps.size - 1)) + lo
    xs[-1] = hi
    return xs


def _integrate_compact(vec_fn, a, b, tol, n_out):
    """Adaptive bisection of [a, b] with ``vec_fn``'s column 0 the density.

    The bisection starts from 2 panels, each a G7-K15 batch
    (:func:`_panel_rule`).  Returns ``(integrals, nodes, weights)``: the
    ``(n_out,)`` integrals and the K15 rule of the accepted panels, in
    increasing node order, each weight the half-width times the Kronrod
    weight (all positive) times the density at the node.  The integrals
    are the moments of that rule up to summation order.  When no panel
    can be bisected further, a non-finite error estimate is a
    :class:`SchemaError`, since the integrals leave the double range, and
    a finite one a :class:`NonConvergenceError`.
    """
    if not b > a:
        return np.zeros(n_out), np.empty(0), np.empty(0)
    edges = _linspace(a, b, _HALVES)
    lo, hi = edges[:-1], edges[1:]
    vals, errs, dens = _panel_rule(vec_fn, lo, hi)
    width_floor = 64.0 * _EPS * max(abs(a), abs(b), 1.0)
    for _ in range(_MAX_ROUNDS):
        if (lo[1:] < lo[:-1]).any():
            order = lo.argsort(kind="stable")
            lo, hi, vals, errs, dens = (lo[order], hi[order], vals[order],
                                        errs[order], dens[order])
        totals = vals.sum(axis=0)
        err_tot = errs.sum(axis=0)
        fn_tol = tol * (1.0 + np.abs(totals))
        if (err_tot <= fn_tol).all():
            half, nodes = _gauss_nodes(lo, hi, _K15_X)
            weights = half[:, None] * _K15_W[None, :] * dens
            return totals, nodes.ravel(), weights.ravel()
        share = (hi - lo) / (b - a)
        bad = (errs > 0.5 * fn_tol[None, :] * share[:, None]).any(axis=1)
        bad &= (hi - lo) > width_floor
        if not bad.any():
            if not np.isfinite(err_tot).all():
                raise SchemaError("the integrals leave the double range")
            raise NonConvergenceError(
                f"integral over [{a}, {b}] did not reach tolerance {tol}; "
                f"residual error {float(err_tot.max())}"
            )
        if len(lo) + int(bad.sum()) > _MAX_PANELS:
            raise NonConvergenceError(
                f"integral over [{a}, {b}] exceeded the panel budget at tolerance {tol}"
            )
        mid = 0.5 * (lo[bad] + hi[bad])
        child_lo = np.concatenate([lo[bad], mid])
        child_hi = np.concatenate([mid, hi[bad]])
        child_vals, child_errs, child_dens = _panel_rule(vec_fn, child_lo, child_hi)
        lo = np.concatenate([lo[~bad], child_lo])
        hi = np.concatenate([hi[~bad], child_hi])
        vals = np.concatenate([vals[~bad], child_vals])
        errs = np.concatenate([errs[~bad], child_errs])
        dens = np.concatenate([dens[~bad], child_dens])
    raise NonConvergenceError(
        f"integral over [{a}, {b}] did not converge within the refinement depth"
    )


def _de_map(iv: IntervalSpec):
    """The double-exponential change of variables ``t = phi(u)`` of a
    non-compact interval: tanh-sinh between two finite ends, exp-sinh with
    one infinite end, sinh-sinh on the line.

    Returns ``phi``, which maps an array of ``u`` to ``(t, dt/du)``.  The
    distance of a node to a finite end is computed directly, not as a
    difference of nearby numbers.  A node whose distance is below the
    smallest normal double, that rounds onto an open end or that leaves
    the finite doubles gets ``dt/du = 0``: it carries no mass and is
    dropped.  A node that rounds onto a closed end stays there.
    """
    a, b = iv.lower, iv.upper

    def phi(u):
        with np.errstate(over="ignore"):
            s = 0.5 * np.pi * np.sinh(u)
            c = 0.5 * np.pi * np.cosh(u)
            near = np.inf
            if math.isfinite(a) and math.isfinite(b):
                width = b - a
                d_lo = width / (1.0 + np.exp(-2.0 * s))
                d_hi = width / (1.0 + np.exp(2.0 * s))
                t = np.where(u < 0.0, a + d_lo, b - d_hi)
                dphi = 2.0 * c * d_lo * d_hi / width
                near = np.minimum(d_lo, d_hi)
            elif math.isfinite(a):
                near = np.exp(s)
                t, dphi = a + near, c * near
            elif math.isfinite(b):
                near = np.exp(-s)
                t, dphi = b - near, c * near
            else:
                t, dphi = np.sinh(s), c * np.cosh(s)
        inside = ((near >= _TINY) & np.isfinite(dphi)
                  & ((a < t) if iv.lower_open else (a <= t))
                  & ((t < b) if iv.upper_open else (t <= b)))
        return t, np.where(inside, dphi, 0.0)

    return phi


def _integrate_mapped(m: MeasureSpec, components, tol):
    """Density integrals of ``components`` over a non-compact interval,
    in one adaptive pass on the u-range of :func:`_de_map`.

    Returns ``(integrals, nodes, weights)`` as :func:`_integrate_compact`
    does, the nodes mapped back to t: the integrals of the mass and of
    each component, and the accepted K15 nodes that carry mass, each
    weighted by half-width, Kronrod weight, density and dt/du.  The columns
    after the values hold ``|f|``, which only the error control reads.

    One evaluation on a u-grid of step ``_DE_STEP`` finds the outermost
    grid nodes with mass.  The u-range reaches one step beyond each, where
    the mass weight underflows, unless the map drops the node there or the
    density is not finite (``inf * 0`` far out); then it ends at the node
    itself.  At those outermost nodes every integrand, ``|f|`` included,
    must be within ``tol * (1 + |I|)``, with ``I`` the grid's trapezoid
    sum: a mass that fails is a :class:`DivergentMassError` and any other
    column a :class:`NonConvergenceError`, both raised before the pass.
    The ``|f|`` test refuses a principal value, which symmetric nodes
    would otherwise reach by cancelling two tails.  At an infinite end the
    test reads the integrand in u; at a finite end it reads the density
    times the node's distance to the end, the mass cut off there for a
    bounded density (for a ``t^-alpha`` singularity, ``1 - alpha`` times
    it).  An end is not tested where the density is exactly zero at the
    grid node beyond and its evaluation there did not overflow: that is
    the end of its support.
    """
    k = len(components)
    iv = m.interval
    w = _density_callable(m)
    phi = _de_map(iv)

    def columns(us, finite=True):
        """``(t, dt/du, live, columns)`` at ``us``; a node is live where
        the map keeps it and the mass weight is finite, and the functions
        are evaluated only where that weight is positive."""
        ts, dphi = phi(us)
        live = dphi > 0.0
        out = np.zeros((us.size, 1 + 2 * k))
        with np.errstate(invalid="ignore", over="ignore"):
            out[live, 0] = w(ts[live], finite) * dphi[live]
        live &= np.isfinite(out[:, 0])
        out[~live, 0] = 0.0
        pos = (out[:, 0] > 0.0).nonzero()[0]
        vals = evaluate_columns(components, ts[pos]) * out[pos, :1]
        out[pos, 1:] = np.concatenate([vals, np.abs(vals)], axis=1)
        return ts, dphi, live, out

    ts, dphi, live, cols = columns(_DE_GRID, finite=False)
    carry = (cols[:, 0] > 0.0).nonzero()[0]
    if not carry.size:
        raise SchemaError("the density is zero at every node of the u-grid: "
                          "a density narrower than the grid's spacing in t "
                          "near its mass, which grows with |t|, is missed")
    with np.errstate(over="ignore"):
        limit = tol * (1.0 + np.abs(_DE_STEP * cols[carry].sum(axis=0)))
    span = []
    for end, beyond, edge in ((carry[0], carry[0] - 1, iv.lower),
                              (carry[-1], carry[-1] + 1, iv.upper)):
        beyond_live = 0 <= beyond < _DE_GRID.size and live[beyond]
        span.append(_DE_GRID[beyond if beyond_live else end])
        cut = np.abs(cols[end])
        if math.isfinite(edge):
            cut = cut * (abs(ts[end] - edge) / dphi[end])
        thin = cut <= limit
        thin[0] &= limit[0] < np.inf
        if thin.all() or beyond_live and not overflows(m.density, ts[beyond]):
            continue
        where = f"at t = {float(ts[end])!r}"
        if not thin[0]:
            raise DivergentMassError(
                "the mass does not decay towards an end of the interval within "
                f"the doubles: tail estimate {cut[0]:.3g} {where}")
        bad = int((~thin[1:]).nonzero()[0][0])
        raise NonConvergenceError(
            f"function {bad % k} is not absolutely integrable: "
            f"tail estimate {cut[1 + bad]:.3g} {where}")
    totals, nodes, weights = _integrate_compact(lambda us: columns(us)[3],
                                                *span, tol, 1 + 2 * k)
    keep = weights > 0.0
    return totals[:1 + k], phi(nodes[keep])[0], weights[keep]


def _integrals(m: MeasureSpec, components, tol):
    """The :class:`IntegralVector` of ``components`` integrated against ``m``.

    Column 0 is the mass, so it shares the panels of the values.  A
    compact interval is integrated as it is and is its own window.  An
    open or infinite one is integrated in one pass of the
    double-exponential change of variables (:func:`_integrate_mapped`),
    and its window is the hull of the K15 nodes that carry mass, the
    atoms and the closed ends.  Atoms are exact sums.  A tolerance that is
    not finite and > 0 is a :class:`SchemaError`, raised before anything
    is evaluated.
    """
    if not 0.0 < tol < math.inf:
        raise SchemaError(f"tol must be finite and > 0, got {tol}")
    k = len(components)
    iv = m.interval
    totals = np.zeros(1 + k)
    nodes = weights = np.empty(0)
    if m.density is not None:
        if iv.is_compact:
            w = _density_callable(m)

            def vec(ts):
                weight = w(ts)[:, None]
                return np.concatenate(
                    [weight, evaluate_columns(components, ts) * weight], axis=1)

            part, nodes, weights = _integrate_compact(vec, iv.lower, iv.upper,
                                                      tol, 1 + k)
        else:
            part, nodes, weights = _integrate_mapped(m, components, tol)
        totals = totals + part
    if m.atoms:
        locs, masses = np.array(m.atoms).T
        with np.errstate(over="ignore"):
            terms = (masses[:, None] * evaluate_columns(components, locs)).T
        try:
            sums = [math.fsum(masses)] + [math.fsum(col) for col in terms]
        except (OverflowError, ValueError):  # an exact sum leaves the doubles
            sums = [math.inf]
        if not all(map(math.isfinite, sums)):
            raise SchemaError("the atoms' sums leave the double range")
        totals = totals + np.array(sums)
    mass = float(totals[0])
    if not math.isfinite(mass) or mass <= 0.0:
        raise SchemaError(f"measure has non-positive total mass {mass}")
    window = iv
    if not iv.is_compact:
        # a closed end stays in the window, where the continuity probe
        # checks the functions
        closed = [end for end, is_open in ((iv.lower, iv.lower_open),
                                           (iv.upper, iv.upper_open))
                  if not is_open]
        support = np.concatenate([nodes, [loc for loc, _ in m.atoms], closed])
        lo, hi = float(support.min()), float(support.max())
        # a single support point: the window reaches one double above it
        window = IntervalSpec(lo, hi if lo < hi else float(np.nextafter(hi, np.inf)))
    return IntegralVector(values=totals[1:], mass=mass, nodes=nodes,
                          weights=weights, window=window)


def total_mass(m: MeasureSpec, tol: float = DEFAULT_TOL) -> float:
    """Total mass of the measure: density integral plus atom masses."""
    return _integrals(m, [], tol).mass


def integrate(m: MeasureSpec, f: Expression, tol: float = DEFAULT_TOL) -> float:
    """Integral of ``f`` over the interval against the measure."""
    return float(_integrals(m, [f], tol).values[0])


def integrate_system(m: MeasureSpec, curve, tol: float = DEFAULT_TOL) -> IntegralVector:
    """Componentwise integrals of a function system, sharing adaptive panels.

    ``curve`` is anything with a ``components`` sequence of expressions
    (see :class:`exactquad.hull.CurveSystem`).
    """
    return _integrals(m, list(curve.components), tol)


# the benchmark's tracer (perfbench/layers.py) wraps this name, listed in
# its SPANNED table; it goes when the tracer reads a trace instead
exhaust_interval = integrate_system


def density_cell_masses(m: MeasureSpec, edges: np.ndarray) -> np.ndarray:
    """Density mass of each cell ``[edges[i], edges[i+1])``, atoms excluded.

    Uses the K15 rule of the integrator's G7-K15 pair once per cell, with
    no error control.  Synthesis does not call it: it discretizes on the
    K15 nodes that :class:`IntegralVector` carries.
    """
    if m.density is None:
        return np.zeros(len(edges) - 1)
    w = _density_callable(m)
    masses = _panel_rule(lambda ts: w(ts)[:, None], edges[:-1], edges[1:])[0]
    return np.maximum(masses[:, 0], 0.0)


# --- JSON wire format -------------------------------------------------------

def _endpoint(value) -> bool:
    return number(value) or value in ("-inf", "inf")


def interval_from_json(obj) -> IntervalSpec:
    check_fields(obj, "interval",
                 {"lower": _endpoint, "upper": _endpoint,
                  "lower_open": boolean, "upper_open": boolean},
                 optional=("lower_open", "upper_open"))
    return IntervalSpec(
        lower=float(obj["lower"]),
        upper=float(obj["upper"]),
        lower_open=obj.get("lower_open", False),
        upper_open=obj.get("upper_open", False),
    )


def measure_from_json(obj) -> MeasureSpec:
    check_fields(obj, "measure",
                 {"interval": None,
                  "density": lambda v: v is None or string(v),
                  "atoms": lambda v: v is None or isinstance(v, list)},
                 optional=("density", "atoms"))
    interval = interval_from_json(obj["interval"])
    density = obj.get("density")
    atoms = []
    for i, atom in enumerate(obj.get("atoms") or []):
        check_fields(atom, f"atom #{i}", {"t": number, "mass": number})
        atoms.append((float(atom["t"]), float(atom["mass"])))
    return MeasureSpec(
        interval=interval,
        density=parse(density) if density is not None else None,
        atoms=tuple(atoms),
    )
