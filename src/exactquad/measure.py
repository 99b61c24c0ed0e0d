"""Finite positive measures on an interval and integration against them.

A measure is a non-negative density (an :class:`~exactquad.expr.Expression`
in ``t``) plus a finite list of point atoms, on an interval that may be
open or infinite.  Integration over a compact interval uses interval
bisection with an embedded Gauss 7/15 pair per panel (the error estimate
is the difference of the pair).  Open or infinite intervals are reduced to
compact ones by a geometric schedule of nested windows, driven to
stability by :func:`exhaust`; each window adds the integrals over its two
new shells to those of the window inside it, so the adaptive panels always
start at the scale of the shell.  All four public integrators run on the
one private integrator ``_integrals``, whose column 0 is the mass: every
integration checks that the mass converges and is positive.  On an open or
infinite interval it also integrates each ``|f|`` over the same shells, and
exhaustion must stabilize those too: symmetric windows let the two tails of
a non-integrable ``f`` cancel, so the signed integrals alone could settle
on a principal value.

The integrator keeps the Gauss 15 nodes of the panels it accepts, weighted
by half-width, Gauss weight and density, and returns them with the
integrals (:class:`IntegralVector`).  This positive discrete measure, with
the atoms, has exactly the computed integrals as its moments, up to
summation order, so synthesis prunes it directly (Tchakaloff's theorem used
constructively).

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
from .expr import Expression, evaluate_columns, parse

__all__ = [
    "IntervalSpec",
    "MeasureSpec",
    "IntegralVector",
    "total_mass",
    "integrate",
    "integrate_system",
    "exhaust_interval",
    "density_cell_masses",
    "measure_from_json",
    "measure_to_json",
    "interval_from_json",
]

DEFAULT_TOL = 1e-10

_G7_X, _G7_W = np.polynomial.legendre.leggauss(7)
_G15_X, _G15_W = np.polynomial.legendre.leggauss(15)

_MAX_PANELS = 65536
_MAX_ROUNDS = 48
_MAX_EXHAUST_STEPS = 60


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
    rule of the density part that computed them: the Gauss 15 nodes of
    every accepted panel, each weighted by the panel's half-width, its
    Gauss weight and the density there.  With the atoms added, their
    moments are ``mass`` and ``values`` up to summation order.
    """

    values: np.ndarray
    mass: float
    nodes: np.ndarray
    weights: np.ndarray


def _density_callable(m: MeasureSpec):
    dens = m.density

    def w(ts):
        vals = np.asarray(dens(ts), dtype=float)
        if np.any(vals < -1e-12):
            worst = float(np.min(vals))
            raise NegativeDensityError(
                f"density evaluates to {worst} (< -1e-12); not a positive measure"
            )
        return np.maximum(vals, 0.0)

    return w


def _gauss_nodes(lo, hi, x):
    """Half-widths and the (panels, len(x)) nodes of a Gauss rule with
    abscissae ``x`` on [-1, 1], for a batch of panels."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half, mid[:, None] + half[:, None] * x[None, :]


def _panel_rule(vec_fn, lo, hi):
    """Gauss 15 values, |G15 - G7| error estimates and the (panels, 15)
    column-0 samples of ``vec_fn`` for a batch of panels.

    One ``vec_fn`` call takes the Gauss 15 nodes of every panel, then
    their Gauss 7 nodes."""
    half, pts15 = _gauss_nodes(lo, hi, _G15_X)
    _, pts7 = _gauss_nodes(lo, hi, _G7_X)
    vals = np.asarray(vec_fn(np.concatenate([pts15.ravel(), pts7.ravel()])),
                      dtype=float)
    v15 = vals[:pts15.size].reshape(len(lo), 15, -1)
    v7 = vals[pts15.size:].reshape(len(lo), 7, -1)
    i15 = half[:, None] * np.einsum("pkn,k->pn", v15, _G15_W)
    i7 = half[:, None] * np.einsum("pkn,k->pn", v7, _G7_W)
    return i15, np.abs(i15 - i7), v15[:, :, 0]


def _integrate_compact(vec_fn, a, b, tol, n_out):
    """Adaptive bisection of [a, b] with ``vec_fn``'s column 0 the density.

    Returns ``(integrals, nodes, weights)``: the ``(n_out,)`` integrals and
    the Gauss 15 rule of the accepted panels, in increasing node order,
    each weight the half-width times the Gauss weight times the density at
    the node.  The integrals are the moments of that rule up to summation
    order.
    """
    if not b > a:
        return np.zeros(n_out), np.empty(0), np.empty(0)
    edges = np.linspace(a, b, 9)
    lo, hi = edges[:-1], edges[1:]
    vals, errs, dens = _panel_rule(vec_fn, lo, hi)
    width_floor = 64.0 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)
    for _ in range(_MAX_ROUNDS):
        order = np.argsort(lo, kind="stable")
        lo, hi, vals, errs, dens = (lo[order], hi[order], vals[order],
                                    errs[order], dens[order])
        totals = vals.sum(axis=0)
        err_tot = errs.sum(axis=0)
        fn_tol = tol * (1.0 + np.abs(totals))
        if np.all(err_tot <= fn_tol):
            half, nodes = _gauss_nodes(lo, hi, _G15_X)
            weights = half[:, None] * _G15_W[None, :] * dens
            return totals, nodes.ravel(), weights.ravel()
        share = (hi - lo) / (b - a)
        bad = np.any(errs > 0.5 * fn_tol[None, :] * share[:, None], axis=1)
        bad &= (hi - lo) > width_floor
        if not np.any(bad):
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


def _working_windows(interval: IntervalSpec):
    """Nested compact sub-intervals exhausting an open or infinite interval."""
    lo, hi = interval.lower, interval.upper
    finite_span = hi - lo if math.isfinite(lo) and math.isfinite(hi) else None
    inset = (finite_span / 8.0) if finite_span is not None else 0.125
    anchor_lo = lo if math.isfinite(lo) else (hi if math.isfinite(hi) else 0.0)
    anchor_hi = hi if math.isfinite(hi) else (lo if math.isfinite(lo) else 0.0)
    for p in range(_MAX_EXHAUST_STEPS):
        if math.isinf(lo):
            a = anchor_lo - 2.0**p
        elif interval.lower_open:
            a = lo + inset / 2.0**p
        else:
            a = lo
        if math.isinf(hi):
            b = anchor_hi + 2.0**p
        elif interval.upper_open:
            b = hi - inset / 2.0**p
        else:
            b = hi
        if a < b:
            yield IntervalSpec(a, b)


def exhaust(m: MeasureSpec, on_window, rtol: float):
    """Drive ``on_window`` over compact windows of the measure's interval.

    ``on_window(window, inner)`` returns a 1-d array of values for the
    compact ``window``; ``inner`` is the previous, smaller window, or
    ``None`` on the first call.  A compact interval is its own window and
    is evaluated once.  Otherwise the windows grow by the exhaustion
    schedule, and the values are accepted once two consecutive windows,
    each holding every atom, moved them by at most ``rtol * (1 + |value|)``.

    Returns ``(values, window)``.  Raises :class:`NonConvergenceError` when
    the schedule runs out first.
    """
    if m.interval.is_compact:
        return on_window(m.interval, None), m.interval
    prev = inner = None
    stable = 0
    for window in _working_windows(m.interval):
        vals = on_window(window, inner)
        covered = all(window.lower <= loc <= window.upper for loc, _ in m.atoms)
        if prev is not None and covered:
            if np.all(np.abs(vals - prev) <= rtol * (1.0 + np.abs(vals))):
                stable += 1
                if stable >= 2:
                    return vals, window
            else:
                stable = 0
        prev, inner = vals, window
    raise NonConvergenceError(
        "exhaustion of the interval did not stabilize within the expansion "
        f"schedule (last window [{inner.lower}, {inner.upper}])"
    )


def _integrals(m: MeasureSpec, components, tol):
    """``(IntegralVector, window)`` of ``components`` integrated against ``m``.

    Column 0 is the mass, so it shares the panels and windows of the
    values.  On a non-compact interval the columns after the values hold
    the integrals of ``|f|``, which only the stability test reads: a
    function that is not absolutely integrable never stabilizes.  Each
    larger window adds only its two new shells to the density integral of
    the window inside it: integrating a large window from scratch would
    start from panels far wider than the density's scale, whose nodes can
    all miss the mass.  The Gauss rules of the shells, in order, are the
    rule of the window.  Atoms are exact sums.
    """
    k = len(components)
    absolute = not m.interval.is_compact
    w = _density_callable(m) if m.density is not None else None
    dens = np.zeros(1 + 2 * k if absolute else 1 + k)
    shells: list[tuple[float, np.ndarray, np.ndarray]] = []

    def vec(ts):
        weight = w(ts)[:, None]
        cols = [weight, evaluate_columns(components, ts) * weight]
        if absolute:
            cols.append(np.abs(cols[1]))
        return np.concatenate(cols, axis=1)

    def on_window(window, inner):
        nonlocal dens
        if w is not None:
            pieces = ([(window.lower, window.upper)] if inner is None else
                      [(window.lower, inner.lower), (inner.upper, window.upper)])
            for a, b in pieces:
                vals, nodes, weights = _integrate_compact(vec, a, b, tol, dens.size)
                dens = dens + vals
                shells.append((a, nodes, weights))
        inside = [(loc, mass) for loc, mass in m.atoms
                  if window.lower <= loc <= window.upper]
        if not inside:
            return dens
        locs, masses = np.array(inside).T
        terms = (masses[:, None] * evaluate_columns(components, locs)).T
        sums = [math.fsum(masses)]
        sums += [math.fsum(col) for col in terms]
        if absolute:
            sums += [math.fsum(np.abs(col)) for col in terms]
        return dens + np.array(sums)

    try:
        vals, window = exhaust(m, on_window, 0.25 * tol)
    except NonConvergenceError as exc:
        if components:
            _integrals(m, [], tol)  # raises if the mass is what diverges
            raise
        raise DivergentMassError(str(exc)) from exc
    mass = float(vals[0])
    if not math.isfinite(mass) or mass <= 0.0:
        raise SchemaError(f"measure has non-positive total mass {mass}")
    shells.sort(key=lambda shell: shell[0])
    nodes = np.concatenate([np.empty(0)] + [shell[1] for shell in shells])
    weights = np.concatenate([np.empty(0)] + [shell[2] for shell in shells])
    return IntegralVector(values=vals[1:k + 1], mass=mass, nodes=nodes,
                          weights=weights), window


def total_mass(m: MeasureSpec, tol: float = DEFAULT_TOL) -> float:
    """Total mass of the measure: density integral plus atom masses."""
    return _integrals(m, [], tol)[0].mass


def integrate(m: MeasureSpec, f: Expression, tol: float = DEFAULT_TOL) -> float:
    """Integral of ``f`` over the interval against the measure."""
    return float(_integrals(m, [f], tol)[0].values[0])


def integrate_system(m: MeasureSpec, curve, tol: float = DEFAULT_TOL) -> IntegralVector:
    """Componentwise integrals of a function system, sharing adaptive panels.

    ``curve`` is anything with a ``components`` sequence of expressions
    (see :class:`exactquad.hull.CurveSystem`).
    """
    return _integrals(m, list(curve.components), tol)[0]


def exhaust_interval(m: MeasureSpec, curve, tol: float = DEFAULT_TOL):
    """Reduce an open or infinite interval to a compact working window.

    Returns ``(integrals, window)`` where ``integrals`` estimates the
    system integrals and the mass over the whole interval and ``window``
    is a compact sub-interval carrying all but a ``tol`` fraction of the
    mass; the Gauss nodes of ``integrals`` lie in it.  Compact input is
    returned unchanged (identity).
    """
    return _integrals(m, list(curve.components), tol)


def density_cell_masses(m: MeasureSpec, edges: np.ndarray) -> np.ndarray:
    """Density mass of each cell ``[edges[i], edges[i+1])``, atoms excluded.

    Uses one fixed 15-point Gauss rule per cell, with no error control.
    Synthesis does not call it: it discretizes on the Gauss nodes that
    :class:`IntegralVector` carries.
    """
    if m.density is None:
        return np.zeros(len(edges) - 1)
    half, pts = _gauss_nodes(edges[:-1], edges[1:], _G15_X)
    vals = _density_callable(m)(pts.ravel()).reshape(pts.shape)
    return np.maximum(half * (vals @ _G15_W), 0.0)


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


def measure_to_json(m: MeasureSpec) -> dict:
    iv = m.interval
    return {
        "interval": {
            "lower": "-inf" if math.isinf(iv.lower) else iv.lower,
            "upper": "inf" if math.isinf(iv.upper) else iv.upper,
            "lower_open": iv.lower_open,
            "upper_open": iv.upper_open,
        },
        "density": m.density.text if m.density is not None else None,
        "atoms": [{"t": loc, "mass": mass} for loc, mass in m.atoms],
    }
