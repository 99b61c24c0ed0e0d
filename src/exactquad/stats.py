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
1/4.  The covariance bound |Cov| <= (1/4)(M_f - m_f)(M_g - m_g) then
follows with function extrema over the interval, and a discrete sequence
version falls out by using an atomic measure.
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
from .expr import Expression
from .hull import CurveSystem, refine_bracket
from .measure import MeasureSpec, exhaust, integrate_system
from .synth import RESIDUAL_GATE, SynthesisConfig, synthesize_rule

__all__ = [
    "CovarianceWitness",
    "GrussReport",
    "covariance",
    "covariance_witness",
    "gruss_check",
    "gruss_discrete",
]

_SCAN_POINTS = 4096
_GOLDEN_TOL = 1e-10
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


def _moments(f: Expression, g: Expression, m: MeasureSpec):
    """Probability-normalized Ef, Eg, Efg; checks the second moments.

    f and g are evaluated before their products at every point, so a
    non-finite product is an overflowing second moment, not a domain error.
    """
    products = (f * g, f * f, g * g)
    system = CurveSystem(components=(f, g, *products), interval=m.interval)
    try:
        moments = integrate_system(m, system, MOMENT_TOL)
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
    return ef, eg, efg


def covariance(f: Expression, g: Expression, m: MeasureSpec) -> float:
    """Cov(f(X), g(X)) under the measure normalized to a probability law."""
    ef, eg, efg = _moments(f, g, m)
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

    Zero covariance returns t1 = t2.  Otherwise a two-node exact rule for
    ((f - Ef)(g - Eg), f) supplies nodes satisfying the lambda(1 - lambda)
    identity.  With t1 held fixed, batched rounds of
    :func:`~exactquad.hull.refine_bracket` on [t1, t2] locate the point
    where the product gap reaches 4 Cov, which exists by continuity.  The
    score is psi + tol_phi, with psi the signed excess of the gap over
    4 Cov and tol_phi = 1e-11 (1 + 4 |Cov|), so a point with
    psi >= -tol_phi hits, and one with |psi| <= tol_phi ends the search.
    It returns the first such point the probes see.  A failed bracket is
    reported as an error, never patched.
    """
    ef, eg, efg = _moments(f, g, m)
    cov = efg - ef * eg
    zero_scale = 1e-12 * (1.0 + abs(efg) + abs(ef * eg))
    if abs(cov) <= zero_scale:
        t = _support_point(m)
        return CovarianceWitness(t1=t, t2=t, covariance=cov, product_gap=0.0)

    x1 = (f - ef) * (g - eg)
    system = CurveSystem(components=(x1, f), interval=m.interval)
    rule = synthesize_rule(system, m, config)
    nu = rule.weights / math.fsum(rule.weights)

    def gap(a: float, b: float) -> float:
        return (f(a) - f(b)) * (g(a) - g(b))

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
    lam = float(nu[0])
    if abs(lam * (1.0 - lam) - 0.25) <= 1e-12:
        return CovarianceWitness(t1=t1, t2=t2, covariance=cov,
                                 product_gap=0.25 * gap(t1, t2))

    # move the second point until the gap h(s) = (f(t1)-f(s))(g(t1)-g(s))
    # grows from 0 to 4 Cov; h(t2) = Cov / (lam (1 - lam)) overshoots it
    sign = 1.0 if cov > 0 else -1.0
    f1, g1 = f(t1), g(t1)

    def psi(s):
        return sign * ((f1 - f(s)) * (g1 - g(s)) - 4.0 * cov)

    psi_b = psi(t2)
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
        vals = psi(ss)
        return vals + tol_phi, vals

    def done(a, b, psi_hi):
        return b - a <= width_floor or abs(psi_hi) <= tol_phi

    s_star, _ = refine_bracket(probe, t1, t2, psi_b + tol_phi, psi_b, done)
    product_gap = 0.25 * gap(t1, s_star)
    if abs(product_gap - cov) > 1e-8 * (1.0 + abs(cov)):
        raise NonConvergenceError(
            f"witness search left a gap of {abs(product_gap - cov):.3e}; "
            "continuity assumptions look violated"
        )
    return CovarianceWitness(t1=t1, t2=float(s_star), covariance=cov,
                             product_gap=product_gap)


def _refine_extremum(fn, lo: float, hi: float, sign: float) -> float:
    """Golden-section maximum of sign*fn on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = sign * fn(c), sign * fn(d)
    while (b - a) > _GOLDEN_TOL * max(1.0, abs(lo), abs(hi)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = sign * fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = sign * fn(d)
    return sign * max(fc, fd)


def _window_extrema(fn, lo: float, hi: float, extra: np.ndarray):
    ts = np.linspace(lo, hi, _SCAN_POINTS)
    if extra.size:
        ts = np.unique(np.concatenate([ts, extra]))
    vals = fn(ts)
    i_max = int(np.argmax(vals))
    i_min = int(np.argmin(vals))

    def cell(i):
        return ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]

    hi_val = max(float(vals[i_max]), _refine_extremum(fn, *cell(i_max), sign=1.0))
    lo_val = min(float(vals[i_min]), _refine_extremum(fn, *cell(i_min), sign=-1.0))
    return lo_val, hi_val


def _extrema(fn, m: MeasureSpec):
    """Infimum and supremum of fn over the measure's interval."""
    atoms = np.array([loc for loc, _ in m.atoms])

    def on_window(window, inner):
        inside = atoms[(atoms >= window.lower) & (atoms <= window.upper)]
        return np.array(_window_extrema(fn, window.lower, window.upper, inside))

    try:
        (lo_val, hi_val), _ = exhaust(m, on_window, _EXTREMA_RTOL)
    except NonConvergenceError:
        raise UnboundedFunctionError(
            "extrema did not stabilize under interval expansion; "
            "the function looks unbounded on the interval"
        ) from None
    return float(lo_val), float(hi_val)


def _gruss_report(cov, m_f, big_f, m_g, big_g) -> GrussReport:
    bound = 0.25 * (big_f - m_f) * (big_g - m_g)
    return GrussReport(covariance=cov, m_f=m_f, M_f=big_f, m_g=m_g, M_g=big_g,
                       bound=bound, slack=bound - abs(cov))


def gruss_check(f: Expression, g: Expression, m: MeasureSpec) -> GrussReport:
    """Covariance bound report: |Cov| <= (1/4)(M_f - m_f)(M_g - m_g)."""
    cov = covariance(f, g, m)
    return _gruss_report(cov, *_extrema(f, m), *_extrema(g, m))


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
