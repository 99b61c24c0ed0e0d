import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from exactquad.errors import (
    DivergentMassError,
    EvalDomainError,
    ExactQuadError,
    NegativeDensityError,
    SchemaError,
)
from exactquad import measure
from exactquad.expr import Expression, parse
from exactquad.hull import CurveSystem
from exactquad.measure import (
    IntervalSpec,
    MeasureSpec,
    density_cell_masses,
    integrate,
    integrate_system,
    interval_from_json,
    measure_from_json,
    total_mass,
)
from exactquad.synth import synthesize_rule

# the benchmark's problem generators, imported read-only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

sys.path.pop(0)

# every 20th problem of the acceptance corpus, seed 20260808, variant 0
ACCEPTANCE_SLICE = corpus.acceptance_corpus(20260808, 0)[::20]
UNIT = MeasureSpec(IntervalSpec(0, 1), density=parse("1"))
EXP = MeasureSpec(IntervalSpec(0, math.inf), density=parse("exp(-t)"))
OPEN = MeasureSpec(IntervalSpec(0, 1, True, True), density=parse("t^-0.5"),
                   atoms=((0.5, 0.25),))
LINE = MeasureSpec(IntervalSpec(-math.inf, math.inf), density=parse("exp(-t^2/2)"))
ATOMS = MeasureSpec(IntervalSpec(0, 1), atoms=((0.0, 0.5), (1.0, 0.5)))


def curve(*texts, interval=IntervalSpec(0, 1)):
    return CurveSystem.from_texts(texts, interval)


class TestIntervalSpec:
    def test_orders_endpoints(self):
        with pytest.raises(SchemaError):
            IntervalSpec(1, 0)

    def test_infinite_endpoints_coerced_open(self):
        iv = IntervalSpec(-math.inf, math.inf)
        assert iv.lower_open and iv.upper_open and not iv.is_compact

    def test_contains_respects_openness(self):
        iv = IntervalSpec(0, 1, lower_open=True)
        assert not iv.contains(0.0)
        assert iv.contains(1.0) and iv.contains(0.5)
        assert not iv.contains(math.nan)


class TestTotalMass:
    def test_unit_density(self):
        assert total_mass(UNIT) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_tail(self):
        assert total_mass(EXP) == pytest.approx(1.0, abs=1e-10)

    def test_atom_sum_exact(self):
        assert total_mass(ATOMS) == 1.0

    def test_open_exponential_tail_keeps_its_mass(self):
        # exp-sinh nodes reach from below 1e-280 to past t = 600, where
        # the mass weight underflows, and none sits on the open end
        m = MeasureSpec(IntervalSpec(0, math.inf, lower_open=True),
                        density=parse("exp(-t)"))
        assert total_mass(m) == pytest.approx(1.0, abs=1e-12)
        assert integrate(m, parse("t")) == pytest.approx(1.0, abs=1e-12)
        out = integrate_system(m, curve("t", interval=m.interval))
        assert out.nodes[0] > 0.0 and out.nodes[-1] > 600.0

    def test_divergent_mass(self):
        bad = MeasureSpec(IntervalSpec(0, 1, lower_open=True), density=parse("1/t"))
        with pytest.raises(DivergentMassError):
            total_mass(bad)
        # t/t is integrable though 1/t is not: the mass is tested first
        with pytest.raises(DivergentMassError):
            integrate_system(bad, curve("t"))

    def test_zero_mass_rejected(self):
        zero = MeasureSpec(IntervalSpec(0, 1), density=parse("0"))
        with pytest.raises(SchemaError):
            total_mass(zero)
        with pytest.raises(SchemaError):
            integrate_system(zero, curve("t"))


class TestIntegrate:
    def test_first_moment_uniform(self):
        assert integrate(UNIT, parse("t")) == pytest.approx(0.5, abs=1e-12)

    def test_atoms_exact(self):
        assert integrate(ATOMS, parse("t^2")) == 0.5

    def test_gamma_two(self):
        assert integrate(EXP, parse("t")) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("density,f,a,b", [
        ("1+t^2", "sin(3*t)", 0.0, 2.0),
        ("exp(-t)", "cos(t)+t", -1.0, 1.5),
        ("(1+t)^2", "exp(0.5*t)", 0.0, 1.0),
    ])
    def test_against_scipy_quad(self, density, f, a, b):
        # dual-route oracle: adaptive Gauss pair vs scipy's QUADPACK
        m = MeasureSpec(IntervalSpec(a, b), density=parse(density))
        w, x = parse(density), parse(f)
        ref, _ = quad(lambda t: w(t) * x(t), a, b, epsabs=1e-13, epsrel=1e-13)
        assert integrate(m, x, tol=1e-12) == pytest.approx(ref, abs=1e-10 * (1 + abs(ref)))


class TestIntegrateSystem:
    def test_uniform_moments(self):
        out = integrate_system(UNIT, curve("t", "t^2"))
        assert out.values == pytest.approx([0.5, 1.0 / 3.0], abs=1e-12)

    def test_cos_sin_closed_forms(self):
        # oracle: antiderivatives sin and -cos over [0, pi]
        m = MeasureSpec(IntervalSpec(0, math.pi), density=parse("1"))
        ref = [math.sin(math.pi) - math.sin(0.0), -math.cos(math.pi) + math.cos(0.0)]
        out = integrate_system(m, curve("cos(t)", "sin(t)",
                                        interval=IntervalSpec(0, math.pi)))
        assert out.values == pytest.approx(ref, abs=1e-10)

    def test_pure_atoms_exact_weighted_sums(self):
        out = integrate_system(ATOMS, curve("t", "t^2", "exp(t)"))
        expected = [0.5 * 0 + 0.5 * 1, 0.5 * 0 + 0.5 * 1,
                    0.5 * 1 + 0.5 * math.e]
        assert list(out.values) == expected

    def test_linearity(self):
        rng = np.random.default_rng(11)
        tol = 1e-10
        for _ in range(20):
            alpha, beta = rng.uniform(-3, 3, 2)
            f = parse(f"{float(rng.uniform(-2, 2))!r}*t^2+{float(rng.uniform(-2, 2))!r}")
            g = parse(f"sin({float(rng.uniform(0.5, 3))!r}*t)")
            combo = alpha * f + beta * g
            lhs = integrate(UNIT, combo, tol)
            rhs = alpha * integrate(UNIT, f, tol) + beta * integrate(UNIT, g, tol)
            assert abs(lhs - rhs) <= 10 * tol * (1 + abs(lhs))

    def test_atom_sums_bit_reproducible(self):
        atoms = ((0.3, 0.25), (0.7, 0.5), (0.1, 0.125))
        m1 = MeasureSpec(IntervalSpec(0, 1), atoms=atoms)
        m2 = MeasureSpec(IntervalSpec(0, 1), atoms=tuple(reversed(atoms)))
        f = parse("exp(t)*sin(5*t)")
        assert integrate(m1, f) == integrate(m2, f)


class TestMassColumn:
    @pytest.mark.parametrize("m,rel", [(UNIT, 1e-10), (EXP, 1e-10), (ATOMS, 0.0)],
                             ids=["unit", "exp", "atoms"])
    def test_every_integration_carries_the_mass(self, m, rel):
        c = curve("t", "t^2", interval=m.interval)
        mass = total_mass(m)
        assert integrate_system(m, c).mass == pytest.approx(mass, rel=rel, abs=0.0)

    @pytest.mark.parametrize("m", [UNIT, EXP, ATOMS, OPEN, LINE],
                             ids=["unit", "exp", "atoms", "open", "line"])
    def test_gauss_nodes_are_the_density_part(self, m):
        # with the atoms, the moments of the integrator's own nodes are the
        # integrals it returns, up to summation order; on an open or
        # infinite interval the nodes are mapped back from the u-range and
        # lie strictly inside the interval
        c = curve("t", "t^2", interval=m.interval)
        out = integrate_system(m, c)
        window = out.window
        nodes = np.concatenate([out.nodes, [loc for loc, _ in m.atoms]])
        weights = np.concatenate([out.weights, [mass for _, mass in m.atoms]])
        assert np.all(np.diff(out.nodes) > 0) and np.all(out.weights >= 0)
        assert np.all((window.lower <= out.nodes) & (out.nodes <= window.upper))
        assert all(m.interval.contains(float(t)) for t in out.nodes)
        if not m.interval.is_compact:
            assert m.interval.lower < out.nodes[0] and out.nodes[-1] < m.interval.upper
        assert math.fsum(weights) == pytest.approx(out.mass, rel=1e-14)
        recon = weights @ c.evaluate(nodes)
        assert recon == pytest.approx(out.values, rel=1e-14, abs=1e-15)
        assert (out.nodes.size == 0) == (m.density is None)


INTEGRATORS = {
    "total_mass": lambda m, tol: total_mass(m, tol),
    "integrate": lambda m, tol: integrate(m, parse("t"), tol),
    "integrate_system": lambda m, tol: integrate_system(m, curve("t"), tol),
    # the alias that the benchmark's tracer wraps
    "exhaust_interval": lambda m, tol: measure.exhaust_interval(m, curve("t"), tol),
}


@pytest.mark.parametrize("m", [UNIT, EXP], ids=["compact", "half-line"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", INTEGRATORS)
def test_tolerance_must_be_finite_and_positive(name, tol, m):
    # checked before the pass, whose end test reads an infinite tol as a
    # divergent mass and whose bisection refines to the panel budget
    # under a tol of 0
    with pytest.raises(SchemaError, match="tol must be finite and > 0"):
        INTEGRATORS[name](m, tol)


class TestExhaustion:
    def test_compact_identity(self):
        out = integrate_system(UNIT, curve("t"))
        assert out.window == UNIT.interval
        assert out.values == pytest.approx([0.5], abs=1e-12)

    def test_exponential_window_covers_tail(self):
        # the window runs from the closed end to the last node
        tol = 1e-10
        out = integrate_system(EXP, curve("t", "t^2", interval=EXP.interval), tol)
        window = out.window
        assert out.values == pytest.approx([1.0, 2.0], abs=1e-8)
        assert window.lower == 0.0 and window.upper == out.nodes[-1]
        # closed-form tail mass: exp(-T) must be below tol
        assert math.exp(-window.upper) <= tol
        assert window.upper >= -math.log(tol)

    def test_open_interval_shrinks_inside(self):
        m = MeasureSpec(IntervalSpec(0, 1, True, True), density=parse("1"))
        out = integrate_system(m, curve("t"), 1e-10)
        window = out.window
        assert 0.0 < window.lower < window.upper < 1.0
        assert (window.lower, window.upper) == (out.nodes[0], out.nodes[-1])
        # uniform density: excluded tail mass is the two insets
        tail = window.lower + (1.0 - window.upper)
        assert tail <= 1e-10
        assert out.values == pytest.approx([0.5], abs=1e-12)

    def test_atoms_must_be_covered(self):
        # the density's nodes end where exp(-t) underflows, near t = 700;
        # the window reaches the atom beyond them
        m = MeasureSpec(IntervalSpec(0, math.inf), density=parse("exp(-t)"),
                        atoms=((5000.0, 1.0),))
        out = integrate_system(m, curve("t", interval=m.interval))
        assert out.nodes[-1] < 5000.0 == out.window.upper
        assert out.values[0] == pytest.approx(1.0 + 5000.0, rel=1e-12)

    def test_single_atom_window(self):
        m = MeasureSpec(IntervalSpec(0, math.inf, lower_open=True),
                        atoms=((2.0, 1.0),))
        out = integrate_system(m, curve("t", interval=m.interval))
        window = out.window
        assert window.lower == 2.0 < window.upper == np.nextafter(2.0, 3.0)
        assert out.nodes.size == 0 and out.values[0] == 2.0


class TestDensityValidation:
    def test_hard_negative_density(self):
        bad = MeasureSpec(IntervalSpec(0, 1), density=parse("t-0.5"))
        with pytest.raises(NegativeDensityError):
            total_mass(bad)

    def test_roundoff_negative_clipped(self):
        # values within (-1e-12, 0) clip to zero instead of erroring
        tiny = MeasureSpec(IntervalSpec(0, 1),
                           density=parse("1+0.0000000000005*(t-2)"))
        assert total_mass(tiny) == pytest.approx(1.0, abs=1e-10)


class TestCellMasses:
    def test_uniform_cells(self):
        edges = np.linspace(0, 1, 5)
        masses = density_cell_masses(UNIT, edges)
        assert masses == pytest.approx([0.25] * 4, abs=1e-14)

    def test_no_density_gives_zeros(self):
        edges = np.linspace(0, 1, 5)
        assert np.all(density_cell_masses(ATOMS, edges) == 0.0)


class TestJson:
    def test_round_trip(self):
        m = measure_from_json({
            "interval": {"lower": 0, "upper": "inf", "lower_open": False,
                         "upper_open": True},
            "density": "exp(-t)",
            "atoms": [{"t": 1, "mass": 0.25}],
        })
        assert m.interval == IntervalSpec(0, math.inf)
        assert m.atoms == ((1.0, 0.25),)
        assert m.density.text == parse("exp(-t)").text

    def test_infinity_tokens(self):
        iv = interval_from_json({"lower": "-inf", "upper": "inf"})
        assert math.isinf(iv.lower) and math.isinf(iv.upper)

    def test_unknown_fields_rejected(self):
        with pytest.raises(SchemaError):
            measure_from_json({"interval": {"lower": 0, "upper": 1}, "blah": 1})
        with pytest.raises(SchemaError):
            interval_from_json({"lower": 0, "upper": 1, "x": 2})

    def test_atom_outside_interval_rejected(self):
        with pytest.raises(SchemaError):
            measure_from_json({
                "interval": {"lower": 0, "upper": 1},
                "density": None,
                "atoms": [{"t": 2.0, "mass": 1.0}],
            })

    def test_atoms_merge_and_sort(self):
        m = MeasureSpec(IntervalSpec(0, 1),
                        atoms=((0.7, 0.25), (0.3, 0.5), (0.7, 0.25)))
        assert m.atoms == ((0.3, 0.5), (0.7, 0.5))


def test_one_column_call_per_refinement_round(monkeypatch):
    # each panel batch evaluates its 15 Kronrod nodes in one call, and the
    # Gauss 7 sum reuses every second one
    rounds, calls = [], []
    panel_rule = measure._panel_rule
    monkeypatch.setattr(measure, "_panel_rule",
                        lambda *a: rounds.append(1) or panel_rule(*a))
    dens = measure._density_callable(UNIT)
    comps = [parse("sqrt(t)"), parse("exp(-40*(t-0.3)^2)")]

    def vec(ts):
        calls.append(ts.size)
        return np.column_stack([dens(ts)] + [c(ts) for c in comps])

    vals, nodes, _ = measure._integrate_compact(vec, 0.0, 1.0, 1e-10, 3)
    assert len(rounds) > 2 and len(calls) == len(rounds)
    assert all(size % 15 == 0 for size in calls)
    assert vals[1] == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_kronrod_pair_is_quadpacks(monkeypatch):
    # the hard-coded G7-K15 constants are scipy's copy of QUADPACK's qk15,
    # read from the arguments its Gauss-Kronrod 15 rule passes on
    from scipy.integrate import _quad_vec

    seen = {}
    monkeypatch.setattr(_quad_vec, "_quadrature_gk",
                        lambda a, b, f, norm, x, w, v: seen.update(x=x, w=w, v=v))
    _quad_vec._quadrature_gk15(0.0, 1.0, None, None)
    # scipy lists the Kronrod nodes from 1 down to -1
    assert measure._K15_X.tolist() == list(seen["x"][::-1])
    assert measure._K15_W.tolist() == list(seen["v"][::-1])
    assert measure._G7_W.tolist() == list(seen["w"][::-1])
    assert np.all(measure._K15_W > 0.0)
    # the Gauss 7 nodes are the odd-indexed Kronrod nodes
    g7_x, g7_w = np.polynomial.legendre.leggauss(7)
    assert np.allclose(measure._K15_X[1::2], g7_x, rtol=0.0, atol=1e-15)
    assert np.allclose(measure._G7_W, g7_w, rtol=0.0, atol=1e-15)


def _quadpack_miss(problem, rule):
    """Largest ``|rule sum - I| / (1 + |I|)`` over the mass and the
    functions of a compact problem, ``I`` from QUADPACK at epsrel 1e-13
    plus the atoms' exact sums."""
    m = measure_from_json(problem["measure"])
    lo, hi = m.interval.lower, m.interval.upper
    funcs = [parse("1")] + [parse(f) for f in problem["functions"]]
    worst = 0.0
    for f in funcs:
        ref = math.fsum(mass * float(f(t)) for t, mass in m.atoms)
        if m.density is not None:
            ref += quad(lambda t: float(m.density(t) * f(t)), lo, hi,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
        got = math.fsum(rule.weights * f(rule.nodes))
        worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
    return worst


@pytest.mark.parametrize("item", ACCEPTANCE_SLICE, ids=lambda item: item["name"])
def test_acceptance_rules_against_quadpack(item):
    # every 20th rule of the acceptance corpus (seed 20260808, variant 0)
    # reproduces the mass and every integral as QUADPACK computes them
    problem = item["problem"]
    m = measure_from_json(problem["measure"])
    rule = synthesize_rule(CurveSystem.from_texts(problem["functions"], m.interval), m)
    assert _quadpack_miss(problem, rule) <= 1e-9


def test_atoms_evaluate_as_one_batch(monkeypatch):
    # the atoms of a window are one evaluation of the system, never a
    # scalar call per atom and component
    calls = []
    call = Expression.__call__
    monkeypatch.setattr(Expression, "__call__",
                        lambda e, t: calls.append(np.ndim(t)) or call(e, t))
    m = MeasureSpec(IntervalSpec(0, 1), density=parse("1"),
                    atoms=((0.1, 0.125), (0.3, 0.25), (0.7, 0.5)))
    funcs = CurveSystem.from_texts(["t", "exp(t)"], m.interval)
    out = integrate_system(m, funcs, 1e-12)
    assert 0 not in calls
    assert out.values[0] == pytest.approx(0.5 + math.fsum([0.0125, 0.075, 0.35]),
                                          rel=1e-14)
    assert out.mass == pytest.approx(1.875, rel=1e-14)


def test_atom_error_names_the_first_failing_function():
    # sqrt(0.5-t) fails only at the second atom, log(t-0.5) at the first:
    # the error is the first function's, in index order, as for the
    # density's nodes
    m = MeasureSpec(IntervalSpec(0, 1), atoms=((0.2, 0.5), (0.8, 0.5)))
    funcs = CurveSystem.from_texts(["sqrt(0.5-t)", "log(t-0.5)"], m.interval)
    with pytest.raises(EvalDomainError) as info:
        integrate_system(m, funcs)
    assert info.value.subexpr.startswith("sqrt")


class TestDoubleExponential:
    @pytest.fixture
    def passes(self, monkeypatch):
        """One entry per ``_integrate_compact`` call."""
        calls = []
        compact = measure._integrate_compact
        monkeypatch.setattr(measure, "_integrate_compact",
                            lambda *a: calls.append(1) or compact(*a))
        return calls

    @pytest.mark.parametrize("alpha", [0.75, 0.9])
    def test_endpoint_singularity(self, alpha):
        # t^-alpha on (0, 1]: mass 1/(1-alpha), moments 1/(k+1-alpha)
        m = MeasureSpec(IntervalSpec(0, 1, lower_open=True),
                        density=parse(f"t^-{alpha}"))
        out = integrate_system(m, curve("t", "t^2", interval=m.interval))
        assert out.mass == pytest.approx(1.0 / (1.0 - alpha), rel=0, abs=1e-10)
        assert out.values == pytest.approx(
            [1.0 / (2.0 - alpha), 1.0 / (3.0 - alpha)], rel=0, abs=1e-10)

    def test_mass_below_the_doubles_is_refused(self):
        # a thousandth of the mass of t^-0.99 lies below t = 1e-300
        m = MeasureSpec(IntervalSpec(0, 1, lower_open=True),
                        density=parse("t^-0.99"))
        with pytest.raises(ExactQuadError):
            total_mass(m)

    def test_divergent_mass_is_refused_before_the_pass(self, passes):
        bad = MeasureSpec(IntervalSpec(0, 1, lower_open=True), density=parse("1/t"))
        with pytest.raises(DivergentMassError):
            integrate_system(bad, curve("t", interval=bad.interval))
        assert passes == []

    @pytest.mark.parametrize("m", [EXP, OPEN, LINE], ids=["exp", "open", "line"])
    def test_one_pass_per_integration(self, passes, m):
        integrate_system(m, curve("t", "t^2", interval=m.interval))
        assert passes == [1]

    def test_kink_under_exponential_weight(self):
        # the kink of |t - 1| is bisected in u: the integral is 2/e
        assert integrate(EXP, parse("abs(t-1)")) == pytest.approx(
            2.0 / math.e, rel=0, abs=1e-12)

    def test_density_overflow_far_out_is_no_mass(self):
        # t^2 exp(-t) evaluates to inf * 0 where t^2 overflows; those grid
        # nodes carry no mass and bound the u-range
        m = MeasureSpec(IntervalSpec(0, math.inf), density=parse("t^2*exp(-t)"))
        assert total_mass(m) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("density, lower", [("(1+t^2)^-0.5", -math.inf),
                                                ("t/(1+t^2)", 0.0)])
    def test_overflow_to_zero_is_not_the_end_of_the_support(self, density, lower):
        # past |t| = 1.3e154 t^2 overflows and the density reads exactly 0,
        # which must not pass for the end of a support where the mass is
        # still far from decayed
        m = MeasureSpec(IntervalSpec(lower, math.inf), density=parse(density))
        with pytest.raises(DivergentMassError):
            total_mass(m)

    def test_heavy_tail_is_not_truncated(self):
        # (1+t^2)^-0.51 has a finite mass, but 7e-7 of it lies past the
        # largest double, and 0.08 past t = 1e154, where t^2 overflows
        m = MeasureSpec(IntervalSpec(-math.inf, math.inf),
                        density=parse("(1+t^2)^-0.51"))
        with pytest.raises(DivergentMassError):
            total_mass(m)

    def test_support_end_inside_the_line(self):
        # max(0, 1 - t^2) ends its support at t = -1 and 1, where the mass
        # integrand in u is far from decayed
        m = MeasureSpec(IntervalSpec(-math.inf, math.inf),
                        density=parse("max(0, 1-t^2)"))
        assert total_mass(m) == pytest.approx(4.0 / 3.0, rel=0, abs=1e-10)

    @pytest.mark.parametrize("interval, mass", [
        (IntervalSpec(0, 1, lower_open=True), math.exp(-1.0)),
        (IntervalSpec(0, math.inf, lower_open=True), 1.0),
    ], ids=["unit", "half-line"])
    def test_zero_over_an_underflowed_zero_is_no_divergence(self, interval, mass):
        # exp(-1/t)/t^2 is 0/0, nan, once exp(-1/t) and t^2 both underflow,
        # below t = 1e-162: the range ends inside, where the mass is none
        m = MeasureSpec(interval, density=parse("exp(-1/t)/t^2"))
        assert total_mass(m) == pytest.approx(mass, rel=0, abs=1e-12)

    def test_domain_error_after_an_underflow_stays_a_domain_error(self):
        # exp(-1000) underflows before the closed end's real domain error
        m = MeasureSpec(IntervalSpec(1000, math.inf),
                        density=parse("exp(-t)*(t-1000)^-0.5"))
        with pytest.raises(EvalDomainError, match="zero raised to a negative power"):
            total_mass(m)

    def test_narrow_density_far_out_is_refused(self):
        # the sinh-sinh grid steps by several units near t = 30, so a bump
        # 0.05 wide there falls between its nodes; the refusal says so
        m = MeasureSpec(IntervalSpec(-math.inf, math.inf),
                        density=parse("exp(-((t-30)/0.05)^2)"))
        with pytest.raises(SchemaError, match="narrower than the grid's spacing"):
            total_mass(m)

    def test_narrow_density_far_out_next_to_an_atom_is_refused(self):
        # an atom does not make the missed density's mass zero: the mass is
        # 1 + 0.05*sqrt(pi), not the atom's 1
        m = MeasureSpec(IntervalSpec(-math.inf, math.inf),
                        density=parse("exp(-((t-30)/0.05)^2)"), atoms=((0.0, 1.0),))
        with pytest.raises(SchemaError, match="narrower than the grid's spacing"):
            total_mass(m)

    @pytest.mark.parametrize("shift", [1e4, 1e5])
    def test_open_end_far_from_zero(self, shift):
        # nodes within half an ulp of an open end round onto it and are
        # dropped; the mass they would carry is below the tolerance
        m = MeasureSpec(IntervalSpec(shift, shift + 1.0, True, True),
                        density=parse("1"))
        out = integrate_system(m, curve("t", interval=m.interval))
        assert out.mass == pytest.approx(1.0, rel=0, abs=2e-10)
        assert out.values[0] == pytest.approx(shift + 0.5, rel=2e-10)
        assert shift < out.nodes[0] and out.nodes[-1] < shift + 1.0

    @pytest.mark.parametrize("shift", [1e5, 1e6])
    def test_closed_end_far_from_zero(self, shift):
        # nodes that round onto a closed end stay on it, carrying its mass
        m = MeasureSpec(IntervalSpec(shift, math.inf),
                        density=parse(f"exp(-(t-{shift}))"))
        out = integrate_system(m, curve("t", interval=m.interval))
        assert out.mass == pytest.approx(1.0, rel=0, abs=1e-10)
        assert out.values[0] == pytest.approx(shift + 1.0, rel=1e-10)
        assert out.nodes[0] == shift
