import math

import numpy as np
import pytest
from scipy.integrate import quad

from exactquad.errors import (
    DivergentMassError,
    EvalDomainError,
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
    exhaust_interval,
    integrate,
    integrate_system,
    interval_from_json,
    measure_from_json,
    measure_to_json,
    total_mass,
    _working_windows,
)

UNIT = MeasureSpec(IntervalSpec(0, 1), density=parse("1"))
EXP = MeasureSpec(IntervalSpec(0, math.inf), density=parse("exp(-t)"))
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
        # the open end keeps the windows growing to 2^33 and more, far
        # past the scale of exp(-t); only the new shells are integrated
        m = MeasureSpec(IntervalSpec(0, math.inf, lower_open=True),
                        density=parse("exp(-t)"))
        assert total_mass(m) == pytest.approx(1.0, abs=1e-9)
        assert integrate(m, parse("t")) == pytest.approx(1.0, abs=1e-9)

    def test_divergent_mass(self):
        bad = MeasureSpec(IntervalSpec(0, 1, lower_open=True), density=parse("1/t"))
        with pytest.raises(DivergentMassError):
            total_mass(bad)
        # t/t is integrable though 1/t is not: the failed joint pass
        # integrates the mass alone and reports it as the cause
        with pytest.raises(DivergentMassError):
            integrate_system(bad, curve("t"))

    def test_zero_mass_rejected(self):
        zero = MeasureSpec(IntervalSpec(0, 1), density=parse("0"))
        with pytest.raises(SchemaError):
            total_mass(zero)
        with pytest.raises(SchemaError):
            exhaust_interval(zero, curve("t"))


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
        assert exhaust_interval(m, c)[0].mass == pytest.approx(mass, rel=rel, abs=0.0)

    @pytest.mark.parametrize("m", [UNIT, EXP, ATOMS], ids=["unit", "exp", "atoms"])
    def test_gauss_nodes_are_the_density_part(self, m):
        # with the atoms, the moments of the integrator's own nodes are the
        # integrals it returns, up to summation order
        c = curve("t", "t^2", interval=m.interval)
        out, window = exhaust_interval(m, c)
        nodes = np.concatenate([out.nodes, [loc for loc, _ in m.atoms]])
        weights = np.concatenate([out.weights, [mass for _, mass in m.atoms]])
        assert np.all(np.diff(out.nodes) > 0) and np.all(out.weights >= 0)
        assert np.all((window.lower <= out.nodes) & (out.nodes <= window.upper))
        assert math.fsum(weights) == pytest.approx(out.mass, rel=1e-14)
        recon = weights @ c.evaluate(nodes)
        assert recon == pytest.approx(out.values, rel=1e-14, abs=1e-15)
        assert (out.nodes.size == 0) == (m.density is None)


class TestExhaustion:
    def test_compact_identity(self):
        out, window = exhaust_interval(UNIT, curve("t"))
        assert window == UNIT.interval
        assert out.values == pytest.approx([0.5], abs=1e-12)

    def test_exponential_window_covers_tail(self):
        tol = 1e-10
        out, window = exhaust_interval(EXP, curve("t", "t^2",
                                                  interval=EXP.interval), tol)
        assert out.values == pytest.approx([1.0, 2.0], abs=1e-8)
        assert window.lower == 0.0
        # closed-form tail mass: exp(-T) must be below tol
        assert math.exp(-window.upper) <= tol
        assert window.upper >= -math.log(tol)

    def test_open_interval_shrinks_inside(self):
        m = MeasureSpec(IntervalSpec(0, 1, True, True), density=parse("1"))
        out, window = exhaust_interval(m, curve("t"), 1e-10)
        assert 0.0 < window.lower < window.upper < 1.0
        # uniform density: excluded tail mass is the two insets
        tail = window.lower + (1.0 - window.upper)
        assert tail <= 1e-10
        assert out.values == pytest.approx([0.5], abs=1e-9)

    def test_windows_nested_and_exhausting(self):
        iv = IntervalSpec(0, math.inf, lower_open=True)
        windows = []
        for i, w in enumerate(_working_windows(iv)):
            windows.append(w)
            if i >= 20:
                break
        for a, b in zip(windows, windows[1:]):
            assert b.lower <= a.lower and b.upper >= a.upper
        assert windows[-1].lower < 1e-6 and windows[-1].upper > 1e6

    def test_atoms_must_be_covered(self):
        m = MeasureSpec(IntervalSpec(0, math.inf), density=parse("exp(-t)"),
                        atoms=((50.0, 1.0),))
        out, window = exhaust_interval(m, curve("t", interval=m.interval))
        assert window.upper >= 50.0
        assert out.values[0] == pytest.approx(1.0 + 50.0, abs=1e-7)


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
        m = MeasureSpec(IntervalSpec(0, math.inf), density=parse("exp(-t)"),
                        atoms=((1.0, 0.25),))
        again = measure_from_json(measure_to_json(m))
        assert again.interval == m.interval
        assert again.atoms == m.atoms
        assert again.density.text == m.density.text

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
    # each panel batch evaluates its Gauss 15 and Gauss 7 nodes in one call
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
    assert all(size % 22 == 0 for size in calls)
    assert vals[1] == pytest.approx(2.0 / 3.0, rel=1e-10)


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
