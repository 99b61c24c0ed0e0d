import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactquad import cli, hull, synth
from exactquad.errors import (
    EvalDomainError,
    ExactQuadError,
    PolishError,
    SchemaError,
)
from exactquad.expr import parse
from exactquad.hull import RECON_TOL, CurveSystem
from exactquad.measure import (
    IntervalSpec,
    MeasureSpec,
    density_cell_masses,
    integrate_system,
    measure_from_json,
)
from exactquad.synth import (
    affine_rank,
    discretize_hull_point,
    rule_from_json,
    rule_to_json,
    synthesize_rule,
    verify_rule,
)

UNIT = MeasureSpec(IntervalSpec(0, 1), density=parse("1"))

# acceptance-style problems whose rank-restricted pass misses the gate.  In
# the first (seed 7, variant 3, #186 of the benchmark corpus) the weight
# refit spreads a dependent function's miss onto functions 1, 2 and 4; in
# the second (seed 1, variant 0, #154) the polish stalls with the weights
# 2.4e-10 off the mass.  Both must fall back to the full system.
FALLBACK_PROBLEMS = [
    {
        "functions": [
            "-0.3386611155801522*exp(-0.14424630541783467*t)",
            "0.28994621383245356*exp(0.3742868565507005*t)",
            "1.6527680915646616*exp(0.2546180803244473*t)",
            "-1.8119204374242428*exp(0.9150349137930265*t)",
            "1.6152312598380072*exp(0.2530034526510454*t)",
            "0.5204546239334915+1.8156035449797354*t+1.9773556296743613*t^2"
            "+0.6096023055457072*t^3",
        ],
        "measure": {
            "interval": {"lower": 0.7532512740847093,
                         "upper": 2.104708814147082,
                         "lower_open": False, "upper_open": False},
            "density": "(-0.731627848261378+0.8889611787343725*t"
                       "+-0.7175824371717026*t^2)^2+0.3789949746267842",
            "atoms": [{"t": 1.0407551322306818, "mass": 0.2182087829977166}],
        },
    },
    {
        "functions": [
            "-0.4773355402576298+-1.9411610617699004*t+0.5775807223794587*t^2"
            "+1.752250500197376*t^3+-1.0459181325897804*t^4",
            "1.363502832638484*exp(-0.36188765700967673*t)",
            "1.135209428143547*exp(-0.3493744458166048*t)",
            "-0.0003160872329859288*exp(-0.5859028818412471*t)",
            "-0.2805172893035204*sin(2*t)+-0.3966229877912224*cos(1*t)",
            "-0.8171237680904735+-0.7109890372501826*t+1.8150096875591286*t^2"
            "+-0.4098087190207149*t^3+-0.41737411326802754*t^4",
        ],
        "measure": {
            "interval": {"lower": 1.8519001550514842,
                         "upper": 3.197191674788946,
                         "lower_open": False, "upper_open": False},
            "density": "(0.6827522018180376+-0.3090580468772175*t"
                       "+0.9061230277381946*t^2)^2+0.48129558008203654",
            "atoms": [{"t": 2.269300366039617, "mass": 0.9773796841455145},
                      {"t": 2.5078568873788014, "mass": 0.1604577900781573},
                      {"t": 1.9566774164487537, "mass": 0.8011454589560094}],
        },
    },
]

# acceptance corpus seed 11, variant 5, #122: a full affine rank of 6
# whose fifth and sixth columns read |R_kk| 1.5e-5 and 1.4e-6 against
# RANK_TOL.  When the rank was read against the largest column, its sixth
# read as dependent, the restricted pass missed the gate and the rule was
# the full system's
FULL_RANK_SMALL_SINES = {
    "functions": [
        "-0.715954439663486*sin(1*t)+-1.9009061892791164*cos(1*t)",
        "-1.4616574113336767*exp(-0.5554918602190011*t)",
        "0.5666747308846114+0.6129247624175118*t+0.06761989673868563*t^2",
        "-1.4064852138062771*sin(2*t)+1.268408052727735*cos(1*t)",
        "0.03057423448141705*exp(-0.12625134528724336*t)",
        "0.976012535688795+0.4324885111562051*t+-1.3225996902347328*t^2"
        "+1.5405429929189682*t^3",
    ],
    "measure": {
        "interval": {"lower": 1.281788288890934, "upper": 2.3503417354964005,
                     "lower_open": False, "upper_open": False},
        "density": "(0.6495879048546132+0.0604431105194243*t"
                   "+-0.18365286893771504*t^2)^2+0.8737131039023647",
        "atoms": [],
    },
}

# acceptance corpus seed 402, variant 4, #165: a near-dependent exponential
# pair (functions 0 and 1) that the grid discretization left to a polish
# missing the gate on both
NEAR_DEPENDENT_EXPONENTIALS = {
    "functions": [
        "-0.30199428181535604*exp(-0.7854526092865031*t)",
        "0.7247346563817589*exp(-0.7894990642756363*t)",
        "1.4124795233339218+-0.8376084187111492*t+-1.9545864728559965*t^2"
        "+-1.287866246261986*t^3+0.13371420793469468*t^4",
        "1.9949894980889793*exp(-0.5813577318440593*t)",
        "-1.7245769535415434*sin(1*t)+0.8751376946230449*cos(2*t)",
        "-1.199093841228681+-1.6559340471879684*t+0.8227693042632844*t^2"
        "+1.4139282641030908*t^3",
    ],
    "measure": {
        "interval": {"lower": 1.6469550926675214, "upper": 4.354401763027549,
                     "lower_open": False, "upper_open": False},
        "density": "(0.13421083912189458+0.8696136199775089*t"
                   "+0.8235853408336729*t^2)^2+0.9169868148202877",
        "atoms": [{"t": 3.5774861223101566, "mass": 0.7056730355139302},
                  {"t": 3.365146658202694, "mass": 0.2469056088569945}],
    },
}


def curve(*texts, interval=IntervalSpec(0, 1)):
    return CurveSystem.from_texts(texts, interval)


class TestAffineRank:
    def test_explicit_affine_relation(self):
        report = affine_rank(curve("t", "2*t+3"), UNIT)
        assert report.rank == 1
        assert report.independent_indices == (0,)

    def test_moment_curve_full_rank(self):
        assert affine_rank(curve("t", "t^2"), UNIT).rank == 2

    def test_constant_is_rank_zero(self):
        assert affine_rank(curve("1"), UNIT).rank == 0

    def test_huge_column_keeps_its_rank(self):
        # the mean of 1e308*t over the nodes overflows unless the samples
        # are scaled first
        c = curve("1e308*t", "t")
        report = affine_rank(c, UNIT)
        assert report.rank == 1 and report.independent_indices == (0,)
        rule = synthesize_rule(c, UNIT)
        assert rule.rank_used == 1 and rule.nodes.tolist() == [0.5]
        assert rule.residuals.tolist() == [0.0, 0.0]

    def test_constant_column_hides_no_later_column(self):
        # t is 1 on an atom of weight 1e-24 and 0 on one of weight 1, so
        # its weighted centred column lies almost wholly in the first row;
        # the constant column takes that row of R, and t read against it
        # too would have a sine of 1e-12
        x = np.array([[1.0, 1.0], [1.0, 0.0]])
        report = affine_rank(curve("1", "t"), UNIT,
                             support=(x, np.array([1e-24, 1.0])))
        assert report.independent_indices == (1,)

    def test_constant_column_on_a_large_support(self):
        # on 1e5 nodes of widely spread weights, the rounding of a
        # constant's mean reaches about 50 eps, above ROUNDING_FLOOR, until
        # the centring runs a second time
        t = np.linspace(0.0, 1.0, 100000)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            c = np.full(t.size, rng.standard_normal())
            x = np.column_stack([t, c, t * t])
            w = np.exp(5.0 * rng.standard_normal(t.size))
            report = affine_rank(curve("t", "1", "t^2"), UNIT, support=(x, w))
            assert report.independent_indices == (0, 2)

    @pytest.mark.parametrize("texts, indep", [
        (("t", "t+1e-6*t^2", "t^2"), (0, 1)),
        (("t", "t+1e-6*t^2", "t+1e-8*t^3"), (0, 1, 2))])
    def test_rounding_after_a_small_sine(self, texts, indep):
        # t + 1e-6 t^2 stands a sine of 2.6e-7 off t, so the rounding of its
        # samples turns its direction by about 1e-8.  t^2 lies along that
        # direction, and its sine of 1.3e-10 is that rounding: a third
        # node would be spurious.  t + 1e-8 t^3 stands 6.6e-10 off the two
        # across that direction, and a threshold raised for every later
        # column alike would drop it
        c = curve(*texts)
        assert affine_rank(c, UNIT).independent_indices == indep
        assert len(synthesize_rule(c, UNIT)) == len(indep)

    @pytest.mark.parametrize("texts, indep", [
        (("t", "t", "t+1e-13*t^2", "t^2"), (0, 3)),
        (("t", "2*t", "t+1e-13*t^2", "t^2"), (0, 3)),
        (("t", "t+1e-6*t^2", "t^2", "t^3"), (0, 1))])
    def test_three_atoms_read_rank_two(self, texts, indep):
        # three atoms span two centred dimensions.  In the first two
        # systems the rejected columns 1 and 2 take the two rows of R that
        # t leaves, so t^2 must be projected on t alone; in the third the
        # rounding after a small sine must not read as a third dimension
        atoms = MeasureSpec(IntervalSpec(0, 1),
                            atoms=((0.0, 1.0), (0.5, 1.0), (1.0, 1.0)))
        assert affine_rank(curve(*texts), atoms).independent_indices == indep
        rule = synthesize_rule(curve(*texts), atoms)
        assert rule.rank_used == len(rule) == 2

    def test_rank_uses_measure_support(self):
        # the functions agree on the two atoms, so the measure sees rank 1
        atoms = MeasureSpec(IntervalSpec(0, 1), atoms=((0.0, 0.5), (1.0, 0.5)))
        report = affine_rank(curve("t", "t^2"), atoms)
        assert report.rank == 1


@settings(max_examples=60, deadline=None)
@given(value=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
def test_random_constant_has_rank_zero(value):
    # the centred samples of a constant are the rounding of their mean,
    # which the relative threshold alone would count as a direction
    text = repr(value)
    assert affine_rank(curve(text), UNIT).rank == 0
    assert synthesize_rule(curve(text), UNIT).rank_used == 0
    report = affine_rank(curve("t", text), UNIT)
    assert report.independent_indices == (0,)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12),
       n=st.integers(1, 6),
       exponents=st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6),
       kind=st.sampled_from(["independent", "near-dependent", "constant"]),
       gap=st.floats(1e-16, 1e-3))
# a constant column, the two columns then scaled by 1e-6 and 1e6
@example(seed=0, rows=12, n=2, exponents=[-6.0, 6.0, 0.0, 0.0, 0.0, 0.0],
         kind="constant", gap=1e-3)
# the twin of column 0 and the rejected column 1 take the two rows of R
# that column 0 leaves, and column 2 must still read as independent
@example(seed=93546629, rows=3, n=3, exponents=[6.0, -6.0, 3.0, 0.0, 0.0, 2.0],
         kind="near-dependent", gap=5e-11)
# five points span four centred dimensions: the rounding after a small
# sine must not read as a fifth
@example(seed=2728108231, rows=5, n=6,
         exponents=[-6.0, 6.0, -3.0, 3.0, 0.0, -2.0],
         kind="near-dependent", gap=5e-7)
def test_affine_rank_is_scale_free(seed, rows, n, exponents, kind, gap):
    # with a column within gap of an affine combination of earlier ones, a
    # constant column, and as few rows as columns or fewer: scaling the
    # columns by up to 1e+-6 or all the weights keeps the rank and the
    # columns, duplicating a column keeps the rank, the rank is below the
    # row count, and a constant column is never independent.  Reversing
    # the columns keeps the rank too, but for a near-dependent system to
    # within one: its sine depends on which column of the combination
    # comes last, and within two decades of RANK_TOL the two orders can
    # fall on either side of it
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n))
    w = rng.uniform(0.1, 1.0, rows)
    const = None
    if kind == "near-dependent" and n > 1:
        j = int(rng.integers(1, n))
        x[:, j] = (x[:, :j] @ rng.standard_normal(j) + 0.5
                   + gap * rng.standard_normal(rows))
    elif kind == "constant":
        const = int(rng.integers(n))
        x[:, const] = rng.standard_normal()
    c = curve(*["t"] * n)
    report = affine_rank(c, UNIT, support=(x, w))
    assert const not in report.independent_indices
    assert report.rank <= rows - 1
    scale = 10.0 ** np.array(exponents[:n])
    for support in [(x * scale, w), (x, w * 10.0 ** exponents[-1])]:
        assert affine_rank(c, UNIT, support=support) == report
    k = int(rng.integers(n))
    twin = np.insert(x, k, x[:, k], axis=1)
    assert affine_rank(curve(*["t"] * (n + 1)), UNIT,
                       support=(twin, w)).rank == report.rank
    reversed_rank = affine_rank(c, UNIT, support=(x[:, ::-1], w)).rank
    assert abs(reversed_rank - report.rank) <= (kind == "near-dependent")


@pytest.mark.parametrize("texts, rank", [
    (("t",), 1), (("exp(-t)", "cos(t)", "log(1+t)"), 3),
    (("t", "t^2", "exp(t)", "sin(3*t)"), 4), (("t", "2*t+3", "t^2", "1"), 2),
    (("1", "5"), 0), (("t^2", "cos(t)", "2*t^2+1"), 2)])
def test_rank_costs_one_qr_and_no_svd(monkeypatch, texts, rank):
    # full and deficient ranks alike
    c = curve(*texts)
    x = c.evaluate(np.linspace(0.0, 1.0, 30))
    calls = []
    for name in ("qr", "svd"):
        f = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=f, _name=name, **k:
                            calls.append(_name) or _f(*a, **k))
    report = affine_rank(c, UNIT, support=(x, np.full(30, 1 / 30)))
    monkeypatch.undo()
    assert calls == ["qr"]
    assert report.rank == len(report.independent_indices) == rank


class TestDiscretize:
    def test_left_endpoint_bias_corrected(self):
        c = curve("t")
        j = integrate_system(UNIT, c)
        # a raw left-endpoint cell sum on a 4-cell grid is biased, computed
        # by hand: cells carry mass 1/4 each, left points (0, 1/4, 1/2, 3/4)
        edges = np.linspace(0, 1, 5)
        raw_masses = density_cell_masses(UNIT, edges)
        assert float(raw_masses @ edges[:-1]) == pytest.approx(0.375, abs=1e-12)
        # the integrator's own Gauss nodes have no bias to correct
        params, w = discretize_hull_point(c, UNIT, j)
        recon = w @ c.evaluate(params)
        assert recon[0] == pytest.approx(0.5, abs=1e-15)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)
        assert np.all(w > 0)

    def test_constant_system_exact_any_grid(self):
        c = curve("1")
        j = integrate_system(UNIT, c)
        params, w = discretize_hull_point(c, UNIT, j)
        assert (w @ c.evaluate(params))[0] == pytest.approx(1.0, abs=1e-15)

    def test_pure_atom_measure_uses_atom_locations(self):
        atoms = MeasureSpec(IntervalSpec(0, 1), atoms=((0.25, 0.5), (0.75, 1.5)))
        c = curve("t", "t^2")
        j = integrate_system(atoms, c)
        params, w = discretize_hull_point(c, atoms, j)
        assert list(params) == [0.25, 0.75]
        assert w == pytest.approx([0.5, 1.5], rel=1e-12)

    @pytest.mark.parametrize("n", [11, 12])
    def test_monomials_hold_on_the_first_grid(self, n):
        # ill-conditioned (cond ~ 1e8 on a uniform grid), yet exact: the
        # nodes' moments are the integrals themselves
        c = curve(*[f"t^{k}" for k in range(1, n + 1)])
        j = integrate_system(UNIT, c, 1e-12)
        params, w = discretize_hull_point(c, UNIT, j)
        assert np.all(w > 0)
        assert w @ c.evaluate(params) == pytest.approx(j.values, abs=1e-15)

    def test_zero_density_nodes_dropped(self):
        # the density vanishes on half the interval; its nodes there carry
        # no mass and are not support points
        m = MeasureSpec(IntervalSpec(0, 2), density=parse("max(0,1-t)"))
        c = curve("t", interval=m.interval)
        j = integrate_system(m, c)
        params, w = discretize_hull_point(c, m, j)
        assert np.all(w > 0) and params.max() < 1.0
        assert j.nodes.size > params.size

    def test_integrals_of_another_system_rejected(self):
        j = integrate_system(UNIT, curve("t", "t^2"))
        with pytest.raises(SchemaError):
            discretize_hull_point(curve("t"), UNIT, j)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["compact", "half-line", "line"]),
       centre=st.floats(-3.0, 3.0), scale=st.floats(0.3, 3.0),
       lower_open=st.booleans(),
       atoms=st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.1, 2.0)),
                      max_size=2))
def test_discretize_properties(kind, centre, scale, lower_open, atoms):
    c0 = f"({centre!r})"
    if kind == "compact":
        interval = IntervalSpec(centre, centre + 2.0 * scale)
        density = f"1+0.5*sin({scale!r}*t)"
    elif kind == "half-line":
        interval = IntervalSpec(centre, math.inf, lower_open=lower_open)
        density = f"(t-{c0})*exp(-(t-{c0})/{scale!r})"
    else:
        interval = IntervalSpec(-math.inf, math.inf)
        density = f"exp(-((t-{c0})/{scale!r})^2)"
    m = MeasureSpec(interval, density=parse(density),
                    atoms=tuple((centre + scale * u, mass) for u, mass in atoms))
    c = curve("t", "t^2", "cos(t)", interval=interval)
    j = integrate_system(m, c)
    params, w = discretize_hull_point(c, m, j)
    assert np.all(w > 0)
    assert np.all(np.diff(params) > 0)
    assert j.window.lower <= params[0] and params[-1] <= j.window.upper
    assert math.fsum(w) == pytest.approx(j.mass, rel=1e-13, abs=0.0)
    recon = w @ c.evaluate(params)
    assert np.all(np.abs(recon - j.values) <= RECON_TOL * (1.0 + np.abs(j.values)))


class TestSynthesize:
    def test_mean_of_uniform(self):
        rule = synthesize_rule(curve("t"), UNIT)
        assert len(rule) == 1
        assert rule.nodes[0] == pytest.approx(0.5, abs=1e-9)
        assert rule.weights[0] == pytest.approx(1.0, rel=1e-10)
        assert rule.rank_used == 1

    def test_cos_sin_on_pi(self):
        m = MeasureSpec(IntervalSpec(0, math.pi), density=parse("1"))
        c = curve("cos(t)", "sin(t)", interval=m.interval)
        rule = synthesize_rule(c, m)
        assert len(rule) <= 2
        assert np.all(rule.weights >= 0)
        assert math.fsum(rule.weights) == pytest.approx(math.pi, rel=1e-10)
        recon = rule.weights @ c.evaluate(rule.nodes)
        assert recon == pytest.approx([0.0, 2.0], abs=1e-9)

    def test_lebesgue_weight_sum(self):
        # Lebesgue measure on [a, b]: the weights must sum to b - a
        a, b = -1.25, 2.5
        m = MeasureSpec(IntervalSpec(a, b), density=parse("1"))
        c = curve("t", "exp(t)", "sin(t)", interval=m.interval)
        rule = synthesize_rule(c, m)
        assert math.fsum(rule.weights) == pytest.approx(b - a, rel=1e-10)

    def test_exponential_tail_rule(self):
        m = MeasureSpec(IntervalSpec(0, math.inf), density=parse("exp(-t)"))
        c = curve("t", "t^2", interval=m.interval)
        rule = synthesize_rule(c, m)
        recon = rule.weights @ c.evaluate(rule.nodes)
        assert recon == pytest.approx([1.0, 2.0], abs=1e-7)
        assert np.all([m.interval.contains(float(t)) for t in rule.nodes])

    def test_gaussian_moments_on_the_line(self):
        m = MeasureSpec(IntervalSpec(-math.inf, math.inf),
                        density=parse("exp(-t^2/2)"))
        c = curve("t", "t^2", "t^3", "t^4", "t^5", "t^6", interval=m.interval)
        rule = synthesize_rule(c, m)
        assert len(rule) == 6
        root = math.sqrt(2.0 * math.pi)
        assert math.fsum(rule.weights) == pytest.approx(root, rel=1e-10)
        recon = rule.weights @ c.evaluate(rule.nodes)
        exact = [0.0, root, 0.0, 3.0 * root, 0.0, 15.0 * root]
        assert recon == pytest.approx(exact, abs=1e-7)

    def test_affine_dependent_system(self):
        c = curve("t", "2*t+3", "t^2")
        rule = synthesize_rule(c, UNIT)
        assert rule.rank_used == 2
        assert len(rule) <= 2
        j = integrate_system(UNIT, c, 1e-12).values
        recon = rule.weights @ c.evaluate(rule.nodes)
        assert np.all(np.abs(recon - j) <= 1e-8 * (1 + np.abs(j)))

    def test_atom_measure_nodes(self):
        m = MeasureSpec(IntervalSpec(0, 1), atoms=((0.0, 0.5), (1.0, 0.5)))
        rule = synthesize_rule(curve("t", "t^2"), m)
        recon = rule.weights @ curve("t", "t^2").evaluate(rule.nodes)
        assert recon == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_single_atom_rank_zero(self):
        m = MeasureSpec(IntervalSpec(0, 1), atoms=((0.25, 2.0),))
        rule = synthesize_rule(curve("t", "t^2"), m)
        assert rule.rank_used == 0
        assert len(rule) == 1
        assert rule.nodes[0] == pytest.approx(0.25)
        assert rule.weights[0] == pytest.approx(2.0)

    def test_constant_function_rank_zero(self):
        rule = synthesize_rule(curve("5"), UNIT)
        assert rule.rank_used == 0
        assert rule.weights[0] * 5.0 == pytest.approx(5.0, rel=1e-10)

    def test_scaling_invariance(self):
        # scaling the measure by 4 scales the weights by 4; the nodes of
        # the deterministic pipeline stay put (up to roundoff, since the
        # normalized problem is identical)
        c = curve("t", "t^2")
        m1 = MeasureSpec(IntervalSpec(0, 1), density=parse("1+t"))
        m4 = MeasureSpec(IntervalSpec(0, 1), density=parse("4*(1+t)"))
        r1 = synthesize_rule(c, m1)
        r4 = synthesize_rule(c, m4)
        assert len(r1) == len(r4)
        assert r4.nodes == pytest.approx(r1.nodes, abs=1e-9)
        assert r4.weights == pytest.approx(4.0 * r1.weights, rel=1e-9)

    def test_partial_support_dependence_falls_back(self):
        # the relation x2 = x1 holds only where the density lives;
        # synthesis must still reproduce both functions
        m = MeasureSpec(IntervalSpec(0, 2), density=parse("max(0,1-t)"))
        c = curve("t", "t+max(0,t-1)^2", interval=m.interval)
        rule = synthesize_rule(c, m)
        j = integrate_system(m, c, 1e-12).values
        recon = rule.weights @ c.evaluate(rule.nodes)
        assert np.all(np.abs(recon - j) <= 1e-8 * (1 + np.abs(j)))


    @pytest.mark.parametrize("problem", FALLBACK_PROBLEMS)
    def test_restricted_gate_miss_falls_back(self, problem):
        m = measure_from_json(problem["measure"])
        c = curve(*problem["functions"], interval=m.interval)
        rule = synthesize_rule(c, m)
        assert len(rule) <= c.n
        assert verify_rule(rule, c, m).passed

    def test_retry_reports_the_affine_rank(self):
        problem = FULL_RANK_SMALL_SINES
        m = measure_from_json(problem["measure"])
        c = curve(*problem["functions"], interval=m.interval)
        assert affine_rank(c, m).rank == 6
        rule = synthesize_rule(c, m)
        assert rule.rank_used == 6
        assert len(rule) <= max(rule.rank_used, 1)
        assert verify_rule(rule, c, m).passed

    def test_polish_runs_once_and_its_zero_weights_drop(self, monkeypatch):
        calls = []
        polish = synth.polish_combination

        def with_zero_weight(curve, params, weights, *args, **kwargs):
            calls.append(len(params))
            p, w, converged, x = polish(curve, params, weights, *args, **kwargs)
            return (np.append(p, 0.123), np.append(w, 0.0), converged,
                    np.vstack([x, curve.evaluate(0.123)]))

        monkeypatch.setattr(synth, "polish_combination", with_zero_weight)
        c = curve("t", "t^2")
        rule = synthesize_rule(c, UNIT)
        assert calls == [2]
        assert len(rule) == 2 and 0.123 not in rule.nodes
        assert verify_rule(rule, c, UNIT).passed

    @pytest.mark.parametrize("spoil,message", [
        (lambda w: 0.0 * w, "instead of the total mass"),
        (lambda w: w[::-1], "gate for function(s) [0, 1]"),
    ], ids=["mass", "residuals"])
    def test_gate_miss_is_a_polish_failure(self, monkeypatch, tmp_path,
                                           spoil, message):
        # a full-rank system gets one pass, so a polish that spoils the
        # weights reaches the final gate: typed, and exit code 3 in the CLI.
        # Synthesis rescales kept weights to the mass, so only weights that
        # all drop as zero can miss it
        polish = synth.polish_combination

        def spoiled(*args, **kwargs):
            p, w, converged, x = polish(*args, **kwargs)
            return p, spoil(w), converged, x

        monkeypatch.setattr(synth, "polish_combination", spoiled)
        with pytest.raises(PolishError, match=re.escape(message)) as exc:
            synthesize_rule(curve("t", "t^2"), UNIT)
        assert exc.value.kind == "polish-failure"
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"functions": ["t", "t^2"], "measure": {
            "interval": {"lower": 0, "upper": 1}, "density": "1"}}))
        err = io.StringIO()
        assert cli.run(["synthesize", str(path)], stdout=io.StringIO(),
                       stderr=err) == 3
        assert json.loads(err.getvalue().splitlines()[0])["kind"] == "polish-failure"

    def test_small_mass_holds_the_mass_gate(self, monkeypatch):
        # a converged polish holds the mass only to its absolute target,
        # 1e-12 * (1 + mu): relative to mu = 1e-4 that is 1e-8, above
        # MASS_GATE (1e-10), so synthesis rescales the weights to the mass
        m = MeasureSpec(IntervalSpec(0, 1), density=parse("1e-4*(1+t)"))
        c = curve("t", "t^2", "exp(t)")
        assert verify_rule(synthesize_rule(c, m), c, m).passed
        polish = synth.polish_combination

        def off_mass(curve, params, weights, target, total, *args, **kwargs):
            p, w, converged, x = polish(curve, params, weights, target, total,
                                        *args, **kwargs)
            return p, w + 1e-12 * (1.0 + total) / w.size, converged, x

        monkeypatch.setattr(synth, "polish_combination", off_mass)
        rule = synthesize_rule(c, m)
        assert abs(math.fsum(rule.weights) - rule.total) <= 1e-14 * rule.total
        assert verify_rule(rule, c, m).passed

    def test_gamma_tail_nodes_carry_density(self):
        # the nodes of (0, inf) reach t = 700, far past the mass; a
        # uniform grid over such a window once put a node at t = 744,
        # where the density underflows to 7e-321, below the smallest
        # normal float
        m = MeasureSpec(IntervalSpec(0, math.inf, lower_open=True),
                        density=parse("t*exp(-t)"))
        c = curve("t", "t^2", "t^3", interval=m.interval)
        rule = synthesize_rule(c, m)
        assert len(rule) <= 3
        assert np.all(m.density(rule.nodes) >= np.finfo(float).tiny)
        assert verify_rule(rule, c, m).passed

    def test_left_half_line_rule_and_stats(self, tmp_path):
        # (-inf, 0] is the only interval shape whose double-exponential map
        # runs the (-inf, b] branch: t = -X with X ~ Exp(1), so the mass
        # is 1, the moments -1 and 2, and Cov(t, t^2) = -6 + 2 = -4
        m = MeasureSpec(IntervalSpec(-math.inf, 0.0), density=parse("exp(t)"))
        c = curve("t", "t^2", interval=m.interval)
        rule = synthesize_rule(c, m)
        assert len(rule) == 2 and rule.rank_used == 2
        assert math.fsum(rule.weights) == pytest.approx(1.0, rel=1e-10)
        recon = rule.weights @ c.evaluate(rule.nodes)
        assert recon == pytest.approx([-1.0, 2.0], rel=1e-8)
        assert verify_rule(rule, c, m).passed
        measure = {"interval": {"lower": "-inf", "upper": 0}, "density": "exp(t)"}

        def run(command, f, g):
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps({"f": f, "g": g, "measure": measure}))
            out, err = io.StringIO(), io.StringIO()
            code = cli.run([command, str(path)], stdout=out, stderr=err)
            return code, out.getvalue(), err.getvalue()

        code, out, _ = run("covwitness", "t", "t^2")
        witness = json.loads(out)
        assert code == 0 and witness["covariance"] == pytest.approx(-4.0, rel=1e-8)
        assert (abs(witness["product_gap"] - witness["covariance"])
                <= 1e-8 * (1.0 + abs(witness["covariance"])))
        code, out, _ = run("gruss", "exp(t)", "sin(t)")
        report = json.loads(out)
        assert code == 0 and report["slack"] >= 0.0
        assert report["M_f"] == 1.0 and report["m_g"] == pytest.approx(-1.0)
        # t is unbounded on (-inf, 0], so no Gruss bound exists for it
        code, _, err = run("gruss", "t", "t^2")
        assert code == 3
        assert json.loads(err.splitlines()[0])["kind"] == "unbounded-function"

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9])
    def test_endpoint_singularity_rule(self, alpha):
        # t^-alpha on (0, 1]: the windows never reached the mass below
        # 2^-60; the double-exponential pass does
        m = MeasureSpec(IntervalSpec(0, 1, lower_open=True),
                        density=parse(f"t^-{alpha}"))
        c = curve("t", "t^2", interval=m.interval)
        rule = synthesize_rule(c, m)
        assert len(rule) <= 2
        assert verify_rule(rule, c, m).passed

    def test_near_dependent_exponentials(self):
        problem = NEAR_DEPENDENT_EXPONENTIALS
        m = measure_from_json(problem["measure"])
        c = curve(*problem["functions"], interval=m.interval)
        rule = synthesize_rule(c, m)
        assert len(rule) <= c.n
        assert verify_rule(rule, c, m).passed

    def test_heavy_tail_support_loss_is_typed(self):
        # the prune can eliminate every support point of this measure; that
        # must surface as a library error, not an arithmetic crash
        m = MeasureSpec(IntervalSpec(-math.inf, math.inf),
                        density=parse("(1+t^2)^-2"))
        with pytest.raises(ExactQuadError):
            synthesize_rule(curve("t", "t^2", interval=m.interval), m)


def test_continuity_probe_reports_the_first_failing_component():
    # the Gauss nodes are interior, so only the probe's endpoint t = 0 meets
    # the removable singularities of components 2 and 3
    curve = CurveSystem.from_texts(["exp(t)", "t^2", "sin(t)/t", "(exp(t)-1)/t"],
                                   IntervalSpec(0, 1))
    with pytest.raises(EvalDomainError) as exc:
        synthesize_rule(curve, UNIT)
    assert exc.value.subexpr == "sin(t)/t"
    assert str(exc.value) == "division by zero in 'sin(t)/t'"


def test_continuity_probe_reaches_a_closed_end_of_a_half_line():
    # the Gauss nodes stop short of t = 0; the window keeps the closed end
    m = MeasureSpec(IntervalSpec(0, math.inf), density=parse("exp(-t)"))
    with pytest.raises(EvalDomainError) as exc:
        synthesize_rule(curve("t", "log(t)", interval=m.interval), m)
    assert exc.value.subexpr == "log(t)"


@pytest.mark.parametrize("texts,interval,density", [
    (("log(t)", "t"), IntervalSpec(0, 1, lower_open=True), "1"),
    (("exp(-1/t)", "t"), IntervalSpec(0, 1, lower_open=True), "1"),
    (("log(t)", "t"), IntervalSpec(0, 1, lower_open=True), "t^-0.5"),
    (("log(t)", "t"), IntervalSpec(0, math.inf, lower_open=True), "exp(-t)"),
], ids=["log-unit", "exp-inverse-unit", "log-singular-density", "log-half-line"])
def test_continuity_probe_stays_inside_an_open_end(texts, interval, density):
    # the window's lower end is a Gauss node within 1e-270 of the open end
    # 0, where the probe's Chebyshev formula rounded its last point onto 0
    m = MeasureSpec(interval, density=parse(density))
    c = curve(*texts, interval=interval)
    rule = synthesize_rule(c, m)
    assert len(rule) == 2
    assert np.all(rule.nodes > 0.0)
    assert verify_rule(rule, c, m).passed


# acceptance-style problems, drawn as perfbench's corpus draws them: n 1 to
# 6 polynomials, trigonometric pairs and exponentials on an interval of
# width 0.5 to 3, a squared-quadratic density, and up to three atoms
_acceptance_coef = st.floats(-2.0, 2.0)
_acceptance_function = st.one_of(
    st.lists(_acceptance_coef, min_size=1, max_size=5).map(
        lambda cs: "+".join(f"{c!r}*t^{k}" for k, c in enumerate(cs))),
    st.tuples(_acceptance_coef, _acceptance_coef, st.integers(1, 2),
              st.integers(1, 2)).map(
        lambda a: f"{a[0]!r}*sin({a[2]}*t)+{a[1]!r}*cos({a[3]}*t)"),
    st.tuples(_acceptance_coef, st.floats(-1.0, 1.0)).map(
        lambda a: f"{a[0]!r}*exp({a[1]!r}*t)"))


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(_acceptance_function, min_size=1, max_size=6),
       lower=st.floats(-2.0, 2.0), width=st.floats(0.5, 3.0),
       density=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       floor=st.floats(0.01, 1.0),
       atoms=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.1, 1.0)),
                      max_size=3))
def test_synthesized_rules_keep_the_theorem(texts, lower, width, density,
                                            floor, atoms):
    # the paper's theorem on every rule that synthesis returns: at most
    # max(rank, 1) nodes inside the interval, weights >= 0 summing to the
    # mass, and a rule that re-integration verifies.  The walked support
    # is gated on the subset and the polished rule once more on all n
    # functions, so this pins what the last gate must hold
    interval = IntervalSpec(lower, lower + width)
    poly = "+".join(f"{c!r}*t^{k}" for k, c in enumerate(density))
    m = MeasureSpec(interval, density=parse(f"({poly})^2+{floor!r}"),
                    atoms=tuple((lower + u * width, mass) for u, mass in atoms))
    c = curve(*texts, interval=interval)
    try:
        rule = synthesize_rule(c, m)
    except ExactQuadError:
        return  # a typed refusal returns no rule
    assert len(rule) <= max(rule.rank_used, 1)
    assert np.all(rule.weights >= 0.0)
    assert abs(math.fsum(rule.weights) - rule.total) <= synth.MASS_GATE * rule.total
    assert all(interval.contains(float(t)) for t in rule.nodes)
    assert verify_rule(rule, c, m).passed


class TestVerify:
    def test_clean_rule_passes(self):
        rule = synthesize_rule(curve("t"), UNIT)
        report = verify_rule(rule, curve("t"), UNIT)
        assert report.passed
        assert np.max(report.residuals) <= 1e-12

    def test_perturbed_weight_flagged(self):
        m = MeasureSpec(IntervalSpec(0, math.pi), density=parse("1"))
        c = curve("cos(t)", "sin(t)", interval=m.interval)
        rule = synthesize_rule(c, m)
        bad = rule_from_json(rule_to_json(rule))
        bad.weights[0] += 1e-3
        report = verify_rule(bad, c, m)
        assert not report.passed
        assert np.max(report.relative_residuals) > 1e-8

    def test_random_rule_self_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = float(rng.uniform(-1, 0))
            b = a + float(rng.uniform(1, 2))
            m = MeasureSpec(IntervalSpec(a, b), density=parse("1+t^2"))
            c = CurveSystem.from_texts(
                ["t", f"exp({float(rng.uniform(-0.5, 0.5))!r}*t)"],
                IntervalSpec(a, b))
            rule = synthesize_rule(c, m)
            assert verify_rule(rule, c, m).passed


class TestRuleJson:
    def test_round_trip(self):
        rule = synthesize_rule(curve("t"), UNIT)
        obj = rule_to_json(rule)
        assert set(obj) == {"nodes", "weights", "total", "residuals", "rank_used"}
        again = rule_from_json(obj)
        assert list(again.nodes) == obj["nodes"]


@pytest.mark.parametrize("texts, atoms", [
    (["t", "t^2", "exp(t)"], ()),
    (["t", "2*t+3"], ()),
    (["1"], ()),
    (["t", "sin(3*t)"], ((0.25, 0.5), (0.75, 0.125))),
])
def test_synthesis_evaluates_the_discrete_measure_once(monkeypatch, texts, atoms):
    # the affine rank, the prune and the walk (or the rank-0 rule) share
    # one evaluation of the curve at the discrete measure's nodes, and the
    # continuity probe, the window's two ends, rides in the same batch
    m = MeasureSpec(IntervalSpec(0, 1), density=parse("1+t"), atoms=atoms)
    c = CurveSystem.from_texts(texts, m.interval)
    J = integrate_system(m, c)
    params, _ = discretize_hull_point(c, m, J)
    probe = np.array([J.window.upper, J.window.lower])
    batches = []
    evaluate = CurveSystem.evaluate
    monkeypatch.setattr(CurveSystem, "evaluate",
                        lambda self, t: batches.append(np.atleast_1d(t))
                        or evaluate(self, t))
    rule = synth.synthesize_rule(c, m)
    monkeypatch.undo()
    assert len(rule) <= max(1, len(texts))
    assert np.array_equal(batches[0], np.concatenate([params, probe]))
    assert not any(np.isin(params, b).any() or np.isin(probe, b).any()
                   for b in batches[1:])


@pytest.mark.parametrize("texts", [["t", "t^2"], ["t", "t^2", "exp(t)"],
                                   ["sin(t)", "cos(2*t)", "t^3", "t"]])
def test_converged_synthesis_evaluates_only_the_batch_and_the_probes(
        monkeypatch, texts):
    # full rank on a compact interval, and the walk's crossing is exact
    # enough that the polish converges at once: after the one batch of
    # the discrete measure and the continuity probe, the curve is evaluated
    # only at the walk's probes, never at the crossing, the polish start
    # or the gate
    m = MeasureSpec(IntervalSpec(0, 1), density=parse("1+t"))
    c = CurveSystem.from_texts(texts, m.interval)
    probes, evals = [], []
    evaluate, refine = CurveSystem.evaluate, hull.refine_bracket

    def counting_refine(probe, *args):
        return refine(lambda ts: probes.append(ts.size) or probe(ts), *args)

    monkeypatch.setattr(hull, "refine_bracket", counting_refine)
    monkeypatch.setattr(CurveSystem, "evaluate",
                        lambda self, t: evals.append(np.size(t))
                        or evaluate(self, t))
    rule = synth.synthesize_rule(c, m)
    monkeypatch.undo()
    assert rule.rank_used == len(texts) and rule.converged
    assert probes and len(evals) == 1 + len(probes)
    assert evals[1:] == probes


# the benchmark's tail corpus, imported read-only: its near-dependent
# systems and its 10 to 12 monomials on [0, 1]
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

sys.path.pop(0)
import sweep  # noqa: E402


MOVED_T = [("scale t by 1e-9", 5, (2, 2)), ("scale t by 1e-9", 89, (1, 1)),
           ("shift t by 1e7", 61, (1, 1)), ("shift t by 1e7", 89, (1, 1))]


@pytest.mark.parametrize("transform,index,want", MOVED_T,
                         ids=[f"{name} #{i}" for name, i, _ in MOVED_T])
def test_scaling_t_keeps_the_rule(transform, index, want):
    # acceptance 20260808/0/#5, #61 and #89 with t moved as the sweep
    # composes it.  Scaled by 1e-9, a walk that stopped at a bracket 8 eps
    # wide in absolute units of t, a millionth of the interval, missed
    # RECON_TOL by 3.7e-9 and 2.0e-7, and #5 and #89 were refused.  Shifted
    # by 1e7, where the doubles are 1.9e-9 apart, the walked supports of
    # #61 and #89 missed RECON_TOL, and a gate on the walk refused them
    # before the polish on all n functions could reach RESIDUAL_GATE
    problem = corpus.acceptance_corpus(20260808, 0)[index]["problem"]
    moved = sweep.TRANSFORMS[transform](problem)
    assert sweep.outcome(sweep.synthesize(problem)[0]) == want
    assert sweep.outcome(sweep.synthesize(moved)[0]) == want


WEIGHTS_ONLY_POLISHES = [
    item for item in corpus.tail_corpus(20260808, 0)
    if item["name"].startswith("near-dependent")
    or item["name"] in {f"{n} monomials on [0,1]" for n in (10, 11, 12)}]


@pytest.mark.parametrize("item", WEIGHTS_ONLY_POLISHES,
                         ids=[item["name"] for item in WEIGHTS_ONLY_POLISHES])
def test_walked_support_needs_only_its_weights_fitted(monkeypatch, item):
    # the walk leaves these supports just above the polish target and off
    # only in their weights: the weights fitted at the walked nodes meet
    # it, so the polish evaluates nothing
    m = measure_from_json(item["problem"]["measure"])
    c = CurveSystem.from_texts(item["problem"]["functions"], m.interval)
    inside, evals = [], []
    evaluate, polish = CurveSystem.evaluate, hull.polish_combination

    def counted(*args, **kwargs):
        inside.append(1)
        try:
            return polish(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(synth, "polish_combination", counted)
    monkeypatch.setattr(hull, "polish_combination", counted)
    monkeypatch.setattr(CurveSystem, "evaluate",
                        lambda self, t: (inside and evals.append(np.size(t)))
                        or evaluate(self, t))
    rule = synthesize_rule(c, m)
    monkeypatch.undo()
    assert evals == []
    assert rule.converged and verify_rule(rule, c, m).passed


# the five open or infinite measures of the benchmark's tail corpus
NON_COMPACT = [
    (IntervalSpec(0, math.inf), "exp(-t)", ["t", "t^2", "t^3", "t^4"]),
    (IntervalSpec(-math.inf, math.inf), "exp(-t^2/2)",
     ["t", "t^2", "t^3", "t^4", "t^5", "t^6"]),
    (IntervalSpec(-math.inf, math.inf), "(1+t^2)^-2", ["t", "t^2"]),
    (IntervalSpec(0, math.inf, lower_open=True), "t*exp(-t)",
     ["t", "t^2", "exp(-t)"]),
    (IntervalSpec(0, 1, lower_open=True), "t^-0.5", ["t", "t^2"]),
]


@pytest.mark.parametrize("interval,density,texts", NON_COMPACT,
                         ids=[d for _, d, _ in NON_COMPACT])
def test_non_compact_discrete_measure_is_small(interval, density, texts):
    # one adaptive pass in u: a few hundred nodes, where the exhaustion
    # windows left 1080 to 8760
    m = MeasureSpec(interval, density=parse(density))
    c = CurveSystem.from_texts(texts, interval)
    params, w = discretize_hull_point(c, m, integrate_system(m, c))
    assert 0 < params.size <= 400 and np.all(w > 0)
