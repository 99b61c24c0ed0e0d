import math

import numpy as np
import pytest

from exactquad import synth
from exactquad.errors import DiscretizationError, ExactQuadError
from exactquad.expr import parse
from exactquad.hull import CurveSystem
from exactquad.measure import (
    IntervalSpec,
    MeasureSpec,
    density_cell_masses,
    integrate_system,
    measure_from_json,
    total_mass,
)
from exactquad.synth import (
    affine_rank,
    config_from_json,
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


def curve(*texts, interval=IntervalSpec(0, 1)):
    return CurveSystem.from_texts(texts, interval)


class TestAffineRank:
    def test_explicit_affine_relation(self):
        report = affine_rank(curve("t", "2*t+3"), UNIT)
        assert report.rank == 1
        assert report.independent_indices == (0,)
        coef, intercept = report.dependency_coefficients[1]
        assert coef == pytest.approx([2.0], abs=1e-9)
        assert intercept == pytest.approx(3.0, abs=1e-9)
        assert report.residual_of_fit <= 1e-8

    def test_moment_curve_full_rank(self):
        assert affine_rank(curve("t", "t^2"), UNIT).rank == 2

    def test_constant_is_rank_zero(self):
        assert affine_rank(curve("1"), UNIT).rank == 0

    def test_rank_uses_measure_support(self):
        # the functions agree on the two atoms, so the measure sees rank 1
        atoms = MeasureSpec(IntervalSpec(0, 1), atoms=((0.0, 0.5), (1.0, 0.5)))
        report = affine_rank(curve("t", "t^2"), atoms)
        assert report.rank == 1


class TestDiscretize:
    def test_left_endpoint_bias_corrected(self):
        c = curve("t")
        j = integrate_system(UNIT, c)
        # raw left-endpoint cell sum on a 4-cell grid, computed by hand:
        # cells carry mass 1/4 each, left points (0, 1/4, 1/2, 3/4)
        edges = np.linspace(0, 1, 5)
        raw_masses = density_cell_masses(UNIT, edges)
        raw_sum = float(raw_masses @ edges[:-1])
        assert raw_sum == pytest.approx(0.375, abs=1e-12)
        params, w = discretize_hull_point(c, UNIT, j, 4)
        recon = w @ c.evaluate(params)
        assert recon[0] == pytest.approx(0.5, abs=1e-11)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-11)
        assert np.all(w >= 0)

    def test_constant_system_exact_any_grid(self):
        c = curve("1")
        j = integrate_system(UNIT, c)
        params, w = discretize_hull_point(c, UNIT, j, 8)
        assert (w @ c.evaluate(params))[0] == pytest.approx(1.0, abs=1e-12)

    def test_pure_atom_measure_uses_atom_locations(self):
        atoms = MeasureSpec(IntervalSpec(0, 1), atoms=((0.25, 0.5), (0.75, 1.5)))
        c = curve("t", "t^2")
        j = integrate_system(atoms, c)
        params, w = discretize_hull_point(c, atoms, j, 8)
        assert list(params) == [0.25, 0.75]
        assert w == pytest.approx([0.5, 1.5], rel=1e-12)

    @pytest.mark.parametrize("n", [11, 12])
    def test_monomials_hold_on_the_first_grid(self, n):
        # cond ~ 1e8 here: a correction through the normal equations
        # squares it and misses the gate on this feasible grid
        c = curve(*[f"t^{k}" for k in range(1, n + 1)])
        j = integrate_system(UNIT, c, 1e-12)
        params, w = discretize_hull_point(c, UNIT, j, 128)
        assert params.size == 128
        assert np.all(w >= 0)
        assert w @ c.evaluate(params) == pytest.approx(j.values, abs=1e-10)

    def test_correction_on_ill_conditioned_monomials(self):
        k = np.arange(1, 12)
        t = np.linspace(0, 1, 129)[:-1]
        x = t[:, None] ** k
        target = 1.0 / (k + 1.0)  # moments of the uniform measure on [0, 1]
        a = np.vstack([(x - target).T, np.ones(t.size)])
        assert np.linalg.cond(a) >= 1e7
        w, ok = synth._nonneg_correction(x, np.full(t.size, 1 / t.size), target)
        gap = np.append(w @ x - target * w.sum(), w.sum() - 1.0)
        assert ok
        assert np.max(np.abs(gap)) <= synth.CORRECTION_TOL * (1.0 + target.max())
        assert np.all(w >= 0)

    def test_unreachable_target_fails_at_cap(self, monkeypatch):
        monkeypatch.setattr(synth, "GRID_CAP", 512)  # fail fast
        with pytest.raises(DiscretizationError):
            discretize_hull_point(curve("t"), UNIT, np.array([2.0]), 8)


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

    def test_gaussian_moments_within_a_smaller_grid_cap(self, monkeypatch):
        # the target is feasible on the first 128 cells of the window, and
        # the least-squares correction finds it there: no doubling
        monkeypatch.setattr(synth, "GRID_CAP", 128)
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

    def test_heavy_tail_support_loss_is_typed(self):
        # the prune can eliminate every support point of this measure; that
        # must surface as a library error, not an arithmetic crash
        m = MeasureSpec(IntervalSpec(-math.inf, math.inf),
                        density=parse("(1+t^2)^-2"))
        with pytest.raises(ExactQuadError):
            synthesize_rule(curve("t", "t^2", interval=m.interval), m)


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

    def test_config_from_json_rejects_unknown(self):
        with pytest.raises(Exception):
            config_from_json({"nope": 1})
        cfg = config_from_json({"tol": 1e-9, "grid0": 64})
        assert cfg.tol == 1e-9 and cfg.grid0 == 64
