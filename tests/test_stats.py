import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exactquad import measure, stats
from exactquad.errors import (
    MomentDivergenceError,
    SchemaError,
    UnboundedFunctionError,
    WeightNormalizationError,
)
from exactquad.expr import Expression, evaluate_columns, parse
from exactquad.measure import IntervalSpec, MeasureSpec
from exactquad.stats import (
    covariance,
    covariance_witness,
    gruss_check,
    gruss_discrete,
)

UNIT = MeasureSpec(IntervalSpec(0, 1), density=parse("1"))
T = parse("t")
T2 = parse("t^2")


class TestCovariance:
    def test_variance_of_uniform(self):
        # closed form: E t^2 - (E t)^2 = 1/3 - 1/4
        assert covariance(T, T, UNIT) == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_constant_gives_zero(self):
        assert covariance(parse("5"), T, UNIT) == pytest.approx(0.0, abs=1e-12)

    def test_t_and_t_squared(self):
        # closed form: E t^3 - E t E t^2 = 1/4 - 1/6
        assert covariance(T, T2, UNIT) == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_symmetry(self):
        f = parse("sin(2*t)+t")
        g = parse("exp(t)-t^2")
        assert covariance(f, g, UNIT) == pytest.approx(
            covariance(g, f, UNIT), abs=1e-12)

    def test_unnormalized_measure_is_normalized_internally(self):
        twice = MeasureSpec(IntervalSpec(0, 1), density=parse("2"))
        assert covariance(T, T, twice) == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_divergent_second_moment(self):
        m = MeasureSpec(IntervalSpec(0, 1, lower_open=True), density=parse("1"))
        with pytest.raises(MomentDivergenceError):
            covariance(parse("1/t"), T, m)


class TestCovarianceWitness:
    def test_uniform_identity_gap(self):
        # forced: (1/4)(t1 - t2)^2 = 1/12, so |t1 - t2| = 3^(-1/2)
        w = covariance_witness(T, T, UNIT)
        assert abs(w.t1 - w.t2) == pytest.approx(3.0 ** -0.5, abs=1e-6)
        assert w.product_gap == pytest.approx(w.covariance,
                                              abs=1e-8 * (1 + abs(w.covariance)))

    def test_constant_degenerate(self):
        w = covariance_witness(parse("5"), T, UNIT)
        assert w.t1 == w.t2
        assert w.product_gap == 0.0

    def test_t_and_t_squared_gap(self):
        # forced: (t1 - t2)(t1^2 - t2^2) = 4 Cov = 1/3
        w = covariance_witness(T, T2, UNIT)
        gap = (w.t1 - w.t2) * (w.t1 ** 2 - w.t2 ** 2)
        assert gap == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_witness_points_inside_interval(self):
        w = covariance_witness(T, T2, UNIT)
        assert 0.0 <= w.t1 <= 1.0 and 0.0 <= w.t2 <= 1.0

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a finite tol above MOMENT_TOL falls back to it; no malformed one does
        with pytest.raises(SchemaError, match="tol must be finite and > 0"):
            covariance_witness(T, T2, UNIT, tol)

    def test_two_atom_support(self):
        # two equal atoms are the lemma's equality case: their gap is
        # already 4 Cov, so the search ends at once on the atoms
        m = MeasureSpec(IntervalSpec(0, 1), atoms=((0.0, 0.5), (1.0, 0.5)))
        w = covariance_witness(T, T, m)
        assert w.covariance == pytest.approx(0.25, abs=1e-12)
        assert w.product_gap == pytest.approx(w.covariance, rel=1e-8)

    def test_single_atom_degenerate(self):
        m = MeasureSpec(IntervalSpec(0, 1), atoms=((0.3, 1.0),))
        w = covariance_witness(T, T2, m)
        assert w.t1 == w.t2
        assert w.covariance == pytest.approx(0.0, abs=1e-12)

    def test_swapped_arguments_stay_valid(self):
        w = covariance_witness(T2, T, UNIT)
        assert w.product_gap == pytest.approx(w.covariance,
                                              abs=1e-8 * (1 + abs(w.covariance)))

    def test_exponential_measure(self):
        m = MeasureSpec(IntervalSpec(0, math.inf), density=parse("exp(-t)"))
        w = covariance_witness(T, T, m)
        assert w.covariance == pytest.approx(1.0, abs=1e-8)
        assert w.product_gap == pytest.approx(w.covariance, rel=1e-8)

    def test_open_end_next_to_zero(self):
        # the continuity probe next to the open end 0 rounded onto t = 0,
        # where exp(-1/t) divides by zero
        m = MeasureSpec(IntervalSpec(0, 1, lower_open=True), density=parse("1"))
        w = covariance_witness(parse("exp(-1/t)"), T, m)
        assert 0.0 < w.t1 <= 1.0 and 0.0 < w.t2 <= 1.0
        assert w.product_gap == pytest.approx(w.covariance,
                                              abs=1e-8 * (1 + abs(w.covariance)))

    def test_randomized_witness_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a = float(rng.uniform(-1, 1))
            b = a + float(rng.uniform(0.5, 2.0))
            m = MeasureSpec(IntervalSpec(a, b),
                            density=parse(f"1+({float(rng.uniform(-1, 1))!r}*t)^2"))
            f = parse(f"{float(rng.uniform(-2, 2))!r}*t"
                      f"+{float(rng.uniform(-1, 1))!r}*t^2")
            g = parse(f"sin({float(rng.uniform(0.5, 2.0))!r}*t)"
                      f"+{float(rng.uniform(-1, 1))!r}*t")
            w = covariance_witness(f, g, m)
            assert w.product_gap == pytest.approx(
                w.covariance, abs=1e-8 * (1 + abs(w.covariance)))
            assert m.interval.contains(w.t1) and m.interval.contains(w.t2)

    def test_witness_search_takes_few_rounds(self, monkeypatch):
        # the nodes inside the widest pair seed a secant-centred first
        # round; an even first round took 4, even rounds alone took 6
        rounds = 0
        refine = stats.refine_bracket

        def counting(probe, *args):
            def counted(ts):
                nonlocal rounds
                rounds += 1
                return probe(ts)
            return refine(counted, *args)

        monkeypatch.setattr(stats, "refine_bracket", counting)
        w = covariance_witness(T, T2, UNIT)
        assert 1 <= rounds <= 3
        assert abs(w.product_gap - w.covariance) <= (
            1e-10 * (1 + abs(w.covariance)))

    def test_interior_nodes_seed_a_secant_round(self, monkeypatch):
        # the widest pair of sin(3t) + t and t^2 exp(-t) on [0, 2] holds
        # moments-pass nodes between its ends: the first that hits and the
        # node before it, with its score, bracket the search
        seeds = []
        refine = stats.refine_bracket

        def spying(probe, lo, hi, hi_g, hi_info, done, lo_g=None):
            seeds.append((lo, hi, lo_g))
            return refine(probe, lo, hi, hi_g, hi_info, done, lo_g)

        monkeypatch.setattr(stats, "refine_bracket", spying)
        w = covariance_witness(parse("sin(3*t)+t"), parse("t^2*exp(-t)"),
                               MeasureSpec(IntervalSpec(0, 2), density=parse("1")))
        (lo, hi, lo_g), = seeds
        assert w.t1 < lo < w.t2 <= hi
        assert lo_g is not None and lo_g < 0.0
        assert abs(w.product_gap - w.covariance) <= (
            1e-10 * (1 + abs(w.covariance)))

    def test_one_integration_pass(self, monkeypatch):
        # the bracket is the widest pair of the moments pass's own nodes,
        # which carry a discrete measure with the same covariance
        calls = 0
        integrals = measure._integrals

        def counting(*args):
            nonlocal calls
            calls += 1
            return integrals(*args)

        monkeypatch.setattr(measure, "_integrals", counting)
        w = covariance_witness(parse("sin(3*t)+t"), parse("t^2*exp(-t)"),
                               MeasureSpec(IntervalSpec(0, 2), density=parse("1")))
        assert calls == 1
        assert abs(w.product_gap - w.covariance) <= 1e-8 * (1 + abs(w.covariance))

    def test_refined_witness_is_tight(self):
        # the refinement stops within 1e-11 of 4 Cov, far inside the
        # witness's own 1e-8 acceptance check
        rng = np.random.default_rng(20260808)
        for _ in range(20):
            a = float(rng.uniform(-1, 1))
            b = a + float(rng.uniform(0.5, 2.0))
            m = MeasureSpec(IntervalSpec(a, b),
                            density=parse(f"({float(rng.uniform(-1, 1))!r}"
                                          f"+{float(rng.uniform(-1, 1))!r}*t)^2"
                                          f"+{float(rng.uniform(0.05, 1))!r}"))
            f = parse(f"{float(rng.uniform(-1.5, 1.5))!r}*t"
                      f"+{float(rng.uniform(-1.5, 1.5))!r}*t^3")
            g = parse(f"sin({float(rng.uniform(0.5, 2.0))!r}*t)"
                      f"+{float(rng.uniform(-1, 1))!r}*t^2")
            w = covariance_witness(f, g, m)
            assert abs(w.product_gap - w.covariance) <= (
                1e-10 * (1 + abs(w.covariance)))
            assert a <= w.t2 <= b

    @pytest.mark.parametrize("c", [1e6, 1e9])
    def test_witness_on_a_narrow_interval(self, c):
        # f = c t and g = f^2 under the uniform density on [0, 1/c], Cov =
        # 1/12 at any c.  A search that also stopped at a bracket 8 eps
        # wide in absolute units of t left a gap of 5.5e-11 at c = 1e6,
        # above tol_phi = 1.33e-11, and at c = 1e9 the walk of its
        # two-node rule was refused
        f = parse(f"{c!r}*t")
        m = MeasureSpec(IntervalSpec(0.0, 1.0 / c), density=parse("1"))
        w = covariance_witness(f, f * f, m)
        assert w.covariance == pytest.approx(1.0 / 12.0, rel=1e-9)
        tol_phi = 1e-11 * (1.0 + 4.0 * abs(w.covariance))
        assert abs(w.product_gap - w.covariance) <= tol_phi
        assert m.interval.contains(w.t1) and m.interval.contains(w.t2)

    def test_half_line_cubic_meets_the_identity(self):
        # a synthesized two-node rule for ((f - Ef)(g - Eg), f) missed its
        # target by 1.3e-9 here, above the prune's gate, and was refused
        f = parse("1.246393191371725+1.020506451475169*t^1"
                  "+-1.162782775522263*t^2+0.311337075950596*t^3")
        g = parse("sin(1.3920273057324177*t)+0.3185500132181265*t^2")
        m = MeasureSpec(IntervalSpec(0, math.inf),
                        density=parse("exp(-0.5760560829084058*t)"))
        w = covariance_witness(f, g, m)
        assert abs(w.product_gap - w.covariance) <= 1e-8 * (1 + abs(w.covariance))
        assert 0.0 <= w.t1 < w.t2


def _gap(u, v, i, j):
    return (u[i] - u[j]) * (v[i] - v[j])


_COORDS = st.one_of(
    st.integers(-3, 3).map(float),  # tied coordinates and repeated points
    st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def _clouds(draw):
    m = draw(st.integers(2, 80))
    if draw(st.booleans()):
        t = np.array(draw(st.lists(st.floats(0.0, 2.0 * math.pi),
                                   min_size=m, max_size=m)))
        return np.cos(t), np.sin(t)
    u, v = (np.array(draw(st.lists(_COORDS, min_size=m, max_size=m)))
            for _ in range(2))
    return u, v


def _first_widest(u, v):
    """The pair of the first maximum, in row-major order, of the full gap
    matrix of the two staircases."""
    upper, lower = stats._staircase(u, v), stats._staircase(-u, -v)[::-1]
    gap = (u[upper, None] - u[lower]) * (v[upper, None] - v[lower])
    i, j = np.unravel_index(gap.argmax(), gap.shape)
    return int(upper[i]), int(lower[j])


class TestWidestPair:
    @given(_clouds())
    def test_matches_brute_force(self, cloud):
        u, v = cloud
        i, j = stats._widest_pair(u, v)
        best = ((u[:, None] - u) * (v[:, None] - v)).max()
        assert _gap(u, v, i, j) == pytest.approx(best, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("per_point", [0, math.inf])
    @given(cloud=_clouds())
    def test_both_paths_pick_the_first_maximum(self, per_point, cloud):
        # per_point 0 forces the divide and conquer, inf the one batch
        u, v = cloud
        with mock.patch.object(stats, "_ONE_BATCH", per_point):
            assert stats._widest_pair(u, v) == _first_widest(u, v)

    def _path(self, monkeypatch, u, v):
        """``(pair, whether the divide and conquer ran)``."""
        runs = []
        best_columns = stats._best_columns
        monkeypatch.setattr(stats, "_best_columns",
                            lambda *args: runs.append(1) or best_columns(*args))
        return stats._widest_pair(u, v), bool(runs)

    def test_circle_takes_the_divide_and_conquer_path(self, monkeypatch):
        # 400 points on a circle: staircases of about 100 points each, a
        # product far above 4 entries per point
        t = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, 400)
        u, v = np.cos(t), np.sin(t)
        pair, divided = self._path(monkeypatch, u, v)
        assert divided
        assert pair == _first_widest(u, v)

    def test_small_staircases_take_one_batch(self, monkeypatch):
        # 30 points: 19 on a quarter circle form the upper staircase, the
        # origin alone the lower one, 19 entries against 4 * 30
        a = np.linspace(0.05, 0.5 * math.pi - 0.05, 19)
        inner = np.random.default_rng(7).uniform(0.2, 0.6, (10, 2))
        u = np.concatenate([np.cos(a), inner[:, 0], [0.0]])
        v = np.concatenate([np.sin(a), inner[:, 1], [0.0]])
        assert stats._staircase(u, v).size == 19
        pair, divided = self._path(monkeypatch, u, v)
        assert not divided
        assert pair == _first_widest(u, v)

    @given(_clouds(), st.data())
    def test_gap_covers_four_covariances(self, cloud, data):
        # the lemma: max_ij (u_i - u_j)(v_i - v_j) >= 4 Cov_p for every
        # probability p, and with -v for Cov_p < 0
        u, v = cloud
        p = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=u.size,
                                        max_size=u.size)))
        if p.sum() == 0.0:
            p[0] = 1.0
        p /= p.sum()
        cov = p @ (u * v) - (p @ u) * (p @ v)
        rounding = 1e-12 * (1.0 + np.abs(u).max() * np.abs(v).max())
        assert _gap(u, v, *stats._widest_pair(u, v)) >= 4.0 * cov - rounding
        assert _gap(u, -v, *stats._widest_pair(u, -v)) >= -4.0 * cov - rounding

    def test_large_circle_builds_no_square_array(self):
        # 1e5 points: a 1e5 x 1e5 gap matrix would take 80 GB, the
        # staircases hold about 25000 points each
        t = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
        u, v = np.cos(t), np.sin(t)
        tracemalloc.start()
        try:
            i, j = stats._widest_pair(u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        # the largest gap on the unit circle is 2 sin^2(pi/2) at a + b = -pi/2
        assert _gap(u, v, i, j) == pytest.approx(2.0, rel=1e-12)


_UNIT_COEF = st.floats(-1.0, 1.0)


@st.composite
def _gruss_pairs(draw):
    """``(f, g, lo, hi)`` of the ``stats`` corpus's ``gruss`` families:
    sin(a t) + b t and a polynomial of degree 0 to 3, on [lo, hi] 0.5 to 2
    wide."""
    f = f"sin({draw(st.floats(0.5, 3.0))!r}*t)+{draw(_UNIT_COEF)!r}*t"
    coefs = draw(st.lists(_UNIT_COEF, min_size=1, max_size=4))
    g = "+".join([repr(coefs[0])] + [f"{c!r}*t^{p}" for p, c in enumerate(coefs[1:], 1)])
    lo = draw(_UNIT_COEF)
    return f, g, lo, lo + draw(st.floats(0.5, 2.0))


class TestGrussContinuous:
    def test_uniform_slack(self):
        r = gruss_check(T, T, UNIT)
        assert r.bound == pytest.approx(0.25, abs=1e-9)
        assert r.slack == pytest.approx(0.25 - 1.0 / 12.0, abs=1e-9)

    def test_constant_function(self):
        r = gruss_check(parse("3"), T, UNIT)
        assert r.covariance == pytest.approx(0.0, abs=1e-12)
        assert r.slack == pytest.approx(r.bound, abs=1e-12)

    def test_constant_g_reads_zero_covariance(self):
        # E fg - E f E g rounds to -4.2e-17 here, above the bound 0, so a
        # covariance within rounding of its terms reads 0
        m = MeasureSpec(IntervalSpec(-0.5, 1.0), density=parse("1"))
        f, g = parse("sin(2*t)+0.3*t"), parse("0.3")
        assert covariance(f, g, m) == 0.0
        r = gruss_check(f, g, m)
        assert (r.covariance, r.bound, r.slack) == (0.0, 0.0, 0.0)

    def test_small_covariance_is_kept(self):
        # Cov(t, 1e-9 t) = 1e-9 / 12 is far above the rounding of its terms
        assert covariance(T, parse("1e-9*t"), UNIT) == pytest.approx(
            1e-9 / 12.0, rel=1e-8)

    def test_sign_flip(self):
        r = gruss_check(T, parse("-t"), UNIT)
        assert r.covariance == pytest.approx(-1.0 / 12.0, abs=1e-10)
        assert r.bound == pytest.approx(0.25, abs=1e-9)
        assert r.slack > 0

    def test_extrema_found_inside(self):
        r = gruss_check(parse("sin(pi*t)"), T, UNIT)
        assert r.M_f == pytest.approx(1.0, abs=1e-9)
        assert r.m_f == pytest.approx(0.0, abs=1e-12)

    def test_atoms_join_the_extrema_scan(self):
        # the peak of f sits at an atom off the scan grid: scanned with the
        # atoms it is exact, while the refinement alone stops 6.3e-13 short
        f = parse("-abs(t-0.3141592)")
        with_atom = MeasureSpec(IntervalSpec(0, 1), density=parse("1"),
                                atoms=((0.3141592, 0.5),))
        assert gruss_check(f, T, with_atom).M_f == 0.0
        assert -1e-12 < gruss_check(f, T, UNIT).M_f < 0.0

    def test_extrema_make_no_scalar_calls(self, monkeypatch):
        # the moments pass, the scan and each refinement round evaluate
        # (f, g) as one batch: about 5 rounds reach the 1e-10 cell width
        scalar = arrays = 0
        call = Expression.__call__

        def counted_call(expr, t):
            nonlocal scalar, arrays
            if np.ndim(t):
                arrays += 1
            else:
                scalar += 1
            return call(expr, t)

        def counted(columns):
            def wrapper(exprs, ts, **kwargs):
                nonlocal arrays
                arrays += 1
                return columns(exprs, ts, **kwargs)
            return wrapper

        monkeypatch.setattr(Expression, "__call__", counted_call)
        for module in (stats, measure):
            monkeypatch.setattr(module, "evaluate_columns",
                                counted(module.evaluate_columns))
        m = MeasureSpec(IntervalSpec(0, 2), density=parse("1"))
        r = gruss_check(parse("sin(3*t)+t"), parse("t^2*exp(-t)"), m)
        assert scalar == 0
        assert arrays <= 16
        assert r.M_g == pytest.approx(4.0 * math.exp(-2.0), rel=1e-12)

    def test_scopes_share_cells_on_the_line(self, monkeypatch):
        # (sin t, cos t) under exp(-t^2) on R: the six scopes find the same
        # centre peaks, so 10 distinct cells are refined, not 24 (12678
        # points when each scope refined its own)
        points = 0
        columns = stats.evaluate_columns

        def counted(fns, ts, **kwargs):
            nonlocal points
            points += np.size(ts)
            return columns(fns, ts, **kwargs)

        monkeypatch.setattr(stats, "evaluate_columns", counted)
        m = MeasureSpec(IntervalSpec(-math.inf, math.inf), density=parse("exp(-t^2)"))
        fns = (parse("sin(t)"), parse("cos(t)"))
        assert stats._extrema(fns, m) == [-1.0, 1.0, -1.0, 1.0]
        assert points <= 8000

    def test_an_empty_scope_starts_from_no_value(self):
        # exp(10000 t^2) overflows past 3 nodes of the line's u-grid, so the
        # scan runs between the outer two and no scan point lies in the
        # scope without their grid steps
        m = MeasureSpec(IntervalSpec(-math.inf, math.inf), density=parse("exp(-t^2)"))
        low, high = stats._extrema((parse("exp(10000*t^2)"),), m)
        assert low == 1.0
        assert 3.1e170 < high < 3.2e170  # exp(10000 t^2) at the outer nodes

    @settings(deadline=None)
    @given(_gruss_pairs())
    def test_extrema_match_a_dense_evaluation(self, problem):
        # each extremum is at least as extreme as the 4096-point scan and
        # within 1e-9 (1 + |v|) of a 65536-point evaluation
        f, g, lo, hi = problem
        fns = (parse(f), parse(g))
        got = stats._extrema(fns, MeasureSpec(IntervalSpec(lo, hi), density=parse("1")))
        scan = evaluate_columns(fns, np.linspace(lo, hi, 4096))
        dense = evaluate_columns(fns, np.linspace(lo, hi, 65536))
        for k in range(2):
            low, high = got[2 * k], got[2 * k + 1]
            assert low <= scan[:, k].min() and high >= scan[:, k].max()
            for v, d in ((low, dense[:, k].min()), (high, dense[:, k].max())):
                assert abs(v - d) <= 1e-9 * (1.0 + abs(v))

    def test_interior_maximum(self):
        # f' = 3 cos(3t) + 1 vanishes where cos(3t) = -1/3
        r = gruss_check(parse("sin(3*t)+t"), T,
                        MeasureSpec(IntervalSpec(0, 1.2), density=parse("1")))
        exact = math.sqrt(8.0) / 3.0 + math.acos(-1.0 / 3.0) / 3.0
        assert r.M_f == pytest.approx(exact, rel=1e-12)

    def test_extremum_at_an_endpoint_is_exact(self):
        # t^2 - t on [0, 1.5]: the maximum 0.75 sits at the upper end, the
        # minimum -1/4 inside at t = 1/2
        r = gruss_check(parse("t^2-t"), T,
                        MeasureSpec(IntervalSpec(0, 1.5), density=parse("1")))
        assert r.M_f == 0.75
        assert r.m_f == pytest.approx(-0.25, rel=1e-15)
        assert (r.m_g, r.M_g) == (0.0, 1.5)

    def test_unbounded_function_rejected(self):
        m = MeasureSpec(IntervalSpec(0, math.inf), density=parse("exp(-t)"))
        with pytest.raises(UnboundedFunctionError):
            gruss_check(T, T, m)

    def test_bounded_on_infinite_interval(self):
        m = MeasureSpec(IntervalSpec(0, math.inf), density=parse("exp(-t)"))
        r = gruss_check(parse("exp(-t)"), parse("1/(1+t)"), m)
        assert r.slack >= -1e-9 * (1 + r.bound)
        assert 0.0 <= r.M_f <= 1.0 + 1e-12

    @pytest.mark.parametrize("f, interval, density, low, high, tol", [
        ("t^0.5", IntervalSpec(0, 1, lower_open=True), "1", 0.0, 1.0, 1e-10),
        ("t^0.25", IntervalSpec(0, 1, True, True), "1", 0.0, 1.0, 1e-10),
        ("(1+t)^-0.5", IntervalSpec(0, math.inf), "exp(-t)", 0.0, 1.0, 1e-10),
        ("(1+abs(t))^-0.1", IntervalSpec(-math.inf, math.inf), "exp(-t^2/2)",
         0.0, 1.0, 1e-10),
        # the infimum is the limit at infinity, not a value at a large t
        ("1/(1+t)", IntervalSpec(0, math.inf), "exp(-t)", 0.0, 1.0, 1e-12),
        # reads 0 where t^2 overflows, which is no limit: the maximum 5/4
        # sits at t = 3^-1/2 and the infimum 1 at t = 0 and at infinity
        ("t*(1+t^2)^-0.5+1/(1+t^2)", IntervalSpec(0, math.inf), "exp(-t)",
         1.0, 1.25, 1e-10),
        # inf * 0 far out is no value: the maximum 4/e^2 sits at t = 2
        ("t^2*exp(-t)", IntervalSpec(0, math.inf), "exp(-t)",
         0.0, 4.0 * math.exp(-2.0), 1e-10),
        # far out the scan meets sin at random phases that can beat the
        # scan near the centre but cannot be refined: the centre's own
        # cells reach +-1
        ("sin(t)", IntervalSpec(-math.inf, math.inf), "exp(-t^2/2)",
         -1.0, 1.0, 1e-12),
        ("cos(3*t)", IntervalSpec(0, math.inf), "exp(-t)", -1.0, 1.0, 1e-12),
    ], ids=["sqrt-open-0", "quarter-power-open", "half-line-decay",
            "line-decay", "reciprocal-half-line", "overflow-on-the-way",
            "inf-times-zero", "sine-line", "cosine-half-line"])
    def test_limits_at_open_ends(self, f, interval, density, low, high, tol):
        # a bounded function's extremum at an open end is its limit there
        m = MeasureSpec(interval, density=parse(density))
        r = gruss_check(parse(f), parse(f), m)
        assert abs(r.m_f - low) <= tol and abs(r.M_f - high) <= tol

    @pytest.mark.parametrize("f, interval, density", [
        ("log(1+t)", IntervalSpec(0, math.inf), "exp(-t)"),
        # bounded, but at t = 6e-276 t^0.01 is still 1.8e-3 and not settled
        ("t^0.01", IntervalSpec(0, 1, lower_open=True), "1"),
        # far out the scan meets sin at random phases, so the extrema lie
        # inside the scan, but the last grid step still raises them
        ("sin(t)*log(1+t)", IntervalSpec(0, math.inf), "exp(-t)"),
        # grows at both ends: each end's last step is measured against the
        # scan without the last step at either end
        ("sin(t)*t", IntervalSpec(-math.inf, math.inf), "exp(-t^2/2)"),
    ], ids=["log-half-line", "hundredth-power-open-0", "oscillating-log-growth",
            "oscillating-growth-at-both-ends"])
    def test_unsettled_limits_are_refused(self, f, interval, density):
        m = MeasureSpec(interval, density=parse(density))
        with pytest.raises(UnboundedFunctionError,
                           match="unbounded towards t = .* cannot be resolved"):
            gruss_check(parse(f), parse(f), m)

    def test_underflowed_denominator_is_no_limit(self):
        # exp(-1/t)/t^2 is 0/0, nan, below t = 1e-162, where both parts
        # underflow: the scan ends inside, and the maximum 4/e^2 sits at 1/2
        m = MeasureSpec(IntervalSpec(0, 1, lower_open=True), density=parse("1"))
        low, high = stats._extrema((parse("exp(-1/t)/t^2"),), m)
        assert 0.0 <= low <= 1e-12 and abs(high - 4.0 * math.exp(-2.0)) <= 1e-12


class TestGrussDiscrete:
    def test_equality_case_is_tight(self):
        r = gruss_discrete([0.5, 0.5], [0, 1], [0, 1])
        assert abs(r.covariance) == 0.25
        assert r.bound == 0.25
        assert r.slack == 0.0

    def test_constant_sequence(self):
        r = gruss_discrete([0.25, 0.25, 0.5], [3, 3, 3], [1, 2, 0])
        assert r.covariance == 0.0

    def test_three_point_example(self):
        # direct arithmetic: sum p u v = 1/3, sum p u = sum p v = 1,
        # so the left side is |1/3 - 1| = 2/3 against a bound of 1
        r = gruss_discrete([1 / 3, 1 / 3, 1 / 3], [0, 1, 2], [2, 1, 0])
        assert abs(r.covariance) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert r.bound == pytest.approx(1.0)
        assert r.slack >= 0

    def test_weight_validation(self):
        with pytest.raises(WeightNormalizationError):
            gruss_discrete([0.5, 0.6], [0, 1], [0, 1])
        with pytest.raises(WeightNormalizationError):
            gruss_discrete([1.5, -0.5], [0, 1], [0, 1])
        with pytest.raises(WeightNormalizationError):
            gruss_discrete([math.nan], [0], [0])

    @pytest.mark.parametrize("p, u, v", [
        ([1.0], [1e308], [1e308]),                     # the product moment
        ([0.5, 0.5], [-1.7e308, 1.7e308], [0, 1]),     # the bound's range
        ([0.5, 0.5], [1e308, -1e308], [1e308, 1e308]),  # inf - inf in a sum
    ], ids=["moment", "bound", "opposite-infinities"])
    def test_overflow_is_moment_divergence(self, p, u, v):
        with pytest.raises(MomentDivergenceError):
            gruss_discrete(p, u, v)

    def test_randomized_bound_holds(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            k = int(rng.integers(2, 30))
            p = rng.uniform(0, 1, k)
            p /= math.fsum(p)
            u = rng.uniform(-5, 5, k)
            v = rng.uniform(-5, 5, k)
            r = gruss_discrete(p, u, v)
            assert r.slack >= -1e-9 * (1 + r.bound)
