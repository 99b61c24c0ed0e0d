import itertools
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exactquad.errors import (
    EvalDomainError,
    InfeasibleCombinationError,
    SchemaError,
)
from exactquad.hull import (
    RANK_TOL,
    RECON_TOL,
    ZERO_TOL,
    ConvexCombination,
    CurveSystem,
    _first_zero_crossing,
    _walk_frame,
    caratheodory_finite,
    merge_coincident,
    polish_combination,
    reduce_on_curve,
    residual,
)
from exactquad import hull
from exactquad.expr import parse
from exactquad.measure import (
    IntervalSpec,
    MeasureSpec,
    integrate_system,
    measure_from_json,
)
from exactquad.synth import (
    VERIFY_TOL,
    QuadratureRule,
    affine_rank,
    synthesize_rule,
    verify_rule,
)

# the benchmark's problem generators, imported read-only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

sys.path.pop(0)


def _trace_shifts(monkeypatch):
    """The names of the functions that call ``hull._shift_to_zero``, one
    per call, in call order."""
    callers = []
    shift = hull._shift_to_zero

    def traced(w, c):
        callers.append(sys._getframe(1).f_code.co_name)
        return shift(w, c)

    monkeypatch.setattr(hull, "_shift_to_zero", traced)
    return callers


def reconstruction_gap(comb, params, pts, target):
    """Largest miss of a pruned combination, relative to 1 + |target|."""
    kept = np.searchsorted(params, comb.params)
    recon = comb.weights @ pts[kept] / comb.total
    return np.max(np.abs(recon - target)) / (1 + np.max(np.abs(target)))


def _curve_points(ts, n):
    """Monomials and cosines of ``ts``: a curve like the ones synthesis prunes."""
    return np.column_stack([ts ** (k // 2 + 1) if k % 2 == 0
                            else np.cos((k // 2 + 1) * ts) for k in range(n)])


class TestConvexCombination:
    def test_validates_monotone_params(self):
        with pytest.raises(SchemaError):
            ConvexCombination(params=np.array([0.5, 0.5]),
                              weights=np.array([0.5, 0.5]), total=1.0)

    def test_validates_weight_sum(self):
        with pytest.raises(SchemaError):
            ConvexCombination(params=np.array([0.0, 1.0]),
                              weights=np.array([0.5, 0.6]), total=1.0)

    def test_clips_roundoff_negatives(self):
        comb = ConvexCombination(params=np.array([0.0, 1.0]),
                                 weights=np.array([1.0, -1e-13]), total=1.0)
        assert comb.weights[1] == 0.0


class TestCaratheodoryFinite:
    def test_square_center(self):
        pts = np.array([[0., 0.], [1., 0.], [0., 1.], [1., 1.]])
        target = np.array([0.5, 0.5])
        comb = caratheodory_finite(pts, np.full(4, 0.25), target)
        assert len(comb) <= 3
        kept = comb.params.astype(int)
        recon = comb.weights @ pts[kept] / comb.total
        assert np.max(np.abs(recon - target)) <= 1e-9 * 1.5
        # oracle: brute force over 3-subsets confirms a feasible triple exists
        feasible = False
        for subset in itertools.combinations(range(4), 3):
            a = np.vstack([pts[list(subset)].T, np.ones(3)])
            try:
                w = np.linalg.solve(a, np.array([0.5, 0.5, 1.0]))
            except np.linalg.LinAlgError:
                continue
            if np.all(w >= -1e-12):
                feasible = True
        assert feasible

    def test_identity_single_point(self):
        pts = np.array([[0.3, 0.7]])
        comb = caratheodory_finite(pts, np.array([1.0]), pts[0])
        assert len(comb) == 1 and comb.weights[0] == pytest.approx(1.0)

    def test_collinear_reduces_to_pair(self):
        pts = np.array([[i, 2.0 * i] for i in range(5)], dtype=float)
        w = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
        target = w @ pts / w.sum()
        comb = caratheodory_finite(pts, w, target)
        assert len(comb) <= 2
        kept = comb.params.astype(int)
        recon = comb.weights @ pts[kept] / comb.total
        assert np.max(np.abs(recon - target)) <= 1e-9 * (1 + np.max(np.abs(target)))
        # oracle: the 1-d affine hull admits a reproducing pair
        best = math.inf
        for i, j in itertools.combinations(range(5), 2):
            a = np.vstack([pts[[i, j]].T, np.ones(2)])
            wij, res, *_ = np.linalg.lstsq(a, np.array([*target, 1.0]), rcond=None)
            if np.all(wij >= -1e-12):
                best = min(best, np.max(np.abs(a @ wij - np.array([*target, 1.0]))))
        assert best <= 1e-9

    def test_large_input_prunes(self):
        rng = np.random.default_rng(3)
        ts = np.linspace(0, 1, 500)
        pts = np.column_stack([ts, ts**2, np.sin(ts)])
        w = rng.uniform(0.1, 1.0, 500)
        target = w @ pts / w.sum()
        comb = caratheodory_finite(pts, w, target, params=ts)
        assert len(comb) <= 4
        assert np.all(np.diff(comb.params) > 0)

    def test_unsorted_params_come_out_sorted(self):
        rng = np.random.default_rng(4)
        ts = rng.permutation(np.linspace(0, 1, 50))
        pts = np.column_stack([ts, ts**2])
        w = rng.uniform(0.1, 1.0, 50)
        comb = caratheodory_finite(pts, w, w @ pts / w.sum(), params=ts)
        assert len(comb) <= 3 and np.all(np.diff(comb.params) > 0)
        assert np.isin(comb.params, ts).all()

    def test_infeasible_input_rejected(self):
        pts = np.array([[0.0], [1.0]])
        with pytest.raises(InfeasibleCombinationError):
            caratheodory_finite(pts, np.array([0.5, 0.5]), np.array([2.0]))

    def test_target_of_another_dimension_rejected(self):
        # a 1-element target must not broadcast over two columns
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SchemaError, match="target has shape"):
            caratheodory_finite(pts, np.full(4, 0.25), np.array([0.5]))

    def test_nan_target_rejected(self):
        # a NaN miss compares false against the gate, so it must not pass
        pts = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(InfeasibleCombinationError):
            caratheodory_finite(pts, np.full(3, 1 / 3), np.array([math.nan]))

    def test_weight_total_conserved(self):
        pts = np.array([[0., 0.], [1., 0.], [0., 1.], [1., 1.]])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        comb = caratheodory_finite(pts, w, w @ pts / w.sum())
        assert math.fsum(comb.weights) == pytest.approx(10.0, rel=1e-12)

    def test_one_svd_per_round(self, monkeypatch):
        # each merge round and the final elimination factorize once and
        # update the null-space basis; one SVD per eliminated point made
        # 67 calls here
        ts = np.linspace(0.0, 1.0, 4096)
        pts = _curve_points(ts, 6)
        w = np.random.default_rng(5).uniform(0.1, 1.0, ts.size)
        # a round keeps at most n+1 of its 2(n+1) contiguous clusters
        rounds, active = 0, ts.size
        while active > 14:
            rounds, active = rounds + 1, 7 * -(-active // 14)
        calls = 0
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        comb = caratheodory_finite(pts, w, w @ pts / w.sum(), params=ts)
        assert len(comb) <= 7
        # the rounds and the final elimination, which also reads the rank
        assert calls <= rounds + 1

    def test_grid_scale_prune(self):
        # a 131072-cell grid with 12 functions, the size grid doubling reaches
        ts = np.linspace(0.0, 1.0, 2**17)
        pts = _curve_points(ts, 12)
        w = np.random.default_rng(5).uniform(0.1, 1.0, ts.size)
        target = w @ pts / w.sum()
        comb = caratheodory_finite(pts, w, target, params=ts)
        assert len(comb) <= 13
        assert reconstruction_gap(comb, ts, pts, target) <= RECON_TOL


def _degenerate_points(rng, kind, m, n):
    """Points whose [points - target; 1] may have rank below n+1.

    Returns ``(points, d)``, d a bound on the dimension of their affine hull.
    """
    if kind == "repeated":
        # m draws from a few distinct points
        base = rng.normal(size=(int(rng.integers(1, n + 3)), n))
        return base[rng.integers(base.shape[0], size=m)], base.shape[0] - 1
    # an affine subspace of dimension d < n, possibly a single point
    d = int(rng.integers(0, n))
    pts = rng.normal(size=(m, d)) @ rng.normal(size=(d, n)) + rng.normal(size=n)
    return pts, d


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 2000), n=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["generic", "curve", "repeated", "subspace"]))
def test_caratheodory_properties(m, n, seed, kind):
    rng = np.random.default_rng(seed)
    params = np.cumsum(rng.uniform(0.1, 1.0, m))
    params /= params[-1]
    dim = n
    if kind == "generic":
        pts = rng.normal(size=(m, n))
    elif kind == "curve":
        pts = _curve_points(params, n)
    else:
        pts, dim = _degenerate_points(rng, kind, m, n)
    w = rng.uniform(0.0, 1.0, m)
    w[rng.random(m) < 0.1] = 0.0
    w[rng.integers(m)] += 0.5
    total = math.fsum(w)
    target = w @ pts / total
    comb = caratheodory_finite(pts, w, target, params=params)
    # the support follows the affine dimension of the points
    assert len(comb) <= min(dim, n) + 1
    assert np.all(np.diff(comb.params) > 0)
    assert np.all(np.isin(comb.params, params))
    assert abs(math.fsum(comb.weights) - total) <= 1e-12 * total
    assert reconstruction_gap(comb, params, pts, target) <= RECON_TOL


def _frame_solve(points, v, i, x):
    """Frame coordinates of the rows ``x`` by one ``np.linalg.solve`` on the
    frame's basis, the columns points[j] - v for j != i, and its condition."""
    basis = (np.delete(points, i, axis=0) - v).T
    return np.linalg.solve(basis, (x - v).T).T, np.linalg.cond(basis)


def _support(rng, n):
    """n+1 random points of R^n, positive weights summing to 1, their mean."""
    points = rng.standard_normal((n + 1, n))
    lam = rng.uniform(0.05, 1.0, n + 1)
    lam /= lam.sum()
    return points, lam, lam @ points


class TestFrame:
    def test_identity_frame(self):
        # v = 0 is the mean of (-1, -1), (1, 0) and (0, 1): the frame
        # without the first point is the identity
        points = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        i, frame, _ = _walk_frame(points, np.zeros(2))
        assert i == 0
        assert np.abs(frame - np.eye(2)).max() <= 1e-14
        x = np.array([0.3, 0.7])
        assert x @ frame == pytest.approx([0.3, 0.7], abs=1e-14)

    def test_shifted_frame(self):
        # v = (1, 1) is the mean of the origin, (2, 1) and (1, 2): the
        # origin lies at -1 times each basis vector (1, 0), (0, 1) from v
        points = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 2.0]])
        v = np.array([1.0, 1.0])
        i, frame, _ = _walk_frame(points, v)
        assert i == 0
        assert (np.zeros(2) - v) @ frame == pytest.approx([-1.0, -1.0])

    def test_rank_deficiency(self):
        # three points of a line in R^2: [points - v; 1] is singular, so
        # there is no frame, and the shift's vector is in its null space
        points = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        i, frame, null = _walk_frame(points, points.mean(axis=0))
        assert i is None and frame is None
        a = np.vstack([(points - points.mean(axis=0)).T, np.ones(3)])
        assert np.abs(a @ null).max() <= 1e-14

    def test_basis_point_coordinates(self):
        # each basis point maps to its unit row, and point i to the
        # negated weight ratios -lam_j / lam_i
        rng = np.random.default_rng(1)
        for n in (1, 2, 5, 9):
            points, lam, v = _support(rng, n)
            i, frame, _ = _walk_frame(points, v)
            assert i == 0
            others = np.arange(n + 1) != i
            assert np.abs((points[others] - v) @ frame - np.eye(n)).max() <= 1e-12
            assert ((points[i] - v) @ frame
                    == pytest.approx(-lam[others] / lam[i], rel=1e-10))

    def test_first_support_point_coords_are_negative_weight_ratios(self):
        # with v = sum(nu_j x(t_j)), the coordinates of x(t_0) - v in the
        # frame of x(t_1)..x(t_n) equal -nu_j / nu_0
        curve = CurveSystem.from_texts(["t", "t^2"], IntervalSpec(0, 1))
        ts = np.array([0.1, 0.4, 0.9])
        nu = np.array([0.25, 0.35, 0.40])
        x = curve.evaluate(ts)
        v = nu @ x
        i, frame, _ = _walk_frame(x, v)
        p0 = (x[0] - v) @ frame
        assert i == 0
        assert p0 == pytest.approx(-nu[1:] / nu[0], rel=1e-9)
        assert np.all(p0 < 0)

    def test_light_points_are_not_walked(self):
        # the walk starts at the first point below n with more than
        # RANK_TOL of the largest weight; with none, there is no frame
        curve = CurveSystem.from_texts(["t", "t^2", "t^3"], IntervalSpec(0, 1))
        x = curve.evaluate(np.array([0.1, 0.4, 0.6, 0.9]))
        for lam, want in (([1e-11, 0.3, 0.3, 0.4], 1),
                          ([1e-11, 1e-12, 0.5, 0.5], 2),
                          ([1e-12, 1e-12, 1e-12, 1.0], None)):
            i, frame, _ = _walk_frame(x, np.array(lam) @ x)
            assert i == want and (frame is None) == (want is None)

    def test_batched_coords(self):
        rng = np.random.default_rng(3)
        points, _, v = _support(rng, 5)
        _, frame, _ = _walk_frame(points, v)
        batch = rng.standard_normal((7, 5))
        single = np.array([(x - v) @ frame for x in batch])
        assert np.max(np.abs((batch - v) @ frame - single)) <= 1e-12

    def test_batched_coords_match_single_solves(self):
        # the frame agrees with one solve per frame, as the walk did with
        # its basis, within the basis's condition number
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            points, _, v = _support(rng, n)
            i, frame, _ = _walk_frame(points, v)
            x = rng.standard_normal((7, n))
            want, cond = _frame_solve(points, v, i, x)
            scale = max(1.0, np.abs(want).max())
            assert np.abs((x - v) @ frame - want).max() <= 1e-12 * cond * scale

    def test_random_wide_frame_solves_within_its_condition(self):
        # basis @ p reproduces x - v, and each basis point maps to its unit
        # row, both to within a backward-stable solve's cond * eps
        n = 12
        rng = np.random.default_rng(0)
        points, _, v = _support(rng, n)
        i, frame, _ = _walk_frame(points, v)
        basis = (np.delete(points, i, axis=0) - v).T
        bound = 16 * n * np.finfo(float).eps * np.linalg.cond(basis)
        x = rng.standard_normal((63, n))
        y = x - v
        resid = np.linalg.norm((y @ frame) @ basis.T - y, axis=1)
        assert np.all(resid <= bound * np.linalg.norm(y, axis=1))
        others = np.delete(points, i, axis=0)
        assert np.max(np.abs((others - v) @ frame - np.eye(n))) <= bound


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       power=st.integers(-12, 12), data=st.data())
def test_frame_is_invariant_under_scaling_a_function(n, seed, power, data):
    # scaling one function, its column of the points, of v and of x, by
    # 10^power keeps the walk's start and the frame coordinates: the SVD's
    # rows are scaled to their largest entry
    k = data.draw(st.integers(0, n - 1))
    rng = np.random.default_rng(seed)
    points, _, v = _support(rng, n)
    x = rng.standard_normal((7, n))
    i, frame, _ = _walk_frame(points, v)
    scale = np.ones(n)
    scale[k] = 10.0 ** power
    i2, frame2, _ = _walk_frame(points * scale, v * scale)
    assert i2 == i == 0
    want, cond = _frame_solve(points, v, i, x)
    got = (x * scale - v * scale) @ frame2
    bound = 1e-12 * cond * max(1.0, np.abs(want).max())
    assert np.abs(got - (x - v) @ frame).max() <= bound


def _moment_frame(ts, nu):
    """Rows of (t, t^2) at ``ts``, v = nu @ rows, and the walk's frame."""
    curve = CurveSystem.from_texts(["t", "t^2"], IntervalSpec(0, 1))
    x = curve.evaluate(ts)
    v = nu @ x
    i, frame, _ = _walk_frame(x, v)
    assert i == 0
    return curve, x, v, frame


class TestFirstZeroCrossing:
    def test_affine_crossing(self):
        curve = CurveSystem.from_texts(["t-0.3", "t-1.5"], IntervalSpec(0, 1))
        ts = np.array([0.0, 1.0])
        t_bar, k, _, x_bar = _first_zero_crossing(np.zeros(2), np.eye(2), curve,
                                                  ts, curve.evaluate(ts))
        assert t_bar == pytest.approx(0.3, abs=1e-12)
        assert np.array_equal(x_bar, curve.evaluate(t_bar)[0])
        assert k == 0

    def test_crossing_at_t_stop(self):
        curve = CurveSystem.from_texts(["t-1"], IntervalSpec(0, 1))
        ts = np.array([0.0, 1.0])
        t_bar, k, _, _ = _first_zero_crossing(np.zeros(1), np.eye(1), curve,
                                              ts, curve.evaluate(ts))
        assert t_bar == pytest.approx(1.0, abs=1e-12)
        assert k == 0

    def test_moment_curve_against_dense_grid(self):
        ts = np.array([0.05, 0.5, 0.95])
        curve, x, v, frame = _moment_frame(ts, np.array([0.3, 0.4, 0.3]))
        t_bar, _, _, _ = _first_zero_crossing(v, frame, curve, ts[:2], x[:2])
        # oracle: brute-force scan of the coordinate maximum at 1e6 points
        grid = np.linspace(ts[0], ts[1], 10**6 + 1)
        g = ((curve.evaluate(grid) - v) @ frame).max(axis=1)
        first = int(np.flatnonzero(g >= 0.0)[0])
        assert abs(t_bar - grid[first]) <= 2e-6

    def test_refinement_is_batched(self, monkeypatch):
        # one call per refinement round of at most 63 points: an even round
        # and secant-centred ones
        ts = np.array([0.05, 0.5, 0.95])
        curve, x, v, frame = _moment_frame(ts, np.array([0.3, 0.4, 0.3]))
        sizes = []
        evaluate = CurveSystem.evaluate

        def counting(self, t):
            sizes.append(np.atleast_1d(t).size)
            return evaluate(self, t)

        monkeypatch.setattr(CurveSystem, "evaluate", counting)
        t_bar, k, p, x_bar = _first_zero_crossing(v, frame, curve, ts[:2], x[:2])
        assert len(sizes) <= 4 and sum(sizes) <= 300
        assert k == 0 and t_bar == pytest.approx(0.23, abs=1e-13)
        assert abs(p[k]) <= ZERO_TOL and p.max() <= ZERO_TOL
        # the crossing's row comes from the probe batch that found it
        assert np.array_equal(x_bar, evaluate(curve, t_bar)[0])
        assert np.array_equal(p, (x_bar - v) @ frame)

    @pytest.mark.parametrize("cell,even", [((0.1, 0.3), True),
                                           ((0.226, 0.234), False)])
    def test_wide_seeded_cell_opens_with_an_even_round(self, monkeypatch,
                                                       cell, even):
        # rows inside the gap leave a seeded cell around the crossing at
        # 0.23: one wider than 1e-2 opens with an even round, where a
        # secant root of scores that far apart misses by about the cell,
        # and a narrower one with a round centred on the secant root
        curve, _, v, frame = _moment_frame(np.array([0.05, 0.5, 0.95]),
                                           np.array([0.3, 0.4, 0.3]))
        walk = np.array([0.05, *cell, 0.5])
        rows = curve.evaluate(walk)
        batches = []
        evaluate = CurveSystem.evaluate

        def recording(self, t):
            batches.append(np.array(t))
            return evaluate(self, t)

        monkeypatch.setattr(CurveSystem, "evaluate", recording)
        t_bar, k, p, _ = _first_zero_crossing(v, frame, curve, walk, rows)
        assert k == 0 and t_bar == pytest.approx(0.23, abs=1e-13)
        assert abs(p[k]) <= ZERO_TOL and p.max() <= ZERO_TOL
        evenly = np.allclose(np.diff(batches[0]), (cell[1] - cell[0]) / 64)
        assert evenly == even


def _refine_rounds(g, lo, hi, tol):
    """Rounds of ``refine_bracket`` on a scalar score, and the point it returns."""
    rounds = 0

    def probe(ts):
        nonlocal rounds
        rounds += 1
        return g(ts), ts

    def done(a, b, _):
        return b - a <= tol

    t, _ = hull.refine_bracket(probe, lo, hi, float(g(np.array([hi]))[0]),
                               hi, done)
    return rounds, t


class TestRefineBracket:
    def test_smooth_root_in_four_rounds(self):
        # even rounds alone shrink the bracket 64-fold each and need 8 to
        # get from width 1 to 1e-13; secant-centred rounds need 4
        rounds, t = _refine_rounds(lambda t: np.exp(t) - 2.0, 0.0, 1.0, 1e-13)
        assert rounds <= 4
        assert t == pytest.approx(math.log(2.0), abs=1e-13)

    def test_stagnating_secant_falls_back_to_even_rounds(self):
        # e^(K(t - r)) - 1 is strongly convex: on a bracket of width 1/64
        # the secant root lies far left of the root, so a secant-centred
        # round keeps a cell only 4/3 narrower; the even round that follows
        # it bounds the count (13 rounds without that fallback)
        r = (math.sqrt(5.0) - 1.0) / 2.0

        def g(t):
            return np.expm1(np.minimum(1e4 * (t - r), 700.0))

        rounds, t = _refine_rounds(g, 0.0, 1.0, 1e-13)
        assert rounds <= 8
        assert r <= t <= r + 1e-13

    def test_score_at_lo_opens_with_a_secant_round(self):
        # a bracket one discrete cell wide, as a seeded walk starts from:
        # with the score at lo the first round is centred on the secant
        # root, without it the first round is even and one more is needed
        def g(t):
            return np.exp(t) - 2.0

        lo, hi = 0.6925, 0.6935
        batches = []

        def probe(ts):
            batches.append(ts)
            return g(ts), ts

        def done(a, b, _):
            return b - a <= 1e-13

        hi_g = float(g(np.array([hi]))[0])
        lo_g = float(g(np.array([lo]))[0])
        t, _ = hull.refine_bracket(probe, lo, hi, hi_g, hi, done, lo_g)
        secant = lo + (hi - lo) * (lo_g / (lo_g - hi_g))
        assert secant in batches[0]
        assert not np.allclose(np.diff(batches[0]), (hi - lo) / 64)
        assert t == pytest.approx(math.log(2.0), abs=1e-13)
        seeded = len(batches)
        batches.clear()
        hull.refine_bracket(probe, lo, hi, hi_g, hi, done)
        assert np.allclose(np.diff(batches[0]), (hi - lo) / 64)
        assert seeded == 2 and len(batches) == 3

    def test_no_float_inside_stops(self):
        lo = 1.0
        hi = np.nextafter(lo, 2.0)
        rounds, t = _refine_rounds(lambda t: t - hi, lo, hi, 0.0)
        assert rounds == 0 and t == hi


_SMOOTH_TEXTS = ("t", "t^2", "t^3", "t^4", "exp(0.7*t)", "exp(-1.3*t)",
                 "sin(2*t)", "sin(0.5*t+1)")


def _walk_draw(texts, seed):
    """``(curve, ts, x, v, i, frame)``: n+1 points x of the curve of
    ``texts`` on [-1, 2] at parameters ts drawn from ``seed``, a positive
    combination v of them, and the walk's start i and frame around v."""
    curve = CurveSystem.from_texts(texts, IntervalSpec(-1, 2))
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.uniform(0.05, 0.6, len(texts) + 1)) - 1.0
    nu = rng.uniform(0.05, 1.0, len(texts) + 1)
    x = curve.evaluate(ts)
    v = nu @ x / nu.sum()
    i, frame, _ = _walk_frame(x, v)
    return curve, ts, x, v, i, frame


def _check_rounding_stop(curve, ts, x, v, frame):
    # walk x(ts[0]) toward x(ts[1]): the top coordinate g at the crossing is
    # within ZERO_TOL or the rounding of its own dot products; where g jumps
    # past both between two adjacent floats, the float below t_bar scored
    # g < 0 in the walk's own probe batch
    probed = []
    evaluate = CurveSystem.evaluate

    def recording(self, us):
        probed.append((us, evaluate(self, us)))
        return probed[-1][1]

    with mock.patch.object(CurveSystem, "evaluate", recording):
        t_bar, _, p, x_bar = _first_zero_crossing(v, frame, curve, ts[:2], x[:2])
    assert ts[0] < t_bar <= ts[1]
    eps = np.finfo(float).eps
    if p.max() > max(ZERO_TOL, eps * (np.abs(x_bar - v) @ np.abs(frame)).max()):
        scores = {float(u): g for us, xs in probed
                  for u, g in zip(us, ((xs - v) @ frame).max(axis=1))}
        below = float(np.nextafter(t_bar, -np.inf))
        assert below in scores and scores[below] < 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 4), moment=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_first_zero_crossing_properties(data, n, moment, seed):
    # a positive combination of n+1 curve points; walk the first toward the
    # second in the frame of the other n rooted at the combination
    if moment:
        texts = [f"t^{k}" for k in range(1, n + 1)]
    else:
        texts = data.draw(st.lists(st.sampled_from(_SMOOTH_TEXTS), min_size=n,
                                   max_size=n, unique=True))
    curve, ts, x, v, i, frame = _walk_draw(texts, seed)
    assume(i == 0)
    if np.linalg.cond(x[1:] - v) > 1e4:
        # the coordinates' rounding can exceed ZERO_TOL at the crossing
        # (about 1 in 30 draws)
        _check_rounding_stop(curve, ts, x, v, frame)
        return
    t_bar, k, p, _ = _first_zero_crossing(v, frame, curve, ts[:2], x[:2])
    assert ts[0] < t_bar <= ts[1]
    assert p.max() <= ZERO_TOL
    assert abs(p[k]) <= ZERO_TOL
    if moment:
        # each coordinate of the moment curve changes sign at most once in
        # (t0, t1), so the first crossing is the only one
        grid = np.linspace(ts[0], ts[1], 20001)
        g = ((curve.evaluate(grid) - v) @ frame).max(axis=1)
        first = int(np.flatnonzero(g >= 0.0)[0])
        assert abs(t_bar - grid[first]) <= 2.0 * (grid[1] - grid[0])


@pytest.mark.parametrize("texts,seed", [
    (["sin(0.5*t+1)", "t^2", "t", "exp(-1.3*t)"], 492467217),
    (["t", "sin(0.5*t+1)", "t^2", "t^4"], 2786227437)])
def test_ill_conditioned_crossing_stops_at_its_rounding(texts, seed):
    # frames of condition 2.0e6 and 4.1e5: a walk that stopped at a bracket
    # 8 eps wide in absolute units of t left p.max() at 6.2e-11 and 2.9e-11,
    # above the larger of ZERO_TOL and its dot products' rounding, 2.2e-11
    # and 1e-11, with the float below t_bar not probed
    curve, ts, x, v, i, frame = _walk_draw(texts, seed)
    assert i == 0 and np.linalg.cond(x[1:] - v) > 1e5
    _check_rounding_stop(curve, ts, x, v, frame)


# the benchmark's tail corpus: its 10 near-dependent systems and its 9 to
# 12 monomials on [0, 1]
NEAR_DEPENDENT_WALKS = [
    item for item in corpus.tail_corpus(20260808, 0)
    if "eps=" in item["name"]
    or item["name"] in {f"{n} monomials on [0,1]" for n in range(9, 13)}]


@pytest.mark.parametrize("item", NEAR_DEPENDENT_WALKS,
                         ids=[item["name"] for item in NEAR_DEPENDENT_WALKS])
def test_near_dependent_walks_stop_at_their_rounding(monkeypatch, item):
    # near the crossing these frames' coordinates round above ZERO_TOL, so
    # a walk that waited for g <= ZERO_TOL probed rounding noise until its
    # bracket was a few ulps wide: (t, t^2, t^4) at eps 1e-7 took 11 rounds
    rounds, walking = [], []  # evaluate calls per walk; the open walk
    walk, evaluate = hull._first_zero_crossing, CurveSystem.evaluate

    def counted(*args):
        rounds.append(0)
        walking.append(1)
        try:
            return walk(*args)
        finally:
            walking.pop()

    def counting(self, t):
        if walking:
            rounds[-1] += 1
        return evaluate(self, t)

    monkeypatch.setattr(hull, "_first_zero_crossing", counted)
    monkeypatch.setattr(CurveSystem, "evaluate", counting)
    m = measure_from_json(item["problem"]["measure"])
    synthesize_rule(CurveSystem.from_texts(item["problem"]["functions"],
                                           m.interval), m)
    monkeypatch.undo()
    assert rounds and max(rounds) <= 4


class TestReduceOnCurve:
    def test_scalar_mean_value(self):
        curve = CurveSystem.from_texts(["t^2"], IntervalSpec(0, 1))
        comb = ConvexCombination(params=np.array([0.2, 0.8]),
                                 weights=np.array([0.5, 0.5]), total=1.0)
        v = np.array([0.5 * 0.04 + 0.5 * 0.64])
        out = reduce_on_curve(curve, comb, v)
        assert len(out) == 1
        # the single node is the intermediate-value point of x1
        assert float(out.params[0]) == pytest.approx(math.sqrt(v[0]), abs=1e-9)
        assert out.weights[0] == pytest.approx(1.0)

    def test_zero_weight_dropped(self):
        curve = CurveSystem.from_texts(["t", "t^2"], IntervalSpec(0, 1))
        x = curve.evaluate(np.array([0.1, 0.9]))
        v = 0.5 * x[0] + 0.5 * x[1]
        comb = ConvexCombination(params=np.array([0.1, 0.5, 0.9]),
                                 weights=np.array([0.5, 0.0, 0.5]), total=1.0)
        out = reduce_on_curve(curve, comb, v)
        assert list(out.params) == [0.1, 0.9]
        assert out.weights == pytest.approx([0.5, 0.5])

    def test_moment_curve_three_to_two(self):
        curve = CurveSystem.from_texts(["t", "t^2"], IntervalSpec(0, 1))
        v = np.array([0.5, 1.0 / 3.0])
        ts = np.array([0.1, 0.5, 0.9])
        a = np.vstack([curve.evaluate(ts).T, np.ones(3)])
        w = np.linalg.solve(a, np.array([*v, 1.0]))
        assert np.all(w > 0)
        comb = ConvexCombination(params=ts, weights=w, total=1.0)
        out = reduce_on_curve(curve, comb, v)
        assert len(out) <= 2
        recon = out.weights @ curve.evaluate(out.params)
        assert np.max(np.abs(recon - v)) <= 1e-9 * (1 + np.max(np.abs(v)))
        # oracle: a coarse grid search over node pairs also finds a
        # reproducing pair, confirming representability with two points
        grid = np.linspace(0, 1, 1001)
        xg = curve.evaluate(grid)
        best = math.inf
        for i in range(0, 1001, 25):
            for j in range(i + 25, 1001, 25):
                m = np.vstack([xg[[i, j]].T, np.ones(2)])
                wij, *_ = np.linalg.lstsq(m, np.array([*v, 1.0]), rcond=None)
                if np.all(wij >= 0):
                    best = min(best, np.max(np.abs(m @ wij - np.array([*v, 1.0]))))
        assert best <= 1e-2

    def test_infeasible_rejected(self):
        curve = CurveSystem.from_texts(["t"], IntervalSpec(0, 1))
        comb = ConvexCombination(params=np.array([0.2, 0.8]),
                                 weights=np.array([0.5, 0.5]), total=1.0)
        with pytest.raises(InfeasibleCombinationError):
            reduce_on_curve(curve, comb, np.array([0.9]))

    def test_degenerate_support_eliminates(self):
        # three support points of a line in R^2: (t, 2t+1) has affine rank
        # 1, so one curve point reproduces v
        curve = CurveSystem.from_texts(["t", "2*t+1"], IntervalSpec(0, 1))
        ts = np.array([0.2, 0.5, 0.8])
        nu = np.array([0.25, 0.5, 0.25])
        v = nu @ curve.evaluate(ts)
        comb = ConvexCombination(params=ts, weights=nu, total=1.0)
        out = reduce_on_curve(curve, comb, v)
        assert len(out) == 1
        recon = out.weights @ curve.evaluate(out.params)
        assert np.max(np.abs(recon - v)) <= 1e-9 * (1 + np.max(np.abs(v)))

    def test_pruned_result_keeps_the_input_total(self):
        # weights that sum to the total only within 1e-12: the atoms are
        # scaled to the input's total, and the one-point result of the
        # dependent system has that total, with weights summing to it
        curve = CurveSystem.from_texts(["t", "2*t+1"], IntervalSpec(0, 1))
        ts = np.array([0.2, 0.5, 0.8])
        w = np.array([0.25, 0.5, 0.2500000000001])
        out = reduce_on_curve(curve, ConvexCombination(ts, w, 1.0),
                              w @ curve.evaluate(ts))
        assert len(out) == 1 and out.total == 1.0
        assert math.fsum(out.weights) == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_total_rescaled(self):
        curve = CurveSystem.from_texts(["t", "t^2"], IntervalSpec(0, 1))
        ts = np.array([0.1, 0.5, 0.9])
        w = np.array([1.0, 2.0, 1.0])
        total = 4.0
        v = (w @ curve.evaluate(ts)) / total
        comb = ConvexCombination(params=ts, weights=w, total=total)
        out = reduce_on_curve(curve, comb, v)
        assert math.fsum(out.weights) == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("total", [1.0, 0.25])
    def test_more_than_n_plus_one_terms_are_pruned_first(self, total):
        # five positive terms of (t, t^2) exceed n + 1 = 3
        curve = CurveSystem.from_texts(["t", "t^2"], IntervalSpec(0, 1))
        ts = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        w = total * np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        v = w @ curve.evaluate(ts) / total
        out = reduce_on_curve(curve, ConvexCombination(ts, w, total), v)
        assert len(out) <= 2
        assert math.fsum(out.weights) == pytest.approx(total, rel=1e-12)
        mean = out.weights @ curve.evaluate(out.params) / total
        assert np.max(np.abs(mean - v)) <= RECON_TOL * (1.0 + np.max(np.abs(v)))
        # the input check reads the weighted mean, so a total below 1 does
        # not loosen it: three terms aimed 3 RECON_TOL off are refused
        w3 = w[:3] * (total / math.fsum(w[:3]))
        v3 = w3 @ curve.evaluate(ts[:3]) / total
        off = v3 + 3.0 * RECON_TOL * (1.0 + np.max(np.abs(v3)))
        with pytest.raises(InfeasibleCombinationError,
                           match="input combination misses the target"):
            reduce_on_curve(curve, ConvexCombination(ts[:3], w3, total), off)

    def test_function_of_large_size_keeps_the_others(self):
        # (1e12*t, t^2): the walk's SVD, its rows scaled, still sees t^2;
        # unscaled, every frame looked singular, and a null-vector shift
        # kept (0.1, 0.9), which misses the t^2 moment 0.322 by 0.098,
        # inside a gate scaled by 1e12
        curve = CurveSystem.from_texts(["1e12*t", "t^2"], IntervalSpec(0, 1))
        ts = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        w = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        v = w @ curve.evaluate(ts)
        out = reduce_on_curve(curve, ConvexCombination(ts, w, 1.0), v)
        assert len(out) == 2
        mean = out.weights @ curve.evaluate(out.params)
        assert np.all(np.abs(mean - v) <= 1e-12 * np.abs(v))


def _check_rule(curve, m, rule):
    assert len(rule) <= curve.n and np.all(rule.weights >= 0.0)
    recon = rule.weights @ curve.evaluate(rule.nodes)
    j_ref = integrate_system(m, curve, 1e-12).values
    assert np.max(np.abs(recon - j_ref) / (1.0 + np.abs(j_ref))) <= 1e-8


def test_ill_conditioned_frame_keeps_the_batched_coordinates():
    # acceptance corpus seed 20260808, problem #117: a frame with condition
    # number ~2e8, where a scalar re-solve at the crossing misses the
    # vanishing coordinate by 6e-11 > ZERO_TOL
    interval = IntervalSpec(1.362644541917652, 2.6516422145861447)
    curve = CurveSystem.from_texts([
        "1.6965421476797595*sin(1.0*t)+1.250702542024929*cos(1.0*t)",
        "0.5651198495632848*exp(-0.5850129241072366*t)",
        "-1.4298504293183116*exp(0.38707677689242326*t)",
        "0.8410274934463366*sin(2.0*t)+0.19990977262985732*cos(2.0*t)",
        "-0.6363375964416433+0.38888011216003404*t+1.5834360865196606*t^2.0"
        "+0.08046194338817614*t^3.0+1.4402295024589518*t^4.0",
        "-1.7025910431733196*sin(2.0*t)+-1.3118546682880172*cos(2.0*t)",
    ], interval)
    m = MeasureSpec(
        interval,
        density=parse("(0.21477274019827375+-0.964723685860156*t"
                      "+-0.2877084316890195*t^2.0)^2.0+0.39066117659980126"),
        atoms=((1.7655926258369377, 0.8606186593636598),
               (1.781984759431643, 0.2903897280012151),
               (2.3857290709644996, 0.6999736198014517)),
    )
    _check_rule(curve, m, synthesize_rule(curve, m))


def test_small_first_weight_walks_the_next_support_point():
    # acceptance corpus seed 309, variant 2, problem #88: a prune that
    # eliminated one point per SVD left weight 4.7e-4 on the walk's first
    # support point, the frame without it was singular (2.5e-11), and a
    # shift along the smallest singular vector of a nonsingular [P - v; 1]
    # missed the gate by 8.6e-9
    interval = IntervalSpec(-0.7486452736829508, 0.931735112813084)
    curve = CurveSystem.from_texts([
        "-0.21158320142889497+1.0125497815678273*t+0.14216381370925557*t^2"
        "+0.003782260914741098*t^3+1.5474522290866468*t^4",
        "-1.5330353666627814*exp(-0.02769698396725717*t)",
        "0.07198674005010375*sin(1*t)+1.6416081269846243*cos(1*t)",
        "-0.9255772378136995+-0.8458773448663042*t",
        "1.795217089603736*exp(-0.7871426235124117*t)",
    ], interval)
    m = MeasureSpec(
        interval,
        density=parse("(-0.8323808437942213+0.8162669977010044*t"
                      "+0.34300093928459763*t^2)^2+0.5427348439661214"),
    )
    _check_rule(curve, m, synthesize_rule(curve, m))


def test_small_first_weight_after_the_updated_prune():
    # acceptance corpus seed 302, variant 0, problem #10: the prune leaves
    # weight 3.2e-4 on the first support point and its frame is singular
    # (3.4e-11); the walk starts from the second point instead
    interval = IntervalSpec(1.6067093005772861, 3.659864103404301)
    curve = CurveSystem.from_texts([
        "-1.820590724232373*sin(2*t)+-1.1365000343102092*cos(1*t)",
        "-0.5416201963480667+0.7600824398193824*t+0.6427310351879583*t^2"
        "+-1.0302630944333595*t^3+-1.8984581687035695*t^4",
        "1.783614019765292*sin(1*t)+1.1475982174314305*cos(1*t)",
        "1.625184577386185*exp(0.9750141715664367*t)",
        "0.7158775673542821+-0.9979866586447832*t+1.0529311731392488*t^2"
        "+0.41764125952776476*t^3+1.4160197414214992*t^4",
        "-1.198457697741322*exp(0.3896220264476882*t)",
    ], interval)
    m = MeasureSpec(
        interval,
        density=parse("(-0.13281704652634052+-0.193478421816196*t"
                      "+-0.521960020343432*t^2)^2+0.5960265728163593"),
        atoms=((2.658252056087158, 0.3807105744446613),
               (3.1658702904668297, 0.16216030302023146)),
    )
    _check_rule(curve, m, synthesize_rule(curve, m))


def _walked(curve, support, ts, pts, v, total):
    """The walk's n+1 -> n step from the prune's ``support`` of the
    combination at ``ts`` (curve rows ``pts``), merged and rescaled to
    ``total`` by ``hull._rescaled``, as synthesis hands it to the polish."""
    return hull._rescaled(*hull._walk(curve, *support, ts, pts, v, total), total)


def test_every_frame_singular_eliminates(monkeypatch):
    # nearly all weight on t = 0.9: the support is affinely independent,
    # so the prune keeps all three points, but v lies within 1e-12 of
    # x(0.9): the points before it carry less than RANK_TOL of the
    # weight, and the walk eliminates a point along a null vector
    callers = _trace_shifts(monkeypatch)
    curve = CurveSystem.from_texts(["t", "t^2"], IntervalSpec(0, 1))
    ts = np.array([0.1, 0.5, 0.9])
    w = np.array([1e-12, 1e-12, 1.0 - 2e-12])
    pts = curve.evaluate(ts)
    v, total = w @ pts, math.fsum(w)
    assert (w[:2] <= RANK_TOL * w.max()).all()
    support = hull._prune(pts, w, v, total, ts)
    assert support[0].size == 3
    params, weights, _ = _walked(curve, support, ts, pts, v, total)
    assert len(params) <= 2 and np.all(weights >= 0.0)
    recon = weights @ curve.evaluate(params)
    assert np.max(np.abs(recon - v)) <= RECON_TOL
    # the prune reads full rank and shifts nothing; the walk shifts once
    assert callers == ["_walk"]


def test_singular_first_frame_needs_no_polish():
    # with weight 1e-11 on t = 0.1, below RANK_TOL of the largest, the
    # frame of the other two points is singular; walking t = 0.5 toward
    # 0.9 reproduces v within RECON_TOL on its own, before any polish
    curve = CurveSystem.from_texts(["t", "t^2"], IntervalSpec(0, 1))
    ts = np.array([0.1, 0.5, 0.9])
    w = np.array([1e-11, 0.5, 0.5 - 1e-11])
    pts = curve.evaluate(ts)
    v, total = w @ pts, math.fsum(w)
    assert w[0] <= RANK_TOL * w.max() < w[1]
    params, weights, _ = _walked(curve, hull._prune(pts, w, v, total, ts),
                                 ts, pts, v, total)
    assert len(params) <= 2 and np.all(weights >= 0.0)
    recon = weights @ curve.evaluate(params)
    assert np.max(np.abs(recon - v)) <= RECON_TOL


def test_every_frame_singular_on_a_discrete_measure(monkeypatch):
    # seven atoms of (t, ..., t^6) at the Chebyshev points of [-1, 1], six
    # of mass 1e-12 and one of mass 1 at t = 1: the support is affinely
    # independent, so the prune keeps all seven, but every point before the
    # last carries less than RANK_TOL of the weight (every frame of the
    # walk would hold x(1) - v, within about 1e-11 of zero), so the walk
    # eliminates a point along the null vector of its SVD instead
    callers = _trace_shifts(monkeypatch)
    interval = IntervalSpec(-1, 1)
    curve = CurveSystem.from_texts([f"t^{k}" for k in range(1, 7)], interval)
    ts = -np.cos(np.pi * np.arange(7) / 6)
    masses = np.array([1e-12] * 6 + [1.0])
    m = MeasureSpec(interval, atoms=tuple(zip(ts, masses)))
    j = integrate_system(m, curve)
    v = j.values / j.mass
    assert (masses[:6] <= RANK_TOL * masses.max()).all()
    pts = curve.evaluate(ts)
    support = hull._prune(pts, masses, v, j.mass, ts)
    assert support[0].size == 7
    params, weights, _ = _walked(curve, support, ts, pts, v, j.mass)
    assert callers == ["_walk"]
    assert math.fsum(weights) == pytest.approx(j.mass, rel=1e-14)
    _check_rule(curve, m, QuadratureRule(nodes=params, weights=weights,
                                         total=j.mass, residuals=[],
                                         rank_used=curve.n))


# acceptance corpus problems of full affine rank 6 that were refused at the
# residual gate while a refit after the polish set the weights: one slowly
# varying exponential is nearly affine in the others on its window, the
# polish on the subset stalled with its weights off the mass, and the
# refit at the polish's nodes missed function 0, 3 or 0 by 1.2e-8-1.8e-8
NEAR_AFFINE_EXPONENTIALS = {
    "401/5/#124": (
        (-0.0496413827298694, 2.4908830839858815), [
            "0.04162659004618696*exp(0.10305282325624776*t)",
            "-1.1538906533996216*exp(-0.6946132891765966*t)",
            "-1.5775728499478872*sin(1*t)+0.0891912086436939*cos(2*t)",
            "-0.8448482233542314*exp(0.5007481951826356*t)",
            "-1.4946805291052074*sin(1*t)+-1.6379441729450641*cos(1*t)",
            "-1.267697250846732+-1.467636102579302*t+-1.6176098011203064*t^2"
            "+-1.7579379587700794*t^3+-0.6439169259598412*t^4",
        ],
        "(0.9397722556730983+-0.8417079065387245*t"
        "+-0.5941552659778835*t^2)^2+0.31330319804337287",
        ((2.2154796171768742, 0.1872993673907569),
         (1.9225356874209347, 0.1605508160631006),
         (-0.011433380344717949, 0.8645604567367617))),
    "1301/3/#122": (
        (1.3587349429122546, 4.347070328731304), [
            "-1.6537010559204584*exp(0.8657430652242681*t)",
            "-1.2607695257446871+-0.9416907415264144*t+0.34411680867116257*t^2",
            "-0.12064098554825042+-0.7228729238162606*t+-1.0848791566459446*t^2"
            "+1.2083802270855202*t^3+1.2433824272857543*t^4",
            "-0.21905372334544593*exp(-0.061998584846794325*t)",
            "0.32461139339325085*exp(0.3528888976076472*t)",
            "0.8876823327850505*sin(1*t)+-0.0028578422870904063*cos(1*t)",
        ],
        "(0.6219324624695133+0.7833020386071341*t"
        "+0.05035145160911969*t^2)^2+0.42390613206467104", ()),
    "1307/2/#174": (
        (1.500746163810947, 4.232039323268843), [
            "0.12420247169144005*exp(-0.07082344997697088*t)",
            "0.13660914318160167*sin(1*t)+-0.04062319512356494*cos(2*t)",
            "-1.0608085191781123*sin(2*t)+1.8643792390114835*cos(1*t)",
            "0.22873407241519228*sin(2*t)+-1.7241553446023956*cos(2*t)",
            "1.216380956717475+-0.15400342738034967*t",
            "-0.7898000268532006+0.087764828273599*t+-0.09162581928915703*t^2"
            "+1.507700759536731*t^3+1.9061700863024216*t^4",
        ],
        "(0.5982627448219542+0.3057201569808339*t"
        "+-0.37230258474216815*t^2)^2+0.4420678812322169", ()),
}


def _corpus_problem(bounds, texts, density, atoms=()):
    interval = IntervalSpec(*bounds)
    return (CurveSystem.from_texts(texts, interval),
            MeasureSpec(interval, density=parse(density), atoms=atoms))


@pytest.mark.parametrize("problem", NEAR_AFFINE_EXPONENTIALS.values(),
                         ids=NEAR_AFFINE_EXPONENTIALS.keys())
def test_near_affine_exponential_meets_the_gate(problem):
    curve, m = _corpus_problem(*problem)
    _check_rule(curve, m, synthesize_rule(curve, m))


def test_dependent_functions_keep_the_rank_node_count():
    # acceptance corpus seed 401, variant 2, #43: read against the largest
    # column, the affine rank was 4 of 6 functions, and polished on the 4
    # independent functions alone, the rule missed dependent function 4 by
    # 2.7e-4, so a second pass on all 6 gave 6 nodes.  Each column against
    # its own norm reads |R_kk| >= 9.4e-6: the rank is 6, and the rule has
    # no more nodes than that
    curve, m = _corpus_problem((0.838614452643744, 2.6378131468376065), [
        "0.8699615558210527*exp(-0.25464906650970476*t)",
        "-1.2431995081867018+-1.8371558732494941*t+0.11653616700264635*t^2"
        "+-0.6064744557554831*t^3",
        "0.18456660519480783*exp(0.12337269799329609*t)",
        "1.0943998379226012*exp(-0.005350708005897875*t)",
        "0.05811877209580496*sin(1*t)+-1.738067868291263*cos(2*t)",
        "-1.7298131945574102+-1.3912795202855683*t+-1.2519905082116525*t^2"
        "+-0.5392829201944034*t^3+1.963775907631578*t^4",
    ], "(-0.2391158332121115+-0.635298631726029*t"
       "+-0.40741607215155273*t^2)^2+0.8575309305096456")
    rule = synthesize_rule(curve, m)
    assert rule.rank_used == 6 and len(rule) <= 6
    _check_rule(curve, m, rule)


# inputs whose support is affinely dependent at the scale of RANK_TOL, and
# which a separate dependence loop refused: it shifted along a near-null
# vector whose entries all had one sign, zeroing every weight, or drifted
# past the gate.  The prune now reads the rank from its one SVD and keeps
# the weights from before the near-null shifts when those drift
@pytest.mark.filterwarnings("error")
def test_near_null_shift_that_zeroes_every_weight_is_undone():
    curve = CurveSystem.from_texts(["1e300*t"], IntervalSpec(0, 1))
    ts, w = np.array([0.2, 0.5]), np.array([0.5, 0.5])
    pts = curve.evaluate(ts)
    v = w @ pts
    # the near-null vector has entries of one sign: its shift zeroed
    # every weight, so the prune keeps the weights from before it
    support = hull._prune(pts, w, v, 1.0, ts)
    assert np.array_equal(support[0], ts)
    params, weights, _ = _walked(curve, support, ts, pts, v, 1.0)
    assert params.tolist() == pytest.approx([0.35], rel=1e-12)
    assert weights.tolist() == [1.0]


@pytest.mark.filterwarnings("error")
def test_functions_of_unequal_scale_synthesize():
    interval = IntervalSpec(0, 1)
    curve = CurveSystem.from_texts(["1e12*t", "t^2"], interval)
    m = MeasureSpec(interval, density=parse("1"))
    rule = synthesize_rule(curve, m)
    assert len(rule) == 2 and verify_rule(rule, curve, m).passed


@pytest.mark.filterwarnings("error")
def test_knife_edge_rank_problem_synthesizes():
    # acceptance corpus seed 610, variant 1, #101: against the largest
    # column its fifth column sat just below the rank threshold, the rule
    # had 5 nodes at rank 4, and the polish once failed the gate.  Against
    # its own norm the fifth column reads |R_kk| 1.8e-5: rank 5, 5 nodes
    problem = corpus.acceptance_corpus(610, 1)[101]["problem"]
    m = measure_from_json(problem["measure"])
    curve = CurveSystem.from_texts(problem["functions"], m.interval)
    rule = synthesize_rule(curve, m)
    assert rule.rank_used == 5 and len(rule) <= 5
    assert verify_rule(rule, curve, m).passed
    _check_rule(curve, m, rule)


def test_stalled_polish_holds_the_mass():
    # acceptance corpus seed 1307, variant 1, #32: a full affine rank of 6,
    # its sixth column reading |R_kk| 1.3e-8 against its own norm (below
    # RANK_TOL against the largest column, which read rank 5).  The polish
    # on all 6 stalled near 3e-10, where its Gauss-Newton weights missed
    # the mass by 2.9e-10, above synthesis's MASS_GATE (1e-10); synthesis
    # rescales them to the exact mass
    curve, m = _corpus_problem((1.843164556676924, 3.4187764428627982), [
        "-1.8724023286076217+-0.6035804090478054*t+-1.5921155736845831*t^2"
        "+-0.33337401476141393*t^3",
        "0.7338111678337702+1.3308880743352227*t+-0.15294391030888344*t^2"
        "+0.8878342294436474*t^3",
        "0.32372365725499463*exp(0.6600737855099357*t)",
        "1.8734446361249923+-1.5528973054726602*t+-0.7099598858474181*t^2"
        "+-0.9068245186989139*t^3+1.518209734231065*t^4",
        "-0.7607359541971142*exp(-0.271769619160948*t)",
        "1.6470850998022812*exp(0.27043805959237655*t)",
    ], "(-0.5368022748552865+0.9899847750082886*t"
       "+0.7062389827074282*t^2)^2+0.319080970183308")
    rule = synthesize_rule(curve, m)
    assert rule.rank_used == 6 and len(rule) <= 6
    assert abs(math.fsum(rule.weights) - rule.total) <= 1e-14 * rule.total
    _check_rule(curve, m, rule)


def test_merge_coincident_sums_repeated_parameters():
    params = np.array([0.5, 0.1, 0.5, 0.9, 0.1, 0.5])
    weights = np.array([0.25, 0.125, 0.5, 1.0, 2.0, 4.0])
    points = np.column_stack([params, params ** 2])
    p, w, pts = merge_coincident(params, weights, points)
    assert list(p) == [0.1, 0.5, 0.9] and np.all(np.diff(p) > 0)
    assert list(w) == [0.125 + 2.0, 0.25 + 0.5 + 4.0, 1.0]
    assert np.array_equal(pts, np.column_stack([p, p ** 2]))
    p2, w2 = merge_coincident(params, weights)
    assert np.array_equal(p2, p) and np.array_equal(w2, w)


def _merge_coincident_reference(params, weights, points=None):
    """The np.unique merge that the stable sort replaced."""
    uniq, first, inverse = np.unique(params, return_index=True,
                                     return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, weights)
    if points is None:
        return uniq, merged
    return uniq, merged, points[first]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), size=st.integers(0, 40))
def test_merge_coincident_matches_np_unique_bit_for_bit(data, size):
    # parameters from a small pool, so ties are common, -0.0 next to 0.0;
    # weights with zeros and -0.0 among them
    pool = data.draw(st.lists(st.sampled_from(
        [-0.0, 0.0, 0.25, 1.0 / 3.0, -1.5, 1e300, 5e-324]), min_size=1,
        max_size=4) | st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    params = np.array(data.draw(st.lists(st.sampled_from(pool),
                                         min_size=size, max_size=size)),
                      dtype=float)
    weights = np.array(data.draw(st.lists(
        st.sampled_from([0.0, -0.0, 1e-300]) | st.floats(0, 1e3),
        min_size=size, max_size=size)), dtype=float)
    points = np.arange(2.0 * size).reshape(size, 2)
    got = merge_coincident(params, weights, points)
    want = _merge_coincident_reference(params, weights, points)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    for g, w in zip(merge_coincident(params, weights),
                    _merge_coincident_reference(params, weights)):
        assert g.tobytes() == w.tobytes()


def _random_texts(rng, n):
    """n functions of t on [0, 1], as ``test_acceptance``'s criterion 4 draws them."""
    texts = []
    for i in range(n):
        c = [float(x) for x in rng.uniform(-1, 1, 4)]
        texts.append(
            f"{c[0]!r}+{c[1]!r}*t+{c[2]!r}*t^2+{c[3]!r}*sin({(i % 3) + 1}*t)"
        )
    return texts


def _random_curve(rng, n):
    return CurveSystem.from_texts(_random_texts(rng, n), IntervalSpec(0, 1))


def test_randomized_reduction_invariants():
    rng = np.random.default_rng(7)
    for _ in range(150):
        n = int(rng.integers(1, 6))
        curve = _random_curve(rng, n)
        while True:
            ts = np.sort(rng.uniform(0, 1, n + 1))
            if n == 0 or np.all(np.diff(ts) > 1e-3):
                break
        w = rng.uniform(0.05, 1.0, n + 1)
        w /= w.sum()
        v = w @ curve.evaluate(ts)
        comb = ConvexCombination(params=ts, weights=w, total=1.0)
        out = reduce_on_curve(curve, comb, v)
        assert len(out) <= n
        assert np.all(out.weights >= 0)
        assert abs(math.fsum(out.weights) - 1.0) <= 1e-12
        recon = out.weights @ curve.evaluate(out.params)
        assert np.max(np.abs(recon - v)) <= 1e-9 * (1 + np.max(np.abs(v)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       duplicate=st.booleans())
def test_reduction_keeps_at_most_the_affine_rank(seed, n, duplicate):
    # criterion 4's curves with one function duplicated or, for n >= 2, an
    # affine combination of two others appended: n + 1 functions of affine
    # rank at most n, on n + 2 support points.  The reduction is synthesis
    # on the atomic measure, so it keeps at most max(rank, 1) points, where
    # the walk alone keeps n + 1
    rng = np.random.default_rng(seed)
    texts = _random_texts(rng, n)
    if duplicate or n == 1:
        texts.append(texts[int(rng.integers(n))])
    else:
        i, j = rng.choice(n, 2, replace=False)
        a, b, c = (float(x) for x in rng.uniform(-1, 1, 3))
        texts.append(f"{a!r}*({texts[i]})+{b!r}*({texts[j]})+{c!r}")
    curve = CurveSystem.from_texts(texts, IntervalSpec(0, 1))
    while True:
        ts = np.sort(rng.uniform(0, 1, n + 2))
        if np.all(np.diff(ts) > 1e-3):
            break
    w = rng.uniform(0.05, 1.0, n + 2)
    w /= w.sum()
    v = w @ curve.evaluate(ts)
    out = reduce_on_curve(curve, ConvexCombination(ts, w, 1.0), v)
    rank = affine_rank(curve, MeasureSpec(curve.interval,
                                          atoms=tuple(zip(ts, w)))).rank
    assert len(out) <= max(rank, 1) <= n
    assert np.all(out.weights >= 0.0)
    assert abs(math.fsum(out.weights) - 1.0) <= 1e-12
    recon = out.weights @ curve.evaluate(out.params)
    assert np.max(np.abs(recon - v)) <= 1e-9 * (1 + np.max(np.abs(v)))


def test_residual_rows_and_scales_in_closed_form():
    # three curve rows with dyadic entries: every row is exact
    rows = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 4.0]])
    weights = np.array([0.25, 0.5, 0.25])
    goal, total = np.array([2.0, -1.0]), 1.5
    r, scale = residual(weights, rows, goal, total)
    assert r.tolist() == [0.25 + 1.5 + 0.125 - 2.0, 0.5 - 0.5 + 1.0 + 1.0, -0.5]
    assert scale.tolist() == [3.0, 2.0, 2.5]
    # verify_rule reports the residual's rows over their scales
    m = MeasureSpec(IntervalSpec(0, 2), density=parse("1+t"))
    c = CurveSystem.from_texts(["t", "exp(t)"], m.interval)
    rule = synthesize_rule(c, m)
    report = verify_rule(rule, c, m)
    ref = integrate_system(m, c, VERIFY_TOL)
    r, scale = residual(rule.weights, c.evaluate(rule.nodes), ref.values, ref.mass)
    assert np.array_equal(report.residuals, np.abs(r[:-1]))
    assert np.array_equal(report.relative_residuals, np.abs(r[:-1]) / scale[:-1])
    assert report.weight_sum_rel_error == abs(r[-1]) / ref.mass


def test_polish_combination_tightens():
    curve = CurveSystem.from_texts(["t", "t^2"], IntervalSpec(0, 1))
    target = np.array([0.5, 1.0 / 3.0])
    params = np.array([0.2113, 0.7887])
    weights = np.array([0.5, 0.5])
    p2, w2, ok, x2 = polish_combination(curve, params, weights, target, 1.0)
    assert ok
    assert np.array_equal(x2, curve.evaluate(p2))
    recon = w2 @ curve.evaluate(p2)
    assert np.max(np.abs(recon - target)) <= 1e-12


def test_singular_kkt_block_falls_back_to_least_squares(monkeypatch):
    # two equal nodes make the first block's KKT matrix singular, so
    # np.linalg.solve refuses the batch and every block is fitted by least
    # squares; each fit still sums to the total and reproduces the goal
    xs = np.array([[[0.2, 0.04], [0.2, 0.04], [0.8, 0.64]],
                   [[0.1, 0.01], [0.5, 0.25], [0.9, 0.81]]])
    goal = np.array([0.5, 0.34])
    scale = 1.0 / (1.0 + np.abs(goal))
    fits = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: fits.append(1) or lstsq(*a, **k))
    w = hull._exact_mass_fits(xs, goal, 1.0, scale)
    monkeypatch.undo()
    assert len(fits) == 2
    assert w.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert np.all(w >= 0.0)
    assert w[0] @ xs[0] == pytest.approx(goal, abs=1e-12)
    # the regular block's least-squares fit is its KKT solution
    assert w[1] == pytest.approx(
        hull._exact_mass_fits(xs[1:], goal, 1.0, scale)[0], abs=1e-12)


def test_polish_stops_when_it_crawls(monkeypatch):
    # acceptance corpus problem #74 after the curve walk: the residual lies
    # along a near-null singular direction of the Jacobian, and the damped
    # steps used to crawl through all 200 iterations (3600+ evaluations)
    curve = CurveSystem.from_texts(
        ["1.3128826039627826+1.3208619900495298*t+1.0729205776771917*t^2"
         "+0.7663845871672894*t^3+1.3452647080708244*t^4",
         "0.33202265963306443*sin(1*t)+0.21042946188805756*cos(1*t)",
         "0.12266712350369291+-0.3422822885166248*t+-0.7983247980858281*t^2"
         "+-0.07043190569863267*t^3+-0.10298843889847209*t^4",
         "-1.940273535742774+1.9651638622605399*t+0.37237785750577457*t^2",
         "-1.3826221380560018*sin(1*t)+1.9563082290262486*cos(1*t)",
         "1.118974552744438*exp(-0.07091298615020936*t)"],
        IntervalSpec(0.6560792544773761, 1.922477067896547),
    )
    params = np.array([0.8372582385261149, 1.0196739391895209, 1.3826502655943322,
                       1.5700128327164067, 1.7864382402831596, 1.9221678887428804])
    weights = np.array([0.5810342330816054, 0.27344819372435913, 2.508300974453302,
                        0.3955833629314873, 3.1018801555697086, 0.46235117858812075])
    target = np.array([18.306483639199758, 0.32200366292819926, -3.3650108869130215,
                       2.007033931450024, -1.2717386756456739, 1.0033724143915583])
    total = 7.322598098326351

    def rel_resid(p, w):
        return np.max(np.abs(w @ curve.evaluate(p) - total * target)
                      / (1 + np.abs(total * target)))

    before = rel_resid(params, weights)
    calls = []
    evaluate = CurveSystem.evaluate
    monkeypatch.setattr(CurveSystem, "evaluate",
                        lambda self, t: calls.append(1) or evaluate(self, t))
    p2, w2, _, _ = polish_combination(curve, params, weights, target, total)
    monkeypatch.undo()
    assert len(calls) < 200
    assert rel_resid(p2, w2) <= before
    assert rel_resid(p2, w2) <= RECON_TOL


# components of the batching properties: polynomials, exponentials, sines
# and cosines, literal powers (negative and fractional ones too, so the
# parameters stay positive), constants and the bare t
_coef = st.floats(-3, 3, allow_nan=False).map(repr)
_component = st.one_of(
    st.lists(_coef, min_size=1, max_size=5).map(
        lambda cs: "+".join(f"{c}*t^{k}" for k, c in enumerate(cs))),
    st.tuples(_coef, st.floats(-2, 2).map(repr)).map(
        lambda ab: f"{ab[0]}*exp({ab[1]}*t)"),
    st.tuples(st.sampled_from(["sin", "cos"]), st.floats(-4, 4).map(repr)).map(
        lambda fk: f"{fk[0]}({fk[1]}*t)"),
    st.sampled_from(["-3", "-2", "-1", "-0.5", "0.5", "1.5", "2", "3"]).map(
        lambda p: f"t^{p}" if p[0] != "-" else f"t^({p})"),
    _coef,
    st.just("pi"),
    st.just("t"),
)
_params = st.lists(st.floats(0.125, 4.0), max_size=70).map(np.array)


@settings(max_examples=80, deadline=None)
@given(texts=st.lists(_component, min_size=1, max_size=6), a=_params, b=_params)
def test_system_evaluation_is_batch_invariant(texts, a, b):
    # the rules are byte-identical whatever the batch split: one batch
    # gives the rows of separate batches, and each column the values of
    # its component's own call
    curve = CurveSystem.from_texts(texts, IntervalSpec(0, 5))
    both = np.concatenate([a, b])
    x = curve.evaluate(both)
    assert x.shape == (both.size, len(texts))
    assert np.array_equal(x, np.vstack([curve.evaluate(a), curve.evaluate(b)]))
    for k, comp in enumerate(curve.components):
        assert np.array_equal(x[:, k], comp(both))


class TestSystemEvaluation:
    def test_first_failing_component_raises_its_own_error(self):
        curve = CurveSystem.from_texts(["t", "log(t-5)", "sqrt(t-5)"],
                                       IntervalSpec(0, 1))
        ts = np.array([0.0, 1.0])
        with pytest.raises(EvalDomainError) as own:
            curve.components[1](ts)
        with pytest.raises(EvalDomainError) as batch:
            curve.evaluate(ts)
        assert str(batch.value) == str(own.value)
        assert batch.value.subexpr == own.value.subexpr == "log(t-5.0)"

    def test_non_finite_value_names_its_component(self):
        curve = CurveSystem.from_texts(["t^2", "exp(1000*t)", "1/t"],
                                       IntervalSpec(0, 1))
        with pytest.raises(EvalDomainError) as exc:
            curve.evaluate(np.array([0.0, 1.0]))
        assert exc.value.subexpr == curve.components[1].text
        assert str(exc.value) == f"non-finite value in '{curve.components[1].text}'"

    def test_overflow_before_a_domain_error_names_the_overflow(self):
        # component 0 overflows to inf, component 1 raises inside its own
        # closure: the batch raises component 0's error, as calling the
        # components one by one would
        curve = CurveSystem.from_texts(["exp(1000*t)", "log(t-5)", "2"],
                                       IntervalSpec(0, 1))
        with pytest.raises(EvalDomainError) as exc:
            curve.evaluate(np.array([0.0, 1.0]))
        assert exc.value.subexpr == curve.components[0].text
        with pytest.raises(EvalDomainError) as exc:
            curve.evaluate(np.array([0.0]))
        assert exc.value.subexpr == "log(t-5.0)"

    def test_constant_component_in_a_failing_batch(self):
        # a constant's closure gives one value for the whole column; the
        # search for the first failing column passes it and names the next
        curve = CurveSystem.from_texts(["pi", "1/t", "sqrt(t-5)"],
                                       IntervalSpec(0, 1))
        with pytest.raises(EvalDomainError) as exc:
            curve.evaluate(np.array([0.0, 1.0]))
        assert exc.value.subexpr == "1.0/t"
        x = curve.evaluate(np.array([6.0, 7.0]))
        assert np.array_equal(x[:, 0], [math.pi, math.pi])

    def test_scalar_and_empty_shapes(self):
        curve = CurveSystem.from_texts(["t", "2", "sin(t)"], IntervalSpec(0, 1))
        assert curve.evaluate(0.5).shape == (1, 3)
        assert np.array_equal(curve.evaluate(0.5)[0], [0.5, 2.0, math.sin(0.5)])
        assert curve.evaluate(np.empty(0)).shape == (0, 3)

    def test_constants_and_bare_t_come_back_fresh(self):
        curve = CurveSystem.from_texts(["t", "2", "pi", "t"], IntervalSpec(0, 1))
        ts = np.linspace(0.0, 1.0, 5)
        kept = ts.copy()
        x = curve.evaluate(ts)
        x[:] = -1.0
        assert np.array_equal(ts, kept)
        assert np.array_equal(curve.evaluate(ts)[:, 1:3], np.full((5, 2), [2.0, math.pi]))


def test_polish_evaluates_twice_per_iteration(monkeypatch):
    # one batch for the Jacobian (up, dn) and one for the 6 trials, one
    # full step per damping value
    curve = CurveSystem.from_texts(["t", "t^2", "exp(t)"], IntervalSpec(0, 1))
    params = np.array([0.1, 0.45, 0.8])
    weights = np.array([0.3, 0.4, 0.3])
    target = np.array([0.5, 1.0 / 3.0, math.e - 1.0])
    calls, iterations = [], []
    evaluate, svd = CurveSystem.evaluate, np.linalg.svd
    monkeypatch.setattr(CurveSystem, "evaluate",
                        lambda self, t: calls.append(np.size(t)) or evaluate(self, t))
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: iterations.append(1) or svd(*a, **k))
    _, _, ok, _ = polish_combination(curve, params, weights, target, 1.0)
    monkeypatch.undo()
    assert ok and len(iterations) >= 2
    assert len(calls) <= 1 + 2 * len(iterations)
    assert max(calls) == 6 * params.size


def test_walk_with_points_never_evaluates_the_support(monkeypatch):
    # with the support's rows given, the prune evaluates nothing and the
    # walk evaluates the curve only at its probes, and the rows it returns
    # are the curve at the walked parameters
    curve = CurveSystem.from_texts(["t", "t^2", "exp(t)"], IntervalSpec(0, 1))
    for ts in (np.array([0.1, 0.3, 0.6, 0.9]),
               np.sqrt([0.01, 0.05, 0.13, 0.27, 0.5, 0.9])):
        w = np.linspace(1.0, 2.0, ts.size)
        pts = curve.evaluate(ts)
        v = w @ pts / w.sum()
        seen = []
        evaluate = CurveSystem.evaluate
        monkeypatch.setattr(CurveSystem, "evaluate",
                            lambda self, t: seen.append(np.atleast_1d(t))
                            or evaluate(self, t))
        support = hull._prune(pts, w, v, w.sum(), ts)
        assert support[0].size == 4 and not seen
        params, _, rows = hull._walk(curve, *support, ts, pts, v, w.sum())
        monkeypatch.undo()
        assert len(params) <= 3 and seen
        assert not np.isin(np.concatenate(seen), ts).any()
        assert np.array_equal(rows, curve.evaluate(params))


def _count_probe_batches(monkeypatch):
    """A list that counts the walk's probe calls, one entry per batch."""
    calls = []
    refine = hull.refine_bracket

    def counting(probe, *args):
        return refine(lambda ts: calls.append(ts.size) or probe(ts), *args)

    monkeypatch.setattr(hull, "refine_bracket", counting)
    return calls


def test_input_rows_seed_the_walk(monkeypatch):
    # a dense combination on the moment curve prunes to an n+1 support;
    # its rows inside the walked gap narrow the bracket to one input cell
    # before any probe, so the walk needs fewer probe batches than from
    # the bare support, and finds the same crossing
    curve = CurveSystem.from_texts(["t", "t^2", "t^3"], IntervalSpec(0, 1))
    ts = (np.arange(400) + 0.5) / 400
    w = 1.0 + np.sin(7.0 * ts) ** 2
    pts = curve.evaluate(ts)
    v, total = w @ pts / w.sum(), math.fsum(w)
    support = hull._prune(pts, w, v, total, ts)
    assert support[0].size == 4
    calls = _count_probe_batches(monkeypatch)
    seeded = hull._walk(curve, *support, ts, pts, v, total)
    seeded_batches = len(calls)
    calls.clear()
    bare = hull._walk(curve, *support, support[0], support[2], v, total)
    assert 0 < seeded_batches < len(calls)
    assert seeded[0].size == bare[0].size == 3
    assert np.max(np.abs(seeded[0] - bare[0])) <= hull.BISECT_TOL
    params, weights, _ = hull._rescaled(*seeded, total)
    recon = weights @ curve.evaluate(params) / total
    assert np.max(np.abs(recon - v)) <= RECON_TOL


def test_polish_from_converged_rows_evaluates_nothing(monkeypatch):
    # rows at the start spare the first evaluation, and a start within the
    # target returns them as the rows at the end
    curve = CurveSystem.from_texts(["t", "t^2"], IntervalSpec(0, 1))
    params = 0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0)
    rows = curve.evaluate(params)
    target = np.array([0.5, 1.0 / 3.0])
    monkeypatch.setattr(CurveSystem, "evaluate", None)
    p2, w2, ok, x2 = polish_combination(curve, params, np.array([0.5, 0.5]),
                                        target, 1.0, points=rows)
    assert ok and np.array_equal(p2, params) and x2 is rows


def test_polish_fits_the_weights_before_it_moves_a_node(monkeypatch):
    # (t, 0*t): the start misses only in its weights, so the least-squares
    # fit of the weights at the given nodes meets the target; the damped
    # step never runs, so its zero singular value cannot make a NaN
    curve = CurveSystem.from_texts(["t", "0*t"], IntervalSpec(0, 1))
    params = np.array([0.3, 0.6])
    rows = curve.evaluate(params)
    monkeypatch.setattr(CurveSystem, "evaluate", None)
    p2, w2, ok, x2 = polish_combination(curve, params, np.array([0.5, 0.5]),
                                        np.array([0.5, 0.0]), 1.0, points=rows)
    assert ok and np.array_equal(p2, params) and x2 is rows
    assert np.allclose(w2, [1.0 / 3.0, 2.0 / 3.0], rtol=0.0, atol=1e-15)


def test_polish_iterates_from_a_weights_only_fit_that_gains_tenfold(monkeypatch):
    # nodes 1e-5 off the two Gauss nodes of (t, t^2, t^3) on [0, 1] and
    # weights 0.1 off theirs: the weights-only fit at those nodes cuts the
    # scaled residual norm more than 10-fold but misses POLISH_TARGET, so
    # the Gauss-Newton iteration starts from the fit, not from the given
    # weights, and needs fewer evaluations
    curve = CurveSystem.from_texts(["t", "t^2", "t^3"], IntervalSpec(0, 1))
    params = 0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0) + [1e-5, -1e-5]
    rows = curve.evaluate(params)
    target, weights = np.array([0.5, 1.0 / 3.0, 0.25]), np.array([0.4, 0.6])
    r, scale = residual(weights, rows, target, 1.0)
    row_scale = 1.0 / scale
    r = r * row_scale
    step = np.linalg.lstsq(hull._homogeneous(rows, 0.0) * row_scale[:, None],
                           -r, rcond=None)[0]
    fit = np.maximum(weights + step, 0.0)
    r_fit = residual(fit, rows, target, 1.0)[0] * row_scale
    assert hull._FIT_MIN_GAIN * np.linalg.norm(r_fit) <= np.linalg.norm(r)
    assert np.abs(r_fit).max() > hull.POLISH_TARGET
    calls, evaluate = [], CurveSystem.evaluate
    monkeypatch.setattr(CurveSystem, "evaluate",
                        lambda self, t: calls.append(1) or evaluate(self, t))

    def polished(start):
        calls.clear()
        out = polish_combination(curve, params, start, target, 1.0, points=rows)
        return out, len(calls)

    (p_a, w_a, ok, x_a), evals = polished(weights)
    (p_b, w_b, _, _), evals_fit = polished(fit)
    assert ok and np.max(np.abs(w_a @ x_a - target)) <= 1e-12
    assert np.array_equal(p_a, p_b) and np.array_equal(w_a, w_b)
    assert evals == evals_fit
    # iterating from the given weights, the fit discarded, costs more
    monkeypatch.setattr(hull, "_FIT_MIN_GAIN", math.inf)
    (_, _, ok, _), evals_unfitted = polished(weights)
    assert ok and evals < evals_unfitted


def test_damped_step_drops_a_zero_singular_value():
    # the fitted weights for target 0.7 are [-1/3, 4/3], which clip off
    # the target, so the nodes move: the zero function's Jacobian row gives
    # a zero singular value, which the undamped trial must not divide by,
    # or its NaN parameters fail the evaluation as a domain error of 't'
    curve = CurveSystem.from_texts(["t", "0*t"], IntervalSpec(0, 1))
    target = np.array([0.7, 0.0])
    p2, w2, ok, x2 = polish_combination(curve, np.array([0.3, 0.6]),
                                        np.array([0.5, 0.5]), target, 1.0)
    assert ok and np.isfinite(p2).all()
    assert np.array_equal(x2, curve.evaluate(p2))
    assert np.max(np.abs(w2 @ x2 - target)) <= 1e-12


def _shift_to_zero_reference(weights, c):
    """The numpy ratio-test shift that the float kernel replaced."""
    pos = (c > 1e-14 * c.max()).nonzero()[0]
    ratios = weights[pos] / c[pos]
    i = int(ratios.argmin())
    weights -= ratios[i] * c
    j = int(pos[i])
    weights[j] = 0.0
    np.maximum(weights, 0.0, out=weights)
    return j


def _eliminate_reference(points, weights, target, floor):
    """The numpy elimination that the float kernel replaced: one SVD that
    also reads the rank, ratio-test shifts and rank-one updates on arrays
    along the exact null vectors and then the near-null ones, and the
    weights before the near-null shifts when those drift past the gate."""
    n = points.shape[1]
    active = np.flatnonzero(weights > floor)
    if active.size <= 1:
        return active
    a = np.vstack([(points[active] - target).T, np.ones(active.size)])
    _, s, vt = np.linalg.svd(a)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    exact = vt[n + 1:].shape[0]
    basis = np.concatenate([vt[n + 1:], vt[rank:n + 1]])
    w = weights[active]
    before = w.copy()
    for i in range(basis.shape[0]):
        if i == exact:
            before = w.copy()
        c = basis[i]
        if -c.min() > c.max():
            c = -c
        j = _shift_to_zero_reference(w, c)
        rest = basis[i + 1:]
        rest -= np.multiply.outer(rest[:, j] / c[j], c)
        rest[:, j] = 0.0
    if basis.shape[0] > exact:
        total = w.sum()
        if total == 0.0 or (np.abs(w @ points[active] / total - target).max()
                            / (1.0 + np.abs(target).max()) > RECON_TOL):
            w = before
    weights[active] = w
    return np.flatnonzero(weights > floor)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from([1e-9, 1e-4, 1e-1, 1.0]),
       deficiency=st.integers(0, 2))
def test_float_kernel_matches_numpy_bit_for_bit(n, seed, spread, deficiency):
    # 2(n+1) points clustered around a few centres, like the cluster means
    # of a merge round; a few weights at zero or below the floor.  With a
    # deficiency d, the points span an affine subspace of dimension n - d,
    # so [points - target; 1] has rank below n+1 and the near-null vectors
    # shift too
    rng = np.random.default_rng(seed)
    k = 2 * (n + 1)
    centres = rng.normal(size=(int(rng.integers(1, 4)), n))
    pts = centres[rng.integers(len(centres), size=k)]
    pts = pts + spread * rng.normal(size=(k, n))
    dim = n - min(deficiency, n)
    if dim < n:
        pts = pts[:, :dim] @ rng.normal(size=(dim, n)) + rng.normal(size=n)
    w = rng.uniform(0.0, 1.0, k)
    w[rng.random(k) < 0.15] = 0.0
    w[rng.integers(k)] += 0.5
    target = w @ pts / w.sum()
    floor = 1e-15 * math.fsum(w)
    w_ref, w_new = w.copy(), w.copy()
    active = np.flatnonzero(w > floor)
    if active.size > 1:
        w_new[active] = hull._null_shifts(pts[active], w[active].tolist(), target)
    assert np.array_equal(np.flatnonzero(w_new > floor),
                          _eliminate_reference(pts, w_ref, target, floor))
    assert w_new.tobytes() == w_ref.tobytes()
    # the single shift of the walk without a frame, along the last row of
    # vt, which the kernel sign-normalizes itself
    c = np.linalg.svd(hull._homogeneous(pts, target))[2][-1]
    w_list, w_ref = w.tolist(), w.copy()
    assert (hull._shift_to_zero(w_list, c.tolist())
            == _shift_to_zero_reference(w_ref, -c if -c.min() > c.max() else c))
    assert np.array(w_list).tobytes() == w_ref.tobytes()
