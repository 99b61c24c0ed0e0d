# The geometric engine behind the rules: any point in the convex hull of a
# continuous curve in R^n is a convex combination of at most n curve
# points, one fewer than the classical Caratheodory count of n+1.
#
# The walk below starts from n+1 = 3 support points on the moment curve
# (t, t^2) and slides the smallest parameter until a barycentric
# coordinate crosses zero, leaving just 2 points.

import numpy as np

from exactquad import (
    ConvexCombination,
    CurveSystem,
    IntervalSpec,
    caratheodory_finite,
    reduce_on_curve,
)

curve = CurveSystem.from_texts(["t", "t^2"], IntervalSpec(0, 1))

# a dense cloud of curve points with random positive weights
rng = np.random.default_rng(0)
params = np.linspace(0.0, 1.0, 400)
weights = rng.uniform(0.1, 1.0, params.size)
weights /= weights.sum()
target = weights @ curve.evaluate(params)
print("target point (weighted mean of 400 curve points):", target)

pruned = caratheodory_finite(curve.evaluate(params), weights, target,
                             params=params)
print(f"classical Caratheodory pruning: {params.size} -> {len(pruned)} points")

reduced = reduce_on_curve(curve, pruned, target)
print(f"curve reduction:                {len(pruned)} -> {len(reduced)} points")
print("final parameters:", reduced.params)
print("final weights:   ", reduced.weights)

reconstruction = reduced.weights @ curve.evaluate(reduced.params)
print("reconstruction error:", np.max(np.abs(reconstruction - target)))
