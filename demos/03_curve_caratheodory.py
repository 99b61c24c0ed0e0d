# The geometric engine behind the rules: any point in the convex hull of a
# continuous curve in R^n is a convex combination of at most n curve
# points, one fewer than the classical Caratheodory count of n+1.
#
# On a discrete measure sum_i w_i delta(t_i) that statement is the
# quadrature theorem: at most n nodes with non-negative weights reproduce
# the measure's moments.  So reduce_on_curve is synthesis on the
# combination's atomic measure, and the two theorems give one answer.
# The finite theorem, for points on no curve, keeps n+1.

import numpy as np

from exactquad import (
    ConvexCombination,
    CurveSystem,
    IntervalSpec,
    MeasureSpec,
    caratheodory_finite,
    reduce_on_curve,
    synthesize_rule,
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
print(f"finite Caratheodory theorem: {params.size} -> {len(pruned)} points")

reduced = reduce_on_curve(curve, ConvexCombination(params, weights, 1.0), target)
print(f"curve theorem:               {params.size} -> {len(reduced)} points")
print("final parameters:", reduced.params)
print("final weights:   ", reduced.weights)

reconstruction = reduced.weights @ curve.evaluate(reduced.params)
print("reconstruction error:", np.max(np.abs(reconstruction - target)))

# the quadrature theorem on the same atoms: the same nodes and weights
rule = synthesize_rule(curve, MeasureSpec(curve.interval,
                                          atoms=tuple(zip(params, weights))))
gap = max(np.abs(rule.nodes - reduced.params).max(),
          np.abs(rule.weights - reduced.weights).max())
print(f"quadrature theorem:          {len(rule)} nodes, largest difference {gap:.1e}")
