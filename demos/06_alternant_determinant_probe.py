# A diagnostic for the alternant (Chebyshev-system) property: the
# determinant det[x_i(t_j)] must be non-zero for every tuple of distinct
# nodes.  Ordered node tuples form a convex set, so two sampled tuples with
# determinants of opposite signs certify a zero on the segment between
# them, at distinct nodes.  Finding no sign change is evidence, not a proof.

from exactquad import IntervalSpec, chebyshev_sample_test

print("powers {1, t, t^2} on [0, 1]  (a classical alternant system):")
report = chebyshev_sample_test(["1", "t", "t^2"], IntervalSpec(0, 1),
                               trial_count=300, seed=1)
print(f"  min scaled |det| over {report['trials']} trials: "
      f"{report['min_scaled_det']:.3e}")
print(f"  witness: {report['witness']}")

print("\nodd pair {t, t^3} on [-1, 1]  (det = t1 t2 (t2^2 - t1^2)):")
report = chebyshev_sample_test(["t", "t^3"], IntervalSpec(-1, 1),
                               trial_count=300, seed=1)
w = report["witness"]
a, b = w["segment"]
print(f"  det changes sign between the tuples {a}")
print(f"  and {b}")
print(f"  zero on that segment at {w['tuple']}")
print(f"  det there: {w['det']:.3e} against scale {w['scale']:.3e}")
print("  its nodes are distinct, so the pair is not an alternant system on [-1, 1]")
