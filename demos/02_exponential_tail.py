# Exact rules are not limited to compact intervals.  Here the measure is
# exp(-t) dt on [0, inf): the library maps the half-line onto a finite
# range (the exp-sinh change of variables) and integrates there in one
# adaptive pass, then places two nodes reproducing the first two moments
# Gamma(2) = 1 and Gamma(3) = 2.

import math

from exactquad import (
    CurveSystem,
    IntervalSpec,
    MeasureSpec,
    integrate_system,
    parse,
    synthesize_rule,
)

measure = MeasureSpec(IntervalSpec(0.0, math.inf), density=parse("exp(-t)"))
moments = CurveSystem.from_texts(["t", "t^2"], measure.interval)

# the pass's integrals carry its nodes and the compact window that holds them
integrals = integrate_system(measure, moments)
window = integrals.window
print(f"window of the {integrals.nodes.size} integration nodes: "
      f"[{window.lower:g}, {window.upper:g}]")
print(f"tail mass beyond the window: {math.exp(-window.upper):.3e}")
print("moment integrals over [0, inf):", integrals.values)

rule = synthesize_rule(moments, measure)
print("nodes:  ", rule.nodes)
print("weights:", rule.weights)

for k, (text, exact) in enumerate([("t", 1.0), ("t^2", 2.0)]):
    got = float(rule.weights @ moments.evaluate(rule.nodes)[:, k])
    print(f"  E[{text}] exact {exact}, rule {got:.15f}")
