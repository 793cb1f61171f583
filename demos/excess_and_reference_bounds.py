"""Excess distortion as a thresholded instance, plus reference comparisons.

Replacing the distortion matrix by the indicator of exceeding a threshold
turns every exact tool into an excess-probability tool. The script traces
a rate/excess curve, verifies the column-max identity behind the matching
converse, and sweeps the sub-nat gap between our closed-form rate penalty
and the log log penalty it relaxes to.
"""

import numpy as np

from oneshotrd import (
    Problem,
    bound_gap_comparison,
    excess_dtilde,
    excess_rate,
    lemma4_check,
    m_functional,
    test_channel,
)

rng = np.random.default_rng(5)
problem = Problem(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)),
                  rng.uniform(0, 1, (4, 4)))
d_th = 0.45

print(f"== excess-distortion curve at threshold {d_th} ==")
ceiling = excess_dtilde(problem, 0.0, d_th)
print(f"excess probability with no coding: {ceiling:.6f}")
print(f"{'delta':>8} {'rate (nats)':>12}")
for delta in np.linspace(0.05, ceiling, 8):
    print(f"{delta:>8.4f} {excess_rate(problem, float(delta), d_th):>12.6f}")

print("\n== the column-max functional on an induced joint ==")
chan = test_channel(problem, 0.4)
joint = problem.p_x[:, None] * chan
m_val = m_functional(joint)
check = lemma4_check(joint)
print(f"M(joint) = {m_val:.6f}")
print(f"min over priors of the max-divergence to a product: {check.lhs:.6f}")
print(f"log M(joint) = {check.rhs:.6f}  (gap {check.gap:.2e})")
print(f"for a product joint: M = {m_functional(np.outer(problem.p_x, problem.q_y)):.6f}")

print("\n== closed-form penalty vs the log log reference ==")
print(f"{'x':>12} {'g(x)':>10} {'loglog x':>10} {'diff':>8}")
for x in np.geomspace(2.0, 1e6, 7):
    cmp_ = bound_gap_comparison(float(x))
    print(f"{x:>12.1f} {cmp_.ours:>10.4f} {cmp_.theirs:>10.4f} {cmp_.diff:>8.4f}")
diffs = [bound_gap_comparison(float(x)).diff for x in np.geomspace(2.0, 1e6, 500)]
print(f"gap stays inside (0, 1) nats across the sweep: "
      f"min {min(diffs):.4f}, max {max(diffs):.4f}")
print(f"asymptote: log(4/3) = {np.log(4/3):.4f}")
