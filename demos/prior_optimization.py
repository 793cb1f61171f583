"""Optimizing the coding prior: the bound sandwich and memory effects.

The best lower bound at rate R minimizes the quantile functional over
priors, a convex but nonsmooth problem. At t = e^R it is exactly the
k-median linear program, so one sparse LP solve finds the optimal prior,
and the LP's dual certifies the minimum from below. The exact average
distortion of M = floor(e^R) codewords drawn i.i.d. from the LP's prior or
from q_y is achievable at M; pairing it with the certified lower bound
shows how tightly the best code of M words is pinned. The last section runs the
product-source experiment: on a two-letter extension, can a memoryless
prior match an unrestricted one?
"""

import numpy as np

from oneshotrd import Problem, dhat_sandwich, optimize_prior
from oneshotrd.converse import product_prior_experiment

rng = np.random.default_rng(26)  # rows prefer different columns; the curve bends
problem = Problem(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)),
                  rng.uniform(0, 1, (3, 3)))

print("== prior optimization at a few rates ==")
print(f"{'rate':>6} {'value':>12} {'dual bound':>12} {'certificate gap':>16}  prior")
for rate in (0.25, 0.75, 1.5):
    res = optimize_prior(problem, rate)
    print(f"{rate:>6.2f} {res.value:>12.8f} {res.dual_bound:>12.8f} "
          f"{res.certificate_gap:>16.2e}  {np.round(res.q_star, 4)}")
print("(the certificate gap is value minus the LP dual bound)")

print("\n== the sandwich around the operational curve ==")
print(f"{'rate':>6} {'M':>3} {'lower':>12} {'upper':>12}")
for rate in (0.5, 1.0, 2.0):
    bounds = dhat_sandwich(problem, rate)
    print(f"{rate:>6.2f} {bounds.M:>3} {bounds.lower:>12.8f} {bounds.upper:>12.8f}")

print("\n== memoryless vs unrestricted priors on the doubled source ==")
report = product_prior_experiment(problem, n=2, rate=0.6, seed=3)
print(f"best memoryless (product) prior value: {report.product_value:.8f}")
print(f"unrestricted prior value:              {report.full_value:.8f}")
print(f"gap (full - product): {report.gap:.2e}")
if report.gap < -1e-6:
    print("a prior with memory strictly beats every memoryless prior here.")
else:
    print("no measurable advantage for priors with memory on this instance.")
