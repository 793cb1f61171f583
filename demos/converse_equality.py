"""The exact converse: every codebook is a prior evaluated at w = 1/M.

Draw random instances and random codebooks (repeats allowed), encode each
source letter to its closest codeword, and compare the resulting average
distortion with the quantile functional at 1/M under the empirical
codeword distribution. The two agree to machine precision; no inequality
is involved.
"""

import numpy as np

from oneshotrd import (
    Problem,
    code_prior,
    converse_equality_check,
    optimal_encoder,
    test_channel,
)

rng = np.random.default_rng(123)

print("== a hand-sized example ==")
problem = Problem([0.4, 0.35, 0.25], [0.2, 0.5, 0.3],
                  [[0.0, 0.6, 1.0], [0.7, 0.1, 0.4], [0.9, 0.8, 0.2]])
code = (1, 1, 2)  # codeword 1 twice, codeword 2 once
prior = code_prior(problem, code)
print(f"code {code} -> empirical prior {prior}")
check = converse_equality_check(problem, code)
print(f"optimal-encoding distortion {check.lhs:.12f}")
print(f"dtilde(1/3, code prior)     {check.rhs:.12f}")
print(f"gap {check.gap:.2e}")

print("\n== the encoder is the packing channel at w = 1/M ==")
enc = optimal_encoder(problem, code)
chan = test_channel(Problem(problem.p_x, prior, problem.d), 1.0 / len(code))
print("encoder rows:")
print(enc)
print(f"max difference from the packing channel: {np.max(np.abs(enc - chan)):.2e}")

print("\n== stress over random instances ==")
worst = 0.0
for _ in range(500):
    nx, ny = rng.integers(2, 7, size=2)
    p = Problem(rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny)),
                rng.uniform(0, 1, (nx, ny)))
    code = rng.integers(0, ny, rng.integers(1, 6))
    worst = max(worst, converse_equality_check(p, code).gap)
print(f"worst equality gap over 500 random codes: {worst:.2e}")
