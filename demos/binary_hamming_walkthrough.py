"""Walk through the core quantities on the binary Hamming source.

Uniform source, uniform prior, Hamming distortion. Everything here has a
closed form, which makes it the natural first stop: the quantile functional
is zero until half the prior mass is used, the exact random-coding
distortion is 2^-M, and Monte Carlo agrees to within its own noise.
"""

import numpy as np

from oneshotrd import (
    Problem,
    build_dtilde1,
    dtilde,
    dtilde_inverse,
    exact_expected_distortion,
    rtilde,
    simulate_random_code,
    test_channel,
)

problem = Problem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])

print("== the quantile-distortion functional ==")
pwl = build_dtilde1(problem)
print(f"breakpoints of dtilde1: {pwl.breakpoints}")
for w in (0.25, 0.5, 0.75, 1.0):
    print(f"  w={w:4.2f}: dtilde1={pwl.value(w):.4f}  dtilde={dtilde(problem, w):.4f}")
print("dtilde stays 0 until w=0.5: half the prior mass already decodes perfectly.")

print("\n== inversion and the associated rate ==")
z = 1.0 / 3.0
w_star = dtilde_inverse(problem, z)
print(f"smallest quantile with dtilde >= 1/3: w = {w_star:.6f}")
print(f"rate for distortion 1/3: {rtilde(problem, z):.6f} nats (log 4/3 = {np.log(4/3):.6f})")

print("\n== the packing channel at w = 0.75 ==")
chan = test_channel(problem, 0.75)
print(chan)
avg = float(np.sum(problem.p_x[:, None] * chan * problem.d))
print(f"its average distortion: {avg:.6f} = dtilde(0.75) = {dtilde(problem, 0.75):.6f}")

print("\n== exact random coding vs Monte Carlo ==")
print(f"{'M':>3} {'exact':>12} {'2^-M':>12} {'monte carlo':>14} {'stderr':>10}")
for m in (2, 3, 5, 8):
    exact = exact_expected_distortion(problem, m)
    mc = simulate_random_code(problem, m, trials=200000, seed=42)
    print(f"{m:>3} {exact:>12.8f} {2.0**-m:>12.8f} {mc.mean:>14.8f} {mc.stderr:>10.2e}")
print("the codebook misses a source letter only when all M draws land on the")
print("other reproduction, which happens with probability exactly 2^-M.")
