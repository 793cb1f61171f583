"""Two detours that land on the same number.

The quantile functional can be reached through a binary hypothesis test
(optimal power against the distortion-weighted measure, with an explicit
worst-case source distribution) or through a channel minimization under a
max-divergence cap (a greedy fill of the cheapest reproduction letters).
This script runs both on a random instance and compares against the direct
piecewise evaluation, then checks the information-spectrum relation.
"""

import numpy as np

from oneshotrd import (
    Problem,
    d_inf,
    distortion_measure,
    dtilde,
    dtilde1,
    inf_form_value,
    info_spectrum_check,
    np_beta,
    sup_form_value,
    witness_qx,
)

rng = np.random.default_rng(7)
problem = Problem(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(5)),
                  np.round(rng.uniform(0, 1, (4, 5)) * 4) / 4)
w = 0.37

print(f"direct evaluation: dtilde1({w}) = {dtilde1(problem, w):.12f}")

print("\n== hypothesis-testing route ==")
q_x, lam = witness_qx(problem, w)
print(f"worst-case source distribution {np.round(q_x, 4)} (weight {lam:.4f})")
beta, test = np_beta(w, q_x[:, None] * problem.q_y[None, :],
                     distortion_measure(problem))
print(f"optimal test power at level {w}: beta = {beta:.12f}")
print(f"test threshold {test.threshold:.4f}, achieved level {test.achieved_alpha:.12f}")
print(f"sup-form value = {sup_form_value(problem, w):.12f}")
for _ in range(3):
    other = rng.dirichlet(np.ones(problem.x_size))
    b, _ = np_beta(w, other[:, None] * problem.q_y[None, :],
                   distortion_measure(problem))
    print(f"  random source distribution gives beta = {b:.12f} (never larger)")

print("\n== channel-minimization route ==")
rate = -np.log(w)
res = inf_form_value(problem, rate)
print(f"greedy channel value at rate {rate:.4f}: {res.value:.12f}")
print(f"dtilde({w}) = {dtilde(problem, w):.12f}")
joint = problem.p_x[:, None] * res.channel
ref = problem.p_x[:, None] * problem.q_y[None, :]
print(f"max-divergence of the greedy channel: {d_inf(joint, ref):.6f} <= {rate:.6f}")

print("\n== information-spectrum relation ==")
chan = np.stack([rng.dirichlet(np.ones(problem.y_size)) for _ in range(problem.x_size)])
check = info_spectrum_check(problem, chan, rate=1.0, delta=0.2)
print(f"lhs = {check.lhs:.6f}  <=  rhs = {check.rhs:.6f}  ({check.holds})")
