"""Zooming in on the offset frequency with longer and longer trains.

A single train of length N resolves the phase step dphi to roughly
1 / (2 N sqrt(M)) -- but only if N * dphi stays inside an unambiguous
fringe, so N is capped by the prior uncertainty.  The fix is iterative:
measure with a short train, feed the estimate back, then lengthen the
train now that the residual is smaller, and repeat.  Each stage shrinks
the uncertainty by the train's growth factor of 4, exponentially fast in
stage count.

Here a fiber comb's 200 kHz-class offset (dphi ~ 0.0126 rad, assumed known
to +/- 0.02 rad) is locked down to the 1e-7 rad level in six stages.
"""
import numpy as np

from combphase import RefineConfig, fiber_comb_preset, iterative_refine

comb = fiber_comb_preset()
true_dphi = comb.phase_step  # pretend the servo does not know this yet
config = RefineConfig(m_shots=10_000, max_stages=6, prior_bound=0.02, seed=5)

trace = iterative_refine(true_dphi, config)

print(f"true phase step: {true_dphi:.6f} rad, prior bound +/- {config.prior_bound} rad\n")
print(f"{'stage':>5} {'N':>7} {'estimate [rad]':>15} {'residual [rad]':>15} {'CRLB sigma':>12}")
for k, s in enumerate(trace.stages, 1):
    print(f"{k:5d} {s.n:7d} {s.dphi_hat:15.6e} {s.residual:15.2e} {s.crlb_sigma:12.2e}")

sigma_f = trace.final_crlb_sigma / (2.0 * np.pi * comb.rep_period)
print(f"\nlocked: {trace.locked} (|residual| <= 3 sigma)")
print(f"final phase uncertainty {trace.final_crlb_sigma:.2e} rad "
      f"= {sigma_f:.2e} Hz of offset frequency")
