"""Maximum-likelihood readout of the comb offset phase, against the CRLB.

A fixed-step pulse train followed by a two-arm Ramsey readout turns the
per-pulse phase step dphi into a fringe shift N * dphi.  We simulate shot
noise, fit dphi by maximum likelihood over many repetitions, and compare
the empirical standard deviation with the Cramer-Rao lower bound computed
from the Fisher information of the same model.

The pulse area theta is known: the ProtocolSpec holds it, the model reads
it there and the fit holds it fixed.  The bound on the variance is
1 / I_dphidphi, the Fisher information in dphi.  At a balanced fringe it
is 4 N^2 M, so the bound is sigma = 1 / (2 N sqrt(M)); the empirical
ratio should sit close to 1.

The experiments run as one `estimator_study`: it sets the reference
phase of maximal information at the prior's centre, dphi = 0, before any
data, draws one record per seed, fits each by
maximum likelihood and returns the estimates with the bound.  Records
that repeat are fit once, and the study counts the distinct ones.
"""
import numpy as np

from combphase import ProtocolSpec, estimator_study

n, m_shots = 100, 2000
seeds = range(1000, 1300)
theta = np.pi / 2
dphi_true = 0.2 / n  # same comfortable spot on the fringe for any N

spec = ProtocolSpec("1B", n, 0, 0.0, theta)
estimates, bound, diagnostics = estimator_study(spec, dphi_true, m_shots, seeds)

sigma_bound = np.sqrt(bound)
print(f"1-train, N = {n}, M = {m_shots} shots/arm")
print(f"Fisher information I_dphi = {1.0 / bound:.4e}  (4 N^2 M = {4 * n**2 * m_shots:.4e})")
print(f"CRLB sigma_dphi = {sigma_bound:.3e} rad\n")

sigma_emp = estimates.std(ddof=1)
print(f"{len(seeds)} simulated experiments:")
print(f"mean dphi_hat = {estimates.mean():.6e}  (true {dphi_true:.6e})")
print(f"empirical sigma = {sigma_emp:.3e} rad")
print(
    f"sigma / CRLB = {sigma_emp / sigma_bound:.3f}   (1.0 = saturated bound), "
    f"from {diagnostics['distinct_records']} distinct records"
)
