"""Maximum-likelihood readout of the comb offset phase, against the CRLB.

A fixed-step pulse train followed by a two-arm Ramsey readout turns the
per-pulse phase step dphi into a fringe shift N * dphi.  We simulate shot
noise, fit dphi by maximum likelihood over many repetitions, and compare
the empirical standard deviation with the Cramer-Rao lower bound computed
from the Fisher information of the same model.

The pulse area theta is known: the ProtocolSpec holds it, the model reads
it there and the fit holds it fixed (sample_record and ml_estimate still
take it, and it must equal the spec's).  The bound on the variance is
1 / I_dphidphi, the Fisher information in dphi.  At a balanced fringe it
is 4 N^2 M, so the bound is sigma = 1 / (2 N sqrt(M)); the empirical
ratio should sit close to 1.
"""
import numpy as np

from combphase import (
    ProtocolSpec,
    fisher_matrix,
    ml_estimate,
    optimize_reference_phase,
    ramsey_model,
    sample_record,
)

n, m_shots, n_seeds = 100, 2000, 300
theta = np.pi / 2
dphi_true = 0.2 / n  # same comfortable spot on the fringe for any N

xi = optimize_reference_phase(ProtocolSpec("1B", n, 0, 0.0, theta), dphi_true)
spec = ProtocolSpec("1B", n, 0, xi, theta)
model = ramsey_model(spec)

info = fisher_matrix(model, dphi_true, m_shots)
sigma_bound = 1.0 / np.sqrt(info)
print(f"1-train, N = {n}, M = {m_shots} shots/arm, reference phase xi = {xi:.4f}")
print(f"Fisher information I_dphi = {info:.4e}  (4 N^2 M = {4 * n**2 * m_shots:.4e})")
print(f"CRLB sigma_dphi = {sigma_bound:.3e} rad\n")

estimates = []
for s in range(n_seeds):
    record = sample_record(model, theta, dphi_true, m_shots, seed=1000 + s)
    fit = ml_estimate(record, model, init=(theta, 0.0))
    estimates.append(fit.dphi_hat)
estimates = np.array(estimates)

sigma_emp = estimates.std(ddof=1)
print(f"{n_seeds} simulated experiments:")
print(f"mean dphi_hat = {estimates.mean():.6e}  (true {dphi_true:.6e})")
print(f"empirical sigma = {sigma_emp:.3e} rad")
print(f"sigma / CRLB = {sigma_emp / sigma_bound:.3f}   (1.0 = saturated bound)")
