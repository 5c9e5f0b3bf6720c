"""Pulse trains as phase amplifiers.

A comb's carrier-envelope phase advances by a fixed step dphi per pulse.
A train of N pi/2 pulses collapses, pairwise, into a pure z rotation
exp(-i N dphi sigma_z): the tiny per-pulse step is amplified N-fold before
it is read out interferometrically.  Splitting, delaying and interleaving
the train (pairing pulse k with pulse k + N_d) boosts this to N * N_d.

Here we build both trains explicitly from a realistic fiber-comb preset and
verify the closed forms against the brute-force pulse-by-pulse product.
"""
import numpy as np

from combphase import (
    closed_form_1b,
    closed_form_2b,
    compose_train,
    fiber_comb_preset,
    generate_train,
    split_delay_interleave,
    unitary_fidelity,
    wrap_pulse_count,
)

comb = fiber_comb_preset()
print(f"fiber comb: T = {comb.rep_period * 1e9:.0f} ns, nu_0 = {comb.offset_freq / 1e3:.0f} kHz")
print(f"per-pulse phase step dphi = {comb.phase_step:.6f} rad")
print(f"the CEO phase wraps a full turn every {wrap_pulse_count(comb)} pulses\n")

# straight train of N pi/2 pulses
n = 40
train = generate_train(comb, n)
u = compose_train(train)
v = closed_form_1b(train.phases)
print(f"1-train, N = {n}: fidelity(product, closed form) = {unitary_fidelity(u, v):.12f}")
print(f"accumulated z-phase = N dphi = {n * comb.phase_step:.4f} rad")

# split/delay/interleave: each pair sees the phase jump N_d steps at once
n_delay = 8
paired = split_delay_interleave(generate_train(comb, 24), n_delay)
u2 = compose_train(paired)
v2 = closed_form_2b(comb.phase_step, len(paired), n_delay)
print(f"\ndelayed train, {len(paired) // 2} pairs at N_d = {n_delay}:")
print(f"fidelity(product, closed form) = {unitary_fidelity(u2, v2):.12f}")
print(f"accumulated z-phase = N N_d dphi = {len(paired) * n_delay * comb.phase_step:.4f} rad")
