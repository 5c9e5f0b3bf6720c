"""Multi-pulse protocol composition and the Ramsey outcome model.

Protocol kinds
--------------
1A : one train of N weak pulses (theta << 1); excitation amplitude carries
     a sin(N dphi)/sin(dphi) interference factor.
1B : one train of N pi/2-class pulses; pairs of pulses collapse to a pure
     sigma_z rotation, total exp(-i N dphi sigma_z).
2A : split/delayed/interleaved train operated at theta << 1.
2B : split/delayed/interleaved train at theta = pi/2; the pair phase
     difference is boosted by the delay, total exp(-i N N_d dphi sigma_z).
phase_ref : ideal sigma_x gates interleaved between pulses, accumulating
     the *sum* of the CEO phases instead of differences.

The outcome model implements the two-arm Ramsey experiment: arm 1 applies
Hadamard, reference phase xi on |1>, the train, and an undoing Hadamard;
arm 2 applies the train directly to |0> (no Hadamards), measuring the raw
excitation probability.  The pulse area theta is known and read from the
`ProtocolSpec`; all probabilities come with their exact analytic derivative
in dphi, obtained by product-rule accumulation through a square-and-multiply
matrix power.
"""
from __future__ import annotations

import itertools
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._su2 import (
    HADAMARD, SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z, ID2, matpow_with_grad, ordered_product, rot_x, rot_z,
)
from .comb import PulseTrain
from .pulses import Unitary, rwa_matrix

PROTOCOL_KINDS = ("1A", "1B", "2A", "2B", "phase_ref")


@dataclass(frozen=True)
class ProtocolSpec:
    """Which protocol to run and at which operating point."""

    kind: str
    n_pulses: int
    n_delay: int = 0
    reference_phase: float = 0.0
    theta: float = np.pi / 2

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        for name in ("n_pulses", "n_delay"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("theta", "reference_phase"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and np.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")
        if self.kind in ("1B", "2A", "2B") and self.n_pulses % 2:
            raise ValueError(f"protocol {self.kind} needs an even pulse count")
        if not 0.0 <= self.reference_phase < 2.0 * np.pi:
            raise ValueError("reference_phase must lie in [0, 2 pi)")
        if self.kind in ("2A", "2B") and self.n_delay < 1:
            raise ValueError("delayed protocols need n_delay >= 1")

    @property
    def enhancement(self) -> float:
        """Phase-accumulation factor chi(N): the fringe argument is chi * dphi."""
        if self.kind == "1B":
            return float(self.n_pulses)
        if self.kind == "2B":
            return float(self.n_pulses * self.n_delay)
        if self.kind == "2A":
            return float(self.n_delay)
        if self.kind == "phase_ref":
            return float(self.n_pulses * (self.n_pulses + 1))
        return 1.0  # 1A: no coherent enhancement


def compose_train(t: PulseTrain) -> Unitary:
    """Ordered product of the per-pulse closed forms, later pulses to the left."""
    if len(t) == 0:
        raise ValueError("empty train")
    return Unitary(ordered_product(rwa_matrix(t.thetas, t.phases)))


def closed_form_1a(theta: float, dphi: float, n: int) -> np.ndarray:
    """First-order weak-pulse train unitary (valid for N*theta small).

    Returns a plain matrix: the expansion is unitary only to O(theta^2).
    """
    if n * theta > 0.3:
        warnings.warn("closed_form_1a used outside the weak-pulse regime", stacklevel=2)
    if abs(np.sin(dphi)) < 1e-12:
        ratio = float(n)  # removable singularity at dphi = 0 mod pi
    else:
        ratio = np.sin(n * dphi) / np.sin(dphi)
    alpha = (n + 1) * dphi
    return ID2 + 1.0j * theta * ratio * (
        np.exp(-1.0j * alpha) * SIGMA_PLUS + np.exp(1.0j * alpha) * SIGMA_MINUS
    )


def closed_form_1b(phases: np.ndarray) -> Unitary:
    """Pairwise-collapsed train unitary exp(-2i sum(phi_even - phi_odd) sigma_z).

    ``phases`` is the ordered phase list of an even-length train; pair k is
    (phases[2k], phases[2k+1]) with the later pulse second.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.size % 2:
        raise ValueError("closed_form_1b needs an even number of pulses")
    s = float(np.sum(phases[1::2] - phases[0::2]))
    return Unitary(rot_z(2.0 * s))


def closed_form_2b(dphi: float, n: int, n_delay: int) -> Unitary:
    """Delayed-interleave train unitary exp(-i sigma_z dphi N N_d)."""
    if n % 2:
        raise ValueError("closed_form_2b needs an even number of pulses")
    return Unitary(rot_z(float(n * n_delay) * dphi))


def phase_reference_sequence(t: PulseTrain) -> Unitary:
    """Train with ideal sigma_x gates interleaved: exp(2i sum(phi_m) sigma_z)."""
    return Unitary(rot_z(-2.0 * float(np.sum(t.phases))))


def brute_force_permutation_phase(phases) -> float:
    """Exhaustive maximum of |sum of pair phase differences| over pairings.

    Any ordering/pairing of the pulses assigns half the phases a + sign and
    half a - sign, so the search space is the balanced sign assignments.
    """
    phases = np.asarray(phases, dtype=float)
    n = phases.size
    if n % 2:
        raise ValueError("even-length phase list required")
    total = phases.sum()
    best = 0.0
    for plus in itertools.combinations(range(n), n // 2):
        s = phases[list(plus)].sum()
        best = max(best, abs(2.0 * s - total))
    return float(best)


def optimal_permutation_phase(phases) -> tuple[float, list[int]]:
    """Largest accumulated phase over single-use rearrangements, with witness.

    The optimum pairs the smallest half of the sorted phases against the
    largest half; the witness lists source indices in interleaved pair order
    (low_1, high_1, low_2, high_2, ...).
    """
    phases = np.asarray(phases, dtype=float)
    n = phases.size
    if n % 2:
        raise ValueError("even-length phase list required")
    order = np.argsort(phases, kind="stable")
    low, high = order[: n // 2], order[n // 2 :]
    value = float(phases[high].sum() - phases[low].sum())
    witness = [int(i) for pair in zip(low, high) for i in pair]
    return value, witness


# --- Ramsey outcome model -------------------------------------------------

def train_unitary_with_grad(spec: ProtocolSpec, dphi):
    """U_tot(dphi) at the pulse area ``spec.theta`` and its exact derivative in
    dphi, as (U, dU/ddphi).

    ``dphi`` may be a numpy array; each result then has shape
    ``dphi.shape + (2, 2)``.
    """
    if spec.kind == "phase_ref":
        total = dphi * spec.n_pulses * (spec.n_pulses + 1) / 2.0
        u = rot_z(-2.0 * total)
        return u, 2.0j * (spec.n_pulses * (spec.n_pulses + 1) / 2.0) * (SIGMA_Z @ u)

    a = rot_x(spec.theta)
    if spec.kind in ("1A", "1B"):
        g, dg_dphi = a, None
        k = spec.n_pulses
    else:  # 2A / 2B: pair unitary with delay-boosted inner phase
        nd = spec.n_delay
        core = rot_z(nd * dphi) @ a @ rot_z(-nd * dphi)
        g = core @ a
        dg_dphi = -1.0j * nd * (SIGMA_Z @ core - core @ SIGMA_Z) @ a
        k = spec.n_pulses // 2

    dinv = rot_z(-dphi)
    m = g @ dinv
    dm_dphi = 1.0j * (g @ (SIGMA_Z @ dinv))
    if dg_dphi is not None:
        dm_dphi = dg_dphi @ dinv + dm_dphi
    p, dp_dphi = matpow_with_grad(m, dm_dphi, k)
    dz = rot_z(k * dphi)
    u = dz @ p
    return u, -1.0j * k * (SIGMA_Z @ u) + dz @ dp_dphi


def ramsey_probabilities(train, xi):
    """Arm distributions and their dphi derivatives from a train ``(U, dU/ddphi)``.

    Arm 1 is Hadamard, reference phase ``xi`` on |1>, the train and an
    undoing Hadamard; arm 2 is the train alone on |0>.  Returns (p1, p2,
    dp1_dphi, dp2_dphi), each indexed by the outcome s on its last axis.
    Either ``xi`` may be an array (one train, many reference phases) or the
    train may be a stack (many dphi, one reference phase).
    """
    h = HADAMARD[0, 0]
    e = h * np.exp(1.0j * np.asarray(xi, dtype=float))[..., None, None]
    t = np.stack(train, axis=-3)  # (..., 2, 2, 2): U, dU/ddphi
    # arm 1 is HADAMARD @ t @ [h, h e^{i xi}], written out elementwise so
    # that a stack of trains rounds exactly like each train on its own
    w = t[..., :, 0] * h + t[..., :, 1] * e
    w0, w1 = w[..., 0], w[..., 1]
    arms = []
    for psi in (np.stack([w0 + w1, w0 - w1], axis=-1) * h, t[..., :, 0]):
        amp = psi[..., 0, :]
        arms.append((np.abs(amp) ** 2, 2.0 * np.real(np.conj(amp) * psi[..., 1, :])))
    (p1, dp1_dphi), (p2, dp2_dphi) = arms
    return p1, p2, dp1_dphi, dp2_dphi


@dataclass(frozen=True)
class RamseyOutcomeModel:
    """Two-arm measurement distributions P1/P2(s | dphi) at the pulse area
    ``spec.theta``, with their dphi derivatives.

    ``cache`` holds what `estimation` computes on this model, so the records
    of a study or of the locks sharing the model reuse it: the fringe grid of
    each fit window with the window's peak information, the outcome
    probabilities `sample_record` last drew from, with their true dphi, and
    the result of each distinct fit (`ml_estimate`'s memo).  It lives and dies with the
    model and takes no part in comparison or hashing.
    """

    spec: ProtocolSpec
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def evaluate(self, dphi):
        """Return (p1, p2, dp1_dphi, dp2_dphi).

        Each entry is indexed by the outcome s in {0, 1} on its last axis; an
        array ``dphi`` adds its shape in front.
        """
        train = train_unitary_with_grad(self.spec, dphi)
        return ramsey_probabilities(train, self.spec.reference_phase)

    def train_unitary(self, dphi: float) -> np.ndarray:
        return train_unitary_with_grad(self.spec, dphi)[0]


def ramsey_model(spec: ProtocolSpec) -> RamseyOutcomeModel:
    return RamseyOutcomeModel(spec)
