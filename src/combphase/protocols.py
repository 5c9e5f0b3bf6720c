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
in dphi.  Every train is the k-th power of one SU(2) pulse or pair unitary,
and `_su2.matpow_with_grad` forms that power and its derivative in closed
form, elementwise and at the same cost for any k.

An SU(2) matrix [[a, b], [-conj(b), conj(a)]] is fixed by its top row
(a, b), and so is its dphi derivative, a tangent of SU(2).  The outcome model
therefore carries each train as the top rows of U and dU/ddphi, formed
elementwise for every kind, and reads both arms' amplitudes off them; no
2x2 matrix is built on that path (`RamseyOutcomeModel.train_unitary`
rebuilds one on request).

`RamseyOutcomeModel.evaluate` returns one float array of shape ``(2,) +
np.shape(dphi) + (4,)``, which unpacks as ``p, dp``: the outcome
probabilities and their dphi derivatives.  Its last axis holds one column
per outcome of the experiment, in the order arm 1 s = 0, arm 1 s = 1,
arm 2 s = 0, arm 2 s = 1, and `estimation` reads these columns directly.
"""
from __future__ import annotations

import itertools
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._su2 import SIGMA_MINUS, SIGMA_PLUS, ID2, matpow_with_grad, rot_z, su2_matrix, su2_ordered_product
from .comb import PulseTrain
from .pulses import Unitary, rwa_row

PROTOCOL_KINDS = ("1A", "1B", "2A", "2B", "phase_ref")
#: most pulses in a train; the train power's phase k alpha drifts by about k eps
MAX_PULSES = 1 << 20


@dataclass(frozen=True)
class ProtocolSpec:
    """Which protocol to run and at which operating point, of at most `MAX_PULSES` pulses."""

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
            if not isinstance(value, numbers.Real) or isinstance(value, bool) or not np.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if not 1 <= self.n_pulses <= MAX_PULSES:
            raise ValueError(f"n_pulses must lie in [1, {MAX_PULSES}], got {self.n_pulses}")
        if self.kind in ("1B", "2A", "2B") and self.n_pulses % 2:
            raise ValueError(f"protocol {self.kind} needs an even pulse count")
        if not 0.0 <= self.reference_phase < 2.0 * np.pi:
            raise ValueError("reference_phase must lie in [0, 2 pi)")
        if self.kind in ("2A", "2B") and self.n_delay < 1:
            raise ValueError("delayed protocols need n_delay >= 1")

    @property
    def enhancement(self) -> float:
        """Phase-accumulation factor chi: the fringe argument is chi * dphi, and
        chi is the train's phase rate at theta = pi/2, shared by each A/B pair."""
        if self.kind in ("1A", "1B"):
            return float(self.n_pulses + self.n_pulses % 2)
        if self.kind in ("2A", "2B"):
            return float(self.n_pulses * self.n_delay)
        return float(self.n_pulses * (self.n_pulses + 1))


def compose_train(t: PulseTrain) -> Unitary:
    """Ordered product of the per-pulse closed forms, later pulses to the left.

    Each pulse is the top row of its closed form (`pulses.rwa_matrix`), and
    the rows are multiplied as SU(2) top rows in a pairwise tree
    (`_su2.su2_ordered_product`); the 2x2 matrix is built once, at the end.
    """
    if len(t) == 0:
        raise ValueError("empty train")
    return Unitary(su2_matrix(su2_ordered_product(rwa_row(t.thetas, t.phases))))


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

#: i sigma_z on a top row: i (a, b) sigma_z = (i a, -i b)
_I_SIGMA_Z = np.array([1.0j, -1.0j])


def train_unitary_with_grad(spec: ProtocolSpec, dphi):
    """Top rows of U_tot(dphi) at the pulse area ``spec.theta`` and of its
    exact derivative in dphi, as (U, dU/ddphi).

    The two are stacked as one array of shape ``(2,) + np.shape(dphi) +
    (2,)``, which unpacks as the pair.  Each holds top rows (a, b) of the
    SU(2) matrix [[a, b], [-conj(b), conj(a)]], or of a tangent of SU(2)
    (see `_su2.su2_matrix`).  Every step works on 1-d arrays, since numpy
    multiplies complex scalars with other rounding than arrays, so each
    dphi of an array rounds exactly like that dphi alone.
    """
    x = np.asarray(dphi, dtype=float)
    d = x.reshape(-1)
    if spec.kind == "phase_ref":  # exp(2i T dphi sigma_z), T = N (N + 1) / 2
        twice_t = 2.0 * (spec.n_pulses * (spec.n_pulses + 1) / 2.0)
        t = np.zeros((2, d.size, 2), dtype=complex)
        t[0, :, 0] = np.exp(1.0j * (twice_t * d))
        t[1, :, 0] = (1.0j * twice_t) * t[0, :, 0]
        return t.reshape((2,) + x.shape + (2,))

    c, s = np.cos(spec.theta), np.sin(spec.theta)
    # m = g rot_z(-dphi) for the pulse or pair g, so dm = dg rot_z(-dphi) +
    # m i sigma_z; rot_z(-dphi) = diag(e^{i dphi}, e^{-i dphi}) acts elementwise
    rz = np.exp(np.multiply.outer(d, _I_SIGMA_Z))
    if spec.kind in ("1A", "1B"):  # the pulse rot_x(theta) = (c, i s)
        m = np.array([c, 1.0j * s]) * rz
        dm = m * _I_SIGMA_Z
        k = spec.n_pulses
    else:
        # 2A / 2B: the pair core rot_x(theta), core = (c, i s E) with
        # E = exp(-2i N_d dphi), is (c^2 - s^2 E, i s c (1 + E))
        nd = spec.n_delay
        big_e = np.exp((-2.0j * nd) * d)
        g = np.array([c * c, 1.0j * s * c]) + np.multiply.outer(big_e, np.array([-s * s, 1.0j * s * c]))
        m = g * rz
        dm = np.multiply.outer(big_e, np.array([2.0j * nd * s * s, 2.0 * nd * s * c])) * rz + m * _I_SIGMA_Z
        k = spec.n_pulses // 2
    t = matpow_with_grad(m, dm, k)
    # U = rot_z(k dphi) m^k, with rot_z(k dphi) = diag(f, conj(f))
    t *= np.exp((-1.0j * k) * d)[:, None]
    t[1] -= (1.0j * k) * t[0]
    return t.reshape((2,) + x.shape + (2,))


def ramsey_probabilities(train, xi):
    """Arm distributions and their dphi derivatives from a train ``(U, dU/ddphi)``
    of top rows (see `train_unitary_with_grad`).

    Arm 1 is Hadamard, reference phase ``xi`` on |1>, the train and an
    undoing Hadamard; arm 2 is the train alone on |0>.  Returns (P,
    dP/ddphi) stacked as one array of shape ``(2,) + shape + (4,)``, whose
    four outcome columns are arm 1 s = 0, 1, then arm 2 s = 0, 1.  ``xi``
    broadcasts against the train's dphi shape: one train of shape
    (1,) and many reference phases, or many dphi and one reference phase.

    With U = (a, b), arm 2 ends in (a, -conj(b)), and arm 1 in
    (f + g, f - g) / 2 with f = a + e^{i xi} b and g = e^{i xi} conj(a) -
    conj(b); the derivatives follow from dU in the same way.
    """
    t = np.asarray(train)  # (2, ..., 2): U, dU/ddphi
    a, b = t[..., 0], t[..., 1]
    e = np.exp(1.0j * xi)
    f = a + e * b
    g = e * a.conj() - b.conj()
    # the amplitudes of arm 1's two outcomes, then arm 2's, which takes arm
    # 1's shape where xi has more points than the train
    amp = np.empty(f.shape + (4,), dtype=complex)
    np.add(f, g, out=amp[..., 0])
    np.subtract(f, g, out=amp[..., 1])
    amp[..., :2] *= 0.5
    amp[..., 2:] = t
    out = np.empty(amp.shape)
    np.square(np.abs(amp[0]), out=out[0])
    np.multiply(2.0, (np.conj(amp[0]) * amp[1]).real, out=out[1])
    return out


@dataclass(frozen=True)
class RamseyOutcomeModel:
    """Two-arm measurement distributions P(s | dphi) at the pulse area
    ``spec.theta``, with their dphi derivatives.

    `evaluate` returns them as one array of shape ``(2,) + np.shape(dphi)
    + (4,)`` that unpacks as ``p, dp``, with one column per outcome: arm 1
    s = 0, arm 1 s = 1, arm 2 s = 0, arm 2 s = 1.  It forms the train's top
    rows (`train_unitary_with_grad`) and the arms' probabilities from them
    (`ramsey_probabilities`), on 1-d arrays throughout, so each row of a
    batched call is bit for bit the call at that dphi alone.

    ``cache`` holds what `estimation` computes on this model, so the records
    of a study or of the locks sharing the model reuse it.  It has three
    kinds of entry: the fringe grid of each fit window with the window's
    peak information, the result of each distinct fit (`ml_estimate`'s
    memo), and, under ``"records"``, the records that a study or the
    lockstep of a run's locks drew (`estimation._prefill`), which
    `sample_record` returns instead of drawing them again.  It lives and
    dies with the model and takes no part in comparison or hashing.
    """

    spec: ProtocolSpec
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def evaluate(self, dphi):
        """(P, dP/ddphi) at ``dphi``, in the layout the class docstring gives."""
        train = train_unitary_with_grad(self.spec, dphi)
        return ramsey_probabilities(train, self.spec.reference_phase)

    def train_unitary(self, dphi: float) -> np.ndarray:
        """U_tot(dphi) as a (..., 2, 2) matrix."""
        return su2_matrix(train_unitary_with_grad(self.spec, dphi)[0])


def ramsey_model(spec: ProtocolSpec) -> RamseyOutcomeModel:
    return RamseyOutcomeModel(spec)
