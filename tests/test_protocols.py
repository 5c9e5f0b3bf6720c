import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combphase._su2 import rot_x, rot_z
from combphase.comb import JitterSpec, PulseTrain, apply_phase_jitter, fiber_comb_preset, generate_train
from combphase.protocols import (
    ProtocolSpec,
    brute_force_permutation_phase,
    closed_form_1a,
    closed_form_1b,
    closed_form_2b,
    compose_train,
    optimal_permutation_phase,
    phase_reference_sequence,
    ramsey_model,
)
from combphase.pulses import matrix_fidelity, rwa_matrix


def _train(phases, theta=np.pi / 2):
    phases = np.asarray(phases, dtype=float)
    n = phases.size
    return PulseTrain(np.arange(n) * 1e-8, phases, np.full(n, theta))


def _brute_product(phases, theta):
    u = np.eye(2, dtype=complex)
    for phi in phases:
        u = rwa_matrix(theta, phi) @ u
    return u


def test_protocol_spec_validation():
    with pytest.raises(ValueError):
        ProtocolSpec("3C", 4)
    with pytest.raises(ValueError):
        ProtocolSpec("1B", 5)  # odd pulse count
    with pytest.raises(ValueError):
        ProtocolSpec("2B", 4)  # missing n_delay
    with pytest.raises(ValueError):
        ProtocolSpec("1B", 4, reference_phase=7.0)


def test_enhancement_factors():
    assert ProtocolSpec("1A", 7).enhancement == 1.0
    assert ProtocolSpec("1B", 10).enhancement == 10.0
    assert ProtocolSpec("2A", 10, 5).enhancement == 5.0
    assert ProtocolSpec("2B", 10, 5).enhancement == 50.0
    assert ProtocolSpec("phase_ref", 10).enhancement == 110.0


def test_pair_law_two_pi_half_pulses():
    # U(phi_b) U(phi_a) = -exp(-2 i (phi_b - phi_a) sigma_z)
    phi_a, phi_b = 0.3, 1.1
    u = rwa_matrix(np.pi / 2, phi_b) @ rwa_matrix(np.pi / 2, phi_a)
    expected = -rot_z(2.0 * (phi_b - phi_a))
    assert np.allclose(u, expected, atol=1e-12)


@given(dphi=st.floats(-0.5, 0.5), n_half=st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_closed_form_1b_matches_product(dphi, n_half):
    phases = np.arange(2 * n_half) * dphi
    u = _brute_product(phases, np.pi / 2)
    v = closed_form_1b(phases).matrix
    assert matrix_fidelity(u, v) == pytest.approx(1.0, abs=1e-11)


def test_compose_train_matches_brute_product_on_long_jittered_train():
    train = apply_phase_jitter(
        generate_train(fiber_comb_preset(), 10_000, start_index=17), JitterSpec(kind="white", sigma=0.1), 3
    )
    assert np.all(train.thetas == train.thetas[0])
    u = compose_train(train).matrix
    assert np.max(np.abs(u - _brute_product(train.phases, train.thetas[0]))) <= 1e-10


def test_closed_form_1b_rejects_odd():
    with pytest.raises(ValueError):
        closed_form_1b(np.zeros(3))


@given(dphi=st.floats(-0.3, 0.3), n_half=st.integers(1, 10), nd=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_closed_form_2b_matches_interleaved_product(dphi, n_half, nd):
    n = 2 * n_half
    # interleaved pair k: delayed phase k * dphi then direct phase (k + nd) * dphi
    phases = np.empty(n)
    phases[0::2] = np.arange(n_half) * dphi
    phases[1::2] = (np.arange(n_half) + nd) * dphi
    u = _brute_product(phases, np.pi / 2)
    v = closed_form_2b(dphi, n, nd).matrix
    assert matrix_fidelity(u, v) == pytest.approx(1.0, abs=1e-11)


def test_closed_form_1a_first_order():
    # pulses are counted from m = 1 in the weak-pulse closed form
    theta, dphi, n = 1e-3, 0.23, 50
    u = _brute_product((np.arange(n) + 1) * dphi, theta)
    v = closed_form_1a(theta, dphi, n)
    assert np.max(np.abs(u - v)) < 0.1 * (n * theta) ** 2


def test_closed_form_1a_warns_outside_weak_regime():
    with pytest.warns(UserWarning):
        closed_form_1a(0.1, 0.1, 100)


def test_closed_form_1a_removable_singularity():
    a = closed_form_1a(1e-4, 1e-9, 20)
    b = closed_form_1a(1e-4, 0.0, 20)
    assert np.allclose(a, b, atol=1e-10)


def test_phase_reference_sequence_matches_gate_product():
    # pulse U(phi_m) followed by an ideal sigma_x gate, repeated
    phases = np.array([0.1, 0.5, 0.9, 1.3])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u = np.eye(2, dtype=complex)
    for phi in phases:
        u = sx @ rwa_matrix(np.pi / 2, phi) @ u
    v = phase_reference_sequence(_train(phases)).matrix
    assert matrix_fidelity(u, v) == pytest.approx(1.0, abs=1e-11)


def test_compose_train_agrees_with_model_unitary():
    dphi = 0.07
    for kind, n, nd in [("1B", 12, 0), ("2B", 8, 3)]:
        spec = ProtocolSpec(kind, n, nd, 0.0, np.pi / 2)
        model = ramsey_model(spec)
        if kind == "1B":
            phases = np.arange(n) * dphi
        else:
            phases = np.empty(n)
            phases[0::2] = np.arange(n // 2) * dphi
            phases[1::2] = (np.arange(n // 2) + nd) * dphi
        u = compose_train(_train(phases)).matrix
        v = model.train_unitary(np.pi / 2, dphi)
        assert matrix_fidelity(u, v) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("kind,n,nd", [("1A", 7, 0), ("1B", 64, 0), ("2B", 10, 7), ("2A", 6, 3), ("phase_ref", 9, 0)])
def test_model_gradients_match_finite_differences(kind, n, nd):
    theta = 0.9 if kind in ("1A", "2A") else 0.95 * np.pi / 2
    dphi = 0.013
    spec = ProtocolSpec(kind, n, nd, 0.7, theta)
    model = ramsey_model(spec)
    h = 1e-6
    _, _, d1, d2 = model.evaluate(theta, dphi)
    for dp, pick in [(d1, 0), (d2, 1)]:
        fp = model.evaluate(theta, dphi + h)[pick]
        fm = model.evaluate(theta, dphi - h)[pick]
        fd = (fp - fm) / (2 * h)
        assert np.max(np.abs(fd - dp)) < 1e-6 * (1.0 + np.max(np.abs(dp)))


@pytest.mark.parametrize(
    "kind,n,nd", [("1A", 7, 0), ("1B", 64, 0), ("1B", 1000, 0), ("2A", 6, 3), ("2B", 100, 50), ("phase_ref", 9, 0)]
)
def test_batched_evaluate_matches_scalar_loop(kind, n, nd):
    theta = 0.9 if kind in ("1A", "2A") else 0.95 * np.pi / 2
    model = ramsey_model(ProtocolSpec(kind, n, nd, 0.7, theta))
    dphis = np.linspace(-0.05, 0.05, 33)
    batched = model.evaluate(theta, dphis)
    for i, dphi in enumerate(dphis):
        for b, s in zip(batched, model.evaluate(theta, dphi)):
            assert b.shape == (dphis.size, 2) and s.shape == (2,)
            assert np.max(np.abs(b[i] - s)) <= 1e-15


def test_1b_fringe_is_cos_squared():
    n, xi = 20, 0.8
    model = ramsey_model(ProtocolSpec("1B", n, 0, xi, np.pi / 2))
    for dphi in (0.0, 0.01, 0.05):
        p1 = model.evaluate(np.pi / 2, dphi)[0]
        assert p1[0] == pytest.approx(np.cos(n * dphi + xi / 2.0) ** 2, abs=1e-12)
        assert p1.sum() == pytest.approx(1.0, abs=1e-12)


def test_probabilities_normalized_everywhere():
    model = ramsey_model(ProtocolSpec("2B", 6, 4, 1.1, 1.2))
    rng = np.random.default_rng(0)
    for _ in range(20):
        th, dp = rng.uniform(0, np.pi), rng.uniform(-0.3, 0.3)
        p1, p2, *_ = model.evaluate(th, dp)
        assert p1.sum() == pytest.approx(1.0, abs=1e-12)
        assert p2.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p1 >= -1e-15) and np.all(p2 >= -1e-15)


@given(n_half=st.integers(2, 5), seed=st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_permutation_analytic_matches_brute_force(n_half, seed):
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, 2 * np.pi, size=2 * n_half)
    brute = brute_force_permutation_phase(phases)
    analytic, witness = optimal_permutation_phase(phases)
    assert analytic == pytest.approx(brute, abs=1e-12)
    # witness uses each pulse exactly once and realizes the optimum
    assert sorted(witness) == list(range(2 * n_half))
    realized = sum(phases[witness[2 * k + 1]] - phases[witness[2 * k]] for k in range(n_half))
    assert realized == pytest.approx(analytic, abs=1e-12)


def test_permutation_requires_even_length():
    with pytest.raises(ValueError):
        optimal_permutation_phase(np.zeros(5))
    with pytest.raises(ValueError):
        brute_force_permutation_phase(np.zeros(5))
