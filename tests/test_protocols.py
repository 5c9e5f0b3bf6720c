import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combphase._su2 import HADAMARD, SIGMA_Z, ordered_product, rot_x, rot_z, su2_matrix
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
    train_unitary_with_grad,
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


@pytest.mark.parametrize(
    "fields,name",
    [
        ({"n_pulses": "ten"}, "n_pulses"),
        ({"n_pulses": True}, "n_pulses"),
        ({"n_pulses": 10.0}, "n_pulses"),
        ({"n_delay": "a"}, "n_delay"),
        ({"theta": "x"}, "theta"),
        ({"theta": np.nan}, "theta"),
        ({"theta": True}, "theta"),
        ({"reference_phase": np.inf}, "reference_phase"),
        ({"n_delay": False}, "n_delay"),
        ({"theta": np.True_}, "theta"),
        # past 2**20 pulses the train power's phase k alpha drifts by about k eps
        ({"n_pulses": 2**20 + 2}, "n_pulses"),
    ],
)
def test_protocol_spec_rejects_bad_field_types(fields, name):
    with pytest.raises(ValueError, match=name):
        ProtocolSpec(**{"kind": "1B", "n_pulses": 10, **fields})


def test_protocol_spec_takes_numpy_numbers():
    spec = ProtocolSpec("2B", np.int64(10), np.int32(5), np.float64(0.5), np.float32(1.0))
    assert spec.enhancement == 50.0


def test_enhancement_factors():
    # each A/B pair shares one rule; an odd 1A train rotates like the next even one
    assert ProtocolSpec("1A", 7).enhancement == 8.0
    assert ProtocolSpec("1A", 10).enhancement == 10.0
    assert ProtocolSpec("1B", 10).enhancement == 10.0
    assert ProtocolSpec("2A", 10, 5).enhancement == 50.0
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
    # the top-row tree against the same tree on the 2x2 closed forms
    assert np.max(np.abs(u - ordered_product([rwa_matrix(train.thetas, train.phases)]))) <= 1e-12


def test_compose_train_rejects_an_empty_train():
    # a PulseTrain cannot be empty, so a stand-in with no pulses
    class Empty:
        thetas = phases = np.empty(0)

        def __len__(self):
            return 0

    with pytest.raises(ValueError):
        compose_train(Empty())


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
        v = model.train_unitary(dphi)
        assert matrix_fidelity(u, v) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("kind,n,nd", [("1A", 7, 0), ("1B", 64, 0), ("2B", 10, 7), ("2A", 6, 3), ("phase_ref", 9, 0)])
def test_model_gradients_match_finite_differences(kind, n, nd):
    theta = 0.9 if kind in ("1A", "2A") else 0.95 * np.pi / 2
    dphi = 0.013
    spec = ProtocolSpec(kind, n, nd, 0.7, theta)
    model = ramsey_model(spec)
    h = 1e-6
    dp = model.evaluate(dphi)[1]
    fd = (model.evaluate(dphi + h)[0] - model.evaluate(dphi - h)[0]) / (2 * h)
    for arm in (slice(0, 2), slice(2, 4)):
        assert np.max(np.abs(fd[arm] - dp[arm])) < 1e-6 * (1.0 + np.max(np.abs(dp[arm])))


def _train_2x2(spec, dphi):
    """Oracle: U_tot(dphi) and dU/ddphi as 2x2 matrices, from matrix
    products and the train power of the 4x4 block [[m, dm], [0, m]] by
    square-and-multiply, whose top-right block is d(m**k)."""
    if spec.kind == "phase_ref":
        t = spec.n_pulses * (spec.n_pulses + 1) / 2.0
        u = rot_z(-2.0 * t * dphi)
        return u, 2.0j * t * (SIGMA_Z @ u)
    a = rot_x(spec.theta)
    if spec.kind in ("1A", "1B"):
        g, dg = a, np.zeros((2, 2))
        k = spec.n_pulses
    else:  # the pair: delayed pulse, then prompt pulse
        nd = spec.n_delay
        core = rot_z(nd * dphi) @ a @ rot_z(-nd * dphi)
        g = core @ a
        dg = -1.0j * nd * (SIGMA_Z @ core - core @ SIGMA_Z) @ a
        k = spec.n_pulses // 2
    dinv = rot_z(-dphi)
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = block[2:, 2:] = g @ dinv
    block[:2, 2:] = dg @ dinv + 1.0j * (g @ SIGMA_Z @ dinv)
    power = np.linalg.matrix_power(block, k)
    dz = rot_z(k * dphi)
    u = dz @ power[:2, :2]
    return u, -1.0j * k * (SIGMA_Z @ u) + dz @ power[:2, 2:]


def _probabilities_2x2(spec, dphi):
    """Oracle: (P, dP/ddphi) from the state vectors of both arms, as a
    (2, 4) array in `evaluate`'s outcome columns (arm 1 s = 0, 1, then arm 2)."""
    u, du = _train_2x2(spec, dphi)
    prep = HADAMARD @ np.array([1.0, 0.0])
    prep[1] *= np.exp(1.0j * spec.reference_phase)
    arms = []
    for m, psi in ((HADAMARD, prep), (np.eye(2), np.array([1.0, 0.0]))):
        amp, damp = m @ u @ psi, m @ du @ psi
        arms.append((np.abs(amp) ** 2, 2.0 * np.real(np.conj(amp) * damp)))
    return np.concatenate(arms, axis=1)


#: the five kinds off quadrature (theta != pi/2, xi != 0) and at it
ORACLE_SPECS = [
    ProtocolSpec(kind, n, nd, xi, theta)
    for kind, n, nd in [("1A", 7, 0), ("1B", 64, 0), ("1B", 1000, 0), ("2A", 6, 3), ("2B", 100, 50), ("phase_ref", 9, 0)]
    for xi, theta in [(0.7, 0.9 if kind in ("1A", "2A") else 0.95 * np.pi / 2), (0.0, np.pi / 2)]
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"{s.kind}-{s.n_pulses}-{s.theta:.3f}")
def test_model_matches_the_2x2_matrix_oracle(spec):
    dphis = np.array([-0.05, -1e-9, 0.0, 0.013, 0.05])
    u, du = train_unitary_with_grad(spec, dphis)
    p, dp = ramsey_model(spec).evaluate(dphis)
    # the square-and-multiply oracle itself loses about k eps of relative precision
    tol = 8.0 * spec.n_pulses * np.finfo(float).eps
    chi = spec.enhancement
    for i, dphi in enumerate(dphis):
        expected_u, expected_du = _train_2x2(spec, dphi)
        assert np.max(np.abs(su2_matrix(u[i]) - expected_u)) <= tol
        assert np.max(np.abs(su2_matrix(du[i]) - expected_du)) <= tol * chi
        expected_p, expected_dp = _probabilities_2x2(spec, dphi)
        for column in range(4):
            assert abs(p[i, column] - expected_p[column]) <= tol
            assert abs(dp[i, column] - expected_dp[column]) <= tol * chi


@pytest.mark.parametrize(
    "kind,n,nd", [("1A", 7, 0), ("1B", 64, 0), ("1B", 1000, 0), ("2A", 6, 3), ("2B", 100, 50), ("phase_ref", 9, 0)]
)
def test_batched_evaluate_matches_scalar_loop(kind, n, nd):
    # the lockstep and the batched fits rest on each row of a batch being
    # bit for bit the scalar call
    theta = 0.9 if kind in ("1A", "2A") else 0.95 * np.pi / 2
    for xi, theta in ((0.7, theta), (0.0, np.pi / 2)):
        model = ramsey_model(ProtocolSpec(kind, n, nd, xi, theta))
        dphis = np.linspace(-0.05, 0.05, 33)
        batched = model.evaluate(dphis)
        assert batched.shape == (2, dphis.size, 4)
        for i, dphi in enumerate(dphis):
            scalar, row = model.evaluate(float(dphi)), model.evaluate(dphis[i : i + 1])
            assert scalar.shape == (2, 4) and row.shape == (2, 1, 4)
            assert np.array_equal(batched[:, i], scalar)
            assert np.array_equal(batched[:, i : i + 1], row)


def test_1b_fringe_is_cos_squared():
    n, xi = 20, 0.8
    model = ramsey_model(ProtocolSpec("1B", n, 0, xi, np.pi / 2))
    for dphi in (0.0, 0.01, 0.05):
        p1 = model.evaluate(dphi)[0, :2]
        assert p1[0] == pytest.approx(np.cos(n * dphi + xi / 2.0) ** 2, abs=1e-12)
        assert p1.sum() == pytest.approx(1.0, abs=1e-12)


def test_probabilities_normalized_everywhere():
    rng = np.random.default_rng(0)
    for _ in range(20):
        th, dp = rng.uniform(0, np.pi), rng.uniform(-0.3, 0.3)
        p = ramsey_model(ProtocolSpec("2B", 6, 4, 1.1, th)).evaluate(dp)[0]
        assert p[:2].sum() == pytest.approx(1.0, abs=1e-12)
        assert p[2:].sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= -1e-15)


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
