import math

import numpy as np
import pytest

from combphase import protocols, pulses, raman, scenarios
from combphase._su2 import (
    _TAYLOR_THETA, MAGNUS_BLOCK, expm_herm, magnus_generators, matpow_with_grad, ordered_product,
    refine_until_stable,
)
from combphase.errors import IntegrationError


def _expm_herm_eigh(h):
    """Oracle: exp(-i h) from the eigendecomposition of the Hermitian h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1.0j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _random_hermitian(shape, d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape + (d, d)) + 1.0j * rng.normal(size=shape + (d, d))
    return a + a.conj().swapaxes(-1, -2)


# from no squaring (1e-3) to ten squarings (1e3)
@pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])
@pytest.mark.parametrize("d", [2, 3])
def test_expm_herm_matches_the_eigh_oracle(d, norm):
    h = _random_hermitian((20, 3), d, seed=d)
    # every matrix of the stack has 1-norm ``norm``, so all need the same squarings
    h *= norm / np.abs(h).sum(axis=-2).max(axis=-1)[..., None, None]
    u = expm_herm(h)
    assert u.shape == h.shape
    assert np.max(np.abs(u - _expm_herm_eigh(h))) <= 1e-13 * max(1.0, norm)
    # each squaring doubles the defect: about 2e-16 per squaring count
    defect = np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(d)))
    assert defect <= 1e-15 * max(1.0, norm)


def test_taylor_degrees_truncate_below_double_precision():
    for m, theta in _TAYLOR_THETA.items():
        remainder = math.fsum(theta**k / math.factorial(k) for k in range(m + 1, m + 40))
        assert remainder <= 2.0**-53


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_generator_fails_as_an_integration_error(bad):
    h = np.zeros((4, 1, 3, 3), dtype=complex)
    h[..., 0, 2] = h[..., 2, 0] = bad
    with pytest.raises(np.linalg.LinAlgError):
        expm_herm(h)
    with pytest.raises(IntegrationError):
        refine_until_stable(lambda steps: expm_herm(h)[0, 0], 50, 1e-8)

    def propagate(steps):
        blocks = magnus_generators(lambda t: np.broadcast_to(h[:1], (t.size, 1, 3, 3)), 1.0, steps)
        return ordered_product(expm_herm(g) for g in blocks)

    with pytest.raises(IntegrationError):
        refine_until_stable(propagate, 50, 1e-8)


def _bundled_phase_map():
    params = scenarios.load_scenario_config(scenarios.find_scenario("raman_three_level")).params
    spec = scenarios._raman_spec(params, "detuning_fraction_map")
    return raman.phase_map(spec, np.linspace(0.0, 2.0 * np.pi, params["grid_points"])).phi_s


PROPAGATIONS = {
    "integrate_pulse": lambda: pulses.integrate_pulse(
        pulses.PulseSpec("gaussian", np.pi / 4, 60.0, 2.0 * np.pi, 2.0 * np.pi, 0.3)
    ).matrix,
    "integrate_lambda": lambda: raman.integrate_lambda(
        raman.LambdaSpec(rabi=12.0, duration=1.0, laser_freq=160.0 * np.pi, excited_energy=200.0 * np.pi)
    )[0].matrix,
    "bundled phase_map": _bundled_phase_map,
}


@pytest.mark.parametrize("name", sorted(PROPAGATIONS))
def test_propagation_matches_the_eigh_exponential(name, monkeypatch):
    result = PROPAGATIONS[name]()
    monkeypatch.setattr(pulses, "expm_herm", _expm_herm_eigh)
    monkeypatch.setattr(raman, "expm_herm", _expm_herm_eigh)
    assert np.max(np.abs(result - PROPAGATIONS[name]())) <= 1e-12


def _sequential_fold(factors):
    """Oracle: start from the identity and left-multiply one factor at a time."""
    u = np.broadcast_to(np.eye(factors.shape[-1], dtype=complex), factors.shape[1:]).copy()
    for f in factors:
        u = f @ u
    return u


def _random_unitaries(length, grid, d, seed):
    return expm_herm(_random_hermitian((length, grid), d, seed))


# 1029 factors fill four blocks of `MAGNUS_BLOCK` and part of a fifth
@pytest.mark.parametrize("length", [1, 2, 7, 1029])
@pytest.mark.parametrize("d", [2, 3])
def test_ordered_product_matches_sequential_fold(d, length):
    factors = _random_unitaries(length, 4, d, seed=length)
    expected = _sequential_fold(factors)
    assert np.allclose(ordered_product(factors), expected, rtol=0.0, atol=1e-12)
    blocks = (factors[i : i + MAGNUS_BLOCK] for i in range(0, length, MAGNUS_BLOCK))
    assert np.allclose(ordered_product(blocks), expected, rtol=0.0, atol=1e-12)


def test_ordered_product_rejects_empty_input():
    with pytest.raises(ValueError):
        ordered_product(np.empty((0, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        ordered_product(iter(()))


def test_magnus_generators_come_in_blocks():
    steps = 2 * MAGNUS_BLOCK + 3
    sizes = [g.shape[0] for g in magnus_generators(lambda t: np.zeros((t.size, 1, 2, 2)), 1.0, steps)]
    assert sizes == [MAGNUS_BLOCK, MAGNUS_BLOCK, 3]


def _power_rule(m, dm, n):
    """Oracle: d(m**n) = sum_j m**j dm m**(n-1-j), one term at a time."""
    powers = [np.eye(2, dtype=complex)]
    for _ in range(n):
        powers.append(powers[-1] @ m)
    return powers[n], sum((powers[j] @ dm @ powers[n - 1 - j] for j in range(n)), np.zeros((2, 2)))


def _block_power(m, dm, n):
    """Oracle: the n-th power of [[m, dm], [0, m]] by square-and-multiply,
    whose top-right block is d(m**n)."""
    block = np.zeros(np.broadcast_shapes(m.shape, dm.shape)[:-2] + (4, 4), dtype=complex)
    block[..., :2, :2] = block[..., 2:, 2:] = m
    block[..., :2, 2:] = dm
    power = np.linalg.matrix_power(block, n)
    return power[..., :2, :2], power[..., :2, 2:]


def _traceless_hermitian(shape, seed):
    """[[x, y], [conj(y), -x]], exactly traceless and Hermitian."""
    x, re, im = np.random.default_rng(seed).normal(size=(3,) + shape)
    y = re + 1.0j * im
    return np.stack([np.stack([x + 0.0j, y], -1), np.stack([y.conj(), -x + 0.0j], -1)], -2)


def _random_su2_tangents(count, seed):
    """``count`` SU(2) matrices m and tangents m i H, H traceless Hermitian."""
    h, g = _traceless_hermitian((2, count), seed)
    m = expm_herm(h)
    return m, m @ (1.0j * g)


@pytest.mark.parametrize("n", [0, 1, 2, 37])
def test_matpow_with_grad_on_stacks_matches_power_rule(n):
    ms, dm = _random_su2_tangents(5, seed=n)
    p, dp = matpow_with_grad(ms, dm, n)
    assert p.shape == dp.shape == (5, 2, 2)
    for i in range(5):
        expected_p, expected_dp = _power_rule(ms[i], dm[i], n)
        assert np.allclose(p[i], expected_p, rtol=0.0, atol=1e-12)
        assert np.allclose(dp[i], expected_dp, rtol=0.0, atol=1e-12 * max(n, 1))


def _pair_factors(spec, dphi, monkeypatch):
    """The (m, dm) that `train_unitary_with_grad` raises to a power at each ``dphi``."""
    seen = []

    def spy(m, dm, n):
        seen.append((m, dm))
        return matpow_with_grad(m, dm, n)

    monkeypatch.setattr(protocols, "matpow_with_grad", spy)
    protocols.train_unitary_with_grad(spec, np.array(dphi))
    monkeypatch.undo()
    return seen[0]


def _power_stacks(monkeypatch):
    identity = np.array([np.eye(2), -np.eye(2)], dtype=complex)
    return {
        "+-I": (identity, identity @ (1.0j * _traceless_hermitian((2,), seed=0))),
        # -I at dphi = 0, and within 1e-12 of it at 1e-15
        "2B pi/2": _pair_factors(protocols.ProtocolSpec("2B", 1000, 500), [0.0, 1e-15, 1e-9], monkeypatch),
        "1A 0.05": _pair_factors(
            protocols.ProtocolSpec("1A", 20, 0, 0.0, 0.05), [0.0, 1e-3, 0.05], monkeypatch
        ),
    }


@pytest.mark.parametrize("k", [1, 2, 37, 1025, 1 << 20])
@pytest.mark.parametrize("stack", ["+-I", "2B pi/2", "1A 0.05"])
def test_matpow_with_grad_matches_the_block_power(stack, k, monkeypatch):
    # square-and-multiply loses about k eps of relative precision itself
    m, dm = _power_stacks(monkeypatch)[stack]
    p, dp = matpow_with_grad(m, dm, k)
    expected_p, expected_dp = _block_power(m, dm, k)
    tol = 4.0 * k * np.finfo(float).eps
    assert np.all(np.abs(p - expected_p) <= tol)
    scale = np.maximum(np.abs(expected_dp).max(axis=(-2, -1), keepdims=True), 1.0)
    assert np.all(np.abs(dp - expected_dp) <= tol * scale)


def test_matpow_with_grad_is_exact_at_plus_minus_identity():
    identity = np.array([np.eye(2), -np.eye(2)], dtype=complex)
    ih = 1.0j * _traceless_hermitian((2,), seed=1)
    for k in (0, 1, 2, 7, 1 << 20):
        with np.errstate(all="raise"):
            p, dp = matpow_with_grad(identity, identity @ ih, k)
        sign = np.array([1.0, (-1.0) ** k])[:, None, None]
        assert np.array_equal(p, sign * np.eye(2))
        # d((+-I)^k) = k (+-I)^(k-1) (+-I) i H = k (+-1)^k i H
        assert np.array_equal(dp, k * sign * ih)


def test_magnus_generators_are_exactly_hermitian():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3, 3)) + 1.0j * rng.normal(size=(3, 3, 3))
    basis = a + a.conj().swapaxes(-1, -2)

    def hamiltonians(t):
        weights = np.cos(np.outer(t, [1.0, 2.0, 3.0]))
        return np.einsum("tk,kij->tij", weights, basis)[:, None]

    blocks = list(magnus_generators(hamiltonians, 2.0, MAGNUS_BLOCK + 5))
    assert [g.shape for g in blocks] == [(MAGNUS_BLOCK, 1, 3, 3), (5, 1, 3, 3)]
    for g in blocks:
        assert np.array_equal(g, g.conj().swapaxes(-1, -2))
