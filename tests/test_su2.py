import numpy as np
import pytest

from combphase._su2 import MAGNUS_BLOCK, expm_herm, magnus_generators, matpow_with_grad, ordered_product


def _sequential_fold(factors):
    """Oracle: start from the identity and left-multiply one factor at a time."""
    u = np.broadcast_to(np.eye(factors.shape[-1], dtype=complex), factors.shape[1:]).copy()
    for f in factors:
        u = f @ u
    return u


def _random_unitaries(length, grid, d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(length, grid, d, d)) + 1.0j * rng.normal(size=(length, grid, d, d))
    return expm_herm(a + a.conj().swapaxes(-1, -2))


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


@pytest.mark.parametrize("n", [0, 1, 2, 37])
def test_matpow_with_grad_on_stacks_matches_power_rule(n):
    ms = _random_unitaries(5, 1, 2, seed=n)[:, 0]
    rng = np.random.default_rng(n + 100)
    dm = rng.normal(size=(5, 2, 2)) + 1.0j * rng.normal(size=(5, 2, 2))
    p, dp = matpow_with_grad(ms, dm, n)
    assert p.shape == dp.shape == (5, 2, 2)
    for i in range(5):
        expected_p, expected_dp = _power_rule(ms[i], dm[i], n)
        assert np.allclose(p[i], expected_p, rtol=0.0, atol=1e-12)
        assert np.allclose(dp[i], expected_dp, rtol=0.0, atol=1e-12 * max(n, 1))


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
