import math
import tracemalloc

import numpy as np
import pytest

from combphase import protocols, pulses, raman, scenarios
from combphase._su2 import (
    _TAYLOR_THETA, MAGNUS_BLOCK, _aos, _mm, _soa, _taylor_plan, expm_herm, magnus_generators, matpow_with_grad,
    ordered_product, refine_until_stable, step_count, su2_matrix, su2_ordered_product, workspace,
)
from combphase.errors import IntegrationError


def _expm_herm_eigh(h):
    """Oracle: exp(-i h) from the eigendecomposition of the Hermitian h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1.0j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _expm(h):
    """`expm_herm` in a workspace of its own."""
    return expm_herm(h, np.empty((3,) + h.shape, dtype=complex))


def _generators(hamiltonians, duration, steps, width, d):
    """Every block of `magnus_generators`, in a workspace of its own, each
    copied before the next block overwrites it."""
    work = workspace(d, steps, width)
    return [g.copy() for g in magnus_generators(hamiltonians, duration, steps, width, work)]


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
    u = _expm(h)
    assert u.shape == h.shape
    assert np.max(np.abs(u - _expm_herm_eigh(h))) <= 1e-13 * max(1.0, norm)
    # each squaring doubles the defect: about 4e-16 times 2^s
    defect = np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(d)))
    assert defect <= 1e-15 * max(1.0, norm)


def test_taylor_degrees_truncate_below_double_precision():
    for m, theta in _TAYLOR_THETA.items():
        remainder = math.fsum(theta**k / math.factorial(k) for k in range(m + 1, m + 40))
        assert remainder <= 2.0**-53


def _spin_matrices(d):
    """(J_x, J_y, J_z) of spin (d - 1) / 2: traceless su(2) generators in d dimensions."""
    j = (d - 1) / 2.0
    mz = j - np.arange(d)
    up = np.diag(np.sqrt(j * (j + 1.0) - mz[1:] * (mz[1:] + 1.0)), 1)
    return (up + up.T) / 2.0, (up - up.T) / 2.0j, np.diag(mz)


def _with_spectrum(spectra, seed):
    """v diag(w) v^dagger for each row w of ``spectra``, v random unitary."""
    rng = np.random.default_rng(seed)
    shape = spectra.shape + spectra.shape[-1:]
    v = np.linalg.qr(rng.normal(size=shape) + 1.0j * rng.normal(size=shape))[0]
    return (v * spectra[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _structured_stack(case, d):
    eye = np.eye(d, dtype=complex)
    last = np.zeros((d, d), dtype=complex)
    last[-1, -1] = 1.0
    if case == "zero":
        return np.zeros((4, d, d), dtype=complex)
    if case == "c I":
        return np.array([0.3, -2.0, 1e-7, 50.0])[:, None, None] * eye
    if case == "diag(0, .., Delta)":
        # the Raman Hamiltonian where the cos^2 envelope vanishes: the
        # detuning alone, over the bundled phase map's first step (2 pi 100 Hz
        # x 0.02 over 1 s / 785) and beyond
        return np.array([2.0 * np.pi * 100.0 * 0.02 / 785, 1.0, -40.0])[:, None, None] * last
    if case == "doubly degenerate pair":
        a, b = np.random.default_rng(d).normal(size=(2, 6, 1))
        return _with_spectrum(np.concatenate([a, a, b], axis=-1)[..., :d], seed=d)
    if case == "traceless su(2)":
        n = np.random.default_rng(d).normal(size=(6, 3)) * np.array([[0.01], [0.1], [1.0], [3.0], [10.0], [30.0]])
        return np.einsum("ga,aij->gij", n, np.array(_spin_matrices(d)))
    # one (m, s) plan for matrices of 1-norm 1e-12 and theta_m
    h = _random_hermitian((6,), d, seed=d)
    h /= np.abs(h).sum(axis=-2).max(axis=-1)[..., None, None]
    return h * np.array([1e-12, _TAYLOR_THETA[max(_TAYLOR_THETA)]] * 3)[:, None, None]


STRUCTURED = ["zero", "c I", "diag(0, .., Delta)", "doubly degenerate pair", "traceless su(2)", "1e-12 beside theta_m"]


@pytest.mark.parametrize("case", STRUCTURED)
@pytest.mark.parametrize("d", [2, 3])
def test_expm_herm_matches_the_eigh_oracle_on_structured_spectra(d, case):
    h = _structured_stack(case, d)
    norm = float(np.abs(h).sum(axis=-2).max(initial=0.0))
    u = _expm(h)
    assert u.shape == h.shape
    assert np.max(np.abs(u - _expm_herm_eigh(h))) <= 1e-13 * max(1.0, norm)
    defect = np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(d)))
    assert defect <= 1e-15 * max(1.0, norm)


def _taylor_sum(h, m):
    """Oracle: sum_{k <= m} x^k / k! of x = -i h, from stacked matrix products."""
    x = -1.0j * h
    term = np.broadcast_to(np.eye(h.shape[-1], dtype=complex), h.shape)
    total = term.copy()
    for k in range(1, m + 1):
        term = term @ x / k
        total += term
    return total


@pytest.mark.parametrize("d", [2, 3])
def test_expm_herm_is_the_degree_m_taylor_polynomial(d):
    # just below theta_m the plan is (m, 0), and the result is that
    # polynomial itself, whose truncation error `_TAYLOR_THETA` bounds
    h = _random_hermitian((20, 3), d, seed=10 + d)
    h /= np.abs(h).sum(axis=-2).max()
    for m, theta in _TAYLOR_THETA.items():
        scaled = h * (theta * (1.0 - 1e-9))
        assert _taylor_plan(float(np.abs(scaled).sum(axis=-2).max())) == (m, 0)
        assert np.max(np.abs(_expm(scaled) - _taylor_sum(scaled, m))) <= 1e-15, m


@pytest.mark.parametrize("d", [1, 4])
def test_expm_herm_takes_only_2x2_and_3x3_matrices(d):
    # the characteristic polynomial is written out for d = 2 and 3 only
    with pytest.raises(ValueError, match="2x2 or 3x3"):
        _expm(_random_hermitian((2,), d, seed=d))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_generator_fails_as_an_integration_error(bad):
    h = np.zeros((4, 1, 3, 3), dtype=complex)
    h[..., 0, 2] = h[..., 2, 0] = bad
    with pytest.raises(np.linalg.LinAlgError):
        _expm(h)
    with pytest.raises(IntegrationError):
        refine_until_stable(lambda steps: _expm(h)[0, 0], 50, 1e-8)

    def propagate(steps):
        work = workspace(3, steps, 1)
        blocks = magnus_generators(lambda t: np.broadcast_to(h[:1], (t.size, 1, 3, 3)), 1.0, steps, 1, work)
        return ordered_product(expm_herm(g, work) for g in blocks)

    with pytest.raises(IntegrationError):
        refine_until_stable(propagate, 50, 1e-8)


def test_a_tolerance_below_rounding_is_never_reached():
    # two resolutions that agree exactly show rounding, not an error of 0
    with pytest.raises(IntegrationError, match="did not stabilize"):
        refine_until_stable(lambda steps: np.eye(2, dtype=complex), 50, 1e-17)
    assert np.array_equal(refine_until_stable(lambda steps: np.eye(2, dtype=complex), 50, 1e-13), np.eye(2))


def _bundled_phase_map():
    params = scenarios.load_scenario_config(scenarios.find_scenario("raman_three_level")).params
    spec = scenarios._raman_spec(params, "detuning_fraction_map")
    return raman.phase_map(spec, np.linspace(0.0, 2.0 * np.pi, params["grid_points"])).phi_s


PROPAGATIONS = {
    "integrate_pulse": lambda: pulses.integrate_pulse(
        pulses.PulseSpec(np.pi / 4, 60.0, 2.0 * np.pi, 2.0 * np.pi, 0.3)
    ).matrix,
    "integrate_lambda": lambda: raman.integrate_lambda(
        raman.LambdaSpec(rabi=12.0, duration=1.0, laser_freq=160.0 * np.pi, excited_energy=200.0 * np.pi)
    )[0].matrix,
    "bundled phase_map": _bundled_phase_map,
}


@pytest.mark.parametrize("name", sorted(PROPAGATIONS))
def test_propagation_matches_the_eigh_exponential(name, monkeypatch):
    result = PROPAGATIONS[name]()
    for module in (pulses, raman):
        monkeypatch.setattr(module, "expm_herm", lambda h, work: _expm_herm_eigh(h))
    assert np.max(np.abs(result - PROPAGATIONS[name]())) <= 1e-12


# the step count of every propagator solve of the bundled runs, one list per
# `refine_until_stable` call: integrate_lambda and phase_map, then one
# integrate_pulse per rwa_validity pulse (5, 10, 20, 30 and 60 cycles)
BUNDLED_STEPS = {
    "raman_three_level": [[641, 1282, 2564], [785, 1570]],
    "rwa_validity": [[50, 100, 200], [80, 160, 320], [160, 320, 640], [240, 480, 960], [480, 960]],
}


@pytest.mark.parametrize("name", sorted(BUNDLED_STEPS))
def test_bundled_propagations_take_their_step_doublings(name, monkeypatch, tmp_path):
    # a faster step exponential must not stop earlier, nor a less accurate one later
    solves = []

    def refine(propagate, steps, tol):
        solves.append([])
        return refine_until_stable(propagate, steps, tol)

    def generators(hamiltonians, duration, steps, width, work):
        solves[-1].append(steps)
        return magnus_generators(hamiltonians, duration, steps, width, work)

    for module in (pulses, raman):
        monkeypatch.setattr(module, "refine_until_stable", refine)
        monkeypatch.setattr(module, "magnus_generators", generators)
    scenarios.run_scenario(name, tmp_path)
    assert solves == BUNDLED_STEPS[name]


# grid width of each solve in BUNDLED_STEPS: integrate_lambda and every
# integrate_pulse at one phase, the phase map at its 13 folded phases
BUNDLED_WIDTHS = {"raman_three_level": [1, 13], "rwa_validity": [1] * 5}
BUNDLED_MODULE = {"raman_three_level": raman, "rwa_validity": pulses}


@pytest.mark.parametrize("name", sorted(BUNDLED_STEPS))
def test_bundled_runs_exponentiate_once_per_magnus_block(name, monkeypatch, tmp_path):
    # count-only wrappers at the module attributes, as perfbench/tracer.py
    # counts pulses.magnus_steps and raman.magnus_steps
    counts = {pulses: 0, raman: 0}

    def counted(module, expm):
        def wrapper(*args, **kwargs):
            counts[module] += 1
            return expm(*args, **kwargs)

        return wrapper

    for module in counts:
        monkeypatch.setattr(module, "expm_herm", counted(module, module.expm_herm))
    scenarios.run_scenario(name, tmp_path)
    blocks = sum(
        math.ceil(steps / max(1, MAGNUS_BLOCK // width))
        for solves, width in zip(BUNDLED_STEPS[name], BUNDLED_WIDTHS[name])
        for steps in solves
    )
    # integrate_lambda 1 + 1 + 2 and the phase map 5 + 10; one block per pulse solve
    assert blocks == {"raman_three_level": 19, "rwa_validity": 14}[name]
    assert counts == {module: blocks if module is BUNDLED_MODULE[name] else 0 for module in counts}


@pytest.mark.parametrize("phases", [0.7, np.array([0.0, 1.2, 2.5])], ids=["width 1", "width 3"])
@pytest.mark.parametrize("d", [2, 3])
def test_consecutive_solves_share_no_memory(d, phases):
    # refine_until_stable keeps one solve's result while the next one runs;
    # both solves span three blocks, the last one short
    if d == 2:
        pulse = pulses.PulseSpec(np.pi / 4, 60.0, 2.0 * np.pi, 2.0 * np.pi, 0.3)
        solve = lambda steps: pulses._propagate_two_level(pulse, phases, steps)
    else:
        spec = raman.LambdaSpec(rabi=12.0, duration=1.0, laser_freq=160.0 * np.pi, excited_energy=200.0 * np.pi)
        solve = lambda steps: raman._propagate(spec, phases, steps)
    block = MAGNUS_BLOCK // np.size(phases)
    first = solve(2 * block + 1)
    kept = first.copy()
    second = solve(2 * block + 2)
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)
    assert np.max(np.abs(first - second)) > 0.0


@pytest.mark.parametrize("case", ["d = 2 pulse", "d = 3 phase map", "real, commuting"])
def test_propagation_is_bitwise_the_product_of_the_out_of_place_generators(case):
    # a short last block and odd tree tails, with every block in one workspace
    hamiltonians, duration, steps, width, d = _generator_cases()[case]
    work = workspace(d, steps, width)
    u = ordered_product(expm_herm(g, work) for g in magnus_generators(hamiltonians, duration, steps, width, work))
    expected = ordered_product(_expm(g) for g in _out_of_place_generators(hamiltonians, duration, steps, width))
    assert np.array_equal(u, expected)


def test_phase_map_peak_memory_stays_within_its_workspace():
    params = scenarios.load_scenario_config(scenarios.find_scenario("raman_three_level")).params
    spec = scenarios._raman_spec(params, "detuning_fraction_map")
    grid = np.linspace(0.0, 2.0 * np.pi, params["grid_points"])
    raman.phase_map(spec, grid)
    tracemalloc.start()
    try:
        raman.phase_map(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the seven workspace rows, the tree's three half-block arrays and the
    # Hamiltonian callback's arrays, in units of one block-sized 3x3 stack
    assert peak <= 11.5 * 3 * 3 * MAGNUS_BLOCK * 16


def _sequential_fold(factors):
    """Oracle: start from the identity and left-multiply one factor at a time."""
    u = np.broadcast_to(np.eye(factors.shape[-1], dtype=complex), factors.shape[1:]).copy()
    for f in factors:
        u = f @ u
    return u


def _random_unitaries(length, grid, d, seed):
    return _expm(_random_hermitian((length, grid), d, seed))


# at grid width 4, 1029 factors fill two blocks of `MAGNUS_BLOCK` matrices
# and part of a third
@pytest.mark.parametrize("length", [1, 2, 7, 1029])
@pytest.mark.parametrize("d", [2, 3])
def test_ordered_product_matches_sequential_fold(d, length):
    factors = _random_unitaries(length, 4, d, seed=length)
    expected = _sequential_fold(factors)
    assert np.allclose(ordered_product([factors]), expected, rtol=0.0, atol=1e-12)
    step = MAGNUS_BLOCK // 4
    blocks = (factors[i : i + step] for i in range(0, length, step))
    assert np.allclose(ordered_product(blocks), expected, rtol=0.0, atol=1e-12)


def test_ordered_product_rejects_empty_input():
    with pytest.raises(ValueError):
        ordered_product([np.empty((0, 2, 2), dtype=complex)])
    with pytest.raises(ValueError):
        ordered_product(iter(()))


def _commuting_hamiltonians(width):
    """H = t (g + 1) |0><0| at grid point g, a real (T, width, 2, 2) stack.

    H commutes with itself, so each step's generator is h H at the step's
    midpoint.
    """
    scale = np.arange(1.0, width + 1.0)

    def hamiltonians(t):
        h = np.zeros((t.size, width, 2, 2))
        h[..., 0, 0] = np.outer(t, scale)
        return h

    return hamiltonians


def test_magnus_generators_come_in_blocks():
    # one grid point, the bundled phase map's 26, and a grid wider than a block
    for width, steps in ((1, 2 * MAGNUS_BLOCK + 3), (26, 200), (MAGNUS_BLOCK + 3, 5)):
        blocks = _generators(_commuting_hamiltonians(width), 2.0, steps, width, 2)
        assert all(g.shape[0] * width <= max(MAGNUS_BLOCK, width) for g in blocks)
        assert all(g.shape[0] == max(1, MAGNUS_BLOCK // width) for g in blocks[:-1])
        g = np.concatenate(blocks)
        assert g.shape == (steps, width, 2, 2)
        h_step = 2.0 / steps
        midpoints = -1.0 + h_step * (np.arange(steps) + 0.5)
        scale = np.arange(1.0, width + 1.0)
        assert np.allclose(g[..., 0, 0], h_step * np.outer(midpoints, scale), rtol=1e-12, atol=1e-12)


def _out_of_place_commutator(x, y):
    shape, dtype = np.broadcast_shapes(x.shape, y.shape), np.result_type(x, y)
    xy = _mm(x, y, np.empty(shape, dtype), np.empty(shape, dtype))
    return xy - xy.conj().swapaxes(0, 1)


def _out_of_place_generators(hamiltonians, duration, steps, width):
    """Oracle: the generator formula of `magnus_generators` as one
    out-of-place expression per term, block by block."""
    h_step = duration / steps
    c = np.sqrt(15.0) / 10.0
    block = max(1, MAGNUS_BLOCK // width)
    for start in range(0, steps, block):
        t0 = -duration / 2.0 + h_step * np.arange(start, min(start + block, steps))
        h1, h2, h3 = (_soa(hamiltonians(t0 + node * h_step)) for node in (0.5 - c, 0.5, 0.5 + c))
        b1 = h_step * h2
        b2 = (h_step * np.sqrt(15.0) / 3.0) * (h3 - h1)
        b3 = (h_step * 10.0 / 3.0) * (h3 - 2.0 * h2 + h1)
        c1 = -1.0j * _out_of_place_commutator(b1, b2)
        c2 = (1.0j / 60.0) * _out_of_place_commutator(b1, 2.0 * b3 + c1)
        yield _aos(b1 + b3 / 12.0 - (1.0j / 240.0) * _out_of_place_commutator(c1 - 20.0 * b1 - b3, b2 + c2))


def _generator_cases():
    pulse = pulses.PulseSpec(np.pi / 4, 60.0, 2.0 * np.pi, 2.0 * np.pi, 0.3)
    params = scenarios.load_scenario_config(scenarios.find_scenario("raman_three_level")).params
    spec = scenarios._raman_spec(params, "detuning_fraction_map")
    # the bundled phase map's grid, after its leading reference point
    phi2 = np.concatenate(([0.0], np.linspace(0.0, 2.0 * np.pi, params["grid_points"])))
    return {
        # 2 MAGNUS_BLOCK + 1 steps at width 1 end in a block of one step
        "d = 2 pulse": (
            lambda t: pulses._rotating_frame_hamiltonians(pulse, 0.3, t), pulse.tau, 2 * MAGNUS_BLOCK + 1, 1, 2
        ),
        "d = 3 phase map": (
            lambda t: raman._lambda_hamiltonians(spec, phi2, t), spec.duration,
            2 * step_count(spec.carrier_cycles), phi2.size, 3,
        ),
        "real, commuting": (_commuting_hamiltonians(26), 2.0, 200, 26, 2),
    }


@pytest.mark.parametrize("case", ["d = 2 pulse", "d = 3 phase map", "real, commuting"])
def test_magnus_generators_are_bitwise_the_out_of_place_formula(case):
    hamiltonians, duration, steps, width, d = _generator_cases()[case]
    blocks = _generators(hamiltonians, duration, steps, width, d)
    expected = list(_out_of_place_generators(hamiltonians, duration, steps, width))
    assert len(blocks) == len(expected) > 1
    for g, e in zip(blocks, expected):
        assert np.array_equal(g, e)


@pytest.mark.parametrize("read_only", [True, False])
def test_magnus_generators_never_write_into_the_callback_arrays(read_only):
    h = _random_hermitian((1, 1), 3, seed=4)
    returned = []

    def hamiltonians(t):
        # a one-step block at width 1 samples (1, 1, 3, 3) stacks, which are
        # already in the (d, d, ...) layout: `_soa` would not copy them
        out = np.broadcast_to(h, (t.size, 1, 3, 3))
        if not read_only:
            out = out.copy()
        returned.append((out, out.copy()))
        return out

    steps = MAGNUS_BLOCK + 1
    blocks = _generators(hamiltonians, 1.0, steps, 1, 3)
    assert [g.shape[0] for g in blocks] == [MAGNUS_BLOCK, 1]
    assert np.shares_memory(_soa(returned[-1][0]), returned[-1][0])
    assert all(np.array_equal(out, kept) for out, kept in returned)
    expected = list(_out_of_place_generators(lambda t: np.broadcast_to(h, (t.size, 1, 3, 3)), 1.0, steps, 1))
    assert all(np.array_equal(g, e) for g, e in zip(blocks, expected))


def _random_su2_rows(shape, seed):
    """Top rows of random SU(2) matrices, of shape ``shape + (2,)``."""
    return _expm(_traceless_hermitian(shape, seed))[..., 0, :]


@pytest.mark.parametrize("length", [1, 2, 7, 1029])
def test_su2_ordered_product_matches_the_matrix_products(length):
    # 7 and 1029 leave odd tails at several levels of the tree
    rows = _random_su2_rows((length, 4), seed=length)
    u = su2_matrix(su2_ordered_product(rows))
    assert u.shape == (4, 2, 2)
    factors = su2_matrix(rows)
    assert np.allclose(u, ordered_product([factors]), rtol=0.0, atol=1e-12)
    assert np.allclose(u, _sequential_fold(factors), rtol=0.0, atol=1e-12)


def test_su2_ordered_product_rejects_empty_input():
    with pytest.raises(ValueError):
        su2_ordered_product(np.empty((0, 2), dtype=complex))


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
    m = _expm(h)
    return m, m @ (1.0j * g)


def test_su2_matrix_rebuilds_the_bottom_row():
    m, dm = _random_su2_tangents(3, seed=5)
    assert np.array_equal(su2_matrix(m[..., 0, :]), m)
    assert np.allclose(su2_matrix(dm[..., 0, :]), dm, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", [0, 1, 2, 37])
def test_matpow_with_grad_on_stacks_matches_power_rule(n):
    ms, dm = _random_su2_tangents(5, seed=n)
    p, dp = matpow_with_grad(ms[..., 0, :], dm[..., 0, :], n)
    assert p.shape == dp.shape == (5, 2)
    for i in range(5):
        expected_p, expected_dp = _power_rule(ms[i], dm[i], n)
        assert np.allclose(su2_matrix(p[i]), expected_p, rtol=0.0, atol=1e-12)
        assert np.allclose(su2_matrix(dp[i]), expected_dp, rtol=0.0, atol=1e-12 * max(n, 1))


def _pair_factors(spec, dphi, monkeypatch):
    """The top rows (m, dm) that `train_unitary_with_grad` raises to a power at each ``dphi``."""
    seen = []

    def spy(m, dm, n):
        seen.append((m, dm))
        return matpow_with_grad(m, dm, n)

    monkeypatch.setattr(protocols, "matpow_with_grad", spy)
    protocols.train_unitary_with_grad(spec, np.array(dphi))
    monkeypatch.undo()
    return seen[0]


def _power_stacks(monkeypatch):
    identity = np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=complex)  # top rows of I and -I
    return {
        "+-I": (identity, identity[:, :1] * (1.0j * _traceless_hermitian((2,), seed=0)[..., 0, :])),
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
    expected_p, expected_dp = _block_power(su2_matrix(m), su2_matrix(dm), k)
    tol = 4.0 * k * np.finfo(float).eps
    assert np.all(np.abs(su2_matrix(p) - expected_p) <= tol)
    scale = np.maximum(np.abs(expected_dp).max(axis=(-2, -1), keepdims=True), 1.0)
    assert np.all(np.abs(su2_matrix(dp) - expected_dp) <= tol * scale)


def test_matpow_with_grad_is_exact_at_plus_minus_identity():
    identity = np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=complex)  # top rows of I and -I
    ih = 1.0j * _traceless_hermitian((2,), seed=1)[..., 0, :]
    for k in (0, 1, 2, 7, 1 << 20):
        with np.errstate(all="raise"):
            p, dp = matpow_with_grad(identity, identity[:, :1] * ih, k)
        sign = np.array([1.0, (-1.0) ** k])[:, None]
        assert np.array_equal(p, sign * identity[0])
        # d((+-I)^k) = k (+-I)^(k-1) (+-I) i H = k (+-1)^k i H
        assert np.array_equal(dp, k * sign * ih)


def test_magnus_generators_are_exactly_hermitian():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3, 3)) + 1.0j * rng.normal(size=(3, 3, 3))
    basis = a + a.conj().swapaxes(-1, -2)

    def hamiltonians(t):
        # two grid points, at two frequency scales
        weights = np.cos(np.multiply.outer(t, [[1.0, 2.0, 3.0], [0.5, 1.0, 1.5]]))
        return np.einsum("tgk,kij->tgij", weights, basis)

    # blocks of MAGNUS_BLOCK matrices, here MAGNUS_BLOCK // 2 steps
    blocks = _generators(hamiltonians, 2.0, MAGNUS_BLOCK // 2 + 5, 2, 3)
    assert [g.shape for g in blocks] == [(MAGNUS_BLOCK // 2, 2, 3, 3), (5, 2, 3, 3)]
    for g in blocks:
        assert np.array_equal(g, g.conj().swapaxes(-1, -2))
