import numpy as np
import pytest

from combphase.comb import (
    CombSpec,
    JitterSpec,
    PulseTrain,
    apply_phase_jitter,
    fiber_comb_preset,
    generate_train,
    split_delay_interleave,
    wrap_pulse_count,
)
from combphase.errors import OverlapError
from combphase.pulses import PulseSpec

W = 2.0 * np.pi * 3.5e14


def _comb(offset=200e3, period=10e-9, tau=10e-12):
    template = PulseSpec(np.pi / 2, tau, W, W)
    return CombSpec(period, offset, template)


def test_phase_step_is_angular():
    assert _comb().phase_step == pytest.approx(2.0 * np.pi * 200e3 * 10e-9)


def test_comb_validation():
    with pytest.raises(ValueError):
        _comb(period=-1.0)
    with pytest.raises(ValueError):
        _comb(period=5e-12)  # shorter than the pulse


def test_generate_train_phases_are_linear():
    c = _comb()
    t = generate_train(c, 5, start_index=3)
    m = 3 + np.arange(5)
    assert np.allclose(t.times, m * c.rep_period)
    assert np.allclose(t.phases, m * c.phase_step)
    assert np.all(t.thetas == np.pi / 2)
    assert np.array_equal(t.indices, m)


def test_wrap_pulse_count_fiber_preset():
    assert wrap_pulse_count(fiber_comb_preset()) == 500


def test_train_rejects_unsorted_times():
    with pytest.raises(ValueError):
        PulseTrain(np.array([0.0, 2.0, 1.0]), np.zeros(3), np.zeros(3))


def test_train_overlap_check():
    with pytest.raises(OverlapError):
        PulseTrain(
            np.array([0.0, 8e-12]), np.zeros(2), np.zeros(2), pulse_duration=10e-12
        )


def test_split_delay_interleave_pair_phase_difference():
    c = _comb()
    n_delay = 4
    t = generate_train(c, 12)
    out = split_delay_interleave(t, n_delay)
    # pair k: delayed pulse k first, direct pulse k + n_delay second
    diffs = out.phases[1::2] - out.phases[0::2]
    assert np.allclose(diffs, n_delay * c.phase_step)
    # single use of every source pulse
    assert len(np.unique(out.indices)) == len(out.indices)
    # delayed member arrives first, 10 ps before its partner
    assert np.allclose(out.times[1::2] - out.times[0::2], 10e-12)


def test_split_delay_caps_pairs_at_n_delay():
    # min(N - n_delay, n_delay) pairs: capped by the delay, then by the train
    out = split_delay_interleave(generate_train(_comb(), 20), 4)
    assert len(out) == 8
    assert list(out.indices) == [0, 4, 1, 5, 2, 6, 3, 7]
    out = split_delay_interleave(generate_train(_comb(), 6), 4)
    assert list(out.indices) == [0, 4, 1, 5]


def test_split_delay_overlap_guard():
    t = generate_train(_comb(tau=20e-12), 12)  # longer than the 10 ps pair gap
    with pytest.raises(OverlapError):
        split_delay_interleave(t, 4)


def test_split_delay_degenerate_no_delay():
    # 2A/2B need a delay of at least one period; no splitter pairs a pulse with itself
    t = generate_train(_comb(), 6)
    for n_delay in (0, -1):
        with pytest.raises(ValueError):
            split_delay_interleave(t, n_delay)


def test_phase_jitter_deterministic_and_flagging():
    t = generate_train(_comb(), 100)
    a = apply_phase_jitter(t, JitterSpec("random_walk", 0.01), seed=5)
    b = apply_phase_jitter(t, JitterSpec("random_walk", 0.01), seed=5)
    assert np.array_equal(a.phases, b.phases)
    d = apply_phase_jitter(t, JitterSpec("white", 0.0), seed=5)
    assert d is t
