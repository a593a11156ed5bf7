"""Measurement and fault-injection tests."""

import math

import numpy as np
import pytest

from shmsim.sensing import (
    FaultProfile,
    SensingError,
    SignalWindow,
    apply_fault,
    apply_faults,
    sample_round,
    sampling_points,
)
from shmsim.structure import ExcitationSpec, simulate_response, uniform_chain


@pytest.fixture(scope="module")
def response():
    spec = uniform_chain(4, 1.0, 500.0, 0.01, 30.0)
    return simulate_response(spec, ExcitationSpec("white_noise", 1.0, seed=11))


def window_of(samples, sensor_id=0, start=0.0, dt=0.01, round_index=0):
    return SignalWindow(sensor_id=sensor_id, start_time=start, dt=dt, samples=samples, round_index=round_index)


class TestMeasure:
    def test_zero_noise_matches_truth(self, response):
        clean = response.accelerations[:, :500]
        windows = sample_round(clean, np.zeros(4), 1, 0, 0.0, response.dt)
        assert sorted(windows) == [0, 1, 2, 3]
        for ch in range(4):
            assert np.array_equal(windows[ch].samples, clean[ch])

    def test_noise_level_tracks_configured_fraction(self, response):
        clean = response.accelerations
        std = 0.10 * np.sqrt(np.mean(clean**2, axis=1))
        windows = sample_round(clean, std, 7, 0, 0.0, response.dt)
        for ch in range(4):
            noise = windows[ch].samples - clean[ch]
            assert abs(np.std(noise) - std[ch]) / std[ch] < 0.05

    def test_identical_seed_bit_identical(self, response):
        clean = response.accelerations[:, :300]
        a, b = (
            sample_round(clean, np.ones(4), np.random.SeedSequence([5, 2, 3]), 3, 0.0, response.dt)
            for _ in range(2)
        )
        for ch in range(4):
            assert np.array_equal(a[ch].samples, b[ch].samples)

    def test_windows_carry_round_timing(self, response):
        windows = sample_round(response.accelerations[:, :300], np.ones(4), 5, 7, 21.0, response.dt)
        for ch, w in windows.items():
            assert (w.sensor_id, w.round_index, w.start_time, w.dt) == (ch, 7, 21.0, response.dt)
            assert w.length == 300


class TestSignalWindow:
    def test_samples_frozen_but_caller_array_writable(self):
        x = np.zeros(5)
        w = window_of(x)
        assert not w.samples.flags.writeable
        with pytest.raises(ValueError):
            w.samples[0] = 1.0
        x[0] = 1.0  # the caller's array stays the caller's to change
        assert x.flags.writeable


class TestApplyFault:
    def test_unit_gain_is_identity(self):
        w = window_of(np.sin(np.arange(100) * 0.1))
        profile = FaultProfile(kind="debonding_gain", sensor_id=0, onset=0.0, gain=1.0)
        assert np.array_equal(apply_fault(w, profile).samples, w.samples)

    def test_offset_shifts_mean(self):
        rng = np.random.default_rng(3)
        w = window_of(rng.standard_normal(4000))
        profile = FaultProfile(kind="offset_bias", sensor_id=0, onset=0.0, offset=0.5)
        out = apply_fault(w, profile)
        assert np.mean(out.samples) == pytest.approx(np.mean(w.samples) + 0.5, abs=1e-12)

    def test_stuck_kills_variance(self):
        w = window_of(np.sin(np.arange(200) * 0.3))
        profile = FaultProfile(kind="stuck_constant", sensor_id=0, onset=0.0, stuck_value=2.5)
        out = apply_fault(w, profile)
        assert np.var(out.samples) == 0.0
        assert np.all(out.samples == 2.5)

    def test_drift_ramps_from_onset(self):
        w = window_of(np.zeros(100), dt=0.1)
        profile = FaultProfile(kind="drift", sensor_id=0, onset=2.0, drift_rate=1.0)
        out = apply_fault(w, profile)
        t = w.times
        expected = np.where(t >= 2.0, t - 2.0, 0.0)
        assert np.allclose(out.samples, expected)

    def test_quantization_grid(self):
        w = window_of(np.linspace(-1, 1, 64))
        profile = FaultProfile(
            kind="precision_degradation", sensor_id=0, onset=0.0, quantization_step=0.25
        )
        out = apply_fault(w, profile)
        assert np.allclose(out.samples % 0.25, 0.0, atol=1e-12)

    def test_noise_burst_deterministic_per_seed(self):
        w = window_of(np.zeros(500))
        profile = FaultProfile(kind="noise_burst", sensor_id=0, onset=0.0, burst_std=1.0, seed=9)
        a = apply_fault(w, profile)
        b = apply_fault(w, profile)
        assert np.array_equal(a.samples, b.samples)
        assert np.std(a.samples) > 0.5

    def test_missing_delivers_no_window(self):
        w = window_of(np.ones(10))
        profile = FaultProfile(kind="missing", sensor_id=0, onset=0.0)
        assert apply_fault(w, profile) is None

    def test_no_overlap_is_noop(self):
        w = window_of(np.ones(10), start=0.0, dt=0.1)
        profile = FaultProfile(kind="offset_bias", sensor_id=0, onset=100.0, offset=1.0)
        assert np.array_equal(apply_fault(w, profile).samples, w.samples)

    def test_wrong_sensor_rejected(self):
        w = window_of(np.ones(10), sensor_id=3)
        profile = FaultProfile(kind="offset_bias", sensor_id=1, onset=0.0, offset=1.0)
        with pytest.raises(SensingError):
            apply_fault(w, profile)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SensingError):
            FaultProfile(kind="gremlins", sensor_id=0, onset=0.0)

    def test_partial_overlap_touches_only_active_samples(self):
        w = window_of(np.ones(100), start=0.0, dt=0.1)
        profile = FaultProfile(
            kind="offset_bias", sensor_id=0, onset=5.0, duration=2.0, offset=3.0
        )
        out = apply_fault(w, profile)
        t = w.times
        active = (t >= 5.0) & (t < 7.0)
        assert np.all(out.samples[active] == 4.0)
        assert np.all(out.samples[~active] == 1.0)


class TestFaultComposition:
    def test_channel_isolation(self, response):
        windows = sample_round(response.accelerations[:, :500], np.zeros(4), 1, 0, 0.0, response.dt)
        profile = FaultProfile(kind="offset_bias", sensor_id=1, onset=0.0, offset=9.0)
        faulted = {ch: apply_faults(w, [profile]) for ch, w in windows.items()}
        for ch in (0, 2, 3):
            assert np.array_equal(windows[ch].samples, faulted[ch].samples)
        assert not np.array_equal(faulted[1].samples, windows[1].samples)

    def test_non_overlapping_faults_commute(self):
        w = window_of(np.linspace(-1, 1, 200), dt=0.1)
        early = FaultProfile(kind="offset_bias", sensor_id=0, onset=0.0, duration=5.0, offset=2.0)
        late = FaultProfile(
            kind="debonding_gain", sensor_id=0, onset=10.0, duration=5.0, gain=0.3
        )
        ab = apply_fault(apply_fault(w, early), late)
        ba = apply_fault(apply_fault(w, late), early)
        assert np.array_equal(ab.samples, ba.samples)


class TestSamplingPoints:
    def test_reference_values(self):
        assert sampling_points(10, 100) == 550
        assert sampling_points(20, 100) == 1050

    def test_zero_correlation_factor_rejected(self):
        with pytest.raises(SensingError):
            sampling_points(10, 0)

    @pytest.mark.parametrize("n_a", [9, 21])
    def test_averages_out_of_practical_range(self, n_a):
        with pytest.raises(SensingError):
            sampling_points(n_a, 100)
