"""Measurement and fault-injection tests."""

import math

import numpy as np
import pytest

from shmsim.sensing import (
    FaultProfile,
    SensingError,
    SensorArraySpec,
    SignalWindow,
    apply_fault,
    apply_faults,
    measure,
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
        array = SensorArraySpec(positions=(0, 1, 2, 3), noise_std=np.zeros(4))
        streams = measure(response, array, window=500, seed=1)
        assert np.array_equal(streams[2][0].samples, response.accelerations[2, :500])

    def test_noise_level_tracks_configured_fraction(self, response):
        array = SensorArraySpec(positions=(0, 1, 2, 3), noise_fraction=0.10)
        n = response.n_samples
        streams = measure(response, array, window=n, seed=7)
        for ch in range(4):
            true = response.accelerations[ch, :n]
            noise = streams[ch][0].samples - true
            target = 0.10 * np.sqrt(np.mean(true**2))
            assert abs(np.std(noise) - target) / target < 0.05

    def test_identical_seed_bit_identical(self, response):
        array = SensorArraySpec(positions=(0, 1, 2, 3))
        a = measure(response, array, window=300, seed=5)
        b = measure(response, array, window=300, seed=5)
        for ch in range(4):
            for wa, wb in zip(a[ch], b[ch]):
                assert np.array_equal(wa.samples, wb.samples)

    def test_position_out_of_range(self, response):
        array = SensorArraySpec(positions=(0, 9))
        with pytest.raises(SensingError):
            measure(response, array, window=100, seed=0)


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
        array = SensorArraySpec(positions=(0, 1, 2, 3), noise_std=np.zeros(4))
        streams = measure(response, array, window=500, seed=1)
        profile = FaultProfile(kind="offset_bias", sensor_id=1, onset=0.0, offset=9.0)
        faulted = [
            [apply_faults(w, [profile]) for w in stream] for stream in streams
        ]
        for ch in (0, 2, 3):
            for w_orig, w_new in zip(streams[ch], faulted[ch]):
                assert np.array_equal(w_orig.samples, w_new.samples)
        assert not np.array_equal(faulted[1][0].samples, streams[1][0].samples)

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
