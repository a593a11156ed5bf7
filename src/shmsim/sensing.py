"""Sensor measurement and the sensor-fault taxonomy.

``sample_round`` is the one sampling function: it turns one round's clean
structural responses into per-channel measured signal windows (each row plus
additive Gaussian noise of that channel's std). Faults then act on the
windows one at a time: debonding attenuation, stuck readings, offset/bias, drift,
precision degradation, noise bursts, and missing windows. A missing window is
delivered as ``None`` so downstream code observes absence, never zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class SensingError(ValueError):
    """Raised on invalid fault descriptions or sampling parameters."""


FAULT_KINDS = (
    "debonding_gain",
    "stuck_constant",
    "offset_bias",
    "drift",
    "precision_degradation",
    "noise_burst",
    "missing",
)


def is_flat(samples: np.ndarray):
    """True for samples with no spread beyond rounding (a stuck or constant channel).

    A 2-D ``samples`` gets one verdict per row.
    """
    return np.std(samples, axis=-1) <= 1e-12 * np.maximum(1.0, np.max(np.abs(samples), axis=-1))


@dataclass(frozen=True)
class SignalWindow:
    """One monitoring round's worth of samples from one sensor channel."""

    sensor_id: int
    start_time: float
    dt: float
    samples: np.ndarray
    round_index: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float).view()  # freeze a view, not the caller's array
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def length(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return self.start_time + np.arange(self.length) * self.dt


@dataclass(frozen=True)
class FaultProfile:
    """One fault on one sensor: kind, activity interval and parameters.

    Parameters are used per kind: ``gain``/``parasite_std`` (debonding),
    ``stuck_value``, ``offset``, ``drift_rate`` (units per second),
    ``quantization_step``, ``burst_std``. ``seed`` feeds the stochastic kinds
    so re-applying a profile is deterministic.
    """

    kind: str
    sensor_id: int
    onset: float
    duration: float = math.inf
    gain: float = 0.3
    parasite_std: float = 0.0
    stuck_value: float = 0.0
    offset: float = 0.0
    drift_rate: float = 0.0
    quantization_step: float = 0.0
    burst_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise SensingError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.onset < 0:
            raise SensingError("fault onset must be >= 0")
        if self.duration <= 0:
            raise SensingError("fault duration must be > 0")
        for name in ("gain", "parasite_std", "quantization_step", "burst_std"):
            if getattr(self, name) < 0:
                raise SensingError(f"{name} must be >= 0")

    def active_mask(self, window: SignalWindow) -> np.ndarray:
        t = window.times
        return (t >= self.onset) & (t < self.onset + self.duration)


def sample_round(
    clean: np.ndarray, noise_std: np.ndarray, seed, round_index: int, start_time: float, dt: float
) -> dict:
    """One round's measured windows: ``{channel: SignalWindow}``.

    Channel i carries row i of the clean ``(channels, samples)`` block plus
    ``noise_std[i]`` times i.i.d. standard normal draws from
    ``np.random.default_rng(seed)``. Bit-identical for identical seeds.
    """
    rng = np.random.default_rng(seed)
    noisy = clean + noise_std[:, None] * rng.standard_normal(clean.shape)
    return {
        ch: SignalWindow(
            sensor_id=ch, start_time=start_time, dt=dt, samples=noisy[ch], round_index=round_index
        )
        for ch in range(noisy.shape[0])
    }


def apply_fault(window: SignalWindow, profile: FaultProfile) -> SignalWindow | None:
    """Apply one fault to one window; only overlapping samples are touched.

    Channel isolation is structural: the function sees a single channel.
    A ``missing`` fault that overlaps the window at all suppresses the whole
    window (returns None). Non-overlapping profiles leave the window as is.
    """
    if profile.sensor_id != window.sensor_id:
        raise SensingError(
            f"fault targets sensor {profile.sensor_id}, window is from sensor {window.sensor_id}"
        )
    mask = profile.active_mask(window)
    if not mask.any():
        return window
    if profile.kind == "missing":
        return None
    y = window.samples.copy()
    if profile.kind == "debonding_gain":
        y[mask] = profile.gain * y[mask]
        if profile.parasite_std > 0:
            rng = np.random.default_rng((profile.seed, window.sensor_id, window.round_index))
            y[mask] += profile.parasite_std * rng.standard_normal(int(mask.sum()))
    elif profile.kind == "stuck_constant":
        y[mask] = profile.stuck_value
    elif profile.kind == "offset_bias":
        y[mask] = y[mask] + profile.offset
    elif profile.kind == "drift":
        t = window.times[mask]
        y[mask] = y[mask] + profile.drift_rate * (t - profile.onset)
    elif profile.kind == "precision_degradation":
        if profile.quantization_step <= 0:
            raise SensingError("precision_degradation requires quantization_step > 0")
        q = profile.quantization_step
        y[mask] = q * np.round(y[mask] / q)
    elif profile.kind == "noise_burst":
        rng = np.random.default_rng((profile.seed, window.sensor_id, window.round_index))
        y[mask] = y[mask] + profile.burst_std * rng.standard_normal(int(mask.sum()))
    return replace(window, samples=y)


def apply_faults(window: SignalWindow | None, profiles) -> SignalWindow | None:
    """Apply every profile that targets this window's sensor, in order."""
    for profile in profiles:
        if window is None:
            return None
        if profile.sensor_id == window.sensor_id:
            window = apply_fault(window, profile)
    return window


def sampling_points(n_a: int, c_r: float) -> int:
    """Window length M = (n_a/2 + 1/2) * c_r, rounded to the nearest integer.

    ``n_a`` is the number of 50%-overlapping averaging segments (practical
    range 10..20) and ``c_r`` the segment correlation length.
    """
    if not (10 <= n_a <= 20):
        raise SensingError("n_a must lie in [10, 20]")
    if c_r <= 0:
        raise SensingError("c_r must be > 0")
    return int(round((n_a / 2.0 + 0.5) * c_r))
