"""Sensor measurement and the sensor-fault taxonomy.

Turns ground-truth structural responses into per-channel measured signal
windows (the acceleration at each channel's DOF plus additive Gaussian noise)
and injects faults: debonding attenuation, stuck readings, offset/bias, drift,
precision degradation, noise bursts, and missing windows. A missing window is
delivered as ``None`` so downstream code observes absence, never zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class SensingError(ValueError):
    """Raised on invalid sensor array or fault descriptions."""


FAULT_KINDS = (
    "debonding_gain",
    "stuck_constant",
    "offset_bias",
    "drift",
    "precision_degradation",
    "noise_burst",
    "missing",
)


@dataclass(frozen=True)
class SensorArraySpec:
    """Which structural DOF each sensor channel reads, and its noise level.

    ``noise_std`` gives one standard deviation per channel; when None, each
    channel gets ``noise_fraction`` times its fault-free signal RMS (the 10%
    ambient-noise operating point by default).
    """

    positions: tuple
    noise_std: np.ndarray | None = None
    noise_fraction: float = 0.10

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))
        if len(self.positions) == 0:
            raise SensingError("sensor array needs at least one channel")
        if self.noise_std is not None:
            std = np.asarray(self.noise_std, dtype=float)
            if std.shape != (len(self.positions),) or np.any(std < 0):
                raise SensingError("noise_std must be a non-negative vector, one entry per sensor")
            std.setflags(write=False)
            object.__setattr__(self, "noise_std", std)
        if self.noise_fraction < 0:
            raise SensingError("noise_fraction must be >= 0")

    @property
    def n_sensors(self) -> int:
        return len(self.positions)


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
        samples = np.asarray(self.samples, dtype=float)
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


def measure(response, array: SensorArraySpec, window: int, seed: int) -> list:
    """Sample the response into per-sensor streams of SignalWindow objects.

    Returns ``streams[sensor][round]``; channel i carries the acceleration at
    its DOF plus i.i.d. Gaussian noise of the configured standard deviation.
    Bit-identical for identical seeds.
    """
    if window <= 0:
        raise SensingError("window length must be positive")
    acc = response.accelerations
    n_dof, n_samples = acc.shape
    for dof in array.positions:
        if not (0 <= dof < n_dof):
            raise SensingError(f"sensor position {dof} out of range for {n_dof} DOFs")
    n_rounds = n_samples // window
    if n_rounds == 0:
        raise SensingError("response shorter than one window")
    picked = acc[list(array.positions), : n_rounds * window]
    if array.noise_std is not None:
        std = array.noise_std
    else:
        std = array.noise_fraction * np.sqrt(np.mean(picked**2, axis=1))
    rng = np.random.default_rng(seed)
    noisy = picked + std[:, None] * rng.standard_normal(picked.shape)
    streams = []
    for s in range(array.n_sensors):
        rounds = []
        for d in range(n_rounds):
            rounds.append(
                SignalWindow(
                    sensor_id=s,
                    start_time=d * window * response.dt,
                    dt=response.dt,
                    samples=noisy[s, d * window : (d + 1) * window],
                    round_index=d,
                )
            )
        streams.append(rounds)
    return streams


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
