"""Reconstructing a faulty channel from its neighbors with the Kalman filter.

A stuck channel's measurement variance is inflated so the filter rebuilds its
signal from the neighbor channels and the structural model. The missing-node
scan then shows the leave-one-out KL indicator picking a removed sensor.
"""

import numpy as np

from shmsim.kalman import missing_sensor_scan, reconstruct_signals
from shmsim.sensing import SignalWindow, sample_round
from shmsim.structure import ExcitationSpec, simulate_response, uniform_chain

WINDOW = 2048
spec = uniform_chain(10, 1000.0, 1.769e6, 0.02, (WINDOW + 1) * 0.02)
sine = simulate_response(spec, ExcitationSpec("sine", 1.0, frequency=0.9))
ambient = simulate_response(spec, ExcitationSpec("white_noise", 0.02, seed=99))
clean = sine.accelerations[:, :WINDOW] + ambient.accelerations[:, :WINDOW]
rms = np.sqrt(np.mean(clean**2, axis=1))
noise_std = 0.1 * rms
measured = sample_round(clean, noise_std, 1, 0, 0.0, 0.02)
noise_var = {ch: float(noise_std[ch] ** 2) for ch in range(10)}

# sensor 5 reports a constant; its neighbors carry the information
scope = {ch: measured[ch] for ch in (3, 4, 6, 7)}
scope[5] = SignalWindow(
    sensor_id=5, start_time=0.0, dt=0.02, samples=np.full(WINDOW, 3 * rms[5]), round_index=0
)
result = reconstruct_signals([5], scope, spec, noise_var=noise_var, truth={5: clean[5]})[0]
print(f"stuck sensor 5 reconstructed: correlation with truth = {result.quality:.4f}")
print(f"residual rms = {np.sqrt(np.mean(result.residual**2)):.3f}")

# leave-one-out scan: the candidate whose exclusion explains the data best
windows = dict(measured)
windows[7] = None  # sensor 7 went silent
scan = missing_sensor_scan(range(10), windows, spec, noise_var=noise_var)
print("\nKL-KF indicators per candidate (lower = better exclusion):")
for ch, lam in sorted(scan.lambdas.items()):
    marker = " <-- reported missing" if scan.reported == ch else ""
    print(f"  node {ch}: {lam:8.4f}{marker}")
