"""Sensor measurement and the fault taxonomy, one transform at a time.

Measures a simulated response with 10% noise, then shows what each fault
kind does to a window's basic statistics.
"""

import numpy as np

from shmsim.sensing import FaultProfile, apply_fault, sample_round, sampling_points
from shmsim.structure import ExcitationSpec, simulate_response, uniform_chain

M = sampling_points(n_a=10, c_r=100)
print(f"window length from 10 averaging segments of 100 samples: M = {M}")

spec = uniform_chain(4, 1000.0, 1.769e6, 0.02, (M + 1) * 0.02)
rec = simulate_response(spec, ExcitationSpec("sine", 1.0, frequency=0.9))
clean = rec.accelerations[:, :M]
noise_std = 0.10 * np.sqrt(np.mean(clean**2, axis=1))
window = sample_round(clean, noise_std, seed=7, round_index=0, start_time=0.0, dt=rec.dt)[2]
rms = float(np.sqrt(np.mean(window.samples**2)))
print(f"channel 2: rms {rms:.3f}, mean {np.mean(window.samples):+.4f}")

faults = [
    FaultProfile(kind="debonding_gain", sensor_id=2, onset=0.0, gain=0.3, parasite_std=rms),
    FaultProfile(kind="stuck_constant", sensor_id=2, onset=0.0, stuck_value=3 * rms),
    FaultProfile(kind="offset_bias", sensor_id=2, onset=0.0, offset=5 * rms),
    FaultProfile(kind="drift", sensor_id=2, onset=0.0, drift_rate=2 * rms / (M * 0.02)),
    FaultProfile(kind="precision_degradation", sensor_id=2, onset=0.0, quantization_step=rms / 2),
    FaultProfile(kind="noise_burst", sensor_id=2, onset=0.0, burst_std=0.3 * rms, seed=1),
]
print(f"\n{'kind':24s} {'rms':>9s} {'mean':>9s} {'std':>9s}")
for profile in faults:
    out = apply_fault(window, profile)
    print(
        f"{profile.kind:24s} {np.sqrt(np.mean(out.samples**2)):9.3f} "
        f"{np.mean(out.samples):9.3f} {np.std(out.samples):9.3f}"
    )
gone = apply_fault(window, FaultProfile(kind="missing", sensor_id=2, onset=0.0))
print(f"{'missing':24s} -> window not delivered: {gone is None}")
