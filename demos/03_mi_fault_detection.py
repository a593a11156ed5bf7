"""Mutual-information fault indicators on a monitored chain.

Trains the reference correlation model on fault-free rounds, then shows the
indicator lambda = |omega - omega_ref| / omega staying far below the 0.5
decision threshold for healthy channels and saturating for faulty ones.
"""

import numpy as np

from shmsim.detection import DetectionConfig, detection_round, train_correlation_model
from shmsim.sensing import SignalWindow, sample_round
from shmsim.structure import ExcitationSpec, simulate_response, uniform_chain

WINDOW = 1024
spec = uniform_chain(10, 1000.0, 1.769e6, 0.02, (WINDOW + 1) * 0.02)
sine = simulate_response(spec, ExcitationSpec("sine", 1.0, frequency=0.9))


def episode(tag):
    ambient = simulate_response(spec, ExcitationSpec("white_noise", 0.02, seed=1000 + tag))
    clean = sine.accelerations[:, :WINDOW] + ambient.accelerations[:, :WINDOW]
    rms = np.sqrt(np.mean(clean**2, axis=1))
    return sample_round(clean, 0.1 * rms, 2000 + tag, tag, 0.0, 0.02), rms


config = DetectionConfig(bins=16, R=5, threshold=0.5)
neighbors = {ch: [j for j in range(10) if j != ch and abs(j - ch) <= 2] for ch in range(10)}
pairs = sorted({(min(i, j), max(i, j)) for i in neighbors for j in neighbors[i]})

training = {ch: [] for ch in range(10)}
for d in range(6):
    windows, rms = episode(d)
    for ch in range(10):
        training[ch].append(windows[ch])
model = train_correlation_model(training, config, pairs=pairs)
print("reference MI for adjacent pair (4,5):", round(model.reference(4, 5), 3), "nats")

windows, rms = episode(50)
decisions = detection_round(windows, neighbors, model, config)
print("\nfault-free round:      max lambda =", round(max(d.lambda_agg for d in decisions.values()), 3))

windows[5] = SignalWindow(
    sensor_id=5, start_time=0.0, dt=0.02, samples=np.full(WINDOW, 3 * rms[5]), round_index=50
)
decisions = detection_round(windows, neighbors, model, config)
print("stuck sensor 5:        per-node verdicts:")
for ch, dec in sorted(decisions.items()):
    marker = " <--" if dec.verdict != "non_faulty" else ""
    print(f"  node {ch}: lambda {dec.lambda_agg:7.3f}  {dec.verdict}{marker}")
