"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS line with the measured values once its
assertions hold, so a verbose run doubles as the acceptance report.
"""

import hashlib
import time

import numpy as np
import pytest

from conftest import (
    SEEDS_20,
    field_config,
    localization_config,
    missing_node_config,
    read_rows,
    read_summary,
    standard_config,
)
from shmsim.detection import default_edges, mutual_information_binned
from shmsim.kalman import reconstruct_signals
from shmsim.sensing import SignalWindow
from shmsim.scenario import compare_schemes, run_scenario
from shmsim.structure import (
    ExcitationSpec,
    StructureSpec,
    eigen_modes,
    simulate_response,
    uniform_chain,
)

GAUSSIAN_MI_RHO09 = 0.8303656034108254  # -0.5 ln(1 - 0.81)
DELTA_2DOF = (0.3819660112501051, 2.618033988749895)  # (3 -+ sqrt 5) / 2


def _report(criterion, detail):
    print(f"\n[ACCEPTANCE {criterion}] PASS - {detail}")


def test_criterion_1_mutual_information_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    xy = rng.multivariate_normal([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]], size=100_000)
    u, v = xy[:, 0], xy[:, 1]
    edges_u, edges_v = default_edges(u, 32), default_edges(v, 32)
    omega = mutual_information_binned(u, v, (edges_u, edges_v))
    rel_err = abs(omega - GAUSSIAN_MI_RHO09) / GAUSSIAN_MI_RHO09
    assert rel_err < 0.15
    assert omega == mutual_information_binned(v, u, (edges_v, edges_u))  # exact symmetry
    a, b = rng.standard_normal(100_000), rng.standard_normal(100_000)
    indep = mutual_information_binned(a, b, (default_edges(a, 32), default_edges(b, 32)))
    assert indep <= 0.02
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"omega={omega:.4f} (err {rel_err:.1%}), independence={indep:.4f} nats, {elapsed:.2f}s")


def test_criterion_2_eigen_and_integration():
    spec2 = StructureSpec(masses=[1.0, 1.0], stiffnesses=[1.0, 1.0], dt=0.05, duration=1.0)
    basis = eigen_modes(spec2)
    assert abs(basis.eigenvalues[0] - DELTA_2DOF[0]) < 1e-9
    assert abs(basis.eigenvalues[1] - DELTA_2DOF[1]) < 1e-9
    gram_err = 0.0
    for n_dof in (2, 4, 10):
        spec = uniform_chain(n_dof, 1.3, 700.0, 0.005, 1.0)
        b = eigen_modes(spec)
        gram = b.mode_shapes.T @ np.diag(spec.masses) @ b.mode_shapes
        gram_err = max(gram_err, float(np.max(np.abs(gram - np.eye(n_dof)))))
    assert gram_err < 1e-9

    worst = 0.0
    for n_dof in (2, 4):
        spec = uniform_chain(n_dof, 2.0, 800.0, 0.005, 10.0)
        rec = simulate_response(spec, ExcitationSpec("white_noise", 1.0, seed=42))
        k_mat = spec.stiffness_matrix()
        m_inv = 1.0 / spec.masses
        pattern = -spec.masses
        force = rec.excitation_trace

        def deriv(state, f):
            x, vel = state[:n_dof], state[n_dof:]
            return np.concatenate([vel, m_inv * (pattern * f - k_mat @ x)])

        sub, h = 20, spec.dt / 20
        state = np.zeros(2 * n_dof)
        oracle = np.empty((n_dof, spec.n_samples))
        for k in range(spec.n_samples):
            oracle[:, k] = state[:n_dof]
            fk = force[k]
            for _ in range(sub):
                k1 = deriv(state, fk)
                k2 = deriv(state + 0.5 * h * k1, fk)
                k3 = deriv(state + 0.5 * h * k2, fk)
                k4 = deriv(state + h * k3, fk)
                state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        err = np.sqrt(np.mean((oracle - rec.displacements) ** 2)) / np.sqrt(
            np.mean(rec.displacements**2)
        )
        worst = max(worst, float(err))
    assert worst < 1e-6
    _report(2, f"2-DOF eigenvalues exact, normalization {gram_err:.2e}, RK4 gap {worst:.2e}")


def test_criterion_3_field_detection_accuracy(run_cached):
    rates = (0.15, 0.20, 0.25)
    start = time.monotonic()
    accuracies, surcharges = [], []
    for i, seed in enumerate(SEEDS_20):
        out = run_cached(f"field_{seed}", field_config(seed, rates[i % 3]))
        summary = read_summary(out)
        accuracies.append(summary["detection_accuracy"])
        if summary["fault_round_surcharge"] is not None:
            surcharges.append(summary["fault_round_surcharge"])
    elapsed = time.monotonic() - start
    mean_acc = float(np.mean(accuracies))
    assert mean_acc >= 0.95
    assert elapsed < 300.0
    _report(3, f"mean accuracy {mean_acc:.4f} over 20 seeds at 15-25% fault rates, {elapsed:.0f}s")


def test_criterion_4_reconstruction_quality_and_invariance():
    window = 2048
    spec = uniform_chain(10, 1000.0, 1.769e6, 0.02, (window + 1) * 0.02)
    sine = simulate_response(spec, ExcitationSpec("sine", 1.0, frequency=0.9))
    ambient = simulate_response(spec, ExcitationSpec("white_noise", 0.02, seed=50_008))
    clean = sine.accelerations[:, :window] + ambient.accelerations[:, :window]
    rms = np.sqrt(np.mean(clean**2, axis=1))
    rng = np.random.default_rng(5)
    noisy = clean + 0.1 * rms[:, None] * rng.standard_normal(clean.shape)
    noise_var = {ch: float((0.1 * rms[ch]) ** 2) for ch in range(10)}

    def win(ch, samples):
        return SignalWindow(sensor_id=ch, start_time=0.0, dt=0.02, samples=samples, round_index=0)

    qualities, recs = [], []
    for corrupt in (np.full(window, 3 * rms[5]), noisy[5] + 5 * rms[5]):
        scope = {ch: win(ch, noisy[ch]) for ch in (3, 4, 6, 7)}
        scope[5] = win(5, corrupt)
        out = reconstruct_signals([5], scope, spec, noise_var=noise_var, truth={5: clean[5]})
        qualities.append(out[0].quality)
        recs.append(out[0].reconstructed.samples)
    assert min(qualities) >= 0.90
    drift = float(np.sqrt(np.mean((recs[0] - recs[1]) ** 2)))
    assert drift < 1e-6
    _report(4, f"stuck-channel correlation {min(qualities):.4f}, corruption sensitivity {drift:.2e} RMS")


def test_criterion_5_missing_node_scan(run_cached):
    hits = 0
    for seed in SEEDS_20:
        out = run_cached(f"missing_{seed}", missing_node_config(seed, node=5))
        rows = read_rows(out / "detections.csv")
        first_round = min(int(r["round"]) for r in rows)
        verdicts = {int(r["node"]): r["verdict"] for r in rows if int(r["round"]) == first_round}
        if verdicts[5] == "missing" and all(
            v == "non_faulty" for n, v in verdicts.items() if n != 5
        ):
            hits += 1
    assert hits >= 19
    _report(5, f"removed node identified in {hits}/20 seeds")


def test_criterion_6_dependability_ordering(tmp_path):
    abilities = {"dependshm": [], "no_recovery": []}
    for seed in SEEDS_20:
        out = tmp_path / str(seed)
        compare_schemes(standard_config(seed), list(abilities), str(out))
        for mode in abilities:
            abilities[mode].append(read_summary(out / mode)["event_detection_ability"])
    mean_dep = float(np.mean(abilities["dependshm"]))
    mean_off = float(np.mean(abilities["no_recovery"]))
    assert mean_dep >= 0.93
    assert mean_off <= 0.75
    assert all(a >= b for a, b in zip(abilities["dependshm"], abilities["no_recovery"]))
    _report(6, f"event ability {mean_dep:.3f} (recovery) vs {mean_off:.3f} (none), 20 paired seeds")


def test_criterion_7_energy_ratios(run_cached):
    dep = read_summary(run_cached("field_1", field_config(1, 0.15)))
    raw = read_summary(
        run_cached("field_raw_1", field_config(1, 0.15, mode="raw_centralized"))
    )
    ratio = raw["energy_communication_j"] / dep["energy_communication_j"]
    assert ratio >= 3.0
    surcharges = [
        read_summary(run_cached(f"field_{seed}", field_config(seed, (0.15, 0.20, 0.25)[i % 3])))[
            "fault_round_surcharge"
        ]
        for i, seed in enumerate(SEEDS_20)
    ]
    mean_surcharge = float(np.mean([s for s in surcharges if s is not None]))
    assert 0.03 <= mean_surcharge <= 0.10
    _report(
        7,
        f"centralized/distributed comm ratio {ratio:.2f}, fault-round surcharge {mean_surcharge:.1%}",
    )


def test_criterion_8_damage_localization(run_cached):
    hits = 0
    for seed in SEEDS_20:
        out = run_cached(f"loc_{seed}", localization_config(seed))
        rows = read_rows(out / "dependability.csv")
        last = rows[-1]
        if int(last["damage_tp"]) >= 1 and int(last["damage_fp"]) == 0:
            hits += 1
    assert hits >= 18
    _report(8, f"curvature peak within one story of the damage in {hits}/20 seeds")


def test_criterion_9_determinism(tmp_path):
    cfg = standard_config(1, "dependshm")
    run_scenario(cfg, str(tmp_path / "a"))
    run_scenario(cfg, str(tmp_path / "b"))
    digests = []
    for name in (
        "detections.csv",
        "reconstructions.csv",
        "modes.csv",
        "energy.csv",
        "dependability.csv",
        "manifest.json",
        "summary.json",
    ):
        da = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
        db = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
        assert da == db, name
        digests.append(da[:8])
    _report(9, f"re-run byte-identical across {len(digests)} artifacts")
