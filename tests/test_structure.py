"""Structural model tests: modal analysis, exact time marching, damage."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from shmsim import structure
from shmsim.scenario import run_scenario, validate_config
from shmsim.structure import (
    DamageSpec,
    ExcitationSpec,
    StructureError,
    StructureSpec,
    _unit_powers,
    _zoh_march,
    apply_damage,
    discrete_state_space,
    eigen_modes,
    free_vibration,
    mechanical_energy,
    simulate_response,
    uniform_chain,
)

# roots of det(K - delta M) = 0 for the 2-story unit chain: delta^2 - 3 delta + 1
DELTA_2DOF = (0.3819660112501051, 2.618033988749895)


class TestEigenModes:
    def test_single_mass_analytic_frequency(self):
        spec = StructureSpec(masses=[1.0], stiffnesses=[(2 * math.pi) ** 2], dt=0.05, duration=1.0)
        basis = eigen_modes(spec)
        assert basis.frequencies[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_story_chain_analytic_eigenvalues(self):
        spec = StructureSpec(masses=[1.0, 1.0], stiffnesses=[1.0, 1.0], dt=0.05, duration=1.0)
        basis = eigen_modes(spec)
        assert basis.eigenvalues[0] == pytest.approx(DELTA_2DOF[0], abs=1e-9)
        assert basis.eigenvalues[1] == pytest.approx(DELTA_2DOF[1], abs=1e-9)

    @pytest.mark.parametrize("n_dof", [1, 3, 10])
    def test_mass_normalization(self, n_dof):
        spec = uniform_chain(n_dof, 2.5, 900.0, 0.01, 1.0)
        basis = eigen_modes(spec)
        gram = basis.mode_shapes.T @ np.diag(spec.masses) @ basis.mode_shapes
        assert np.max(np.abs(gram - np.eye(n_dof))) < 1e-9

    def test_stiffness_diagonalization(self):
        spec = uniform_chain(6, 1.0, 250.0, 0.01, 1.0)
        basis = eigen_modes(spec)
        kd = basis.mode_shapes.T @ spec.stiffness_matrix() @ basis.mode_shapes
        assert np.max(np.abs(kd - np.diag(basis.eigenvalues))) < 1e-9

    def test_frequencies_strictly_ascending(self):
        basis = eigen_modes(uniform_chain(8, 1.0, 500.0, 0.01, 1.0))
        assert np.all(np.diff(basis.frequencies) > 0)
        assert np.allclose(basis.frequencies, np.sqrt(basis.eigenvalues) / (2 * math.pi))


class TestEigenCache:
    """One eigen-solve per spec instance, shared read-only."""

    def test_repeated_calls_return_the_same_objects(self):
        spec = uniform_chain(5, 1.0, 500.0, 0.01, 1.0)
        assert eigen_modes(spec) is eigen_modes(spec)
        assert spec.eigenvalues() is spec.eigenvalues()

    def test_cached_values_equal_a_fresh_solve(self):
        """Cached values equal a fresh spec's solve bit for bit, and scipy's generalized
        ``eigh`` (another LAPACK routine) within 1e-12 of the largest eigenvalue, on a
        uniform chain and on random non-uniform ones."""
        chains = [uniform_chain(7, 2.0, 800.0, 0.01, 1.0)]
        chains += [_random_chain(n_dof, 0.5) for n_dof in (5, 30, 100)]
        for spec in chains:
            vals = spec.eigenvalues()
            twin = StructureSpec(spec.masses, spec.stiffnesses, spec.dt, spec.duration)
            assert np.array_equal(vals, twin.eigenvalues())
            assert np.array_equal(eigen_modes(spec).eigenvalues, vals)
            oracle = eigh(spec.stiffness_matrix(), np.diag(spec.masses))[0]
            assert np.max(np.abs(vals - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_one_eigen_solve_per_spec(self, monkeypatch):
        """Validation, ``eigenvalues()`` and ``eigen_modes()`` share one ``eigh`` call."""
        calls, solve = [], np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(kwargs)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        spec = uniform_chain(6, 1.0, 500.0, 0.01, 1.0)
        spec.eigenvalues()
        eigen_modes(spec)
        spec.eigenvalues()
        assert len(calls) == 1

    def test_damaged_spec_gets_its_own_basis(self):
        spec = uniform_chain(5, 1.0, 500.0, 0.01, 1.0)
        damaged = apply_damage(spec, DamageSpec(location=1, severity=0.3))
        healthy, broken = eigen_modes(spec), eigen_modes(damaged)
        assert broken is not healthy
        assert np.all(broken.frequencies < healthy.frequencies)
        twin = StructureSpec(damaged.masses, damaged.stiffnesses, damaged.dt, damaged.duration)
        assert np.array_equal(broken.mode_shapes, eigen_modes(twin).mode_shapes)
        assert eigen_modes(spec) is healthy

    def test_cached_arrays_are_read_only(self):
        spec = uniform_chain(4, 1.0, 500.0, 0.01, 1.0)
        basis = eigen_modes(spec)
        for arr in (basis.frequencies, basis.mode_shapes, basis.eigenvalues, spec.eigenvalues()):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0


class TestSubChain:
    """Equal slices of a chain share one spec, and with it one eigen-solve and one state space."""

    def test_equal_slices_share_one_spec(self):
        spec = uniform_chain(12, 1000.0, 1.769e6, 0.02, 1.0)
        first = spec.sub_chain(0, 4)
        assert spec.sub_chain(6, 10) is first
        assert spec.sub_chain(0, 5) is not first
        damaged = apply_damage(spec, DamageSpec(location=7, severity=0.3))
        assert damaged.sub_chain(0, 4) is not first
        assert damaged.sub_chain(6, 10) is not damaged.sub_chain(0, 4)
        assert np.array_equal(damaged.sub_chain(6, 10).stiffnesses, damaged.stiffnesses[6:11])

    def test_one_state_space_per_distinct_slice(self):
        spec = uniform_chain(12, 1000.0, 1.769e6, 0.02, 1.0)
        transitions = {id(discrete_state_space(spec.sub_chain(lo, lo + 3))[0]) for lo in range(8)}
        assert len(transitions) == 1
        assert id(discrete_state_space(spec.sub_chain(0, 2))[0]) not in transitions

    def test_cached_state_space_equals_a_fresh_spec_and_is_read_only(self):
        masses = np.array([900.0, 1000.0, 1100.0, 1000.0, 950.0, 1050.0, 1000.0])
        stiffnesses = np.array([1.8e6, 1.7e6, 1.75e6, 1.6e6, 1.9e6, 1.7e6, 1.65e6])
        spec = StructureSpec(masses, stiffnesses, 0.02, 10.0)
        sub = spec.sub_chain(2, 5)
        fresh = StructureSpec(masses[2:6].copy(), stiffnesses[2:6].copy(), 0.02, 0.04)
        cached = discrete_state_space(sub)
        assert discrete_state_space(sub)[0] is cached[0]
        for a, b in zip(cached, discrete_state_space(fresh)):
            assert np.array_equal(a, b)
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


def _random_chain(n_dof, nyquist_fraction):
    """A chain of random non-uniform stories, sampled at a fraction of its Nyquist bound."""
    rng = np.random.default_rng(n_dof)
    masses, stiffnesses = rng.uniform(500.0, 2000.0, n_dof), rng.uniform(5e5, 3e6, n_dof)
    probe = StructureSpec(masses, stiffnesses, 1e-9, 1.0)
    f_max = math.sqrt(eigh(probe.stiffness_matrix(), np.diag(masses), eigvals_only=True)[-1])
    f_max /= 2.0 * math.pi
    return StructureSpec(masses, stiffnesses, nyquist_fraction / (2.0 * f_max), 1.0)


class TestClosedFormAgainstOracles:
    """On random non-uniform chains the numpy basis is mass-normalized and the closed-form
    modal ZOH pair is scipy's ``expm`` of the augmented system."""

    @pytest.mark.parametrize("fraction", [0.1, 0.9, 0.999])
    @pytest.mark.parametrize("n_dof", [1, 2, 5, 30, 100])
    def test_state_space_equals_expm(self, n_dof, fraction):
        spec = _random_chain(n_dof, fraction)
        n = n_dof
        phi = eigen_modes(spec).mode_shapes
        assert np.max(np.abs(phi.T @ np.diag(spec.masses) @ phi - np.eye(n))) < 1e-12
        aug = np.zeros((3 * n, 3 * n))  # [[A, B], [0, 0]]: its exponential holds both matrices
        aug[:n, n : 2 * n] = np.eye(n)
        aug[n : 2 * n, :n] = -(spec.stiffness_matrix() / spec.masses[:, None])
        aug[n : 2 * n, 2 * n :] = np.diag(1.0 / spec.masses)
        exp_aug = expm(aug * spec.dt)
        for closed, oracle in zip(
            discrete_state_space(spec), (exp_aug[: 2 * n, : 2 * n], exp_aug[: 2 * n, 2 * n :])
        ):
            assert np.max(np.abs(closed - oracle)) <= 1e-12 * np.max(np.abs(oracle))


class TestSpecValidation:
    def test_rejects_nonpositive_masses(self):
        with pytest.raises(StructureError):
            StructureSpec(masses=[1.0, 0.0], stiffnesses=[1.0, 1.0], dt=0.01, duration=1.0)

    def test_rejects_nyquist_violation(self):
        # f_max of this chain is ~0.257 Hz, so dt must stay below ~1.94 s
        with pytest.raises(StructureError, match="Nyquist"):
            StructureSpec(masses=[1.0, 1.0], stiffnesses=[1.0, 1.0], dt=2.0, duration=10.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(StructureError):
            StructureSpec(masses=[1.0], stiffnesses=[1.0, 2.0], dt=0.01, duration=1.0)


class TestSimulateResponse:
    def test_zero_excitation_zero_response(self):
        spec = uniform_chain(3, 1.0, 400.0, 0.01, 5.0)
        rec = simulate_response(spec, ExcitationSpec("white_noise", 0.0, seed=1))
        assert np.all(rec.accelerations == 0.0)
        assert np.all(rec.displacements == 0.0)

    def test_resonant_forcing_grows_monotonically(self):
        spec = StructureSpec(masses=[1.0], stiffnesses=[(2 * math.pi) ** 2], dt=0.01, duration=30.0)
        rec = simulate_response(
            spec, ExcitationSpec("sine", 1.0, frequency=1.0, location=0)
        )
        x = rec.displacements[0]
        cycle = 100  # one forcing period at dt=0.01
        peaks = [np.max(np.abs(x[k * cycle : (k + 1) * cycle])) for k in range(30)]
        assert all(b > a for a, b in zip(peaks[2:], peaks[3:]))

    def test_psd_peaks_at_natural_frequencies(self):
        spec = uniform_chain(10, 1.0, (2 * math.pi * 5) ** 2, 0.005, 60.0)
        basis = eigen_modes(spec)
        rec = simulate_response(spec, ExcitationSpec("white_noise", 1.0, seed=3))
        a = rec.accelerations[0]
        freqs = np.fft.rfftfreq(a.size, spec.dt)
        power = np.abs(np.fft.rfft(a)) ** 2
        bin_width = freqs[1] - freqs[0]
        for f in basis.frequencies:
            lo = np.searchsorted(freqs, f - 5 * bin_width)
            hi = np.searchsorted(freqs, f + 5 * bin_width)
            peak = freqs[lo + np.argmax(power[lo:hi])]
            assert abs(peak - f) <= bin_width

    def test_matches_rk4_oracle(self):
        """Independent RK4 integration of M xdd + K x = F agrees to 1e-6."""
        spec = uniform_chain(3, 2.0, 800.0, 0.005, 10.0)
        rec = simulate_response(spec, ExcitationSpec("white_noise", 1.0, seed=42))
        k_mat = spec.stiffness_matrix()
        m_inv = 1.0 / spec.masses
        pattern = -spec.masses  # base excitation
        force = rec.excitation_trace
        n = spec.n_dof

        def deriv(state, f):
            x, v = state[:n], state[n:]
            return np.concatenate([v, m_inv * (pattern * f - k_mat @ x)])

        sub = 20
        h = spec.dt / sub
        state = np.zeros(2 * n)
        oracle = np.empty((n, spec.n_samples))
        for k in range(spec.n_samples):
            oracle[:, k] = state[:n]
            fk = force[k]
            for _ in range(sub):
                k1 = deriv(state, fk)
                k2 = deriv(state + 0.5 * h * k1, fk)
                k3 = deriv(state + 0.5 * h * k2, fk)
                k4 = deriv(state + h * k3, fk)
                state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        err = np.sqrt(np.mean((oracle - rec.displacements) ** 2))
        scale = np.sqrt(np.mean(rec.displacements**2))
        assert err / scale < 1e-6

    def test_free_vibration_conserves_energy(self):
        spec = uniform_chain(4, 1.5, 600.0, 0.005, 20.0)
        rec = free_vibration(spec, x0=[0.1, 0.05, -0.02, 0.0], v0=[0.0, 0.3, 0.0, -0.1])
        energy = mechanical_energy(spec, rec)
        assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-6

    def test_recurrence_matches_per_sample_zoh_loop(self):
        """The modal recurrence agrees with the step-by-step ZOH update (float64 eps x steps)."""
        spec = uniform_chain(10, 1000.0, 1.769e6, 0.02, 41.0)
        rec = simulate_response(spec, ExcitationSpec("white_noise", 1.0, seed=3))
        basis = eigen_modes(spec)
        phi, delta = basis.mode_shapes, basis.eigenvalues
        omega = np.sqrt(delta)
        c, s = np.cos(omega * spec.dt), np.sin(omega * spec.dt)
        gamma = phi.T @ -spec.masses  # base excitation
        q, qd = np.zeros(spec.n_dof), np.zeros(spec.n_dof)
        disp, vel = np.empty_like(rec.displacements), np.empty_like(rec.velocities)
        for k, f in enumerate(rec.excitation_trace):
            disp[:, k], vel[:, k] = phi @ q, phi @ qd
            qp = gamma * f / delta
            q, qd = qp + (q - qp) * c + qd * s / omega, -(q - qp) * omega * s + qd * c
        for got, ref in ((rec.displacements, disp), (rec.velocities, vel)):
            assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_free_vibration_energy_does_not_drift_over_long_runs(self):
        """40 000 steps of a 4-story chain: energy holds and the phase stays on the closed form."""
        spec = uniform_chain(4, 1.5, 600.0, 0.005, 200.0)
        assert spec.n_samples >= 20_000
        x0, v0 = np.array([0.1, 0.05, -0.02, 0.0]), np.array([0.0, 0.3, 0.0, -0.1])
        rec = free_vibration(spec, x0, v0)
        energy = mechanical_energy(spec, rec)
        assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-6
        basis = eigen_modes(spec)
        phi, omega = basis.mode_shapes, np.sqrt(basis.eigenvalues)
        q0, qd0 = phi.T @ (spec.masses * x0), phi.T @ (spec.masses * v0)
        wt = omega[:, None] * rec.times[None, -1000:]
        disp = phi @ (q0[:, None] * np.cos(wt) + (qd0 / omega)[:, None] * np.sin(wt))
        assert np.max(np.abs(rec.displacements[:, -1000:] - disp)) < 1e-9 * np.max(np.abs(disp))

    def test_free_vibration_long_horizon_matches_closed_form(self):
        """50 000 exact steps of one oscillator stay on x0 cos(wt) + (v0/w) sin(wt)."""
        omega = 2 * math.pi * 1.3
        spec = StructureSpec(masses=[2.0], stiffnesses=[2.0 * omega**2], dt=0.01, duration=500.005)
        assert spec.n_samples == 50_000
        x0, v0 = 0.02, -0.15
        rec = free_vibration(spec, [x0], [v0])
        wt = omega * rec.times
        disp = x0 * np.cos(wt) + (v0 / omega) * np.sin(wt)
        vel = -x0 * omega * np.sin(wt) + v0 * np.cos(wt)
        assert np.max(np.abs(rec.displacements[0] - disp)) < 1e-9 * np.max(np.abs(disp))
        assert np.max(np.abs(rec.velocities[0] - vel)) < 1e-9 * np.max(np.abs(vel))

    @pytest.mark.parametrize("location", [None, 2])
    def test_acceleration_contract_across_damage(self, location):
        """Base motion: -M^-1 K x; point force f at e_loc: M^-1 (f e_loc - K x); K per spec.

        Checked on a healthy spec and on its ``apply_damage`` copy.
        """
        healthy = uniform_chain(4, 1.5, 600.0, 0.01, 3.0)
        excitation = ExcitationSpec("white_noise", 1.0, location=location, seed=4)
        for spec in (healthy, apply_damage(healthy, DamageSpec(location=1, severity=0.3))):
            rec = simulate_response(spec, excitation)
            expected = -(spec.stiffness_matrix() @ rec.displacements)
            if location is not None:
                expected[location] += rec.excitation_trace
            expected /= spec.masses[:, None]
            err = np.max(np.abs(rec.accelerations - expected))
            assert err < 1e-9 * np.max(np.abs(expected))


class TestZohMarch:
    @pytest.mark.parametrize("n_dof, n_steps", [(10, 2049), (100, 551)])
    def test_matches_per_sample_complex_recurrence(self, n_dof, n_steps):
        """The closed-form march equals w[k+1] = rho w[k] + (1 - rho) f[k] / delta, step by step."""
        spec = uniform_chain(n_dof, 1000.0, 1.769e6, 0.02, 1.0)
        basis = eigen_modes(spec)
        delta = basis.eigenvalues
        omega = np.sqrt(delta)
        rng = np.random.default_rng(n_dof)
        force = delta[:, None] * rng.standard_normal((n_dof, n_steps))
        q0, qd0 = rng.standard_normal(n_dof), omega * rng.standard_normal(n_dof)
        march = _zoh_march(spec, force, q0, qd0)
        q, qd = march.real, omega[:, None] * march.imag
        rho = np.exp(-1j * omega * spec.dt)
        w = np.empty((n_dof, n_steps + 1), dtype=complex)
        w[:, 0] = q0 + 1j * qd0 / omega
        for k in range(n_steps):
            w[:, k + 1] = rho * w[:, k] + (1.0 - rho) * force[:, k] / delta
        for got, ref in ((q, w.real), (qd, omega[:, None] * w.imag)):
            err = np.max(np.abs(got - ref), axis=1)
            assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=1))


    @pytest.mark.parametrize("location", [None, 3])
    def test_lazy_states_equal_the_eager_map(self, location):
        """A record's displacements and velocities are the eager map of the march, bit for bit."""
        spec = uniform_chain(12, 1000.0, 1.769e6, 0.02, 11.0)
        excitation = ExcitationSpec("white_noise", 1.0, location=location, seed=9)
        rec = simulate_response(spec, excitation)
        assert "displacements" not in vars(rec) and "velocities" not in vars(rec)
        basis = eigen_modes(spec)
        phi, omega = basis.mode_shapes, np.sqrt(basis.eigenvalues)
        pattern = -spec.masses if location is None else np.eye(spec.n_dof)[location]
        force = (phi.T @ pattern)[:, None] * rec.excitation_trace[None, :]
        w = _zoh_march(spec, force, np.zeros(spec.n_dof), np.zeros(spec.n_dof))
        q, qd = w.real, omega[:, None] * w.imag
        assert np.array_equal(rec.displacements, phi @ q[:, :-1])
        assert np.array_equal(rec.velocities, phi @ qd[:, :-1])
        assert rec.displacements is rec.displacements  # computed once


class TestPhaseTableCache:
    """One modal phase table per (spec, march length), shared read-only, and runs that
    read accelerations only compute no displacements or velocities."""

    @staticmethod
    def _count(monkeypatch):
        calls = []

        def counting(phase, n):
            calls.append((phase.size, n))
            return _unit_powers(phase, n)

        monkeypatch.setattr(structure, "_unit_powers", counting)
        return calls

    def test_one_table_per_spec_and_length(self, monkeypatch):
        calls = self._count(monkeypatch)
        spec = uniform_chain(5, 1.0, 500.0, 0.01, 2.0)
        for seed in range(3):
            simulate_response(spec, ExcitationSpec("white_noise", 1.0, seed=seed))
        free_vibration(spec, np.ones(5), np.zeros(5))
        assert calls == [(5, 200)]
        longer = uniform_chain(5, 1.0, 500.0, 0.01, 3.0)
        simulate_response(longer, ExcitationSpec("sine", 1.0, frequency=2.0))
        damaged = apply_damage(spec, DamageSpec(location=1, severity=0.3))
        simulate_response(damaged, ExcitationSpec("impulse", 1.0, location=0))
        assert calls == [(5, 200), (5, 300), (5, 200)]
        with pytest.raises(ValueError, match="read-only"):
            spec._rho_powers(200)[0, 0] = 0.0

    def test_cached_table_equals_a_fresh_one(self):
        spec = uniform_chain(7, 2.0, 800.0, 0.01, 1.0)
        fresh = _unit_powers(np.sqrt(eigen_modes(spec).eigenvalues) * spec.dt, 100)
        assert np.array_equal(spec._rho_powers(100), fresh)
        assert spec._rho_powers(100) is spec._rho_powers(100)

    def test_a_run_builds_one_table_per_spec_and_no_states(self, monkeypatch, tmp_path):
        calls = self._count(monkeypatch)

        def unread(record):
            raise AssertionError("a run read a displacement or velocity history")

        monkeypatch.setattr(structure.ResponseRecord, "displacements", property(unread))
        monkeypatch.setattr(structure.ResponseRecord, "velocities", property(unread))
        config = {
            "seed": 3,
            "monitoring": {"training_rounds": 5, "rounds": 2, "n_averages": 10, "segment_length": 100},
            "detection": {"R": 4},
            "faults": [{"kind": "stuck_constant", "sensor_id": 5, "onset_round": 5}],
            "damage": {"location": 4, "severity": 0.2, "onset_round": 6},
        }
        run_scenario(config, str(tmp_path))
        cfg, _ = validate_config(config)
        # the healthy spec and the damaged one, each at the run's march length
        assert calls == [(10, cfg.spec.n_samples)] * 2


class TestApplyDamage:
    def test_scales_one_story(self):
        spec = uniform_chain(10, 1.0, 1000.0, 0.001, 1.0)
        damaged = apply_damage(spec, DamageSpec(location=5, severity=0.3))
        assert damaged.stiffnesses[5] == pytest.approx(700.0)
        assert spec.stiffnesses[5] == 1000.0  # original untouched
        others = [i for i in range(10) if i != 5]
        assert np.allclose(damaged.stiffnesses[others], 1000.0)

    def test_full_severity_rejected(self):
        spec = uniform_chain(10, 1.0, 1000.0, 0.001, 1.0)
        with pytest.raises(StructureError):
            apply_damage(spec, DamageSpec(location=5, severity=1.0))

    def test_zero_severity_rejected_by_spec(self):
        with pytest.raises(StructureError):
            DamageSpec(location=5, severity=0.0)

    def test_location_out_of_range(self):
        spec = uniform_chain(3, 1.0, 1000.0, 0.001, 1.0)
        with pytest.raises(StructureError):
            apply_damage(spec, DamageSpec(location=3, severity=0.2))

    @pytest.mark.parametrize("severity", [0.1, 0.5, 0.9])
    def test_frequencies_never_increase_under_damage(self, severity):
        spec = uniform_chain(10, 1.0, 1000.0, 0.001, 1.0)
        base = eigen_modes(spec).frequencies
        for story in range(10):
            damaged = apply_damage(spec, DamageSpec(location=story, severity=severity))
            assert np.all(eigen_modes(damaged).frequencies <= base + 1e-12)
