"""Kalman reconstruction and KL-KF missing-sensor tests."""

import copy
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from shmsim.detection import default_edges
from shmsim import kalman
from shmsim.kalman import (
    SCAN_BINS,
    _Filter,
    _run,
    _scoped_filter,
    _steady_prior_covariance,
    FilterTable,
    KalmanError,
    KalmanFilterState,
    ReconstructionConfig,
    filter_for_structure,
    kl_divergence,
    missing_sensor_scan,
    reconstruct_round,
    reconstruct_signals,
    run_filter,
)
from shmsim.sensing import SignalWindow
from shmsim.structure import (
    ExcitationSpec,
    StructureSpec,
    discrete_state_space,
    free_vibration,
    simulate_response,
    uniform_chain,
)

WINDOW = 1024
N = 10


@pytest.fixture(scope="module")
def chain_round():
    """One measured episode of the 10-story chain plus its clean truth."""
    spec = uniform_chain(N, 1000.0, 1.769e6, 0.02, (WINDOW + 1) * 0.02)
    sine = simulate_response(spec, ExcitationSpec("sine", 1.0, frequency=0.9))
    ambient = simulate_response(spec, ExcitationSpec("white_noise", 0.02, seed=50_008))
    clean = sine.accelerations[:, :WINDOW] + ambient.accelerations[:, :WINDOW]
    rms = np.sqrt(np.mean(clean**2, axis=1))
    rng = np.random.default_rng(5)
    noisy = clean + 0.1 * rms[:, None] * rng.standard_normal(clean.shape)
    windows = {
        ch: SignalWindow(sensor_id=ch, start_time=0.0, dt=0.02, samples=noisy[ch], round_index=0)
        for ch in range(N)
    }
    noise_var = {ch: float((0.1 * rms[ch]) ** 2) for ch in range(N)}
    return spec, clean, rms, windows, noise_var


def kf_predict(state: KalmanFilterState, u=None, input_matrix=None):
    """Stepwise oracle prior: x' = A x + B u, P' = A P A^T + Q from ``state.P``."""
    a = state.transition
    x_prior = a @ state.x
    if u is not None:
        u = np.asarray(u, dtype=float)
        if u.shape[0] != input_matrix.shape[1]:
            raise KalmanError(
                f"input dimension {u.shape[0]} does not match {input_matrix.shape[1]}"
            )
        x_prior = x_prior + input_matrix @ u
    p_prior = a @ state.P @ a.T + state.process_noise
    return x_prior, p_prior


def kf_correct(state: KalmanFilterState, x_prior, p_prior, m_t) -> KalmanFilterState:
    """Stepwise oracle measurement update; returns the state with posterior x, P and gain."""
    h = state.measurement
    m_t = np.asarray(m_t, dtype=float)
    if m_t.shape[0] != h.shape[0]:
        raise KalmanError(f"measurement dimension {m_t.shape[0]} does not match {h.shape[0]} rows")
    innov_cov = h @ p_prior @ h.T + state.measurement_noise
    try:
        gain = np.linalg.solve(innov_cov.T, (p_prior @ h.T).T).T
    except np.linalg.LinAlgError:
        gain = np.full((p_prior.shape[0], h.shape[0]), np.nan)
    if not np.all(np.isfinite(gain)):
        cond = np.linalg.cond(innov_cov)
        raise KalmanError(f"singular innovation covariance (condition number {cond:.3e})")
    x_post = x_prior + gain @ (m_t - h @ x_prior)
    p_post = (np.eye(p_prior.shape[0]) - gain @ h) @ p_prior
    p_post = 0.5 * (p_post + p_post.T)
    state.x = x_post
    state.P = p_post
    state.gain = gain
    return state


def _with_initial_covariance(state):
    """The oracle's starting covariance for a built filter: P = 100 Q."""
    state.P = 100.0 * state.process_noise
    return state


def _simple_state(dim=4, meas=None, seed=0):
    rng = np.random.default_rng(seed)
    a = np.eye(dim)
    h = np.eye(dim) if meas is None else meas
    p = rng.standard_normal((dim, dim))
    p = p @ p.T + dim * np.eye(dim)
    return KalmanFilterState(
        x=rng.standard_normal(dim),
        P=p,
        transition=a,
        measurement=h,
        process_noise=np.zeros((dim, dim)),
        measurement_noise=np.eye(h.shape[0]),
    )


class TestPredict:
    def test_identity_transition_keeps_state(self):
        state = _simple_state()
        x_prior, p_prior = kf_predict(state)
        assert np.array_equal(x_prior, state.x)
        assert np.array_equal(p_prior, state.P)

    def test_zero_transition_passes_input_through(self):
        state = _simple_state()
        state.transition = np.zeros_like(state.transition)
        input_matrix = np.eye(4)[:, :2] * 3.0
        u = np.array([1.0, -2.0])
        x_prior, _ = kf_predict(state, u, input_matrix)
        assert np.allclose(x_prior, input_matrix @ u)

    def test_free_decay_matches_simulator(self):
        """Prediction-only filtering reproduces the exact free trajectory."""
        spec = uniform_chain(1, 1.0, (2 * np.pi) ** 2, 0.01, 1.0)
        x0, v0 = 0.07, -0.3
        record = free_vibration(spec, [x0], [v0])
        a_mat, _ = discrete_state_space(spec)
        state = KalmanFilterState(
            x=np.array([x0, v0]),
            P=np.eye(2),
            transition=a_mat,
            measurement=np.eye(2),
            process_noise=np.zeros((2, 2)),
            measurement_noise=np.eye(2),
        )
        for k in range(100):
            assert abs(state.x[0] - record.displacements[0, k]) < 1e-9
            assert abs(state.x[1] - record.velocities[0, k]) < 1e-9
            state.x, state.P = kf_predict(state)

    def test_dimension_mismatch(self):
        state = _simple_state()
        with pytest.raises(KalmanError):
            kf_predict(state, np.zeros(7), np.zeros((4, 2)))


class TestCorrect:
    def test_infinite_noise_ignores_measurement(self):
        state = _simple_state(seed=1)
        state.measurement_noise = np.eye(4) * 1e12
        x_prior, p_prior = kf_predict(state)
        m = np.array([5.0, -3.0, 2.0, 1.0])
        out = kf_correct(state, x_prior, p_prior, m)
        assert np.allclose(out.x, x_prior, atol=1e-9)

    def test_zero_noise_reproduces_measurement(self):
        state = _simple_state(seed=2)
        state.measurement_noise = np.eye(4) * 1e-12
        x_prior, p_prior = kf_predict(state)
        m = np.array([5.0, -3.0, 2.0, 1.0])
        out = kf_correct(state, x_prior, p_prior, m)
        assert np.allclose(out.measurement @ out.x, m, atol=1e-6)

    def test_zero_measurement_noise_rejected_at_build(self):
        with pytest.raises(KalmanError):
            KalmanFilterState(
                x=np.zeros(2),
                transition=np.eye(2),
                measurement=np.eye(2),
                process_noise=np.zeros((2, 2)),
                measurement_noise=np.zeros((2, 2)),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_noise_variance_rejected_at_build(self, bad):
        """NaN passed the ``<= 0`` guard and later made the error message's SVD fail."""
        spec = uniform_chain(6, 1000.0, 1.769e6, 0.02, 1.0)
        with pytest.raises(KalmanError, match="variances must be finite"):
            filter_for_structure(spec, range(6), [1e-4, bad, 1e-4, 1e-4, 1e-4, 1e-4])

    def test_singular_innovation_diagnosed(self):
        state = _simple_state(seed=3)
        state.P = np.zeros((4, 4))
        state.measurement_noise = np.diag([1.0, 1.0, 1.0, 1e-300])
        state.measurement_noise[3, 3] = 0.0  # bypass constructor guard
        x_prior, p_prior = kf_predict(state)
        with pytest.raises(KalmanError, match="condition number"):
            kf_correct(state, x_prior, p_prior, np.zeros(4))

    def test_steady_state_residual_below_noise(self, chain_round):
        """Posterior residuals settle at or below the injected noise variance."""
        spec2 = uniform_chain(2, 1.0, 500.0, 0.01, 21.0)
        rec = simulate_response(spec2, ExcitationSpec("white_noise", 1.0, seed=4))
        clean = rec.accelerations[:, :2000]
        rms = np.sqrt(np.mean(clean**2, axis=1))
        rng = np.random.default_rng(6)
        noise = 0.1 * rms[:, None] * rng.standard_normal(clean.shape)
        state = filter_for_structure(
            spec2,
            [0, 1],
            [(0.1 * rms[0]) ** 2, (0.1 * rms[1]) ** 2],
            input_scale=float(np.mean(rms)),
        )
        measured = clean + noise
        est, _ = run_filter(state, measured)
        residual = (measured - est)[:, 500:]
        for ch in range(2):
            assert np.var(residual[ch]) <= (0.1 * rms[ch]) ** 2


class TestCovarianceProperties:
    def test_covariance_stays_psd(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        state = filter_for_structure(
            spec,
            list(range(N)),
            [noise_var[ch] for ch in range(N)],
            inflated={5},
            inflation=1e9,
            input_scale=float(np.mean(rms)),
        )
        block = np.stack([windows[ch].samples for ch in range(N)])
        run_filter(state, block[:, :400])
        assert np.linalg.eigvalsh(state.P)[0] >= -1e-10 * float(np.trace(state.P))

    def test_gain_column_shrinks_with_inflation(self):
        """Sherman-Morrison: inflating one channel's variance never grows its gain column."""
        rng = np.random.default_rng(11)
        for trial in range(20):
            dim, m = 6, 4
            p = rng.standard_normal((dim, dim))
            p = p @ p.T + np.eye(dim)
            h = rng.standard_normal((m, dim))
            base_noise = np.diag(rng.uniform(0.5, 2.0, size=m))
            ch = trial % m
            norms = []
            for factor in (1.0, 10.0, 1e3, 1e6):
                noise = base_noise.copy()
                noise[ch, ch] *= factor
                s = h @ p @ h.T + noise
                gain = np.linalg.solve(s.T, (p @ h.T).T).T
                norms.append(float(np.linalg.norm(gain[:, ch])))
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def _stepwise_filter(state, measurements):
    """Reference filter: one kf_predict/kf_correct pair per sample."""
    est = np.empty_like(measurements)
    innov = np.empty_like(measurements)
    for t in range(measurements.shape[1]):
        x_prior, p_prior = kf_predict(state)
        innov[:, t] = measurements[:, t] - state.measurement @ x_prior
        kf_correct(state, x_prior, p_prior, measurements[:, t])
        est[:, t] = state.measurement @ state.x
    return est, innov


def _neighborhood_filter(spec, noise_var, rms, inflated_node=6):
    """Nodes 4-6 on stories 3-7 of the chain: both ends are boundary cuts."""
    sub = StructureSpec(
        masses=spec.masses[3:8], stiffnesses=spec.stiffnesses[3:8], dt=spec.dt, duration=2 * spec.dt
    )
    return filter_for_structure(
        sub,
        [1, 2, 3],
        [noise_var[ch] for ch in (4, 5, 6)],
        inflated={inflated_node - 3},
        input_scale=float(np.mean(rms[[ch for ch in (4, 5, 6) if ch != inflated_node]])),
        boundary_cut=(True, True),
    )


def _constant_gain_filter(state, gain, measurements):
    """Reference stationary filter: x_prior = A x, x = x_prior + K (m - H x_prior) per sample."""
    est = np.empty_like(measurements)
    innov = np.empty_like(measurements)
    for t in range(measurements.shape[1]):
        x_prior = state.transition @ state.x
        innov[:, t] = measurements[:, t] - state.measurement @ x_prior
        state.x = x_prior + gain @ innov[:, t]
        est[:, t] = state.measurement @ state.x
    return est, innov


def _seed18_scan_filter():
    """The scan filter that scipy's QZ-based DARE solver cannot reorder.

    A 7-story cut of the chain, DOFs 1-5 measured, DOF 1 inflated; the noise
    variances and input scale are those of criterion 5's seed-18 scan.
    """
    spec = uniform_chain(7, 1000.0, 1.769e6, 0.02, 1.0)
    noise_var = [
        0.13730703180357134, 0.18939762497155702, 0.24146024671142952,
        0.28916985437829307, 0.3287247318151464,
    ]
    return filter_for_structure(
        spec, [1, 2, 3, 4, 5], noise_var, inflated={1},
        input_scale=4.794116276420342, boundary_cut=(True, True),
    )


def _unobserved_unstable_mode(process_noise):
    """Mode 0 grows by 1.05 per step and no channel measures it."""
    state = _simple_state(meas=np.eye(4)[1:], seed=7)
    state.transition = np.diag([1.05, 0.9, 0.8, 0.7])
    state.process_noise = np.diag(process_noise)
    state.measurement_noise = np.eye(3)
    return state


# an inflated middle node leaves a slow mode: the time-varying gain is still
# 1e-4 away from steady state at the end of the window
RUN_FILTER_CASES = [("full", 5, True), ("neighborhood", 6, True), ("neighborhood", 5, False)]


def _run_filter_case(chain_round, scope, inflated_node):
    """(channels, block, build) of one RUN_FILTER_CASES filter on the chain round."""
    spec, clean, rms, windows, noise_var = chain_round
    channels = list(range(N)) if scope == "full" else [4, 5, 6]

    def build():
        if scope == "neighborhood":
            return _neighborhood_filter(spec, noise_var, rms, inflated_node)
        return filter_for_structure(
            spec, channels, [noise_var[ch] for ch in channels],
            inflated={inflated_node}, input_scale=float(np.mean(rms)),
        )

    return channels, np.stack([windows[ch].samples for ch in channels]), build


class TestRunFilter:
    """The stationary filter against stepwise constant-gain and time-varying recursions."""

    @pytest.mark.parametrize("scope,inflated_node,converges", RUN_FILTER_CASES)
    def test_matches_stepwise_recursion(self, chain_round, scope, inflated_node, converges):
        clean = chain_round[1]
        channels, block, build = _run_filter_case(chain_round, scope, inflated_node)
        state, varying = build(), _with_initial_covariance(build())
        est, innov = run_filter(state, block)
        ref_est, ref_innov = _constant_gain_filter(build(), state.gain, block)
        scale = float(np.sqrt(np.mean(block**2)))
        assert np.max(np.abs(est - ref_est)) <= 1e-6 * scale
        assert np.max(np.abs(innov - ref_innov)) <= 1e-6 * scale
        var_est, var_innov = _stepwise_filter(varying, block)
        half = block.shape[1] // 2
        if converges:
            # once the time-varying gain has settled the two filters agree
            assert np.max(np.abs(est[:, half:] - var_est[:, half:])) <= 1e-8 * scale
            assert np.max(np.abs(innov[:, half:] - var_innov[:, half:])) <= 1e-8 * scale
            for mine, ref in ((state.P, varying.P), (state.gain, varying.gain)):
                assert np.max(np.abs(mine - ref)) <= 1e-6 * np.max(np.abs(ref))
        else:
            # the steady gain from the first sample reconstructs the inflated channel
            # no worse than the still-converging time-varying gain
            row, truth = channels.index(inflated_node), clean[inflated_node]
            assert np.sqrt(np.mean((est[row] - truth) ** 2)) <= np.sqrt(
                np.mean((var_est[row] - truth) ** 2)
            )

    @pytest.mark.parametrize("inflated_node", [5, 6])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 511, 512, 513, 5000])
    def test_scan_matches_constant_gain_loop(self, chain_round, inflated_node, n_steps):
        """The log-depth scan against the per-sample loop, at block lengths around powers
        of two and beyond 2048, from a non-zero initial state; node 5 leaves a slow mode."""
        spec, clean, rms, windows, noise_var = chain_round
        rng = np.random.default_rng(n_steps)
        block = rms[4:7, None] * rng.standard_normal((3, n_steps))
        state, reference = (_neighborhood_filter(spec, noise_var, rms, inflated_node) for _ in "ab")
        state.x = reference.x = 1e-3 * rng.standard_normal(state.x.size)
        est, innov = run_filter(state, block)
        ref_est, ref_innov = _constant_gain_filter(reference, state.gain, block)
        for mine, ref in ((est, ref_est), (innov, ref_innov), (state.x, reference.x)):
            assert np.max(np.abs(mine - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_stacked_scan_equals_a_lone_squaring_scan(self, chain_round):
        """Whole-chain filters (state 20, where BLAS rounds a product with a transposed F
        differently) scanned as one stack equal, bit for bit, the one-system scan that
        squares F as it goes, with F the transposed view of A - K H A."""
        spec, clean, rms, windows, noise_var = chain_round
        block = np.stack([windows[ch].samples for ch in range(N)])
        _, _, make_filter = _scoped_filter(
            spec, windows, list(range(N)), list(range(N)), ReconstructionConfig(), noise_var
        )
        filters = [make_filter({cand}) for cand in (2, 5, 7)]
        for states, f in zip(_run(filters, [block] * 3), filters):
            a, h, gain_t = f.state.transition, f.state.measurement, f.gains[1]
            power, xs = (a - gain_t.T @ (h @ a)).T, np.empty((WINDOW + 1, 2 * N))
            xs[0] = 0.0
            np.matmul(block.T, gain_t, out=xs[1:])
            rows, s = kalman.SCAN_BUFFER // (2 * N), 1
            while s <= WINDOW:
                hi = WINDOW + 1
                while hi > s:
                    lo = max(s, hi - rows)
                    xs[lo:hi] += xs[lo - s : hi - s] @ power
                    hi = lo
                power, s = power @ power, 2 * s
            assert np.array_equal(states, xs)

    def test_empty_block(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        state = _neighborhood_filter(spec, noise_var, rms)
        x0 = state.x.copy()
        est, innov = run_filter(state, np.zeros((3, 0)))
        assert est.shape == innov.shape == (3, 0)
        assert np.array_equal(state.x, x0)
        assert state.P is None and state.gain is None

    def test_unobserved_noiseless_unstable_mode_converges(self):
        """scipy's DARE has no stabilising solution here; the doubling solve still settles."""
        state = _unobserved_unstable_mode([0.0, 0.1, 0.1, 0.1])
        with pytest.raises(np.linalg.LinAlgError):
            solve_discrete_are(
                state.transition.T,
                state.measurement.T,
                state.process_noise,
                state.measurement_noise,
            )
        block = np.random.default_rng(8).standard_normal((3, 200))
        varying = copy.deepcopy(state)
        est, innov = run_filter(state, block)
        var_est, var_innov = _stepwise_filter(varying, block)
        assert np.allclose(est[:, 100:], var_est[:, 100:], rtol=1e-9, atol=1e-12)
        assert np.allclose(innov[:, 100:], var_innov[:, 100:], rtol=1e-9, atol=1e-12)
        assert np.allclose(state.gain, varying.gain, rtol=1e-9, atol=1e-12)

    def test_unstable_closed_loop_overflow_raises(self):
        """F^16384 overflows at closed-loop eigenvalue 1.05; a stepwise loop would return
        finite estimates from a zero initial state, the scan would return NaN."""
        state = _unobserved_unstable_mode([0.0, 0.1, 0.1, 0.1])
        state.x[0] = 0.0
        block = np.random.default_rng(8).standard_normal((3, 20_000))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(KalmanError, match="closed loop is unstable: F\\^16384"):
                run_filter(state, block)

    def test_unobserved_noisy_unstable_mode_raises(self):
        """Process noise on the unobserved growing mode leaves no finite steady state."""
        state = _unobserved_unstable_mode([0.1, 0.1, 0.1, 0.1])
        block = np.random.default_rng(8).standard_normal((3, 200))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(KalmanError, match="no finite steady state"):
                run_filter(state, block)

    def test_non_finite_noise_after_build_raises_kalman_error(self):
        """A NaN variance set past the constructor guard fails the solve with KalmanError,
        not with the LinAlgError of a condition number taken of a NaN matrix."""
        state = _simple_state(seed=3)
        state.measurement_noise = np.diag([1.0, np.nan, 1.0, 1.0])
        with pytest.raises(KalmanError, match=r"noise covariance \(non-finite entries\)"):
            run_filter(state, np.zeros((4, 5)))

    def test_singular_innovation_raised(self):
        state = _simple_state(seed=3)
        state.P = np.zeros((4, 4))
        state.measurement_noise = np.diag([1.0, 1.0, 1.0, 0.0])  # bypasses the constructor guard
        with pytest.raises(KalmanError, match="condition number"):
            run_filter(state, np.zeros((4, 5)))


def _case_id(case):
    return "seed18-scan" if case is None else f"{case[0]}-{case[1]}"


class TestSteadyState:
    """The doubling solve of the filter Riccati equation."""

    @staticmethod
    def _matrices(chain_round, case):
        """(A, H, Q, R) of a RUN_FILTER_CASES (scope, node) filter, or the seed-18 one for None."""
        state = _seed18_scan_filter() if case is None else _run_filter_case(chain_round, *case)[2]()
        return state.transition, state.measurement, state.process_noise, state.measurement_noise

    @pytest.mark.parametrize("case", [c[:2] for c in RUN_FILTER_CASES] + [None], ids=_case_id)
    def test_solves_riccati_with_stable_closed_loop(self, chain_round, case):
        a, h, q, r = self._matrices(chain_round, case)
        p = _steady_prior_covariance(a, h, q, r[None])[0]
        gain = np.linalg.solve(h @ p @ h.T + r, h @ p).T
        residual = a @ p @ a.T + q - a @ gain @ h @ p @ a.T - p
        assert np.max(np.abs(residual)) <= 1e-9 * np.max(np.abs(p))
        assert np.max(np.abs(np.linalg.eigvals(a - gain @ h @ a))) < 1.0

    @pytest.mark.parametrize("case", [c[:2] for c in RUN_FILTER_CASES], ids=_case_id)
    def test_matches_scipy_dare(self, chain_round, case):
        a, h, q, r = self._matrices(chain_round, case)
        p = _steady_prior_covariance(a, h, q, r[None])[0]
        reference = solve_discrete_are(a.T, h.T, q, r)
        assert np.max(np.abs(p - reference)) <= 1e-9 * np.max(np.abs(reference))


    @pytest.mark.parametrize("failing", [0, 1, 2])
    @pytest.mark.parametrize(
        "bad_noise, message",
        [(np.diag([1e300, 1.0, 1.0, 1.0]), "no finite steady state"),
         (np.diag([1.0, 1.0, 1.0, 0.0]), "singular measurement noise")],
    )
    def test_failing_system_fails_the_stack(self, failing, bad_noise, message):
        """One failing R fails its stack's doubling solve; each system of the stack then
        gets its lone outcome: the failing one the error a lone ``run_filter`` on it
        raises, the others a lone ``run_filter``'s states and gain bit for bit."""
        state = _simple_state(seed=9)
        state.transition = np.diag([1.05, 0.9, 0.8, 0.7])
        state.process_noise = 0.1 * np.eye(4)
        block = np.random.default_rng(10).standard_normal((4, 50))
        stack = np.stack([np.eye(4), np.diag([2.0, 1.0, 3.0, 1.0]), np.eye(4)])
        stack[failing] = bad_noise
        filters = [_Filter(copy.deepcopy(state)) for _ in stack]
        for f, r in zip(filters, stack):
            f.state.measurement_noise = r
        outcomes = _run(filters, [block] * 3)
        assert len(outcomes) == 3
        for i, (r, f, outcome) in enumerate(zip(stack, filters, outcomes)):
            lone = copy.deepcopy(state)
            lone.measurement_noise = r
            if i == failing:
                with pytest.raises(KalmanError, match=message) as err:
                    run_filter(lone, block)
                assert type(outcome) is KalmanError and str(outcome) == str(err.value)
                assert outcome.__traceback__ is None
                continue
            est, _ = run_filter(lone, block)
            assert np.array_equal(state.measurement @ outcome[1:].T, est)
            assert np.array_equal(outcome[-1], lone.x)
            assert np.array_equal(f.gains[1].T, lone.gain)


class TestReconstructionConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("variance_inflation", 0.5),
            ("model_scope", "global"),
            ("scope_margin", -1),
            ("scan_report_ratio", -0.1),
        ],
    )
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(KalmanError, match=field):
            ReconstructionConfig(**{field: value})


class TestReconstruction:
    def test_empty_faulty_set_is_noop(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        assert reconstruct_signals([], windows, spec, noise_var=noise_var) == []

    def test_healthy_tracking_within_noise(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        state = filter_for_structure(
            spec, list(range(N)), [noise_var[ch] for ch in range(N)],
            input_scale=float(np.mean(rms)),
        )
        block = np.stack([windows[ch].samples for ch in range(N)])
        est, _ = run_filter(state, block)
        for ch in (2, 7):
            err = est[ch, 200:] - clean[ch, 200:]
            assert np.sqrt(np.mean(err**2)) < 2.0 * np.sqrt(noise_var[ch])

    def test_stuck_channel_reconstruction_quality(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        corrupted = dict(windows)
        corrupted[5] = SignalWindow(
            sensor_id=5, start_time=0.0, dt=0.02,
            samples=np.full(WINDOW, 3 * rms[5]), round_index=0,
        )
        scope = {ch: corrupted[ch] for ch in (3, 4, 5, 6, 7)}
        results = reconstruct_signals(
            [5], scope, spec, noise_var=noise_var, truth={5: clean[5]}
        )
        assert len(results) == 1
        assert results[0].quality >= 0.90

    def test_two_simultaneous_faults(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        corrupted = dict(windows)
        corrupted[5] = SignalWindow(
            sensor_id=5, start_time=0.0, dt=0.02,
            samples=np.full(WINDOW, 3 * rms[5]), round_index=0,
        )
        corrupted[9] = SignalWindow(
            sensor_id=9, start_time=0.0, dt=0.02,
            samples=corrupted[9].samples + 5 * rms[9], round_index=0,
        )
        results = reconstruct_signals(
            [5, 9], corrupted, spec,
            config=ReconstructionConfig(model_scope="full"),
            noise_var=noise_var, truth={5: clean[5], 9: clean[9]},
        )
        by_ch = {r.sensor_id: r for r in results}
        assert by_ch[5].quality >= 0.85
        assert by_ch[9].quality >= 0.85

    def test_reconstruction_invariant_to_corruption_values(self, chain_round):
        """At the default inflation the corrupted samples cannot leak through."""
        spec, clean, rms, windows, noise_var = chain_round
        recs = []
        for corrupt in (np.full(WINDOW, 3 * rms[5]), windows[5].samples + 5 * rms[5]):
            scope = {ch: windows[ch] for ch in (3, 4, 6, 7)}
            scope[5] = SignalWindow(
                sensor_id=5, start_time=0.0, dt=0.02, samples=corrupt, round_index=0
            )
            out = reconstruct_signals([5], scope, spec, noise_var=noise_var)
            recs.append(out[0].reconstructed.samples)
        diff = np.sqrt(np.mean((recs[0] - recs[1]) ** 2))
        assert diff < 1e-6

    def test_observability_violation_reported(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        scope = {ch: windows[ch] for ch in (4, 5, 6)}
        with pytest.raises(KalmanError, match="healthy"):
            reconstruct_signals([4, 5], scope, spec, noise_var=noise_var)

    @pytest.mark.parametrize("channels, bad", [((10, 11, 12, 13), [10, 11, 12, 13]),
                                              ((-1, 0, 1, 2), [-1])])
    def test_channel_outside_structure_rejected(self, chain_round, channels, bad):
        """Ids past the top DOF and negative ids are named in a KalmanError, not indexed."""
        spec, clean, rms, windows, noise_var = chain_round
        scope = {ch: windows[ch % N] for ch in channels}
        with pytest.raises(KalmanError, match=rf"channel ids {re.escape(str(bad))} are outside"):
            reconstruct_signals([channels[0]], scope, spec, noise_var=noise_var)

    def test_unequal_window_lengths_rejected(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        scope = {ch: windows[ch] for ch in (3, 4, 5, 6)}
        scope[6] = SignalWindow(6, 0.0, 0.02, windows[6].samples[:100], 0)
        with pytest.raises(KalmanError, match=r"unequal lengths \[100, 1024\]"):
            reconstruct_signals([4], scope, spec, noise_var=noise_var)

    def test_faulty_channel_without_window_entry_rejected(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        scope = {ch: windows[ch] for ch in range(3, 7)}
        with pytest.raises(KalmanError, match=r"faulty channels \[9\] have no entry"):
            reconstruct_signals([9], scope, spec, noise_var=noise_var)

    def test_missing_window_treated_as_faulty(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        scope = {ch: windows[ch] for ch in (3, 4, 5, 6, 7)}
        scope[5] = None
        results = reconstruct_signals([], scope, spec, noise_var=noise_var, truth={5: clean[5]})
        assert [r.sensor_id for r in results] == [5]
        assert results[0].quality >= 0.90


def _count_calls(monkeypatch, *names) -> dict:
    """Wrap the named ``kalman`` functions to count their calls; returns the live counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(kalman, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(kalman, name, counted)
    return calls


def _assert_same_results(got, want):
    """Two reconstructions' result lists are equal bit for bit."""
    assert [r.sensor_id for r in got] == [r.sensor_id for r in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.reconstructed.samples, b.reconstructed.samples)
        assert (a.reconstructed.start_time, a.reconstructed.dt, a.reconstructed.round_index) == (
            b.reconstructed.start_time, b.reconstructed.dt, b.reconstructed.round_index
        )
        assert np.array_equal(a.residual, b.residual)
        assert a.quality == b.quality


def _lone_outcome(faulty, windows, spec, **kwargs):
    """What a lone ``reconstruct_signals`` call returns, or the KalmanError it raises."""
    try:
        return reconstruct_signals(faulty, windows, spec, **kwargs)
    except KalmanError as err:
        return err


class TestRoundReconstruction:
    """One round's reconstructions stacked by filter shape equal lone calls bit for bit."""

    @staticmethod
    def _job(windows, faulty, channels, missing=()):
        return faulty, {ch: None if ch in missing else windows[ch] for ch in channels}

    @pytest.mark.parametrize("buffer", [kalman.SCAN_BUFFER, 40_000, 400, 1])
    def test_mixed_scope_shapes_equal_lone_calls(self, chain_round, monkeypatch, buffer):
        """Scopes of three sizes, two of them shared by several jobs (state 14, rows 5 and
        state 10, rows 3), a no-op job and one that fails alone. The default buffer and
        40 000 solve each group's jobs in one doubling stack; 400 solves two (state 14)
        or four (state 10) jobs per stack and scans in 28- and 40-row tiles; 1 solves
        every job alone and scans in one-row tiles. Every job is scanned on its own."""
        monkeypatch.setattr(kalman, "SCAN_BUFFER", buffer)
        spec, clean, rms, windows, noise_var = chain_round
        jobs = [
            self._job(windows, [5], range(3, 8)),
            self._job(windows, [2], range(1, 4)),
            self._job(windows, [6], range(4, 9)),  # its sub-chain reaches the top
            self._job(windows, [], range(2, 7), missing=(4,)),
            self._job(windows, [7], range(6, 9)),
            self._job(windows, [], range(3, 6)),
            self._job(windows, [4, 5], range(4, 7)),  # too few healthy channels
            self._job(windows, [4], range(2, 7)),
        ]
        kwargs = dict(round_index=3, noise_var=noise_var, truth={ch: clean[ch] for ch in range(N)})
        outcomes = reconstruct_round(jobs, spec, **kwargs)
        assert len(outcomes) == len(jobs)
        for (faulty, scope), got in zip(jobs, outcomes):
            want = _lone_outcome(faulty, scope, spec, **kwargs)
            if isinstance(want, KalmanError):
                assert type(got) is KalmanError and str(got) == str(want)
                continue
            _assert_same_results(got, want)
            # and the lone call is the state-based filter's estimate
            channels = sorted(scope)
            if got:
                bad = {r.sensor_id for r in got}
                healthy = [ch for ch in channels if ch not in bad]
                _, block, make_filter = _scoped_filter(
                    spec, scope, channels, healthy, ReconstructionConfig(), noise_var
                )
                est, innov = run_filter(make_filter(bad).state, block)
                for r in got:
                    assert np.array_equal(r.reconstructed.samples, est[channels.index(r.sensor_id)])
                    assert np.array_equal(r.residual, innov[channels.index(r.sensor_id)])
        assert [len(o) for o in outcomes if not isinstance(o, KalmanError)] == [1, 1, 1, 1, 1, 0, 1]

    def test_singular_noise_fails_its_job_only(self, chain_round):
        """A job whose R cannot be solved fails the stacked solve; it gets the error its
        lone call raises and its group-mates (same state dimension, rows and T) keep
        their lone results bit for bit."""
        spec, clean, rms, windows, noise_var = chain_round
        noise_var = {**noise_var, 8: 1e-320}  # healthy channel 8: H^T R^-1 H overflows
        jobs = [
            self._job(windows, [5], range(3, 8)),
            self._job(windows, [6], range(4, 9)),
            self._job(windows, [4], range(2, 7)),
        ]
        kwargs = dict(noise_var=noise_var, truth={ch: clean[ch] for ch in range(N)})
        outcomes = reconstruct_round(jobs, spec, **kwargs)
        with pytest.raises(KalmanError, match="singular measurement noise") as lone:
            reconstruct_signals(*jobs[1], spec, **kwargs)
        assert type(outcomes[1]) is KalmanError and str(outcomes[1]) == str(lone.value)
        for i in (0, 2):
            _assert_same_results(outcomes[i], reconstruct_signals(*jobs[i], spec, **kwargs))

    def test_non_finite_noise_variance_fails_its_job_only(self, chain_round):
        """A NaN noise variance fails the jobs over that channel, not the round."""
        spec, clean, rms, windows, noise_var = chain_round
        noise_var = {**noise_var, 8: np.nan}
        jobs = [self._job(windows, [5], range(3, 8)), self._job(windows, [6], range(4, 9))]
        good, bad = reconstruct_round(jobs, spec, noise_var=noise_var)
        assert type(bad) is KalmanError and "finite" in str(bad)
        _assert_same_results(good, reconstruct_signals(*jobs[0], spec, noise_var=noise_var))

    def test_failing_scan_fails_its_job_only(self, chain_round, monkeypatch):
        """A closed loop whose powers overflow (made to, here, for the last job's filter,
        as an unstable one would) fails that job alone; the jobs of its doubling stack
        and of its scan stack keep their lone results."""
        spec, clean, rms, windows, noise_var = chain_round
        jobs = [self._job(windows, [ch], range(ch - 2, ch + 3)) for ch in (3, 4, 5, 6)]
        channels = list(range(4, 9))
        _, _, make_filter = _scoped_filter(
            spec, jobs[3][1], channels, [4, 5, 7, 8], ReconstructionConfig(), noise_var
        )
        marked = make_filter({6}).state  # the last job's filter; only its R and Q are its own
        powers = kalman._powers

        def failing(f, n_steps):
            if all(
                np.array_equal(getattr(f.state, name), getattr(marked, name))
                for name in ("measurement_noise", "process_noise")
            ):
                return KalmanError("the filter's closed loop is unstable: made to fail")
            return powers(f, n_steps)

        monkeypatch.setattr(kalman, "_powers", failing)
        outcomes = reconstruct_round(jobs, spec, noise_var=noise_var)
        assert [type(o) is KalmanError for o in outcomes] == [False, False, False, True]
        with pytest.raises(KalmanError) as lone:
            reconstruct_signals(*jobs[3], spec, noise_var=noise_var)
        assert str(outcomes[3]) == str(lone.value)
        for job, got in zip(jobs[:3], outcomes):
            _assert_same_results(got, reconstruct_signals(*job, spec, noise_var=noise_var))

    # the default buffer stacks each group whole; 400 stacks two state-14 or four
    # state-10 jobs, so the five and three jobs below take three and one stacks
    @pytest.mark.parametrize("buffer, stacks", [(kalman.SCAN_BUFFER, 2), (400, 4)])
    def test_one_solve_per_stack_and_one_scan_per_group(
        self, chain_round, monkeypatch, buffer, stacks
    ):
        """``_stationary_gains`` runs once per doubling stack of a group (at most
        ``SCAN_BUFFER // n^2`` jobs) and ``_prefix_scan`` once per group."""
        monkeypatch.setattr(kalman, "SCAN_BUFFER", buffer)
        spec, clean, rms, windows, noise_var = chain_round
        calls = _count_calls(monkeypatch, "_stationary_gains", "_prefix_scan")
        # five state-14 jobs (rows 5) and three state-10 jobs (rows 3)
        jobs = [self._job(windows, [ch], range(ch - 2, ch + 3)) for ch in (3, 4, 5, 6, 4)]
        jobs += [self._job(windows, [ch], range(ch - 1, ch + 2)) for ch in (2, 4, 6)]
        outcomes = reconstruct_round(jobs, spec, noise_var=noise_var)
        assert [len(o) for o in outcomes] == [1] * len(jobs)
        assert calls == {"_stationary_gains": stacks, "_prefix_scan": 2}

    def test_faulty_channel_without_window_entry_fails_its_job_only(self, chain_round):
        """A faulty channel missing from its job's windows fails that job, not the round."""
        spec, clean, rms, windows, noise_var = chain_round
        jobs = [([9], {ch: windows[ch] for ch in range(3, 7)}), self._job(windows, [5], range(3, 8))]
        bad, good = reconstruct_round(jobs, spec, noise_var=noise_var)
        assert type(bad) is KalmanError and "[9]" in str(bad)
        _assert_same_results(good, reconstruct_signals(*jobs[1], spec, noise_var=noise_var))

    def test_lone_call_raises_the_round_error(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        job = self._job(windows, [4, 5], range(4, 7))
        (outcome,) = reconstruct_round([job], spec, noise_var=noise_var)
        with pytest.raises(KalmanError) as lone:
            reconstruct_signals(*job, spec, noise_var=noise_var)
        assert str(lone.value) == str(outcome)
        assert outcome.__traceback__ is None


class TestKLDivergence:
    def test_identical_distributions(self):
        y = np.sin(np.arange(500) * 0.1)
        edges = np.linspace(-1, 1, 17)
        assert kl_divergence(y, y.copy(), edges) == 0.0

    def test_exact_symmetry(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal(2000)
        z = rng.standard_normal(2000) + 0.5
        edges = np.linspace(-4, 5, 17)
        assert kl_divergence(y, z, edges) == kl_divergence(z, y, edges)

    def test_disjoint_support_bounded_by_floor(self):
        y = np.full(100, -0.9)
        z = np.full(100, 0.9)
        edges = np.linspace(-1, 1, 17)
        val = kl_divergence(y, z, edges)
        # each signal occupies one bin: (1 - 1e-12) * log2(1 / 1e-12) per side
        bound = np.log2(1e12) + 1e-6
        assert 0 < val <= bound

    def test_length_mismatch(self):
        with pytest.raises(KalmanError):
            kl_divergence(np.ones(5), np.ones(6), np.linspace(0, 2, 5))


def _lone_filter_scan(node_set, windows, spec, noise_var, config=ReconstructionConfig()):
    """The scan's (lambdas, reported) from one ``run_filter`` call per candidate."""
    present = [ch for ch in node_set if windows.get(ch) is not None]
    _, block, make_filter = _scoped_filter(spec, windows, node_set, present, config, noise_var)
    lambdas = {}
    for cand in node_set:
        est, _ = run_filter(make_filter({cand}).state, block)
        kls = [
            kl_divergence(block[i], est[i], default_edges((block[i], est[i]), SCAN_BINS))
            for i, ch in enumerate(node_set)
            if ch != cand
        ]
        lambdas[cand] = float(np.mean(kls))
    best = min(lambdas, key=lambda ch: (lambdas[ch], ch))
    median = float(np.median(list(lambdas.values())))
    margin = float(lambdas[best] / median) if median > 0 else 1.0
    return lambdas, best if margin < config.scan_report_ratio else None


class TestMissingSensorScan:
    @pytest.mark.parametrize(
        "nodes, missing", [(range(N), None), (range(N), 5), ((3, 4, 5, 6, 7), 5), ((0, 1, 2, 3), 0)]
    )
    def test_stacked_scan_equals_lone_filters(self, chain_round, nodes, missing):
        """The one-stack scan gives the lambdas and report of per-candidate filters bit for bit."""
        spec, clean, rms, windows, noise_var = chain_round
        scope = {ch: None if ch == missing else windows[ch] for ch in nodes}
        result = missing_sensor_scan(nodes, scope, spec, noise_var=noise_var)
        lambdas, reported = _lone_filter_scan(list(nodes), scope, spec, noise_var)
        assert result.lambdas == lambdas
        assert result.reported == reported

    def test_stacked_filters_equal_lone_filters(self, chain_round):
        """Each slice of a stacked filter run is the lone ``run_filter`` bit for bit. Here
        the first candidate's doubling solve settles one doubling before the others'."""
        spec, clean, rms, windows, noise_var = chain_round
        nodes = [0, 1, 2, 3]
        scope = {0: None, **{ch: windows[ch] for ch in nodes[1:]}}
        _, block, make_filter = _scoped_filter(
            spec, scope, nodes, nodes[1:], ReconstructionConfig(), noise_var
        )
        candidates = [make_filter({cand}) for cand in nodes]
        outcomes = _run(candidates, [block] * len(nodes))
        assert len(outcomes) == len(candidates)
        for states, f in zip(outcomes, candidates):
            est, _ = run_filter(f.state, block)
            assert np.array_equal(f.state.measurement @ states[1:].T, est)
            assert np.array_equal(states[-1], f.state.x)
            assert np.array_equal(f.gains[1].T, f.state.gain)

    def test_candidates_share_one_solve_and_one_scan(self, chain_round, monkeypatch):
        spec, clean, rms, windows, noise_var = chain_round
        calls = _count_calls(monkeypatch, "_stationary_gains", "_prefix_scan")
        missing_sensor_scan(range(N), windows, spec, noise_var=noise_var)
        assert calls == {"_stationary_gains": 1, "_prefix_scan": 1}

    def test_duplicate_nodes_count_once(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        scope = {ch: windows[ch] for ch in (3, 4, 5)}
        result = missing_sensor_scan([3, 3, 4, 5], scope, spec, noise_var=noise_var)
        assert result.lambdas == missing_sensor_scan([3, 4, 5], scope, spec, noise_var=noise_var).lambdas
        assert list(result.lambdas) == [3, 4, 5]

    def test_channel_outside_structure_rejected(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        scope = {8: windows[8], 9: windows[9], 10: windows[7]}
        with pytest.raises(KalmanError, match=r"channel ids \[10\] are outside 0\.\.9"):
            missing_sensor_scan([8, 9, 10], scope, spec, noise_var=noise_var)

    def test_unequal_window_lengths_rejected(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        scope = {ch: windows[ch] for ch in (3, 4, 5)}
        scope[5] = SignalWindow(5, 0.0, 0.02, windows[5].samples[:100], 0)
        with pytest.raises(KalmanError, match=r"unequal lengths \[100, 1024\]"):
            missing_sensor_scan([3, 4, 5], scope, spec, noise_var=noise_var)


    def test_null_case_reports_nothing(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        result = missing_sensor_scan(range(N), windows, spec, noise_var=noise_var)
        assert result.reported is None

    def test_removed_node_identified(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        broken = dict(windows)
        broken[5] = None
        result = missing_sensor_scan(range(N), broken, spec, noise_var=noise_var)
        assert result.best_candidate == 5
        assert result.reported == 5

    def test_two_removed_found_by_iterated_scan(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        broken = dict(windows)
        broken[3] = None
        broken[7] = None
        first = missing_sensor_scan(range(N), broken, spec, noise_var=noise_var)
        assert first.best_candidate in (3, 7)
        remaining = [ch for ch in range(N) if ch != first.best_candidate]
        second = missing_sensor_scan(
            remaining, {ch: broken[ch] for ch in remaining}, spec, noise_var=noise_var
        )
        assert {first.best_candidate, second.best_candidate} == {3, 7}

    def test_too_few_nodes_rejected(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        with pytest.raises(KalmanError):
            missing_sensor_scan([4, 5], {4: windows[4], 5: windows[5]}, spec)


class TestFilterTable:
    """A run's filter table: one solve per filter, at the run's frozen signal RMS."""

    @staticmethod
    def _other_round(chain_round, seed):
        """The chain's windows with a fresh noise draw, as a later round would deliver them."""
        spec, clean, rms, windows, noise_var = chain_round
        rng = np.random.default_rng(seed)
        noisy = clean + 0.1 * rms[:, None] * rng.standard_normal(clean.shape)
        return {ch: SignalWindow(ch, 0.0, 0.02, noisy[ch], 1) for ch in range(N)}

    @staticmethod
    def _jobs(windows):
        scopes = [
            ([5], range(3, 8)), ([2], range(1, 4)), ([4], range(2, 7)),
            ([7, 8], range(5, 10)),
        ]
        return [(faulty, {ch: windows[ch] for ch in channels}) for faulty, channels in scopes]

    @pytest.mark.parametrize("scope", ["neighborhood", "full"])
    def test_reconstruction_hit_equals_fresh_solve(self, chain_round, monkeypatch, scope):
        """A later round's jobs take every filter from the table, solving none, and equal a
        fresh table's solve at the same frozen scale bit for bit."""
        spec, clean, rms, windows, noise_var = chain_round
        kwargs = dict(config=ReconstructionConfig(model_scope=scope), noise_var=noise_var)
        table = FilterTable(rms)
        reconstruct_round(self._jobs(windows), spec, filters=table, **kwargs)
        jobs = self._jobs(self._other_round(chain_round, 21))
        calls = _count_calls(monkeypatch, "_stationary_gains")
        hits = reconstruct_round(jobs, spec, filters=table, **kwargs)
        assert calls == {"_stationary_gains": 0}
        fresh = reconstruct_round(jobs, spec, filters=FilterTable(rms), **kwargs)
        for got, want in zip(hits, fresh):
            _assert_same_results(got, want)

    def test_full_scope_keys_do_not_collide_with_neighborhood_keys(self, chain_round):
        """One table filled at both scopes gives each scope its own filters."""
        spec, clean, rms, windows, noise_var = chain_round
        table, jobs = FilterTable(rms), self._jobs(windows)
        for scope in ("neighborhood", "full", "neighborhood"):
            config = ReconstructionConfig(model_scope=scope)
            got = reconstruct_round(jobs, spec, config=config, noise_var=noise_var, filters=table)
            want = reconstruct_round(
                jobs, spec, config=config, noise_var=noise_var, filters=FilterTable(rms)
            )
            for a, b in zip(got, want):
                _assert_same_results(a, b)

    def test_scale_is_the_frozen_rms_of_the_healthy_channels(self, chain_round):
        spec, clean, rms, windows, noise_var = chain_round
        channels, faulty = list(range(3, 8)), {5}
        healthy = [ch for ch in channels if ch not in faulty]
        _, _, make_filter = _scoped_filter(
            spec, windows, channels, healthy, ReconstructionConfig(), noise_var, FilterTable(rms)
        )
        want = filter_for_structure(
            spec.sub_chain(2, 8), [1, 2, 3, 4, 5], [noise_var[ch] for ch in channels],
            inflated={3}, input_scale=float(np.mean(rms[healthy])), boundary_cut=(True, True),
        )
        got = make_filter(faulty).state
        for name in ("transition", "measurement", "process_noise", "measurement_noise"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_scan_hit_equals_fresh_solve(self, chain_round, monkeypatch):
        """A later round's scan takes its candidates from the table and equals a fresh
        table's scan bit for bit; the missing channel's reconstruction over the same
        neighbourhood is the scan's candidate filter."""
        spec, clean, rms, windows, noise_var = chain_round
        nodes, table = [3, 4, 5, 6, 7], FilterTable(rms)

        def scope(round_windows):
            return {ch: None if ch == 5 else round_windows[ch] for ch in nodes}

        missing_sensor_scan(nodes, scope(windows), spec, noise_var=noise_var, filters=table)
        later = scope(self._other_round(chain_round, 22))
        calls = _count_calls(monkeypatch, "_stationary_gains")
        hit = missing_sensor_scan(nodes, later, spec, noise_var=noise_var, filters=table)
        (rebuilt,) = reconstruct_round([([], later)], spec, noise_var=noise_var, filters=table)
        assert calls == {"_stationary_gains": 0}
        fresh_table = FilterTable(rms)
        fresh = missing_sensor_scan(nodes, later, spec, noise_var=noise_var, filters=fresh_table)
        assert (hit.lambdas, hit.reported) == (fresh.lambdas, fresh.reported) and hit.reported == 5
        (want,) = reconstruct_round(
            [([], later)], spec, noise_var=noise_var, filters=FilterTable(rms)
        )
        _assert_same_results(rebuilt, want)

    def test_failing_filter_is_solved_once(self, chain_round, monkeypatch):
        """A filter whose solve fails is solved once; every round gets its KalmanError, each
        a fresh copy without a traceback."""
        spec, clean, rms, windows, noise_var = chain_round
        noise_var = {**noise_var, 8: 1e-320}  # healthy channel 8: H^T R^-1 H overflows
        table, job = FilterTable(rms), ([6], {ch: windows[ch] for ch in range(4, 9)})
        calls = _count_calls(monkeypatch, "_stationary_gains")
        outcomes = [
            reconstruct_round([job], spec, noise_var=noise_var, filters=table)[0] for _ in range(3)
        ]
        assert calls == {"_stationary_gains": 1}
        assert all(type(o) is KalmanError and o.__traceback__ is None for o in outcomes)
        assert len({str(o) for o in outcomes}) == 1
        assert "singular measurement noise" in str(outcomes[0])
        assert len({id(o) for o in outcomes}) == 3
