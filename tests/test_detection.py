"""MII detection tests: estimator oracles, indicator contracts, decisions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmsim import detection
from shmsim.detection import (
    LAMBDA_MAX,
    CorrelationModel,
    DegenerateSignalWarning,
    DetectionConfig,
    DetectionError,
    UnreliableEstimateWarning,
    bin_indices,
    default_edges,
    detection_round,
    fault_indicator,
    mutual_information_binned,
    mutual_information_codes,
    train_correlation_model,
)
from shmsim.kalman import kl_divergence
from shmsim.sensing import SignalWindow
from shmsim.structure import ExcitationSpec, simulate_response, uniform_chain

# closed-form MI of a bivariate Gaussian: -0.5 ln(1 - rho^2), rho = 0.9
GAUSSIAN_MI_RHO09 = 0.8303656034108254

WINDOW = 550
N_CHANNELS = 10


@pytest.fixture(scope="module")
def bench():
    """Sine-plus-ambient chain episodes with 10% measurement noise.

    Returns (make_round, model, config, signal_rms): make_round(tag) yields
    one fresh dict of channel windows; the model is trained on 6 fault-free
    rounds over the pair set of a +-2 line neighborhood.
    """
    spec = uniform_chain(N_CHANNELS, 1000.0, 1.769e6, 0.02, (WINDOW + 1) * 0.02)
    sine = simulate_response(spec, ExcitationSpec("sine", 1.0, frequency=0.9))

    def make_round(tag):
        ambient = simulate_response(
            spec, ExcitationSpec("white_noise", 0.02, seed=90_000 + tag)
        )
        clean = sine.accelerations[:, :WINDOW] + ambient.accelerations[:, :WINDOW]
        rms = np.sqrt(np.mean(clean**2, axis=1))
        rng = np.random.default_rng(80_000 + tag)
        noisy = clean + 0.1 * rms[:, None] * rng.standard_normal(clean.shape)
        return {
            ch: SignalWindow(
                sensor_id=ch, start_time=0.0, dt=0.02, samples=noisy[ch], round_index=tag
            )
            for ch in range(N_CHANNELS)
        }, rms

    config = DetectionConfig(bins=16, R=5, threshold=0.5)
    training = {ch: [] for ch in range(N_CHANNELS)}
    for d in range(6):
        windows, rms = make_round(d)
        for ch in range(N_CHANNELS):
            training[ch].append(windows[ch])
    pairs = [
        (i, j) for i in range(N_CHANNELS) for j in range(i + 1, min(i + 3, N_CHANNELS))
    ]
    model = train_correlation_model(training, config, pairs=pairs)
    return make_round, model, config, rms


class TestMutualInformation:
    def test_independent_windows_near_zero(self):
        rng = np.random.default_rng(7)
        u, v = rng.standard_normal(100_000), rng.standard_normal(100_000)
        edges = (default_edges(u, 16), default_edges(v, 16))
        assert mutual_information_binned(u, v, edges) <= 0.02

    def test_exact_symmetry(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(5000)
        v = 0.7 * u + rng.standard_normal(5000)
        edges_u, edges_v = default_edges(u, 16), default_edges(v, 16)
        assert mutual_information_binned(u, v, (edges_u, edges_v)) == mutual_information_binned(
            v, u, (edges_v, edges_u)
        )

    def test_gaussian_closed_form_oracle(self):
        rng = np.random.default_rng(7)
        xy = rng.multivariate_normal([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]], size=100_000)
        u, v = xy[:, 0], xy[:, 1]
        omega = mutual_information_binned(u, v, (default_edges(u, 32), default_edges(v, 32)))
        assert abs(omega - GAUSSIAN_MI_RHO09) / GAUSSIAN_MI_RHO09 < 0.15

    def test_self_information_equals_binned_entropy(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(20_000)
        edges = default_edges(u, 16)
        counts, _ = np.histogram(u, bins=edges)
        p = counts / counts.sum()
        entropy = -float(np.sum(p[p > 0] * np.log(p[p > 0])))
        omega = mutual_information_binned(u, u, (edges, edges))
        assert omega == pytest.approx(entropy, abs=1e-12)

    def test_affine_rescaling_with_cotransformed_edges(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal(8000)
        v = 0.5 * u + rng.standard_normal(8000)
        edges_u, edges_v = default_edges(u, 16), default_edges(v, 16)
        base = mutual_information_binned(u, v, (edges_u, edges_v))
        a, b = 3.7, -1.2
        scaled = mutual_information_binned(a * u + b, v, (a * edges_u + b, edges_v))
        assert scaled == base

    def test_offset_beyond_reference_range_raises_indicator(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(8000)
        v = 0.9 * u + 0.3 * rng.standard_normal(8000)
        edges = (default_edges(u, 16), default_edges(v, 16))
        ref = mutual_information_binned(u, v, edges)
        shifted = mutual_information_binned(u + 10.0, v, edges)  # far outside range
        assert fault_indicator(shifted, ref) > 0.5

    def test_nonnegative(self, bench):
        make_round, model, config, _ = bench
        windows, _ = make_round(500)
        for (i, j) in [(0, 1), (3, 5), (7, 9)]:
            edges = (model.edges[i], model.edges[j])
            assert mutual_information_binned(windows[i], windows[j], edges) >= 0.0

    def test_undersampled_estimate_warns(self):
        rng = np.random.default_rng(12)
        u, v = rng.standard_normal(20), rng.standard_normal(20)
        edges = (default_edges(u, 16), default_edges(v, 16))
        with pytest.warns(UnreliableEstimateWarning):
            mutual_information_binned(u, v, edges)

    def test_length_mismatch(self):
        with pytest.raises(DetectionError):
            mutual_information_binned(np.ones(5), np.ones(6), (np.linspace(0, 1, 5),) * 2)


@st.composite
def binned_windows(draw):
    """Two equal-length windows, each with its own edges, drawn to stress the binning.

    A window is plain, has samples placed exactly on its edges, has samples far
    outside its edge range, or is constant (degenerate edges).
    """
    n = draw(st.integers(20, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(n)
    v = draw(st.floats(-1.0, 1.0)) * u + rng.standard_normal(n)
    out = []
    for x in (u, v):
        bins = draw(st.integers(4, 32))
        kind = draw(st.sampled_from(["plain", "on_edges", "outside", "constant"]))
        if kind == "constant":
            x = np.full(n, float(x[0]))
        edges = default_edges(x, bins)
        hit = rng.random(n) < draw(st.floats(0.05, 0.5))
        if kind == "on_edges":
            x[hit] = rng.choice(edges, size=int(hit.sum()))
        elif kind == "outside":
            far = rng.choice([-1e6, 1e6], size=int(hit.sum()))
            x[hit] = far * (1.0 + rng.random(far.size))
        out.append((x, edges))
    return out


class TestBinnedSymmetry:
    """MI and KL share one binning and are symmetric by construction."""

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(pair=binned_windows())
    def test_symmetric_bit_for_bit_over_the_reference_binning(self, pair):
        (u, edges_u), (v, edges_v) = pair
        assert mutual_information_binned(u, v, (edges_u, edges_v)) == mutual_information_binned(
            v, u, (edges_v, edges_u)
        )
        assert kl_divergence(u, v, edges_u) == kl_divergence(v, u, edges_u)
        # the binning that the KL statistic used to take from np.histogram
        p, q = (
            np.histogram(np.clip(x, edges_u[0], edges_u[-1]), bins=edges_u)[0] for x in (u, v)
        )
        assert np.array_equal(np.bincount(bin_indices(u, edges_u), minlength=p.size), p)
        occupied = (p > 0) | (q > 0)
        p, q = (np.maximum(c[occupied] / u.size, 1e-12) for c in (p, q))
        assert kl_divergence(u, v, edges_u) == 0.5 * np.sum((p - q) * (np.log2(p) - np.log2(q)))


class TestBinCodes:
    """MI from bin codes computed once per window is the binned MI of the windows."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(pair=binned_windows())
    def test_codes_mi_equals_binned_mi(self, pair):
        (u, edges_u), (v, edges_v) = pair
        codes = bin_indices(u, edges_u), bin_indices(v, edges_v)
        bins = (edges_u.size - 1, edges_v.size - 1)
        assert mutual_information_codes(*codes, bins) == mutual_information_binned(
            u, v, (edges_u, edges_v)
        )

    def test_round_indicators_equal_binned_mi(self, bench):
        """Every pair indicator of a detection round is the binned MI's indicator."""
        make_round, model, config, rms = bench
        windows, _ = make_round(3400)
        windows[6] = SignalWindow(
            sensor_id=6, start_time=0.0, dt=0.02,
            samples=windows[6].samples + 4 * rms[6], round_index=0,
        )
        decisions = detection_round(windows, _neighbor_map(), model, config)
        checked = 0
        for i, decision in decisions.items():
            for j, lam in decision.lambdas.items():
                edges = (model.edges[i], model.edges[j])
                omega = mutual_information_binned(windows[i], windows[j], edges)
                assert lam == fault_indicator(omega, model.reference(i, j))
                checked += 1
        assert checked >= 30

    def test_training_reference_is_the_mean_binned_mi(self, bench):
        make_round, model, config, _ = bench
        rounds = [make_round(d)[0] for d in range(6)]
        for (i, j), omega_ref in model.omega_ref.items():
            edges = (model.edges[i], model.edges[j])
            vals = [mutual_information_binned(r[i], r[j], edges) for r in rounds]
            assert omega_ref == float(np.mean(vals))


def _lone_mi(codes_u, codes_v, bins):
    """The per-pair MI the stacked kernel must equal: one bincount, one sorted sum."""
    nu, nv = bins
    n = codes_u.size
    counts = np.bincount(codes_u * nv + codes_v, minlength=nu * nv).reshape(nu, nv)
    nz = counts > 0
    joint = counts[nz] / n
    outer = np.outer(counts.sum(axis=1) / n, counts.sum(axis=0) / n)
    terms = joint * np.log(joint / outer[nz])
    return max(float(np.sum(np.sort(terms))), 0.0)


def _code_pairs(seed, count, n, bins):
    """``count`` correlated code pairs of length n whose occupancy ranges from one cell
    to nearly every cell: each pair draws its own spread and coupling."""
    rng = np.random.default_rng(seed)
    nu, nv = bins
    codes = []
    for _ in range(count):
        spread = rng.choice([0.0, 0.3, 1.0, 3.0, 100.0])
        latent = rng.standard_normal(n)
        coupled = rng.uniform(0, 1) * latent + rng.standard_normal(n)
        for x, b in ((latent, nu), (coupled, nv)):
            c = np.rint(b / 2 + spread * x * b / 6).astype(np.intp)
            codes.append(np.clip(c, 0, b - 1))
    return codes


def _stacked(codes, bins):
    """``_pair_mi`` over consecutive (u, v) entries of ``codes``, with the bins of each pair."""
    pairs = [(i, i + 1) for i in range(0, len(codes), 2)]
    bins = bins if isinstance(bins, list) else [bins] * len(pairs)
    return detection._pair_mi(codes, pairs, bins), pairs, bins


class TestStackedKernel:
    """The stacked MI kernel and digitisation against the per-pair reference, bit for bit."""

    @pytest.mark.parametrize("bins", [(16, 16), (16, 9), (5, 23)])
    @pytest.mark.parametrize("n", [550, 60])
    def test_uneven_occupancy_equals_lone_pairs(self, bins, n):
        codes = _code_pairs(11, 300, n, bins)
        got, pairs, _ = _stacked(codes, bins)
        want = [_lone_mi(codes[u], codes[v], bins) for u, v in pairs]
        assert got == want
        assert [mutual_information_codes(codes[u], codes[v], bins) for u, v in pairs] == want
        occupied = [np.unique(codes[u] * bins[1] + codes[v]).size for u, v in pairs]
        assert min(occupied) == 1 and max(occupied) > 40

    @pytest.mark.parametrize("bins, n", [((16, 16), 20_000), ((32, 32), 6_000)])
    def test_more_than_128_occupied_cells(self, bins, n):
        """Past 128 terms numpy's pairwise sum splits into blocks; the prefix sum follows it."""
        rng = np.random.default_rng(12)
        codes = [rng.integers(0, b, n) for _ in range(20) for b in bins]
        got, pairs, _ = _stacked(codes, bins)
        occupied = [np.unique(codes[u] * bins[1] + codes[v]).size for u, v in pairs]
        assert min(occupied) > 128
        assert got == [_lone_mi(codes[u], codes[v], bins) for u, v in pairs]

    def test_mixed_bins_and_lengths_in_one_call(self):
        groups = [((16, 16), 550), ((16, 9), 550), ((16, 16), 300), ((7, 4), 30)]
        codes, bins = [], []
        for seed, (b, n) in enumerate(groups):
            codes += _code_pairs(seed, 25, n, b)
            bins += [b] * 25
        # interleave the groups so every chunk gathers from all over the code list
        order = np.random.default_rng(3).permutation(len(bins))
        codes = [c for p in order for c in codes[2 * p : 2 * p + 2]]
        bins = [bins[p] for p in order]
        got, pairs, _ = _stacked(codes, bins)
        assert got == [_lone_mi(codes[u], codes[v], b) for (u, v), b in zip(pairs, bins)]

    @pytest.mark.parametrize("buffer", [1, 550, 1100, 1651, 1 << 20])
    def test_chunk_boundaries(self, monkeypatch, buffer):
        """Chunks of 1, 1, 2 and 3 rows, and one chunk for every row, give the same values."""
        codes = _code_pairs(5, 40, 550, (16, 16))
        want = [_lone_mi(codes[u], codes[v], (16, 16)) for u, v in _stacked(codes, (16, 16))[1]]
        monkeypatch.setattr(detection, "MI_BUFFER", buffer)
        assert _stacked(codes, (16, 16))[0] == want

    @pytest.mark.parametrize("n", [1, 25])
    def test_undersampled_stack_warns(self, n):
        """n below bins^2 / 10 (25.6 for 16 x 16) warns; the values still equal the lone ones."""
        codes = _code_pairs(6, 4, n, (16, 16))
        with pytest.warns(UnreliableEstimateWarning):
            got, pairs, _ = _stacked(codes, (16, 16))
        assert got == [_lone_mi(codes[u], codes[v], (16, 16)) for u, v in pairs]
        if n == 1:
            assert got == [0.0] * 4

    def test_enough_samples_do_not_warn(self):
        codes = _code_pairs(6, 4, 26, (16, 16))
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnreliableEstimateWarning)
            _stacked(codes, (16, 16))

    def test_length_mismatch_named(self):
        with pytest.raises(DetectionError, match="5 vs 6"):
            detection._pair_mi([np.zeros(5, int), np.zeros(6, int)], [(0, 1)], [(4, 4)])

    @pytest.mark.parametrize("buffer", [1, 700, detection.MI_BUFFER])
    def test_stacked_digitisation_equals_bin_indices(self, monkeypatch, buffer):
        """NaN, +-inf, samples exactly on edges and far outside them, in windows of two
        lengths and three bin counts, one of them degenerate (equal edges)."""
        monkeypatch.setattr(detection, "MI_BUFFER", buffer)
        rng = np.random.default_rng(21)
        samples, edges = [], []
        for i in range(30):
            n = (300, 550)[i % 2]
            e = default_edges(rng.standard_normal(50), (16, 9, 4)[i % 3])
            if i % 7 == 0:
                e = np.full(17, 0.25)
            x = 1.5 * rng.standard_normal(n)
            hit = rng.random(n) < 0.3
            x[hit] = rng.choice(e, size=int(hit.sum()))
            x[:6] = [np.nan, np.inf, -np.inf, e[0], e[-1], -0.0]
            x[6:8] = [1e300, -1e300]
            samples.append(x)
            edges.append(e)
        codes = detection._digitise(samples, edges)
        for x, e, c in zip(samples, edges, codes):
            assert np.array_equal(c, bin_indices(x, e))
        assert codes[0][0] == edges[0].size - 2  # NaN lands in the top bin


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(values=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=8))
def test_decision_median_equals_numpy_median(values):
    assert detection._median(values) == float(np.median(values))


class TestFaultIndicator:
    def test_no_change(self):
        assert fault_indicator(0.8, 0.8) == 0.0

    def test_halved_mi(self):
        assert fault_indicator(0.4, 0.8) == pytest.approx(1.0)

    def test_degenerate_sentinel(self):
        with pytest.warns(DegenerateSignalWarning):
            assert fault_indicator(1e-12, 0.8) == LAMBDA_MAX

    def test_negative_rejected(self):
        with pytest.raises(DetectionError):
            fault_indicator(-0.1, 0.5)
        with pytest.raises(DetectionError):
            fault_indicator(0.1, -0.5)


class TestTraining:
    def test_retraining_identical(self, bench):
        make_round, _, config, _ = bench
        training = {ch: [] for ch in range(N_CHANNELS)}
        for d in range(5):
            windows, _ = make_round(d)
            for ch in range(N_CHANNELS):
                training[ch].append(windows[ch])
        m1 = train_correlation_model(training, config)
        m2 = train_correlation_model(training, config)
        assert m1.omega_ref == m2.omega_ref
        for ch in range(N_CHANNELS):
            assert np.array_equal(m1.edges[ch], m2.edges[ch])

    def test_adjacent_pair_reference_exceeds_far_pair(self):
        """Spatial correlation decay under broadband ambient excitation."""
        spec = uniform_chain(N_CHANNELS, 1000.0, 1.769e6, 0.02, (WINDOW + 1) * 0.02)
        config = DetectionConfig(bins=16, R=5)
        training = {ch: [] for ch in range(N_CHANNELS)}
        for d in range(6):
            rec = simulate_response(spec, ExcitationSpec("white_noise", 1.0, seed=300 + d))
            clean = rec.accelerations[:, :WINDOW]
            rms = np.sqrt(np.mean(clean**2, axis=1))
            rng = np.random.default_rng(400 + d)
            noisy = clean + 0.1 * rms[:, None] * rng.standard_normal(clean.shape)
            for ch in range(N_CHANNELS):
                training[ch].append(
                    SignalWindow(
                        sensor_id=ch, start_time=0.0, dt=0.02, samples=noisy[ch], round_index=d
                    )
                )
        model = train_correlation_model(training, config, pairs=[(0, 1), (0, 9)])
        assert model.reference(0, 1) > model.reference(0, 9)

    def test_constant_channel_flagged(self, bench):
        make_round, _, config, _ = bench
        windows, _ = make_round(0)
        training = {ch: [] for ch in (0, 1, 2)}
        for d in range(5):
            w, _ = make_round(d)
            training[0].append(w[0])
            training[1].append(w[1])
            training[2].append(
                SignalWindow(sensor_id=2, start_time=0.0, dt=0.02, samples=np.ones(WINDOW), round_index=d)
            )
        with pytest.warns(DegenerateSignalWarning):
            model = train_correlation_model(training, config)
        assert 2 in model.degenerate_channels
        assert model.reference(1, 2) == 0.0

    def test_lost_rounds_train_each_pair_on_its_common_rounds(self, bench):
        """Round-aligned lists keep None holes; a pair short of R common rounds stays untrained."""
        make_round, _, config, _ = bench
        rounds = [make_round(5000 + d)[0] for d in range(8)]
        # channel -> rounds it did not deliver; channel 9 delivered none
        lost = {2: {0, 3}, 3: {3, 5}, 4: {1, 2, 6, 7}, 9: set(range(8))}
        training = {
            ch: [None if d in lost.get(ch, ()) else rounds[d][ch] for d in range(8)]
            for ch in range(N_CHANNELS)
        }
        neighbor_map = _neighbor_map()
        pairs = {CorrelationModel.pair_key(i, j) for i in neighbor_map for j in neighbor_map[i]}
        model = train_correlation_model(training, config, pairs=pairs)

        def delivered(ch):
            return [d for d in range(8) if d not in lost.get(ch, ())]

        edges = {
            ch: default_edges(np.concatenate([rounds[d][ch].samples for d in delivered(ch)]), 16)
            for ch in range(N_CHANNELS)
            if delivered(ch)
        }
        assert set(model.edges) == set(edges)
        for i, j in pairs:
            common = sorted(set(delivered(i)) & set(delivered(j)))
            if len(common) < config.R:
                assert (i, j) not in model.omega_ref
                continue
            direct = np.mean(
                [
                    mutual_information_binned(rounds[d][i], rounds[d][j], (edges[i], edges[j]))
                    for d in common
                ]
            )
            assert model.reference(i, j) == pytest.approx(direct, rel=1e-12)
        # (2, 3) keeps its 5 common rounds; every pair of node 4 has fewer than R=5
        assert (2, 3) in model.omega_ref
        untrained = {(2, 4), (3, 4), (4, 5), (4, 6), (7, 9), (8, 9)}
        assert untrained.isdisjoint(model.omega_ref)

        windows, _ = make_round(5100)
        decisions = detection_round(windows, neighbor_map, model, config)
        for ch, dec in decisions.items():
            trained = [j for j in neighbor_map[ch] if model.pair_key(ch, j) in model.omega_ref]
            assert set(dec.lambdas) == set(trained)
        # with no trained pair, node 4 is judged as if no neighbor had delivered
        silent = {ch: None if ch in neighbor_map[4] else w for ch, w in windows.items()}
        assert decisions[4] == detection_round(silent, neighbor_map, model, config)[4]
        assert decisions[4].verdict == "non_faulty"
        assert decisions[9].verdict == "non_faulty"

    def test_insufficient_windows_names_pair(self, bench):
        make_round, _, config, _ = bench
        windows, _ = make_round(0)
        training = {0: [windows[0]], 1: [windows[1]]}
        with pytest.raises(DetectionError, match=r"\(0, 1\)"):
            train_correlation_model(training, config)


def _neighbor_map():
    return {
        ch: [j for j in range(N_CHANNELS) if j != ch and abs(j - ch) <= 2]
        for ch in range(N_CHANNELS)
    }


class TestDecideFaulty:
    """Per-node verdicts of one detection_round."""

    def test_fault_free_rounds_all_clear(self, bench):
        """Zero false positives over 20 independent fault-free rounds."""
        make_round, model, config, _ = bench
        neighbor_map = _neighbor_map()
        for tag in range(20):
            windows, _ = make_round(1000 + tag)
            decisions = detection_round(windows, neighbor_map, model, config, round_index=tag)
            assert all(d.verdict == "non_faulty" for d in decisions.values())

    def test_stuck_node_flagged_same_round(self, bench):
        make_round, model, config, rms = bench
        neighbor_map = _neighbor_map()
        for tag in range(20):
            windows, _ = make_round(2000 + tag)
            windows[5] = SignalWindow(
                sensor_id=5, start_time=0.0, dt=0.02,
                samples=np.full(WINDOW, 3 * rms[5]), round_index=tag,
            )
            decisions = detection_round(windows, neighbor_map, model, config, round_index=tag)
            assert decisions[5].verdict == "faulty"
            clean = [ch for ch in range(N_CHANNELS) if ch != 5]
            assert all(decisions[ch].verdict == "non_faulty" for ch in clean)

    def test_huge_threshold_clears_everything(self, bench):
        make_round, model, _, rms = bench
        config = DetectionConfig(bins=16, R=5, threshold=1e9)
        windows, _ = make_round(3000)
        windows[5] = SignalWindow(
            sensor_id=5, start_time=0.0, dt=0.02,
            samples=np.full(WINDOW, 3 * rms[5]), round_index=0,
        )
        decisions = detection_round(windows, _neighbor_map(), model, config)
        assert all(d.verdict == "non_faulty" for d in decisions.values())

    def test_zero_neighbors_rejected(self, bench):
        make_round, model, config, _ = bench
        windows, _ = make_round(3100)
        neighbor_map = _neighbor_map()
        neighbor_map[0] = []
        with pytest.raises(DetectionError, match="node 0 has no neighbors"):
            detection_round(windows, neighbor_map, model, config)

    def test_one_mi_evaluation_per_delivered_pair(self, bench, monkeypatch):
        """Each delivered, trained pair's MI is evaluated once per round, and no other pair's."""
        make_round, model, config, rms = bench
        windows, _ = make_round(3300)
        windows[5] = SignalWindow(
            sensor_id=5, start_time=0.0, dt=0.02,
            samples=np.full(WINDOW, 3 * rms[5]), round_index=0,
        )
        windows[2] = None
        # hearing range 3: the pairs at distance 3 are untrained
        neighbor_map = {
            ch: [j for j in range(N_CHANNELS) if j != ch and abs(j - ch) <= 3]
            for ch in range(N_CHANNELS)
        }
        delivered = {
            CorrelationModel.pair_key(i, j)
            for i in neighbor_map
            for j in neighbor_map[i]
            if windows[i] is not None and windows[j] is not None
            and CorrelationModel.pair_key(i, j) in model.omega_ref
        }
        codes = {
            ch: bin_indices(w.samples, model.edges[ch]) for ch, w in windows.items() if w is not None
        }

        def channel(c):
            (ch,) = [ch for ch, own in codes.items() if np.array_equal(c, own)]
            return ch

        calls = []
        kernel = detection._mi_kernel

        def counting(codes_u, codes_v, bins):
            calls.extend((channel(u), channel(v)) for u, v in zip(codes_u, codes_v))
            return kernel(codes_u, codes_v, bins)

        monkeypatch.setattr(detection, "_mi_kernel", counting)
        decisions = detection_round(windows, neighbor_map, model, config)
        assert decisions[5].verdict == "faulty"
        assert sorted(CorrelationModel.pair_key(i, j) for i, j in calls) == sorted(delivered)

    def test_absent_window_marked_faulty(self, bench):
        make_round, model, config, _ = bench
        windows, _ = make_round(3200)
        windows[5] = None
        decisions = detection_round(windows, _neighbor_map(), model, config)
        assert decisions[5].verdict == "faulty"
        assert decisions[5].lambda_agg == LAMBDA_MAX

    def test_offset_indicator_monotone_in_magnitude(self, bench):
        """Median indicator over 20 rounds never decreases with offset size."""
        make_round, model, config, rms = bench
        grid = [0.0, 1.25, 2.5, 3.75, 5.0]
        medians = []
        for factor in grid:
            lams = []
            for tag in range(20):
                windows, _ = make_round(4000 + tag)
                shifted = SignalWindow(
                    sensor_id=5, start_time=0.0, dt=0.02,
                    samples=windows[5].samples + factor * rms[5], round_index=tag,
                )
                edges = (model.edges[5], model.edges[4])
                omega = mutual_information_binned(shifted, windows[4], edges)
                lams.append(fault_indicator(omega, model.reference(4, 5)))
            medians.append(float(np.median(lams)))
        assert all(b >= a for a, b in zip(medians, medians[1:])), medians
