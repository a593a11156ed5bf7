"""Mode extraction, assembly, curvature and damage diagnosis tests."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import csd, get_window, welch

from conftest import (
    SEEDS_20,
    fault_only_config,
    localization_config,
    null_config,
    read_rows,
)
from shmsim.modal import (
    CurvatureBaseline,
    GlobalModeShape,
    LocalModeEstimate,
    ModalConfig,
    ModalError,
    _density_window,
    _Spectra,
    assemble_global,
    curvature,
    diagnose,
    extract_round_modes,
    modal_assurance,
    normalize_mode,
    resolve_global_signs,
)
from shmsim.sensing import SignalWindow
from shmsim.structure import ExcitationSpec, eigen_modes, simulate_response, uniform_chain


def _window(samples, sensor_id=0, dt=0.01):
    return SignalWindow(sensor_id=sensor_id, start_time=0.0, dt=dt, samples=samples, round_index=0)


class TestExtraction:
    def test_single_mode_frequency_within_one_bin(self):
        spec = uniform_chain(1, 1.0, (2 * np.pi) ** 2, 0.01, 42.0)
        rec = simulate_response(spec, ExcitationSpec("white_noise", 1.0, seed=2))
        config = ModalConfig(segment_length=4096, band=(0.3, 40.0), peak_snr=5.0, max_modes=1)
        est = extract_round_modes([(_window(rec.accelerations[0, :4096]), None)], config)[0]
        assert not est.is_empty
        assert abs(est.frequencies[0] - 1.0) <= 1.0 / (4096 * 0.01)

    def test_stuck_signal_yields_empty_estimate(self):
        config = ModalConfig(segment_length=256, band=(0.1, 20.0))
        est = extract_round_modes([(_window(np.full(2048, 3.3)), None)], config)[0]
        assert est.is_empty

    def test_mode_sign_patterns_match_eigen_ground_truth(self):
        """Mode 1 keeps one sign; mode 2 flips exactly once along the chain."""
        spec = uniform_chain(10, 1000.0, 1.769e6, 0.02, 82.0)
        basis = eigen_modes(spec)
        rec = simulate_response(spec, ExcitationSpec("white_noise", 1.0, seed=21))
        acc = rec.accelerations
        config = ModalConfig(segment_length=1024, band=(0.5, 4.0), peak_snr=4.0, max_modes=2)
        estimates = []
        for ch in range(10):
            pair = (_window(acc[ch], sensor_id=ch, dt=0.02), _window(acc[0], dt=0.02))
            estimates.append(extract_round_modes([pair], config)[0])
        shape = assemble_global(estimates, tolerance_hz=2.0 / (1024 * 0.02), n_locations=10)
        k1 = shape.nearest_mode(basis.frequencies[0])
        k2 = shape.nearest_mode(basis.frequencies[1])
        assert k1 != k2
        mode1 = shape.mode(k1)
        ok1 = np.isfinite(mode1) & (np.abs(mode1) > 0.1)
        assert np.all(mode1[ok1] > 0) or np.all(mode1[ok1] < 0)
        mode2 = shape.mode(k2)
        ok2 = np.isfinite(mode2) & (np.abs(mode2) > 0.15)
        signs = np.sign(mode2[ok2])
        assert int(np.sum(np.abs(np.diff(signs)) > 0)) == 1

    def test_flat_reference_leaves_node_its_own_reference(self):
        """A stuck reference's cross-spectrum is rounding residue, so it sets no sign."""
        spec = uniform_chain(10, 1000.0, 1.769e6, 0.02, 82.0)
        acc = simulate_response(spec, ExcitationSpec("white_noise", 1.0, seed=21)).accelerations
        config = ModalConfig(segment_length=256, band=(0.5, 4.0), peak_snr=4.0, max_modes=3)
        estimates = [
            extract_round_modes(
                [(
                    _window(acc[7], sensor_id=7, dt=0.02),
                    _window(np.full(acc.shape[1], value), sensor_id=5, dt=0.02),
                )],
                config,
            )[0]
            for value in (0.1, -3.7)
        ]
        for est in estimates:
            assert not est.is_empty
            assert est.reference_id == 7
        np.testing.assert_array_equal(estimates[0].frequencies, estimates[1].frequencies)
        np.testing.assert_array_equal(estimates[0].amplitudes, estimates[1].amplitudes)

    def test_reference_id_comes_from_the_reference_window(self):
        spec = uniform_chain(10, 1000.0, 1.769e6, 0.02, 82.0)
        acc = simulate_response(spec, ExcitationSpec("white_noise", 1.0, seed=21)).accelerations
        config = ModalConfig(segment_length=256, band=(0.5, 4.0), peak_snr=4.0, max_modes=3)
        window = _window(acc[7], sensor_id=7, dt=0.02)
        est = extract_round_modes([(window, _window(acc[5], sensor_id=5, dt=0.02))], config)[0]
        assert est.reference_id == 5
        own = extract_round_modes([(window, window)], config)[0]
        alone = extract_round_modes([(window, None)], config)[0]
        assert own.reference_id == alone.reference_id == 7
        np.testing.assert_array_equal(own.amplitudes, alone.amplitudes)

    def test_none_window_rejected(self):
        with pytest.raises(ModalError):
            extract_round_modes([(None, None)], ModalConfig())


class TestSegmentSpectra:
    """The batched segment FFT that runs use is scipy's welch/csd, bit for bit."""

    @pytest.mark.parametrize("dt", [0.02, 0.01, 0.003])
    @pytest.mark.parametrize(
        "size, segment_length",
        [(2048, 256), (550, 100), (550, 101), (80, 100)],  # odd segment; window shorter than one
    )
    def test_equals_scipy(self, size, segment_length, dt):
        rng = np.random.default_rng(size + segment_length)
        nperseg = min(segment_length, size)
        config = ModalConfig(segment_length=segment_length)
        for _ in range(10):
            samples = rng.uniform(0.01, 100.0) * rng.standard_normal(size) + rng.uniform(-5, 5)
            reference = 0.5 * samples + rng.standard_normal(size)
            spectra = _Spectra([samples, reference], 1.0 / dt, config)
            scipy_freqs, scipy_psd = welch(samples, fs=1.0 / dt, nperseg=nperseg)
            _, scipy_reference_psd = welch(reference, fs=1.0 / dt, nperseg=nperseg)
            _, scipy_cross = csd(samples, reference, fs=1.0 / dt, nperseg=nperseg)
            assert np.array_equal(spectra.freqs, scipy_freqs)
            assert np.array_equal(spectra.psd[0], scipy_psd)
            assert np.array_equal(spectra.psd[1], scipy_reference_psd)
            # the batched path at every bin, in shuffled order, so at whichever bins a pass picks
            bins = rng.permutation(scipy_freqs.size)
            cross = spectra.cross_at(np.zeros_like(bins), np.ones_like(bins), bins)
            assert np.array_equal(cross, scipy_cross[bins])
            # DC and the last bin are nonzero, so a mask that doubled DC, or got the
            # last bin's parity wrong, would break the equality above
            assert scipy_cross[0] != 0 and scipy_cross[-1] != 0

    @pytest.mark.parametrize("dt", [0.02, 0.003])
    @pytest.mark.parametrize("n", [1, 7, 100, 101, 256])
    def test_density_window_is_scaled_scipy_hann(self, n, dt):
        fs = 1.0 / dt
        win = get_window("hann", n)
        assert np.array_equal(_density_window(n, fs), win * (1 / np.sqrt(sum(win**2) / (1 / fs))))

    def test_reference_of_another_length_rejected(self):
        rng = np.random.default_rng(3)
        window = _window(rng.standard_normal(550))
        reference = _window(rng.standard_normal(549), sensor_id=1)
        with pytest.raises(ModalError):
            extract_round_modes([(window, reference)], ModalConfig(segment_length=100))


@st.composite
def extraction_passes(draw):
    """One extraction pass: ``(window, reference)`` pairs and the modal config.

    Windows come in one or two lengths, some stuck; a reference is missing,
    the window itself or another window of the same length (stuck ones
    included), and the segment may be longer than the window.
    """
    lengths = draw(st.lists(st.integers(4, 64), min_size=1, max_size=2, unique=True))
    dt = draw(st.sampled_from([0.02, 0.01]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    windows = []
    for sensor_id in range(draw(st.integers(1, 7))):
        n = draw(st.sampled_from(lengths))
        if draw(st.integers(0, 3)) == 0:
            samples = np.full(n, draw(st.floats(-5.0, 5.0)))
        else:
            t = np.arange(n) * dt
            tone = rng.uniform(0.0, 5.0) * np.sin(2 * np.pi * rng.uniform(0.5, 20.0) * t)
            samples = tone + rng.uniform(0.1, 3.0) * rng.standard_normal(n) + rng.uniform(-2, 2)
        windows.append(SignalWindow(sensor_id, 0.0, dt, samples, draw(st.integers(0, 3))))
    pairs = []
    for w in windows:
        same_length = [None] + [r for r in windows if r.length == w.length]
        pairs.append((w, draw(st.sampled_from(same_length))))
    config = ModalConfig(
        segment_length=draw(st.integers(2, 48)),
        band=(draw(st.sampled_from([0.0, 2.0])), draw(st.sampled_from([math.inf, 15.0]))),
        peak_snr=draw(st.floats(1.0, 4.0)),
        max_modes=draw(st.integers(1, 3)),
    )
    return pairs, config


def _scipy_extraction(window, config, reference=None):
    """One node's modes the way they were found one node at a time, from scipy's welch/csd."""
    samples = np.asarray(window.samples, dtype=float)
    own = reference is None or reference.sensor_id == window.sensor_id
    ref = None if own else np.asarray(reference.samples, dtype=float)
    if ref is not None and np.std(ref) <= 1e-12 * max(1.0, np.max(np.abs(ref))):
        ref = None
    out = LocalModeEstimate(window.sensor_id, window.round_index, np.empty(0), np.empty(0),
                            window.sensor_id if ref is None else reference.sensor_id)
    if np.std(samples) <= 1e-12 * max(1.0, np.max(np.abs(samples))):
        return out
    if ref is not None and ref.size != samples.size:
        raise ModalError("reference window length differs from the node's")
    nperseg = min(config.segment_length, samples.size)
    freqs, psd = welch(samples, fs=1.0 / window.dt, nperseg=nperseg)
    in_band = (freqs >= config.band[0]) & (freqs <= config.band[1])
    if not in_band.any():
        raise ModalError("analysis band is empty at this resolution")
    floor = float(np.median(psd[in_band]))
    if floor <= 0.0:
        return out
    band_idx = np.where(in_band)[0]
    sel = []
    for idx in band_idx[np.argsort(psd[band_idx])[::-1]]:
        if psd[idx] < config.peak_snr * floor:
            break
        if all(abs(idx - s) >= 2 for s in sel):
            sel.append(int(idx))
        if len(sel) == config.max_modes:
            break
    if not sel:
        return out
    sel = np.sort(np.asarray(sel))
    signs = np.ones(sel.size)
    if ref is not None:
        cross = csd(samples, ref, fs=1.0 / window.dt, nperseg=nperseg)[1]
        signs = np.where(np.real(cross[sel]) >= 0.0, 1.0, -1.0)
    return replace(out, frequencies=freqs[sel], amplitudes=signs * np.sqrt(psd[sel]))


class TestRoundExtraction:
    """One pass's batched extraction is each node's own extraction, bit for bit."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(case=extraction_passes())
    def test_equals_per_node_extraction(self, case):
        pairs, config = case
        try:
            alone = [extract_round_modes([pair], config)[0] for pair in pairs]
        except ModalError:  # an empty analysis band fails the pass as it fails a node
            with pytest.raises(ModalError):
                extract_round_modes(pairs, config)
            return
        together = extract_round_modes(pairs, config)
        reference = [_scipy_extraction(w, config, ref) for w, ref in pairs]
        assert len(together) == len(alone) == len(reference)
        for a, b, c in zip(together, alone, reference):
            for other in (b, c):
                assert (a.sensor_id, a.round_index, a.reference_id) == (
                    other.sensor_id, other.round_index, other.reference_id
                )
                for x, y in ((a.frequencies, other.frequencies), (a.amplitudes, other.amplitudes)):
                    assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_reference_of_another_length_fails_the_pass(self):
        rng = np.random.default_rng(4)
        short = _window(rng.standard_normal(500), sensor_id=1)
        pairs = [(_window(rng.standard_normal(550)), short), (short, None)]
        with pytest.raises(ModalError):
            extract_round_modes(pairs, ModalConfig(segment_length=100))

    def test_empty_pass(self):
        assert extract_round_modes([], ModalConfig()) == []


class TestPickedBinSigns:
    """A sign comes from the CSD at a picked bin; each case equals the scipy oracle bit for bit."""

    @staticmethod
    def _check(pairs, config):
        estimates = extract_round_modes(pairs, config)
        for est, (window, reference) in zip(estimates, pairs):
            want = _scipy_extraction(window, config, reference)
            assert (est.sensor_id, est.round_index, est.reference_id) == (
                want.sensor_id, want.round_index, want.reference_id
            )
            assert np.array_equal(est.frequencies, want.frequencies)
            assert np.array_equal(est.amplitudes, want.amplitudes)
        return estimates

    def test_peak_at_the_dc_bin(self):
        """One 64-sample segment: a cosine at bin 1 plus twice that at bin 2 cancels the
        windowed bin 1, so DC is the strongest bin two away from the bin-2 peak."""
        rng = np.random.default_rng(11)
        t = np.arange(64)
        x = np.cos(2 * np.pi * t / 64) + 2 * np.cos(4 * np.pi * t / 64) + 1e-3 * rng.standard_normal(64)
        pairs = [(_window(x), _window(-x + 1e-3 * rng.standard_normal(64), sensor_id=1))]
        config = ModalConfig(segment_length=64, band=(0.0, math.inf), peak_snr=8.0, max_modes=3)
        est = self._check(pairs, config)[0]
        assert est.frequencies[0] == 0.0 and est.amplitudes[0] < 0.0  # the flipped reference

    @pytest.mark.parametrize("segment_length", [64, 63])
    def test_peak_at_the_top_bin(self, segment_length):
        """Even segment: the Nyquist bin, never doubled; odd: the last bin, which is doubled."""
        rng = np.random.default_rng(segment_length)
        x = 3.0 * (-1.0) ** np.arange(640) + rng.standard_normal(640)
        pairs = [(_window(x), _window(-x + 0.1 * rng.standard_normal(640), sensor_id=1))]
        config = ModalConfig(segment_length=segment_length, peak_snr=4.0, max_modes=2)
        est = self._check(pairs, config)[0]
        assert est.frequencies[-1] == np.fft.rfftfreq(segment_length, 0.01)[-1]
        assert est.amplitudes[-1] < 0.0

    def test_flat_own_missing_references_and_two_lengths_in_one_pass(self):
        spec = uniform_chain(10, 1000.0, 1.769e6, 0.02, 82.0)
        acc = simulate_response(spec, ExcitationSpec("white_noise", 1.0, seed=21)).accelerations
        long = [_window(acc[ch, :2048], sensor_id=ch, dt=0.02) for ch in range(6)]
        short = [_window(acc[ch, :1500], sensor_id=ch, dt=0.02) for ch in range(6, 10)]
        flat = _window(np.full(2048, 0.4), sensor_id=9, dt=0.02)
        pairs = [
            (long[1], long[0]), (long[2], long[1]), (long[3], long[3]), (long[4], flat),
            (long[5], None), (short[1], short[0]), (short[2], short[1]), (short[3], short[3]),
        ]
        config = ModalConfig(segment_length=256, band=(0.5, 6.0), peak_snr=4.0, max_modes=3)
        estimates = self._check(pairs, config)
        assert [e.reference_id for e in estimates] == [0, 1, 3, 4, 5, 6, 7, 9]
        assert all(not e.is_empty for e in estimates)
        for est, pair in zip(estimates, pairs):  # and each equals its own lone pass
            alone = extract_round_modes([pair], config)[0]
            assert np.array_equal(est.amplitudes, alone.amplitudes)


class TestAssembly:
    def _estimate(self, node, freqs, amps, ref=None):
        return LocalModeEstimate(
            sensor_id=node,
            round_index=0,
            frequencies=np.asarray(freqs, dtype=float),
            amplitudes=np.asarray(amps, dtype=float),
            reference_id=node if ref is None else ref,
        )

    def test_identical_reports_equal_single_report(self):
        estimates = [self._estimate(n, [1.0], [0.5]) for n in range(4)]
        shape = assemble_global(estimates, tolerance_hz=0.1, n_locations=4)
        assert shape.n_modes == 1
        assert np.allclose(shape.mode(0), 1.0)  # 0.5 normalized to unit max

    def test_missing_node_flagged_not_zero_filled(self):
        estimates = [self._estimate(n, [1.0], [0.5 + 0.1 * n]) for n in (0, 1, 3)]
        estimates.append(
            LocalModeEstimate(2, 0, np.empty(0), np.empty(0), 2)
        )
        shape = assemble_global(estimates, tolerance_hz=0.1, n_locations=4)
        assert shape.missing[2, 0]
        assert np.isnan(shape.vectors[2, 0])
        present = [0, 1, 3]
        expected = np.array([0.5, 0.6, 0.8]) / 0.8
        assert np.allclose(shape.vectors[present, 0], expected)

    def test_quorum_drops_sparse_cluster(self):
        estimates = [self._estimate(n, [1.0], [1.0]) for n in range(5)]
        estimates[4] = self._estimate(4, [1.0, 3.0], [1.0, 0.7])
        shape = assemble_global(estimates, tolerance_hz=0.1, n_locations=5)
        assert shape.n_modes == 1  # the 3 Hz cluster has 1/5 nodes, below quorum
        assert shape.diagnostics

    def test_relative_signs_chain_through_references(self):
        # node 0 anchors; 1 references 0; 2 references 1 with a flip
        estimates = [
            self._estimate(0, [1.0], [0.5]),
            self._estimate(1, [1.0], [0.7], ref=0),
            self._estimate(2, [1.0], [-0.9], ref=1),
        ]
        shape = assemble_global(estimates, tolerance_hz=0.1, n_locations=3)
        vec = shape.mode(0)
        assert vec[0] > 0 and vec[1] > 0 and vec[2] < 0

    @pytest.mark.parametrize("bad", [4, -1])
    def test_sensor_id_outside_the_locations_rejected(self, bad):
        estimates = [self._estimate(n, [1.0], [0.5]) for n in (0, 1, 2)]
        estimates.append(self._estimate(bad, [1.0], [0.5]))
        for n_locations in (4, None):
            if bad == 4 and n_locations is None:
                continue  # then the locations run to the largest id
            with pytest.raises(ModalError, match=rf"sensor ids \[{bad}\] lie outside"):
                assemble_global(estimates, tolerance_hz=0.1, n_locations=n_locations)

    def test_normalization_idempotent(self):
        vec = np.array([0.2, -0.8, 0.5, np.nan])
        once = normalize_mode(vec)
        twice = normalize_mode(once)
        assert np.array_equal(once[np.isfinite(once)], twice[np.isfinite(twice)])
        assert np.nanmax(np.abs(once)) == 1.0


def _list_assembly(estimates, tolerance_hz, n_locations=None, round_index=0):
    """The clustering as first written: Python lists of entries and ``np.mean`` of a
    fresh list for each running mean. The oracle of ``assemble_global``."""
    estimates = list(estimates)
    if len(estimates) < 2:
        raise ModalError("assembly needs at least two estimates")
    by_node = {e.sensor_id: e for e in estimates}
    if n_locations is None:
        n_locations = max(by_node) + 1
    reporting = [e for e in estimates if not e.is_empty]
    diagnostics = []
    if not reporting:
        raise ModalError("no node reported any mode")
    sign_fix = resolve_global_signs(by_node)
    entries = []
    for e in reporting:
        for f, a in zip(e.frequencies, e.amplitudes):
            entries.append((float(f), e.sensor_id, float(a) * sign_fix[e.sensor_id]))
    entries.sort()
    clusters = []
    for f, node, amp in entries:
        if clusters and f - np.mean([x[0] for x in clusters[-1]]) <= tolerance_hz:
            clusters[-1].append((f, node, amp))
        else:
            clusters.append([(f, node, amp)])
    quorum = len(reporting) / 2.0
    freqs, columns, missing_cols = [], [], []
    for cluster in clusters:
        nodes = {}
        for f, node, amp in cluster:
            if node not in nodes or abs(amp) > abs(nodes[node][1]):
                nodes[node] = (f, amp)
        if len(nodes) <= quorum:
            diagnostics.append(
                f"cluster at {np.mean([c[0] for c in cluster]):.3f} Hz covers "
                f"{len(nodes)}/{len(reporting)} reporting nodes; below quorum, omitted"
            )
            continue
        vec = np.full(n_locations, np.nan)
        for node, (f, amp) in nodes.items():
            vec[node] = amp
        freqs.append(float(np.mean([f for f, _ in nodes.values()])))
        columns.append(normalize_mode(vec))
        missing_cols.append(~np.isfinite(vec))
    if not columns:
        raise ModalError("no frequency cluster reached quorum; " + "; ".join(diagnostics))
    order = np.argsort(freqs)
    return GlobalModeShape(
        frequencies=np.asarray(freqs)[order],
        vectors=np.column_stack(columns)[:, order],
        missing=np.column_stack(missing_cols)[:, order],
        round_index=round_index,
        diagnostics=diagnostics,
    )


@st.composite
def assembly_cases(draw):
    """Estimates whose frequencies sit on an FFT bin grid, often repeated across nodes,
    with clusters of up to 30 entries (numpy's pairwise sum starts past 8) and a
    tolerance that is a multiple of the bin width, so gaps land exactly on it."""
    df = draw(st.sampled_from([0.25, 1 / (256 * 0.02), 1 / (100 * 0.02), 1 / (550 * 0.02)]))
    tolerance = df * draw(st.sampled_from([0.5, 1.0, 2.0]))
    start = draw(st.integers(0, 40))
    grid = [start + k for k in draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))]
    nudges = draw(st.sampled_from([(0.0,), (0.0, 1e-9, -0.3 * df)]))  # on the grid, or off it
    n_nodes = draw(st.integers(2, 30))
    estimates = []
    for node in range(n_nodes):
        bins = draw(st.lists(st.sampled_from(grid), max_size=3))
        nudge = draw(st.sampled_from(nudges))
        freqs = [k * df + (nudge if k else 0.0) for k in bins]
        amps = [draw(st.floats(-2.0, 2.0, allow_subnormal=False)) for _ in bins]
        ref = draw(st.integers(0, n_nodes - 1))
        estimates.append(LocalModeEstimate(node, 0, np.array(freqs), np.array(amps), ref))
    return estimates, tolerance


class TestAssemblyOracle:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(case=assembly_cases())
    def test_equals_list_clustering(self, case):
        estimates, tolerance = case
        try:
            want = _list_assembly(estimates, tolerance, round_index=3)
        except ModalError as exc:
            with pytest.raises(ModalError) as raised:
                assemble_global(estimates, tolerance, round_index=3)
            assert str(raised.value) == str(exc)
            return
        got = assemble_global(estimates, tolerance, round_index=3)
        assert got.round_index == want.round_index
        assert got.diagnostics == want.diagnostics
        for a, b in ((got.frequencies, want.frequencies), (got.vectors, want.vectors)):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(got.missing, want.missing)

    def test_running_mean_is_numpys_pairwise_mean(self):
        """16 frequencies whose pairwise mean is one ulp above their sequential mean; the
        last report joins at that mean plus the tolerance, and would split off under a
        left-to-right sum."""
        freqs = [
            0.9096855506069126, 0.9121794827181018, 0.9128986141740181, 0.913388649702695,
            0.9139794045592439, 0.9168478209719274, 0.9179039808182861, 0.9188555323102696,
            1.0012681710226126, 1.002698367855008, 1.003159435453677, 1.0034429573096233,
            1.0051070650554363, 1.0086312020418933, 1.0086477829540077, 1.0099491734816093,
            1.1417333812578894,
        ]
        tolerance = 2 / (550 * 0.02)
        assert freqs[-1] - np.mean(freqs[:-1]) <= tolerance < freqs[-1] - sum(freqs[:-1]) / 16
        estimates = [
            LocalModeEstimate(n, 0, np.array([f]), np.array([1.0]), n) for n, f in enumerate(freqs)
        ]
        shape = assemble_global(estimates, tolerance)
        assert shape.n_modes == 1 and not shape.missing.any() and not shape.diagnostics

    def test_gap_exactly_at_the_tolerance_joins(self):
        estimates = [
            LocalModeEstimate(n, 0, np.array([f]), np.array([1.0]), n)
            for n, f in enumerate([1.0, 1.0, 1.25, 1.5, 1.75])
        ]
        # running means 1.0, 1.0, 1.0833..: 1.25 joins at exactly 0.25, 1.5 does not
        shape = assemble_global(estimates, 0.25)
        assert shape.frequencies.tolist() == [1.0833333333333333]
        assert shape.diagnostics == [
            "cluster at 1.625 Hz covers 2/5 reporting nodes; below quorum, omitted"
        ]


class TestCurvature:
    def test_linear_vector_zero_interior(self):
        vec = 3.0 * np.arange(8.0) + 1.0
        curv = curvature(vec)
        assert np.allclose(curv, 0.0, atol=1e-12)

    def test_quadratic_vector_constant_two(self):
        vec = np.arange(8.0) ** 2
        curv = curvature(vec)
        assert np.allclose(curv, 2.0)

    def test_linearity_exact(self):
        rng = np.random.default_rng(5)
        phi, psi = rng.standard_normal(10), rng.standard_normal(10)
        a, b = 2.5, -1.25
        combined = curvature(a * phi + b * psi)
        split = a * curvature(phi) + b * curvature(psi)
        assert np.allclose(combined, split, atol=1e-12)

    def test_entries_next_to_missing_flagged(self):
        vec = np.arange(10.0) ** 2
        vec[4] = np.nan
        curv = curvature(vec)
        assert np.all(np.isnan(curv[3:6]))
        assert np.isfinite(curv[1]) and np.isfinite(curv[8])

    def test_too_few_locations(self):
        with pytest.raises(ModalError):
            curvature(np.array([1.0, 2.0]))


class TestModalAssurance:
    def test_identical_shapes(self):
        v = np.array([0.2, 0.5, 0.9, 1.0])
        assert modal_assurance(v, 2.0 * v) == pytest.approx(1.0)

    def test_orthogonal_shapes(self):
        assert modal_assurance(np.array([1.0, 1.0]), np.array([1.0, -1.0])) == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([0.0, 0.0, 1.0], [1.0, 2.0, np.nan]),  # zero where both are finite
            ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]),
            ([0.0, 0.0], [0.0, 0.0]),
        ],
    )
    def test_zero_vector_on_shared_locations_rejected(self, a, b):
        with pytest.raises(ModalError, match="zero on the shared locations"):
            modal_assurance(np.array(a), np.array(b))


class TestAssembledAccuracy:
    def test_fault_free_mode_matches_analytic_shape(self, run_cached):
        """Assembled first mode agrees with eigen analysis at MAC >= 0.95."""
        out = run_cached("null_1", null_config(1))
        rows = read_rows(out / "modes.csv")
        base_rows = [r for r in rows if r["stage"] == "baseline" and r["mode"] == "0"]
        last = max(int(r["round"]) for r in base_rows)
        vec = np.full(10, np.nan)
        for r in base_rows:
            if int(r["round"]) == last and r["amplitude"] != "":
                vec[int(r["location"])] = float(r["amplitude"])
        spec = uniform_chain(10, 1000.0, 1.769e6, 0.02, 1.0)
        phi1 = eigen_modes(spec).mode_shapes[:, 0]
        assert modal_assurance(vec, phi1) >= 0.95


class TestDiagnosis:
    def test_null_scenarios_raise_no_alarms(self, run_cached):
        """No faults, no damage: zero damage reports over 20 seeds."""
        for seed in SEEDS_20:
            out = run_cached(f"null_{seed}", null_config(seed))
            rows = read_rows(out / "dependability.csv")
            assert all(int(r["damage_fp"]) == 0 and int(r["damage_tp"]) == 0 for r in rows)
            assert all(int(r["fault_fp"]) == 0 for r in rows)

    def test_fault_and_damage_separated(self, run_cached):
        """Fault flagged at its node, damage reported near the damaged story."""
        out = run_cached("loc_1", localization_config(1))
        det_rows = read_rows(out / "detections.csv")
        assert any(
            r["verdict"] == "faulty" and r["node"] == "8" for r in det_rows
        )
        onset = localization_config(1)["damage"]["onset_round"]
        dep_rows = read_rows(out / "dependability.csv")
        post = [r for r in dep_rows if int(r["round"]) >= onset]
        assert all(int(r["damage_tp"]) == 1 for r in post)
        assert all(int(r["damage_fp"]) == 0 for r in post)

    def test_recovery_ablation_degrades_diagnosis(self, run_cached):
        from conftest import read_summary

        on = run_cached("loc_1", localization_config(1))
        off = run_cached("loc_norec_1", {**localization_config(1), "mode": "no_recovery"})
        assert read_summary(off)["event_detection_ability"] < read_summary(on)[
            "event_detection_ability"
        ]

    def test_fault_only_never_looks_like_damage(self, run_cached):
        """Separability: pure sensor faults produce no multi-node deviations."""
        for seed in SEEDS_20:
            out = run_cached(f"faultonly_{seed}", fault_only_config(seed))
            rows = read_rows(out / "dependability.csv")
            assert all(int(r["damage_fp"]) == 0 for r in rows), seed

    def test_missing_baseline_rejected(self):
        shape = GlobalModeShape(
            frequencies=np.array([1.0]),
            vectors=np.ones((5, 1)),
            missing=np.zeros((5, 1), dtype=bool),
            round_index=0,
        )
        with pytest.raises(ModalError):
            diagnose(shape, None)

    def test_baseline_needs_two_rounds(self):
        with pytest.raises(ModalError):
            CurvatureBaseline.from_rounds([np.zeros(5)], 1.0)

    def test_baseline_skips_locations_without_two_finite_rounds(self):
        nan = np.nan
        rounds = [np.array([1.0, 2.0, nan, 4.0]), np.array([3.0, nan, nan, 6.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            baseline = CurvatureBaseline.from_rounds(rounds, 1.0)
            with pytest.raises(ModalError):
                CurvatureBaseline.from_rounds([np.array([1.0, nan]), np.array([nan, 2.0])], 1.0)
        np.testing.assert_array_equal(baseline.mean, [2.0, nan, nan, 5.0])
        np.testing.assert_array_equal(baseline.std, [np.sqrt(2.0), nan, nan, np.sqrt(2.0)])
