"""Per-sensor mode estimation, BS-side assembly, curvature damage diagnosis.

Each node runs an averaged periodogram over its round window, picks spectral
peaks inside the analysis band and reports (frequency, amplitude, sign)
triples; the sign is the cross-spectrum phase against its reference neighbor
(lowest-id node it can hear), evaluated at the picked bins only, where it
equals scipy's ``csd``. The base station clusters the reported
frequencies, chains the pairwise signs into a globally consistent mode
vector, normalizes to unit maximum amplitude, and compares mode-shape
curvature against a fault-free baseline to localize damage.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sensing import is_flat


class ModalError(ValueError):
    """Raised on malformed mode estimates or assembly preconditions."""


@dataclass
class ModalConfig:
    segment_length: int = 256  # Welch segment (c_r); 50% overlap
    band: tuple = (0.0, math.inf)  # analysis band in Hz
    peak_snr: float = 8.0  # peak height over the in-band median floor
    max_modes: int = 3
    damage_threshold_sigmas: float = 3.0


@dataclass
class LocalModeEstimate:
    """One node's identified peaks for one round; empty when nothing clears the floor."""

    sensor_id: int
    round_index: int
    frequencies: np.ndarray
    amplitudes: np.ndarray  # signed: cross-spectrum phase vs the reference node
    reference_id: int  # node the signs are relative to (itself if none)

    @property
    def is_empty(self) -> bool:
        return self.frequencies.size == 0


@functools.lru_cache(maxsize=8)
def _density_window(n: int, fs: float) -> np.ndarray:
    """Periodic Hann window of length ``n`` scaled so segment |FFT|² is a density."""
    # scipy's general_cosine arithmetic, so it equals get_window("hann", n) bit for bit
    win = np.ones(1) if n == 1 else 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])
    # builtin sum: the same summation order as scipy's ShortTimeFFT.fac_psd
    scaled = win * (1 / np.sqrt(sum(win**2) / (1 / fs)))
    scaled.setflags(write=False)
    return scaled


def _segment_ffts(rows: np.ndarray, nperseg: int, fs: float) -> np.ndarray:
    """FFTs of the 50%-overlap, mean-removed, Hann-windowed segments of each of ``rows``.

    ``rows`` is ``(k, T)``; the result is ``(k, segments, nperseg // 2 + 1)``.
    """
    segs = sliding_window_view(rows, nperseg, axis=-1)[:, :: nperseg - nperseg // 2]
    windowed = (segs - segs.mean(axis=-1, keepdims=True)) * _density_window(nperseg, fs)
    return np.fft.rfft(windowed, axis=-1)


def _one_sided_mean(per_segment: np.ndarray, nperseg: int) -> np.ndarray:
    """Mean over the segment axis of ``(..., segments, freqs)``, interior bins doubled."""
    # mean over a contiguous (freq, segment) array: numpy's pairwise order, as scipy's
    avg = np.ascontiguousarray(np.swapaxes(per_segment, -1, -2)).mean(axis=-1)
    avg[..., 1 : -1 if nperseg % 2 == 0 else None] *= 2
    return avg


class _Spectra:
    """Spectra of every window of one extraction pass that shares a length and a rate."""

    def __init__(self, rows: list, fs: float, config: ModalConfig):
        samples = np.stack(rows)
        self.nperseg = min(config.segment_length, samples.shape[1])
        self.flat = is_flat(samples)
        self.ffts = _segment_ffts(samples, self.nperseg, fs)
        self.psd = _one_sided_mean(self.ffts.real**2 + self.ffts.imag**2, self.nperseg)
        self.freqs = np.fft.rfftfreq(self.nperseg, 1 / fs)
        in_band = (self.freqs >= config.band[0]) & (self.freqs <= config.band[1])
        self.band_idx = np.flatnonzero(in_band)
        if self.band_idx.size:
            band_psd = self.psd[:, self.band_idx]
            # peak picking walks Python floats and ints, one list per row
            self.floors = np.median(band_psd, axis=1).tolist()
            self.orders = self.band_idx[np.argsort(band_psd, axis=1)[:, ::-1]].tolist()
            self.psd_rows = self.psd.tolist()

    def cross_at(self, nodes, references, bins) -> np.ndarray:
        """CSD of row ``nodes[j]`` against row ``references[j]`` at bin ``bins[j]``, for every j.

        Each value is the segment mean of ``F_ref * conj(F_node)`` at its bin,
        the same contiguous reduction ``_one_sided_mean`` runs, so it equals the
        full CSD at that bin bit for bit.
        """
        bins = np.asarray(bins, dtype=int)
        cross = (self.ffts[references, :, bins] * np.conj(self.ffts[nodes, :, bins])).mean(axis=-1)
        # interior bins doubled: never DC, never the Nyquist bin of an even segment
        cross[(bins > 0) & ((bins < self.nperseg // 2) | (self.nperseg % 2 == 1))] *= 2
        return cross


def extract_round_modes(pairs, config: ModalConfig) -> list:
    """Local modes of every ``(window, reference)`` pair of one extraction pass.

    Each estimate peak-picks the averaged periodogram of the node's round
    window. ``reference`` is the reference node's synchronized window for the
    sign convention. Without it, when it is flat or when it is the node's own
    window, all signs are positive and the estimate is its own reference.

    Each distinct window, as a node or as a reference, is one row of a
    ``(k, T)`` stack per window length and sampling rate. One strided FFT of
    all of a stack's segments gives every row's PSD, and the flatness tests
    and noise floors run once per stack. Every node picks its peaks first;
    then one gather per stack takes the cross-spectrum of every signed node
    against its reference at the picked bins only. An estimate does not
    depend on the other pairs of the pass.
    """
    stacks = {}  # (length, fs) -> sample rows
    slots = {}  # (id(window), fs) -> (stack key, row); fs is the node's, whose window scales both

    def slot(window, fs):
        if (id(window), fs) not in slots:
            samples = np.asarray(window.samples, dtype=float)
            stack = stacks.setdefault((samples.size, fs), [])
            slots[id(window), fs] = (samples.size, fs), len(stack)
            stack.append(samples)
        return slots[id(window), fs]

    plan = []
    for window, reference in pairs:
        if window is None:
            raise ModalError("mode extraction needs a delivered window")
        fs = 1.0 / window.dt
        own = reference is None or reference.sensor_id == window.sensor_id
        plan.append((window, reference, slot(window, fs), None if own else slot(reference, fs)))
    spectra = {key: _Spectra(samples, key[1], config) for key, samples in stacks.items()}
    picks = []  # per pair: (stack key, row, picked bins, offset of its signs or None, reference id)
    gathers = {key: ([], [], []) for key in spectra}  # stack key -> node rows, reference rows, bins
    for window, reference, (key, i), ref_row in plan:
        group = spectra[key]
        # a flat reference's cross-spectrum phase is noise: the node is its own reference
        signed = ref_row is not None and not spectra[ref_row[0]].flat[ref_row[1]]
        sel, offset = [], None
        # flat signals (stuck sensors) have no spectral peaks at all
        if not group.flat[i]:
            if signed and ref_row[0] != key:
                raise ModalError("reference window length differs from the node's")
            if not group.band_idx.size:
                raise ModalError("analysis band is empty at this resolution")
            sel = _pick_peaks(group.psd_rows[i], group.orders[i], group.floors[i], config)
        if signed and sel:
            nodes, references, bins = gathers[key]
            offset = len(bins)
            nodes += [i] * len(sel)
            references += [ref_row[1]] * len(sel)
            bins += sel
        picks.append((key, i, sel, offset, reference.sensor_id if signed else window.sensor_id))
    signs = {
        key: np.where(spectra[key].cross_at(*gather).real >= 0.0, 1.0, -1.0)
        for key, gather in gathers.items()
        if gather[2]
    }
    estimates = []
    for (window, *_), (key, i, sel, offset, ref_id) in zip(plan, picks):
        frequencies, amplitudes = np.empty(0), np.empty(0)
        if sel:
            group = spectra[key]
            frequencies, amplitudes = group.freqs[sel], np.sqrt(group.psd[i, sel])
            if offset is not None:
                amplitudes = signs[key][offset : offset + len(sel)] * amplitudes
        estimates.append(
            LocalModeEstimate(window.sensor_id, window.round_index, frequencies, amplitudes, ref_id)
        )
    return estimates


def _pick_peaks(psd: list, order: list, floor: float, config: ModalConfig) -> list:
    """Greedy peak picking over in-band bins ``order``ed strongest first.

    Peaks are at least 2 bins apart and above ``peak_snr`` times the noise
    floor (band-edge peaks are legitimate); returns their bins ascending,
    none when the floor is not positive.
    """
    if floor <= 0.0:
        return []
    sel = []
    for idx in order:
        if psd[idx] < config.peak_snr * floor:
            break
        if all(abs(idx - s) >= 2 for s in sel):
            sel.append(idx)
        if len(sel) == config.max_modes:
            break
    return sorted(sel)


@dataclass
class GlobalModeShape:
    """Assembled mode vectors over all sensor locations, unit-max normalized.

    ``vectors[:, k]`` is mode k (NaN at missing locations, flagged in
    ``missing``); ``frequencies[k]`` is the cluster mean frequency.
    """

    frequencies: np.ndarray  # (p,)
    vectors: np.ndarray  # (n_locations, p)
    missing: np.ndarray  # (n_locations, p) bool
    round_index: int
    diagnostics: list = field(default_factory=list)

    @property
    def n_modes(self) -> int:
        return self.frequencies.size

    def mode(self, k: int) -> np.ndarray:
        return self.vectors[:, k]

    def nearest_mode(self, frequency: float) -> int:
        return int(np.argmin(np.abs(self.frequencies - frequency)))


def normalize_mode(vector: np.ndarray) -> np.ndarray:
    """Scale to unit maximum amplitude; idempotent. NaNs pass through."""
    finite = np.isfinite(vector)
    if not finite.any():
        raise ModalError("mode vector has no finite entries")
    peak = float(np.max(np.abs(vector[finite])))
    if peak == 0.0:
        raise ModalError("mode vector is identically zero")
    return vector / peak


def resolve_global_signs(estimates: dict) -> dict:
    """Chain per-node relative signs into global ones.

    ``estimates[node]`` must expose ``reference_id``; a node whose reference
    is itself anchors its chain at +1. Returns node -> +/-1 multiplier for
    that node's amplitudes.
    """
    resolved = {}

    def resolve(node, trail=()):
        if node in resolved:
            return resolved[node]
        ref = estimates[node].reference_id
        if ref == node or ref not in estimates or ref in trail:
            resolved[node] = 1.0
        else:
            resolved[node] = resolve(ref, trail + (node,))
        return resolved[node]

    for node in sorted(estimates):
        resolve(node)
    return resolved


def assemble_global(
    estimates,
    tolerance_hz: float,
    n_locations: int | None = None,
    round_index: int = 0,
) -> GlobalModeShape:
    """Cluster per-node frequencies and assemble normalized mode vectors.

    Nodes reporting within ``tolerance_hz`` of a cluster's running mean join
    that cluster; a cluster must cover more than half of the reporting nodes
    to become a mode (others are dropped with a diagnostic). Locations with
    no report in a cluster are NaN and flagged, never zero-filled.
    """
    estimates = list(estimates)
    if len(estimates) < 2:
        raise ModalError("assembly needs at least two estimates")
    by_node = {e.sensor_id: e for e in estimates}
    if n_locations is None:
        n_locations = max(by_node) + 1
    outside = sorted(node for node in by_node if not 0 <= node < n_locations)
    if outside:
        raise ModalError(f"sensor ids {outside} lie outside locations 0..{n_locations - 1}")
    reporting = [e for e in estimates if not e.is_empty]
    diagnostics = []
    if not reporting:
        raise ModalError("no node reported any mode")
    sign_fix = resolve_global_signs(by_node)
    entries = sorted(  # (frequency, node, signed amplitude)
        (f, e.sensor_id, a * sign_fix[e.sensor_id])
        for e in reporting
        for f, a in zip(e.frequencies.tolist(), e.amplitudes.tolist())
    )
    sorted_freqs = np.array([f for f, _, _ in entries])
    starts = [0]  # cluster c is entries[starts[c] : starts[c + 1]]
    for i in range(1, len(entries)):
        # the running mean is numpy's pairwise mean of the cluster's frequencies so far
        if not (entries[i][0] - sorted_freqs[starts[-1] : i].mean() <= tolerance_hz):
            starts.append(i)
    quorum = len(reporting) / 2.0
    freqs, columns, missing_cols = [], [], []
    for lo, hi in zip(starts, starts[1:] + [len(entries)]):
        nodes = {}
        for f, node, amp in entries[lo:hi]:
            if node not in nodes or abs(amp) > abs(nodes[node][1]):
                nodes[node] = (f, amp)
        if len(nodes) <= quorum:
            diagnostics.append(
                f"cluster at {sorted_freqs[lo:hi].mean():.3f} Hz covers "
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


def _runs(mask) -> list:
    """Maximal runs of consecutive True entries of ``mask``, each as its list of indices."""
    runs, run = [], []
    for i, ok in enumerate(mask):
        if ok:
            run.append(i)
        elif run:
            runs.append(run)
            run = []
    return runs + [run] if run else runs


def curvature(mode_vector: np.ndarray) -> np.ndarray:
    """Second spatial difference phi[i-1] - 2 phi[i] + phi[i+1] over unit location spacing.

    Endpoints use the one-sided stencil of their nearest interior point.
    Entries whose stencil touches a missing (NaN) location come out NaN.
    """
    v = np.asarray(mode_vector, dtype=float)
    if v.size < 3:
        raise ModalError("curvature needs at least 3 locations")
    if max(map(len, _runs(np.isfinite(v))), default=0) < 3:
        raise ModalError("curvature needs at least 3 consecutive non-missing locations")
    out = np.full(v.size, np.nan)
    out[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
    out[0] = v[0] - 2.0 * v[1] + v[2]
    out[-1] = v[-3] - 2.0 * v[-2] + v[-1]
    return out


def modal_assurance(a: np.ndarray, b: np.ndarray) -> float:
    """Modal Assurance Criterion between two mode vectors (NaNs excluded)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ok = np.isfinite(a) & np.isfinite(b)
    if ok.sum() < 2:
        raise ModalError("too few shared locations for MAC")
    num = float(a[ok] @ b[ok]) ** 2
    den = float(a[ok] @ a[ok]) * float(b[ok] @ b[ok])
    if den == 0.0:
        raise ModalError("a mode vector is zero on the shared locations")
    return num / den


@dataclass
class CurvatureBaseline:
    """Fault-free reference: mean curvature and its per-location round-to-round std."""

    mean: np.ndarray
    std: np.ndarray
    frequency: float

    @classmethod
    def from_rounds(cls, curvatures, frequency: float) -> "CurvatureBaseline":
        """Per-location statistics over the rounds; NaN where fewer than two are finite."""
        stack = np.vstack(curvatures)
        if stack.shape[0] < 2:
            raise ModalError("baseline needs at least two fault-free rounds")
        ok = np.isfinite(stack).sum(axis=0) >= 2
        if not ok.any():
            raise ModalError("no location has two finite baseline curvatures")
        mean = np.full(stack.shape[1], np.nan)
        std = np.full(stack.shape[1], np.nan)
        mean[ok] = np.nanmean(stack[:, ok], axis=0)
        std[ok] = np.nanstd(stack[:, ok], axis=0, ddof=1)
        return cls(mean=mean, std=std, frequency=frequency)


@dataclass
class DamageDiagnosis:
    damage_locations: list  # peak location of each multi-node deviation cluster
    fault_only_locations: list  # single-location deviations (sensor artifacts)
    deviations: np.ndarray
    threshold: np.ndarray
    unscored: np.ndarray  # locations whose curvature could not be evaluated


def diagnose(
    current: GlobalModeShape,
    baseline: CurvatureBaseline,
    config: ModalConfig | None = None,
) -> DamageDiagnosis:
    """Classify curvature deviations into damage vs sensor-fault artifacts.

    A deviation beyond ``damage_threshold_sigmas`` times the baseline
    round-to-round std at a single location is a sensor artifact; a
    contiguous deviation spanning two or more locations is damage, reported
    at the cluster's peak deviation.
    """
    if baseline is None:
        raise ModalError("diagnose requires a trained baseline")
    config = config or ModalConfig()
    k = current.nearest_mode(baseline.frequency)
    curv = curvature(current.mode(k))
    dev = np.abs(curv - baseline.mean)
    # per-location std floored at the network median: a handful of training
    # rounds underestimates sigma at individual locations
    floor = np.nanmedian(baseline.std)
    sigma = np.where(np.isfinite(baseline.std), np.maximum(baseline.std, floor), floor)
    threshold = config.damage_threshold_sigmas * sigma
    scored = np.isfinite(dev)
    exceed = scored & (dev > threshold)
    damage, fault_only = [], []
    n = dev.size
    for cluster in _runs(exceed):
        # endpoint curvature duplicates its neighbor's one-sided stencil, so it
        # cannot count as an independent second location
        stencil_centers = {min(max(i, 1), n - 2) for i in cluster}
        if len(stencil_centers) >= 2:
            peak = cluster[int(np.argmax(dev[cluster]))]
            damage.append(int(peak))
        else:
            # isolated deviation: a sensor artifact, never damage
            fault_only.append(int(cluster[int(np.argmax(dev[cluster]))]))
    return DamageDiagnosis(
        damage_locations=damage,
        fault_only_locations=fault_only,
        deviations=dev,
        threshold=threshold,
        unscored=~scored,
    )


@dataclass
class DependabilityReport:
    """Confusion counts for sensor-fault and damage verdicts, one row per round.

    A row is (round, fault tp/fp/fn/tn, fault accuracy, damage tp/fp/fn/tn,
    event ability), the columns of ``HEADER``.
    """

    HEADER = (
        "round",
        "fault_tp", "fault_fp", "fault_fn", "fault_tn", "fault_accuracy",
        "damage_tp", "damage_fp", "damage_fn", "damage_tn", "event_ability",
    )

    rows: list = field(default_factory=list)

    def add_round(self, round_index: int, n_locations: int, flagged, faulty, reported, damaged):
        """Add one round's row: ``flagged`` sensors scored against the ``faulty``
        ones, and ``reported`` damage locations against the ``damaged`` ones.

        A report within one location of a damage is a hit.
        """
        ftp = sum(1 for ch in flagged if ch in faulty)
        ffp = len(flagged) - ftp
        ffn = len(faulty) - ftp
        ftn = n_locations - ftp - ffp - ffn
        n_damaged = len(damaged)
        dtp = sum(1 for loc in damaged if any(abs(r - loc) <= 1 for r in reported))
        dfp = sum(1 for r in reported if all(abs(r - loc) > 1 for loc in damaged))
        dfn = n_damaged - dtp
        dtn = n_locations - dtp - dfn - dfp
        accuracy = (ftp + ftn) / n_locations
        ability = max(
            0.0,
            1.0
            - (dfp / max(1, n_locations - n_damaged))
            - (dfn / max(1, n_damaged) if n_damaged else 0.0),
        )
        self.rows.append((round_index, ftp, ffp, ffn, ftn, accuracy, dtp, dfp, dfn, dtn, ability))

    def _totals(self, first: int) -> list:
        return [sum(r[c] for r in self.rows) for c in range(first, first + 4)]

    def detection_accuracy(self) -> float:
        tp, fp, fn, tn = self._totals(1)
        all_counts = tp + fp + fn + tn
        return (tp + tn) / all_counts if all_counts else 1.0

    def event_detection_ability(self) -> float:
        """1 - (false positive rate + false negative rate), clamped to [0, 1]."""
        tp, fp, fn, tn = self._totals(6)
        fpr = fp / (fp + tn) if fp + tn else 0.0
        fnr = fn / (tp + fn) if tp + fn else 0.0
        return max(0.0, min(1.0, 1.0 - (fpr + fnr)))
