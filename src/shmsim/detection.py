"""Mutual-information-independence fault detection.

A reference correlation model holds, for every channel pair used in
monitoring, fixed histogram bin edges (from fault-free data ranges) and a
reference binned mutual information. At run time each node evaluates the
relative MI change against every neighbor,

    lambda = |omega_actual - omega_ref| / omega_actual,

aggregates per-pair indicators by median and declares itself faulty above
the decision threshold. MI is reported in nats.
Samples bin by ``bin_indices``, the rule the missing-sensor scan's KL shares.
A round's delivered windows (and training's windows of every round) are
digitised in one stacked pass, once each, and every pair's MI comes from
those codes through one stacked kernel: one ``bincount`` per chunk of pairs,
then the marginals, the terms of the occupied cells and one row sort. Each
pair's result equals the lone ``mutual_information_codes``, which is the
kernel's one-pair case, bit for bit. MI is symmetric by construction: every
cell's term comes from integer counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .sensing import is_flat

LAMBDA_MAX = 10.0  # sentinel indicator for degenerate (near-zero MI) pairs
_OMEGA_EPS = 1e-9
# elements of a stacked digitisation or MI chunk's largest temporary (128 KiB of
# float64); longer stacks run in chunks of rows that fit
MI_BUFFER = 1 << 14


class DetectionError(ValueError):
    """Raised on contract violations in the detection pipeline."""


class DegenerateSignalWarning(UserWarning):
    """Signal variance or MI too small for a meaningful statistic."""


class UnreliableEstimateWarning(UserWarning):
    """Fewer samples than bins^2 / 10; the MI estimate is kept but noisy."""


def _samples(x) -> np.ndarray:
    if hasattr(x, "samples"):
        return np.asarray(x.samples, dtype=float)
    return np.asarray(x, dtype=float)


def bin_indices(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin index per sample; out-of-range values clamp into the edge bins."""
    idx = np.searchsorted(edges, x, side="right") - 1
    return np.clip(idx, 0, edges.size - 2)


def _digitise(samples: list, edges: list) -> list:
    """``bin_indices`` of each window over its own edges, in stacked passes.

    A sample's bin is the number of interior edges it does not lie below; that
    clamps out-of-range samples into the edge bins as ``bin_indices`` does and,
    like its sorted search, puts NaN in the top bin. Windows of one length and
    bin count stack into chunks of at most ``MI_BUFFER`` samples, and the codes
    take the smallest unsigned integer type that holds the top bin.
    """
    codes = [None] * len(samples)
    groups = {}
    for i, (x, e) in enumerate(zip(samples, edges)):
        groups.setdefault((x.size, e.size), []).append(i)
    for (size, n_edges), members in groups.items():
        step = max(1, MI_BUFFER // max(size, 1))
        for lo in range(0, len(members), step):
            rows = members[lo : lo + step]
            x = np.stack([samples[i] for i in rows])
            e = np.stack([edges[i] for i in rows])
            top = n_edges - 2
            c = np.full(x.shape, top, dtype=np.min_scalar_type(top))
            below = np.empty(x.shape, dtype=bool)
            for j in range(1, n_edges - 1):
                c -= np.less(x, e[:, j, None], out=below)
            for i, row in zip(rows, c):
                codes[i] = row
    return codes


def _mi_kernel(codes_u: np.ndarray, codes_v: np.ndarray, bins) -> list:
    """Binned MI (nats) of each row pair of two (k, n) code stacks with bins (nu, nv).

    One ``bincount`` over row-offset joint codes gives every row's joint
    counts; each row's occupied terms sort to the front of its row and sum
    with ``np.sum`` over exactly that prefix, the sum a lone pair takes.
    """
    nu, nv = bins
    k, n = codes_u.shape
    if n < nu * nv / 10:
        warnings.warn(
            f"{n} samples for {nu * nv} histogram cells; MI estimate is unreliable",
            UnreliableEstimateWarning,
        )
    cells = nu * nv
    joint_codes = np.asarray(codes_u, dtype=np.intp) * nv
    joint_codes += codes_v
    joint_codes += np.arange(0, k * cells, cells)[:, None]
    counts = np.bincount(joint_codes.ravel(), minlength=k * cells).reshape(k, nu, nv)
    nz = counts > 0
    joint = counts[nz] / n
    outer = (counts.sum(axis=2) / n)[:, :, None] * (counts.sum(axis=1) / n)[:, None, :]
    terms = np.full((k, cells), np.inf)
    terms[nz.reshape(k, cells)] = joint * np.log(joint / outer[nz])
    terms.sort(axis=1)
    return [max(float(np.sum(row[:m])), 0.0) for row, m in zip(terms, nz.sum(axis=(1, 2)))]


def _pair_mi(codes: list, pairs: list, bins: list) -> list:
    """MI of each (u, v) pair of indices into ``codes``, whose bins are the matching ``bins``.

    Pairs of one window length and bin pair run through ``_mi_kernel`` in
    chunks whose joint codes and cell table fit in ``MI_BUFFER`` elements.
    """
    out = [None] * len(pairs)
    groups = {}
    for p, ((u, v), b) in enumerate(zip(pairs, bins)):
        if codes[u].size != codes[v].size:
            raise DetectionError(f"window length mismatch: {codes[u].size} vs {codes[v].size}")
        groups.setdefault((codes[u].size, *b), []).append(p)
    for (n, nu, nv), members in groups.items():
        step = max(1, MI_BUFFER // max(n, nu * nv))
        for lo in range(0, len(members), step):
            chunk = members[lo : lo + step]
            cu, cv = (np.stack([codes[pairs[p][side]] for p in chunk]) for side in (0, 1))
            for p, mi in zip(chunk, _mi_kernel(cu, cv, (nu, nv))):
                out[p] = mi
    return out


def mutual_information_codes(codes_u, codes_v, bins) -> float:
    """Binned MI (nats) of two windows already digitised by ``bin_indices``.

    ``bins`` is the pair (bins_u, bins_v) of bin counts. Empty cells are
    skipped. The joint and both marginals are integer counts divided by the
    window length, so every cell's term is the same float under
    (u, v) <-> (v, u), and the sorted sum makes the result symmetric bit for bit.
    This is the one-pair case of the stacked kernel that rounds and training use.
    """
    if codes_u.size != codes_v.size:
        raise DetectionError(f"window length mismatch: {codes_u.size} vs {codes_v.size}")
    return _mi_kernel(np.reshape(codes_u, (1, -1)), np.reshape(codes_v, (1, -1)), bins)[0]


def mutual_information_binned(u, v, edges) -> float:
    """Binned MI (nats) of two windows over fixed per-channel bin edges.

    ``edges`` is a pair (edges_u, edges_v). Samples outside the reference
    range clamp into the edge bins; see ``mutual_information_codes``.
    """
    a, b = _samples(u), _samples(v)
    if a.size != b.size:
        raise DetectionError(f"window length mismatch: {a.size} vs {b.size}")
    edges_u, edges_v = (np.asarray(e, dtype=float) for e in edges)
    return mutual_information_codes(
        bin_indices(a, edges_u), bin_indices(b, edges_v), (edges_u.size - 1, edges_v.size - 1)
    )


def default_edges(reference: np.ndarray, bins: int) -> np.ndarray:
    """Bin edges spanning the reference data range."""
    lo, hi = float(np.min(reference)), float(np.max(reference))
    if not hi > lo:
        hi = lo + 1.0  # degenerate channel; edges still well-formed
    return np.linspace(lo, hi, bins + 1)


def fault_indicator(omega_actual: float, omega_ref: float) -> float:
    """Relative MI change |omega_actual - omega_ref| / omega_actual.

    Near-zero actual MI returns the sentinel LAMBDA_MAX (maximal deviation).
    """
    if omega_actual < 0 or omega_ref < 0:
        raise DetectionError("MI values must be non-negative")
    if omega_actual < _OMEGA_EPS:
        warnings.warn("near-zero MI; indicator saturated", DegenerateSignalWarning)
        return LAMBDA_MAX
    return abs(omega_actual - omega_ref) / omega_actual


@dataclass
class DetectionConfig:
    bins: int = 16
    R: int = 5  # consecutive windows used for training / deviation scoring
    threshold: float = 0.5

    def __post_init__(self):
        if self.bins < 4:
            raise DetectionError("bins must be >= 4")
        if not (0.0 < self.threshold):
            raise DetectionError("threshold must be positive")
        if self.R < 1:
            raise DetectionError("R must be >= 1")


@dataclass
class CorrelationModel:
    """Reference statistics trained on fault-free rounds.

    ``edges[channel]`` holds that channel's histogram edges; ``omega_ref``
    maps the unordered pair (i, j), stored with i < j, to its reference MI.
    A pair missing from ``omega_ref`` is untrained.
    """

    edges: dict
    omega_ref: dict
    degenerate_channels: set = field(default_factory=set)

    @staticmethod
    def pair_key(i: int, j: int) -> tuple:
        return (i, j) if i < j else (j, i)

    def reference(self, i: int, j: int) -> float:
        return self.omega_ref[self.pair_key(i, j)]


def train_correlation_model(fault_free_windows: dict, config: DetectionConfig, pairs=None) -> CorrelationModel:
    """Fit bin edges and reference MI from fault-free windows.

    ``fault_free_windows`` maps channel id to a round-aligned list of
    SignalWindow objects, None for a round the channel did not deliver.
    ``pairs`` restricts training to the channel pairs actually monitored; by
    default every unordered pair is trained. Each channel's edges span its
    delivered windows, and each pair is trained on the rounds both of its
    channels delivered; a pair with fewer than R such rounds stays untrained.
    Channels with zero variance are flagged degenerate and their pairs get a
    zero reference.
    """
    channels = sorted(fault_free_windows)
    if len(channels) < 2:
        raise DetectionError("need at least two channels to train")
    if pairs is None:
        pairs = [(i, j) for a, i in enumerate(channels) for j in channels[a + 1 :]]
    pairs = sorted({CorrelationModel.pair_key(i, j) for (i, j) in pairs})
    for (i, j) in pairs:
        have = min(len(fault_free_windows[i]), len(fault_free_windows[j]))
        if have < config.R:
            raise DetectionError(
                f"pair ({i}, {j}) has {have} training windows; need at least R={config.R}"
            )
    edges = {}
    degenerate = set()
    for ch in channels:
        delivered = [_samples(w) for w in fault_free_windows[ch] if w is not None]
        if not delivered:
            continue
        cat = np.concatenate(delivered)
        if is_flat(cat):
            degenerate.add(ch)
            warnings.warn(f"channel {ch} is constant in training data", DegenerateSignalWarning)
        edges[ch] = default_edges(cat, config.bins)
    # every delivered training window is digitised once, whatever its pairs
    row = {}  # (channel, round) -> index of its codes
    samples, row_edges = [], []
    for ch, windows in fault_free_windows.items():
        if ch in edges:
            for d, w in enumerate(windows):
                if w is not None:
                    row[ch, d] = len(samples)
                    samples.append(_samples(w))
                    row_edges.append(edges[ch])
    codes = _digitise(samples, row_edges)
    trained = {}  # pair -> its (pair-row) span, or None for a zero reference
    mi_pairs, mi_bins = [], []
    for (i, j) in pairs:
        rounds = range(min(len(fault_free_windows[i]), len(fault_free_windows[j])))
        both = [(row[i, d], row[j, d]) for d in rounds if (i, d) in row and (j, d) in row]
        if len(both) < config.R:
            continue
        if i in degenerate or j in degenerate:
            trained[(i, j)] = None
            continue
        trained[(i, j)] = slice(len(mi_pairs), len(mi_pairs) + len(both))
        mi_pairs += both
        mi_bins += [(edges[i].size - 1, edges[j].size - 1)] * len(both)
    # every (pair, round) row goes through the stacked kernel in one pass
    values = _pair_mi(codes, mi_pairs, mi_bins)
    omega_ref = {
        key: 0.0 if span is None else float(np.mean(values[span]))
        for key, span in trained.items()
    }
    return CorrelationModel(edges=edges, omega_ref=omega_ref, degenerate_channels=degenerate)


VERDICTS = ("non_faulty", "faulty", "missing")


def _median(values) -> float:
    """Median of a few floats; equals ``float(np.median(values))``."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


@dataclass
class NodeDecision:
    """Per-node outcome of one detection round."""

    node_id: int
    round_index: int
    lambdas: dict  # neighbor id -> per-pair indicator
    lambda_agg: float
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise DetectionError(f"verdict must be one of {VERDICTS}")
        if self.lambda_agg < 0:
            raise DetectionError("aggregated lambda must be >= 0")


def detection_round(
    windows: dict,
    neighbor_map: dict,
    model: CorrelationModel,
    config: DetectionConfig,
    round_index: int = 0,
) -> dict:
    """Run one distributed detection round with decision exchange.

    ``windows`` maps channel id -> SignalWindow (or None when that channel
    delivered nothing). A pair the model left untrained is skipped like an
    undelivered one. Every delivered, trained neighbor pair's indicator is
    computed once, up front through the stacked MI kernel, and every decision
    reads it from that per-round table. Every node first decides from all its
    neighbor pairs, then the verdicts are exchanged and nodes re-aggregate with
    faulty-flagged neighbors' pairs dropped (unless none would remain).
    Exoneration proceeds in ascending-indicator order and repeats until no
    verdict changes: a healthy node freed of a contaminated pair in one sweep
    frees its own neighbors' pair sets in the next. Nodes are only ever
    cleared by the exchange, never re-flagged. A node that delivered no window
    is faulty outright (its neighbors cannot see it; the missing-sensor scan
    refines that verdict later). Returns node id -> NodeDecision.
    """
    # the pair table: every delivered, trained neighbor pair, evaluated once up front
    keys = sorted(
        {
            model.pair_key(i, j)
            for i in neighbor_map
            if windows.get(i) is not None
            for j in neighbor_map[i]
            if j != i and windows.get(j) is not None and model.pair_key(i, j) in model.omega_ref
        }
    )
    channels = sorted({ch for key in keys for ch in key})
    row = {ch: r for r, ch in enumerate(channels)}
    codes = _digitise(
        [_samples(windows[ch]) for ch in channels], [model.edges[ch] for ch in channels]
    )
    omegas = _pair_mi(
        codes,
        [(row[i], row[j]) for i, j in keys],
        [(model.edges[i].size - 1, model.edges[j].size - 1) for i, j in keys],
    )
    table = {key: fault_indicator(omega, model.omega_ref[key]) for key, omega in zip(keys, omegas)}

    def decide(node, flagged=frozenset()):
        neighbors = sorted(set(neighbor_map[node]) - {node})
        if not neighbors:
            raise DetectionError(f"node {node} has no neighbors (topology violation)")
        if windows.get(node) is None:
            return NodeDecision(node, round_index, {}, LAMBDA_MAX, "faulty")
        trained = [j for j in neighbors if model.pair_key(node, j) in model.omega_ref]
        lambdas = {j: table[model.pair_key(node, j)] for j in trained if windows.get(j) is not None}
        if not lambdas:
            # no neighbor pair is both delivered and trained this round: the node
            # cannot be assessed, so it keeps the initial non-faulty decision
            return NodeDecision(node, round_index, {}, 0.0, "non_faulty")
        usable = [lam for j, lam in lambdas.items() if j not in flagged] or list(lambdas.values())
        lambda_agg = _median(usable)
        verdict = "faulty" if lambda_agg > config.threshold else "non_faulty"
        return NodeDecision(node, round_index, lambdas, lambda_agg, verdict)

    decisions = {node: decide(node) for node in sorted(neighbor_map)}
    flagged = {n for n, d in decisions.items() if d.verdict == "faulty"}
    order = sorted(neighbor_map, key=lambda n: (decisions[n].lambda_agg, n))
    changed = True
    while changed:
        changed = False
        for node in order:
            if node in flagged and windows.get(node) is not None:
                if decide(node, flagged).verdict == "non_faulty":
                    flagged.discard(node)
                    changed = True
    # re-aggregate the cleared nodes against the settled flag set
    for node in sorted(neighbor_map):
        if node not in flagged and windows.get(node) is not None:
            decisions[node] = decide(node, flagged)
    return decisions
