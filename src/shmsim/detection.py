"""Mutual-information-independence fault detection.

A reference correlation model holds, for every channel pair used in
monitoring, fixed histogram bin edges (from fault-free data ranges) and a
reference binned mutual information. At run time each node evaluates the
relative MI change against every neighbor,

    lambda = |omega_actual - omega_ref| / omega_actual,

aggregates per-pair indicators by median and declares itself faulty above
the decision threshold. MI is reported in nats.
Samples bin by ``bin_indices``, the rule the missing-sensor scan's KL shares;
each delivered window is digitised once per round (and once per training
round), and every pair's joint counts come from those codes. MI is symmetric
by construction: every cell's term comes from integer counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .sensing import is_flat

LAMBDA_MAX = 10.0  # sentinel indicator for degenerate (near-zero MI) pairs
_OMEGA_EPS = 1e-9


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


def mutual_information_codes(codes_u, codes_v, bins) -> float:
    """Binned MI (nats) of two windows already digitised by ``bin_indices``.

    ``bins`` is the pair (bins_u, bins_v) of bin counts. Empty cells are
    skipped. The joint and both marginals are integer counts divided by the
    window length, so every cell's term is the same float under
    (u, v) <-> (v, u), and the sorted sum makes the result symmetric bit for bit.
    """
    if codes_u.size != codes_v.size:
        raise DetectionError(f"window length mismatch: {codes_u.size} vs {codes_v.size}")
    nu, nv = bins
    n = codes_u.size
    if n < nu * nv / 10:
        warnings.warn(
            f"{n} samples for {nu * nv} histogram cells; MI estimate is unreliable",
            UnreliableEstimateWarning,
        )
    counts = np.bincount(codes_u * nv + codes_v, minlength=nu * nv).reshape(nu, nv)
    nz = counts > 0
    joint = counts[nz] / n
    outer = np.outer(counts.sum(axis=1) / n, counts.sum(axis=0) / n)
    terms = joint * np.log(joint / outer[nz])
    return max(float(np.sum(np.sort(terms))), 0.0)


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
    # each delivered training window is digitised once, whatever its pairs
    codes = {
        ch: [None if w is None else bin_indices(_samples(w), edges[ch]) for w in windows]
        for ch, windows in fault_free_windows.items()
        if ch in edges
    }
    omega_ref = {}
    for (i, j) in pairs:
        rounds = zip(codes.get(i, ()), codes.get(j, ()))
        both = [(u, v) for u, v in rounds if u is not None and v is not None]
        if len(both) < config.R:
            continue
        if i in degenerate or j in degenerate:
            omega_ref[(i, j)] = 0.0
            continue
        bins = (edges[i].size - 1, edges[j].size - 1)
        vals = [mutual_information_codes(u, v, bins) for u, v in both]
        omega_ref[(i, j)] = float(np.mean(vals))
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
    undelivered one. Each delivered neighbor pair's indicator is computed
    once, the first time either node asks for it, and every decision reads it
    from that per-round table. Every node first decides from all its neighbor
    pairs, then the verdicts are exchanged and nodes re-aggregate with
    faulty-flagged neighbors' pairs dropped (unless none would remain).
    Exoneration proceeds in ascending-indicator order and repeats until no
    verdict changes: a healthy node freed of a contaminated pair in one sweep
    frees its own neighbors' pair sets in the next. Nodes are only ever
    cleared by the exchange, never re-flagged. A node that delivered no window
    is faulty outright (its neighbors cannot see it; the missing-sensor scan
    refines that verdict later). Returns node id -> NodeDecision.
    """
    # each delivered window is digitised once over its channel's trained edges
    codes = {
        ch: bin_indices(_samples(w), model.edges[ch])
        for ch, w in windows.items()
        if w is not None and ch in model.edges
    }
    table = {}  # pair key -> indicator

    def indicator(i, j):
        key = CorrelationModel.pair_key(i, j)
        if key not in table:
            bins = (model.edges[i].size - 1, model.edges[j].size - 1)
            omega = mutual_information_codes(codes[i], codes[j], bins)
            table[key] = fault_indicator(omega, model.reference(i, j))
        return table[key]

    def decide(node, flagged=frozenset()):
        neighbors = sorted(set(neighbor_map[node]) - {node})
        if not neighbors:
            raise DetectionError(f"node {node} has no neighbors (topology violation)")
        if windows.get(node) is None:
            return NodeDecision(node, round_index, {}, LAMBDA_MAX, "faulty")
        trained = [j for j in neighbors if model.pair_key(node, j) in model.omega_ref]
        lambdas = {j: indicator(node, j) for j in trained if windows.get(j) is not None}
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
