"""Network topology, shortest-path routing and per-round energy accounting.

Nodes talk to neighbors within R_min (detection traffic) and reach the base
station directly or over multi-hop paths within R_max. Transmission energy
follows the first-order radio model (per-bit electronics plus distance-squared
amplifier); computation energy is cycles times a per-operation constant
derived from processor frequency, switching capacitance and hardware
constants; sampling is charged per data point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

BS = -1  # node id of the base station in routing graphs


class NetworkError(ValueError):
    """Raised on invalid topologies or unreachable routes."""


class IsolatedNodeWarning(UserWarning):
    """A node has no neighbor within R_min; detection is impossible there."""


@dataclass(frozen=True)
class TopologySpec:
    """Planar sensor field with two communication radii and a base station."""

    positions: np.ndarray  # (m, 2) meters
    r_min: float
    r_max: float
    bs_position: np.ndarray  # (2,)
    field_size: tuple = (450.0, 50.0)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise NetworkError("positions must be an (m, 2) array")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        bs = np.asarray(self.bs_position, dtype=float).reshape(2)
        bs.setflags(write=False)
        object.__setattr__(self, "bs_position", bs)
        if not (0 < self.r_min <= self.r_max):
            raise NetworkError("need 0 < r_min <= r_max")

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    def distance(self, i: int, j: int) -> float:
        a = self.positions[i] if i != BS else self.bs_position
        b = self.positions[j] if j != BS else self.bs_position
        return float(np.hypot(*(a - b)))


@dataclass
class CommunicationGraph:
    """R_min neighborhoods plus the R_max routing graph (with the BS)."""

    neighbors: dict  # node -> sorted list of R_min neighbors
    routing: dict  # node (incl. BS) -> sorted list of R_max neighbors
    bs_direct: set  # nodes within R_max of the BS
    isolated: list  # nodes with no R_min neighbor


def build_neighborhoods(topology: TopologySpec) -> CommunicationGraph:
    """Build the communication graph; boundary distances are inclusive.

    Rejects the scenario if the R_max graph (including the BS) is
    disconnected; merely warns about nodes isolated at R_min.
    """
    m = topology.n_nodes
    pos = topology.positions
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    neighbors = {}
    routing = {i: [] for i in range(m)}
    routing[BS] = []
    for i in range(m):
        neighbors[i] = sorted(j for j in range(m) if j != i and dist[i, j] <= topology.r_min)
        routing[i] = sorted(j for j in range(m) if j != i and dist[i, j] <= topology.r_max)
    bs_dist = np.sqrt(((pos - topology.bs_position[None, :]) ** 2).sum(axis=1))
    bs_direct = {i for i in range(m) if bs_dist[i] <= topology.r_max}
    for i in sorted(bs_direct):
        routing[i].append(BS)
        routing[BS].append(i)
    routing[BS].sort()
    isolated = [i for i in range(m) if not neighbors[i]]
    for i in isolated:
        warnings.warn(
            f"node {i} has no neighbor within R_min={topology.r_min}; "
            "fault detection is impossible there",
            IsolatedNodeWarning,
        )
    # connectivity of the R_max graph with the BS
    seen = {BS}
    frontier = [BS]
    while frontier:
        cur = frontier.pop()
        for nxt in routing[cur]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    missing = [i for i in range(m) if i not in seen]
    if missing:
        raise NetworkError(
            f"R_max communication graph (with BS) is disconnected; unreachable nodes: {missing}"
        )
    return CommunicationGraph(
        neighbors=neighbors, routing=routing, bs_direct=bs_direct, isolated=isolated
    )


def shortest_path_routes(adjacency: dict, sink: int) -> dict:
    """Minimum-hop path to ``sink`` from every node that has one, from one search.

    Hop distances come from one breadth-first search from the sink; each
    node's path then steps to its lowest-id neighbor one hop closer, which
    picks the lexicographically smallest minimum-hop route. Returns node ->
    path, source first and sink last.
    """
    dist = {sink: 0}
    order = [sink]  # breadth-first: nodes by non-decreasing distance
    for node in order:
        for nb in adjacency.get(node, ()):
            if nb not in dist:
                dist[nb] = dist[node] + 1
                order.append(nb)
    routes = {sink: [sink]}
    for node in order[1:]:
        closer = [nb for nb in adjacency.get(node, ()) if dist.get(nb, math.inf) == dist[node] - 1]
        if closer and min(closer) in routes:
            routes[node] = [node] + routes[min(closer)]
    return routes


@dataclass
class EnergyParams:
    """Radio, CPU, sampling and payload constants (documented defaults).

    Radio: first-order model, e = bits * (e_elec + eps_amp * d^2) to send and
    bits * e_elec to receive. CPU: energy per basic operation is
    mu * (f / k + beta) and a task of w operations costs w times that.
    Payloads: raw windows carry bytes_per_sample per data point; the final
    per-node mode-shape report packs (frequency, amplitude, sign) triples.
    """

    e_elec: float = 50e-9  # J/bit
    eps_amp: float = 100e-12  # J/bit/m^2
    cpu_mu: float = 1e-17  # switching-capacitance constant (J*s)
    cpu_f: float = 104e6  # processor frequency (Hz)
    cpu_k: float = 1.0  # hardware constant (dimensionless)
    cpu_beta: float = 1e6  # hardware constant (Hz)
    e_sample: float = 2e-7  # J per sampled data point
    bytes_per_sample: int = 4
    mode_report_bytes: int = 36  # 3 modes x (freq + amplitude + sign) + header
    frequency_set_bytes: int = 1024  # frequency-matching baseline payload
    header_bytes: int = 16
    oh_fraction: float = 0.05  # overhead fraction of (e_T + e_comp + e_samp)
    recon_overhead_j: float = 5e-4  # buffer copying etc. per reconstruction
    packet_loss: float = 0.0  # Bernoulli loss of raw windows in transit to the BS

    def __post_init__(self):
        for name in (
            "e_elec", "eps_amp", "cpu_mu", "cpu_f", "cpu_k", "cpu_beta",
            "e_sample", "oh_fraction", "recon_overhead_j",
        ):
            if getattr(self, name) < 0:
                raise NetworkError(f"{name} must be >= 0")
        if not (0.0 <= self.packet_loss < 1.0):
            raise NetworkError("packet_loss must lie in [0, 1)")

    @property
    def energy_per_op(self) -> float:
        return self.cpu_mu * (self.cpu_f / self.cpu_k + self.cpu_beta)

    def tx_energy(self, bits: float, distance: float) -> float:
        return bits * (self.e_elec + self.eps_amp * distance**2)

    def rx_energy(self, bits: float) -> float:
        return bits * self.e_elec


@dataclass
class Transmission:
    bits: float
    distance: float


@dataclass
class LedgerEntry:
    e_t: float = 0.0
    e_comp: float = 0.0
    e_samp: float = 0.0
    e_oh: float = 0.0

    @property
    def total(self) -> float:
        return self.e_t + self.e_comp + self.e_samp + self.e_oh


@dataclass
class EnergyLedger:
    """Per (round, node) energy components; totals are exact component sums."""

    entries: dict = field(default_factory=dict)  # (round, node) -> LedgerEntry

    def entry(self, round_index: int, node: int) -> LedgerEntry:
        return self.entries.setdefault((round_index, node), LedgerEntry())

    def round_total(self, round_index: int) -> float:
        return sum(e.total for (r, _), e in self.entries.items() if r == round_index)

    def component_totals(self) -> dict:
        out = {"e_t": 0.0, "e_comp": 0.0, "e_samp": 0.0, "e_oh": 0.0}
        for e in self.entries.values():
            out["e_t"] += e.e_t
            out["e_comp"] += e.e_comp
            out["e_samp"] += e.e_samp
            out["e_oh"] += e.e_oh
        return out

    @property
    def total(self) -> float:
        return sum(e.total for e in self.entries.values())

    @property
    def communication_total(self) -> float:
        return sum(e.e_t for e in self.entries.values())

    def rows(self):
        for (r, node), e in sorted(self.entries.items()):
            yield r, node, e.e_t, e.e_comp, e.e_samp, e.e_oh, e.total


def charge_round(
    ledger: EnergyLedger,
    node: int,
    traffic,
    computations: float,
    samples: int,
    params: EnergyParams,
    round_index: int = 0,
    received_bits: float = 0.0,
    reconstructions: int = 0,
) -> EnergyLedger:
    """Charge one node's activity for one round onto the ledger.

    ``traffic`` is an iterable of Transmission (bits over a hop distance),
    ``computations`` the basic-operation count of the round's local tasks,
    ``samples`` the number of data points acquired. Overhead is the
    configured fraction of the other three components plus a per-
    reconstruction surcharge.
    """
    if computations < 0 or samples < 0 or received_bits < 0 or reconstructions < 0:
        raise NetworkError("charge_round inputs must be non-negative")
    entry = ledger.entry(round_index, node)
    e_t = sum(params.tx_energy(t.bits, t.distance) for t in traffic)
    e_t += params.rx_energy(received_bits)
    e_comp = computations * params.energy_per_op
    e_samp = samples * params.e_sample
    e_oh = params.oh_fraction * (e_t + e_comp + e_samp) + reconstructions * params.recon_overhead_j
    entry.e_t += e_t
    entry.e_comp += e_comp
    entry.e_samp += e_samp
    entry.e_oh += e_oh
    return ledger


def line_positions(n_nodes: int, field_size=(450.0, 50.0)) -> np.ndarray:
    """Evenly spaced sensor line along the long field axis, mid-width."""
    xs = np.linspace(0.0, field_size[0], n_nodes)
    ys = np.full(n_nodes, field_size[1] / 2.0)
    return np.column_stack([xs, ys])
