"""Topology, routing and energy ledger tests."""

import numpy as np
import pytest

from conftest import field_config
from shmsim.network import (
    BS,
    EnergyLedger,
    EnergyParams,
    IsolatedNodeWarning,
    NetworkError,
    TopologySpec,
    Transmission,
    build_neighborhoods,
    charge_round,
    line_positions,
    shortest_path_routes,
)
from shmsim.scenario import validate_config


def vertical_chain(n=10, spacing=0.3, r_min=0.35, r_max=5.0):
    positions = np.column_stack([np.zeros(n), spacing * np.arange(n)])
    return TopologySpec(
        positions=positions,
        r_min=r_min,
        r_max=r_max,
        bs_position=np.array([0.0, -0.1]),
        field_size=(10.0, 10.0),
    )


class TestNeighborhoods:
    def test_boundary_distance_inclusive(self):
        top = TopologySpec(
            positions=np.array([[0.0, 0.0], [1.0, 0.0]]),
            r_min=1.0,
            r_max=5.0,
            bs_position=np.array([0.0, 0.0]),
        )
        graph = build_neighborhoods(top)
        assert graph.neighbors[0] == [1]
        assert graph.neighbors[1] == [0]

    def test_beyond_boundary_excluded(self):
        top = TopologySpec(
            positions=np.array([[0.0, 0.0], [1.0 + 1e-9, 0.0]]),
            r_min=1.0,
            r_max=5.0,
            bs_position=np.array([0.0, 0.0]),
        )
        with pytest.warns(IsolatedNodeWarning):
            graph = build_neighborhoods(top)
        assert graph.neighbors[0] == []
        assert graph.isolated == [0, 1]

    def test_chain_geometry_gives_path_graph(self):
        graph = build_neighborhoods(vertical_chain())
        for i in range(1, 9):
            assert graph.neighbors[i] == [i - 1, i + 1]
        assert graph.neighbors[0] == [1]
        assert graph.neighbors[9] == [8]

    def test_disconnected_rmax_graph_rejected(self):
        positions = np.array([[0.0, 0.0], [100.0, 0.0]])
        top = TopologySpec(
            positions=positions,
            r_min=1.0,
            r_max=5.0,
            bs_position=np.array([0.0, 1.0]),
        )
        with pytest.raises(NetworkError, match="disconnected"):
            with pytest.warns(IsolatedNodeWarning):
                build_neighborhoods(top)

    def test_rmin_greater_than_rmax_rejected(self):
        with pytest.raises(NetworkError):
            TopologySpec(
                positions=np.zeros((2, 2)),
                r_min=5.0,
                r_max=1.0,
                bs_position=np.zeros(2),
            )


class TestRouting:
    def test_adjacent_single_hop(self):
        graph = build_neighborhoods(vertical_chain())
        assert shortest_path_routes(graph.routing, 4)[3] == [3, 4]

    def test_chain_end_to_end(self):
        top = vertical_chain(n=5, spacing=1.0, r_min=1.1, r_max=1.1)
        # BS within r_max of node 0 keeps the scenario valid
        top = TopologySpec(
            positions=top.positions, r_min=1.1, r_max=1.1,
            bs_position=np.array([0.0, -0.5]), field_size=(10.0, 10.0),
        )
        graph = build_neighborhoods(top)
        assert shortest_path_routes(graph.neighbors, 4)[0] == [0, 1, 2, 3, 4]

    def test_equal_hop_tie_breaks_lexicographically(self):
        # two equal-hop routes 0-1-3 and 0-2-3
        adjacency = {0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2]}
        assert shortest_path_routes(adjacency, 3)[0] == [0, 1, 3]
        assert shortest_path_routes(adjacency, 3)[0] == [0, 1, 3]  # stable

    def test_route_to_bs(self):
        graph = build_neighborhoods(vertical_chain())
        path = shortest_path_routes(graph.routing, BS)[9]
        assert path[0] == 9 and path[-1] == BS


def _route_by_own_search(adjacency, source, sink):
    """Minimum-hop path with the lowest-id tie-break, from a search of its own."""
    dist, frontier = {sink: 0}, [sink]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adjacency.get(node, ()):
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    path = [source]
    while path[-1] != sink:
        cur = path[-1]
        path.append(min(nb for nb in adjacency[cur] if dist.get(nb, -2) == dist[cur] - 1))
    return path


class TestRoutesFromOneSearch:
    def test_field100_routes_equal_per_source_searches(self):
        graph = validate_config(field_config(1, 0.2))[0].graph
        routes = shortest_path_routes(graph.routing, BS)
        assert sorted(routes) == [BS] + list(range(100))
        hops = set()
        for node in range(100):
            assert routes[node] == _route_by_own_search(graph.routing, node, BS)
            hops.add(len(routes[node]))
        assert len(hops) > 2  # multi-hop routes of several lengths

    def test_ties_and_unreachable_nodes(self):
        adjacency = {0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2], 4: [5], 5: [4]}
        routes = shortest_path_routes(adjacency, 3)
        assert routes == {3: [3], 1: [1, 3], 2: [2, 3], 0: [0, 1, 3]}


class TestEnergyLedger:
    def test_idle_round_costs_nothing(self):
        ledger = EnergyLedger()
        charge_round(ledger, 0, [], 0.0, 0, EnergyParams(), round_index=0)
        entry = ledger.entry(0, 0)
        assert entry.total == 0.0

    def test_payload_linearity(self):
        params = EnergyParams()
        ledger = EnergyLedger()
        charge_round(ledger, 0, [Transmission(1000, 30.0)], 0.0, 0, params, round_index=0)
        charge_round(ledger, 1, [Transmission(2000, 30.0)], 0.0, 0, params, round_index=0)
        assert ledger.entry(0, 1).e_t == pytest.approx(2.0 * ledger.entry(0, 0).e_t)

    def test_totals_are_component_sums(self):
        params = EnergyParams()
        ledger = EnergyLedger()
        rng = np.random.default_rng(3)
        for node in range(5):
            for rnd in range(4):
                charge_round(
                    ledger,
                    node,
                    [Transmission(rng.integers(100, 5000), rng.uniform(1, 80))],
                    float(rng.integers(0, 10_000)),
                    int(rng.integers(0, 600)),
                    params,
                    round_index=rnd,
                    received_bits=float(rng.integers(0, 20_000)),
                    reconstructions=int(rng.integers(0, 2)),
                )
        for _, _, e_t, e_comp, e_samp, e_oh, total in ledger.rows():
            assert total == e_t + e_comp + e_samp + e_oh
        comp = ledger.component_totals()
        assert ledger.total == pytest.approx(sum(comp.values()))

    def test_negative_inputs_rejected(self):
        with pytest.raises(NetworkError):
            charge_round(EnergyLedger(), 0, [], -1.0, 0, EnergyParams())

    def test_line_positions_span_field(self):
        pos = line_positions(100, (450.0, 50.0))
        assert pos.shape == (100, 2)
        assert pos[0, 0] == 0.0 and pos[-1, 0] == 450.0
        assert np.all(pos[:, 1] == 25.0)
