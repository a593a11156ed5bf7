"""Network topology, routing and the first-order radio energy model.

Lays 100 sensors along the 450 x 50 field, builds R_min neighborhoods and
R_max routes to the base station, and compares the per-round transmission
cost of shipping raw windows against shipping compact mode reports.
"""

import numpy as np

from shmsim.network import (
    BS,
    EnergyLedger,
    EnergyParams,
    TopologySpec,
    Transmission,
    build_neighborhoods,
    charge_round,
    line_positions,
    shortest_path_routes,
)

topology = TopologySpec(
    positions=line_positions(100, (450.0, 50.0)),
    r_min=10.0,
    r_max=100.0,
    bs_position=np.array([0.0, 25.0]),
)
graph = build_neighborhoods(topology)
degrees = [len(graph.neighbors[i]) for i in range(100)]
print(f"R_min neighborhoods: degree min {min(degrees)} / median {int(np.median(degrees))} / max {max(degrees)}")
print(f"nodes reaching the BS directly at R_max: {len(graph.bs_direct)}")

routes = shortest_path_routes(graph.routing, BS)
print(f"route from the far end to the BS: {routes[99]}")

params = EnergyParams()
window = 550
raw_bits = (window * params.bytes_per_sample + params.header_bytes) * 8
report_bits = (params.mode_report_bytes + params.header_bytes) * 8

ledger = EnergyLedger()
for node in range(100):
    # distributed: one neighborhood broadcast plus a compact report toward the BS
    traffic = [Transmission(raw_bits, topology.r_min)]
    for a, b in zip(routes[node][:-1], routes[node][1:]):
        traffic.append(Transmission(report_bits, topology.distance(a, b)))
    charge_round(ledger, node, traffic, 0, window, params, round_index=0,
                 received_bits=raw_bits * len(graph.neighbors[node]))
distributed = ledger.communication_total

ledger_raw = EnergyLedger()
for node in range(100):
    hops = routes[node]
    traffic = [
        Transmission(raw_bits, topology.distance(a, b)) for a, b in zip(hops[:-1], hops[1:])
    ]
    charge_round(ledger_raw, node, traffic, 0, window, params, round_index=0)
centralized = ledger_raw.communication_total

print(f"\nper-round communication energy, 100 nodes:")
print(f"  distributed (broadcast + mode reports): {distributed:8.3f} J")
print(f"  centralized raw transport:              {centralized:8.3f} J")
print(f"  ratio: {centralized / distributed:.1f}x")
