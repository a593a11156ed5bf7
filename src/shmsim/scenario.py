"""Scenario-driven end-to-end runs, scheme comparison and plot-data export.

A scenario config (JSON-compatible dict) fully determines a run: structure,
excitation, sensors, fault/damage schedules, detection and reconstruction
settings, topology, energy constants and the monitoring plan. Every round is
one duty-cycled episode: the structure is excited afresh, sensors sample M
points, windows are exchanged, faults detected, faulty signals reconstructed,
local modes extracted and assembled at the BS, damage diagnosed and energy
charged. All randomness derives from the single scenario seed, so a re-run
produces byte-identical CSV outputs.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import detection as det
from . import kalman as kal
from . import modal as mod
from . import network as net
from . import sensing as sen
from . import structure as struct

FORMAT_VERSION = "shmsim/v1"


@dataclass(frozen=True)
class _Policy:
    """The four decisions that set one monitoring scheme apart from the others."""

    distributed: bool  # raw windows go to the neighbours, else over the route to the BS
    recovery: bool  # flagged channels are scanned and reconstructed
    reports: bool  # nodes extract local modes and report them to the BS
    frequency_matching: bool  # NFMC detector; flagged channels are isolated


_POLICIES = {
    # mode: distributed, recovery, reports, frequency_matching
    "dependshm": _Policy(True, True, True, False),
    "cshm_centralized": _Policy(False, True, True, False),
    "raw_centralized": _Policy(False, False, False, False),
    "no_recovery": _Policy(True, False, True, False),
    "frequency_matching_baseline": _Policy(True, False, True, True),
}
MODES = tuple(_POLICIES)

# seed-stream tags (SeedSequence spawn keys)
_AMBIENT, _NOISE, _FAULT, _LOSS = 1, 2, 3, 4


class ConfigError(ValueError):
    """Raised when a scenario config fails validation; carries every finding."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


DEFAULTS = {
    "mode": "dependshm",
    "structure": {"n_dof": 10, "mass": 1000.0, "stiffness": 1.769e6, "dt": 0.02},
    "excitation": {
        "kind": "sine",
        "amplitude": 1.0,
        "frequency_factor": 0.9,  # x first natural frequency
        "ambient_fraction": 0.02,
    },
    "sensors": {"noise_fraction": 0.10},
    "faults": [],
    "damage": None,
    "detection": {"bins": 16, "R": 5, "threshold": 0.5},
    "reconstruction": {
        "variance_inflation": 1e9,
        "model_scope": "neighborhood",
        "scope_margin": 1,
        "scan_report_ratio": 0.25,
    },
    "topology": {
        "field": [450.0, 50.0],
        "r_min_factor": 2.2,  # x inter-sensor spacing
        "r_max": None,  # default: max(field_x / 4.5, r_min)
        "bs": None,  # default: [0, field_y / 2]
    },
    "energy": {},  # EnergyParams field overrides
    "monitoring": {"training_rounds": 12, "rounds": 6, "n_averages": 15, "segment_length": 256},
    "modal": {"peak_snr": 8.0, "max_modes": 3, "damage_threshold_sigmas": 3.0},
}

# fault parameter defaults, in units of the target channel's fault-free RMS
FAULT_MAGNITUDE_DEFAULTS = {
    "stuck_constant": {"stuck_value": 3.0},
    "offset_bias": {"offset": 5.0},
    "debonding_gain": {"gain": 0.3, "parasite_std": 1.0},
    "noise_burst": {"burst_std": 0.3},
}


def _merge(defaults, override):
    # deep-copies throughout: resolved configs are mutated later and must
    # never alias the module-level DEFAULTS or the caller's dict
    out = copy.deepcopy(dict(defaults))
    for key, val in (override or {}).items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


@dataclass
class ScenarioConfig:
    """Fully resolved scenario description (all defaults materialized)."""

    raw: dict
    mode: str
    seed: int
    spec: struct.StructureSpec
    damaged_spec: struct.StructureSpec | None
    excitation: dict
    sensors: dict
    faults: list  # resolved dicts incl. absolute magnitudes
    damage: dict | None
    detection: det.DetectionConfig
    reconstruction: kal.ReconstructionConfig
    topology: net.TopologySpec
    energy: net.EnergyParams
    window: int
    training_rounds: int
    test_rounds: int
    segment_length: int
    modal: mod.ModalConfig
    base_frequency: float  # undamaged f1

    @property
    def n_nodes(self) -> int:
        return self.spec.n_dof

    @property
    def total_rounds(self) -> int:
        return self.training_rounds + self.test_rounds


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_config(raw: dict):
    """Resolve defaults and collect every validation error before failing.

    Returns (ScenarioConfig, resolved_dict). Raises ConfigError listing all
    problems when the config is invalid.
    """
    errors = []
    cfg = _merge(DEFAULTS, raw)
    for key, default in DEFAULTS.items():
        if isinstance(default, dict) and not isinstance(cfg[key], dict):
            errors.append(f"{key}: a mapping is required")
            cfg[key] = copy.deepcopy(default)

    if not _is_int(cfg.get("seed")):
        errors.append("seed: a mandatory integer seed is required")
        cfg["seed"] = 0
    if cfg["mode"] not in MODES:
        errors.append(f"mode: {cfg['mode']!r} is not one of {MODES}")
        cfg["mode"] = "dependshm"

    mon = cfg["monitoring"]
    for key in ("training_rounds", "rounds", "n_averages", "segment_length"):
        if not _is_int(mon.get(key)) or mon[key] <= 0:
            errors.append(f"monitoring.{key}: positive integer required")
            mon[key] = DEFAULTS["monitoring"][key]
    training_rounds = mon["training_rounds"]
    test_rounds = mon["rounds"]
    try:
        window = sen.sampling_points(mon["n_averages"], mon["segment_length"])
    except Exception as exc:
        errors.append(f"monitoring: {exc}")
        window = 512

    st = cfg["structure"]
    spec = None
    try:
        if "masses" in st or "stiffnesses" in st:
            masses = st["masses"]
            stiffnesses = st["stiffnesses"]
        else:
            masses = [float(st["mass"])] * int(st["n_dof"])
            stiffnesses = [float(st["stiffness"])] * int(st["n_dof"])
        spec = struct.StructureSpec(
            masses=masses,
            stiffnesses=stiffnesses,
            dt=float(st["dt"]),
            duration=(window + 1) * float(st["dt"]),
        )
    except Exception as exc:
        errors.append(f"structure: {exc}")
    if spec is not None and spec.n_dof < 2:
        errors.append("structure: at least 2 DOF are required (one sensor channel per DOF)")

    basis = struct.eigen_modes(spec) if spec is not None else None
    f1 = float(basis.frequencies[0]) if basis is not None else 1.0
    f_max = float(basis.frequencies[-1]) if basis is not None else 10.0

    exc_cfg = dict(cfg["excitation"])
    if exc_cfg.get("kind") not in struct.ExcitationSpec.KINDS:
        errors.append(f"excitation.kind: {exc_cfg.get('kind')!r} not in {struct.ExcitationSpec.KINDS}")
        exc_cfg["kind"] = "sine"
    if exc_cfg.get("frequency") is None:
        exc_cfg["frequency"] = exc_cfg.get("frequency_factor", 0.9) * f1
    if not (0.0 <= exc_cfg.get("ambient_fraction", 0.0)):
        errors.append("excitation.ambient_fraction: must be >= 0")
    forcing_frequency = float(exc_cfg["frequency"])
    if exc_cfg["kind"] == "sine" and basis is not None:
        if any(abs(forcing_frequency - f) < 1e-3 * f for f in basis.frequencies):
            errors.append(
                "excitation.frequency: coincides with an undamped natural frequency "
                "(unbounded resonance)"
            )

    damage = cfg["damage"]
    damaged_spec = None
    if damage is not None:
        try:
            if not (0 <= int(damage["location"]) < (spec.n_dof if spec else 1)):
                errors.append("damage.location: out of range")
            if not (0 < float(damage["severity"]) < 1):
                errors.append("damage.severity: must lie in (0, 1)")
            if not (training_rounds <= int(damage["onset_round"]) < training_rounds + test_rounds):
                errors.append("damage.onset_round: must fall inside the test rounds")
            if spec is not None:
                damaged_spec = struct.apply_damage(
                    spec,
                    struct.DamageSpec(
                        location=int(damage["location"]),
                        severity=float(damage["severity"]),
                        onset=0.0,
                    ),
                )
        except ConfigError:
            raise
        except Exception as exc:
            errors.append(f"damage: {exc}")

    faults = []
    if not isinstance(cfg["faults"], (list, tuple)):
        errors.append("faults: a list of fault entries is required")
        cfg["faults"] = []
    for i, f in enumerate(cfg["faults"]):
        if not isinstance(f, dict):
            errors.append(f"faults[{i}]: a fault entry must be a mapping")
            continue
        f = dict(f)
        kind = f.get("kind")
        if kind not in sen.FAULT_KINDS:
            errors.append(f"faults[{i}].kind: {kind!r} not in {sen.FAULT_KINDS}")
            continue
        if not _is_int(f.get("sensor_id")) or not (
            0 <= f["sensor_id"] < (spec.n_dof if spec else 1)
        ):
            errors.append(f"faults[{i}].sensor_id: out of range")
            continue
        if not _is_int(f.get("onset_round")) or f["onset_round"] < training_rounds:
            errors.append(
                f"faults[{i}].onset_round: must be an integer >= training_rounds "
                f"({training_rounds}); training data is fault-free by contract"
            )
            continue
        duration = f.setdefault("duration_rounds", None)  # None: to end of run
        if duration is not None and (not _is_int(duration) or duration <= 0):
            errors.append(f"faults[{i}].duration_rounds: positive integer or null required")
            continue
        faults.append(f)

    top = cfg["topology"]
    topology = None
    try:
        field_size = tuple(float(v) for v in top["field"])
        n = spec.n_dof if spec else 10
        positions = net.line_positions(n, field_size)
        spacing = field_size[0] / max(1, n - 1)
        r_min = float(top.get("r_min") or top["r_min_factor"] * spacing)
        r_max = float(top.get("r_max") or max(field_size[0] / 4.5, r_min))
        bs = top.get("bs") or [0.0, field_size[1] / 2.0]
        topology = net.TopologySpec(
            positions=positions,
            r_min=r_min,
            r_max=r_max,
            bs_position=np.asarray(bs, dtype=float),
            field_size=field_size,
        )
        isolated = net.build_neighborhoods(topology).isolated
        if isolated and not _POLICIES[cfg["mode"]].frequency_matching:
            errors.append(
                f"topology: nodes {isolated} have no neighbour within r_min; MI detection needs one"
            )
    except Exception as exc:
        errors.append(f"topology: {exc}")

    try:
        detection = det.DetectionConfig(**cfg["detection"])
        if detection.R > training_rounds:
            errors.append("detection.R: cannot exceed monitoring.training_rounds")
        if detection.neighborhood_radius is None and topology is not None:
            detection.neighborhood_radius = topology.r_min
    except Exception as exc:
        errors.append(f"detection: {exc}")
        detection = det.DetectionConfig()
    try:
        reconstruction = kal.ReconstructionConfig(
            variance_inflation=float(cfg["reconstruction"]["variance_inflation"]),
            model_scope=cfg["reconstruction"]["model_scope"],
            scope_margin=int(cfg["reconstruction"]["scope_margin"]),
            scan_report_ratio=float(cfg["reconstruction"]["scan_report_ratio"]),
        )
    except Exception as exc:
        errors.append(f"reconstruction: {exc}")
        reconstruction = kal.ReconstructionConfig()
    try:
        energy = net.EnergyParams(**cfg["energy"])
    except Exception as exc:
        errors.append(f"energy: {exc}")
        energy = net.EnergyParams()

    if not (0 <= cfg["sensors"].get("noise_fraction", 0.1)):
        errors.append("sensors.noise_fraction: must be >= 0")

    mcfg = cfg["modal"]
    band = mcfg.get("band")
    if band is None:
        lo = forcing_frequency + 0.3 * max(f1 - forcing_frequency, 0.05 * f1)
        band = (lo, 1.15 * f_max)
    try:
        lo, hi = (float(v) for v in band)
    except (TypeError, ValueError):
        lo = hi = math.nan
    if not 0.0 <= lo < hi:
        errors.append(f"modal.band: {band!r} is not a [low, high] pair with 0 <= low < high")
    try:
        modal_config = mod.ModalConfig(
            segment_length=mon["segment_length"],
            band=(lo, hi),
            peak_snr=float(mcfg["peak_snr"]),
            max_modes=int(mcfg["max_modes"]),
            damage_threshold_sigmas=float(mcfg["damage_threshold_sigmas"]),
        )
    except (TypeError, ValueError) as exc:
        errors.append(f"modal: {exc}")

    if errors:
        raise ConfigError(errors)

    resolved = _merge(cfg, {})
    resolved["monitoring"]["window"] = window
    resolved["excitation"] = exc_cfg
    resolved["detection"]["neighborhood_radius"] = detection.neighborhood_radius
    resolved["topology"]["r_min"] = topology.r_min
    resolved["topology"]["r_max"] = topology.r_max
    resolved["topology"]["bs"] = [float(v) for v in topology.bs_position]
    resolved["modal"]["band"] = [lo, hi]
    resolved["faults"] = faults

    config = ScenarioConfig(
        raw=resolved,
        mode=cfg["mode"],
        seed=int(cfg["seed"]),
        spec=spec,
        damaged_spec=damaged_spec,
        excitation=exc_cfg,
        sensors=cfg["sensors"],
        faults=faults,
        damage=damage,
        detection=detection,
        reconstruction=reconstruction,
        topology=topology,
        energy=energy,
        window=window,
        training_rounds=training_rounds,
        test_rounds=test_rounds,
        segment_length=int(mon["segment_length"]),
        modal=modal_config,
        base_frequency=f1,
    )
    return config, resolved


@dataclass
class RunManifest:
    format_version: str
    seed: int
    mode: str
    config: dict
    fault_schedule: list
    damage_schedule: list
    outputs: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _fmt(x) -> str:
    if isinstance(x, float) or isinstance(x, np.floating):
        if math.isnan(x):
            return ""
        return f"{float(x):.12g}"
    return str(x)


def _write_csv(path: str, schema: str, header: list, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {FORMAT_VERSION}/{schema}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_csv(path: str):
    """Read a schema-tagged CSV back into (header, list-of-dict rows)."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return reader.fieldnames, list(reader)


class _Simulator:
    """Per-round episode generator with cached deterministic responses."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._sine_cache = {}  # damaged? -> deterministic sine response
        # fault-free noise scale frozen at initialization from round-0 dynamics
        clean0 = self._clean_round(0)
        self.signal_rms = np.sqrt(np.mean(clean0**2, axis=1))
        self.noise_std = config.sensors.get("noise_fraction", 0.1) * self.signal_rms

    def _clean_round(self, d: int) -> np.ndarray:
        cfg = self.config
        damaged = cfg.damage is not None and d >= int(cfg.damage["onset_round"])
        spec = cfg.damaged_spec if damaged else cfg.spec
        if damaged not in self._sine_cache:
            exc = struct.ExcitationSpec(
                kind=cfg.excitation["kind"],
                amplitude=float(cfg.excitation["amplitude"]),
                frequency=float(cfg.excitation["frequency"]),
            )
            rec = struct.simulate_response(spec, exc)
            self._sine_cache[damaged] = rec.accelerations[:, : cfg.window]
        acc = self._sine_cache[damaged].copy()
        frac = float(cfg.excitation.get("ambient_fraction", 0.0))
        if frac > 0:
            seed = np.random.SeedSequence([cfg.seed, _AMBIENT, d])
            amb = struct.simulate_response(
                spec,
                struct.ExcitationSpec(
                    kind="white_noise",
                    amplitude=frac * float(cfg.excitation["amplitude"]),
                    seed=seed,
                ),
            )
            acc += amb.accelerations[:, : cfg.window]
        return acc

    def measured_round(self, d: int):
        """(clean, windows) for round d; windows carry global start times."""
        cfg = self.config
        clean = self._clean_round(d)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _NOISE, d]))
        noisy = clean + self.noise_std[:, None] * rng.standard_normal(clean.shape)
        start = d * cfg.window * cfg.spec.dt
        windows = {
            ch: sen.SignalWindow(
                sensor_id=ch,
                start_time=start,
                dt=cfg.spec.dt,
                samples=noisy[ch],
                round_index=d,
            )
            for ch in range(cfg.n_nodes)
        }
        return clean, windows


def resolve_fault_profiles(config: ScenarioConfig, signal_rms: np.ndarray):
    """Materialize fault schedules into absolute-magnitude FaultProfile objects."""
    profiles = []
    schedule = []
    window_s = config.window * config.spec.dt
    for i, f in enumerate(config.faults):
        kind = f["kind"]
        ch = int(f["sensor_id"])
        rms = float(signal_rms[ch])
        onset = float(f["onset_round"]) * window_s
        duration = (
            math.inf
            if f.get("duration_rounds") is None
            else float(f["duration_rounds"]) * window_s
        )
        params = {}
        for name, scale in FAULT_MAGNITUDE_DEFAULTS.get(kind, {}).items():
            params[name] = float(f.get(name, scale if name == "gain" else scale * rms))
        if kind == "drift":
            params["drift_rate"] = float(f.get("drift_rate", 2.0 * rms / window_s))
        if kind == "precision_degradation":
            params["quantization_step"] = float(
                f.get("quantization_step", 10.0 * (8.0 * rms) / 2**16)
            )
        profile = sen.FaultProfile(
            kind=kind, sensor_id=ch, onset=onset, duration=duration, seed=config.seed + i, **params
        )
        profiles.append(profile)
        schedule.append(
            {
                "kind": kind,
                "sensor_id": ch,
                "onset_round": int(f["onset_round"]),
                "duration_rounds": f.get("duration_rounds"),
                "onset_s": onset,
                "parameters": params,
            }
        )
    return profiles, schedule


def _fault_active(schedule_entry, d: int) -> bool:
    if d < schedule_entry["onset_round"]:
        return False
    dur = schedule_entry["duration_rounds"]
    return dur is None or d < schedule_entry["onset_round"] + dur


def _ops_mi_pair(window: int, bins: int) -> float:
    return 5.0 * window + bins * bins


def _ops_welch(window: int, segment: int) -> float:
    return 5.0 * window * max(1.0, math.log2(max(segment, 2)))


def _ops_kf(window: int, state_dim: int) -> float:
    return float(window) * state_dim**3


def _send_to_bs(energy, d: int, hops, bits: float, params) -> net.Transmission:
    """Charge the relays of one packet's route to the BS; return the source's first hop.

    ``hops`` is the route as (from, to, distance) triples, source first.
    """
    for i, (a, b, dist) in enumerate(hops):
        if i:
            energy.entry(d, a).e_t += params.tx_energy(bits, dist)
        if b != net.BS:
            energy.entry(d, b).e_t += params.rx_energy(bits)
    return net.Transmission(bits, hops[0][2])


@dataclass
class _Run:
    """One run's constants, the tables its rounds fill and the state training leaves."""

    cfg: ScenarioConfig
    policy: _Policy
    graph: net.CommunicationGraph
    bs_hops: dict  # node -> route to the BS as (from, to, distance) hops
    noise_var: dict  # channel -> measurement noise variance
    loss_rng: np.random.Generator
    fault_schedule: list
    damage_schedule: list
    training_windows: dict  # channel -> its delivered training windows
    energy: net.EnergyLedger = field(default_factory=net.EnergyLedger)
    dependability: mod.DependabilityReport = field(default_factory=mod.DependabilityReport)
    detections_rows: list = field(default_factory=list)
    reconstruction_rows: list = field(default_factory=list)
    mode_rows: list = field(default_factory=list)
    baseline_rounds: list = field(default_factory=list)  # (curvature, frequency) per round
    model: det.CorrelationModel | None = None
    baseline: mod.CurvatureBaseline | None = None


def _transport(run: _Run, d: int, delivered: dict) -> dict:
    """Charge every node's sampling, traffic and computation; return what the detector sees.

    Raw windows lost on the route to the BS are not retransmitted.
    """
    cfg, policy, params = run.cfg, run.policy, run.cfg.energy
    # Bernoulli transport losses; the stream is consumed identically in
    # every mode so paired-seed comparisons stay aligned
    loss_draws = run.loss_rng.uniform(size=(cfg.n_nodes, 2))
    raw_bits = (cfg.window * params.bytes_per_sample + params.header_bytes) * 8
    report_bytes = (
        params.frequency_set_bytes if policy.frequency_matching else params.mode_report_bytes
    )
    report_bits = (report_bytes + params.header_bytes) * 8
    for ch in range(cfg.n_nodes):
        n_neighbors = len(run.graph.neighbors[ch])
        if policy.distributed:
            traffic = [net.Transmission(raw_bits, cfg.topology.r_min)]
            pairs = n_neighbors if d < cfg.training_rounds else 2 * n_neighbors
            comp = pairs * _ops_mi_pair(cfg.window, cfg.detection.bins)
        else:
            traffic = [_send_to_bs(run.energy, d, run.bs_hops[ch], raw_bits, params)]
            comp = 0.0
        if policy.reports:
            comp += _ops_welch(cfg.window, cfg.segment_length)
            # mode reports get one retransmission when the first try is lost
            tries = 2 if loss_draws[ch, 1] < params.packet_loss else 1
            for _ in range(tries):
                traffic.append(_send_to_bs(run.energy, d, run.bs_hops[ch], report_bits, params))
        net.charge_round(
            run.energy,
            ch,
            traffic,
            comp,
            cfg.window,
            params,
            round_index=d,
            received_bits=raw_bits * n_neighbors if policy.distributed else 0.0,
        )
    if policy.distributed or params.packet_loss <= 0.0:
        return delivered
    lost = loss_draws[:, 0] < params.packet_loss
    return {ch: None if lost[ch] else w for ch, w in delivered.items()}


def _extract(run: _Run, d: int, windows: dict) -> list:
    """Every node's local modes from ``windows``; a node without a window reports none."""
    estimates = []
    for ch in range(run.cfg.n_nodes):
        if windows[ch] is None:
            estimates.append(mod.LocalModeEstimate(ch, d, np.empty(0), np.empty(0), ch))
            continue
        # the lowest-id node in hearing range fixes the cross-spectrum sign
        ref = min([ch] + run.graph.neighbors[ch])
        ref_w = windows[ref] if ref != ch else None
        if ref_w is None:
            ref = ch
        estimates.append(
            mod.extract_local_modes(windows[ch], run.cfg.modal, reference=ref_w, reference_id=ref)
        )
    return estimates


def _assemble(run: _Run, d: int, estimates: list, *stages):
    """Assemble ``estimates`` at the BS and record the shape once under each of ``stages``.

    A failed assembly records nothing and returns None.
    """
    cfg = run.cfg
    try:
        shape = mod.assemble_global(
            estimates,
            tolerance_hz=2.0 / (cfg.segment_length * cfg.spec.dt),  # 2 FFT bins
            n_locations=cfg.n_nodes,
            round_index=d,
        )
    except mod.ModalError:
        return None
    run.mode_rows.extend(
        (d, stage, k, shape.frequencies[k], loc, shape.vectors[loc, k], int(shape.missing[loc, k]))
        for stage in stages
        for k in range(shape.n_modes)
        for loc in range(cfg.n_nodes)
    )
    return shape


def _train(run: _Run, d: int, view: dict, estimates: list):
    """Keep a fault-free round for the MI model and the curvature baseline; fit both at the end."""
    cfg = run.cfg
    for ch, w in view.items():
        if w is not None:
            run.training_windows[ch].append(w)
    shape = _assemble(run, d, estimates, "baseline")
    if shape is not None:
        try:
            k = shape.nearest_mode(cfg.base_frequency)
            run.baseline_rounds.append((mod.curvature(shape.mode(k)), float(shape.frequencies[k])))
        except mod.ModalError:
            pass
    if d < cfg.training_rounds - 1:
        return
    neighbors = run.graph.neighbors
    pairs = sorted({det.CorrelationModel.pair_key(i, j) for i in neighbors for j in neighbors[i]})
    run.model = det.train_correlation_model(run.training_windows, cfg.detection, pairs=pairs)
    if len(run.baseline_rounds) >= 2:
        curvatures, frequencies = zip(*run.baseline_rounds)
        run.baseline = mod.CurvatureBaseline.from_rounds(
            curvatures, frequencies[-1] or cfg.base_frequency
        )


def _detect(run: _Run, d: int, view: dict, estimates: list) -> dict:
    """Each node's verdict for the round: MI detection, or the NFMC frequency check."""
    if not run.policy.frequency_matching:
        return det.detection_round(
            view, run.graph.neighbors, run.model, run.cfg.detection, round_index=d
        )
    # NFMC-style baseline: flag nodes whose peak frequency mismatches the consensus
    peaks = {e.sensor_id: None if e.is_empty else float(e.frequencies[0]) for e in estimates}
    present = [f for f in peaks.values() if f is not None]
    consensus = float(np.median(present)) if present else 0.0
    tol = 2.0 / (run.cfg.segment_length * run.cfg.spec.dt)  # 2 FFT bins
    decisions = {}
    for ch, f in sorted(peaks.items()):
        bad = f is None or abs(f - consensus) > tol
        decisions[ch] = det.NodeDecision(
            node_id=ch,
            round_index=d,
            lambdas={},
            lambda_agg=det.LAMBDA_MAX if bad else 0.0,
            verdict="faulty" if bad else "non_faulty",
        )
    return decisions


def _scan(run: _Run, d: int, view: dict, decisions: dict):
    """Missing-node refinement: a KL-KF scan relabels a silent faulty node 'missing'."""
    if not run.policy.recovery:
        return
    cfg = run.cfg
    for ch in sorted(decisions):
        if view[ch] is not None or decisions[ch].verdict != "faulty":
            continue
        node_set = sorted({ch, *run.graph.neighbors[ch]})
        if len(node_set) < 3:
            continue
        try:
            scan = kal.missing_sensor_scan(
                node_set,
                {c: view[c] for c in node_set},
                cfg.spec,
                config=cfg.reconstruction,
                noise_var=run.noise_var,
            )
        except kal.KalmanError:
            continue
        if scan.reported == ch:
            decisions[ch] = replace(decisions[ch], verdict="missing")
        # the scan runs on the lowest-id node that delivered a window
        helper = min(c for c in node_set if view[c] is not None)
        scan_ops = len(node_set) * _ops_kf(cfg.window, 2 * min(cfg.n_nodes, len(node_set) + 2))
        net.charge_round(run.energy, helper, [], scan_ops, 0, cfg.energy, round_index=d)


def _reconstruct(run: _Run, d: int, view: dict, flagged: list, clean: np.ndarray) -> dict:
    """The round's final windows: flagged channels reconstructed, isolated or kept as delivered."""
    cfg, policy = run.cfg, run.policy
    final = dict(view)
    if policy.frequency_matching:  # NFMC isolates flagged sensors instead of recovering them
        final.update(dict.fromkeys(flagged))
    if not (policy.recovery and flagged):
        return final
    truth = {ch: clean[ch] for ch in range(cfg.n_nodes)}
    if policy.distributed:
        batches = [
            ([ch], sorted([ch] + [j for j in run.graph.neighbors[ch] if j not in flagged]))
            for ch in flagged
        ]
    else:
        batches = [(flagged, list(range(cfg.n_nodes)))]
    for faulty, scope in batches:
        try:
            results = kal.reconstruct_signals(
                faulty,
                {c: view[c] for c in scope},
                cfg.spec,
                round_index=d,
                config=cfg.reconstruction,
                noise_var=run.noise_var,
                truth=truth,
            )
        except kal.KalmanError:
            continue
        if policy.distributed:
            helper = min(c for c in scope if c not in faulty)
            span = max(scope) - min(scope) + 1 + 2 * cfg.reconstruction.scope_margin
            state_dim = 2 * (
                cfg.n_nodes if cfg.reconstruction.model_scope == "full" else min(cfg.n_nodes, span)
            )
            net.charge_round(
                run.energy,
                helper,
                [],
                _ops_kf(cfg.window, state_dim),
                0,
                cfg.energy,
                round_index=d,
                reconstructions=len(faulty),
            )
        for res in results:
            final[res.sensor_id] = res.reconstructed
            quality = res.quality if res.quality is not None else ""
            residual_rms = float(np.sqrt(np.mean(res.residual**2)))
            run.reconstruction_rows.append((d, res.sensor_id, quality, residual_rms))
    return final


def _modal(run: _Run, d: int, view: dict, final: dict, estimates: list):
    """Record the raw shape and the final one; return the final shape (None if it failed)."""
    if all(final[ch] is view[ch] for ch in view):
        # no window was replaced, so the final shape is the raw one
        stages = ("raw", "final") if run.policy.reports else ("raw",)
        return _assemble(run, d, estimates, *stages)
    _assemble(run, d, estimates, "raw")
    return _assemble(run, d, _extract(run, d, final), "final")


def _score(run: _Run, d: int, decisions: dict, flagged: list, shape):
    """Record the verdicts, diagnose damage from ``shape`` and count both against the truth."""
    active = {e["sensor_id"] for e in run.fault_schedule if _fault_active(e, d)}
    for ch, dec in sorted(decisions.items()):
        run.detections_rows.append((d, ch, dec.lambda_agg, dec.verdict, int(ch in active)))
    reports = []
    if shape is not None and run.baseline is not None:
        try:
            reports = mod.diagnose(shape, run.baseline, run.cfg.modal).damage_locations
        except mod.ModalError:
            pass  # too few consecutive locations for a curvature: nothing reported
    damaged = [e["location"] for e in run.damage_schedule if d >= e["onset_round"]]
    run.dependability.add_round(d, run.cfg.n_nodes, flagged, active, reports, damaged)


def run_scenario(config, out_dir: str) -> RunManifest:
    """Execute a full scenario and write the CSV artifacts into ``out_dir``."""
    if isinstance(config, dict):
        config, _ = validate_config(config)
    cfg = config
    os.makedirs(out_dir, exist_ok=True)
    sim = _Simulator(cfg)
    graph = net.build_neighborhoods(cfg.topology)
    profiles, fault_schedule = resolve_fault_profiles(cfg, sim.signal_rms)
    damage_schedule = (
        []
        if cfg.damage is None
        else [
            {
                "location": int(cfg.damage["location"]),
                "severity": float(cfg.damage["severity"]),
                "onset_round": int(cfg.damage["onset_round"]),
            }
        ]
    )
    bs_hops = {}
    for ch in range(cfg.n_nodes):
        path = net.shortest_path_route(graph.routing, ch, net.BS)
        bs_hops[ch] = [(a, b, cfg.topology.distance(a, b)) for a, b in zip(path[:-1], path[1:])]
    run = _Run(
        cfg=cfg,
        policy=_POLICIES[cfg.mode],
        graph=graph,
        bs_hops=bs_hops,
        noise_var={ch: float(sim.noise_std[ch] ** 2) for ch in range(cfg.n_nodes)},
        loss_rng=np.random.default_rng(np.random.SeedSequence([cfg.seed, _LOSS])),
        fault_schedule=fault_schedule,
        damage_schedule=damage_schedule,
        training_windows={ch: [] for ch in range(cfg.n_nodes)},
    )

    for d in range(cfg.total_rounds):
        clean, windows = sim.measured_round(d)
        delivered = {ch: sen.apply_faults(windows[ch], profiles) for ch in windows}
        view = _transport(run, d, delivered)
        estimates = _extract(run, d, view)
        if d < cfg.training_rounds:
            _train(run, d, view, estimates)
            continue
        decisions = _detect(run, d, view, estimates)
        _scan(run, d, view, decisions)
        flagged = sorted(ch for ch, dc in decisions.items() if dc.verdict in ("faulty", "missing"))
        final = _reconstruct(run, d, view, flagged, clean)
        shape = _modal(run, d, view, final, estimates)
        _score(run, d, decisions, flagged, shape)

    # ---- outputs ---------------------------------------------------------------
    tables = (
        ("detections", ["round", "node", "lambda", "verdict", "truth"], run.detections_rows),
        ("reconstructions", ["round", "node", "quality", "residual_rms"], run.reconstruction_rows),
        (
            "modes",
            ["round", "stage", "mode", "frequency", "location", "amplitude", "missing"],
            run.mode_rows,
        ),
        (
            "energy",
            ["round", "node", "e_T", "e_comp", "e_samp", "e_oh", "total"],
            run.energy.rows(),
        ),
        ("dependability", mod.DependabilityReport.HEADER, run.dependability.rows),
    )
    outputs = {name: f"{name}.csv" for name, _, _ in tables}
    outputs.update(summary="summary.json", manifest="manifest.json")
    for name, header, rows in tables:
        _write_csv(os.path.join(out_dir, outputs[name]), name, header, rows)

    test_rounds = range(cfg.training_rounds, cfg.total_rounds)
    fault_rounds = [d for d in test_rounds if any(_fault_active(e, d) for e in fault_schedule)]
    clean_rounds = [d for d in test_rounds if d not in fault_rounds]
    surcharge = None
    if fault_rounds and clean_rounds:
        mean_fault = float(np.mean([run.energy.round_total(d) for d in fault_rounds]))
        mean_clean = float(np.mean([run.energy.round_total(d) for d in clean_rounds]))
        if mean_fault > 0:
            surcharge = (mean_fault - mean_clean) / mean_fault
    lambda_healthy = [row[2] for row in run.detections_rows if not row[4]]
    lambda_faulty = [row[2] for row in run.detections_rows if row[4]]
    summary = {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "detection_accuracy": run.dependability.detection_accuracy(),
        "event_detection_ability": run.dependability.event_detection_ability(),
        "mean_lambda_healthy": float(np.mean(lambda_healthy)) if lambda_healthy else None,
        "mean_lambda_faulty": float(np.mean(lambda_faulty)) if lambda_faulty else None,
        "energy_total_j": run.energy.total,
        "energy_communication_j": run.energy.communication_total,
        "energy_components_j": run.energy.component_totals(),
        "fault_round_surcharge": surcharge,
        "n_reconstructions": len(run.reconstruction_rows),
        "fault_rate": len({e["sensor_id"] for e in fault_schedule}) / cfg.n_nodes,
    }
    manifest = RunManifest(
        format_version=FORMAT_VERSION,
        seed=cfg.seed,
        mode=cfg.mode,
        config=cfg.raw,
        fault_schedule=fault_schedule,
        damage_schedule=damage_schedule,
        outputs=outputs,
    )
    for name, payload in (("summary", summary), ("manifest", manifest.to_dict())):
        with open(os.path.join(out_dir, outputs[name]), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return manifest


def compare_schemes(config, modes, out_dir: str) -> str:
    """Run each mode on identical seeds and write a comparison table.

    Returns the path of the comparison CSV. Each mode's full artifacts land in
    ``out_dir/<mode>/``.
    """
    if isinstance(config, dict):
        base_raw = dict(config)
    else:
        base_raw = dict(config.raw)
    columns = [
        "detection_accuracy",
        "event_detection_ability",
        "mean_lambda_healthy",
        "mean_lambda_faulty",
        "energy_communication_j",
        "energy_total_j",
        "fault_round_surcharge",
    ]
    rows = []
    for mode in modes:
        if mode not in MODES:
            raise ConfigError([f"compare: mode {mode!r} is not one of {MODES}"])
        raw = _merge(base_raw, {"mode": mode})
        sub_dir = os.path.join(out_dir, mode)
        run_scenario(raw, sub_dir)
        with open(os.path.join(sub_dir, "summary.json")) as fh:
            s = json.load(fh)
        rows.append([mode] + ["" if s[c] is None else s[c] for c in columns])
    path = os.path.join(out_dir, "comparison.csv")
    _write_csv(path, "comparison", ["mode"] + columns, rows)
    return path


PLOT_KEYS = ("lambda", "modeshape", "energy", "accuracy")


def emit_plotdata(run_dir: str, which: str, out_path: str | None = None) -> str:
    """Write plain columnar plot data extracted from a run directory.

    Keys: ``lambda`` (indicator per node per round), ``modeshape`` (baseline
    vs raw vs final mode 1, last round), ``energy`` (per-round component
    sums), ``accuracy`` (accuracy/ability vs fault rate across the run
    directories contained in ``run_dir``).
    """
    if which not in PLOT_KEYS:
        raise ConfigError([f"plot: unknown key {which!r}; available keys: {PLOT_KEYS}"])
    out_path = out_path or os.path.join(run_dir, f"plot_{which}.csv")

    if which == "lambda":
        _, rows = read_csv(os.path.join(run_dir, "detections.csv"))
        nodes = sorted({int(r["node"]) for r in rows})
        rounds = sorted({int(r["round"]) for r in rows})
        table = {(int(r["round"]), int(r["node"])): r["lambda"] for r in rows}
        out_rows = [[d] + [table.get((d, n), "") for n in nodes] for d in rounds]
        _write_csv(out_path, "plot-lambda", ["round"] + [f"node{n}" for n in nodes], out_rows)
        return out_path

    if which == "modeshape":
        _, rows = read_csv(os.path.join(run_dir, "modes.csv"))
        if not rows:
            raise ConfigError(["plot: modes.csv is empty"])
        freqs = {}
        for r in rows:
            if r["stage"] == "baseline" and r["amplitude"] != "":
                freqs.setdefault(r["mode"], []).append(float(r["frequency"]))
        series = {}
        for stage in ("baseline", "raw", "final"):
            stage_rows = [r for r in rows if r["stage"] == stage and r["mode"] == "0"]
            if not stage_rows:
                continue
            # last round for live stages, first for the baseline reference
            keep_round = (
                min(int(r["round"]) for r in stage_rows)
                if stage == "baseline"
                else max(int(r["round"]) for r in stage_rows)
            )
            series[stage] = {
                int(r["location"]): r["amplitude"]
                for r in stage_rows
                if int(r["round"]) == keep_round
            }
        locations = sorted({loc for s in series.values() for loc in s})
        out_rows = [
            [loc] + [series.get(st, {}).get(loc, "") for st in ("baseline", "raw", "final")]
            for loc in locations
        ]
        _write_csv(out_path, "plot-modeshape", ["location", "baseline", "raw", "final"], out_rows)
        return out_path

    if which == "energy":
        _, rows = read_csv(os.path.join(run_dir, "energy.csv"))
        per_round = {}
        columns = ["e_T", "e_comp", "e_samp", "e_oh", "total"]
        for r in rows:
            acc = per_round.setdefault(int(r["round"]), [0.0] * len(columns))
            for i, c in enumerate(columns):
                acc[i] += float(r[c])
        out_rows = [[d] + per_round[d] for d in sorted(per_round)]
        _write_csv(out_path, "plot-energy", ["round"] + columns, out_rows)
        return out_path

    # accuracy vs fault rate over a directory of runs
    out_rows = []
    for entry in sorted(os.listdir(run_dir)):
        sub = os.path.join(run_dir, entry)
        summary_path = os.path.join(sub, "summary.json")
        if not os.path.isdir(sub) or not os.path.exists(summary_path):
            continue
        with open(summary_path) as fh:
            s = json.load(fh)
        out_rows.append(
            (s["fault_rate"], s["detection_accuracy"], s["event_detection_ability"], entry)
        )
    if not out_rows:
        raise ConfigError([f"plot: no run directories with summary.json under {run_dir}"])
    out_rows.sort()
    _write_csv(
        out_path,
        "plot-accuracy",
        ["fault_rate", "detection_accuracy", "event_detection_ability", "run"],
        out_rows,
    )
    return out_path
