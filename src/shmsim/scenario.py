"""Scenario-driven end-to-end runs, scheme comparison and plot-data export.

A scenario config (JSON-compatible dict) fully determines a run: structure,
excitation, sensors, fault/damage schedules, detection and reconstruction
settings, topology, energy constants and the monitoring plan. Every round is
one duty-cycled episode: the structure is excited afresh, sensors sample M
points, windows are exchanged, faults detected, faulty signals reconstructed,
local modes extracted and assembled at the BS, damage diagnosed and energy
charged. All randomness derives from the single scenario seed, so a re-run
at the same BLAS thread count produces byte-identical CSV outputs.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

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

# seed-stream tags (SeedSequence spawn keys); tag 3 belonged to a retired fault stream
_AMBIENT, _NOISE, _LOSS = 1, 2, 4


class ConfigError(ValueError):
    """Raised when a scenario config fails validation; carries every finding."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


_REQUIRED = object()  # no default: the key must be given
_UNSET = object()  # left out unless given; the reader of the key supplies the value

# Every config key as (path, default, kind, bound). A section's keys sit under
# "<section>."; a fault entry's under "faults[]." and, for its kind only, under
# "faults[<kind>].". Kinds: int, float, enum (bound lists the choices), pair
# and vector (numbers, each within bound), section, list; a trailing "?" also
# admits null. Numeric bounds are intervals. A key that a library dataclass
# also takes reads its default from there, so each default is written once. A
# fault magnitude's default is a function of the channel's fault-free RMS and
# the window duration in seconds.
_FIELDS = (
    ("seed", _REQUIRED, "int", "[0, inf)"),
    ("mode", "dependshm", "enum", MODES),
    ("monitoring", {}, "section", None),
    ("monitoring.training_rounds", 12, "int", "[1, inf)"),
    ("monitoring.rounds", 6, "int", "[1, inf)"),
    ("monitoring.n_averages", 15, "int", "[10, 20]"),
    ("monitoring.segment_length", mod.ModalConfig.segment_length, "int", "[1, inf)"),
    ("monitoring.window", None, "int?", "[1, inf)"),  # (n_averages/2 + 1/2) * segment_length
    ("structure", {}, "section", None),
    ("structure.n_dof", 10, "int", "[1, inf)"),
    ("structure.mass", 1000.0, "float", "(0, inf)"),
    ("structure.stiffness", 1.769e6, "float", "(0, inf)"),
    ("structure.masses", _UNSET, "vector", "(0, inf)"),  # with stiffnesses: overrides the above
    ("structure.stiffnesses", _UNSET, "vector", "(0, inf)"),
    ("structure.dt", 0.02, "float", "(0, inf)"),
    ("excitation", {}, "section", None),
    ("excitation.kind", "sine", "enum", struct.ExcitationSpec.KINDS),
    ("excitation.amplitude", 1.0, "float", "(0, inf)"),
    ("excitation.frequency_factor", 0.9, "float", "(0, inf)"),  # x first natural frequency
    ("excitation.frequency", None, "float?", "(0, inf)"),  # null: frequency_factor x f1
    ("excitation.ambient_fraction", 0.02, "float", "[0, inf)"),
    ("damage", None, "section?", None),
    ("damage.location", _REQUIRED, "int", "[0, inf)"),
    ("damage.severity", _REQUIRED, "float", "(0, 1)"),
    ("damage.onset_round", _REQUIRED, "int", "[0, inf)"),
    ("faults", [], "list", None),
    ("faults[].kind", _REQUIRED, "enum", sen.FAULT_KINDS),
    ("faults[].sensor_id", _REQUIRED, "int", "[0, inf)"),
    ("faults[].onset_round", _REQUIRED, "int", "[0, inf)"),
    ("faults[].duration_rounds", None, "int?", "[1, inf)"),  # null: to the end of the run
    ("faults[stuck_constant].stuck_value", lambda rms, s: 3.0 * rms, "float", "(-inf, inf)"),
    ("faults[offset_bias].offset", lambda rms, s: 5.0 * rms, "float", "(-inf, inf)"),
    ("faults[debonding_gain].gain", lambda rms, s: sen.FaultProfile.gain, "float", "[0, inf)"),
    ("faults[debonding_gain].parasite_std", lambda rms, s: 1.0 * rms, "float", "[0, inf)"),
    ("faults[noise_burst].burst_std", lambda rms, s: 0.3 * rms, "float", "[0, inf)"),
    ("faults[drift].drift_rate", lambda rms, s: 2.0 * rms / s, "float", "(-inf, inf)"),
    (
        "faults[precision_degradation].quantization_step",
        lambda rms, s: 10.0 * (8.0 * rms) / 2**16,
        "float",
        "(0, inf)",
    ),
    ("topology", {}, "section", None),
    ("topology.field", list(net.TopologySpec.field_size), "pair", "(0, inf)"),
    ("topology.r_min_factor", 2.2, "float", "(0, inf)"),  # x inter-sensor spacing
    ("topology.r_min", None, "float?", "(0, inf)"),  # null: r_min_factor x spacing
    ("topology.r_max", None, "float?", "(0, inf)"),  # null: max(field_x / 4.5, r_min)
    ("topology.bs", None, "pair?", "(-inf, inf)"),  # null: [0, field_y / 2]
    ("detection", {}, "section", None),
    ("detection.bins", det.DetectionConfig.bins, "int", "[4, inf)"),
    ("detection.R", det.DetectionConfig.R, "int", "[1, inf)"),
    ("detection.threshold", det.DetectionConfig.threshold, "float", "(0, inf)"),
    ("reconstruction", {}, "section", None),
    ("reconstruction.variance_inflation", kal.ReconstructionConfig.variance_inflation, "float", "[1, inf)"),
    ("reconstruction.model_scope", kal.ReconstructionConfig.model_scope, "enum", ("neighborhood", "full")),
    ("reconstruction.scope_margin", kal.ReconstructionConfig.scope_margin, "int", "[0, inf)"),
    ("reconstruction.scan_report_ratio", kal.ReconstructionConfig.scan_report_ratio, "float", "[0, inf)"),
    ("energy", {}, "section", None),
    *(  # unset energy keys take the EnergyParams defaults, whose types give the kinds
        (f"energy.{f.name}", _UNSET, type(f.default).__name__, "[0, inf)")
        for f in fields(net.EnergyParams)
        if f.name not in ("cpu_k", "packet_loss")
    ),
    ("energy.cpu_k", _UNSET, "float", "(0, inf)"),  # divides the clock rate
    ("energy.packet_loss", _UNSET, "float", "[0, 1)"),
    ("sensors", {}, "section", None),
    ("sensors.noise_fraction", 0.10, "float", "[0, inf)"),  # x channel RMS
    ("modal", {}, "section", None),
    ("modal.band", None, "pair?", "[0, inf)"),  # null: above the forcing line up to 1.15 f_max
    ("modal.peak_snr", mod.ModalConfig.peak_snr, "float", "[0, inf)"),
    ("modal.max_modes", mod.ModalConfig.max_modes, "int", "[1, inf)"),
    ("modal.damage_threshold_sigmas", mod.ModalConfig.damage_threshold_sigmas, "float", "[0, inf)"),
)


def _rows(prefix: str) -> dict:
    """{key: (default, kind, bound)} for the table rows directly under ``prefix``."""
    n = len(prefix)
    return {
        path[n:]: (default, kind, bound)
        for path, default, kind, bound in _FIELDS
        if path.startswith(prefix) and "." not in path[n:]
    }


def _valid(value, kind: str, bound) -> bool:
    if kind.endswith("?"):
        return value is None or _valid(value, kind[:-1], bound)
    if kind in ("section", "list"):
        return isinstance(value, dict if kind == "section" else (list, tuple))
    if kind == "enum":
        return isinstance(value, str) and value in bound
    if kind in ("pair", "vector"):
        return (
            isinstance(value, (list, tuple))
            and (len(value) == 2 if kind == "pair" else len(value) > 0)
            and all(_valid(v, "float", bound) for v in value)
        )
    if isinstance(value, bool) or not isinstance(value, int if kind == "int" else (int, float)):
        return False
    lo, hi = (float(b) for b in bound[1:-1].split(","))
    return (lo < value if bound[0] == "(" else lo <= value) and (
        value < hi if bound[-1] == ")" else value <= hi
    )


def _reason(value, kind: str, bound) -> str:
    if kind == "enum":
        return f"{value!r} is not one of {bound}"
    noun = {
        "int": {"[0, inf)": "non-negative integer", "[1, inf)": "positive integer"}.get(
            bound, f"integer in {bound}"
        ),
        "float": f"number in {bound}",
        "pair": f"pair of numbers in {bound}",
        "vector": f"list of numbers in {bound}",
        "section": "a mapping",
        "list": "a list of fault entries",
    }[kind.rstrip("?")]
    return f"{noun} or null required" if kind.endswith("?") else f"{noun} required"


def _walk(node: dict, rows: dict, where: str, errors: list):
    """Check the mapping ``node`` against ``rows`` in place, appending "<path>: <reason>".

    An absent key takes its default. A rejected value is replaced by its
    default, or dropped when it has none, so the checks after the walk still run.
    """
    for key, (default, kind, bound) in rows.items():
        path = where + key
        supplied_later = default is _UNSET or callable(default)
        if key not in node:
            if supplied_later:
                continue  # left to the code that reads it
            node[key] = None if default is _REQUIRED else copy.deepcopy(default)
        if not _valid(node[key], kind, bound):
            errors.append(f"{path}: {_reason(node[key], kind, bound)}")
            if supplied_later or default is _REQUIRED:
                del node[key]
                continue
            node[key] = copy.deepcopy(default)
        if kind.startswith("section") and node[key] is not None:
            _walk(node[key], _rows(path + "."), path + ".", errors)
        elif kind == "list":
            node[key] = entries = list(node[key])
            for i, entry in enumerate(entries):
                if not isinstance(entry, dict):
                    errors.append(f"{path}[{i}]: a fault entry must be a mapping")
                    entries[i] = {}
                    continue
                entry_rows = {**_rows(f"{key}[]."), **_rows(f"{key}[{entry.get('kind')}].")}
                _walk(entry, entry_rows, f"{path}[{i}].", errors)
    errors.extend(f"{where}{key}: unknown key" for key in node if key not in rows)


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
    faults: list  # validated entries; magnitudes are resolved against the channel RMS
    damage: dict | None
    detection: det.DetectionConfig
    reconstruction: kal.ReconstructionConfig
    topology: net.TopologySpec
    graph: net.CommunicationGraph  # built once from topology
    energy: net.EnergyParams
    window: int
    training_rounds: int
    test_rounds: int
    modal: mod.ModalConfig
    base_frequency: float  # undamaged f1

    @property
    def n_nodes(self) -> int:
        return self.spec.n_dof

    @property
    def total_rounds(self) -> int:
        return self.training_rounds + self.test_rounds

    @property
    def tolerance_hz(self) -> float:
        """Frequency match tolerance of mode assembly and the NFMC check: 2 FFT bins."""
        return 2.0 / (self.modal.segment_length * self.spec.dt)

    def round_start(self, d: int) -> float:
        """Start time (s) of round d's window; fault onsets use the same value."""
        return d * self.window * self.spec.dt


def validate_config(raw: dict):
    """Resolve defaults and collect every validation error before failing.

    Returns (ScenarioConfig, resolved_dict). Raises ConfigError listing all
    problems when the config is invalid.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["config: a mapping required"])
    errors = []
    cfg = copy.deepcopy(raw)
    _walk(cfg, _rows(""), "", errors)

    # cross-field rules
    mon, st, top, exc_cfg = cfg["monitoring"], cfg["structure"], cfg["topology"], cfg["excitation"]
    training_rounds, test_rounds = mon["training_rounds"], mon["rounds"]
    window = sen.sampling_points(mon["n_averages"], mon["segment_length"])
    if mon["window"] not in (None, window):
        errors.append(f"monitoring.window: n_averages and segment_length make it {window}")

    if ("masses" in st) != ("stiffnesses" in st):
        errors.append("structure: masses and stiffnesses must be given together")
    try:
        spec = struct.StructureSpec(
            masses=st.get("masses", [st["mass"]] * st["n_dof"]),
            stiffnesses=st.get("stiffnesses", [st["stiffness"]] * st["n_dof"]),
            dt=float(st["dt"]),
            duration=(window + 1) * float(st["dt"]),
        )
        frequencies = struct.eigen_modes(spec).frequencies
    except ValueError as exc:
        errors.append(f"structure: {exc}")
        spec, frequencies = None, np.ones(1)
    if "masses" in st and "stiffnesses" in st:  # the arrays set the structure: echo it
        given = raw["structure"]
        if "n_dof" in given and st["n_dof"] != len(st["masses"]):
            errors.append(f"structure.n_dof: masses and stiffnesses make it {len(st['masses'])}")
        errors.extend(
            f"structure.{key}: unused when masses and stiffnesses are given"
            for key in ("mass", "stiffness")
            if key in given
        )
        st["n_dof"] = len(st["masses"])
        del st["mass"], st["stiffness"]
    n_dof = spec.n_dof if spec is not None else st["n_dof"]
    if n_dof < 2:
        errors.append("structure: at least 2 DOF are required (one sensor channel per DOF)")
    f1, f_max = float(frequencies[0]), float(frequencies[-1])

    if exc_cfg["frequency"] is None:
        exc_cfg["frequency"] = exc_cfg["frequency_factor"] * f1
    forcing_frequency = float(exc_cfg["frequency"])
    resonant = any(abs(forcing_frequency - f) < 1e-3 * f for f in frequencies)
    if exc_cfg["kind"] == "sine" and spec is not None and resonant:
        errors.append(
            "excitation.frequency: coincides with an undamped natural frequency "
            "(unbounded resonance)"
        )

    # a rejected required key was dropped by the walk, so only valid ones are checked here
    damage = cfg["damage"]
    if damage is not None:
        if "location" in damage and damage["location"] >= n_dof:
            errors.append("damage.location: out of range")
        if "onset_round" in damage and not (
            training_rounds <= damage["onset_round"] < training_rounds + test_rounds
        ):
            errors.append("damage.onset_round: must fall inside the test rounds")

    for i, f in enumerate(cfg["faults"]):
        if "sensor_id" in f and f["sensor_id"] >= n_dof:
            errors.append(f"faults[{i}].sensor_id: out of range")
        if "onset_round" in f and f["onset_round"] < training_rounds:
            errors.append(
                f"faults[{i}].onset_round: must be an integer >= training_rounds "
                f"({training_rounds}); training data is fault-free by contract"
            )

    try:
        field_size = tuple(float(v) for v in top["field"])
        spacing = field_size[0] / max(1, n_dof - 1)
        # the table rejects 0, so ``or`` only stands in for null
        r_min = float(top["r_min"] or top["r_min_factor"] * spacing)
        topology = net.TopologySpec(
            positions=net.line_positions(n_dof, field_size),
            r_min=r_min,
            r_max=float(top["r_max"] or max(field_size[0] / 4.5, r_min)),
            bs_position=np.asarray(top["bs"] or [0.0, field_size[1] / 2.0], dtype=float),
            field_size=field_size,
        )
        graph = net.build_neighborhoods(topology)
        isolated = graph.isolated
        if isolated and not _POLICIES[cfg["mode"]].frequency_matching:
            errors.append(
                f"topology: nodes {isolated} have no neighbour within r_min; MI detection needs one"
            )
    except net.NetworkError as exc:
        errors.append(f"topology: {exc}")

    if cfg["detection"]["R"] > training_rounds:
        errors.append("detection.R: cannot exceed monitoring.training_rounds")

    band = cfg["modal"]["band"]
    if band is None:
        lo = forcing_frequency + 0.3 * max(f1 - forcing_frequency, 0.05 * f1)
        band = (lo, 1.15 * f_max)
    lo, hi = (float(v) for v in band)
    bins = np.fft.rfftfreq(mon["segment_length"], float(st["dt"]))  # Welch frequencies
    if not lo < hi:
        errors.append(f"modal.band: [{lo}, {hi}] needs low < high")
    elif not np.any((bins >= lo) & (bins <= hi)):
        errors.append(f"modal.band: [{lo}, {hi}] Hz holds no bin of the segment_length spectrum")

    if errors:
        raise ConfigError(errors)

    mon["window"] = window
    top.update(r_min=topology.r_min, r_max=topology.r_max, bs=topology.bs_position.tolist())
    cfg["modal"]["band"] = [lo, hi]
    config = ScenarioConfig(
        raw=cfg,
        mode=cfg["mode"],
        seed=cfg["seed"],
        spec=spec,
        damaged_spec=None
        if damage is None
        else struct.apply_damage(spec, struct.DamageSpec(damage["location"], damage["severity"])),
        excitation=exc_cfg,
        sensors=cfg["sensors"],
        faults=cfg["faults"],
        damage=damage,
        detection=det.DetectionConfig(**cfg["detection"]),
        reconstruction=kal.ReconstructionConfig(**cfg["reconstruction"]),
        topology=topology,
        graph=graph,
        energy=net.EnergyParams(**cfg["energy"]),
        window=window,
        training_rounds=training_rounds,
        test_rounds=test_rounds,
        modal=mod.ModalConfig(mon["segment_length"], **dict(cfg["modal"], band=(lo, hi))),
        base_frequency=f1,
    )
    return config, cfg


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


def _cells(column) -> list:
    """A column's CSV cells as ``_fmt`` writes them, with one formatter picked per column."""
    kinds = set(map(type, column))
    if kinds <= {float, np.float64}:
        return ["" if x != x else f"{x:.12g}" for x in column]
    if not any(issubclass(kind, (float, np.floating)) for kind in kinds):
        return list(map(str, column))
    return list(map(_fmt, column))


def _write_csv(path: str, schema: str, header: list, rows):
    """Write a schema-tagged CSV of equal-length ``rows``, formatted column by column."""
    columns = [_cells(column) for column in zip(*rows, strict=True)]
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {FORMAT_VERSION}/{schema}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


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
        # fault-free noise scale frozen at initialization from round-0 dynamics,
        # whose response measured_round(0) reuses
        self._clean0 = self._clean_round(0)
        self.signal_rms = np.sqrt(np.mean(self._clean0**2, axis=1))
        self.noise_std = config.sensors["noise_fraction"] * self.signal_rms

    def _clean_round(self, d: int) -> np.ndarray:
        cfg = self.config
        damaged = cfg.damage is not None and d >= cfg.damage["onset_round"]
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
        frac = float(cfg.excitation["ambient_fraction"])
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
        clean = self._clean0 if d == 0 else self._clean_round(d)
        seed = np.random.SeedSequence([cfg.seed, _NOISE, d])
        return clean, sen.sample_round(clean, self.noise_std, seed, d, cfg.round_start(d), cfg.spec.dt)


def resolve_fault_profiles(config: ScenarioConfig, signal_rms: np.ndarray):
    """Materialize fault schedules into absolute-magnitude FaultProfile objects.

    A profile starts exactly at its onset round's window start; which rounds
    it is applied to is ``_fault_active``'s decision.
    """
    profiles = []
    schedule = []
    window_s = config.window * config.spec.dt
    for i, f in enumerate(config.faults):
        kind, ch = f["kind"], f["sensor_id"]
        rms = float(signal_rms[ch])
        onset = config.round_start(f["onset_round"])
        duration = (
            math.inf if f["duration_rounds"] is None else float(f["duration_rounds"]) * window_s
        )
        params = {
            name: float(f[name]) if name in f else default(rms, window_s)
            for name, (default, _, _) in _rows(f"faults[{kind}].").items()
        }
        profile = sen.FaultProfile(
            kind=kind, sensor_id=ch, onset=onset, duration=duration, seed=config.seed + i, **params
        )
        profiles.append(profile)
        schedule.append(
            {
                "kind": kind,
                "sensor_id": ch,
                "onset_round": f["onset_round"],
                "duration_rounds": f["duration_rounds"],
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


def _kf_state_dim(cfg: ScenarioConfig, channels) -> int:
    """State dimension charged for a filter over ``channels``: twice its model scope's DOFs."""
    span = max(channels) - min(channels) + 1 + 2 * cfg.reconstruction.scope_margin
    full = cfg.reconstruction.model_scope == "full"
    return 2 * (cfg.n_nodes if full else min(cfg.n_nodes, span))


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
    bs_hops: dict  # node -> route to the BS as (from, to, distance) hops
    noise_var: dict  # channel -> measurement noise variance
    loss_rng: np.random.Generator
    fault_schedule: list
    damage_schedule: list
    training_windows: dict  # channel -> its training windows by round, None where lost
    shared: dict  # the round's results that runs given the same inputs share (see _once)
    energy: net.EnergyLedger = field(default_factory=net.EnergyLedger)
    dependability: mod.DependabilityReport = field(default_factory=mod.DependabilityReport)
    detections_rows: list = field(default_factory=list)
    reconstruction_rows: list = field(default_factory=list)
    mode_rows: list = field(default_factory=list)
    baseline_rounds: list = field(default_factory=list)  # (curvature, frequency) per round
    model: det.CorrelationModel | None = None
    baseline: mod.CurvatureBaseline | None = None


def _once(run: _Run, compute, step: str, *inputs):
    """``compute()``, or the result another run of the round got from the very same ``inputs``.

    Runs share a result only when they pass the same objects, never merely equal
    ones, so a view that a run made for itself is its own. The entry keeps its
    inputs alive, which keeps their ids unique until the round's entries are cleared.
    """
    key = (step, *map(id, inputs))
    if key not in run.shared:
        run.shared[key] = (inputs, compute())
    return run.shared[key][1]


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
        n_neighbors = len(run.cfg.graph.neighbors[ch])
        if policy.distributed:
            traffic = [net.Transmission(raw_bits, cfg.topology.r_min)]
            pairs = n_neighbors if d < cfg.training_rounds else 2 * n_neighbors
            comp = pairs * _ops_mi_pair(cfg.window, cfg.detection.bins)
        else:
            traffic = [_send_to_bs(run.energy, d, run.bs_hops[ch], raw_bits, params)]
            comp = 0.0
        if policy.reports:
            comp += _ops_welch(cfg.window, cfg.modal.segment_length)
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


def _extract(run: _Run, d: int, windows: dict, before=None) -> list:
    """Every node's local modes from ``windows``; a node without a window reports none.

    ``before`` is the round's raw ``(view, estimates)``: a node whose own and
    reference windows are unchanged since then keeps its raw estimate.
    """
    estimates, pairs = [], {}  # pairs: node -> (window, reference window) still to extract
    for ch in range(run.cfg.n_nodes):
        # the lowest-id node in hearing range fixes the cross-spectrum sign
        ref = min([ch] + run.cfg.graph.neighbors[ch])
        if before is not None and windows[ch] is before[0][ch] and windows[ref] is before[0][ref]:
            estimates.append(before[1][ch])
        elif windows[ch] is None:
            estimates.append(mod.LocalModeEstimate(ch, d, np.empty(0), np.empty(0), ch))
        else:
            estimates.append(None)
            pairs[ch] = (windows[ch], windows[ref])
    for ch, estimate in zip(pairs, mod.extract_round_modes(list(pairs.values()), run.cfg.modal)):
        estimates[ch] = estimate
    return estimates


def _assemble(run: _Run, d: int, estimates: list, *stages):
    """Assemble ``estimates`` at the BS and record the shape once under each of ``stages``.

    A failed assembly records nothing and returns None.
    """
    cfg = run.cfg

    def assemble():
        try:
            return mod.assemble_global(
                estimates, tolerance_hz=cfg.tolerance_hz, n_locations=cfg.n_nodes, round_index=d
            )
        except mod.ModalError:
            return None

    shape = _once(run, assemble, "assemble", *estimates)
    if shape is None:
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
    neighbors = run.cfg.graph.neighbors
    pairs = sorted({det.CorrelationModel.pair_key(i, j) for i in neighbors for j in neighbors[i]})
    run.model = _once(
        run,
        lambda: det.train_correlation_model(run.training_windows, cfg.detection, pairs=pairs),
        "train",
        *(w for windows in run.training_windows.values() for w in windows),
    )
    if len(run.baseline_rounds) >= 2:
        curvatures, frequencies = zip(*run.baseline_rounds)
        try:
            run.baseline = mod.CurvatureBaseline.from_rounds(
                curvatures, frequencies[-1] or cfg.base_frequency
            )
        except mod.ModalError:
            pass  # no location has a round-to-round spread: damage stays unscored


def _detect(run: _Run, d: int, view: dict, estimates: list) -> dict:
    """Each node's verdict for the round: MI detection, or the NFMC frequency check."""
    if not run.policy.frequency_matching:
        shared = _once(
            run,
            lambda: det.detection_round(
                view, run.cfg.graph.neighbors, run.model, run.cfg.detection, round_index=d
            ),
            "detect",
            view,
            run.model,
        )
        return dict(shared)  # the scan relabels verdicts in its run's copy
    # NFMC-style baseline: flag nodes whose peak frequency mismatches the consensus
    peaks = {e.sensor_id: None if e.is_empty else float(e.frequencies[0]) for e in estimates}
    present = [f for f in peaks.values() if f is not None]
    consensus = float(np.median(present)) if present else 0.0
    decisions = {}
    for ch, f in sorted(peaks.items()):
        bad = f is None or abs(f - consensus) > run.cfg.tolerance_hz
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
        node_set = sorted({ch, *run.cfg.graph.neighbors[ch]})
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
        scan_ops = len(node_set) * _ops_kf(cfg.window, _kf_state_dim(cfg, node_set))
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
            ([ch], sorted([ch] + [j for j in run.cfg.graph.neighbors[ch] if j not in flagged]))
            for ch in flagged
        ]
    else:
        batches = [(flagged, list(range(cfg.n_nodes)))]
    outcomes = kal.reconstruct_round(
        [(faulty, {c: view[c] for c in scope}) for faulty, scope in batches],
        cfg.spec,
        round_index=d,
        config=cfg.reconstruction,
        noise_var=run.noise_var,
        truth=truth,
    )
    for (faulty, scope), results in zip(batches, outcomes):
        if isinstance(results, kal.KalmanError):
            continue
        if policy.distributed:
            helper = min(c for c in scope if c not in faulty)
            net.charge_round(
                run.energy,
                helper,
                [],
                _ops_kf(cfg.window, _kf_state_dim(cfg, scope)),
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
    _assemble(run, d, estimates, "raw")
    stages = ("final",) if run.policy.reports else ()
    return _assemble(run, d, _extract(run, d, final, (view, estimates)), *stages)


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


def _execute(configs: list, out_dirs: list) -> list:
    """Run validated configs that differ only in mode in one round loop, in lockstep.

    Each round's structure response, sensing and faults are computed once for
    every run. Runs whose transport hands the detector the round's delivered
    windows as they are also share the raw mode estimates, the MI model, MI
    detection and every assembly of the same estimates: the raw and baseline
    ones, and a final one that replaced no estimate (see ``_once``). Each run
    keeps its own loss stream, energy ledger, scans, reconstructions and final
    extraction. Writes each run's artifacts into its ``out_dirs`` entry and
    returns each run's (manifest, summary).
    """
    cfg = configs[0]
    for out_dir in out_dirs:
        os.makedirs(out_dir, exist_ok=True)
    sim = _Simulator(cfg)
    profiles, fault_schedule = resolve_fault_profiles(cfg, sim.signal_rms)
    damage_schedule = [] if cfg.damage is None else [dict(cfg.damage)]
    routes = net.shortest_path_routes(cfg.graph.routing, net.BS)
    bs_hops = {}
    for ch in range(cfg.n_nodes):
        path = routes[ch]
        bs_hops[ch] = [(a, b, cfg.topology.distance(a, b)) for a, b in zip(path[:-1], path[1:])]
    noise_var = {ch: float(sim.noise_std[ch] ** 2) for ch in range(cfg.n_nodes)}
    shared = {}
    runs = [
        _Run(
            cfg=config,
            policy=_POLICIES[config.mode],
            bs_hops=bs_hops,
            noise_var=noise_var,
            loss_rng=np.random.default_rng(np.random.SeedSequence([cfg.seed, _LOSS])),
            fault_schedule=fault_schedule,
            damage_schedule=damage_schedule,
            training_windows={ch: [] for ch in range(cfg.n_nodes)},
            shared=shared,
        )
        for config in configs
    ]

    for d in range(cfg.total_rounds):
        clean, windows = sim.measured_round(d)
        active = [p for p, e in zip(profiles, fault_schedule) if _fault_active(e, d)]
        delivered = {ch: sen.apply_faults(windows[ch], active) for ch in windows}
        shared.clear()
        for run in runs:
            view = _transport(run, d, delivered)
            estimates = _once(run, lambda: _extract(run, d, view), "extract", view)
            if d < cfg.training_rounds:
                _train(run, d, view, estimates)
                continue
            decisions = _detect(run, d, view, estimates)
            _scan(run, d, view, decisions)
            flagged = sorted(
                ch for ch, dc in decisions.items() if dc.verdict in ("faulty", "missing")
            )
            final = _reconstruct(run, d, view, flagged, clean)
            shape = _modal(run, d, view, final, estimates)
            _score(run, d, decisions, flagged, shape)
    return [_write_outputs(run, out_dir) for run, out_dir in zip(runs, out_dirs)]


def _write_outputs(run: _Run, out_dir: str):
    """Write one run's CSV tables, summary and manifest; return (manifest, summary)."""
    cfg, fault_schedule = run.cfg, run.fault_schedule
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
        damage_schedule=run.damage_schedule,
        outputs=outputs,
    )
    for name, payload in (("summary", summary), ("manifest", manifest.to_dict())):
        with open(os.path.join(out_dir, outputs[name]), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return manifest, summary


def run_scenario(config, out_dir: str) -> RunManifest:
    """Execute a full scenario and write the CSV artifacts into ``out_dir``."""
    if isinstance(config, dict):
        config, _ = validate_config(config)
    return _execute([config], [out_dir])[0][0]


def compare_schemes(config, modes, out_dir: str) -> str:
    """Run each mode on identical seeds and write a comparison table.

    Returns the path of the comparison CSV. Each mode's full artifacts land in
    ``out_dir/<mode>/``, byte-identical to that mode's own ``run_scenario``.
    Every mode is validated before anything is written, so a ``ConfigError``
    leaves ``out_dir`` untouched. The modes then run together in one round
    loop: the structure response, the sensing and the faults of a round are
    computed once for all of them. Modes whose detector sees the delivered
    windows as they are (every distributed mode, and every mode when
    ``energy.packet_loss`` is 0) also share the raw mode estimates, their raw
    and baseline assemblies, the MI model and MI detection; a centralized mode
    with losses computes its own. Warnings from shared steps, such as training's
    ``DegenerateSignalWarning``, are raised once per comparison, not once per mode.
    """
    base_raw = config if isinstance(config, dict) else config.raw
    configs = []
    for mode in modes:
        if mode not in MODES:
            raise ConfigError([f"compare: mode {mode!r} is not one of {MODES}"])
        configs.append(validate_config({**base_raw, "mode": mode})[0])
    out_dirs = [os.path.join(out_dir, mode) for mode in modes]
    results = _execute(configs, out_dirs) if configs else []
    columns = [
        "detection_accuracy",
        "event_detection_ability",
        "mean_lambda_healthy",
        "mean_lambda_faulty",
        "energy_communication_j",
        "energy_total_j",
        "fault_round_surcharge",
    ]
    rows = [
        [mode] + ["" if s[c] is None else s[c] for c in columns]
        for mode, (_, s) in zip(modes, results)
    ]
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
