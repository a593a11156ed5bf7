"""End-to-end harness tests: validation, determinism, outputs, CLI."""

import hashlib
import json
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fault_only_config,
    field_config,
    missing_node_config,
    null_config,
    read_rows,
    read_summary,
    standard_config,
)
from shmsim import detection, kalman, modal, scenario, sensing, structure
from shmsim.cli import main as cli_main
from shmsim.network import IsolatedNodeWarning
from shmsim.scenario import (
    MODES,
    ConfigError,
    compare_schemes,
    emit_plotdata,
    run_scenario,
    validate_config,
)


def fast_config(seed=1, **overrides):
    cfg = {
        "seed": seed,
        "mode": "dependshm",
        "monitoring": {"training_rounds": 5, "rounds": 2, "n_averages": 10, "segment_length": 100},
        "detection": {"R": 4},
        "faults": [{"kind": "stuck_constant", "sensor_id": 5, "onset_round": 5}],
        "damage": None,
    }
    cfg.update(overrides)
    return cfg


def silent_neighborhood_config(mode="dependshm"):
    """Sensors 3-7 go silent, so node 5's scan neighbourhood delivers nothing."""
    return {
        "seed": 1,
        "mode": mode,
        "monitoring": {"training_rounds": 12, "rounds": 1, "n_averages": 15, "segment_length": 256},
        "faults": [{"kind": "missing", "sensor_id": s, "onset_round": 12} for s in range(3, 8)],
        "damage": None,
    }


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


CSV_FILES = (
    "detections.csv",
    "reconstructions.csv",
    "modes.csv",
    "energy.csv",
    "dependability.csv",
)


class TestValidation:
    def test_valid_config_resolves_defaults(self):
        config, resolved = validate_config(fast_config())
        assert resolved["monitoring"]["window"] == 550
        assert resolved["topology"]["r_min"] > 0
        assert config.base_frequency == pytest.approx(1.0, abs=0.01)

    def test_all_errors_reported_at_once(self):
        bad = {
            "mode": "warp_drive",
            "monitoring": {"training_rounds": 5, "rounds": 2, "n_averages": 10, "segment_length": 100},
            "detection": {"R": 4},
            "faults": [{"kind": "nope", "sensor_id": 5, "onset_round": 5}],
            "damage": {"location": 99, "severity": 3.0, "onset_round": 0},
        }
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        text = "; ".join(err.value.errors)
        for fragment in ("seed", "mode", "faults[0]", "damage"):
            assert fragment in text
        assert len(err.value.errors) >= 4

    def test_fault_during_training_rejected(self):
        cfg = fast_config()
        cfg["faults"][0]["onset_round"] = 2
        with pytest.raises(ConfigError, match="training"):
            validate_config(cfg)

    def test_resonant_forcing_rejected(self):
        cfg = fast_config()
        cfg["excitation"] = {"kind": "sine", "amplitude": 1.0, "frequency_factor": 1.0}
        with pytest.raises(ConfigError, match="resonance"):
            validate_config(cfg)

    @staticmethod
    def _with(path, value):
        """fast_config with the entry at ``path`` (keys or list indices) set to ``value``."""
        cfg = fast_config()
        node = cfg
        for key in path[:-1]:
            node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
        node[path[-1]] = value
        return cfg

    BAD_INPUTS = {
        "training_rounds_not_int": (
            ("monitoring", "training_rounds"), "abc", "monitoring.training_rounds"
        ),
        "band_one_edge": (("modal", "band"), [5], "modal.band"),
        # outside the averaging range sampling_points accepts
        "n_averages_below_range": (
            ("monitoring", "n_averages"), 5, "monitoring.n_averages: integer in [10, 20] required"
        ),
        "n_averages_above_range": (
            ("monitoring", "n_averages"), 25, "monitoring.n_averages: integer in [10, 20] required"
        ),
        "faults_as_dict": (("faults",), {"kind": "stuck_constant", "sensor_id": 5}, "faults:"),
        "seed_bool": (("seed",), True, "seed"),
        "section_not_mapping": (("monitoring",), 5, "monitoring: a mapping"),
        "duration_negative": (("faults", 0, "duration_rounds"), -3, "faults[0].duration_rounds"),
        "duration_not_int": (("faults", 0, "duration_rounds"), "x", "faults[0].duration_rounds"),
        "single_dof": (("structure", "n_dof"), 1, "structure: at least 2 DOF"),
        "isolated_nodes": (("topology", "r_min_factor"), 0.5, "topology: nodes [0, 1,"),
        # crashed the validator
        "ambient_fraction_str": (
            ("excitation", "ambient_fraction"), "x", "excitation.ambient_fraction:"
        ),
        "frequency_factor_str": (
            ("excitation", "frequency_factor"), "x", "excitation.frequency_factor:"
        ),
        "frequency_str": (("excitation", "frequency"), "x", "excitation.frequency:"),
        "noise_fraction_str": (("sensors", "noise_fraction"), "x", "sensors.noise_fraction:"),
        # passed validation, then crashed the run
        "amplitude_str": (("excitation", "amplitude"), "x", "excitation.amplitude:"),
        "bins_float": (("detection", "bins"), 4.5, "detection.bins:"),
        # removed key: neighbourhoods always come from topology.r_min
        "neighborhood_radius_removed": (
            ("detection", "neighborhood_radius"), 5.0, "detection.neighborhood_radius: unknown key"
        ),
        "scope_margin_negative": (
            ("reconstruction", "scope_margin"), -1, "reconstruction.scope_margin:"
        ),
        "bytes_per_sample_str": (
            ("energy", "bytes_per_sample"), "x", "energy.bytes_per_sample:"
        ),
        "stuck_value_str": (("faults", 0, "stuck_value"), "x", "faults[0].stuck_value:"),
        "drift_rate_str": (
            ("faults", 0),
            {"kind": "drift", "sensor_id": 5, "onset_round": 5, "drift_rate": "fast"},
            "faults[0].drift_rate:",
        ),
        "quantization_step_zero": (
            ("faults", 0),
            {
                "kind": "precision_degradation",
                "sensor_id": 5,
                "onset_round": 5,
                "quantization_step": 0,
            },
            "faults[0].quantization_step:",
        ),
        "gain_negative": (
            ("faults", 0),
            {"kind": "debonding_gain", "sensor_id": 5, "onset_round": 5, "gain": -1},
            "faults[0].gain:",
        ),
        # silently truncated to an int
        "damage_location_float": (
            ("damage",), {"location": 1.5, "severity": 0.2, "onset_round": 5}, "damage.location:"
        ),
        "damage_onset_float": (
            ("damage",), {"location": 1, "severity": 0.2, "onset_round": 5.7}, "damage.onset_round:"
        ),
        "R_float": (("detection", "R"), 2.5, "detection.R:"),
        "scope_margin_float": (
            ("reconstruction", "scope_margin"), 2.7, "reconstruction.scope_margin:"
        ),
        # silently ignored or replaced
        "fault_parameters": (
            ("faults", 0, "parameters"), {"stuck_value": 2.0}, "faults[0].parameters:"
        ),
        "section_key_typo": (("reconstruction", "scope_margn"), 2, "reconstruction.scope_margn:"),
        "top_level_typo": (("monitorng",), {"rounds": 3}, "monitorng:"),
        "excitation_location": (("excitation", "location"), 3, "excitation.location:"),
        "r_min_zero": (("topology", "r_min"), 0, "topology.r_min:"),
        # contradicted or ignored next to explicit masses/stiffnesses
        "n_dof_disagrees_with_masses": (
            ("structure",),
            {"n_dof": 4, "masses": [1000.0] * 6, "stiffnesses": [1.769e6] * 6},
            "structure.n_dof: masses and stiffnesses make it 6",
        ),
        "mass_beside_masses": (
            ("structure",),
            {"mass": 900.0, "masses": [1000.0] * 6, "stiffnesses": [1.769e6] * 6},
            "structure.mass: unused",
        ),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_raises_config_error(self, case):
        path, value, fragment = self.BAD_INPUTS[case]
        with pytest.raises(ConfigError) as err:
            validate_config(self._with(path, value))
        assert any(fragment in e for e in err.value.errors), err.value.errors

    def test_isolated_node_warned_once_per_run(self, tmp_path):
        cfg = fast_config(mode="frequency_matching_baseline", topology={"r_min": 30.0})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_scenario(cfg, str(tmp_path / "fm"))
        messages = [str(w.message) for w in caught if issubclass(w.category, IsolatedNodeWarning)]
        assert len(messages) == len(set(messages)) == 10  # every node, once each

    def test_isolated_nodes_allowed_without_mi_detection(self, tmp_path):
        """The frequency-matching baseline compares no neighbour pairs, so it still runs."""
        cfg = fast_config(mode="frequency_matching_baseline", topology={"r_min_factor": 0.5})
        run_scenario(cfg, str(tmp_path / "fm"))
        assert read_rows(tmp_path / "fm" / "detections.csv")

    def test_bad_inputs_listed_together(self):
        cfg = fast_config(seed=True, modal={"band": [5]})
        cfg["faults"] = [
            {"kind": "stuck_constant", "sensor_id": 5, "onset_round": 5, "duration_rounds": -3},
            {"kind": "offset_bias", "sensor_id": 2, "onset_round": 5, "duration_rounds": "x"},
        ]
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert [e.split(":")[0] for e in err.value.errors] == [
            "seed", "faults[0].duration_rounds", "faults[1].duration_rounds", "modal.band"
        ]

    # values that break a row's type or bound: wrong types, bools, floats for
    # ints, zero, negatives, null, non-finite numbers, short and long lists
    BAD_VALUES = st.one_of(
        st.sampled_from([None, True, False, "x", [], [1.0], [2.0, 1.0, 3.0], {}]),
        st.integers(-3, 30),
        st.floats(allow_nan=True, allow_infinity=True),
    )

    @staticmethod
    @st.composite
    def mutated_configs(draw):
        """fast_config (with damage) with one to three of the table's keys broken."""
        cfg = fast_config(damage={"location": 4, "severity": 0.2, "onset_round": 6})
        for _ in range(draw(st.integers(1, 3))):
            path, *_ = draw(st.sampled_from(scenario._FIELDS))
            head, _, key = path.rpartition(".")
            node = cfg
            if head.startswith("faults["):  # a fault-entry row: break the first entry
                faults = cfg["faults"]
                node = faults[0] if isinstance(faults, list) and faults else None
                kind = head[len("faults["):-1]
                if kind and isinstance(node, dict):
                    node["kind"] = kind
            elif head:
                node = cfg.setdefault(head, {})
            if not isinstance(node, dict):
                continue  # an earlier mutation replaced the parent
            action = draw(st.sampled_from(["value", "drop", "unknown sibling"]))
            if action == "value":
                node[key] = draw(TestValidation.BAD_VALUES)
            elif action == "drop":
                node.pop(key, None)
            else:
                node[key + "_typo"] = 1
        return cfg

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(cfg=mutated_configs())
    def test_validator_returns_or_raises_config_error(self, cfg):
        """Whatever a config holds, validation either resolves it or lists why not."""
        try:
            validate_config(cfg)
        except ConfigError as err:
            assert err.errors


class TestRunContract:
    """A config either fails validation with ConfigError or runs to completion in every mode."""

    @staticmethod
    @st.composite
    def lossy_faulty_configs(draw):
        """fast_config with packet loss, faults of any kind on up to every node and any
        reconstruction config: inflation at both ends, either scope, a margin past the chain."""
        cfg = fast_config(seed=draw(st.integers(1, 12)))
        cfg["energy"] = {"packet_loss": draw(st.floats(0.0, 0.5))}
        cfg["reconstruction"] = {
            "variance_inflation": draw(st.sampled_from([1.0, 1e9, 1e300])),
            "model_scope": draw(st.sampled_from(["neighborhood", "full"])),
            "scope_margin": draw(st.integers(0, 12)),
            "scan_report_ratio": draw(st.floats(0.0, 2.0)),
        }
        cfg["faults"] = []
        for node in draw(st.lists(st.integers(0, 9), unique=True, max_size=10)):
            fault = {
                "kind": draw(st.sampled_from(sensing.FAULT_KINDS)),
                "sensor_id": node,
                "onset_round": draw(st.integers(5, 6)),
            }
            if draw(st.booleans()):
                fault["duration_rounds"] = draw(st.integers(1, 2))
            cfg["faults"].append(fault)
        return cfg

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(cfg=lossy_faulty_configs())
    def test_validated_config_completes_in_every_mode(self, cfg):
        """Each mode completes alone, and one comparison over every mode writes each mode's
        lone tree byte for byte; with losses the centralized modes see views of their own,
        which are not shared."""
        try:
            validate_config(cfg)
        except ConfigError as err:
            assert err.errors
            return
        with tempfile.TemporaryDirectory() as out:
            root = pathlib.Path(out)
            compare_schemes(cfg, MODES, str(root / "cmp"))
            for mode in MODES:
                run_scenario(dict(cfg, mode=mode), str(root / mode))
                lone = sorted(p.name for p in (root / mode).iterdir())
                assert sorted(p.name for p in (root / "cmp" / mode).iterdir()) == lone
                for name in lone:
                    assert (root / "cmp" / mode / name).read_bytes() == (
                        root / mode / name
                    ).read_bytes(), (mode, name)

    def test_lossy_training_without_baseline_spread_completes(self, tmp_path):
        """No location keeps two finite baseline curvatures: no baseline, no damage, no warning."""
        cfg = fast_config(9, mode="raw_centralized", energy={"packet_loss": 0.4})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_scenario(cfg, str(tmp_path))
        rows = read_rows(tmp_path / "dependability.csv")
        assert all(int(r["damage_tp"]) + int(r["damage_fp"]) == 0 for r in rows)


class TestDeterminism:
    @pytest.mark.parametrize("mode", MODES)
    def test_rerun_is_byte_identical(self, tmp_path, mode):
        run_scenario(fast_config(mode=mode), str(tmp_path / "a"))
        run_scenario(fast_config(mode=mode), str(tmp_path / "b"))
        for name in CSV_FILES + ("manifest.json", "summary.json"):
            assert _digest(tmp_path / "a" / name) == _digest(tmp_path / "b" / name), name

    def test_manifest_round_trip(self, tmp_path):
        six_masses = fast_config(structure={"masses": [1000.0] * 6, "stiffnesses": [1.769e6] * 6})
        for i, cfg in enumerate((fast_config(), six_masses)):
            a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
            run_scenario(cfg, str(a))
            with open(a / "manifest.json") as fh:
                echoed = json.load(fh)["config"]
            run_scenario(echoed, str(b))
            for name in CSV_FILES:
                assert _digest(a / name) == _digest(b / name), name
        # the echo names the structure that ran, not the unused uniform-chain defaults
        assert echoed["structure"]["n_dof"] == 6
        assert "mass" not in echoed["structure"] and "stiffness" not in echoed["structure"]

    def test_seed_changes_outputs(self, tmp_path):
        run_scenario(fast_config(seed=1), str(tmp_path / "a"))
        run_scenario(fast_config(seed=2), str(tmp_path / "b"))
        assert _digest(tmp_path / "a" / "detections.csv") != _digest(
            tmp_path / "b" / "detections.csv"
        )


class TestFaultClock:
    """A fault covers whole rounds: from its onset round's first sample to its last round's end."""

    def test_finite_fault_does_not_spill_into_the_next_round(self, tmp_path):
        cfg = {
            "seed": 1,
            "monitoring": {"training_rounds": 12, "rounds": 5},
            "faults": [
                {"kind": "missing", "sensor_id": 5, "onset_round": 14, "duration_rounds": 1}
            ],
            "damage": None,
        }
        run_scenario(cfg, str(tmp_path / "r"))
        verdicts = {
            (r["round"], r["node"]): (r["verdict"], r["truth"])
            for r in read_rows(tmp_path / "r" / "detections.csv")
        }
        assert verdicts["14", "5"] == ("missing", "1")
        assert verdicts["15", "5"] == ("non_faulty", "0")
        assert read_summary(tmp_path / "r")["detection_accuracy"] == 1.0

    def test_onset_is_the_window_start(self):
        """A 640-sample window at 0.02 s: 12 * 12.8 s is one ULP past the round-12 start."""
        cfg = fast_config()
        cfg["monitoring"].update(training_rounds=12, n_averages=19, segment_length=64)
        cfg["faults"][0]["onset_round"] = 12
        config, _ = validate_config(cfg)
        assert config.window == 640
        sim = scenario._Simulator(config)
        profiles, schedule = scenario.resolve_fault_profiles(config, sim.signal_rms)
        _, windows = sim.measured_round(12)
        assert schedule[0]["onset_s"] == windows[5].start_time
        stuck = sensing.apply_faults(windows[5], profiles)
        assert np.all(stuck.samples == profiles[0].stuck_value)


class TestModes:
    def test_no_recovery_has_empty_reconstructions(self, tmp_path):
        run_scenario(fast_config(mode="no_recovery"), str(tmp_path / "nr"))
        rows = read_rows(tmp_path / "nr" / "reconstructions.csv")
        assert rows == []

    def test_dependshm_reconstructs_the_stuck_channel(self, tmp_path):
        run_scenario(fast_config(), str(tmp_path / "d"))
        rows = read_rows(tmp_path / "d" / "reconstructions.csv")
        assert rows and all(r["node"] == "5" for r in rows)

    def test_silent_scan_neighborhood_keeps_faulty_verdict(self, tmp_path):
        """Sensors 3-7 go silent, so node 5's scan neighbourhood delivers nothing."""
        run_scenario(silent_neighborhood_config(), str(tmp_path / "s"))
        rows = read_rows(tmp_path / "s" / "detections.csv")
        assert {r["node"]: r["verdict"] for r in rows}["5"] == "faulty"

    def test_scan_energy_goes_to_a_delivering_node(self, tmp_path):
        """A silent node pays for no scan: its e_comp matches the scan-free no_recovery run."""
        e_comp = {}
        for mode in ("dependshm", "no_recovery"):
            run_scenario(silent_neighborhood_config(mode), str(tmp_path / mode))
            e_comp[mode] = {
                int(r["node"]): float(r["e_comp"])
                for r in read_rows(tmp_path / mode / "energy.csv")
                if r["round"] == "12"
            }
        for node in range(3, 8):
            assert e_comp["dependshm"][node] == e_comp["no_recovery"][node], node

    @pytest.mark.parametrize("mode", MODES)
    def test_degenerate_curvature_round_completes(self, tmp_path, mode):
        """Two of three sensors go silent: no curvature can be scored, so no damage is reported."""
        cfg = fast_config(mode=mode, structure={"n_dof": 3})
        cfg["monitoring"].update(training_rounds=6, rounds=1)
        cfg["faults"] = [{"kind": "missing", "sensor_id": s, "onset_round": 6} for s in (0, 1)]
        run_scenario(cfg, str(tmp_path / mode))
        rows = read_rows(tmp_path / mode / "dependability.csv")
        assert [(r["round"], r["damage_fp"], r["damage_tn"]) for r in rows] == [("6", "0", "3")]

    def test_frequency_matching_reads_the_raw_estimates(self, tmp_path, monkeypatch):
        """NFMC verdicts reuse the raw-stage local modes instead of extracting them again."""
        calls = []
        extract = modal.extract_round_modes

        def counting(pairs, config):
            calls.extend(window.sensor_id for window, _ in pairs)
            return extract(pairs, config)

        monkeypatch.setattr(modal, "extract_round_modes", counting)
        cfg = fast_config(mode="frequency_matching_baseline")
        run_scenario(cfg, str(tmp_path / "fm"))
        config, _ = validate_config(cfg)
        # one raw extraction per node and round, plus one final per node and test round
        assert len(calls) <= config.n_nodes * (config.total_rounds + config.test_rounds)

    def test_final_pass_extracts_only_replaced_windows(self, tmp_path, monkeypatch):
        """A node is extracted again only when its window or its reference's was replaced."""
        calls = []
        extract = modal.extract_round_modes

        def counting(pairs, config):
            calls.extend((window.round_index, window.sensor_id) for window, _ in pairs)
            return extract(pairs, config)

        monkeypatch.setattr(modal, "extract_round_modes", counting)
        cfg = fast_config()
        run_scenario(cfg, str(tmp_path / "run"))
        config, _ = validate_config(cfg)
        replaced = {d: set() for d in range(config.total_rounds)}
        for r in read_rows(tmp_path / "run" / "reconstructions.csv"):
            replaced[int(r["round"])].add(int(r["node"]))
        assert any(replaced.values())  # the stuck node is reconstructed
        neighbors = config.graph.neighbors
        expected = [(d, ch) for d in range(config.total_rounds) for ch in range(config.n_nodes)]
        expected += [
            (d, ch)
            for d in range(config.training_rounds, config.total_rounds)
            for ch in range(config.n_nodes)
            if {ch, min([ch] + neighbors[ch])} & replaced[d]
        ]
        assert sorted(calls) == sorted(expected)

    def test_round_zero_is_simulated_once(self, tmp_path, monkeypatch):
        """One sine response, then one ambient response per round: round 0's is reused."""
        calls = []
        simulate = structure.simulate_response

        def counting(spec, excitation):
            calls.append(excitation.kind)
            return simulate(spec, excitation)

        monkeypatch.setattr(structure, "simulate_response", counting)
        cfg = fast_config()
        run_scenario(cfg, str(tmp_path / "run"))
        config, _ = validate_config(cfg)
        assert sorted(calls) == ["sine"] + ["white_noise"] * config.total_rounds

    def test_filter_charges_honour_scope_margin(self, tmp_path, monkeypatch):
        """The scan and the reconstruction charge one state-dimension rule, margin included."""
        dims, scopes = [], []
        ops_kf = scenario._ops_kf

        def recording_ops(window, state_dim):
            dims.append(state_dim)
            return ops_kf(window, state_dim)

        def recording(fn, channels_of):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                scopes.append(channels_of(*args))
                return out

            return wrapped

        monkeypatch.setattr(scenario, "_ops_kf", recording_ops)
        monkeypatch.setattr(
            kalman, "missing_sensor_scan",
            recording(kalman.missing_sensor_scan, lambda node_set, *_: node_set),
        )
        round_entry = kalman.reconstruct_round

        def recording_round(jobs, *args, **kwargs):
            outcomes = round_entry(jobs, *args, **kwargs)
            scopes.extend(
                sorted(windows)
                for (_, windows), out in zip(jobs, outcomes)
                if not isinstance(out, kalman.KalmanError)
            )
            return outcomes

        monkeypatch.setattr(kalman, "reconstruct_round", recording_round)
        cfg = fast_config(
            faults=[{"kind": "missing", "sensor_id": 5, "onset_round": 5}],
            reconstruction={"scope_margin": 3},
        )
        run_scenario(cfg, str(tmp_path / "run"))
        assert len(scopes) >= 2 and len(dims) == len(scopes)
        assert dims == [2 * min(10, max(c) - min(c) + 1 + 2 * 3) for c in scopes]

    # mode -> (reports modes, recovers flagged channels)
    POLICY = {
        "dependshm": (True, True),
        "cshm_centralized": (True, True),
        "raw_centralized": (False, False),
        "no_recovery": (True, False),
        "frequency_matching_baseline": (True, False),
    }

    @pytest.mark.parametrize("mode", MODES)
    def test_policy_table_shapes_the_artifacts(self, tmp_path, mode):
        """Final mode rows iff the scheme reports modes; reconstructions iff it recovers."""
        reports, recovers = self.POLICY[mode]
        run_scenario(fast_config(mode=mode), str(tmp_path / mode))
        stages = {r["stage"] for r in read_rows(tmp_path / mode / "modes.csv")}
        assert ("final" in stages) == reports
        assert bool(read_rows(tmp_path / mode / "reconstructions.csv")) == recovers

    def test_compare_single_mode_matches_run_summary(self, tmp_path):
        table = compare_schemes(fast_config(), ["dependshm"], str(tmp_path / "cmp"))
        rows = read_rows(table)
        assert len(rows) == 1
        summary = json.load(open(tmp_path / "cmp" / "dependshm" / "summary.json"))
        assert float(rows[0]["detection_accuracy"]) == pytest.approx(
            summary["detection_accuracy"]
        )
        assert float(rows[0]["energy_total_j"]) == pytest.approx(summary["energy_total_j"])

    def test_compare_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigError):
            compare_schemes(fast_config(), ["dependshm", "teleport"], str(tmp_path / "x"))
        assert not (tmp_path / "x").exists()  # nothing written for the valid mode before it

    def test_compare_validates_every_mode_before_any_output(self, tmp_path):
        """An isolated node passes only the frequency-matching baseline's validation."""
        cfg = fast_config(topology={"r_min": 30.0})
        validate_config(dict(cfg, mode="frequency_matching_baseline"))
        with pytest.raises(ConfigError) as err:
            compare_schemes(cfg, ["frequency_matching_baseline", "dependshm"], str(tmp_path / "x"))
        assert any(e.startswith("topology:") for e in err.value.errors), err.value.errors
        assert not (tmp_path / "x").exists()

    def test_compare_computes_shared_work_once(self, tmp_path, monkeypatch):
        """Without losses every mode sees the same delivered windows: five modes simulate the
        structure as often as one lone run, and train one MI model between them."""
        calls = dict.fromkeys(("simulate_response", "train_correlation_model"), 0)
        counted = ((structure, "simulate_response"), (detection, "train_correlation_model"))
        for module, name in counted:

            def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        run_scenario(fast_config(), str(tmp_path / "lone"))
        lone = dict(calls)
        calls.update(dict.fromkeys(calls, 0))
        compare_schemes(fast_config(), MODES, str(tmp_path / "cmp"))
        assert lone["simulate_response"] > 1 and lone["train_correlation_model"] == 1
        assert calls == lone

    # (run, distinct filters); the missing node's scan candidate is the filter that
    # rebuilds it, so the two share one entry
    FILTER_RUNS = [
        (lambda out: run_scenario(standard_config(1), out), 2),
        (lambda out: run_scenario(missing_node_config(1), out), 5),
        (lambda out: run_scenario(field_config(1, 0.2), out), 20),
        (lambda out: compare_schemes(standard_config(1), MODES, out), 3),
    ]

    @pytest.mark.parametrize(
        "run, distinct", FILTER_RUNS, ids=["standard", "missing_node", "field", "compare5"]
    )
    def test_one_solve_per_distinct_filter(self, tmp_path, monkeypatch, run, distinct):
        """Every filter reaches the doubling solve once per run (once per compare), scan
        candidates included: the systems solved equal the distinct (A, H, Q, R) filtered."""
        solved, filtered = [0], set()
        gains, runner = kalman._stationary_gains, kalman._run

        def counting_gains(a, h, q, r):
            solved[0] += len(r)
            return gains(a, h, q, r)

        def recording_run(filters, blocks):
            for f in filters:
                parts = (f.state.transition, f.state.measurement, f.state.process_noise,
                         f.state.measurement_noise)
                filtered.add(b"".join(part.tobytes() for part in parts))
            return runner(filters, blocks)

        monkeypatch.setattr(kalman, "_stationary_gains", counting_gains)
        monkeypatch.setattr(kalman, "_run", recording_run)
        run(str(tmp_path / "run"))
        assert solved[0] == len(filtered) == distinct

    def test_frequency_matching_baseline_misses_offsets(self, tmp_path):
        """The NFMC-style baseline cannot see faults that keep spectral peaks."""
        cfg = fast_config(mode="frequency_matching_baseline")
        cfg["faults"] = [{"kind": "offset_bias", "sensor_id": 5, "onset_round": 5}]
        run_scenario(cfg, str(tmp_path / "fm"))
        summary = read_summary(tmp_path / "fm")
        assert summary["detection_accuracy"] < 0.95

    def test_packet_loss_degrades_centralized_detection(self, tmp_path):
        """Lost raw windows never reach the BS and are not retransmitted."""
        base = fast_config(seed=2, mode="raw_centralized")
        base["monitoring"]["rounds"] = 4
        run_scenario(base, str(tmp_path / "clean"))
        lossy = dict(base)
        lossy["energy"] = {"packet_loss": 0.15}
        run_scenario(lossy, str(tmp_path / "lossy"))
        assert (
            read_summary(tmp_path / "lossy")["detection_accuracy"]
            < read_summary(tmp_path / "clean")["detection_accuracy"]
        )

    def test_centralized_mode_pays_for_raw_transport(self, tmp_path):
        run_scenario(fast_config(), str(tmp_path / "dep"))
        run_scenario(fast_config(mode="cshm_centralized"), str(tmp_path / "cshm"))
        dep = read_summary(tmp_path / "dep")
        cshm = read_summary(tmp_path / "cshm")
        assert cshm["energy_communication_j"] > dep["energy_communication_j"]
        assert cshm["detection_accuracy"] == dep["detection_accuracy"]

    def test_confusion_counts_cover_every_location(self, tmp_path):
        run_scenario(fast_config(), str(tmp_path / "d"))
        for r in read_rows(tmp_path / "d" / "dependability.csv"):
            fault_sum = sum(int(r[k]) for k in ("fault_tp", "fault_fp", "fault_fn", "fault_tn"))
            damage_sum = sum(
                int(r[k]) for k in ("damage_tp", "damage_fp", "damage_fn", "damage_tn")
            )
            assert fault_sum == 10
            assert damage_sum == 10

    def test_faults_never_cheapen_processing_energy(self, run_cached):
        """Reconstruction work only ever adds to e_comp + e_oh."""
        from conftest import fault_only_config, null_config

        clean = run_cached("null_1", null_config(1))
        faulty = run_cached("faultonly_1", fault_only_config(1))
        def per_round(run_dir):
            totals = {}
            for r in read_rows(run_dir / "energy.csv"):
                d = int(r["round"])
                totals[d] = totals.get(d, 0.0) + float(r["e_comp"]) + float(r["e_oh"])
            return totals
        clean_rounds = per_round(clean)
        faulty_rounds = per_round(faulty)
        shared = sorted(set(clean_rounds) & set(faulty_rounds))
        fault_onset = fault_only_config(1)["faults"][0]["onset_round"]
        for d in shared:
            if d >= fault_onset:
                assert faulty_rounds[d] >= clean_rounds[d] - 1e-12


class TestPlotData:
    def test_lambda_series_crosses_threshold_at_onset(self, tmp_path):
        cfg = fast_config()
        cfg["monitoring"]["rounds"] = 3
        cfg["faults"][0]["onset_round"] = 6  # one round into the test phase
        out = tmp_path / "run"
        run_scenario(cfg, str(out))
        path = emit_plotdata(str(out), "lambda")
        rows = read_rows(path)
        series = {int(r["round"]): float(r["node5"]) for r in rows}
        assert series[5] <= 0.5
        assert series[6] > 0.5 and series[7] > 0.5

    def test_energy_plot_sums_match_ledger(self, tmp_path):
        out = tmp_path / "run"
        run_scenario(fast_config(), str(out))
        path = emit_plotdata(str(out), "energy")
        plot_rows = read_rows(path)
        ledger_rows = read_rows(out / "energy.csv")
        for row in plot_rows:
            d = row["round"]
            expected = sum(float(r["total"]) for r in ledger_rows if r["round"] == d)
            assert float(row["total"]) == pytest.approx(expected, rel=1e-12)

    def test_modeshape_plot_fault_free_baseline_matches_current(
        self, tmp_path, run_cached
    ):
        out = run_cached("null_1", null_config(1))
        path = emit_plotdata(str(out), "modeshape", str(tmp_path / "shape.csv"))
        rows = read_rows(path)
        for r in rows:
            if r["baseline"] and r["final"]:
                assert abs(float(r["baseline"]) - float(r["final"])) < 0.05

    def test_accuracy_plot_over_run_directory(self, tmp_path):
        for seed in (1, 2):
            run_scenario(fast_config(seed=seed), str(tmp_path / f"s{seed}"))
        path = emit_plotdata(str(tmp_path), "accuracy")
        rows = read_rows(path)
        assert len(rows) == 2
        assert all(0.0 <= float(r["detection_accuracy"]) <= 1.0 for r in rows)

    def test_unknown_plot_key_lists_options(self, tmp_path):
        with pytest.raises(ConfigError, match="lambda"):
            emit_plotdata(str(tmp_path), "spectrogram")


class TestCli:
    def _write(self, tmp_path, cfg):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        assert cli_main(["validate", self._write(tmp_path, fast_config())]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_validate_reports_machine_readable_errors(self, tmp_path, capsys):
        bad = fast_config()
        bad["mode"] = "nope"
        assert cli_main(["validate", self._write(tmp_path, bad)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid scenario"
        assert any("mode" in d for d in err["details"])

    def test_run_and_plot(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, fast_config())
        out_dir = str(tmp_path / "out")
        assert cli_main(["run", cfg_path, "--seed", "3", "--out", out_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"]
        manifest = json.load(open(tmp_path / "out" / "manifest.json"))
        assert manifest["seed"] == 3  # --seed overrides the config
        assert cli_main(["plot", out_dir, "--which", "energy"]) == 0

    def test_compare_cli(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, fast_config())
        out_dir = str(tmp_path / "cmp")
        code = cli_main(
            ["compare", cfg_path, "--modes", "dependshm,no_recovery", "--out", out_dir]
        )
        assert code == 0
        rows = read_rows(json.loads(capsys.readouterr().out)["table"])
        assert [r["mode"] for r in rows] == ["dependshm", "no_recovery"]

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli_main(["validate", str(tmp_path / "nope.json")]) == 2
