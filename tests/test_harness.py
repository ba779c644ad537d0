import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corridorsim
from corridorsim import channel, cli, harness
from corridorsim.allocator import (
    MAX_ARRAY_SIDE,
    MAX_BEAMS,
    MAX_CANDIDATES,
    MAX_D_H_WAVELENGTHS,
    MAX_STACKED,
    MAX_TRIPLETS,
)
from corridorsim.antenna import (
    AntennaConfig,
    SteeringDirection,
    _fold_and_sines,
    array_gain,
    element_gain,
    vertical_weight,
)
from corridorsim.channel import (
    _EXACT_RAY_LIMIT,
    ChannelProviderSpec,
    LinkGainTensor,
    export_tensor,
    import_tensor,
)
from corridorsim.cli import main as cli_main
from corridorsim.errors import ConfigurationError, OutputError, TensorFormatError
from corridorsim.geometry import generate_corridor, link_geometries
from corridorsim.harness import (
    ScenarioConfig,
    benchmark,
    config_digest,
    config_from_dict,
    config_to_dict,
    dumps_indent2,
    emit_reports,
    gain_sweep_rows,
    load_config,
    run_scenario,
    sweep,
    prepare_output_dir,
    validate_config,
    write_gain_sweep,
)
from oracles import non_finite_paths

SRC = os.path.dirname(os.path.dirname(corridorsim.__file__))


def cli_process(argv, *options):
    """`python *options -m corridorsim.cli *argv` in a fresh interpreter on this checkout."""
    path_list = [SRC, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_list))}
    return subprocess.run(
        [sys.executable, *options, "-m", "corridorsim.cli", *argv],
        env=env, capture_output=True, text=True,
    )


def small_config(seed=100, **overrides):
    """Quick scenario: 3 UAVs, 2 BSs, 4 beams."""
    cfg = ScenarioConfig(seed=seed)
    cfg.uav_count = 3
    cfg.bss = cfg.bss[:2]
    cfg.codebook = replace(cfg.codebook, n_beams=4)
    cfg.replications = 2
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestConfigPlumbing:
    def test_defaults_are_valid(self):
        assert validate_config(ScenarioConfig()) == []

    def test_round_trip_through_dict(self):
        cfg = ScenarioConfig(seed=7)
        doc = config_to_dict(cfg)
        back = config_from_dict(doc)
        assert config_to_dict(back) == doc
        assert config_digest(back) == config_digest(cfg)

    def test_load_config_file(self, tmp_path):
        cfg = small_config(seed=3)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        loaded = load_config(path)
        assert config_digest(loaded) == config_digest(cfg)

    def test_digest_changes_on_mutation(self):
        cfg = small_config()
        base = config_digest(cfg)
        cfg.uav_count = 4
        assert config_digest(cfg) != base

    def test_validation_lists_every_problem(self):
        cfg = small_config()
        cfg.uav_count = 0
        cfg.allocator = "magic"
        cfg.rf = replace(cfg.rf, tx_power_w=-1.0)
        cfg.replications = 0
        problems = validate_config(cfg)
        joined = "\n".join(problems)
        assert "uav_count" in joined
        assert "allocator" in joined
        assert "tx_power_w" in joined
        assert "replications" in joined
        assert len(problems) >= 4

    def test_infeasible_uav_count_message(self):
        cfg = small_config()
        cfg.uav_count = 9  # 2 BSs x 4 beams = 8 pairs
        problems = validate_config(cfg)
        assert any("9 UAVs" in p and "8 BS-beam pairs" in p for p in problems)

    def test_run_raises_on_invalid(self):
        cfg = small_config()
        cfg.replications = 0
        with pytest.raises(ConfigurationError, match="replications"):
            run_scenario(cfg)

    def test_default_boresights_point_at_center(self):
        cfg = ScenarioConfig()
        bs = cfg.bss[0]  # at (0, 0), center at (200, 200)
        assert bs.boresight_deg == 45.0

    def test_default_sites_aim_at_configured_center(self):
        cfg = config_from_dict({"corridor": {"center_x_m": 1000.0, "center_y_m": 1000.0}})
        # sites at (0, 0), (400, 0), (400, 400), (0, 400)
        expect = [
            math.atan2(1000.0, 1000.0),
            math.atan2(1000.0, 600.0),
            math.atan2(600.0, 600.0),
            math.atan2(600.0, 1000.0),
        ]
        got = [bs.boresight_deg for bs in cfg.bss]
        assert got == [math.degrees(a) for a in expect]
        assert all(0.0 < b < 90.0 for b in got)

    def test_an_echo_with_the_annealer_still_loads(self):
        base = config_to_dict(small_config())
        doc = json.loads(json.dumps(base))
        doc["annealer"] = {"t_global": 10}
        loaded = config_from_dict(doc)
        assert config_to_dict(loaded) == base
        assert validate_config(loaded) == []

    def test_non_finite_numbers_rejected(self):
        doc = config_to_dict(small_config())
        doc["rf"]["tx_power_w"] = float("nan")
        doc["corridor"]["radius_m"] = float("inf")
        doc["bss"][1]["x_m"] = float("-inf")
        problems = validate_config(config_from_dict(doc))
        for field in ("rf.tx_power_w", "corridor.radius_m", "bss[1].x_m"):
            assert sum(p.startswith(f"{field} must be finite") for p in problems) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_float_key_names_itself_when_non_finite(self, bad):
        # The walk over the echo's two levels against the recursive walk over
        # any depth: the same messages in the same order, bss[i].* included.
        echo = config_to_dict(small_config())
        keys = [(section, key) for section, values in echo.items() if isinstance(values, dict)
                for key, value in values.items() if isinstance(value, float)]
        sites = [(i, key) for i, site in enumerate(echo["bss"])
                 for key, value in site.items() if isinstance(value, float)]
        assert len(keys) > 10 and len(sites) == 8
        every = json.loads(json.dumps(echo))
        for section, key in keys:
            doc = json.loads(json.dumps(echo))
            doc[section][key] = every[section][key] = bad
            assert self.finite_messages(doc) == [f"{section}.{key} must be finite, got {bad}"]
        for i, key in sites:
            doc = json.loads(json.dumps(echo))
            doc["bss"][i][key] = every["bss"][i][key] = bad
            assert self.finite_messages(doc) == [f"bss[{i}].{key} must be finite, got {bad}"]
        expect = [f"{path} must be finite, got {value}" for path, value in non_finite_paths(every)]
        assert len(expect) == len(keys) + len(sites)
        assert self.finite_messages(every) == expect

    @staticmethod
    def finite_messages(doc):
        return [p for p in validate_config(config_from_dict(doc)) if " must be finite, got " in p]

    def test_nesting_too_deep_to_parse(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ConfigurationError, match="cannot load config"):
            load_config(path)

    def test_wrong_type_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        for doc in ({"uav_count": "abc"}, {"uav_count": float("inf")}, {"rf": 5}):
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigurationError, match="cannot load config"):
                load_config(path)


class TestLinkBudgetOutsideTheFloats:
    """Inputs whose link budget leaves the floats end at validation or as `error: …`."""

    @pytest.mark.parametrize("provider", ["channel_hf"])
    @pytest.mark.parametrize("kind", ["few_ray", "statistical"])
    @pytest.mark.parametrize("k_db", [-4000.0, 4000.0])
    def test_rician_k_without_a_linear_value_is_rejected(self, provider, kind, k_db):
        cfg = small_config()
        setattr(cfg, provider, ChannelProviderSpec(kind=kind, ray_count=100, rician_k_db=k_db))
        assert validate_config(cfg) == [
            f"{provider}.rician_k_db must have a finite, positive linear value, got {k_db} dB"
        ]

    @pytest.mark.parametrize("k_db", [-3000.0, 3000.0])
    def test_extreme_representable_k_is_valid(self, k_db):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=100, rician_k_db=k_db)
        assert validate_config(small_config(channel_hf=spec)) == []

    @pytest.mark.parametrize("kind", ["few_ray", "statistical"])
    @pytest.mark.parametrize("k_db", [-4000, 4000])
    def test_cli_rejects_the_k_with_exit_1(self, tmp_path, capsys, kind, k_db):
        path = tmp_path / "cfg.json"
        doc = {"channel_hf": {"kind": kind, "rician_k_db": k_db}}
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert cli_main(["validate-config", "--config", str(path)]) == 1
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        expect = (
            "error: channel_hf.rician_k_db must have a finite, positive linear value, "
            f"got {float(k_db)} dB"
        )
        assert err == [expect, expect]
        assert not (out_dir / "results.json").exists()

    @pytest.mark.parametrize("carrier_hz", [1e-300, 1e-320])
    def test_carrier_without_a_finite_wavelength_is_rejected(self, carrier_hz):
        cfg = small_config()
        cfg.rf = replace(cfg.rf, carrier_hz=carrier_hz)
        assert validate_config(cfg) == [
            f"rf.carrier_hz must give a finite wavelength, got {carrier_hz}"
        ]

    @pytest.mark.parametrize(
        "doc, source",
        [
            ({"rf": {"carrier_hz": 2e-300}}, "channel_hf (statistical)"),
            (
                {"rf": {"carrier_hz": 2e-300}, "channel_hf": {"kind": "few_ray", "ray_count": 1}},
                "channel_hf (few_ray)",
            ),
            (
                {"channel_hf": {"kind": "few_ray", "ray_count": 100, "rician_k_db": -3200.0}},
                "channel_hf (few_ray)",
            ),
        ],
    )
    def test_non_finite_gains_end_as_an_error_naming_the_provider(
        self, tmp_path, capsys, doc, source
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert cli_main(["validate-config", "--config", str(path)]) == 0
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {source} gave non-finite or negative power gains"
        ]
        assert not (out_dir / "results.json").exists()

    @pytest.mark.parametrize(
        "doc, source",
        [
            ({"rf": {"carrier_hz": 2e-300}}, "channel_hf (statistical)"),
            (
                {"rf": {"carrier_hz": 2e-300}, "channel_hf": {"kind": "few_ray", "ray_count": 10}},
                "channel_hf (few_ray)",
            ),
        ],
    )
    def test_overflowing_link_budget_prints_only_the_error(self, tmp_path, doc, source):
        # A fresh interpreter with warnings shown: pytest would record numpy's
        # RuntimeWarnings instead of letting them reach stderr.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        process = cli_process(argv, "-W", "default")
        assert process.returncode == 1
        assert process.stderr == f"error: {source} gave non-finite or negative power gains\n"


class TestStage1SizeBounds:
    """Stage 1's arrays grow with n_h, d_h, n_beams, M * L * N and M * L x candidates per link.

    So all five are bounded.
    """

    def test_the_bounds_are_valid(self):
        antenna = {"n_h": MAX_ARRAY_SIDE, "n_v": MAX_ARRAY_SIDE,
                   "d_h_wavelengths": MAX_D_H_WAVELENGTHS}
        doc = {"antenna": antenna, "codebook": {"n_beams": MAX_BEAMS}}
        assert validate_config(config_from_dict(doc)) == []
        # 1 024 UAVs x 4 BSs x 256 beams is MAX_TRIPLETS exactly.
        doc = {"uav_count": 1024, "codebook": {"n_beams": MAX_TRIPLETS // 4096}}
        assert validate_config(config_from_dict(doc)) == []

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"antenna": {"n_h": MAX_ARRAY_SIDE + 1}},
             f"antenna.n_h must be <= {MAX_ARRAY_SIDE}, got {MAX_ARRAY_SIDE + 1}"),
            ({"antenna": {"n_v": 10**9}},
             f"antenna.n_v must be <= {MAX_ARRAY_SIDE}, got 1000000000"),
            ({"antenna": {"d_h_wavelengths": 1e6}},
             f"antenna.d_h_wavelengths must be <= {MAX_D_H_WAVELENGTHS}, got 1000000.0"),
            ({"codebook": {"n_beams": 10**9}},
             f"codebook.n_beams must be <= {MAX_BEAMS}, got 1000000000"),
            ({"uav_count": 4096, "codebook": {"n_beams": MAX_BEAMS}},
             f"uav_count x bss x codebook.n_beams must be <= {MAX_TRIPLETS} stage-1 triplets, "
             f"got {4096 * 4 * MAX_BEAMS}"),
            # MAX_TRIPLETS links of 2 648 scan candidates each, ~22 GB in one array.
            ({"uav_count": 1024, "bss": [{"x_m": 0.0, "y_m": 0.0, "z_m": 25.0}] * 1024,
              "codebook": {"n_beams": 1},
              "antenna": {"n_h": MAX_ARRAY_SIDE, "d_h_wavelengths": MAX_D_H_WAVELENGTHS}},
             "uav_count x bss x 2648 scan candidates per link (set by antenna.n_h, "
             f"antenna.d_h_wavelengths and antenna.tilt_deg) must be <= {MAX_CANDIDATES}, "
             f"got {MAX_TRIPLETS * 2648}"),
        ],
        ids=["n_h", "n_v", "d_h", "n_beams", "triplets", "candidates"],
    )
    def test_cli_rejects_an_oversized_stage1_input_with_exit_1(
        self, tmp_path, capsys, doc, message
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert validate_config(load_config(path)) == [message]
        assert cli_main(["validate-config", "--config", str(path)]) == 1
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        assert cli_main(["gain-sweep", "--config", str(path), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"] * 3
        assert not out_dir.exists()


class TestRunScenario:
    def test_single_link_completes(self):
        cfg = small_config(seed=5)
        cfg.uav_count = 1
        cfg.bss = cfg.bss[:1]
        cfg.codebook = replace(cfg.codebook, n_beams=1)
        cfg.replications = 1
        result = run_scenario(cfg)
        assert len(result.reports) == 1
        assert result.reports[0].per_uav_rate_bps.shape == (1,)
        assert result.stage1_evals > 0
        assert result.stage1_seconds > 0

    def test_deterministic_repeat(self):
        cfg = small_config(seed=8)
        r1 = run_scenario(cfg)
        r2 = run_scenario(cfg)
        assert r1.to_dict() == r2.to_dict()

    def test_evaluation_folds_the_links_once_per_run(self, monkeypatch):
        # Stage 1 folds the link array, and the run scores interference on the
        # table's fold; every module that holds one of the folding functions
        # is counted, the allocator's and the antenna's own included. Every
        # fold, `scan_coefficients` too, goes through `_fold_and_sines`.
        calls = Counter()

        def counting(fn):
            def counted(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return counted

        for fn in (_fold_and_sines, element_gain, vertical_weight):
            for name, module in list(sys.modules.items()):
                if name.startswith("corridorsim.") and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, counting(fn))
        runs = [("two_stage", "hf"), ("two_stage", "statistical"), ("closest_bs", "lf"),
                ("random", "hf")]
        for allocator, channel_axis in runs:
            calls.clear()
            cfg = small_config(seed=14, replications=4, allocator=allocator,
                               allocation_channel=channel_axis)
            assert len(run_scenario(cfg).reports) == 4
            assert calls == {"_fold_and_sines": 1, "element_gain": 1, "vertical_weight": 1}

    def test_links_are_built_once_per_run(self, monkeypatch):
        # Stage 1 builds the link array, and the run reuses the table's; every
        # module that holds link_geometries is counted, the allocator's included.
        calls = []

        def counted(*args):
            calls.append(args)
            return link_geometries(*args)

        for name, module in list(sys.modules.items()):
            if (name.startswith("corridorsim.")
                    and getattr(module, "link_geometries", None) is link_geometries):
                monkeypatch.setattr(module, "link_geometries", counted)
        runs = [("two_stage", "hf"), ("two_stage", "statistical"), ("closest_bs", "lf"),
                ("random", "hf")]
        for allocator, channel_axis in runs:
            cfg = small_config(seed=15, replications=3, allocator=allocator,
                               allocation_channel=channel_axis)
            assert len(run_scenario(cfg).reports) == 3
        assert len(calls) == len(runs)

    @pytest.mark.parametrize("allocator", ["two_stage", "closest_bs", "random"])
    def test_chunking_does_not_change_bytes(self, tmp_path, monkeypatch, allocator):
        # Seven kTB few-ray replications in chunks of 1, 3 (3 + 3 + 1) and
        # all 7: every replication's tensors come from its own seeds.
        cfg = ScenarioConfig(seed=31, uav_count=12, replications=7, allocator=allocator)
        cfg.rf = replace(cfg.rf, noise_power_w=1.2e-13)
        cfg.channel_hf = replace(cfg.channel_hf, kind="few_ray", ray_count=10)
        cfg.allocation_channel = "lf"
        per_replication = cfg.uav_count * len(cfg.bss) * cfg.codebook.n_beams
        written = {}
        for bound in (per_replication, 3 * per_replication, MAX_STACKED):
            monkeypatch.setattr(harness, "MAX_STACKED", bound)
            chunk = harness._chunk_size(cfg)
            out = emit_reports([run_scenario(cfg)], tmp_path / f"c{chunk}")["results"]
            written[min(chunk, cfg.replications)] = out.read_bytes()
        assert list(written) == [1, 3, 7]
        assert written[1] == written[3] == written[7]

    @pytest.mark.parametrize("per_chunk", [4, 1], ids=["one-chunk", "chunk-per-replication"])
    def test_stage_seconds_are_means_per_replication(self, monkeypatch, per_chunk):
        # A fake clock moves only inside the timed calls: 2 s per stage-1
        # table, 0.5 s per utility and 1 s per evaluation (one each per chunk)
        # and 0.25 s per assignment. Powers of two keep the sums exact.
        clock = [0.0]

        def ticking(function, seconds):
            def timed(*args, **kwargs):
                clock[0] += seconds
                return function(*args, **kwargs)
            return timed

        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        for name, seconds in (("build_beam_gain_table", 2.0), ("build_utility", 0.5),
                              ("solve_assignment", 0.25), ("evaluate_all", 1.0)):
            monkeypatch.setattr(harness, name, ticking(getattr(harness, name), seconds))
        cfg = small_config(seed=32, replications=4)
        per_replication = cfg.uav_count * len(cfg.bss) * cfg.codebook.n_beams
        monkeypatch.setattr(harness, "MAX_STACKED", per_chunk * per_replication)
        assert harness._chunk_size(cfg) == per_chunk
        result = run_scenario(cfg)
        chunks = cfg.replications // per_chunk
        assert result.stage1_seconds == 2.0
        assert result.stage2_seconds == (chunks * 0.5 + cfg.replications * 0.25) / 4
        assert result.evaluation_seconds == chunks * 1.0 / 4

    def test_exact_few_ray_phases_set_the_chunk(self):
        cfg = ScenarioConfig(uav_count=16)
        cfg.channel_hf = replace(cfg.channel_hf, kind="few_ray", ray_count=_EXACT_RAY_LIMIT + 1)
        links = cfg.uav_count * len(cfg.bss)
        assert harness._chunk_size(cfg) == MAX_STACKED // (links * _EXACT_RAY_LIMIT)
        cfg.channel_hf = replace(cfg.channel_hf, ray_count=_EXACT_RAY_LIMIT + 2)
        assert harness._chunk_size(cfg) == MAX_STACKED // (links * cfg.codebook.n_beams)

    def test_evaluator_phasors_set_the_chunk_when_n_h_exceeds_the_beams(self):
        cfg = ScenarioConfig(uav_count=16)
        cfg.antenna = replace(cfg.antenna, n_h=32)
        links = cfg.uav_count * len(cfg.bss)
        assert harness._chunk_size(cfg) == MAX_STACKED // (links * 32)

    def test_run_at_the_triplet_bound_takes_one_replication_per_chunk(self):
        cfg = ScenarioConfig(uav_count=MAX_TRIPLETS // (4 * 256), replications=4)
        cfg.codebook = replace(cfg.codebook, n_beams=256)
        assert validate_config(cfg) == []
        assert harness._chunk_size(cfg) == 1

    def test_two_stage_beats_random_on_same_seeds(self):
        base = small_config(seed=10, replications=6)
        optimized = run_scenario(base)
        rand = run_scenario(small_config(seed=10, replications=6, allocator="random"))
        assert optimized.mean_rate_bps >= rand.mean_rate_bps

    def test_all_allocation_channels_run(self):
        for channel in ("hf", "lf", "statistical"):
            cfg = small_config(seed=11, allocation_channel=channel, replications=1)
            result = run_scenario(cfg)
            assert len(result.reports) == 1

    def test_import_is_read_once_per_run(self, tmp_path, monkeypatch):
        path = tmp_path / "twin.ctns"
        export_tensor(LinkGainTensor(power_gains=np.full((3, 2), 1e-9)), path)
        reads = []

        def counted(p):
            reads.append(p)
            return import_tensor(p)

        monkeypatch.setattr(channel, "import_tensor", counted)
        cfg = small_config(seed=4, replications=4, allocation_channel="lf")
        cfg.channel_hf = ChannelProviderSpec(kind="import", import_path=str(path))
        result = run_scenario(cfg)
        assert len(result.reports) == 4 and reads == [str(path)]

    def test_import_channel_round_trip(self, tmp_path):
        from corridorsim.channel import export_tensor, generate
        from corridorsim.geometry import generate_corridor, link_geometries

        cfg = small_config(seed=12, replications=1)
        uavs = generate_corridor(cfg.corridor, cfg.uav_count)
        geoms = link_geometries(uavs, cfg.bss)
        tensor = generate(geoms, cfg.channel_hf, cfg.rf, [4242])
        path = tmp_path / "twin.ctns"
        export_tensor(tensor, path)
        cfg.channel_hf = ChannelProviderSpec(kind="import", import_path=str(path))
        result = run_scenario(cfg)
        assert len(result.reports) == 1

    @pytest.mark.parametrize("allocator", ["two_stage", "random"])
    def test_import_shape_checked_before_allocation(self, tmp_path, allocator):
        path = tmp_path / "wrong.ctns"
        export_tensor(LinkGainTensor(power_gains=np.ones((7, 3))), path)
        cfg = ScenarioConfig(
            allocator=allocator,
            channel_hf=ChannelProviderSpec(kind="import", import_path=str(path)),
        )
        with pytest.raises(TensorFormatError, match="7x3 links, expected 20x4"):
            run_scenario(cfg)

    def test_reports_carry_digest_and_seed(self):
        cfg = small_config(seed=13, replications=2)
        result = run_scenario(cfg)
        digest = config_digest(cfg)
        for rep in result.reports:
            assert rep.config_digest == digest
        assert result.reports[0].seed != result.reports[1].seed


class TestSweepAndBench:
    def test_single_value_sweep_equals_run(self):
        cfg = small_config(seed=14)
        (swept,) = sweep(cfg, "uav_count", [cfg.uav_count])
        direct = run_scenario(cfg)
        assert swept.to_dict() == direct.to_dict()

    def test_altitude_sweep_paired_and_ordered(self):
        cfg = small_config(seed=15, replications=4)
        results = sweep(cfg, "altitude", [75.0, 130.0])
        # paired: identical channel seeds per replication
        seeds_75 = [r.seed for r in results[0].reports]
        seeds_130 = [r.seed for r in results[1].reports]
        assert seeds_75 == seeds_130
        # lower altitude -> shorter links -> higher mean rate
        assert results[0].mean_rate_bps > results[1].mean_rate_bps

    def test_uav_sweep_per_uav_rate_declines(self):
        cfg = small_config(seed=16, replications=4)
        results = sweep(cfg, "uav_count", [2, 6])
        assert results[0].mean_rate_bps >= results[1].mean_rate_bps

    def test_densification_direction_at_default_scale(self):
        # noise set below the co-channel interference floor so the
        # interference growth from 10 -> 20 UAVs dominates the per-UAV mean;
        # at the default 0.3 W noise, interference (~1e-8 W) is invisible and
        # the direction is decided by waypoint placement instead
        cfg = ScenarioConfig(seed=26)
        cfg.replications = 6
        cfg.rf = replace(cfg.rf, noise_power_w=1e-12)
        results = sweep(cfg, "uav_count", [10, 20])
        assert results[1].mean_rate_bps <= results[0].mean_rate_bps

    def test_unknown_axis(self):
        with pytest.raises(ConfigurationError, match="axis"):
            sweep(small_config(), "frequency", [1.0])

    def test_empty_values(self):
        with pytest.raises(ConfigurationError):
            sweep(small_config(), "uav_count", [])

    def test_benchmark_needs_a_uav_count(self):
        with pytest.raises(ConfigurationError):
            benchmark(small_config(), [])

    def test_sweep_checks_every_value_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_scenario", runs.append)
        with pytest.raises(ConfigurationError) as exc:
            sweep(small_config(), "altitude", [50.0, -1.0, -2.0])
        assert str(exc.value).splitlines() == [
            "corridor.altitude_m must be positive, got -1.0",
            "corridor.altitude_m must be positive, got -2.0",
        ]
        with pytest.raises(ConfigurationError, match="uav_count must be >= 1, got 0"):
            benchmark(small_config(), [2, 0])
        assert runs == []

    def test_benchmark_configs_take_one_replication_per_uav_count(self):
        cfg = small_config(seed=18, replications=5)
        configs = harness.benchmark_configs(cfg, [2, 4])
        assert [c.uav_count for c in configs] == [2, 4]
        for c in configs:
            assert c.replications == 1
            assert config_to_dict(replace(c, uav_count=cfg.uav_count, replications=5)) == (
                config_to_dict(cfg)
            )
        assert cfg.replications == 5

    def test_benchmark_rows(self):
        cfg = small_config(seed=17)
        rows = benchmark(cfg, [2, 4])
        assert [r["uav_count"] for r in rows] == [2, 4]
        assert rows[1]["stage1_evals"] > rows[0]["stage1_evals"]
        for row in rows:
            assert row["stage1_seconds"] > 0
            assert row["stage2_seconds"] > 0


class TestEmitReports:
    def test_empty_results_header_only(self, tmp_path):
        written = emit_reports([], tmp_path)
        with written["summary"].open() as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("allocator,")
        payload = json.loads(written["results"].read_text())
        assert payload == {"results": []}

    def test_round_trip_results_json(self, tmp_path):
        cfg = small_config(seed=18, replications=2)
        result = run_scenario(cfg)
        written = emit_reports([result], tmp_path)
        parsed = json.loads(written["results"].read_text())
        assert parsed["results"] == [result.to_dict()]

    def test_summary_row_count_and_fields(self, tmp_path):
        cfg = small_config(seed=19, replications=1)
        results = [run_scenario(cfg), run_scenario(small_config(seed=20, replications=1))]
        written = emit_reports(results, tmp_path)
        with written["summary"].open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["allocator"] == "two_stage"
        assert float(rows[0]["mean_mbps"]) == pytest.approx(
            results[0].mean_rate_bps / 1e6, rel=1e-6
        )

    def test_gain_sweep_csv(self, tmp_path):
        cfg = small_config()
        rows = gain_sweep_rows(cfg.antenna, step_deg=5.0)
        with write_gain_sweep(rows, tmp_path).open() as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows) == 73
        assert float(parsed[36]["phi_deg"]) == pytest.approx(0.0)

    def test_gain_sweep_rows_match_the_scalar_gains(self):
        # The batched cut against element_gain and array_gain per azimuth;
        # this cut has no exact array null, where both are rounding noise.
        cfg = AntennaConfig()
        rows = gain_sweep_rows(cfg, theta_deg=70.0, scan_deg=25.0)
        assert [row["phi_deg"] for row in rows] == [-180.0 + k * 0.5 for k in range(721)]
        theta, scan = math.radians(70.0), math.radians(25.0)
        for row in rows:
            direction = SteeringDirection(theta, math.radians(row["phi_deg"]))
            assert row["element_db"] == element_gain(theta, direction.phi, cfg)
            assert row["array_db"] == pytest.approx(array_gain(direction, scan, cfg), abs=1e-9)
            assert row["total_db"] == row["element_db"] + row["array_db"]


# JSON-shaped payloads for the report writer against its oracle, json.dumps.
_json_text = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\t\r", "é ü 中文 😀", ", ", ": ", '{"a": [1, 2]}']
)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    _json_text,
)
_json_payloads = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_json_text, children, max_size=4)
    | st.lists(st.dictionaries(_json_text, children, max_size=3), max_size=3),
    max_leaves=40,
)

# Per workload of the report writer's real payloads: config keys and the
# (allocator, allocation channel) of each call.
_PAYLOAD_CONFIGS = {
    "nominal": ({"uav_count": 20, "replications": 1}, [("two_stage", "hf")]),
    "montecarlo": (
        {
            "uav_count": 64,
            "replications": 8,
            "allocation_channel": "lf",
            "channel_hf": {"kind": "few_ray", "ray_count": 10_000},
            "channel_lf": {"kind": "few_ray", "ray_count": 100},
        },
        [("two_stage", "lf")],
    ),
    "comparison": (
        {"uav_count": 8, "replications": 4},
        [("two_stage", "hf"), ("two_stage", "lf"), ("closest_bs", "hf"), ("random", "hf")],
    ),
}


def _keys(doc):
    if isinstance(doc, dict):
        yield from doc
        for value in doc.values():
            yield from _keys(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _keys(value)


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(_json_payloads)
    @example({"a": [{}, [], {"b": [[[[{"c": [1.5, None]}]]]]}], "": {"x": {}}})
    @example([[-0.0, 5e-324, 1.7976931348623157e308], {"k": [math.inf, -math.inf, math.nan]}])
    @example({"q\"": {"\\": [True, False, None, 2**100, -(2**100)]}, "é": "😀"})
    def test_writer_equals_json_dumps(self, payload):
        assert dumps_indent2(payload) == json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("name", sorted(_PAYLOAD_CONFIGS))
    def test_writer_equals_json_dumps_on_run_payloads(self, name):
        doc, calls = _PAYLOAD_CONFIGS[name]
        for seed in range(5):
            cfg = config_from_dict({**doc, "seed": seed})
            for allocator, channel_axis in calls:
                result = run_scenario(
                    replace(cfg, allocator=allocator, allocation_channel=channel_axis)
                )
                payload = {"results": [result.to_dict()]}
                assert all(isinstance(key, str) for key in _keys(payload))
                assert dumps_indent2(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_writer_equals_json_dumps_on_a_sweep_payload(self):
        for seed in range(5):
            results = sweep(ScenarioConfig(seed=seed), "uav_count", [8, 20])
            payload = {"results": [r.to_dict() for r in results]}
            assert all(isinstance(key, str) for key in _keys(payload))
            assert dumps_indent2(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_non_str_key_beside_a_container_is_rejected(self):
        with pytest.raises(TypeError):
            dumps_indent2({1: [2]})


KTB = {"noise_power_w": 1.2e-13}
# A channel tensor file that the table's test exports from the default
# scenario at seed 7, read as channel_hf.
TWIN = {"kind": "import", "import_path": "twin.ctns"}
LF = ["--channel", "lf"]

# A run stacks all its replications in one channel pass. The same run at one
# replication per pass must write the same results.json: {id: (config doc,
# flags of both runs)}. Every row runs at least three replications.
SAME_BYTES_AT_ANY_CHUNKING = {
    "default": ({}, ["--replications", "3"]),
    "small": (config_to_dict(small_config(seed=9, replications=4)), []),
    "import": ({"channel_hf": TWIN}, ["--replications", "3"]),
    # Three replications share the one imported tensor, read once per pass.
    "imp3": ({"replications": 3, "channel_hf": TWIN}, LF),
    "fewray": (_PAYLOAD_CONFIGS["montecarlo"][0], LF),
    # The montecarlo workload's shape at M = 16: the Gaussian few-ray branch
    # for evaluation, degraded per link for allocation on LF.
    "fewray-m16": ({"seed": 12, "uav_count": 16, "replications": 4, "allocation_channel": "lf",
                    "channel_hf": {"kind": "few_ray", "ray_count": 10_000},
                    "channel_lf": {"ray_count": 100}}, []),
    # Interference-limited: at kTB noise the evaluator's interference
    # product carries every SINR.
    "ktb": ({"uav_count": 64, "replications": 4, "rf": KTB}, []),
    "ktb-seed13": ({"seed": 13, "uav_count": 64, "replications": 4, "rf": KTB}, []),
    # The exact branch: 32 scatter rays are summed, not drawn from the Gaussian limit.
    "exact": ({"channel_hf": {"kind": "few_ray", "ray_count": 33}}, LF + ["--replications", "3"]),
    # kTB on the exact branch, 7 replications stacked in one channel pass.
    "ktb-exact": ({"uav_count": 40, "replications": 7, "rf": KTB,
                   "channel_hf": {"kind": "few_ray", "ray_count": 10}}, []),
    # Grating lobes: at d_h = 1.3 stage 1 keeps peaks of P(s) wrapped by 2 pi (q != 0).
    "grating": ({"antenna": {"n_h": 8, "d_h_wavelengths": 1.3}}, ["--replications", "3"]),
    # An odd n_h on grating lobes: stage 1 reduces s - beta to [-pi, pi]
    # before the kernel's sine ratio, which is rounding noise there otherwise.
    "odd-grating": ({"antenna": {"n_h": 5, "d_h_wavelengths": 1.3}}, ["--replications", "3"]),
    "closest_bs": ({}, ["--allocator", "closest_bs", "--replications", "3"]),
    "random": ({}, ["--allocator", "random", "--replications", "3"]),
}


@pytest.mark.parametrize(
    "doc, flags", SAME_BYTES_AT_ANY_CHUNKING.values(), ids=list(SAME_BYTES_AT_ANY_CHUNKING)
)
def test_chunking_does_not_change_results_json(tmp_path, monkeypatch, doc, flags):
    monkeypatch.chdir(tmp_path)
    if doc.get("channel_hf") == TWIN:
        cfg = ScenarioConfig()
        links = link_geometries(generate_corridor(cfg.corridor, cfg.uav_count), cfg.bss)
        export_tensor(channel.generate(links, cfg.channel_hf, cfg.rf, [7]), TWIN["import_path"])
    Path("cfg.json").write_text(json.dumps(doc))
    passes = []  # replications per channel pass

    def counted(links, spec, rf, seeds):
        passes.append(len(seeds))
        return channel.generate(links, spec, rf, seeds)

    monkeypatch.setattr(harness, "generate", counted)
    argv = ["run", "--config", "cfg.json", *flags]
    assert cli_main(argv + ["--out", "a"]) == 0
    monkeypatch.setattr(harness, "MAX_STACKED", 1)
    assert cli_main(argv + ["--out", "b"]) == 0
    replications = passes[0]
    assert replications >= 3 and passes == [replications] + [1] * replications
    assert Path("a/results.json").read_bytes() == Path("b/results.json").read_bytes()


class TestOutputFiles:
    """Output files are overwritten in place, and a write fault is one `error:` line."""

    def test_emit_reports_into_a_file_raises_output_error(self, tmp_path):
        (tmp_path / "taken").write_text("")
        with pytest.raises(OutputError, match="^cannot write .*taken: File exists"):
            emit_reports([], tmp_path / "taken")

    def test_rerun_into_a_used_directory_equals_a_fresh_run(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps(_PAYLOAD_CONFIGS["montecarlo"][0]))
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        argv = ["run", "--config", str(big), "--channel", "lf", "--threads", "1"]
        assert cli_main(argv + ["--out", str(out)]) == 0
        old = (out / "results.json").read_bytes()
        assert cli_main(["run", "--out", str(out)]) == 0
        assert cli_main(["run", "--out", str(fresh)]) == 0
        new = (out / "results.json").read_bytes()
        assert len(new) < len(old)
        assert new == (fresh / "results.json").read_bytes()
        summary = (out / "summary.csv").read_bytes()
        lines = summary.split(b"\r\n")
        assert lines[0] == ",".join(harness._SUMMARY_FIELDS).encode()
        assert len(lines) == 3 and lines[2] == b"" and b"\n" not in lines[1]
        assert lines[1].startswith(b"two_stage,hf,20,")

    def test_symlinked_results_json_is_written_through(self, tmp_path):
        out, target = tmp_path / "out", tmp_path / "target.json"
        out.mkdir()
        target.write_text("x" * 100_000)
        (out / "results.json").symlink_to(target)
        assert cli_main(["run", "--out", str(out)]) == 0
        assert (out / "results.json").is_symlink()
        assert cli_main(["run", "--out", str(tmp_path / "fresh")]) == 0
        assert target.read_bytes() == (tmp_path / "fresh" / "results.json").read_bytes()

    def test_results_json_linked_to_a_device_is_written(self, tmp_path):
        # A device has size 0 and no length to cut; truncating it would fail.
        out = tmp_path / "out"
        out.mkdir()
        (out / "results.json").symlink_to(os.devnull)
        assert cli_main(["run", "--out", str(out)]) == 0
        assert (out / "summary.csv").is_file()

    def test_read_only_results_json_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "results.json").write_text("kept")
        (out / "results.json").chmod(0o444)
        try:
            (out / "results.json").open("a").close()
            pytest.skip("this process may write read-only files (root, CAP_DAC_OVERRIDE)")
        except PermissionError:
            pass
        assert cli_main(["run", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'results.json'}: Permission denied\n"
        assert (out / "results.json").read_text() == "kept"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--uavs", "2"],
            ["sweep", "--uavs", "2,3"],
            ["bench", "--uavs", "2"],
            ["gain-sweep"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_is_a_file_exits_1(self, tmp_path, capsys, argv):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        assert cli_main(argv + ["--out", str(taken)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {taken}: File exists\n"
        assert taken.read_text() == "kept"

    def test_out_is_a_file_ends_the_process_with_one_error_line(self, tmp_path):
        taken = tmp_path / "taken"
        taken.touch()
        process = cli_process(["run", "--out", str(taken)])
        assert process.returncode == 1
        assert process.stderr == f"error: cannot write {taken}: File exists\n"

    @pytest.mark.parametrize(
        "argv", [["run"], ["sweep", "--uavs", "2,3"], ["bench", "--uavs", "2"]],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("where", ["file", "under_a_file"])
    def test_unusable_out_fails_before_the_first_scenario(
        self, tmp_path, capsys, monkeypatch, argv, where
    ):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_scenario(*args, **kwargs)

        # bench and sweep reach run_scenario through harness, run through cli.
        monkeypatch.setattr(harness, "run_scenario", counted)
        monkeypatch.setattr(cli, "run_scenario", counted)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken if where == "file" else taken / "out"
        assert cli_main(argv + ["--out", str(out)]) == 1
        reason = "File exists" if where == "file" else "Not a directory"
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
        assert calls == [] and taken.read_text() == "kept"

    @pytest.mark.parametrize("earlier_run", [True, False], ids=["earlier-run", "no-earlier-run"])
    def test_summary_csv_a_directory_keeps_the_old_results_json(
        self, tmp_path, capsys, earlier_run
    ):
        # Both targets are opened before either is written, so the pair
        # results.json and summary.csv never comes from two different runs,
        # and a results.json that did not exist is not created.
        out = tmp_path / "out"
        results = out / "results.json"
        if earlier_run:
            assert cli_main(["run", "--uavs", "2", "--out", str(out)]) == 0
            (out / "summary.csv").unlink()
        (out / "summary.csv").mkdir(parents=True)
        old = results.read_bytes() if earlier_run else None
        capsys.readouterr()
        assert cli_main(["run", "--uavs", "3", "--seed", "7", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'summary.csv'}: Is a directory\n"
        assert "Traceback" not in err
        assert (results.read_bytes() if results.exists() else None) == old

    def test_results_json_a_directory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "results.json").mkdir(parents=True)
        assert cli_main(["run", "--uavs", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'results.json'}: Is a directory\n"


class TestPrepareOutputDir:
    """An existing directory costs no mkdir; anything else goes to mkdir as before."""

    @pytest.fixture
    def mkdirs(self, monkeypatch):
        calls = []
        real = Path.mkdir

        def counted(self, *args, **kwargs):
            calls.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counted)
        return calls

    def test_existing_directory_makes_no_mkdir_call(self, tmp_path, mkdirs):
        (tmp_path / "link").symlink_to(tmp_path)
        for out in (tmp_path, str(tmp_path), tmp_path / "link"):
            prepare_output_dir(out)
        assert mkdirs == []

    def test_missing_nested_path_is_created(self, tmp_path, mkdirs):
        out = tmp_path / "a" / "b" / "c"
        prepare_output_dir(out)
        assert out.is_dir() and mkdirs

    def test_a_file_raises_output_error(self, tmp_path, mkdirs):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        with pytest.raises(OutputError, match=f"^cannot write {re.escape(str(taken))}: File exists$"):
            prepare_output_dir(taken)
        assert mkdirs and taken.read_text() == "kept"


class TestCli:
    def test_run_summary_prints_stage1_in_milliseconds(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(small_config(replications=1))))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            seconds = float(next(csv.DictReader(f))["stage1_seconds"])
        # Stage 1 takes about a millisecond here, which "{:.2f}s" printed as 0.00s.
        assert summary.endswith(f" stage1={seconds * 1e3:.3g}ms")

    def test_validate_config_ok(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(small_config())))
        assert cli_main(["validate-config", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_config_bad(self, tmp_path, capsys):
        doc = config_to_dict(small_config())
        doc["uav_count"] = 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate-config", "--config", str(path)]) == 1
        assert "uav_count" in capsys.readouterr().err

    def test_validate_config_non_finite(self, tmp_path, capsys):
        doc = config_to_dict(small_config())
        doc["rf"]["tx_power_w"] = float("nan")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate-config", "--config", str(path)]) == 1
        assert "error: rf.tx_power_w must be finite" in capsys.readouterr().err

    def test_run_non_finite_exits_1(self, tmp_path, capsys):
        doc = config_to_dict(small_config(replications=1))
        doc["rf"]["tx_power_w"] = float("nan")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        assert "error: rf.tx_power_w must be finite" in capsys.readouterr().err
        assert not (out_dir / "results.json").exists()

    def test_run_bad_value_type(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"uav_count": "abc"}))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    # A lone surrogate cannot name a file on disk, so it is reported as
    # missing; Python's stderr writes it as a backslash escape.
    @pytest.mark.parametrize("name", ["missing.ctns", "\udd00"], ids=["missing", "surrogate"])
    def test_run_missing_import_file(self, tmp_path, monkeypatch, name):
        stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
        monkeypatch.setattr(sys, "stderr", stderr)
        doc = config_to_dict(small_config(replications=1))
        missing = tmp_path / name
        doc["channel_hf"] = {"kind": "import", "import_path": str(missing)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert cli_main(["validate-config", "--config", str(path)]) == 1
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        line = f"error: channel_hf.import_path: channel tensor file not found: {missing}"
        stderr.flush()
        written = stderr.buffer.getvalue().decode().splitlines()
        assert written == [line.encode(errors="backslashreplace").decode()] * 2
        assert not out_dir.exists()

    def test_import_path_naming_a_directory_exits_1(self, tmp_path, capsys):
        tensor_dir = tmp_path / "adir"
        tensor_dir.mkdir()
        path = tmp_path / "cfg.json"
        doc = {"channel_hf": {"kind": "import", "import_path": str(tensor_dir)}}
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert cli_main(["validate-config", "--config", str(path)]) == 1
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        line = f"error: channel_hf.import_path must be a regular file, got {str(tensor_dir)!r}"
        assert capsys.readouterr().err.splitlines() == [line] * 2
        assert not out_dir.exists()

    def test_unreadable_import_file_exits_1(self, tmp_path, capsys, monkeypatch):
        tensor = tmp_path / "twin.ctns"
        export_tensor(LinkGainTensor(power_gains=np.ones((20, 4))), tensor)
        read_bytes = Path.read_bytes

        def denied(self):
            if self == tensor:  # chmod does not stop a root process, so the fault is made here
                raise PermissionError(13, "Permission denied", str(self))
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", denied)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"channel_hf": {"kind": "import", "import_path": str(tensor)}}))
        out_dir = tmp_path / "out"
        assert cli_main(["validate-config", "--config", str(path)]) == 0
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read channel tensor file {tensor}: Permission denied\n"
        assert "Traceback" not in err and not (out_dir / "results.json").exists()

    def test_run_import_of_wrong_shape_exits_1(self, tmp_path, capsys):
        tensor = tmp_path / "wrong.ctns"
        export_tensor(LinkGainTensor(power_gains=np.ones((7, 3))), tensor)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"channel_hf": {"kind": "import", "import_path": str(tensor)}}))
        out_dir = tmp_path / "out"
        code = cli_main(["run", "--config", str(path), "--out", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: channel tensor is 7x3 links")
        assert not (out_dir / "results.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["run", "--channel", "lf"], ["sweep", "--uavs", "2,3"], ["bench", "--uavs", "2"]],
    )
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--import-path", "t.ctns"], "unrecognized arguments: --import-path t.ctns"),
            (["--channel", "import"], "argument --channel: invalid choice: 'import'"),
        ],
        ids=["import-path", "channel-import"],
    )
    def test_removed_import_flags_exit_2(self, tmp_path, capsys, argv, flags, message):
        # An imported tensor is set in the config, as channel_hf.
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + flags + ["--out", str(out_dir)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_run_rejects_several_uav_counts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--uavs", "10,20", "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run takes one --uavs value, got [10, 20]")
        assert not (out_dir / "results.json").exists()
        assert cli_main(["run", "--uavs", "3", "--out", str(out_dir)]) == 0
        results = json.loads((out_dir / "results.json").read_text())["results"]
        assert results[0]["config"]["uav_count"] == 3

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert cli_main(["run", "--config", missing, "--out", str(tmp_path)]) == 1
        assert cli_main(["validate-config", "--config", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.json" in err

    def test_consecutive_calls_share_no_arguments(self, tmp_path, capsys):
        from corridorsim.cli import _parser

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(small_config(seed=23, replications=2))))
        first, second = tmp_path / "first", tmp_path / "second"
        argv = ["run", "--config", str(path), "--seed", "5", "--replications", "1"]
        assert cli_main(argv + ["--allocator", "random", "--out", str(first)]) == 0
        assert cli_main(["validate-config", "--config", str(path)]) == 0
        assert cli_main(["run", "--config", str(path), "--out", str(second)]) == 0
        assert _parser() is _parser()
        runs = [
            json.loads((out / "results.json").read_text())["results"][0]["config"]
            for out in (first, second)
        ]
        assert [(c["seed"], c["replications"], c["allocator"]) for c in runs] == [
            (5, 1, "random"),
            (23, 2, "two_stage"),
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nope"],
            ["run", "--threads", "x"],
            ["run", "--allocator", "best"],
            # --threads is retired and accepts only 1.
            ["run", "--threads", "2"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(small_config())))
        assert cli_main(["validate-config", "--config", str(path)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["gain-sweep", "--threads", "0"],
            ["gain-sweep", "--replications", "0"],
            ["gain-sweep", "--allocator", "random"],
            ["bench", "--replications", "3"],
            ["gain-sweep", "--threads", "2"],
        ],
    )
    def test_flags_a_subcommand_ignores_exit_2(self, argv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--out", str(out_dir)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["sweep", "--uavs", "4,8", "--altitudes", "75,100"],
             ["sweep takes one --uavs value with --altitudes, got [4, 8]"]),
            # Every axis value is checked before the first scenario runs.
            (["sweep", "--uavs", "2", "--altitudes", "50,-1"],
             ["corridor.altitude_m must be positive, got -1.0"]),
            (["sweep", "--uavs", "0,2"], ["uav_count must be >= 1, got 0"]),
            (["sweep", "--uavs", "0,-1,0"],
             ["uav_count must be >= 1, got 0", "uav_count must be >= 1, got -1"]),
            (["bench", "--uavs", "0"], ["uav_count must be >= 1, got 0"]),
            (["bench", "--uavs", ","], ["benchmark needs at least one UAV count"]),
        ],
        ids=["uavs-with-altitudes", "altitude", "uavs", "every-problem", "bench", "bench-empty"],
    )
    def test_sweep_and_bench_reject_before_making_out(self, tmp_path, capsys, argv, lines):
        out_dir = tmp_path / "out"
        assert cli_main(argv + ["--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {line}" for line in lines]
        assert not out_dir.exists()

    def test_run_subcommand(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(small_config(seed=21, replications=1))))
        out_dir = tmp_path / "out"
        code = cli_main(
            ["run", "--config", str(path), "--out", str(out_dir), "--replications", "1"]
        )
        assert code == 0
        assert (out_dir / "results.json").exists()
        assert (out_dir / "summary.csv").exists()

    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--uavs", "2,3"]], ids=["run", "sweep"])
    def test_retired_threads_flag_accepts_one(self, tmp_path, capsys, argv):
        # perfbench/workloads.py passes --threads 1; it must change nothing.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(small_config(seed=23))))
        written = []
        for name, flags in (("a", []), ("b", ["--threads", "1"])):
            out_dir = tmp_path / name
            assert cli_main([*argv, "--config", str(path), *flags, "--out", str(out_dir)]) == 0
            written.append((out_dir / "results.json").read_bytes())
        assert written[0] == written[1]

    def test_gain_sweep_subcommand(self, tmp_path):
        out_dir = tmp_path / "out"
        assert cli_main(["gain-sweep", "--out", str(out_dir)]) == 0
        assert (out_dir / "gain_sweep.csv").exists()

    def test_gain_sweep_leaves_run_outputs_alone(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(small_config(seed=31, replications=1))))
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
        before = {name: (out_dir / name).read_bytes() for name in ("results.json", "summary.csv")}
        assert cli_main(["gain-sweep", "--out", str(out_dir)]) == 0
        assert (out_dir / "gain_sweep.csv").exists()
        for name, content in before.items():
            assert (out_dir / name).read_bytes() == content

    @pytest.mark.parametrize("flag, value", [("--theta", "nan"), ("--scan", "inf")])
    def test_gain_sweep_non_finite_angle_exits_1(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "out"
        assert cli_main(["gain-sweep", flag, value, "--out", str(out_dir)]) == 1
        name = flag.removeprefix("--")
        assert capsys.readouterr().err.startswith(f"error: gain-sweep {name} must be finite")
        assert not (out_dir / "gain_sweep.csv").exists()

    @pytest.mark.parametrize(
        "antenna, message",
        [
            ({"n_h": 0}, "error: antenna.n_h must be >= 1, got 0"),
            ({"theta_3db_deg": 0.0}, "error: antenna.theta_3db_deg must be positive, got 0.0"),
        ],
        ids=["n_h_0", "theta_3db_0"],
    )
    def test_gain_sweep_validates_its_config(self, tmp_path, capsys, antenna, message):
        # Unchecked, n_h = 0 wrote a flat -400 dB array gain and a zero
        # beamwidth wrote nan; both are rejected as validate-config does.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"antenna": antenna}))
        out_dir = tmp_path / "out"
        assert cli_main(["gain-sweep", "--config", str(path), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (out_dir / "gain_sweep.csv").exists()

    @pytest.mark.parametrize("small, uavs", [(True, [2, 3]), (False, [4, 8])],
                             ids=["small", "default"])
    def test_bench_subcommand(self, tmp_path, capsys, small, uavs):
        out_dir = tmp_path / "out"
        argv = ["bench", "--out", str(out_dir), "--uavs", ",".join(map(str, uavs))]
        if small:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config_to_dict(small_config(seed=22))))
            argv += ["--config", str(path)]
        assert cli_main(argv) == 0
        rows = json.loads((out_dir / "benchmark.json").read_text())
        assert [r["uav_count"] for r in rows] == uavs
        # Stage times print in ms to 3 significant digits, as the run summary does.
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            for stage in ("stage1", "stage2"):
                printed = re.search(rf"\b{stage}=(\S+)ms ", line)
                assert printed, line
                ms = row[f"{stage}_seconds"] * 1e3
                assert printed.group(1) == f"{ms:.3g}"

