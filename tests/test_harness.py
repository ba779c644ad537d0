import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corridorsim
from concurrent.futures import ThreadPoolExecutor

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
    array_gain,
    element_gain,
    scan_coefficients,
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
from corridorsim.harness import (
    MAX_THREADS,
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
    validate_config,
    write_gain_sweep,
)

SRC = os.path.dirname(os.path.dirname(corridorsim.__file__))


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
    def test_overflowing_link_budget_prints_only_the_error(self, tmp_path, capfd, doc, source):
        # A fresh interpreter with warnings shown: pytest would record numpy's
        # RuntimeWarnings instead of letting them reach stderr.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        path_list = [SRC, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_list))}
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        code = subprocess.run(
            [sys.executable, "-W", "default", "-m", "corridorsim.cli", *argv], env=env
        ).returncode
        assert code == 1
        assert capfd.readouterr().err == (
            f"error: {source} gave non-finite or negative power gains\n"
        )


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

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_threads_below_one(self, threads):
        with pytest.raises(ConfigurationError, match=f"threads must be >= 1, got {threads}"):
            run_scenario(small_config(replications=1), threads=threads)

    @pytest.mark.parametrize("threads", [MAX_THREADS + 1, 10**9])
    def test_rejects_threads_above_the_bound_before_any_pool(self, monkeypatch, threads):
        # The bound is checked first, so no executor is ever built.
        monkeypatch.setattr(harness, "ThreadPoolExecutor", None)
        match = f"threads must be <= {MAX_THREADS}, got {threads}"
        with pytest.raises(ConfigurationError, match=match):
            run_scenario(small_config(replications=2), threads=threads)

    def test_pool_has_at_most_one_worker_per_replication(self, monkeypatch):
        workers = []

        def recording(max_workers):
            workers.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", recording)
        run_scenario(small_config(seed=3, replications=2), threads=MAX_THREADS)
        assert workers == [2]

    def test_thread_count_does_not_change_output(self):
        cfg = small_config(seed=9, replications=4)
        serial = run_scenario(cfg, threads=1)
        threaded = run_scenario(cfg, threads=4)
        assert serial.to_dict() == threaded.to_dict()

    def test_threads_do_not_change_interference_limited_bytes(self, tmp_path):
        # At kTB noise interference dominates the SINR, so the bytes pin the
        # evaluator's matrix product, which worker threads run concurrently.
        cfg = ScenarioConfig(seed=13, uav_count=64, replications=4)
        cfg.rf = replace(cfg.rf, noise_power_w=1.2e-13)
        serial = emit_reports([run_scenario(cfg, threads=1)], tmp_path / "t1")["results"]
        threaded = emit_reports([run_scenario(cfg, threads=4)], tmp_path / "t4")["results"]
        assert serial.read_bytes() == threaded.read_bytes()

    def test_evaluation_folds_the_links_once_per_run(self, monkeypatch):
        # Stage 1 folds through corridorsim.allocator's name; every other
        # module that holds scan_coefficients is counted.
        calls = []

        def counted(*args):
            calls.append(args)
            return scan_coefficients(*args)

        for name, module in list(sys.modules.items()):
            if (name.startswith("corridorsim.") and name != "corridorsim.allocator"
                    and getattr(module, "scan_coefficients", None) is scan_coefficients):
                monkeypatch.setattr(module, "scan_coefficients", counted)
        cfg = small_config(seed=14, replications=4)
        result = run_scenario(cfg)
        assert len(result.reports) == 4
        assert len(calls) == 1

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

    def test_exact_few_ray_phases_set_the_chunk(self):
        cfg = ScenarioConfig(uav_count=16)
        cfg.channel_hf = replace(cfg.channel_hf, kind="few_ray", ray_count=_EXACT_RAY_LIMIT + 1)
        links = cfg.uav_count * len(cfg.bss)
        assert harness._chunk_size(cfg) == MAX_STACKED // (links * _EXACT_RAY_LIMIT)
        cfg.channel_hf = replace(cfg.channel_hf, ray_count=_EXACT_RAY_LIMIT + 2)
        assert harness._chunk_size(cfg) == MAX_STACKED // (links * cfg.codebook.n_beams)

    def test_run_at_the_triplet_bound_takes_one_replication_per_chunk(self):
        cfg = ScenarioConfig(uav_count=MAX_TRIPLETS // (4 * 256), replications=4)
        cfg.codebook = replace(cfg.codebook, n_beams=256)
        assert validate_config(cfg) == []
        assert harness._chunk_size(cfg) == 1

    def test_threads_do_not_change_few_ray_lf_output(self):
        # The montecarlo workload's shape: the Gaussian few-ray branch for
        # evaluation, degraded per link for allocation on LF.
        cfg = ScenarioConfig(seed=12, uav_count=16, replications=4, allocation_channel="lf")
        cfg.channel_hf = replace(cfg.channel_hf, kind="few_ray", ray_count=10_000)
        cfg.lf_ray_count = 100
        serial = run_scenario(cfg, threads=1)
        threaded = run_scenario(cfg, threads=2)
        assert serial.to_dict() == threaded.to_dict()

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
        assert cli_main(["run", "--config", str(big), "--out", str(out)]) == 0
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

    def test_results_json_a_directory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "results.json").mkdir(parents=True)
        assert cli_main(["run", "--uavs", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'results.json'}: Is a directory\n"


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

    def test_run_missing_import_file(self, tmp_path, capsys):
        doc = config_to_dict(small_config(replications=1))
        missing = tmp_path / "missing.ctns"
        doc["channel_hf"] = {"kind": "import", "import_path": str(missing)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert cli_main(["validate-config", "--config", str(path)]) == 1
        assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        line = f"error: channel_hf.import_path: channel tensor file not found: {missing}"
        assert capsys.readouterr().err.splitlines() == [line] * 2
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

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_run_threads_below_one_exits_1(self, tmp_path, capsys, threads):
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--uavs", "2", "--threads", threads, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: threads must be >= 1, got {threads}")
        assert not (out_dir / "results.json").exists()

    def test_run_threads_above_the_bound_exits_1(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        argv = ["run", "--uavs", "2", "--threads", str(MAX_THREADS + 1), "--out", str(out_dir)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: threads must be <= {MAX_THREADS}, got {MAX_THREADS + 1}")
        assert not (out_dir / "results.json").exists()

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
        "argv", [[], ["nope"], ["run", "--threads", "x"], ["run", "--allocator", "best"]]
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
        ],
    )
    def test_flags_a_subcommand_ignores_exit_2(self, argv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--out", str(out_dir)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sweep_rejects_several_uav_counts_with_altitudes(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        argv = ["sweep", "--uavs", "4,8", "--altitudes", "75,100", "--out", str(out_dir)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep takes one --uavs value with --altitudes, got [4, 8]")
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
            ({"n_h": 0}, "error: antenna.n_h/n_v must be >= 1, got 0x4"),
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

    def test_bench_subcommand(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(small_config(seed=22))))
        out_dir = tmp_path / "out"
        code = cli_main(
            ["bench", "--config", str(path), "--out", str(out_dir), "--uavs", "2,3"]
        )
        assert code == 0
        rows = json.loads((out_dir / "benchmark.json").read_text())
        assert [r["uav_count"] for r in rows] == [2, 3]
        # Stage times print in ms to 3 significant digits, as the run summary does.
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            for stage in ("stage1", "stage2"):
                printed = re.search(rf"\b{stage}=(\S+)ms ", line)
                assert printed, line
                ms = row[f"{stage}_seconds"] * 1e3
                assert printed.group(1) == f"{ms:.3g}"

    def test_bench_without_a_uav_count_exits_1(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli_main(["bench", "--uavs", ",", "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: benchmark needs at least one UAV count")
        assert not (out_dir / "benchmark.json").exists()
