import csv
import json
import math
from dataclasses import replace

import pytest

from corridorsim.channel import ChannelProviderSpec
from corridorsim.cli import main as cli_main
from corridorsim.errors import ConfigurationError
from corridorsim.harness import (
    benchmark,
    config_digest,
    config_from_dict,
    config_to_dict,
    default_scenario,
    emit_reports,
    gain_sweep_rows,
    load_config,
    run_scenario,
    sweep,
    validate_config,
)


def small_config(seed=100, **overrides):
    """Quick scenario: 3 UAVs, 2 BSs, 4 beams."""
    cfg = default_scenario(seed=seed)
    cfg.uav_count = 3
    cfg.corridor = replace(cfg.corridor, num_waypoints=3)
    cfg.bss = cfg.bss[:2]
    cfg.codebook = replace(cfg.codebook, n_beams=4)
    cfg.replications = 2
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestConfigPlumbing:
    def test_defaults_are_valid(self):
        assert validate_config(default_scenario()) == []

    def test_round_trip_through_dict(self):
        cfg = default_scenario(seed=7)
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
        cfg.num_rrbs = 0
        problems = validate_config(cfg)
        joined = "\n".join(problems)
        assert "uav_count" in joined
        assert "allocator" in joined
        assert "tx_power_w" in joined
        assert "num_rrbs" in joined
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
        cfg = default_scenario()
        bs = cfg.bss[0]  # at (0, 0), center at (200, 200)
        assert bs.boresight_azimuth == pytest.approx(math.pi / 4)


class TestRunScenario:
    def test_single_link_completes(self):
        cfg = small_config(seed=5)
        cfg.uav_count = 1
        cfg.corridor = replace(cfg.corridor, num_waypoints=1)
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

    def test_thread_count_does_not_change_output(self):
        cfg = small_config(seed=9, replications=4)
        serial = run_scenario(cfg, threads=1)
        threaded = run_scenario(cfg, threads=4)
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

    def test_import_channel_round_trip(self, tmp_path):
        from corridorsim.channel import export_tensor, generate
        from corridorsim.geometry import generate_corridor, link_geometries

        cfg = small_config(seed=12, replications=1)
        uavs = generate_corridor(cfg.corridor, cfg.uav_count)
        geoms = link_geometries(uavs, cfg.bss)
        tensor = generate(geoms, replace(cfg.channel_hf, seed=4242), cfg.rf)
        path = tmp_path / "twin.ctns"
        export_tensor(tensor, path)
        cfg.channel_hf = ChannelProviderSpec(kind="import", import_path=str(path))
        result = run_scenario(cfg)
        assert len(result.reports) == 1

    def test_power_split_lowers_rates(self):
        base = small_config(seed=25, replications=1)
        split = small_config(seed=25, replications=1, split_power_among_beams=True)
        full = run_scenario(base)
        divided = run_scenario(split)
        # power divided by the 4-beam codebook: rates drop, ~linearly in the
        # noise-dominated regime
        assert divided.mean_rate_bps < full.mean_rate_bps
        assert divided.mean_rate_bps == pytest.approx(full.mean_rate_bps / 4.0, rel=1e-3)

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
        cfg = default_scenario(seed=26)
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
        written = emit_reports([], tmp_path, gain_sweep=rows)
        with written["gain_sweep"].open() as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows) == 73
        assert float(parsed[36]["phi_deg"]) == pytest.approx(0.0)


class TestCli:
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
