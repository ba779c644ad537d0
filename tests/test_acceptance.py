"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import binomtest

from corridorsim import harness
from corridorsim.allocator import (
    BeamCodebook,
    allocate_closest_bs,
    allocate_random,
    build_beam_gain_table,
    build_utility,
    fill_scan_angles,
    solve_assignment,
)
from corridorsim.antenna import (
    AntennaConfig,
    SteeringDirection,
    array_gain,
    element_gain,
    total_gain,
)
from corridorsim.channel import ChannelProviderSpec, LinkGainTensor, RfConstants
from corridorsim.evaluator import validate
from corridorsim.geometry import LINK_DTYPE, BaseStationSite, Position3D, link_geometries
from corridorsim.harness import ScenarioConfig, emit_reports, run_scenario, sweep
from oracles import AnnealerConfig, optimize_scan_angle

CFG = AntennaConfig()  # nominal 4x4 array
BOUND_16 = 10.0 * math.log10(16.0)


def report(n, text):
    print(f"\nCRITERION {n}: PASS - {text}")


def scenario(seed, **overrides):
    cfg = ScenarioConfig(seed=seed)
    cfg.replications = 20
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestAcceptance:
    def test_01_antenna_model_correctness(self):
        t0 = time.perf_counter()
        thetas = np.radians(np.linspace(0.0, 180.0, 181))
        phis = np.radians(np.linspace(-180.0, 180.0, 361))
        grid = element_gain(thetas[:, None], phis[None, :], CFG)
        assert abs(grid[90, 180] - (-8.0)) <= 1e-9  # theta=90deg, phi=0
        assert grid.max() <= -8.0 + 1e-9
        rng = np.random.default_rng(101)
        for _ in range(1000):
            d = SteeringDirection(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            scan = rng.uniform(-math.pi, math.pi)
            assert array_gain(d, scan, CFG) <= BOUND_16 + 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report(1, f"element peak -8 dBi on 181x361 grid, A_V <= {BOUND_16:.4f} dB "
                  f"on 1000 pairs ({elapsed:.2f} s)")

    def test_02_assignment_optimality_oracle(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)
        checked = 0
        while checked < 200:
            mm = int(rng.integers(1, 6))
            ll = int(rng.integers(1, 6))
            nn = int(rng.integers(1, 11))
            if ll * nn > 10 or mm > ll * nn:
                continue
            values = rng.uniform(0.0, 1.0, size=(mm, ll, nn))
            a = solve_assignment(values)
            total = float(values[np.arange(mm), a.bs, a.beam].sum())
            flat = values.reshape(mm, -1)
            best = max(
                sum(flat[m, c] for m, c in enumerate(cols))
                for cols in itertools.permutations(range(flat.shape[1]), mm)
            )
            assert total == pytest.approx(best, rel=1e-9)
            checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        report(2, f"Hungarian total equals brute force on 200 instances ({elapsed:.2f} s)")

    def test_03_stage1_optimizer_accuracy(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(303)
        codebook = BeamCodebook(16)
        ann = AnnealerConfig()
        hits = 0
        for i in range(100):
            d = SteeringDirection(
                rng.uniform(0.05, math.pi - 0.05), rng.uniform(-math.pi, math.pi)
            )
            lo, hi = codebook.sectors[int(rng.integers(16))]
            sub = np.random.default_rng(np.random.SeedSequence((303, i)))
            _, gain, _ = optimize_scan_angle(d, (lo, hi), CFG, ann, rng=sub)
            scans = np.linspace(lo, hi, 10_000)
            if gain >= float(np.max(total_gain(d, scans, CFG))) - 0.1:
                hits += 1
        elapsed = time.perf_counter() - t0
        assert hits >= 95
        assert elapsed < 60.0
        report(3, f"dual annealing within 0.1 dB of the grid oracle in {hits}/100 "
                  f"triplets ({elapsed:.2f} s)")

    def test_04_constraint_feasibility(self):
        rng = np.random.default_rng(404)
        checked = 0
        for _ in range(500):
            mm = int(rng.integers(1, 9))
            ll = int(rng.integers(1, 5))
            nn = int(rng.integers(1, 5))
            if mm > ll * nn:
                mm = ll * nn
            values = rng.uniform(0.0, 1.0, size=(mm, ll, nn))
            uavs = [
                Position3D(rng.uniform(-300, 300), rng.uniform(-300, 300), rng.uniform(50, 150))
                for _ in range(mm)
            ]
            bss = [
                BaseStationSite(
                    l + 1,
                    Position3D(rng.uniform(-300, 300), rng.uniform(-300, 300), 25.0),
                    0.0,
                )
                for l in range(ll)
            ]
            for a in (
                solve_assignment(values),
                allocate_random(mm, ll, nn, seed=int(rng.integers(2**32))),
                allocate_closest_bs(link_geometries(uavs, bss)["distance_3d"], values),
            ):
                assert validate(a, mm, ll, nn) == []
            checked += 1
        # a few full two-stage pipelines on real geometry
        for k in range(5):
            uavs = [
                Position3D(rng.uniform(-200, 200), rng.uniform(-200, 200), 100.0)
                for _ in range(3)
            ]
            bss = [
                BaseStationSite(1, Position3D(0.0, 0.0, 25.0), 0.0),
                BaseStationSite(2, Position3D(300.0, 0.0, 25.0), 0.0),
            ]
            cb = BeamCodebook(4)
            gains = LinkGainTensor(power_gains=rng.uniform(1e-10, 1e-8, size=(3, 2)))
            table = build_beam_gain_table(uavs, bss, cb, CFG)
            util = build_utility(table, gains, RfConstants())
            a = fill_scan_angles(solve_assignment(util), table)
            assert validate(a, 3, 2, 4) == []
        report(4, f"zero C1-C4 violations across {checked} scenarios x 3 allocators")

    def test_05_throughput_ordering(self):
        t0 = time.perf_counter()
        base = scenario(505, allocation_channel="hf")
        base.channel_hf = ChannelProviderSpec(kind="statistical", rician_k_db=3.0)
        two_stage = run_scenario(base)
        rand = run_scenario(scenario(505, allocator="random"))
        closest = run_scenario(scenario(505, allocator="closest_bs"))
        elapsed = time.perf_counter() - t0
        assert two_stage.mean_rate_bps >= 1.30 * rand.mean_rate_bps
        assert two_stage.mean_rate_bps > closest.mean_rate_bps
        assert elapsed < 600.0
        gain_vs_random = two_stage.mean_rate_bps / rand.mean_rate_bps
        gain_vs_closest = two_stage.mean_rate_bps / closest.mean_rate_bps
        report(5, f"two-stage / random = {gain_vs_random:.2f}x (floor 1.30x), "
                  f"/ closest-BS = {gain_vs_closest:.2f}x ({elapsed:.1f} s)")

    def test_06_altitude_monotonicity(self):
        results = sweep(scenario(606), "altitude", [75.0, 100.0, 130.0])
        means = [r.mean_rate_bps for r in results]
        assert means[0] > means[1] > means[2]
        p_values = []
        for low, high in ((0, 1), (1, 2)):
            a = [rep.mean_rate_bps for rep in results[low].reports]
            b = [rep.mean_rate_bps for rep in results[high].reports]
            wins = sum(x > y for x, y in zip(a, b))
            p = binomtest(wins, n=len(a), p=0.5, alternative="greater").pvalue
            p_values.append(p)
            assert p < 0.05
        report(6, f"mean rate 75 > 100 > 130 m, paired sign tests p = "
                  f"{p_values[0]:.2e}, {p_values[1]:.2e}")

    def test_07_fidelity_gap(self):
        hf_spec = ChannelProviderSpec(kind="few_ray", ray_count=1_000_000, rician_k_db=3.0)
        on_hf = scenario(707, allocation_channel="hf", lf_ray_count=100)
        on_hf.channel_hf = hf_spec
        on_lf = scenario(707, allocation_channel="lf", lf_ray_count=100)
        on_lf.channel_hf = hf_spec
        result_hf = run_scenario(on_hf)
        result_lf = run_scenario(on_lf)
        gap = result_hf.mean_rate_bps - result_lf.mean_rate_bps
        assert result_lf.mean_rate_bps <= result_hf.mean_rate_bps * (1.0 + 1e-12)
        assert gap >= -1e-12 * result_hf.mean_rate_bps
        report(7, f"allocate-on-degraded-LF <= allocate-on-HF, mean gap "
                  f"{gap / result_hf.mean_rate_bps * 100:.3f}% of HF rate")

    def test_08_interference_sanity(self):
        # M = 1: scenario pipeline, SINR must equal the closed form exactly
        cfg = scenario(808, uav_count=1, replications=3)
        result = run_scenario(cfg)
        from corridorsim.channel import generate
        from corridorsim.geometry import generate_corridor

        uavs = generate_corridor(cfg.corridor, 1)
        geoms = link_geometries(uavs, cfg.bss)
        for rep in result.reports:
            tensor = generate(geoms, cfg.channel_hf, cfg.rf, [rep.seed])
            # noise-only SINR is bounded by the best link at the gain ceiling
            s = rep.per_uav_sinr[0]
            best = (
                cfg.rf.tx_power_w
                * tensor.power_gains[0, 0].max()  # upper bound over BSs at G <= bound
                * 10.0 ** ((CFG.g_e_max_dbi + BOUND_16) / 10.0)
                / cfg.rf.noise_power_w
            )
            assert s <= best * (1.0 + 1e-9)
            assert s > 0.0
        # direct closed-form identity on a hand-built single-UAV case
        from corridorsim.antenna import scan_coefficients
        from corridorsim.evaluator import sinr_matrix
        from oracles import interference_at
        from corridorsim.allocator import Assignment, BeamGainTable

        a = Assignment(bs=np.array([0]), beam=np.array([0]))
        gains = LinkGainTensor(power_gains=np.array([[2.5e-9, 4e-9]]))
        geoms1 = np.array([[(100.0, math.pi / 2, 0.0)] * 2], dtype=LINK_DTYPE)
        table = BeamGainTable(
            phi_star=np.zeros((1, 2, 1)), gain_db=np.array([[[3.0], [1.0]]]), stage1_evals=0,
            links=geoms1, fold=scan_coefficients(geoms1["theta"], geoms1["phi"], CFG),
        )
        rf = RfConstants()
        assert interference_at(0, a, gains, table, geoms1, CFG, rf) == 0.0
        expect = rf.tx_power_w * 2.5e-9 * 10.0 ** 0.3 / rf.noise_power_w
        fold = scan_coefficients(geoms1["theta"], geoms1["phi"], CFG)
        got = sinr_matrix(a, gains, table, fold, rf)[0]
        assert got == pytest.approx(expect, rel=1e-12)
        # L = 1: every UAV interference-free
        cfg_l1 = scenario(809, uav_count=6, replications=1)
        cfg_l1.bss = cfg_l1.bss[:1]
        cfg_l1.uav_count = 6
        result_l1 = run_scenario(cfg_l1)
        assert np.all(result_l1.reports[0].per_uav_sinr > 0.0)
        report(8, "interference exactly 0 for M=1 and L=1; single-link SINR matches "
                  "the closed form to 1e-12")

    def test_09_complexity_shape(self):
        from corridorsim.harness import benchmark

        cfg = ScenarioConfig(seed=909)
        cfg.replications = 1
        rows = benchmark(cfg, [10, 20, 30, 40])
        evals = np.array([row["stage1_evals"] for row in rows], dtype=float)
        per_uav = evals / np.array([10.0, 20.0, 30.0, 40.0])
        assert per_uav.max() / per_uav.min() <= 1.10
        totals = [row["total_seconds"] for row in rows]
        assert all(b > a for a, b in zip(totals, totals[1:]))
        report(9, f"stage-1 evals per UAV spread "
                  f"{per_uav.max() / per_uav.min():.3f} (<= 1.10), total runtime "
                  f"monotone over M = 10..40")

    def test_10_determinism(self, tmp_path, monkeypatch):
        cfg = scenario(1010, uav_count=6, replications=4)

        def results_json(name):
            out = emit_reports([run_scenario(cfg)], tmp_path / name)["results"]
            return out.read_bytes()

        assert harness._chunk_size(cfg) >= cfg.replications
        one_chunk = results_json("a")
        rerun = results_json("b")
        monkeypatch.setattr(harness, "MAX_STACKED", 1)
        assert harness._chunk_size(cfg) == 1
        four_chunks = results_json("c")
        assert one_chunk == rerun == four_chunks
        report(10, f"results.json byte-identical on a rerun and at one chunk of 4 "
                   f"or 4 chunks of 1 replication ({len(one_chunk)} bytes)")
