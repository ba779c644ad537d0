import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridorsim.allocator import (
    AnnealerConfig,
    BeamCodebook,
    UtilityTensor,
    allocate_closest_bs,
    allocate_random,
    allocate_two_stage,
    build_beam_gain_table,
    build_utility,
    optimal_scan_angles,
    optimize_scan_angle,
    serving_beam,
    solve_assignment,
)
from corridorsim.allocator import _scan_power
from corridorsim.antenna import (
    AntennaConfig,
    SteeringDirection,
    element_gain,
    make_scan_gain,
    scan_coefficients,
    total_gain,
)
from corridorsim.channel import LinkGainTensor, RfConstants
from corridorsim.errors import ConfigurationError, InfeasibleAssignmentError
from corridorsim.evaluator import validate
from corridorsim.geometry import BaseStationSite, Position3D

CFG = AntennaConfig()
ANN = AnnealerConfig(seed=1234)


def brute_force_max(values: np.ndarray) -> float:
    """Exhaustive maximum utility over injective row -> column mappings."""
    mm = values.shape[0]
    flat = values.reshape(mm, -1)
    best = -math.inf
    for cols in itertools.permutations(range(flat.shape[1]), mm):
        best = max(best, sum(flat[m, c] for m, c in enumerate(cols)))
    return best


def assignment_total(assignment, values: np.ndarray) -> float:
    return float(
        (assignment.beta[:, :, None] * assignment.x * values).sum()
    )


def grid_max(direction: SteeringDirection, sector, cfg=CFG, points=10_000) -> float:
    scans = np.linspace(sector[0], sector[1], points)
    return float(np.max(total_gain(direction, scans, cfg)))


class TestCodebook:
    def test_sectors_partition_the_circle(self):
        cb = BeamCodebook.uniform(16, tilt=math.radians(15))
        assert cb.n_beams == 16
        assert cb.sectors[0][0] == pytest.approx(-math.pi)
        assert cb.sectors[-1][1] == pytest.approx(math.pi)
        for (lo_a, hi_a), (lo_b, _) in zip(cb.sectors, cb.sectors[1:]):
            assert hi_a == pytest.approx(lo_b, abs=1e-12)
            assert hi_a - lo_a == pytest.approx(2 * math.pi / 16, abs=1e-12)


class TestOptimizeScanAngle:
    def test_constant_objective_single_element(self):
        cfg = AntennaConfig(n_h=1, n_v=1)
        d = SteeringDirection(math.radians(80), math.radians(30))
        phi, gain, evals = optimize_scan_angle(d, (-math.pi, math.pi), cfg, ANN)
        assert -math.pi < phi <= math.pi
        assert gain == pytest.approx(element_gain(d.theta, d.phi, cfg), abs=1e-12)
        assert evals > 0

    def test_full_domain_matches_grid(self):
        d = SteeringDirection(math.radians(75), 0.0)
        phi, gain, _ = optimize_scan_angle(d, (-math.pi, math.pi), CFG, ANN)
        assert gain >= grid_max(d, (-math.pi, math.pi)) - 0.1
        assert gain == pytest.approx(total_gain(d, phi, CFG), abs=1e-9)

    def test_tiny_sector_returns_midpoint(self):
        d = SteeringDirection(math.radians(85), math.radians(5))
        lo = 0.25
        sector = (lo, lo + 1e-6)
        phi, gain, _ = optimize_scan_angle(d, sector, CFG, ANN)
        assert abs(phi - (lo + 5e-7)) <= 1e-6
        assert gain == pytest.approx(total_gain(d, phi, CFG), abs=1e-9)

    def test_accuracy_over_random_triplets(self):
        rng = np.random.default_rng(2024)
        cb = BeamCodebook.uniform(16, tilt=CFG.theta_tilt)
        hits = 0
        for i in range(100):
            d = SteeringDirection(rng.uniform(0.2, math.pi - 0.2), rng.uniform(-math.pi, math.pi))
            sector = cb.sectors[rng.integers(16)]
            sub = np.random.default_rng(np.random.SeedSequence((77, i)))
            _, gain, _ = optimize_scan_angle(d, sector, CFG, ANN, rng=sub)
            if gain >= grid_max(d, sector) - 0.1:
                hits += 1
        assert hits >= 95

    def test_deterministic(self):
        d = SteeringDirection(math.radians(70), math.radians(-40))
        out1 = optimize_scan_angle(d, (-1.0, 1.0), CFG, ANN)
        out2 = optimize_scan_angle(d, (-1.0, 1.0), CFG, ANN)
        assert out1 == out2


class TestBeamGainTable:
    def bss(self):
        return [BaseStationSite(1, Position3D(0.0, 0.0, 25.0), 0.0)]

    def test_minimal_cardinality(self):
        uavs = [Position3D(100.0, 0.0, 100.0)]
        cb = BeamCodebook.uniform(1, tilt=CFG.theta_tilt)
        table = build_beam_gain_table(uavs, self.bss(), cb, CFG)
        assert table.phi_star.shape == (1, 1, 1)
        assert table.gain_db.shape == (1, 1, 1)
        assert table.stage1_evals > 0

    def test_phi_star_inside_sector_and_gain_bounded(self):
        uavs = [Position3D(120.0, 80.0, 90.0), Position3D(-60.0, 150.0, 110.0)]
        cb = BeamCodebook.uniform(8, tilt=CFG.theta_tilt)
        table = build_beam_gain_table(uavs, self.bss(), cb, CFG)
        bound = CFG.g_e_max_dbi + 10.0 * math.log10(CFG.n_elements) + 1e-9
        for m in range(2):
            for n, (lo, hi) in enumerate(cb.sectors):
                assert lo < table.phi_star[m, 0, n] <= hi
                assert table.gain_db[m, 0, n] <= bound

    def test_best_sector_matches_unsectored_optimum(self):
        uavs = [Position3D(150.0, 40.0, 100.0)]
        cb = BeamCodebook.uniform(16, tilt=CFG.theta_tilt)
        table = build_beam_gain_table(uavs, self.bss(), cb, CFG)
        from corridorsim.geometry import link_geometry

        g = link_geometry(self.bss()[0], uavs[0])
        d = SteeringDirection(g.theta, g.phi)
        full = grid_max(d, (-math.pi, math.pi))
        assert table.gain_db[0, 0, :].max() >= full - 0.1

    def test_mirror_symmetry(self):
        # mirror-image UAVs about the boresight: per-sector maxima coincide
        # for mirrored sectors, exactly on a grid and within 0.05 dB in the table
        bss = self.bss()
        uav_pos = Position3D(140.0, 90.0, 100.0)
        uav_neg = Position3D(140.0, -90.0, 100.0)
        cb = BeamCodebook.uniform(16, tilt=CFG.theta_tilt)
        from corridorsim.geometry import link_geometry

        g_pos = link_geometry(bss[0], uav_pos)
        g_neg = link_geometry(bss[0], uav_neg)
        d_pos = SteeringDirection(g_pos.theta, g_pos.phi)
        d_neg = SteeringDirection(g_neg.theta, g_neg.phi)
        for n, (lo, hi) in enumerate(cb.sectors):
            scans = np.linspace(lo, hi, 2000)
            gain_pos = total_gain(d_pos, scans, CFG)
            gain_neg = total_gain(d_neg, -scans, CFG)
            np.testing.assert_allclose(gain_pos, gain_neg, atol=1e-9)
        table = build_beam_gain_table([uav_pos, uav_neg], bss, cb, CFG)
        for n in range(16):
            assert table.gain_db[0, 0, n] == pytest.approx(
                table.gain_db[1, 0, 15 - n], abs=0.05
            )

    def test_deterministic_table(self):
        uavs = [Position3D(100.0, 50.0, 90.0)]
        cb = BeamCodebook.uniform(4, tilt=CFG.theta_tilt)
        t1 = build_beam_gain_table(uavs, self.bss(), cb, CFG)
        t2 = build_beam_gain_table(uavs, self.bss(), cb, CFG)
        assert np.array_equal(t1.phi_star, t2.phi_star)
        assert np.array_equal(t1.gain_db, t2.gain_db)
        assert t1.stage1_evals == t2.stage1_evals


def random_sectors(rng, count):
    """`count` random half-open sectors (lo, hi] inside (-pi, pi]."""
    ends = np.sort(rng.uniform(-math.pi, math.pi, size=(count, 2)), axis=1)
    return tuple((float(lo), float(hi)) for lo, hi in ends)


class TestOptimalScanAngles:
    """The batched stage-1 solver against the dense grid and the annealer."""

    @pytest.mark.parametrize(
        "cfg, n_beams",
        [
            (CFG, 16),
            (AntennaConfig(n_h=8, d_h=1.0), 64),
            (AntennaConfig(n_h=16, d_h=2.0), 2),  # many peaks per sector
            (AntennaConfig(n_h=1, n_v=1), 16),
        ],
    )
    def test_never_below_dense_grid(self, cfg, n_beams):
        rng = np.random.default_rng(n_beams * 100 + cfg.n_h)
        theta = rng.uniform(0.0, math.pi, 4)
        phi = rng.uniform(-math.pi, math.pi, 4)
        uniform = BeamCodebook.uniform(n_beams, tilt=cfg.theta_tilt).sectors
        for sectors in (uniform, random_sectors(rng, 8)):
            phi_star, gain_db, _ = optimal_scan_angles(theta, phi, sectors, cfg)
            for i in range(theta.size):
                d = SteeringDirection(theta[i], phi[i])
                for n, sector in enumerate(sectors):
                    best = grid_max(d, sector, cfg)
                    assert gain_db[i, n] >= best - 1e-9
                    assert gain_db[i, n] == pytest.approx(
                        total_gain(d, phi_star[i, n], cfg), abs=1e-9
                    )

    def test_never_below_annealer(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(0.05, math.pi - 0.05, 5)
        phi = rng.uniform(-math.pi, math.pi, 5)
        sectors = BeamCodebook.uniform(16, tilt=CFG.theta_tilt).sectors
        _, gain_db, _ = optimal_scan_angles(theta, phi, sectors, CFG)
        for i in range(theta.size):
            d = SteeringDirection(theta[i], phi[i])
            for n, sector in enumerate(sectors):
                sub = np.random.default_rng(np.random.SeedSequence((7, i, n)))
                _, annealed, _ = optimize_scan_angle(d, sector, CFG, ANN, rng=sub)
                assert gain_db[i, n] >= annealed - 1e-12

    def test_phi_star_in_half_open_sector(self):
        lo = 0.25
        sectors = ((-math.pi, -math.pi + 1e-6), (lo, lo + 1e-6), (lo, math.pi))
        rng = np.random.default_rng(11)
        theta = rng.uniform(0.0, math.pi, 50)
        phi = rng.uniform(-math.pi, math.pi, 50)
        phi_star, gain_db, _ = optimal_scan_angles(theta, phi, sectors, CFG)
        for n, (lo_n, hi_n) in enumerate(sectors):
            assert np.all(phi_star[:, n] > lo_n)
            assert np.all(phi_star[:, n] <= hi_n)
        for i in range(theta.size):
            d = SteeringDirection(theta[i], phi[i])
            np.testing.assert_allclose(
                gain_db[i], total_gain(d, phi_star[i], CFG), rtol=0.0, atol=1e-9
            )

    def test_evals_proportional_to_pairs(self):
        sectors = BeamCodebook.uniform(16, tilt=CFG.theta_tilt).sectors
        _, _, one = optimal_scan_angles(0.5, 0.1, sectors, CFG)
        _, _, many = optimal_scan_angles(np.full((3, 4), 0.5), 0.1, sectors, CFG)
        assert one > 0
        assert many == 12 * one

    @pytest.mark.parametrize("sectors", [((0.5, 0.5),), ((0.5, 0.2),), ()])
    def test_rejects_empty_sectors(self, sectors):
        with pytest.raises(ConfigurationError, match="sector"):
            optimal_scan_angles(1.0, 0.0, sectors, CFG)

    @pytest.mark.parametrize("cfg", [CFG, AntennaConfig(n_h=8, n_v=2, d_h=1.0)])
    def test_folding_reproduces_make_scan_gain(self, cfg):
        rng = np.random.default_rng(5)
        theta = rng.uniform(0.0, math.pi, (3, 4))
        phi = rng.uniform(-math.pi, math.pi, (3, 4))
        scans = rng.uniform(-math.pi, math.pi, 7)
        elem_db, coeffs, alpha = scan_coefficients(theta, phi, cfg)
        lags = np.arange(cfg.n_h)
        autocorr = np.stack(
            [(coeffs[..., d:] * coeffs[..., : cfg.n_h - d].conj()).sum(-1) for d in lags], -1
        )
        for idx in np.ndindex(theta.shape):
            gain = make_scan_gain(SteeringDirection(theta[idx], phi[idx]), cfg)
            expect = [gain(scan) for scan in scans]
            z = np.exp(1j * alpha * np.sin(scans)[:, None] * lags)
            summed = elem_db[idx] + 10 * np.log10(np.abs(z @ coeffs[idx]) ** 2)
            real_form = elem_db[idx] + 10 * np.log10(_scan_power(autocorr[idx], alpha, scans))
            np.testing.assert_allclose(summed, expect, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(real_form, expect, rtol=0.0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(-1e6, 1e6),
        phi=st.floats(-1e6, 1e6),
        n_beams=st.integers(1, 64),
    )
    def test_cauchy_schwarz_bound_and_sector(self, theta, phi, n_beams):
        sectors = BeamCodebook.uniform(n_beams, tilt=CFG.theta_tilt).sectors
        phi_star, gain_db, _ = optimal_scan_angles(theta, phi, sectors, CFG)
        bound = CFG.g_e_max_dbi + 10.0 * math.log10(CFG.n_h * CFG.n_v)
        assert np.all(gain_db <= bound + 1e-9)
        for n, (lo, hi) in enumerate(sectors):
            assert lo < phi_star[n] <= hi


class TestBuildUtility:
    def table(self, gain_db):
        from corridorsim.allocator import BeamGainTable

        g = np.asarray(gain_db, dtype=float)
        return BeamGainTable(phi_star=np.zeros_like(g), gain_db=g, stage1_evals=0)

    def test_unit_case(self):
        rf = RfConstants(tx_power_w=1.0)
        gains = LinkGainTensor(power_gains=np.array([[1.0]]))
        util = build_utility(self.table([[[0.0]]]), gains, rf)
        assert util.values[0, 0, 0] == pytest.approx(1.0)

    def test_chained_hand_value(self):
        # P = 10, |h|^2 = 4.645e-9, G = 4.041 dB -> 1.179e-7
        rf = RfConstants(tx_power_w=10.0)
        gains = LinkGainTensor(power_gains=np.array([[4.645e-9]]))
        util = build_utility(self.table([[[4.041]]]), gains, rf)
        expect = 10.0 * 4.645e-9 * 10.0 ** 0.4041
        assert util.values[0, 0, 0] == pytest.approx(expect, rel=1e-12)
        assert util.values[0, 0, 0] == pytest.approx(1.179e-7, rel=1e-3)

    def test_ten_db_scaling(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(-30, 10, size=(2, 3, 4))
        gains = LinkGainTensor(power_gains=rng.uniform(1e-10, 1e-7, size=(2, 3)))
        u1 = build_utility(self.table(g), gains, RfConstants())
        u2 = build_utility(self.table(g + 10.0), gains, RfConstants())
        np.testing.assert_allclose(u2.values, 10.0 * u1.values, rtol=1e-12)

    def test_power_divisor(self):
        gains = LinkGainTensor(power_gains=np.array([[2.0]]))
        u = build_utility(self.table([[[0.0]]]), gains, RfConstants(tx_power_w=8.0), 16.0)
        assert u.values[0, 0, 0] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        gains = LinkGainTensor(power_gains=np.ones((3, 2)))
        with pytest.raises(ValueError, match="links"):
            build_utility(self.table(np.zeros((2, 2, 4))), gains, RfConstants())


class TestSolveAssignment:
    def test_two_by_two_diagonal(self):
        util = UtilityTensor(values=np.array([[[10.0], [1.0]], [[1.0], [10.0]]]))
        a = solve_assignment(util)
        assert a.beta.tolist() == [[1, 0], [0, 1]]
        assert assignment_total(a, util.values) == pytest.approx(20.0)

    def test_single_uav_takes_argmax(self):
        values = np.array([[[3.0, 9.0], [4.0, 1.0]]])
        a = solve_assignment(UtilityTensor(values=values))
        assert serving_beam(a, 0) == (0, 1)

    def test_three_by_eight_vs_brute_force(self):
        rng = np.random.default_rng(41)
        values = rng.uniform(0.0, 1.0, size=(3, 4, 2))
        a = solve_assignment(UtilityTensor(values=values))
        assert assignment_total(a, values) == pytest.approx(brute_force_max(values), rel=1e-12)

    def test_optimal_on_200_random_instances(self):
        rng = np.random.default_rng(1001)
        for _ in range(200):
            mm = int(rng.integers(1, 6))
            ll = int(rng.integers(1, 4))
            nn = int(rng.integers(1, 11))
            while ll * nn > 10 or mm > ll * nn:
                ll = int(rng.integers(1, 4))
                nn = int(rng.integers(1, 11))
            values = rng.uniform(0.0, 1.0, size=(mm, ll, nn))
            a = solve_assignment(UtilityTensor(values=values))
            assert not validate(a, mm, ll, nn)
            total = assignment_total(a, values)
            assert total == pytest.approx(brute_force_max(values), rel=1e-9)

    def test_infeasible_names_counts(self):
        with pytest.raises(InfeasibleAssignmentError, match=r"5 UAVs.*4 BS-beam"):
            solve_assignment(UtilityTensor(values=np.ones((5, 2, 2))))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            mm, ll, nn = 4, 2, 3
            values = rng.uniform(0.0, 1.0, size=(mm, ll, nn))
            perm = rng.permutation(mm)
            a = solve_assignment(UtilityTensor(values=values))
            b = solve_assignment(UtilityTensor(values=values[perm]))
            np.testing.assert_array_equal(b.beta, a.beta[perm])
            np.testing.assert_array_equal(b.x, a.x[perm])

    def test_scale_invariance(self):
        rng = np.random.default_rng(66)
        values = rng.uniform(0.0, 1.0, size=(3, 2, 3))
        a = solve_assignment(UtilityTensor(values=values))
        for c in (1e-9, 0.5, 3.0, 1e12):
            b = solve_assignment(UtilityTensor(values=c * values))
            np.testing.assert_array_equal(a.beta, b.beta)
            np.testing.assert_array_equal(a.x, b.x)

    def test_dominates_random(self):
        rng = np.random.default_rng(77)
        for trial in range(50):
            mm, ll, nn = 5, 2, 4
            values = rng.uniform(0.0, 1.0, size=(mm, ll, nn))
            a = solve_assignment(UtilityTensor(values=values))
            r = allocate_random(mm, ll, nn, seed=trial)
            assert assignment_total(a, values) >= assignment_total(r, values) - 1e-12


class TestAllocateRandom:
    def test_perfect_matching_when_tight(self):
        a = allocate_random(6, 2, 3, seed=8)
        assert not validate(a, 6, 2, 3)
        assert a.x.sum(axis=0).max() == 1
        assert a.x.sum() == 6  # every beam used exactly once

    def test_deterministic(self):
        a = allocate_random(4, 2, 4, seed=123)
        b = allocate_random(4, 2, 4, seed=123)
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(a.x, b.x)

    def test_uniform_over_columns(self):
        counts = np.zeros(4)
        for seed in range(10_000):
            a = allocate_random(1, 2, 2, seed=seed)
            l, n = serving_beam(a, 0)
            counts[2 * l + n] += 1
        np.testing.assert_allclose(counts / 10_000, 0.25, atol=0.02)

    def test_infeasible(self):
        with pytest.raises(InfeasibleAssignmentError):
            allocate_random(5, 2, 2, seed=0)


class TestAllocateClosestBs:
    def bss(self):
        return [
            BaseStationSite(1, Position3D(0.0, 0.0, 25.0), 0.0),
            BaseStationSite(2, Position3D(500.0, 0.0, 25.0), 0.0),
        ]

    def test_nearest_wins_regardless_of_utility(self):
        uavs = [Position3D(100.0, 0.0, 100.0)]
        # utility strongly favors the far BS, distance still decides
        values = np.array([[[0.001, 0.001], [100.0, 100.0]]])
        a = allocate_closest_bs(uavs, self.bss(), UtilityTensor(values=values))
        l, _ = serving_beam(a, 0)
        assert l == 0

    def test_two_uavs_same_bs_distinct_beams(self):
        uavs = [Position3D(90.0, 0.0, 100.0), Position3D(110.0, 0.0, 100.0)]
        values = np.array(
            [
                [[5.0, 7.0], [0.1, 0.2]],
                [[9.0, 3.0], [0.3, 0.1]],
            ]
        )
        a = allocate_closest_bs(uavs, self.bss(), UtilityTensor(values=values))
        assert serving_beam(a, 0) == (0, 1)  # argmax of [5, 7]
        assert serving_beam(a, 1) == (0, 0)  # beam 1 taken? no: argmax of free {0}
        assert not validate(a, 2, 2, 2)

    def test_overflow_to_next_nearest(self):
        # both UAVs nearest to BS 0, which has a single beam
        uavs = [Position3D(90.0, 0.0, 100.0), Position3D(100.0, 0.0, 100.0)]
        values = np.ones((2, 2, 1))
        a = allocate_closest_bs(uavs, self.bss(), UtilityTensor(values=values))
        assert serving_beam(a, 0) == (0, 0)
        assert serving_beam(a, 1) == (1, 0)  # BS 0 full, next nearest
        assert not validate(a, 2, 2, 1)

    def test_equidistant_tie_lower_index(self):
        uavs = [Position3D(250.0, 0.0, 100.0)]  # equidistant from both BSs
        values = np.ones((1, 2, 2))
        a = allocate_closest_bs(uavs, self.bss(), UtilityTensor(values=values))
        l, _ = serving_beam(a, 0)
        assert l == 0

    def test_no_free_beam_anywhere(self):
        uavs = [Position3D(90.0 + k, 0.0, 100.0) for k in range(3)]
        values = np.ones((3, 2, 1))
        with pytest.raises(InfeasibleAssignmentError, match="no free beam"):
            allocate_closest_bs(uavs, self.bss()[:1], UtilityTensor(values=values[:, :1]))


class TestTwoStagePipeline:
    def test_minimal_scenario(self):
        uavs = [Position3D(150.0, 0.0, 100.0)]
        bss = [BaseStationSite(1, Position3D(0.0, 0.0, 25.0), 0.0)]
        cb = BeamCodebook.uniform(1, tilt=CFG.theta_tilt)
        gains = LinkGainTensor(power_gains=np.array([[1e-8]]))
        a, table, timings = allocate_two_stage(uavs, bss, cb, CFG, gains, RfConstants())
        assert a.beta.tolist() == [[1]]
        assert a.x.tolist() == [[[1]]]
        assert a.phi_scan_chosen is not None
        assert timings["stage1_seconds"] > 0
        assert timings["stage2_seconds"] > 0

    def test_matches_brute_force_small(self):
        uavs = [Position3D(150.0, 40.0, 100.0), Position3D(-120.0, -30.0, 100.0)]
        bss = [BaseStationSite(1, Position3D(0.0, 0.0, 25.0), 0.0)]
        cb = BeamCodebook.uniform(2, tilt=CFG.theta_tilt)
        gains = LinkGainTensor(power_gains=np.array([[2e-8], [1e-8]]))
        a, table, _ = allocate_two_stage(uavs, bss, cb, CFG, gains, RfConstants())
        util = build_utility(table, gains, RfConstants())
        assert assignment_total(a, util.values) == pytest.approx(
            brute_force_max(util.values), rel=1e-12
        )
        assert not validate(a, 2, 1, 2)
