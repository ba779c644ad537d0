import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridorsim.allocator import (
    MAX_ARRAY_SIDE,
    MAX_BEAMS,
    MAX_CANDIDATES,
    MAX_D_H_WAVELENGTHS,
    MAX_TRIPLETS,
    BeamCodebook,
    allocate_closest_bs,
    allocate_random,
    build_beam_gain_table,
    build_utility,
    fill_scan_angles,
    optimal_scan_angles,
    solve_assignment,
    stage1_size_errors,
)
from corridorsim.allocator import _kernel_power, _lobe_offsets, _lobe_peaks
from corridorsim.antenna import (
    AntennaConfig,
    SteeringDirection,
    element_gain,
    folded_gain_db,
    make_scan_gain,
    scan_coefficients,
    total_gain,
    vertical_weight,
)
from corridorsim.channel import LinkGainTensor, RfConstants
from corridorsim.errors import ConfigurationError, InfeasibleAssignmentError
from corridorsim.evaluator import validate
from corridorsim.geometry import BaseStationSite, Position3D, generate_corridor, link_geometries
from corridorsim.harness import ScenarioConfig, validate_config
from oracles import (
    AnnealerConfig,
    array_power,
    golden_section_peaks,
    grid_newton_peaks,
    optimize_scan_angle,
    scan_power,
)

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
    rows = np.arange(assignment.bs.size)
    return float(values[rows, assignment.bs, assignment.beam].sum())


def served(assignment) -> list[tuple[int, int]]:
    """(BS, beam) of every UAV."""
    return list(zip(assignment.bs.tolist(), assignment.beam.tolist()))


def grid_max(direction: SteeringDirection, sector, cfg=CFG, points=10_000) -> float:
    scans = np.linspace(sector[0], sector[1], points)
    return float(np.max(total_gain(direction, scans, cfg)))


class TestCodebook:
    def test_sectors_partition_the_circle(self):
        cb = BeamCodebook(16)
        assert cb.n_beams == 16
        assert cb.sectors[0][0] == pytest.approx(-math.pi)
        assert cb.sectors[-1][1] == pytest.approx(math.pi)
        for (lo_a, hi_a), (lo_b, _) in zip(cb.sectors, cb.sectors[1:]):
            assert hi_a == pytest.approx(lo_b, abs=1e-12)
            assert hi_a - lo_a == pytest.approx(2 * math.pi / 16, abs=1e-12)

    def test_no_beam_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="codebook needs >= 1 beam, got 0"):
            BeamCodebook(0).sectors

    def test_more_beams_than_the_bound_are_a_configuration_error(self):
        assert len(BeamCodebook(MAX_BEAMS).sectors) == MAX_BEAMS
        message = f"codebook.n_beams must be <= {MAX_BEAMS}, got {MAX_BEAMS + 1}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            BeamCodebook(MAX_BEAMS + 1).sectors


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
        cb = BeamCodebook(16)
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
        cb = BeamCodebook(1)
        table = build_beam_gain_table(uavs, self.bss(), cb, CFG)
        assert table.phi_star.shape == (1, 1, 1)
        assert table.gain_db.shape == (1, 1, 1)
        assert table.stage1_evals > 0

    def test_phi_star_inside_sector_and_gain_bounded(self):
        uavs = [Position3D(120.0, 80.0, 90.0), Position3D(-60.0, 150.0, 110.0)]
        cb = BeamCodebook(8)
        table = build_beam_gain_table(uavs, self.bss(), cb, CFG)
        bound = CFG.g_e_max_dbi + 10.0 * math.log10(CFG.n_elements) + 1e-9
        for m in range(2):
            for n, (lo, hi) in enumerate(cb.sectors):
                assert lo < table.phi_star[m, 0, n] <= hi
                assert table.gain_db[m, 0, n] <= bound

    def test_best_sector_matches_unsectored_optimum(self):
        uavs = [Position3D(150.0, 40.0, 100.0)]
        cb = BeamCodebook(16)
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
        cb = BeamCodebook(16)
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
        cb = BeamCodebook(4)
        t1 = build_beam_gain_table(uavs, self.bss(), cb, CFG)
        t2 = build_beam_gain_table(uavs, self.bss(), cb, CFG)
        assert np.array_equal(t1.phi_star, t2.phi_star)
        assert np.array_equal(t1.gain_db, t2.gain_db)
        assert t1.stage1_evals == t2.stage1_evals


def random_sectors(rng, count):
    """A random partition of (-pi, pi] into `count` consecutive sectors (lo, hi]."""
    ends = [-math.pi, *np.sort(rng.uniform(-math.pi, math.pi, count - 1)).tolist(), math.pi]
    return tuple(zip(ends[:-1], ends[1:]))


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
        uniform = BeamCodebook(n_beams).sectors
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
        sectors = BeamCodebook(16).sectors
        _, gain_db, _ = optimal_scan_angles(theta, phi, sectors, CFG)
        for i in range(theta.size):
            d = SteeringDirection(theta[i], phi[i])
            for n, sector in enumerate(sectors):
                sub = np.random.default_rng(np.random.SeedSequence((7, i, n)))
                _, annealed, _ = optimize_scan_angle(d, sector, CFG, ANN, rng=sub)
                assert gain_db[i, n] >= annealed - 1e-12

    @pytest.mark.parametrize(
        "sectors",
        [
            # Sectors of 1e-6 rad at -pi and at 0.25, with the circle between.
            ((-math.pi, -math.pi + 1e-6), (-math.pi + 1e-6, 0.25), (0.25, 0.25 + 1e-6),
             (0.25 + 1e-6, math.pi)),
            ((-math.pi, 0.25), (0.25, math.pi)),
        ],
    )
    def test_phi_star_in_half_open_sector(self, sectors):
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
        sectors = BeamCodebook(16).sectors
        _, _, one = optimal_scan_angles(0.5, 0.1, sectors, CFG)
        _, _, many = optimal_scan_angles(np.full((3, 4), 0.5), 0.1, sectors, CFG)
        assert one > 0
        assert many == 12 * one

    @pytest.mark.parametrize("sectors", [((0.5, 0.5),), ((0.5, 0.2),), ()])
    def test_rejects_empty_sectors(self, sectors):
        with pytest.raises(ConfigurationError, match="sector"):
            optimal_scan_angles(1.0, 0.0, sectors, CFG)

    @pytest.mark.parametrize(
        "sectors",
        [
            ((0.0, 1.0), (-1.0, 0.0)),  # unsorted
            ((-1.0, 0.5), (0.0, 1.0)),  # overlapping
            ((-1.0, 0.0), (0.5, 1.0)),  # a gap
            ((-math.pi, 0.0), (0.0, math.pi), (0.0, math.pi)),  # one sector twice
            ((-1.0, 0.0), (np.nextafter(0.0, 1.0), 1.0)),  # one ulp apart
        ],
        ids=["unsorted", "overlapping", "gap", "repeated", "ulp-gap"],
    )
    def test_rejects_sectors_that_are_not_consecutive(self, sectors):
        # Candidates are binned by one searchsorted over the sector ends.
        with pytest.raises(ConfigurationError, match="consecutive, each starting where"):
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
            real_form = elem_db[idx] + 10 * np.log10(scan_power(autocorr[idx], alpha, scans))
            np.testing.assert_allclose(summed, expect, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(real_form, expect, rtol=0.0, atol=1e-9)
        # The Dirichlet kernel of `_kernel_power` is the same power.
        beta = 2.0 * math.pi * cfg.d_h * np.sin(theta) * np.sin(phi)
        v2 = np.abs(vertical_weight(theta, cfg)) ** 2
        kernel = _kernel_power(v2[..., None], beta[..., None], alpha * np.sin(scans), cfg.n_h)
        for idx in np.ndindex(theta.shape):
            gain = make_scan_gain(SteeringDirection(theta[idx], phi[idx]), cfg)
            np.testing.assert_allclose(
                elem_db[idx] + 10 * np.log10(kernel[idx]), [gain(scan) for scan in scans],
                rtol=0.0, atol=1e-9,
            )

    def assert_sector_optima(self, theta, phi, sectors, cfg):
        """Every phi_star inside its sector and no worse than the dense grid."""
        phi_star, gain_db, _ = optimal_scan_angles(theta, phi, sectors, cfg)
        assert np.all(np.isfinite(phi_star))
        for i in range(np.size(theta)):
            d = SteeringDirection(np.ravel(theta)[i], np.ravel(phi)[i])
            for n, (lo, hi) in enumerate(sectors):
                assert lo < phi_star[i, n] <= hi
                assert gain_db[i, n] >= grid_max(d, (lo, hi), cfg) - 1e-9
                assert gain_db[i, n] == pytest.approx(
                    total_gain(d, phi_star[i, n], cfg), abs=1e-9
                )

    @pytest.mark.parametrize(
        "sectors",
        [
            # (-2, -1] and (1, 2] straddle +-pi/2.
            ((-math.pi, -2.0), (-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0), (2.0, math.pi)),
            ((-math.pi, math.pi),),  # one sector holds both poles
            # (-2, -pi/2] and (1, pi/2] end exactly on +-pi/2.
            ((-math.pi, -2.0), (-2.0, -math.pi / 2), (-math.pi / 2, 1.0), (1.0, math.pi / 2),
             (math.pi / 2, math.pi)),
            # (-pi/2, 0] and (pi/2, 2] start at +-pi/2, just outside.
            ((-math.pi, -math.pi / 2), (-math.pi / 2, 0.0), (0.0, math.pi / 2),
             (math.pi / 2, 2.0), (2.0, math.pi)),
        ],
        ids=["straddle", "whole-circle", "end-on-pole", "start-at-pole"],
    )
    @pytest.mark.parametrize("cfg", [CFG, AntennaConfig(n_h=8, d_h=1.0)])
    def test_sectors_at_and_across_the_poles(self, sectors, cfg):
        rng = np.random.default_rng(17)
        theta = rng.uniform(0.0, math.pi, 6)
        phi = rng.uniform(-math.pi, math.pi, 6)
        self.assert_sector_optima(theta, phi, sectors, cfg)

    def test_best_angle_on_a_pole_or_a_sector_end(self):
        # Toward (pi/2, 1.5) the main lobe of P sits at s = pi * sin(1.5),
        # beyond |alpha| = pi * cos(15 deg), so P(alpha * sin(phi)) rises all
        # the way to phi = -pi/2, where s = |alpha|.
        # (-2, -1] holds the pole; (-pi/2, 0] starts on it.
        sectors = ((-math.pi, -2.0), (-2.0, -1.0), (-1.0, math.pi))
        phi_star, _, _ = optimal_scan_angles(math.pi / 2, 1.5, sectors, CFG)
        assert phi_star[1] == -math.pi / 2
        sectors = ((-math.pi, -math.pi / 2), (-math.pi / 2, 0.0), (0.0, math.pi))
        phi_star, _, _ = optimal_scan_angles(math.pi / 2, 1.5, sectors, CFG)
        assert phi_star[1] == np.nextafter(-math.pi / 2, 0.0)
        # Toward (pi/2, 0) the main lobe sits at s = 0 and the sidelobes in
        # reach are lower than P at the inner ends of (0.2, pi/2] and (-pi/2, -0.2].
        sectors = ((-math.pi, -math.pi / 2), (-math.pi / 2, -0.2), (-0.2, 0.2),
                   (0.2, math.pi / 2), (math.pi / 2, math.pi))
        phi_star, _, _ = optimal_scan_angles(math.pi / 2, 0.0, sectors, CFG)
        assert phi_star[3] == np.nextafter(0.2, math.pi / 2)
        assert phi_star[1] == -0.2

    def test_alpha_beyond_pi_spans_several_periods(self):
        cfg = AntennaConfig(d_h=2.5)
        assert 2.0 * math.pi * cfg.d_h * math.cos(math.radians(cfg.tilt_deg)) > math.pi
        rng = np.random.default_rng(23)
        theta = rng.uniform(0.0, math.pi, 4)
        phi = rng.uniform(-math.pi, math.pi, 4)
        for sectors in (BeamCodebook(16).sectors, random_sectors(rng, 6)):
            self.assert_sector_optima(theta, phi, sectors, cfg)

    def test_single_column_power_is_constant(self):
        cfg = AntennaConfig(n_h=1)
        sectors = BeamCodebook(8).sectors
        theta, phi = np.array([0.3, 1.2, 2.9]), np.array([-2.0, 0.1, 1.5])
        for i in range(theta.size):
            d = SteeringDirection(theta[i], phi[i])
            assert np.ptp(total_gain(d, np.linspace(-math.pi, math.pi, 101), cfg)) < 1e-9
        self.assert_sector_optima(theta, phi, sectors, cfg)

    @pytest.mark.parametrize(
        "cfg", [AntennaConfig(tilt_deg=90.0), AntennaConfig(d_h=0.0)]
    )
    def test_vanishing_alpha_gives_finite_angles_in_every_sector(self, cfg):
        # cos(pi/2) leaves |alpha| ~ 1e-16; d_h = 0 makes alpha exactly 0.
        assert abs(2.0 * math.pi * cfg.d_h * math.cos(math.radians(cfg.tilt_deg))) < 1e-15
        theta, phi = np.array([0.4, 2.0]), np.array([0.3, -2.5])
        self.assert_sector_optima(theta, phi, BeamCodebook(16).sectors, cfg)

    @pytest.mark.parametrize(
        "sectors", [((-4.0, 0.0),), ((0.0, 3.5),), ((-math.pi - 1e-9, math.pi),)]
    )
    def test_rejects_sectors_outside_the_circle(self, sectors):
        with pytest.raises(ConfigurationError, match="sector"):
            optimal_scan_angles(1.0, 0.0, sectors, CFG)

    def test_accepts_the_largest_array_spacing_and_codebook(self):
        cfg = AntennaConfig(n_h=MAX_ARRAY_SIDE, n_v=MAX_ARRAY_SIDE, d_h=MAX_D_H_WAVELENGTHS)
        phi_star, _, _ = optimal_scan_angles(1.0, 0.3, BeamCodebook(MAX_BEAMS).sectors, cfg)
        assert phi_star.shape == (MAX_BEAMS,)

    @pytest.mark.parametrize(
        "cfg, n_beams, message",
        [
            (AntennaConfig(d_h=12.0), 16,
             f"antenna.d_h_wavelengths must be <= {MAX_D_H_WAVELENGTHS}, got 12.0"),
            (AntennaConfig(n_h=80), 16, f"antenna.n_h must be <= {MAX_ARRAY_SIDE}, got 80"),
            (AntennaConfig(n_v=MAX_ARRAY_SIDE + 1), 16,
             f"antenna.n_v must be <= {MAX_ARRAY_SIDE}, got {MAX_ARRAY_SIDE + 1}"),
            (CFG, MAX_BEAMS + 1, f"codebook.n_beams must be <= {MAX_BEAMS}, got {MAX_BEAMS + 1}"),
        ],
        ids=["d_h", "n_h", "n_v", "n_beams"],
    )
    def test_rejects_sizes_above_the_bounds(self, cfg, n_beams, message):
        # The bounds hold for library callers too, not only behind validate_config.
        ends = np.linspace(-math.pi, math.pi, n_beams + 1).tolist()
        sectors = tuple(zip(ends[:-1], ends[1:]))
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            optimal_scan_angles(1.0, 0.3, sectors, cfg)

    def test_rejects_more_triplets_than_the_bound(self):
        # Directions broadcast from theta and phi: 1 025 of them on 1 024 sectors.
        theta = np.full(MAX_TRIPLETS // MAX_BEAMS + 1, 1.0)
        message = (f"uav_count x bss x codebook.n_beams must be <= {MAX_TRIPLETS} stage-1 "
                   f"triplets, got {(MAX_TRIPLETS // MAX_BEAMS + 1) * MAX_BEAMS}")
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            optimal_scan_angles(theta, 0.3, BeamCodebook(MAX_BEAMS).sectors, CFG)

    @settings(max_examples=40, deadline=None)
    @given(
        n_h=st.integers(1, 16),
        d_h=st.floats(0.2, 2.5),
        tilt=st.floats(0.0, 90.0),
        theta=st.floats(0.0, math.pi),
        phi=st.floats(-math.pi, math.pi),
        ends=st.lists(st.floats(-math.pi, math.pi), min_size=2, max_size=5, unique=True),
    )
    def test_fuzz_never_below_dense_grid(self, n_h, d_h, tilt, theta, phi, ends):
        # Consecutive sectors between sorted ends, covering part of the circle or all of it.
        ends = sorted(ends)
        sectors = tuple(zip(ends[:-1], ends[1:]))
        # One vertical element: with n_v > 1 the vertical factor has exact
        # nulls (theta = tilt = 0, d_v = 0.5), where the whole pattern is
        # rounding noise near -350 dB and the solver's folded sum and the
        # grid's full array sum disagree by dBs.
        cfg = AntennaConfig(n_h=n_h, n_v=1, d_h=d_h, tilt_deg=tilt)
        self.assert_sector_optima(np.array([theta]), np.array([phi]), sectors, cfg)

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(-1e6, 1e6),
        phi=st.floats(-1e6, 1e6),
        n_beams=st.integers(1, 64),
    )
    def test_cauchy_schwarz_bound_and_sector(self, theta, phi, n_beams):
        sectors = BeamCodebook(n_beams).sectors
        phi_star, gain_db, _ = optimal_scan_angles(theta, phi, sectors, CFG)
        bound = CFG.g_e_max_dbi + 10.0 * math.log10(CFG.n_h * CFG.n_v)
        assert np.all(gain_db <= bound + 1e-9)
        for n, (lo, hi) in enumerate(sectors):
            assert lo < phi_star[n] <= hi


class TestKernelPrecision:
    """P from the sine ratio of the Dirichlet kernel, at grating lobes and vertical nulls."""

    @staticmethod
    def assert_matches_the_folded_sum(theta, phi, sectors, cfg):
        """gain_db within Cauchy-Schwarz and equal to the phasor sum at phi_star."""
        phi_star, gain_db, _ = optimal_scan_angles(theta, phi, sectors, cfg)
        assert np.all(gain_db <= cfg.g_e_max_dbi + 10.0 * math.log10(cfg.n_h * cfg.n_v) + 1e-12)
        elem_db, coeffs, alpha = scan_coefficients(theta, phi, cfg)
        folded = folded_gain_db(elem_db[..., None], coeffs[..., None, :], alpha, phi_star, cfg)
        np.testing.assert_allclose(gain_db, folded, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("d_h", [1.3, 2.5])
    @pytest.mark.parametrize("n_h", [3, 5, 7])
    def test_grating_lobes_at_odd_n_h(self, n_h, d_h):
        # At d_h > 1/2 the best scan of most directions lies on a grating
        # lobe, s - beta = 2 pi q with q != 0. There the sines of the
        # unreduced x are rounding noise unless n_h is a power of two.
        cfg = AntennaConfig(n_h=n_h, d_h=d_h)
        rng = np.random.default_rng(100 * n_h + int(10 * d_h))
        theta = rng.uniform(0.0, math.pi, 200)
        phi = rng.uniform(-math.pi, math.pi, 200)
        for sectors in (BeamCodebook(16).sectors, BeamCodebook(3).sectors):
            self.assert_matches_the_folded_sum(theta, phi, sectors, cfg)

    @pytest.mark.parametrize("n_h", [3, 5, 7])
    def test_every_grating_main_lobe_is_the_kernel_peak(self, n_h):
        # s = beta + 2 pi q lands on the main lobe of every turn q in reach.
        beta = np.linspace(-math.pi, math.pi, 101)
        for q in (-3, -2, -1, 1, 2, 3):
            power = _kernel_power(1.0, beta, beta + 2.0 * math.pi * q, n_h)
            np.testing.assert_allclose(power, n_h**2, rtol=1e-12)

    @pytest.mark.parametrize("n_v", [2, 3, 4])
    def test_vertical_null(self, n_v):
        # theta = tilt = 0 and d_v = 1/2 put the vertical factor on an exact
        # null: |v|^2 is rounding noise near -330 dB, shared by both forms.
        cfg = AntennaConfig(n_h=5, n_v=n_v, d_h=1.3, tilt_deg=0.0)
        theta = np.zeros(7)
        phi = np.linspace(-3.0, 3.0, 7)
        self.assert_matches_the_folded_sum(theta, phi, BeamCodebook(16).sectors, cfg)


class TestCandidateBound:
    """Stage 1 holds (links, candidates) arrays; their size is bounded by config key."""

    LARGE = AntennaConfig(n_h=MAX_ARRAY_SIDE, d_h=MAX_D_H_WAVELENGTHS)
    PER_LINK = 2648  # 2 x 63 lobes x 21 turns + 2 poles, at the default tilt

    def message(self, links):
        return (
            f"uav_count x bss x {self.PER_LINK} scan candidates per link (set by antenna.n_h, "
            f"antenna.d_h_wavelengths and antenna.tilt_deg) must be <= {MAX_CANDIDATES}, "
            f"got {links * self.PER_LINK}"
        )

    @pytest.mark.parametrize(
        "cfg",
        [LARGE, AntennaConfig(), AntennaConfig(n_h=1), AntennaConfig(n_h=5, d_h=2.5),
         AntennaConfig(n_h=7, d_h=1.3, tilt_deg=90.0), AntennaConfig(d_h=0.0)],
    )
    def test_the_bound_counts_the_candidates_stage1_evaluates(self, cfg):
        _, _, evals = optimal_scan_angles(1.0, 0.3, ((-math.pi, math.pi),), cfg)
        per_link = evals - 3  # one sector: its two ends and the final gain
        top = MAX_CANDIDATES // per_link
        assert stage1_size_errors(cfg, 1, top) == []
        assert len(stage1_size_errors(cfg, 1, top + 1)) == 1

    def test_negative_and_non_finite_spacings_are_checked_without_raising(self):
        # A huge negative d_h has a huge reach; a non-finite one or tilt has none.
        assert len(stage1_size_errors(AntennaConfig(d_h=-1e300), 16, 80)) == 1
        for cfg in (AntennaConfig(d_h=-math.inf), AntennaConfig(d_h=math.nan),
                    AntennaConfig(tilt_deg=math.inf)):
            assert stage1_size_errors(cfg, 16, 80) == []

    def test_validate_config_rejects_too_many_candidates(self):
        # 1 024 UAVs on 1 024 BSs with one beam is MAX_TRIPLETS exactly, and
        # 2 648 candidates on each of those 2^20 links would be ~22 GB.
        site = BaseStationSite(1, Position3D(0.0, 0.0, 25.0), 0.0)
        config = ScenarioConfig(
            uav_count=1024, bss=[site] * 1024, antenna=self.LARGE, codebook=BeamCodebook(1)
        )
        assert self.message(1 << 20) in validate_config(config)

    def test_optimal_scan_angles_rejects_too_many_candidates(self):
        # A broadcast view: 2^20 directions in no memory.
        theta = np.broadcast_to(1.0, (1024, 1024))
        with pytest.raises(ConfigurationError, match=re.escape(self.message(1 << 20))):
            optimal_scan_angles(theta, 0.3, ((-math.pi, math.pi),), self.LARGE)


def autocorrelation(theta, phi, cfg):
    """The (K, 1, n_h) lags r_d of `optimal_scan_angles` and the reach |alpha|."""
    _, coeffs, alpha = scan_coefficients(theta, phi, cfg)
    lags = [(coeffs[..., d:] * coeffs[..., : cfg.n_h - d].conj()).sum(-1) for d in range(cfg.n_h)]
    return np.stack(lags, -1).reshape(-1, 1, cfg.n_h), abs(alpha)


def kernel_derivatives(x, n_h):
    """First and second derivative of |sum_k exp(1j k x)|^2 / n_h^2 at x.

    The kernel is 1/n_h + sum_(d>=1) 2 (n_h - d) / n_h^2 cos(d x).
    """
    d = np.arange(1, n_h)
    weight = 2.0 * (n_h - d) / n_h**2
    phase = np.multiply.outer(x, d)
    return -(weight * d * np.sin(phase)).sum(-1), -(weight * d**2 * np.cos(phase)).sum(-1)


class TestLobePeaks:
    """The closed-form peaks of P(s), the lobes of a Dirichlet kernel."""

    @pytest.mark.parametrize("oracle", [grid_newton_peaks, golden_section_peaks])
    @settings(max_examples=200, deadline=None)
    @given(
        n_h=st.integers(1, 16),
        d_h=st.floats(0.2, 2.5),
        tilt=st.floats(0.0, 90.0),
        theta=st.floats(0.0, math.pi),
        phi=st.floats(-math.pi, math.pi),
    )
    def test_every_oracle_peak_has_a_closed_form_peak(self, oracle, n_h, d_h, tilt, theta, phi):
        # An oracle point strictly inside its cell whose P beats both cell ends
        # by more than rounding marks a local maximum there. Rounding alone can
        # put a point inside: at tilt 90 deg the reach is ~1e-15 and P is flat.
        cfg = AntennaConfig(n_h=n_h, n_v=1, d_h=d_h, tilt_deg=tilt)
        autocorr, reach = autocorrelation(theta, phi, cfg)
        found, _ = oracle(autocorr, reach, n_h - 1)

        def power(s):
            return array_power(autocorr[0, 0], np.exp(1j * s))

        width = 2.0 * reach / found.shape[-1]
        lower = -reach + width * np.arange(found.shape[-1])
        top = power(found).max()
        ends = np.maximum(power(lower), power(lower + width))
        inside = (found > lower) & (found < lower + width) & (power(found) > ends + 1e-12 * top)
        beta = 2.0 * math.pi * d_h * math.sin(theta) * math.sin(phi)
        peaks = _lobe_peaks(np.array(beta), reach, n_h)
        for s in found[inside]:
            near = np.abs(peaks - s) <= 1e-7
            assert near.any(), (s, peaks)
            assert power(peaks[near]).max() >= power(s) - 1e-12 * top

    @pytest.mark.parametrize("n_h", [1, 2, 3, 4, 8, 16])
    def test_offsets_are_the_kernel_maxima(self, n_h):
        offsets = np.array(_lobe_offsets(n_h))
        assert offsets.size == max(1, n_h - 1)
        assert offsets[0] == 0.0
        # One side lobe between each pair of consecutive nulls 2 pi j / n_h.
        nulls = 2.0 * math.pi * np.arange(1, n_h) / n_h
        assert np.all((nulls[:-1] < offsets[1:]) & (offsets[1:] < nulls[1:]))
        slope, curvature = kernel_derivatives(offsets, n_h)
        assert np.abs(slope).max() <= 1e-12
        if n_h > 1:  # the n_h = 1 kernel is flat
            assert curvature.max() < 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        n_h=st.integers(2, 16),
        n_v=st.integers(1, 8),
        d_h=st.floats(0.2, 2.5),
        d_v=st.floats(0.2, 2.5),
        tilt=st.floats(-90.0, 90.0),
        theta=st.floats(0.0, math.pi),
        phi=st.floats(-math.pi, math.pi),
    )
    def test_scan_coefficients_form_a_geometric_progression(
        self, n_h, n_v, d_h, d_v, tilt, theta, phi
    ):
        """c_(k+1) / c_k = exp(-1j * beta), beta = 2 pi d_h sin(theta) sin(phi).

        Stage 1's closed form depends on this: it makes P(s) the Dirichlet
        kernel shifted to beta, whose peaks `_lobe_peaks` writes down.
        """
        cfg = AntennaConfig(n_h=n_h, n_v=n_v, d_h=d_h, d_v=d_v, tilt_deg=tilt)
        _, coeffs, _ = scan_coefficients(theta, phi, cfg)
        beta = 2.0 * math.pi * d_h * math.sin(theta) * math.sin(phi)
        np.testing.assert_allclose(
            coeffs[1:] / coeffs[:-1], np.exp(-1j * beta), rtol=0.0, atol=1e-12
        )


class TestBuildUtility:
    def table(self, gain_db):
        from corridorsim.allocator import BeamGainTable

        g = np.asarray(gain_db, dtype=float)
        return BeamGainTable(phi_star=np.zeros_like(g), gain_db=g, stage1_evals=0)

    def test_unit_case(self):
        rf = RfConstants(tx_power_w=1.0)
        gains = LinkGainTensor(power_gains=np.array([[1.0]]))
        util = build_utility(self.table([[[0.0]]]), gains, rf)
        assert util[0, 0, 0] == pytest.approx(1.0)

    def test_chained_hand_value(self):
        # P = 10, |h|^2 = 4.645e-9, G = 4.041 dB -> 1.179e-7
        rf = RfConstants(tx_power_w=10.0)
        gains = LinkGainTensor(power_gains=np.array([[4.645e-9]]))
        util = build_utility(self.table([[[4.041]]]), gains, rf)
        expect = 10.0 * 4.645e-9 * 10.0 ** 0.4041
        assert util[0, 0, 0] == pytest.approx(expect, rel=1e-12)
        assert util[0, 0, 0] == pytest.approx(1.179e-7, rel=1e-3)

    def test_ten_db_scaling(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(-30, 10, size=(2, 3, 4))
        gains = LinkGainTensor(power_gains=rng.uniform(1e-10, 1e-7, size=(2, 3)))
        u1 = build_utility(self.table(g), gains, RfConstants())
        u2 = build_utility(self.table(g + 10.0), gains, RfConstants())
        np.testing.assert_allclose(u2, 10.0 * u1, rtol=1e-12)

    def test_dimension_mismatch(self):
        gains = LinkGainTensor(power_gains=np.ones((3, 2)))
        with pytest.raises(ValueError, match="links"):
            build_utility(self.table(np.zeros((2, 2, 4))), gains, RfConstants())


class TestSolveAssignment:
    def test_two_by_two_diagonal(self):
        util = np.array([[[10.0], [1.0]], [[1.0], [10.0]]])
        a = solve_assignment(util)
        assert served(a) == [(0, 0), (1, 0)]
        assert assignment_total(a, util) == pytest.approx(20.0)

    def test_single_uav_takes_argmax(self):
        values = np.array([[[3.0, 9.0], [4.0, 1.0]]])
        a = solve_assignment(values)
        assert served(a) == [(0, 1)]

    def test_three_by_eight_vs_brute_force(self):
        rng = np.random.default_rng(41)
        values = rng.uniform(0.0, 1.0, size=(3, 4, 2))
        a = solve_assignment(values)
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
            a = solve_assignment(values)
            assert not validate(a, mm, ll, nn)
            total = assignment_total(a, values)
            assert total == pytest.approx(brute_force_max(values), rel=1e-9)

    def test_infeasible_names_counts(self):
        with pytest.raises(InfeasibleAssignmentError, match=r"5 UAVs.*4 BS-beam"):
            solve_assignment(np.ones((5, 2, 2)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            mm, ll, nn = 4, 2, 3
            values = rng.uniform(0.0, 1.0, size=(mm, ll, nn))
            perm = rng.permutation(mm)
            a = solve_assignment(values)
            b = solve_assignment(values[perm])
            assert served(b) == [served(a)[m] for m in perm]

    def test_scale_invariance(self):
        rng = np.random.default_rng(66)
        values = rng.uniform(0.0, 1.0, size=(3, 2, 3))
        a = solve_assignment(values)
        for c in (1e-9, 0.5, 3.0, 1e12):
            b = solve_assignment(c * values)
            assert served(b) == served(a)

    def test_dominates_random(self):
        rng = np.random.default_rng(77)
        for trial in range(50):
            mm, ll, nn = 5, 2, 4
            values = rng.uniform(0.0, 1.0, size=(mm, ll, nn))
            a = solve_assignment(values)
            r = allocate_random(mm, ll, nn, seed=trial)
            assert assignment_total(a, values) >= assignment_total(r, values) - 1e-12


class TestSolveAssignmentTies:
    """Tied optima: any one may win, but validly and the same one every time."""

    def check_stable(self, values):
        mm, ll, nn = values.shape
        first = solve_assignment(values)
        assert not validate(first, mm, ll, nn)
        for _ in range(3):
            again = solve_assignment(values.copy())
            assert served(again) == served(first)
        return first

    def test_all_equal(self):
        for mm, ll, nn in ((1, 1, 1), (3, 2, 2), (4, 1, 4), (8, 4, 16)):
            a = self.check_stable(np.ones((mm, ll, nn)))
            assert assignment_total(a, np.ones((mm, ll, nn))) == pytest.approx(mm)

    def test_mirror_tied_beams(self):
        # with 4 sectors, beams 0/1 and 2/3 mirror about +-pi/2 and reach the
        # same sin(phi_scan), hence the same gain
        rng = np.random.default_rng(91)
        for _ in range(50):
            values = rng.uniform(0.0, 1.0, size=(4, 2, 4))
            values[:, :, 1] = values[:, :, 0]
            values[:, :, 3] = values[:, :, 2]
            a = self.check_stable(values)
            assert assignment_total(a, values) == pytest.approx(
                brute_force_max(values), rel=1e-12
            )

    def test_nominal_table_ties(self):
        cfg = ScenarioConfig()
        uavs = generate_corridor(cfg.corridor, 20)
        table = build_beam_gain_table(uavs, cfg.bss, BeamCodebook(16), CFG)
        gains = LinkGainTensor(power_gains=np.ones((20, len(cfg.bss))))
        self.check_stable(build_utility(table, gains, RfConstants()))


class TestAllocateRandom:
    def test_perfect_matching_when_tight(self):
        a = allocate_random(6, 2, 3, seed=8)
        assert not validate(a, 6, 2, 3)
        assert sorted(served(a)) == [(l, n) for l in range(2) for n in range(3)]  # each once

    def test_deterministic(self):
        a = allocate_random(4, 2, 4, seed=123)
        b = allocate_random(4, 2, 4, seed=123)
        assert served(b) == served(a)

    def test_uniform_over_columns(self):
        counts = np.zeros(4)
        for seed in range(10_000):
            a = allocate_random(1, 2, 2, seed=seed)
            counts[2 * a.bs[0] + a.beam[0]] += 1
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

    def distance(self, uavs):
        return link_geometries(uavs, self.bss())["distance_3d"]

    def test_nearest_wins_regardless_of_utility(self):
        uavs = [Position3D(100.0, 0.0, 100.0)]
        # utility strongly favors the far BS, distance still decides
        values = np.array([[[0.001, 0.001], [100.0, 100.0]]])
        a = allocate_closest_bs(self.distance(uavs), values)
        assert a.bs.tolist() == [0]

    def test_two_uavs_same_bs_distinct_beams(self):
        uavs = [Position3D(90.0, 0.0, 100.0), Position3D(110.0, 0.0, 100.0)]
        values = np.array(
            [
                [[5.0, 7.0], [0.1, 0.2]],
                [[9.0, 3.0], [0.3, 0.1]],
            ]
        )
        a = allocate_closest_bs(self.distance(uavs), values)
        # UAV 0: argmax of [5, 7]; UAV 1: beam 1 is taken, so the free beam 0
        assert served(a) == [(0, 1), (0, 0)]
        assert not validate(a, 2, 2, 2)

    def test_overflow_to_next_nearest(self):
        # both UAVs nearest to BS 0, which has a single beam
        uavs = [Position3D(90.0, 0.0, 100.0), Position3D(100.0, 0.0, 100.0)]
        values = np.ones((2, 2, 1))
        a = allocate_closest_bs(self.distance(uavs), values)
        assert served(a) == [(0, 0), (1, 0)]  # BS 0 full, next nearest
        assert not validate(a, 2, 2, 1)

    def test_equidistant_tie_lower_index(self):
        uavs = [Position3D(250.0, 0.0, 100.0)]  # equidistant from both BSs
        values = np.ones((1, 2, 2))
        a = allocate_closest_bs(self.distance(uavs), values)
        assert a.bs.tolist() == [0]

    def test_no_free_beam_anywhere(self):
        uavs = [Position3D(90.0 + k, 0.0, 100.0) for k in range(3)]
        values = np.ones((3, 2, 1))
        with pytest.raises(InfeasibleAssignmentError, match="no free beam"):
            allocate_closest_bs(self.distance(uavs)[:, :1], values[:, :1])


class TestTwoStagePipeline:
    def test_minimal_scenario(self):
        uavs = [Position3D(150.0, 0.0, 100.0)]
        bss = [BaseStationSite(1, Position3D(0.0, 0.0, 25.0), 0.0)]
        cb = BeamCodebook(1)
        gains = LinkGainTensor(power_gains=np.array([[1e-8]]))
        table = build_beam_gain_table(uavs, bss, cb, CFG)
        a = fill_scan_angles(solve_assignment(build_utility(table, gains, RfConstants())), table)
        assert served(a) == [(0, 0)]
        assert a.phi_scan_chosen is not None

    def test_matches_brute_force_small(self):
        uavs = [Position3D(150.0, 40.0, 100.0), Position3D(-120.0, -30.0, 100.0)]
        bss = [BaseStationSite(1, Position3D(0.0, 0.0, 25.0), 0.0)]
        cb = BeamCodebook(2)
        gains = LinkGainTensor(power_gains=np.array([[2e-8], [1e-8]]))
        table = build_beam_gain_table(uavs, bss, cb, CFG)
        util = build_utility(table, gains, RfConstants())
        a = fill_scan_angles(solve_assignment(util), table)
        assert assignment_total(a, util) == pytest.approx(brute_force_max(util), rel=1e-12)
        assert not validate(a, 2, 1, 2)
