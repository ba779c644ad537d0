import math

import numpy as np
import pytest

from corridorsim.antenna import (
    GAIN_FLOOR_DB,
    AntennaConfig,
    SteeringDirection,
    array_gain,
    beamforming_vector,
    element_gain,
    element_gain_horizontal,
    element_gain_vertical,
    folded_gain_db,
    make_scan_gain,
    scan_coefficients,
    steering_vector,
    total_gain,
)

CFG = AntennaConfig()  # 4x4, -8 dBi, 65/90 deg, 30 dB caps, 15 deg tilt
BOUND_16 = 10.0 * math.log10(16.0)  # 12.0412 dB


def deg(x):
    return math.radians(x)


class TestElementPattern:
    def test_vertical_boresight(self):
        assert element_gain_vertical(deg(90), CFG) == 0.0

    def test_vertical_at_155(self):
        # 12 * (65/65)^2 = 12, below the 30 dB cap
        assert element_gain_vertical(deg(155), CFG) == pytest.approx(-12.0, rel=1e-12)

    def test_vertical_at_zenith(self):
        expect = -12.0 * (90.0 / 65.0) ** 2  # -23.006, under the cap
        assert element_gain_vertical(0.0, CFG) == pytest.approx(expect, rel=1e-12)

    def test_horizontal_boresight(self):
        assert element_gain_horizontal(0.0, CFG) == 0.0

    def test_horizontal_at_beamwidth(self):
        assert element_gain_horizontal(deg(90), CFG) == pytest.approx(-12.0, rel=1e-12)

    def test_horizontal_back_capped(self):
        # 12 * (180/90)^2 = 48 > 30 so the front-to-back cap binds
        assert element_gain_horizontal(deg(180), CFG) == pytest.approx(-30.0)

    def test_combined_boresight(self):
        assert element_gain(deg(90), 0.0, CFG) == pytest.approx(-8.0)

    def test_combined_back(self):
        assert element_gain(deg(90), deg(180), CFG) == pytest.approx(-38.0)

    def test_combined_sum_of_cuts(self):
        # A_EV(155) = -12, A_EH(90) = -12, sum 24 under the 30 dB cap
        assert element_gain(deg(155), deg(90), CFG) == pytest.approx(-32.0)

    def test_cuts_bounded_and_even(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(-math.pi, math.pi)
            av = element_gain_vertical(theta, CFG)
            ah = element_gain_horizontal(phi, CFG)
            assert -CFG.sl_av_db <= av <= 0.0
            assert -CFG.a_m_db <= ah <= 0.0
            # even about their boresight arguments
            assert element_gain_vertical(math.pi - theta, CFG) == pytest.approx(
                av, abs=1e-12
            )
            assert element_gain_horizontal(-phi, CFG) == pytest.approx(ah, abs=1e-12)

    def test_peak_on_dense_grid(self):
        thetas = np.radians(np.linspace(0.0, 180.0, 181))
        phis = np.radians(np.linspace(-180.0, 180.0, 361))
        grid = element_gain(thetas[:, None], phis[None, :], CFG)
        assert grid.max() <= CFG.g_e_max_dbi + 1e-9
        assert grid[90, 180] == pytest.approx(CFG.g_e_max_dbi, abs=1e-12)


class TestVectors:
    def test_steering_all_ones_at_horizon_boresight(self):
        v = steering_vector(SteeringDirection(deg(90), 0.0), CFG)
        assert v.shape == (16,)
        np.testing.assert_allclose(v, np.ones(16), atol=1e-12)

    def test_steering_unit_modulus(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = SteeringDirection(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            np.testing.assert_allclose(np.abs(steering_vector(d, CFG)), 1.0, atol=1e-12)

    def test_steering_phases_two_element(self):
        cfg = AntennaConfig(n_h=2, n_v=1)
        v = steering_vector(SteeringDirection(deg(90), deg(30)), cfg)
        phases = np.angle(v)
        assert phases[0] == pytest.approx(0.0, abs=1e-12)
        assert phases[1] == pytest.approx(2.0 * math.pi * 0.5 * 0.5, rel=1e-12)  # pi/2

    def test_beamforming_uniform_no_tilt(self):
        cfg = AntennaConfig(tilt_deg=0.0)
        w = beamforming_vector(0.0, cfg)
        np.testing.assert_allclose(w, np.full(16, 0.25), atol=1e-12)

    def test_beamforming_unit_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            w = beamforming_vector(rng.uniform(-math.pi, math.pi), CFG)
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_beamforming_phase_difference(self):
        cfg = AntennaConfig(n_h=2, n_v=1)
        w = beamforming_vector(deg(90), cfg)
        diff = np.angle(w[1] / w[0])
        expect = -2.0 * math.pi * 0.5 * math.cos(deg(15))  # -3.0345 rad
        # compare on the circle
        assert math.remainder(diff - expect, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)


class TestArrayGain:
    def test_aligned_attains_cauchy_schwarz(self):
        cfg = AntennaConfig(tilt_deg=0.0)
        d = SteeringDirection(deg(90), 0.0)
        assert array_gain(d, 0.0, cfg) == pytest.approx(BOUND_16, rel=1e-9)

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            d = SteeringDirection(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            scan = rng.uniform(-math.pi, math.pi)
            assert array_gain(d, scan, CFG) <= BOUND_16 + 1e-9

    def test_single_element_is_flat(self):
        cfg = AntennaConfig(n_h=1, n_v=1)
        rng = np.random.default_rng(19)
        for _ in range(20):
            d = SteeringDirection(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            assert array_gain(d, rng.uniform(-math.pi, math.pi), cfg) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_vectorized_over_scan(self):
        d = SteeringDirection(deg(75), deg(10))
        scans = np.linspace(-math.pi, math.pi, 101)
        vec = array_gain(d, scans, CFG)
        assert vec.shape == (101,)
        for i in (0, 37, 100):
            assert vec[i] == pytest.approx(array_gain(d, float(scans[i]), CFG), abs=1e-12)

    def test_underflow_clamped(self):
        # two-element array with a scan placing the elements in anti-phase
        cfg = AntennaConfig(n_h=2, n_v=1, tilt_deg=0.0)
        d = SteeringDirection(deg(90), 0.0)
        # sin(scan) = 1 -> phase difference pi at half-wavelength spacing
        g = array_gain(d, deg(90), cfg)
        assert np.isfinite(g)
        assert g >= GAIN_FLOOR_DB


class TestTotalGain:
    def test_boresight_aligned(self):
        cfg = AntennaConfig(tilt_deg=0.0)
        d = SteeringDirection(deg(90), 0.0)
        assert total_gain(d, 0.0, cfg) == pytest.approx(-8.0 + BOUND_16, rel=1e-9)

    def test_single_element_boresight(self):
        cfg = AntennaConfig(n_h=1, n_v=1)
        d = SteeringDirection(deg(90), 0.0)
        assert total_gain(d, 0.5, cfg) == pytest.approx(CFG.g_e_max_dbi)

    def test_back_direction_bounded(self):
        d = SteeringDirection(deg(90), deg(180))
        rng = np.random.default_rng(21)
        for _ in range(20):
            assert total_gain(d, rng.uniform(-math.pi, math.pi), CFG) <= -38.0 + BOUND_16 + 1e-9

    def test_continuity_in_scan(self):
        # Smooth (< 1e-3 dB per 1e-6 rad) except near array-factor nulls,
        # where the dB slope spikes; even there the step stays tiny.
        rng = np.random.default_rng(29)
        steps = []
        for _ in range(100):
            d = SteeringDirection(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            scan = rng.uniform(-math.pi, math.pi - 1e-5)
            steps.append(abs(total_gain(d, scan, CFG) - total_gain(d, scan + 1e-6, CFG)))
        assert max(steps) < 0.1
        assert sum(s < 1e-3 for s in steps) >= 97

    def test_scan_closure_matches_direct(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            d = SteeringDirection(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            fn = make_scan_gain(d, CFG)
            scan = rng.uniform(-math.pi, math.pi)
            assert fn(scan) == pytest.approx(total_gain(d, scan, CFG), abs=1e-9)

    @pytest.mark.parametrize(
        "cfg", [CFG, AntennaConfig(n_h=7, n_v=3, d_h=0.6, d_v=0.4, tilt_deg=-5.0)]
    )
    def test_folded_gain_matches_direct(self, cfg):
        # The batched fold that stage 1, the evaluator and gain-sweep use,
        # checked directly rather than through make_scan_gain.
        rng = np.random.default_rng(43)
        theta = rng.uniform(0.0, math.pi, 300)
        phi = rng.uniform(-math.pi, math.pi, 300)
        scan = rng.uniform(-math.pi, math.pi, 300)
        got = folded_gain_db(*scan_coefficients(theta, phi, cfg), scan, cfg)
        assert got.shape == (300,)
        for t, p, s, g in zip(theta, phi, scan, got):
            assert g == pytest.approx(total_gain(SteeringDirection(t, p), s, cfg), abs=1e-9)
