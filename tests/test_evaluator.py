import math

import numpy as np
import pytest

from corridorsim.allocator import Assignment, BeamGainTable, allocate_random
from corridorsim.antenna import AntennaConfig, SteeringDirection, total_gain
from corridorsim.channel import LinkGainTensor, RfConstants
from corridorsim.evaluator import evaluate_all, sinr_matrix, validate
from corridorsim.geometry import LINK_DTYPE
from oracles import interference_at, pairwise_sinr

CFG = AntennaConfig()


def make_assignment(pairs):
    """pairs[m] = (l, n) serving UAV m."""
    pairs = np.array(pairs, dtype=int).reshape(-1, 2)
    return Assignment(bs=pairs[:, 0], beam=pairs[:, 1])


def make_table(gain_db, phi_star=None):
    g = np.asarray(gain_db, dtype=float)
    p = np.zeros_like(g) if phi_star is None else np.asarray(phi_star, dtype=float)
    return BeamGainTable(phi_star=p, gain_db=g, stage1_evals=0)


def links_of(rows):
    """(M, L) link array from nested [m][l] (distance_3d, theta, phi) tuples."""
    return np.array(rows, dtype=LINK_DTYPE)


def flat_geoms(mm, ll, distance=100.0):
    return links_of([[(distance, math.pi / 2, 0.0)] * ll] * mm)


class TestInterference:
    def test_single_uav_no_interference(self):
        a = make_assignment([(0, 0)])
        gains = LinkGainTensor(power_gains=np.full((1, 2), 1e-8))
        table = make_table(np.zeros((1, 2, 1)))
        assert interference_at(0, a, gains, table, flat_geoms(1, 2), CFG, RfConstants()) == 0.0

    def test_single_bs_no_interference(self):
        a = make_assignment([(0, 0), (0, 1)])
        gains = LinkGainTensor(power_gains=np.full((2, 1), 1e-8))
        table = make_table(np.zeros((2, 1, 2)))
        for m in range(2):
            assert (
                interference_at(m, a, gains, table, flat_geoms(2, 1), CFG, RfConstants())
                == 0.0
            )

    def test_single_term_hand_oracle(self):
        # 2 UAVs on 2 BSs; victim 0 hears BS 1's beam for UAV 1
        a = make_assignment([(0, 0), (1, 0)])
        gains = LinkGainTensor(power_gains=np.array([[1e-8, 3e-9], [2e-9, 5e-9]]))
        phi_star = np.array([[[0.1], [0.4]], [[-0.2], [0.7]]])
        table = make_table(np.zeros((2, 2, 1)), phi_star)
        geoms = links_of(
            [
                [
                    (100.0, math.radians(80), math.radians(10)),
                    (150.0, math.radians(85), math.radians(-30)),
                ],
                [
                    (120.0, math.radians(95), math.radians(40)),
                    (90.0, math.radians(75), math.radians(5)),
                ],
            ]
        )
        rf = RfConstants()
        got = interference_at(0, a, gains, table, geoms, CFG, rf)
        # lone term: P * |h[0, 1]|^2 * 10^(G(victim angles toward BS 1, interferer scan)/10)
        victim_dir = SteeringDirection(geoms[0, 1]["theta"], geoms[0, 1]["phi"])
        g_db = total_gain(victim_dir, phi_star[1, 1, 0], CFG)
        expect = rf.tx_power_w * gains.power_gains[0, 1] * 10.0 ** (g_db / 10.0)
        assert got == pytest.approx(expect, rel=1e-12)


def rate_of_uav_0(a, gains, table, geoms, rf):
    return evaluate_all(a, gains, table, geoms, CFG, rf).per_uav_rate_bps[0]


class TestSinrThroughput:
    def single_link(self, p=10.0, h=3e-2, g_db=0.0, noise=0.3):
        a = make_assignment([(0, 0)])
        gains = LinkGainTensor(power_gains=np.array([[h]]))
        table = make_table(np.array([[[g_db]]]))
        rf = RfConstants(tx_power_w=p, noise_power_w=noise)
        return a, gains, table, flat_geoms(1, 1), rf

    def test_hand_sinr_of_one(self):
        a, gains, table, geoms, rf = self.single_link()
        assert sinr_matrix(a, gains, table, geoms, CFG, rf)[0] == pytest.approx(1.0, rel=1e-12)

    def test_zero_gain_zero_sinr(self):
        a, gains, table, geoms, rf = self.single_link(h=0.0)
        assert sinr_matrix(a, gains, table, geoms, CFG, rf)[0] == 0.0

    def test_doubling_noise_halves_sinr(self):
        a, gains, table, geoms, rf = self.single_link()
        s1 = sinr_matrix(a, gains, table, geoms, CFG, rf)[0]
        rf2 = RfConstants(tx_power_w=10.0, noise_power_w=0.6)
        s2 = sinr_matrix(a, gains, table, geoms, CFG, rf2)[0]
        assert s2 == pytest.approx(s1 / 2.0, rel=1e-12)

    def test_throughput_30_mbps_at_sinr_one(self):
        a, gains, table, geoms, rf = self.single_link()
        rate = rate_of_uav_0(a, gains, table, geoms, rf)
        assert rate == pytest.approx(30e6, rel=1e-12)

    def test_throughput_60_mbps_at_sinr_three(self):
        a, gains, table, geoms, rf = self.single_link(h=9e-2)
        assert sinr_matrix(a, gains, table, geoms, CFG, rf)[0] == pytest.approx(3.0, rel=1e-12)
        rate = rate_of_uav_0(a, gains, table, geoms, rf)
        assert rate == pytest.approx(60e6, rel=1e-12)

    def test_zero_sinr_zero_rate(self):
        a, gains, table, geoms, rf = self.single_link(h=0.0)
        assert rate_of_uav_0(a, gains, table, geoms, rf) == 0.0

    def test_single_uav_closed_form(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            p = rng.uniform(0.5, 20.0)
            h = rng.uniform(1e-10, 1e-6)
            g_db = rng.uniform(-40.0, 12.0)
            noise = rng.uniform(0.01, 1.0)
            a, gains, table, geoms, rf = self.single_link(p, h, g_db, noise)
            expect = p * h * 10.0 ** (g_db / 10.0) / noise
            assert sinr_matrix(a, gains, table, geoms, CFG, rf)[0] == pytest.approx(
                expect, rel=1e-12
            )

    def test_power_scaling_with_zero_noise(self):
        # with sigma^2 = 0 the SINR is a pure power ratio, invariant to P
        a = make_assignment([(0, 0), (1, 0)])
        gains = LinkGainTensor(power_gains=np.array([[1e-8, 2e-9], [3e-9, 8e-9]]))
        table = make_table(np.zeros((2, 2, 1)))
        geoms = flat_geoms(2, 2)
        s1 = sinr_matrix(
            a, gains, table, geoms, CFG, RfConstants(tx_power_w=1.0, noise_power_w=0.0)
        )[0]
        s2 = sinr_matrix(
            a, gains, table, geoms, CFG, RfConstants(tx_power_w=7.0, noise_power_w=0.0)
        )[0]
        assert s2 == pytest.approx(s1, rel=1e-12)
        # with sigma^2 > 0 the SINR is non-decreasing in P
        s3 = sinr_matrix(
            a, gains, table, geoms, CFG, RfConstants(tx_power_w=1.0, noise_power_w=0.3)
        )[0]
        s4 = sinr_matrix(
            a, gains, table, geoms, CFG, RfConstants(tx_power_w=7.0, noise_power_w=0.3)
        )[0]
        assert s4 >= s3

    def test_rate_monotone_in_serving_gain(self):
        rng = np.random.default_rng(15)
        a = make_assignment([(0, 0), (1, 0)])
        table = make_table(np.zeros((2, 2, 1)))
        geoms = flat_geoms(2, 2)
        rf = RfConstants()
        base = rng.uniform(1e-10, 1e-8, size=(2, 2))
        for _ in range(200):
            bump = rng.uniform(1.0, 10.0)
            g1 = LinkGainTensor(power_gains=base.copy())
            g2_arr = base.copy()
            g2_arr[0, 0] *= bump
            g2 = LinkGainTensor(power_gains=g2_arr)
            r1 = rate_of_uav_0(a, g1, table, geoms, rf)
            r2 = rate_of_uav_0(a, g2, table, geoms, rf)
            assert r2 >= r1

    def test_evaluate_all_finite(self):
        rng = np.random.default_rng(16)
        a = make_assignment([(0, 0), (1, 0), (0, 1)])
        gains = LinkGainTensor(power_gains=rng.uniform(1e-10, 1e-7, size=(3, 2)))
        table = make_table(rng.uniform(-30, 10, size=(3, 2, 2)))
        report = evaluate_all(a, gains, table, flat_geoms(3, 2), CFG, RfConstants())
        assert np.all(np.isfinite(report.per_uav_sinr))
        assert np.all(np.isfinite(report.per_uav_rate_bps))
        assert np.all(report.per_uav_rate_bps >= 0.0)
        assert report.total_rate_bps == pytest.approx(report.per_uav_rate_bps.sum())
        assert report.mean_rate_bps == pytest.approx(report.per_uav_rate_bps.mean())


class TestSinrMatrix:
    """The one-pass SINR matrix against the scalar interference_at loop."""

    def random_case(self, rng, largest=False):
        ll, nn = (4, 4) if largest else rng.integers(1, 5, size=2)
        mm = 12 if largest else int(rng.integers(1, min(12, ll * nn) + 1))
        a = allocate_random(mm, ll, nn, seed=int(rng.integers(2**32)))
        gains = LinkGainTensor(power_gains=rng.uniform(1e-10, 1e-7, size=(mm, ll)))
        table = make_table(
            rng.uniform(-30.0, 12.0, size=(mm, ll, nn)),
            rng.uniform(-math.pi, math.pi, size=(mm, ll, nn)),
        )
        geoms = links_of(
            [
                [
                    (100.0, rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
                    for _ in range(ll)
                ]
                for _ in range(mm)
            ]
        )
        divisor = float(rng.uniform(1.5, 16.0))
        rf = RfConstants(noise_power_w=float(rng.uniform(1e-10, 1e-8)))
        return a, gains, table, geoms, rf, divisor

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(2024)
        interfered = 0  # UAVs where interference at least doubles I + N
        for case in range(40):
            a, gains, table, geoms, rf, divisor = self.random_case(rng, case == 0)
            got = sinr_matrix(a, gains, table, geoms, CFG, rf, divisor)
            mm = a.bs.size
            assert got.shape == (mm,)
            p_eff = rf.tx_power_w / divisor
            for m in range(mm):
                l, n = a.bs[m], a.beam[m]
                signal = p_eff * gains.power_gains[m, l] * 10.0 ** (table.gain_db[m, l, n] / 10.0)
                i_ref = interference_at(m, a, gains, table, geoms, CFG, rf, divisor)
                expect = signal / (i_ref + rf.noise_power_w)
                assert got[m] == pytest.approx(expect, rel=1e-12, abs=0.0)
                interfered += i_ref > rf.noise_power_w
            report = evaluate_all(a, gains, table, geoms, CFG, rf, divisor)
            np.testing.assert_array_equal(report.per_uav_sinr, got)
            rates = rf.bandwidth_hz * np.log2(1.0 + got)
            np.testing.assert_allclose(report.per_uav_rate_bps, rates, rtol=1e-12)
        assert interfered > 0


class TestSinrMatrixFoldsEachLinkOnce:
    """sinr_matrix folds the (M, L) directions once; the M x M fold is the oracle."""

    def case(self, rng, mm, ll, nn, one_bs=False):
        if one_bs:
            a = make_assignment([(0, beam) for beam in rng.permutation(nn)[:mm]])
        else:
            a = allocate_random(mm, ll, nn, seed=int(rng.integers(2**32)))
        gains = LinkGainTensor(power_gains=rng.uniform(1e-10, 1e-7, size=(mm, ll)))
        table = make_table(
            rng.uniform(-30.0, 12.0, size=(mm, ll, nn)),
            rng.uniform(-math.pi, math.pi, size=(mm, ll, nn)),
        )
        links = np.empty((mm, ll), dtype=LINK_DTYPE)
        links["distance_3d"] = 100.0
        links["theta"] = rng.uniform(0.0, math.pi, size=(mm, ll))
        links["phi"] = rng.uniform(-math.pi, math.pi, size=(mm, ll))
        rf = RfConstants(noise_power_w=float(rng.uniform(1e-10, 1e-8)))
        return a, gains, table, links, CFG, rf, float(rng.uniform(1.0, 16.0))

    @pytest.mark.parametrize(
        "mm, ll, nn, one_bs",
        [
            (1, 1, 1, False),
            (2, 5, 3, False),  # fewer UAVs than BSs
            (3, 6, 1, False),
            (7, 4, 4, False),
            (12, 4, 4, False),
            (6, 4, 8, True),  # every UAV on one BS: no interference
            (64, 4, 16, False),
            (64, 6, 12, False),
        ],
    )
    def test_equals_the_pairwise_fold(self, mm, ll, nn, one_bs):
        rng = np.random.default_rng([mm, ll, nn, one_bs])
        for _ in range(5):
            args = self.case(rng, mm, ll, nn, one_bs)
            got = sinr_matrix(*args)
            np.testing.assert_array_equal(got, pairwise_sinr(*args))
            if one_bs:
                a, gains, table, _, _, rf, divisor = args
                rows = np.arange(mm)
                signal = (
                    rf.tx_power_w / divisor * gains.power_gains[rows, 0]
                    * 10.0 ** (table.gain_db[rows, 0, a.beam] / 10.0)
                )
                np.testing.assert_array_equal(got, signal / rf.noise_power_w)


class TestValidate:
    def test_clean_assignment(self):
        a = make_assignment([(0, 0), (1, 1)])
        assert validate(a, 2, 2, 2) == []

    def test_c2_overloaded_bs(self):
        mm, ll, nn = 3, 2, 2
        # 3 UAVs on BS 0, which has only 2 beams: one beam serves two of them
        a = make_assignment([(0, 0), (0, 1), (0, 0)])
        problems = validate(a, mm, ll, nn)
        assert problems == ["C4: beam (0, 0) serves 2 UAVs, limit 1"]

    @pytest.mark.parametrize("l, n", [(-1, 0), (2, 0), (0, -1), (0, 2)])
    def test_index_out_of_range_names_the_uav(self, l, n):
        a = make_assignment([(0, 0), (l, n), (1, 1)])
        problems = validate(a, 3, 2, 2)
        assert len(problems) == 1 and problems[0].startswith(f"UAV 1: BS {l}, beam {n} ")

    def test_c4_shared_beam_named(self):
        a = make_assignment([(0, 0), (0, 0)])
        problems = validate(a, 2, 2, 2)
        assert any(v.startswith("C4") and "(0, 0)" in v for v in problems)

    def test_never_raises(self):
        for bs, beam in (([0], [0, 1]), ([0, 1, 1], [0, 1, 0])):
            a = Assignment(bs=np.array(bs), beam=np.array(beam))
            problems = validate(a, 2, 2, 2)  # reported, not raised
            assert len(problems) == 1 and problems[0].startswith("shape mismatch")
