import json
import math
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, spearmanr

from corridorsim.antenna import SPEED_OF_LIGHT
from corridorsim.channel import (
    _EXACT_RAY_LIMIT,
    _SEED_MASK,
    _link_rngs,
    ChannelProviderSpec,
    LinkGainTensor,
    RfConstants,
    aggregate_power,
    degrade,
    export_tensor,
    free_space_path_gain,
    generate_few_ray,
    generate_statistical,
    import_tensor,
)
from corridorsim.cli import main as cli_main
from corridorsim.errors import GeometryError, TensorFormatError
from corridorsim.geometry import LINK_DTYPE

RF = RfConstants()


def links_at(distances, theta=math.pi / 2, phi=0.0):
    """(M, L) link array with `distances`, nested [m][l], and one direction."""
    links = np.empty(np.shape(distances), dtype=LINK_DTYPE)
    links["distance_3d"] = distances
    links["theta"] = theta
    links["phi"] = phi
    return links


class TestFreeSpacePathGain:
    def test_fixed_point(self):
        lam = SPEED_OF_LIGHT / RF.carrier_hz
        assert free_space_path_gain(lam / (4.0 * math.pi), RF.carrier_hz) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_hand_value_100m(self):
        lam = SPEED_OF_LIGHT / 3.5e9
        expect = (lam / (4.0 * math.pi * 100.0)) ** 2  # ~4.646e-9
        got = free_space_path_gain(100.0, 3.5e9)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(4.646e-9, rel=1e-3)

    def test_inverse_square(self):
        g1 = free_space_path_gain(150.0, 2e9)
        g2 = free_space_path_gain(300.0, 2e9)
        assert g2 == pytest.approx(g1 / 4.0, rel=1e-12)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(GeometryError):
            free_space_path_gain(0.0, 1e9)


class TestFewRay:
    def test_single_ray_is_pure_los(self):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=1)
        tensor = generate_few_ray(links_at([[100.0, 250.0]]), spec, RF, 4)
        for l, d in enumerate((100.0, 250.0)):
            assert tensor.power_gains[0, l] == pytest.approx(
                free_space_path_gain(d, RF.carrier_hz), rel=1e-12
            )

    def test_deterministic(self):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=64)
        g = links_at([[120.0], [340.0]])
        t1 = generate_few_ray(g, spec, RF, 99)
        t2 = generate_few_ray(g, spec, RF, 99)
        assert np.array_equal(t1.power_gains, t2.power_gains)
        assert np.array_equal(t1.coefficients, t2.coefficients)

    def test_huge_k_converges_to_los(self):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=50, rician_k_db=200.0)
        tensor = generate_few_ray(links_at([[80.0]]), spec, RF, 8)
        los = free_space_path_gain(80.0, RF.carrier_hz)
        assert tensor.power_gains[0, 0] == pytest.approx(los, rel=1e-6)

    def test_aggregation_consistency(self):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=16)
        tensor = generate_few_ray(links_at([[100.0, 200.0], [150.0, 300.0]]), spec, RF, 3)
        np.testing.assert_array_equal(
            tensor.power_gains, aggregate_power(tensor.coefficients)
        )

    def test_mean_power_decreases_with_distance(self):
        # 100 seeded realizations per distance inside one tensor: rows share
        # the distance profile, per-link substreams differ.
        distances = [60.0, 90.0, 130.0, 180.0, 240.0, 310.0, 390.0, 480.0, 580.0, 690.0]
        g = links_at([distances] * 100)
        spec = ChannelProviderSpec(kind="few_ray", ray_count=8)
        tensor = generate_few_ray(g, spec, RF, 12)
        mean_gain = tensor.power_gains.mean(axis=0)
        rho = spearmanr(mean_gain, distances).statistic
        assert rho < -0.99

    def test_large_ray_count_converges_to_fixed_diffuse(self):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=1_000_000)
        g = links_at([[100.0]])
        t1 = generate_few_ray(g, spec, RF, 7)
        t2 = generate_few_ray(g, spec, RF, 7)
        assert np.array_equal(t1.coefficients, t2.coefficients)
        # reconstruct the infinite-ray limit: LOS phasor plus the fixed
        # diffuse phasor whose phase is the first draw of the link substream
        lam = SPEED_OF_LIGHT / RF.carrier_hz
        a0 = math.sqrt(free_space_path_gain(100.0, RF.carrier_hz))
        psi0 = math.fmod(2.0 * math.pi * 100.0 / lam, 2.0 * math.pi)
        chi = np.random.default_rng(np.random.SeedSequence((7, 0, 0))).uniform(
            -math.pi, math.pi
        )
        k_lin = 10.0 ** (spec.rician_k_db / 10.0)
        limit = a0 * np.exp(1j * psi0) + a0 / math.sqrt(k_lin) * np.exp(1j * chi)
        # residual sampling noise has relative scale ~1/sqrt(1e6)
        assert t1.power_gains[0, 0] == pytest.approx(abs(limit) ** 2, rel=1e-2)


def reference_link(spec, seed, distance, m, l, exact):
    """Coefficient of link (m, l) at `distance` and `seed`, written out from the model.

    The diffuse phase chi is the first draw of the link substream on both
    branches; `exact` sums the spec.ray_count - 1 uniform scatter phasors,
    otherwise err is the Gaussian limit drawn next.
    """
    n = spec.ray_count - 1
    lam = SPEED_OF_LIGHT / RF.carrier_hz
    a0 = math.sqrt(free_space_path_gain(distance, RF.carrier_hz))
    los = math.fmod(2.0 * math.pi * distance / lam, 2.0 * math.pi)
    rng = np.random.default_rng(np.random.SeedSequence((seed, m, l)))
    chi = rng.uniform(-math.pi, math.pi)
    if exact:
        psi = rng.uniform(-math.pi, math.pi, size=n)
        err = (np.cos(psi) + 1j * np.sin(psi)).sum() / n
    else:
        g = rng.standard_normal(2)
        err = (g[0] + 1j * g[1]) * math.sqrt(0.5 / n)
    s_amp = a0 / math.sqrt(10.0 ** (spec.rician_k_db / 10.0))
    h = a0 * complex(math.cos(los), math.sin(los))
    return h + s_amp * (complex(math.cos(chi), math.sin(chi)) + err)


def exact_walk_x(n, draws, seed, max_phases=1_000_000):
    """n |err|^2 of `draws` exact n-phasor sums, at most `max_phases` at a time."""
    rng = np.random.default_rng(seed)
    x = np.empty(draws)
    rows = max(1, max_phases // n)
    for start in range(0, draws, rows):
        k = min(rows, draws - start)
        psi = rng.uniform(-math.pi, math.pi, size=(k, n))
        err = (np.cos(psi) + 1j * np.sin(psi)).sum(axis=1) / n
        x[start : start + k] = n * np.abs(err) ** 2
    return x


def cdf_gap(x, cdf):
    """Largest distance between the empirical CDF of x and `cdf`."""
    x = np.sort(x)
    f = cdf(x)
    i = np.arange(x.size)
    return max(np.max((i + 1) / x.size - f), np.max(f - i / x.size))


def exp_cdf(x):
    return -np.expm1(-x)


def rayleigh_cdf(n):
    """CDF of n |err|^2 to first order in 1/n: density e^-x [1 - (x^2 - 4x + 2) / 4n]."""
    return lambda x: exp_cdf(x) + np.exp(-x) * (x * x - 2.0 * x) / (4.0 * n)


def rayleigh_bound(n):
    """max over x of |rayleigh_cdf(n) - Exp(1) CDF|, reached at x = 2 - sqrt(2)."""
    return 0.4612 / (4.0 * n)


class TestGaussianLimit:
    """Above _EXACT_RAY_LIMIT scatter rays err is drawn from its Gaussian limit.

    err = (1/n) sum_k exp(i psi_k) is Pearson's random walk. The limit has
    n |err|^2 ~ Exp(1) and components ~ N(0, 1/2n); the exact sum's CDF of
    n |err|^2 is off Exp(1) by at most rayleigh_bound(n) ~ 0.115/n.
    """

    # Largest CDF error the Gaussian branch may make. A KS test at
    # alpha = 0.01 needs (1.628 / 2e-3)^2 ~ 660 000 links to see it; the
    # montecarlo workload draws 2 048 per call.
    TOLERANCE = 2e-3
    DRAWS = 200_000
    # KS critical distance at alpha = 0.01 for DRAWS samples: 0.0036.
    ALLOWANCE = 1.628 / math.sqrt(DRAWS)

    def test_limit_is_where_the_bound_meets_the_tolerance(self):
        assert rayleigh_bound(_EXACT_RAY_LIMIT + 1) <= self.TOLERANCE
        # and no more than twice as high as it needs to be
        assert rayleigh_bound(_EXACT_RAY_LIMIT // 2 + 1) > self.TOLERANCE

    def test_rayleigh_correction_describes_the_exact_sum(self):
        # At n = 16 the 1/n term is resolvable: the exact sum is visibly off
        # Exp(1), and within sampling noise of the first-order density.
        n = 16
        x = exact_walk_x(n, self.DRAWS, seed=1905)
        assert cdf_gap(x, exp_cdf) > 1.5 * self.ALLOWANCE
        assert cdf_gap(x, rayleigh_cdf(n)) <= self.ALLOWANCE

    def test_exact_sum_at_first_gaussian_n_is_within_the_bound(self):
        n = _EXACT_RAY_LIMIT + 1
        x = exact_walk_x(n, self.DRAWS, seed=1919)
        assert cdf_gap(x, exp_cdf) <= rayleigh_bound(n) + self.ALLOWANCE

    @pytest.mark.parametrize("n", [_EXACT_RAY_LIMIT + 1, 100, 1_000, 10_000])
    def test_gaussian_branch_matches_the_limit(self, n):
        # 2 000 links at K = 0 dB, so the diffuse amplitude equals the LOS
        # one; err is what is left after the LOS ray (ray_count = 1) and the
        # diffuse phasor exp(i chi) are taken off.
        g = links_at([[100.0] * 50] * 40)
        spec = ChannelProviderSpec(kind="few_ray", ray_count=n + 1, rician_k_db=0.0)
        h = generate_few_ray(g, spec, RF, 6).coefficients[:, :, 0]
        los = generate_few_ray(g, replace(spec, ray_count=1), RF, 6).coefficients[:, :, 0]
        chi = np.array(
            [
                [
                    np.random.default_rng(np.random.SeedSequence((6, m, l))).uniform(
                        -math.pi, math.pi
                    )
                    for l in range(50)
                ]
                for m in range(40)
            ]
        )
        a0 = math.sqrt(free_space_path_gain(100.0, RF.carrier_hz))
        err = ((h - los) / a0 - np.exp(1j * chi)).ravel()
        sd = math.sqrt(0.5 / n)
        assert kstest(n * np.abs(err) ** 2, "expon").pvalue > 0.01
        assert kstest(err.real, "norm", args=(0.0, sd)).pvalue > 0.01
        assert kstest(err.imag, "norm", args=(0.0, sd)).pvalue > 0.01


class TestExactRayLimitBoundary:
    DISTANCES = [[100.0, 230.0, 415.0], [150.0, 260.0, 90.0]]

    def tensor(self, ray_count):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=ray_count)
        return spec, generate_few_ray(links_at(self.DISTANCES), spec, RF, 2024).coefficients

    def test_last_exact_ray_count_is_the_uniform_phasor_sum(self):
        spec, coeffs = self.tensor(_EXACT_RAY_LIMIT + 1)
        for (m, l), d in np.ndenumerate(self.DISTANCES):
            assert coeffs[m, l, 0] == reference_link(spec, 2024, d, m, l, exact=True)

    def test_first_gaussian_ray_count_keeps_the_diffuse_phasor(self):
        # Same (seed, m, l) and the same chi on both sides; only err moves.
        spec, coeffs = self.tensor(_EXACT_RAY_LIMIT + 2)
        for (m, l), d in np.ndenumerate(self.DISTANCES):
            assert coeffs[m, l, 0] == reference_link(spec, 2024, d, m, l, exact=False)
            assert coeffs[m, l, 0] != reference_link(spec, 2024, d, m, l, exact=True)


def link_rng(seed, m, l):
    """Link (m, l)'s substream as numpy builds it: one SeedSequence per link."""
    return np.random.default_rng(np.random.SeedSequence((seed & _SEED_MASK, m, l)))


def reference_statistical(spec, seed, distance, m, l):
    """Coefficient of a statistical link, drawn from its own SeedSequence."""
    lam = SPEED_OF_LIGHT / RF.carrier_hz
    k_lin = 10.0 ** (spec.rician_k_db / 10.0)
    pl_db = 32.4 + 21.0 * math.log10(distance) + 20.0 * math.log10(RF.carrier_hz / 1e9)
    g = link_rng(seed, m, l).standard_normal(2)
    los = 2.0 * math.pi * distance / lam
    fading = math.sqrt(k_lin / (k_lin + 1.0)) * complex(
        math.cos(los), math.sin(los)
    ) + math.sqrt(1.0 / (k_lin + 1.0)) * (g[0] + 1j * g[1]) / math.sqrt(2.0)
    return 10.0 ** (-pl_db / 20.0) * fading


# Edges of SeedSequence's entropy words: the masked seed is one uint32 word
# below 2^32 and two from there on.
seeds_64 = (
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1])
    | st.integers(-(2**64), -1)
    | st.integers(0, 2**64 - 1)
)


class TestLinkRngs:
    """_link_rngs replays SeedSequence((seed, m, l)) -> PCG64 for all links at once."""

    DISTANCES = [
        [100.0, 230.0, 415.0, 60.0],
        [150.0, 260.0, 90.0, 333.0],
        [75.0, 510.0, 120.0, 200.0],
    ]
    SEEDS = [0, 2**32 + 5, 2**64 - 1]

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds_64, mm=st.integers(1, 70), ll=st.integers(1, 6))
    def test_every_state_is_the_seed_sequence_state(self, seed, mm, ll):
        links = [(m, l, rng.bit_generator.state) for m, l, rng in _link_rngs(seed, mm, ll)]
        assert [(m, l) for m, l, _ in links] == [(m, l) for m in range(mm) for l in range(ll)]
        for m, l, state in links:
            expect = np.random.PCG64(np.random.SeedSequence((seed & _SEED_MASK, m, l)))
            assert state == expect.state

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("ray_count", [1, 9, _EXACT_RAY_LIMIT + 1, 10_000])
    def test_few_ray_matches_per_link_seed_sequences(self, seed, ray_count):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=ray_count)
        coeffs = generate_few_ray(links_at(self.DISTANCES), spec, RF, seed).coefficients
        lam = SPEED_OF_LIGHT / RF.carrier_hz
        for (m, l), d in np.ndenumerate(self.DISTANCES):
            if ray_count == 1:
                los = math.fmod(2.0 * math.pi * d / lam, 2.0 * math.pi)
                a0 = math.sqrt(free_space_path_gain(d, RF.carrier_hz))
                expect = a0 * complex(math.cos(los), math.sin(los))
            else:
                exact = ray_count - 1 <= _EXACT_RAY_LIMIT
                expect = reference_link(spec, seed, d, m, l, exact=exact)
            assert coeffs[m, l, 0] == expect

    @pytest.mark.parametrize("seed", SEEDS)
    def test_statistical_matches_per_link_seed_sequences(self, seed):
        spec = ChannelProviderSpec(kind="statistical")
        coeffs = generate_statistical(links_at(self.DISTANCES), spec, RF, seed).coefficients
        for (m, l), d in np.ndenumerate(self.DISTANCES):
            assert coeffs[m, l, 0] == reference_statistical(spec, seed, d, m, l)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("with_coefficients", [True, False])
    def test_degrade_matches_per_link_seed_sequences(self, seed, with_coefficients):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=10_000)
        src = generate_few_ray(links_at(self.DISTANCES), spec, RF, 3)
        if not with_coefficients:
            src = LinkGainTensor(power_gains=src.power_gains, ray_count=src.ray_count)
        out = degrade(src, 100, seed)
        gamma = np.array(
            [
                [link_rng(seed, m, l).gamma(shape=100, scale=1.0 / 100) for l in range(src.l)]
                for m in range(src.m)
            ]
        )
        if with_coefficients:
            coeffs = src.coefficients * np.sqrt(gamma)[:, :, None]
            assert np.array_equal(out.coefficients, coeffs)
            assert np.array_equal(out.power_gains, aggregate_power(coeffs))
        else:
            assert out.coefficients is None
            assert np.array_equal(out.power_gains, src.power_gains * gamma)


class TestBatchedProvidersAtScale:
    """Array-shaped providers against the per-link references, at any size and seed.

    The providers draw per link and then do their arithmetic on whole
    arrays; every coefficient must still be the one its own SeedSequence
    gives. The sizes reach past the montecarlo workload's 64 x 4 links.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds_64,
        mm=st.integers(1, 70),
        ll=st.integers(1, 6),
        ray_count=st.sampled_from([1, 2, 64, 65, 66, 10_000]),
        target=st.sampled_from([3, 100, 1_000]),
        layout=st.integers(0, 2**32 - 1),
    )
    def test_providers_equal_the_per_link_references(
        self, seed, mm, ll, ray_count, target, layout
    ):
        distances = np.random.default_rng(layout).uniform(20.0, 900.0, size=(mm, ll))
        links = links_at(distances)
        few_spec = ChannelProviderSpec(kind="few_ray", ray_count=ray_count)
        stat_spec = ChannelProviderSpec(kind="statistical")
        few_ray = generate_few_ray(links, few_spec, RF, seed)
        statistical = generate_statistical(links, stat_spec, RF, seed)
        los_only = generate_few_ray(links, replace(few_spec, ray_count=1), RF, seed)
        for (m, l), d in np.ndenumerate(distances):
            if ray_count > 1:
                exact = ray_count - 1 <= _EXACT_RAY_LIMIT
                assert few_ray.coefficients[m, l, 0] == reference_link(
                    few_spec, seed & _SEED_MASK, d, m, l, exact=exact
                )
            a0 = math.sqrt(free_space_path_gain(d, RF.carrier_hz))
            los = math.fmod(2.0 * math.pi * d / (SPEED_OF_LIGHT / RF.carrier_hz), 2.0 * math.pi)
            assert los_only.coefficients[m, l, 0] == a0 * complex(math.cos(los), math.sin(los))
            assert statistical.coefficients[m, l, 0] == reference_statistical(
                stat_spec, seed, d, m, l
            )

        gamma = np.array(
            [
                [link_rng(seed, m, l).gamma(shape=target, scale=1.0 / target) for l in range(ll)]
                for m in range(mm)
            ]
        )
        with_coefficients = degrade(few_ray, target, seed)
        coeffs = few_ray.coefficients * np.sqrt(gamma)[:, :, None]
        assert np.array_equal(with_coefficients.coefficients, coeffs)
        assert np.array_equal(with_coefficients.power_gains, aggregate_power(coeffs))
        power_only = LinkGainTensor(power_gains=statistical.power_gains)
        assert np.array_equal(
            degrade(power_only, target, seed).power_gains, statistical.power_gains * gamma
        )


class TestStatistical:
    def test_path_loss_anchor_1m_1ghz(self):
        # huge K collapses the fading to the unit phasor, exposing PL = 32.4 dB
        rf = RfConstants(carrier_hz=1e9)
        spec = ChannelProviderSpec(kind="statistical", rician_k_db=300.0)
        tensor = generate_statistical(links_at([[1.0]]), spec, rf, 2)
        assert tensor.power_gains[0, 0] == pytest.approx(10.0 ** (-3.24), rel=1e-9)

    def test_path_loss_hand_value(self):
        rf = RfConstants(carrier_hz=3.5e9)
        spec = ChannelProviderSpec(kind="statistical", rician_k_db=300.0)
        tensor = generate_statistical(links_at([[100.0]]), spec, rf, 2)
        pl_db = 32.4 + 21.0 * math.log10(100.0) + 20.0 * math.log10(3.5)  # 85.281
        assert pl_db == pytest.approx(85.281, abs=5e-4)
        assert tensor.power_gains[0, 0] == pytest.approx(10.0 ** (-pl_db / 10.0), rel=1e-9)

    def test_fading_unit_mean(self):
        # 1e5 seeded draws at one distance; normalize out the path loss
        spec = ChannelProviderSpec(kind="statistical", rician_k_db=3.0)
        g = links_at([[50.0] * 250] * 400)
        tensor = generate_statistical(g, spec, RF, 77)
        pl_db = 32.4 + 21.0 * math.log10(50.0) + 20.0 * math.log10(3.5)
        fading_power = tensor.power_gains / 10.0 ** (-pl_db / 10.0)
        assert fading_power.mean() == pytest.approx(1.0, rel=0.02)

    def test_deterministic(self):
        spec = ChannelProviderSpec(kind="statistical")
        g = links_at([[100.0, 220.0]])
        t1 = generate_statistical(g, spec, RF, 5)
        t2 = generate_statistical(g, spec, RF, 5)
        assert np.array_equal(t1.power_gains, t2.power_gains)

    def test_mean_power_decreases_with_distance(self):
        distances = [60.0, 90.0, 130.0, 180.0, 240.0, 310.0, 390.0, 480.0, 580.0, 690.0]
        g = links_at([distances] * 100)
        spec = ChannelProviderSpec(kind="statistical", rician_k_db=3.0)
        tensor = generate_statistical(g, spec, RF, 21)
        rho = spearmanr(tensor.power_gains.mean(axis=0), distances).statistic
        assert rho < -0.99


class TestDegrade:
    def source(self, seed=1):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=1_000_000)
        return generate_few_ray(links_at([[100.0, 200.0], [150.0, 260.0]]), spec, RF, seed)

    def test_same_fidelity_is_noop(self):
        src = self.source()
        out = degrade(src, 1_000_000, seed=42)
        assert np.array_equal(out.power_gains, src.power_gains)
        assert np.array_equal(out.coefficients, src.coefficients)
        assert out.ray_count == src.ray_count

    def test_deterministic(self):
        src = self.source()
        a = degrade(src, 100, seed=9)
        b = degrade(src, 100, seed=9)
        assert np.array_equal(a.power_gains, b.power_gains)

    def test_mean_preserved_over_seeds(self):
        src = self.source()
        acc = np.zeros_like(src.power_gains)
        n_seeds = 1000
        for s in range(n_seeds):
            acc += degrade(src, 100, seed=s).power_gains
        ratio = acc / n_seeds / src.power_gains
        np.testing.assert_allclose(ratio, 1.0, atol=0.03)

    def test_relative_deviation_variance_ordering(self):
        src = self.source()
        def deviation_var(target):
            devs = []
            for s in range(1000):
                out = degrade(src, target, seed=s)
                devs.append((out.power_gains - src.power_gains) / src.power_gains)
            return np.var(np.stack(devs), axis=0)
        var_coarse = deviation_var(100)
        var_fine = deviation_var(1_000_000)
        assert np.all(var_coarse > var_fine)
        # variance-of-mean scaling: ~1/target_ray_count
        np.testing.assert_allclose(var_coarse.mean(), 1.0 / 100.0, rtol=0.15)

    def test_aggregation_consistency_after_degrade(self):
        out = degrade(self.source(), 100, seed=3)
        np.testing.assert_array_equal(out.power_gains, aggregate_power(out.coefficients))


class TestTensorIO:
    def test_binary_round_trip(self, tmp_path):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=12)
        src = generate_few_ray(links_at([[100.0, 200.0], [150.0, 260.0]]), spec, RF, 6)
        path = tmp_path / "tensor.ctns"
        export_tensor(src, path)
        out = import_tensor(path)
        np.testing.assert_array_equal(out.power_gains, src.power_gains)
        np.testing.assert_array_equal(out.coefficients, src.coefficients)

    def test_json_single_coefficient(self, tmp_path):
        doc = {
            "m": 1,
            "l": 1,
            "n_elems": 1,
            "has_coefficients": True,
            "coefficients": [[[[1.0, 0.0]]]],
            "power_gains": [[999.0]],  # recomputed from coefficients
        }
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(doc))
        out = import_tensor(path)
        assert out.power_gains.tolist() == [[1.0]]

    def test_json_two_element_aggregation(self, tmp_path):
        doc = {
            "m": 1,
            "l": 1,
            "n_elems": 2,
            "has_coefficients": True,
            "coefficients": [[[[1.0, 0.0], [0.0, 1.0]]]],
            "power_gains": [[0.0]],
        }
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(doc))
        out = import_tensor(path)
        assert out.power_gains[0, 0] == pytest.approx(1.0)  # mean(1, 1)

    def test_power_only_file(self, tmp_path):
        src = LinkGainTensor(power_gains=np.array([[1e-9, 2e-9]]))
        path = tmp_path / "p.ctns"
        export_tensor(src, path)
        out = import_tensor(path)
        assert out.coefficients is None
        np.testing.assert_array_equal(out.power_gains, src.power_gains)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TensorFormatError, match="not found"):
            import_tensor(tmp_path / "nope.ctns")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.ctns"
        path.write_bytes(b"XXXX not a tensor")
        with pytest.raises(TensorFormatError, match="malformed"):
            import_tensor(path)

    def test_dimension_mismatch_binary(self, tmp_path):
        src = LinkGainTensor(power_gains=np.array([[1.0]]))
        path = tmp_path / "t.ctns"
        export_tensor(src, path)
        raw = bytearray(path.read_bytes())
        raw[6:10] = (2).to_bytes(4, "little")  # header now claims m=2
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="dimension mismatch"):
            import_tensor(path)

    def test_dimension_mismatch_json(self, tmp_path):
        doc = {
            "m": 2,
            "l": 1,
            "n_elems": 1,
            "has_coefficients": False,
            "coefficients": None,
            "power_gains": [[1.0]],
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TensorFormatError, match="dimension mismatch"):
            import_tensor(path)

    def test_zero_element_coefficients_rejected_binary(self, tmp_path):
        path = tmp_path / "t.ctns"
        header = struct.pack("<4sHIIIB", b"CTNS", 1, 1, 1, 0, 1)
        path.write_bytes(header + struct.pack("<d", 1e-9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TensorFormatError, match=r"coefficients need n_elems >= 1"):
                import_tensor(path)

    def test_zero_element_coefficients_rejected_json(self, tmp_path):
        doc = {
            "m": 1,
            "l": 1,
            "n_elems": 0,
            "has_coefficients": True,
            "coefficients": [[[]]],
            "power_gains": [[1e-9]],
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TensorFormatError, match=r"coefficients need n_elems >= 1"):
                import_tensor(path)

    def test_import_kind_requires_path(self):
        from corridorsim.channel import generate

        spec = ChannelProviderSpec(kind="import", import_path=None)
        with pytest.raises(TensorFormatError, match="import_path"):
            generate(links_at([[100.0]]), spec, RF, 0)

    def test_non_finite_rejected(self, tmp_path):
        doc = {
            "m": 1,
            "l": 1,
            "n_elems": 1,
            "has_coefficients": False,
            "coefficients": None,
            "power_gains": [[float("nan")]],
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TensorFormatError, match="non-finite"):
            import_tensor(path)


VALID_JSON_TENSOR = {
    "m": 1, "l": 2, "n_elems": 1, "has_coefficients": False, "power_gains": [[1e-9, 2e-9]]
}
# A document or a field of the wrong JSON type, and a ragged array.
BAD_JSON_TENSORS = [
    ([1, 2], "must be an object"),
    (5, "must be an object"),
    ({**VALID_JSON_TENSOR, "m": "x"}, "m must be a non-negative integer, got 'x'"),
    ({**VALID_JSON_TENSOR, "m": None}, "m must be a non-negative integer, got None"),
    ({**VALID_JSON_TENSOR, "m": 2, "power_gains": [[1], [2, 3]]}, "power_gains is not a numeric"),
    ({**VALID_JSON_TENSOR, "power_gains": "abc"}, "power_gains is not a numeric array"),
]


class TestJsonTensorTypes:
    def test_valid_document_loads(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(VALID_JSON_TENSOR))
        assert import_tensor(path).power_gains.tolist() == [[1e-9, 2e-9]]

    @pytest.mark.parametrize("doc, message", BAD_JSON_TENSORS)
    def test_bad_document_raises_tensor_format_error(self, tmp_path, doc, message):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TensorFormatError, match=re.escape(message)):
            import_tensor(path)

    def test_nesting_too_deep_to_parse(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("[" * 100_000)
        with pytest.raises(TensorFormatError, match="malformed header"):
            import_tensor(path)

    def test_cli_run_on_a_bad_document_exits_1(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        for doc, message in BAD_JSON_TENSORS:
            path.write_text(json.dumps(doc))
            argv = ["run", "--channel", "import", "--import-path", str(path)]
            assert cli_main(argv + ["--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()


json_numbers = st.floats() | st.integers(-(2**70), 2**70)
json_values = st.recursive(
    st.none() | st.booleans() | json_numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
numeric_arrays = st.recursive(
    json_numbers, lambda inner: st.lists(inner, max_size=3), max_leaves=16
)
dims = st.integers(0, 2) | json_values
# Documents close to the format, so most get past the first checks.
tensor_documents = st.fixed_dictionaries(
    {},
    optional={
        "m": dims,
        "l": dims,
        "n_elems": dims,
        "has_coefficients": st.booleans() | json_values,
        "coefficients": numeric_arrays | json_values,
        "power_gains": numeric_arrays | json_values,
    },
)
ctns_bytes = st.binary(max_size=128).map(lambda b: b"CTNS" + struct.pack("<H", 1) + b)


@settings(max_examples=400, deadline=None)
@given(
    st.binary(max_size=128)
    | ctns_bytes
    | tensor_documents.map(lambda d: json.dumps(d).encode())
    | json_values.map(lambda d: json.dumps(d).encode())
)
def test_any_tensor_file_loads_or_raises_tensor_format_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzzed.tensor"
    path.write_bytes(raw)
    try:
        tensor = import_tensor(path)
    except TensorFormatError:
        return
    assert tensor.power_gains.shape == (tensor.m, tensor.l)
    assert np.all(np.isfinite(tensor.power_gains))
