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
    _unit_phasors,
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


class TestUnitPhasors:
    def test_equal_libm_cos_and_sin_bit_for_bit(self):
        rng = np.random.default_rng(20)
        phases = np.concatenate([
            rng.uniform(-1e4, 1e4, 20_000), rng.uniform(-7.0, 7.0, 20_000),
            [0.0, -0.0, math.pi, -math.pi, 5e-324, -5e-324, 1e300],
        ])
        expect = np.array([complex(math.cos(p), math.sin(p)) for p in phases.tolist()])
        got = _unit_phasors(phases)
        assert got.dtype == complex and got.shape == phases.shape
        assert got.tobytes() == expect.tobytes()


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
        tensor = generate_few_ray(links_at([[100.0, 250.0]]), spec, RF, [4])
        for l, d in enumerate((100.0, 250.0)):
            assert tensor.power_gains[0, 0, l] == pytest.approx(
                free_space_path_gain(d, RF.carrier_hz), rel=1e-12
            )

    def test_deterministic(self):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=64)
        g = links_at([[120.0], [340.0]])
        t1 = generate_few_ray(g, spec, RF, [99])
        t2 = generate_few_ray(g, spec, RF, [99])
        assert np.array_equal(t1.power_gains, t2.power_gains)
        assert np.array_equal(t1.coefficients, t2.coefficients)

    def test_huge_k_converges_to_los(self):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=50, rician_k_db=200.0)
        tensor = generate_few_ray(links_at([[80.0]]), spec, RF, [8])
        los = free_space_path_gain(80.0, RF.carrier_hz)
        assert tensor.power_gains[0, 0, 0] == pytest.approx(los, rel=1e-6)

    def test_aggregation_consistency(self):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=16)
        tensor = generate_few_ray(links_at([[100.0, 200.0], [150.0, 300.0]]), spec, RF, [3])
        np.testing.assert_array_equal(
            tensor.power_gains, aggregate_power(tensor.coefficients)
        )

    def test_mean_power_decreases_with_distance(self):
        # 100 seeded realizations per distance inside one tensor: rows share
        # the distance profile, each link draws its own row of the streams.
        distances = [60.0, 90.0, 130.0, 180.0, 240.0, 310.0, 390.0, 480.0, 580.0, 690.0]
        g = links_at([distances] * 100)
        spec = ChannelProviderSpec(kind="few_ray", ray_count=8)
        tensor = generate_few_ray(g, spec, RF, [12])
        mean_gain = tensor.power_gains[0].mean(axis=0)
        rho = spearmanr(mean_gain, distances).statistic
        assert rho < -0.99

    def test_large_ray_count_converges_to_fixed_diffuse(self):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=1_000_000)
        g = links_at([[100.0]])
        t1 = generate_few_ray(g, spec, RF, [7])
        t2 = generate_few_ray(g, spec, RF, [7])
        assert np.array_equal(t1.coefficients, t2.coefficients)
        # reconstruct the infinite-ray limit: LOS phasor plus the fixed
        # diffuse phasor whose phase is the first draw of the chi stream
        lam = SPEED_OF_LIGHT / RF.carrier_hz
        a0 = math.sqrt(free_space_path_gain(100.0, RF.carrier_hz))
        psi0 = math.fmod(2.0 * math.pi * 100.0 / lam, 2.0 * math.pi)
        chi = reference_chi(7, 0)
        k_lin = 10.0 ** (spec.rician_k_db / 10.0)
        limit = a0 * np.exp(1j * psi0) + a0 / math.sqrt(k_lin) * np.exp(1j * chi)
        # residual sampling noise has relative scale ~1/sqrt(1e6)
        assert t1.power_gains[0, 0, 0] == pytest.approx(abs(limit) ** 2, rel=1e-2)


def call_stream(seed, child=None):
    """A provider call's stream at `seed`: SeedSequence(seed mod 2^64), or its spawned child.

    Few-ray draws chi from child 0 and psi or err from child 1; statistical
    and degrade draw from the root sequence itself.
    """
    ss = np.random.SeedSequence(seed & _SEED_MASK)
    return np.random.default_rng(ss if child is None else ss.spawn(2)[child])


def link_row(draw, row):
    """Row `row` of the block `draw(rows)` fills: one link's draws, read on their own."""
    return draw(row + 1)[row]


def reference_chi(seed, row):
    """Diffuse phase of the link at `row` (m * L + l): its draw of the chi stream."""
    return link_row(lambda k: call_stream(seed, 0).uniform(-math.pi, math.pi, size=k), row)


def reference_err(seed, row, n, exact):
    """Scatter error of the link at `row` for n scatter rays, from the second stream.

    `exact` sums its n uniform scatter phasors; otherwise err is the
    Gaussian limit, two standard normals scaled to variance 1/2n each.
    """
    if exact:
        draw = lambda k: call_stream(seed, 1).uniform(-math.pi, math.pi, size=(k, n))
        psi = link_row(draw, row)
        return (np.cos(psi) + 1j * np.sin(psi)).sum() / n
    g = link_row(lambda k: call_stream(seed, 1).standard_normal((k, 2)), row)
    return (g[0] + 1j * g[1]) * math.sqrt(0.5 / n)


def reference_link(spec, seed, distance, row, exact):
    """Coefficient of the link at `row` (m * L + l), `distance` and `seed`, from the model."""
    lam = SPEED_OF_LIGHT / RF.carrier_hz
    a0 = math.sqrt(free_space_path_gain(distance, RF.carrier_hz))
    los = math.fmod(2.0 * math.pi * distance / lam, 2.0 * math.pi)
    chi = reference_chi(seed, row)
    err = reference_err(seed, row, spec.ray_count - 1, exact)
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
        h = generate_few_ray(g, spec, RF, [6]).coefficients[0, :, :, 0]
        los = generate_few_ray(g, replace(spec, ray_count=1), RF, [6]).coefficients[0, :, :, 0]
        chi = call_stream(6, 0).uniform(-math.pi, math.pi, size=(40, 50))
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
        return spec, generate_few_ray(links_at(self.DISTANCES), spec, RF, [2024]).coefficients[0]

    def test_last_exact_ray_count_is_the_uniform_phasor_sum(self):
        spec, coeffs = self.tensor(_EXACT_RAY_LIMIT + 1)
        for (m, l), d in np.ndenumerate(self.DISTANCES):
            assert coeffs[m, l, 0] == reference_link(spec, 2024, d, 3 * m + l, exact=True)

    def test_first_gaussian_ray_count_keeps_the_diffuse_phasor(self):
        # Same seed and row, so the same chi on both sides; only err moves.
        spec, coeffs = self.tensor(_EXACT_RAY_LIMIT + 2)
        for (m, l), d in np.ndenumerate(self.DISTANCES):
            row = 3 * m + l
            assert coeffs[m, l, 0] == reference_link(spec, 2024, d, row, exact=False)
            assert coeffs[m, l, 0] != reference_link(spec, 2024, d, row, exact=True)


def reference_statistical(spec, seed, distance, row):
    """Coefficient of the statistical link at `row` (m * L + l), from its two normals."""
    lam = SPEED_OF_LIGHT / RF.carrier_hz
    k_lin = 10.0 ** (spec.rician_k_db / 10.0)
    pl_db = 32.4 + 21.0 * math.log10(distance) + 20.0 * math.log10(RF.carrier_hz / 1e9)
    g = link_row(lambda k: call_stream(seed).standard_normal((k, 2)), row)
    los = 2.0 * math.pi * distance / lam
    fading = math.sqrt(k_lin / (k_lin + 1.0)) * complex(
        math.cos(los), math.sin(los)
    ) + math.sqrt(1.0 / (k_lin + 1.0)) * (g[0] + 1j * g[1]) / math.sqrt(2.0)
    return 10.0 ** (-pl_db / 20.0) * fading


def reference_gamma(seed, target, mm, ll):
    """degrade's mean-one Gamma factors, each link's read from its own row."""
    draw = lambda k: call_stream(seed).gamma(shape=target, scale=1.0 / target, size=k)
    return np.array([[link_row(draw, ll * m + l) for l in range(ll)] for m in range(mm)])


# Edges of SeedSequence's entropy words: the masked seed is one uint32 word
# below 2^32 and two from there on.
seeds_64 = (
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1])
    | st.integers(-(2**64), -1)
    | st.integers(0, 2**64 - 1)
)


class TestLinkRngs:
    """Each link reads its row m * L + l of the call's seed-sequence streams, at every seed edge."""

    DISTANCES = [
        [100.0, 230.0, 415.0, 60.0],
        [150.0, 260.0, 90.0, 333.0],
        [75.0, 510.0, 120.0, 200.0],
    ]
    SEEDS = [0, 2**32 + 5, 2**64 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("ray_count", [1, 9, _EXACT_RAY_LIMIT + 1, 10_000])
    def test_few_ray_matches_per_link_seed_sequences(self, seed, ray_count):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=ray_count)
        coeffs = generate_few_ray(links_at(self.DISTANCES), spec, RF, [seed]).coefficients[0]
        lam = SPEED_OF_LIGHT / RF.carrier_hz
        for (m, l), d in np.ndenumerate(self.DISTANCES):
            if ray_count == 1:
                los = math.fmod(2.0 * math.pi * d / lam, 2.0 * math.pi)
                a0 = math.sqrt(free_space_path_gain(d, RF.carrier_hz))
                expect = a0 * complex(math.cos(los), math.sin(los))
            else:
                exact = ray_count - 1 <= _EXACT_RAY_LIMIT
                expect = reference_link(spec, seed, d, 4 * m + l, exact=exact)
            assert coeffs[m, l, 0] == expect

    @pytest.mark.parametrize("seed", SEEDS)
    def test_statistical_matches_per_link_seed_sequences(self, seed):
        spec = ChannelProviderSpec(kind="statistical")
        coeffs = generate_statistical(links_at(self.DISTANCES), spec, RF, [seed]).coefficients[0]
        for (m, l), d in np.ndenumerate(self.DISTANCES):
            assert coeffs[m, l, 0] == reference_statistical(spec, seed, d, 4 * m + l)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("with_coefficients", [True, False])
    def test_degrade_matches_per_link_seed_sequences(self, seed, with_coefficients):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=10_000)
        src = generate_few_ray(links_at(self.DISTANCES), spec, RF, [3])
        if not with_coefficients:
            src = LinkGainTensor(power_gains=src.power_gains, ray_count=src.ray_count)
        out = degrade(src, 100, [seed])
        gamma = reference_gamma(seed, 100, src.m, src.l)
        if with_coefficients:
            coeffs = src.coefficients * np.sqrt(gamma)[:, :, None]
            assert np.array_equal(out.coefficients, coeffs)
            assert np.array_equal(out.power_gains, aggregate_power(coeffs))
        else:
            assert out.coefficients is None
            assert np.array_equal(out.power_gains, src.power_gains * gamma)


class TestBatchedProvidersAtScale:
    """Array-shaped providers against the per-link references, at any size and seed.

    The providers draw each stream's whole block in one call and then do
    their arithmetic on whole arrays; every coefficient must still be the
    one its own row gives. The sizes reach past the montecarlo workload's
    64 x 4 links.
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
        few_ray = generate_few_ray(links, few_spec, RF, [seed])
        statistical = generate_statistical(links, stat_spec, RF, [seed])
        los_only = generate_few_ray(links, replace(few_spec, ray_count=1), RF, [seed])
        for (m, l), d in np.ndenumerate(distances):
            if ray_count > 1:
                exact = ray_count - 1 <= _EXACT_RAY_LIMIT
                assert few_ray.coefficients[0, m, l, 0] == reference_link(
                    few_spec, seed, d, ll * m + l, exact=exact
                )
            a0 = math.sqrt(free_space_path_gain(d, RF.carrier_hz))
            los = math.fmod(2.0 * math.pi * d / (SPEED_OF_LIGHT / RF.carrier_hz), 2.0 * math.pi)
            assert los_only.coefficients[0, m, l, 0] == a0 * complex(math.cos(los), math.sin(los))
            assert statistical.coefficients[0, m, l, 0] == reference_statistical(
                stat_spec, seed, d, ll * m + l
            )

        gamma = reference_gamma(seed, target, mm, ll)
        with_coefficients = degrade(few_ray, target, [seed])
        coeffs = few_ray.coefficients * np.sqrt(gamma)[:, :, None]
        assert np.array_equal(with_coefficients.coefficients, coeffs)
        assert np.array_equal(with_coefficients.power_gains, aggregate_power(coeffs))
        power_only = LinkGainTensor(power_gains=statistical.power_gains)
        assert np.array_equal(
            degrade(power_only, target, [seed]).power_gains, statistical.power_gains * gamma
        )


def assert_same_tensor(a, b):
    """Bit-identical power gains and coefficients, and the same fidelity."""
    assert a.power_gains.tobytes() == b.power_gains.tobytes()
    assert (a.coefficients is None) == (b.coefficients is None)
    if a.coefficients is not None:
        assert a.coefficients.tobytes() == b.coefficients.tobytes()
    assert a.ray_count == b.ray_count


def row(tensor, r):
    """Replication r of a stacked tensor, as a stack of one."""
    coeffs = None if tensor.coefficients is None else tensor.coefficients[r : r + 1]
    return LinkGainTensor(tensor.power_gains[r : r + 1], coeffs, tensor.ray_count)


class TestStacking:
    """Row r of a call on `seeds` is the one-seed call on [seeds[r]], bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(seeds_64, min_size=1, max_size=5),
        mm=st.integers(1, 12),
        ll=st.integers(1, 5),
        ray_count=st.sampled_from([1, 2, 33, _EXACT_RAY_LIMIT + 1, _EXACT_RAY_LIMIT + 2, 10_000]),
        target=st.sampled_from([3, 100]),
        layout=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_one_seed_calls(self, seeds, mm, ll, ray_count, target, layout):
        distances = np.random.default_rng(layout).uniform(20.0, 900.0, size=(mm, ll))
        links = links_at(distances)
        few_spec = ChannelProviderSpec(kind="few_ray", ray_count=ray_count)
        stat_spec = ChannelProviderSpec(kind="statistical")
        few_ray = generate_few_ray(links, few_spec, RF, seeds)
        statistical = generate_statistical(links, stat_spec, RF, seeds)
        assert few_ray.power_gains.shape == (len(seeds), mm, ll)
        assert few_ray.coefficients.shape == (len(seeds), mm, ll, 1)
        power_only = LinkGainTensor(power_gains=statistical.power_gains)
        degrade_seeds = [seed + 1 for seed in seeds]
        with_coefficients = degrade(few_ray, target, degrade_seeds)
        without = degrade(power_only, target, degrade_seeds)
        for r, seed in enumerate(seeds):
            one_few = generate_few_ray(links, few_spec, RF, [seed])
            one_stat = generate_statistical(links, stat_spec, RF, [seed])
            assert_same_tensor(row(few_ray, r), one_few)
            assert_same_tensor(row(statistical, r), one_stat)
            assert_same_tensor(
                row(with_coefficients, r), degrade(one_few, target, [degrade_seeds[r]])
            )
            one_power = LinkGainTensor(power_gains=one_stat.power_gains)
            assert_same_tensor(row(without, r), degrade(one_power, target, [degrade_seeds[r]]))

    def test_degrade_needs_one_seed_per_row(self):
        src = generate_statistical(links_at([[100.0, 200.0]]), ChannelProviderSpec(), RF, [1, 2])
        with pytest.raises(ValueError, match="one seed per row"):
            degrade(src, 100, [1])

    def test_import_is_shared_by_every_row(self, tmp_path):
        from corridorsim.channel import generate

        path = tmp_path / "t.ctns"
        few_spec = ChannelProviderSpec(kind="few_ray", ray_count=5)
        src = generate_few_ray(links_at([[100.0, 200.0]]), few_spec, RF, [3])
        export_tensor(src, path)
        spec = ChannelProviderSpec(kind="import", import_path=str(path))
        stacked = generate(links_at([[100.0, 200.0]]), spec, RF, [0, 1, 2])
        assert stacked.power_gains.shape == (3, 1, 2)
        assert not stacked.power_gains.flags.writeable
        for r in range(3):
            assert stacked.power_gains[r].tobytes() == src.power_gains[0].tobytes()
            assert stacked.coefficients[r].tobytes() == src.coefficients[0].tobytes()

    def test_export_takes_one_replication(self, tmp_path):
        src = generate_statistical(links_at([[100.0]]), ChannelProviderSpec(), RF, [1, 2])
        with pytest.raises(ValueError, match="one replication"):
            export_tensor(src, tmp_path / "t.ctns")


class TestStreamLayout:
    """What the per-call streams promise, at any seed and size."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds_64,
        mm=st.integers(1, 40),
        ll=st.integers(1, 6),
        cut=st.integers(1, 40),
        ray_count=st.sampled_from([2, 33, 65, 66, 10_000]),
        layout=st.integers(0, 2**32 - 1),
    )
    def test_fewer_uavs_draw_the_first_rows(self, seed, mm, ll, cut, ray_count, layout):
        # UAV-count sweeps stay paired: the first m1 UAVs of a larger run
        # get the channel the m1-UAV run gives them, from every draw site.
        m1 = min(cut, mm)
        distances = np.random.default_rng(layout).uniform(20.0, 900.0, size=(mm, ll))
        few_spec = ChannelProviderSpec(kind="few_ray", ray_count=ray_count)
        stat_spec = ChannelProviderSpec(kind="statistical")

        def power_only(links):
            gains = generate_statistical(links, stat_spec, RF, [5]).power_gains
            return LinkGainTensor(power_gains=gains)

        sites = {
            "few_ray": lambda links: generate_few_ray(links, few_spec, RF, [seed]),
            "statistical": lambda links: generate_statistical(links, stat_spec, RF, [seed]),
            "degrade": lambda links: degrade(
                generate_few_ray(links, few_spec, RF, [5]), 100, [seed]
            ),
            "degrade power": lambda links: degrade(power_only(links), 100, [seed]),
        }
        for site, make in sites.items():
            full, head = make(links_at(distances)), make(links_at(distances[:m1]))
            assert np.array_equal(head.power_gains, full.power_gains[:, :m1]), site
            if full.coefficients is not None:
                assert np.array_equal(head.coefficients, full.coefficients[:, :m1]), site

    @settings(max_examples=30, deadline=None)
    @given(
        seed=seeds_64,
        mm=st.integers(1, 20),
        ll=st.integers(1, 6),
        layout=st.integers(0, 2**32 - 1),
    )
    def test_chi_does_not_depend_on_the_ray_count(self, seed, mm, ll, layout):
        # What is left of a coefficient once the LOS ray and the scatter
        # error (read from its own stream) are taken off is the diffuse
        # phasor exp(i chi); it is the same at every ray count, on both
        # sides of _EXACT_RAY_LIMIT.
        distances = np.random.default_rng(layout).uniform(20.0, 900.0, size=(mm, ll))
        links = links_at(distances)
        spec = ChannelProviderSpec(kind="few_ray", ray_count=1)
        los = generate_few_ray(links, spec, RF, [seed]).coefficients.ravel()
        a0 = np.sqrt(free_space_path_gain(distances.ravel(), RF.carrier_hz))
        s_amp = a0 / math.sqrt(10.0 ** (spec.rician_k_db / 10.0))
        diffuse = []
        for ray_count in (2, _EXACT_RAY_LIMIT + 1, _EXACT_RAY_LIMIT + 2, 10_000):
            n = ray_count - 1
            h = generate_few_ray(links, replace(spec, ray_count=ray_count), RF, [seed])
            err = [reference_err(seed, row, n, n <= _EXACT_RAY_LIMIT) for row in range(mm * ll)]
            diffuse.append((h.coefficients.ravel() - los) / s_amp - np.array(err))
        np.testing.assert_allclose(np.abs(diffuse[0]), 1.0, rtol=0.0, atol=1e-9)
        for other in diffuse[1:]:
            np.testing.assert_allclose(other, diffuse[0], rtol=0.0, atol=1e-9)


class TestStatistical:
    def test_path_loss_anchor_1m_1ghz(self):
        # huge K collapses the fading to the unit phasor, exposing PL = 32.4 dB
        rf = RfConstants(carrier_hz=1e9)
        spec = ChannelProviderSpec(kind="statistical", rician_k_db=300.0)
        tensor = generate_statistical(links_at([[1.0]]), spec, rf, [2])
        assert tensor.power_gains[0, 0, 0] == pytest.approx(10.0 ** (-3.24), rel=1e-9)

    def test_path_loss_hand_value(self):
        rf = RfConstants(carrier_hz=3.5e9)
        spec = ChannelProviderSpec(kind="statistical", rician_k_db=300.0)
        tensor = generate_statistical(links_at([[100.0]]), spec, rf, [2])
        pl_db = 32.4 + 21.0 * math.log10(100.0) + 20.0 * math.log10(3.5)  # 85.281
        assert pl_db == pytest.approx(85.281, abs=5e-4)
        assert tensor.power_gains[0, 0, 0] == pytest.approx(10.0 ** (-pl_db / 10.0), rel=1e-9)

    def test_fading_unit_mean(self):
        # 1e5 seeded draws at one distance; normalize out the path loss
        spec = ChannelProviderSpec(kind="statistical", rician_k_db=3.0)
        g = links_at([[50.0] * 250] * 400)
        tensor = generate_statistical(g, spec, RF, [77])
        pl_db = 32.4 + 21.0 * math.log10(50.0) + 20.0 * math.log10(3.5)
        fading_power = tensor.power_gains / 10.0 ** (-pl_db / 10.0)
        assert fading_power.mean() == pytest.approx(1.0, rel=0.02)

    def test_deterministic(self):
        spec = ChannelProviderSpec(kind="statistical")
        g = links_at([[100.0, 220.0]])
        t1 = generate_statistical(g, spec, RF, [5])
        t2 = generate_statistical(g, spec, RF, [5])
        assert np.array_equal(t1.power_gains, t2.power_gains)

    def test_mean_power_decreases_with_distance(self):
        distances = [60.0, 90.0, 130.0, 180.0, 240.0, 310.0, 390.0, 480.0, 580.0, 690.0]
        g = links_at([distances] * 100)
        spec = ChannelProviderSpec(kind="statistical", rician_k_db=3.0)
        tensor = generate_statistical(g, spec, RF, [21])
        rho = spearmanr(tensor.power_gains[0].mean(axis=0), distances).statistic
        assert rho < -0.99


class TestDegrade:
    def source(self, seed=1):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=1_000_000)
        return generate_few_ray(links_at([[100.0, 200.0], [150.0, 260.0]]), spec, RF, [seed])

    def test_same_fidelity_is_noop(self):
        src = self.source()
        out = degrade(src, 1_000_000, seeds=[42])
        assert np.array_equal(out.power_gains, src.power_gains)
        assert np.array_equal(out.coefficients, src.coefficients)
        assert out.ray_count == src.ray_count

    def test_deterministic(self):
        src = self.source()
        a = degrade(src, 100, seeds=[9])
        b = degrade(src, 100, seeds=[9])
        assert np.array_equal(a.power_gains, b.power_gains)

    def test_mean_preserved_over_seeds(self):
        src = self.source()
        acc = np.zeros_like(src.power_gains)
        n_seeds = 1000
        for s in range(n_seeds):
            acc += degrade(src, 100, seeds=[s]).power_gains
        ratio = acc / n_seeds / src.power_gains
        np.testing.assert_allclose(ratio, 1.0, atol=0.03)

    def test_relative_deviation_variance_ordering(self):
        src = self.source()
        def deviation_var(target):
            devs = []
            for s in range(1000):
                out = degrade(src, target, seeds=[s])
                devs.append((out.power_gains - src.power_gains) / src.power_gains)
            return np.var(np.stack(devs), axis=0)
        var_coarse = deviation_var(100)
        var_fine = deviation_var(1_000_000)
        assert np.all(var_coarse > var_fine)
        # variance-of-mean scaling: ~1/target_ray_count
        np.testing.assert_allclose(var_coarse.mean(), 1.0 / 100.0, rtol=0.15)

    def test_aggregation_consistency_after_degrade(self):
        out = degrade(self.source(), 100, seeds=[3])
        np.testing.assert_array_equal(out.power_gains, aggregate_power(out.coefficients))


class TestTensorIO:
    def test_binary_round_trip(self, tmp_path):
        spec = ChannelProviderSpec(kind="few_ray", ray_count=12)
        src = generate_few_ray(links_at([[100.0, 200.0], [150.0, 260.0]]), spec, RF, [6])
        path = tmp_path / "tensor.ctns"
        export_tensor(src, path)
        out = import_tensor(path)
        np.testing.assert_array_equal(out.power_gains, src.power_gains[0])
        np.testing.assert_array_equal(out.coefficients, src.coefficients[0])

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
            generate(links_at([[100.0]]), spec, RF, [0])

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
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"channel_hf": {"kind": "import", "import_path": str(path)}}))
        for doc, message in BAD_JSON_TENSORS:
            path.write_text(json.dumps(doc))
            argv = ["run", "--config", str(config)]
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
