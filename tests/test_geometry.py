import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridorsim.errors import ConfigurationError, GeometryError
from corridorsim.geometry import (
    LINK_DTYPE,
    BaseStationSite,
    CorridorSpec,
    Position3D,
    generate_corridor,
    link_geometries,
    link_geometry,
    wrap_angle,
)

ORIGIN = Position3D(0.0, 0.0, 0.0)


def spec(radius=100.0, altitude=75.0, center=ORIGIN):
    return CorridorSpec(center=center, radius=radius, altitude=altitude)


class TestGenerateCorridor:
    def test_four_points_on_axes(self):
        pts = generate_corridor(spec(radius=100.0, altitude=75.0), 4)
        expected = [(100.0, 0.0), (0.0, 100.0), (-100.0, 0.0), (0.0, -100.0)]
        assert len(pts) == 4
        for p, (ex, ey) in zip(pts, expected):
            assert p.x == pytest.approx(ex, abs=1e-9)
            assert p.y == pytest.approx(ey, abs=1e-9)
            assert p.z == 75.0

    def test_single_point_due_east(self):
        (p,) = generate_corridor(spec(radius=50.0, altitude=30.0), 1)
        assert (p.x, p.y, p.z) == (50.0, 0.0, 30.0)

    def test_twenty_points_radius_and_gap(self):
        pts = generate_corridor(spec(radius=200.0, altitude=75.0), 20)
        assert len(pts) == 20
        angles = []
        for p in pts:
            assert math.hypot(p.x, p.y) == pytest.approx(200.0, rel=1e-9)
            angles.append(math.atan2(p.y, p.x))
        for k in range(19):
            gap = wrap_angle(angles[k + 1] - angles[k])
            assert math.degrees(gap) == pytest.approx(18.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [spec(radius=0.0), spec(radius=-5.0), spec(altitude=0.0)])
    def test_invalid_spec_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            generate_corridor(bad, 4)

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_corridor(spec(), 0)

    def test_altitude_exact_radius_tight(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            radius = rng.uniform(10.0, 500.0)
            altitude = rng.uniform(10.0, 200.0)
            center = Position3D(rng.uniform(-100, 100), rng.uniform(-100, 100), 0.0)
            m = int(rng.integers(1, 40))
            for p in generate_corridor(spec(radius, altitude, center), m):
                assert p.z == altitude
                d = math.hypot(p.x - center.x, p.y - center.y)
                assert d == pytest.approx(radius, rel=1e-9)


class TestLinkGeometry:
    def test_level_on_boresight(self):
        bs = BaseStationSite(1, Position3D(0.0, 0.0, 30.0), 0.0)
        g = link_geometry(bs, Position3D(100.0, 0.0, 30.0))
        assert g.distance_3d == pytest.approx(100.0)
        assert g.theta == pytest.approx(math.pi / 2)
        assert g.phi == pytest.approx(0.0)

    def test_directly_overhead(self):
        bs = BaseStationSite(1, Position3D(0.0, 0.0, 0.0), 0.0)
        g = link_geometry(bs, Position3D(0.0, 0.0, 100.0))
        assert g.distance_3d == pytest.approx(100.0)
        assert g.theta == pytest.approx(0.0)

    def test_diagonal_hand_trig(self):
        # dx = dy = dz = 100: distance 100*sqrt(3), bearing pi/4, zenith acos(1/sqrt(3))
        bs = BaseStationSite(1, Position3D(0.0, 0.0, 30.0), 0.0)
        g = link_geometry(bs, Position3D(100.0, 100.0, 130.0))
        assert g.distance_3d == pytest.approx(100.0 * math.sqrt(3.0), rel=1e-12)
        assert g.phi == pytest.approx(math.pi / 4, rel=1e-12)
        assert g.theta == pytest.approx(math.acos(1.0 / math.sqrt(3.0)), rel=1e-12)

    def test_coincident_positions_rejected(self):
        bs = BaseStationSite(1, Position3D(1.0, 2.0, 3.0), 0.0)
        with pytest.raises(GeometryError):
            link_geometry(bs, Position3D(1.0, 2.0, 3.0))

    def test_phi_wrapped_half_open(self):
        bs = BaseStationSite(1, Position3D(0.0, 0.0, 0.0), 180.0)
        # UAV due east, boresight west: relative azimuth is exactly pi, not -pi
        g = link_geometry(bs, Position3D(10.0, 0.0, 5.0))
        assert g.phi == pytest.approx(math.pi)
        assert -math.pi < g.phi <= math.pi

    def test_rotation_consistency(self):
        rng = np.random.default_rng(23)
        bs_pos = Position3D(5.0, -3.0, 20.0)
        for _ in range(50):
            uav = Position3D(
                bs_pos.x + rng.uniform(-300, 300),
                bs_pos.y + rng.uniform(-300, 300),
                rng.uniform(30.0, 200.0),
            )
            boresight = rng.uniform(-math.pi, math.pi)
            delta = rng.uniform(-math.pi, math.pi)
            g0 = link_geometry(BaseStationSite(1, bs_pos, math.degrees(boresight)), uav)
            dx, dy = uav.x - bs_pos.x, uav.y - bs_pos.y
            rot = Position3D(
                bs_pos.x + dx * math.cos(delta) - dy * math.sin(delta),
                bs_pos.y + dx * math.sin(delta) + dy * math.cos(delta),
                uav.z,
            )
            g1 = link_geometry(BaseStationSite(1, bs_pos, math.degrees(boresight + delta)), rot)
            assert g1.distance_3d == pytest.approx(g0.distance_3d, abs=1e-9)
            assert g1.theta == pytest.approx(g0.theta, abs=1e-12)
            assert abs(wrap_angle(g1.phi - g0.phi)) < 1e-12

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            bs_pos = Position3D(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0, 40))
            boresight = rng.uniform(-math.pi, math.pi)
            uav = Position3D(rng.uniform(-400, 400), rng.uniform(-400, 400), rng.uniform(1, 300))
            if math.dist(
                (uav.x, uav.y, uav.z), (bs_pos.x, bs_pos.y, bs_pos.z)
            ) < 1e-6:
                continue
            g = link_geometry(BaseStationSite(1, bs_pos, math.degrees(boresight)), uav)
            dz = g.distance_3d * math.cos(g.theta)
            dh = g.distance_3d * math.sin(g.theta)
            bearing = g.phi + boresight
            rec = (
                bs_pos.x + dh * math.cos(bearing),
                bs_pos.y + dh * math.sin(bearing),
                bs_pos.z + dz,
            )
            assert rec[0] == pytest.approx(uav.x, abs=1e-9)
            assert rec[1] == pytest.approx(uav.y, abs=1e-9)
            assert rec[2] == pytest.approx(uav.z, abs=1e-9)


coords = st.floats(-1e4, 1e4)


@st.composite
def sites_and_waypoints(draw):
    """Up to 6 waypoints and 5 BS sites anywhere, waypoints above ground."""
    bss = [
        BaseStationSite(
            l + 1,
            Position3D(draw(coords), draw(coords), draw(st.floats(0.0, 100.0))),
            draw(st.floats(-240.0, 240.0)),
        )
        for l in range(draw(st.integers(1, 5)))
    ]
    uavs = [
        Position3D(draw(coords), draw(coords), draw(st.floats(1.0, 500.0)))
        for _ in range(draw(st.integers(1, 6)))
    ]
    return uavs, bss


class TestLinkGeometries:
    """The (M, L) link array holds the scalar link_geometry of every link."""

    @settings(max_examples=200, deadline=None)
    @given(case=sites_and_waypoints())
    def test_every_link_is_the_scalar_link_bit_for_bit(self, case):
        uavs, bss = case
        try:
            expect = [[link_geometry(bs, uav) for bs in bss] for uav in uavs]
        except GeometryError:  # a UAV on (or within underflow of) a site
            with pytest.raises(GeometryError):
                link_geometries(uavs, bss)
            return
        links = link_geometries(uavs, bss)
        assert links.dtype == LINK_DTYPE
        assert links.shape == (len(uavs), len(bss)) == (len(links), len(links[0]))
        for m, l in np.ndindex(links.shape):
            assert links[m, l].tobytes() == struct.pack("3d", *expect[m][l])

    def test_nominal_corridor(self):
        corners = [(0.0, 0.0), (400.0, 0.0), (400.0, 400.0), (0.0, 400.0)]
        bss = [BaseStationSite(l + 1, Position3D(x, y, 25.0), 40.0 * l)
               for l, (x, y) in enumerate(corners)]
        uavs = generate_corridor(spec(radius=200.0, center=Position3D(200.0, 200.0, 0.0)), 64)
        links = link_geometries(uavs, bss)
        for m, l in np.ndindex(links.shape):
            assert links[m, l].tobytes() == struct.pack("3d", *link_geometry(bss[l], uavs[m]))

    def test_random_layouts_with_overhead_and_opposite_uavs_bit_for_bit(self):
        # Boresights up to two turns either way; per layout one UAV right above
        # a site (theta = 0) and one due opposite its boresight (phi = pi).
        rng = np.random.default_rng(19)
        for _ in range(100):
            bss = []
            for l in range(int(rng.integers(1, 7))):
                where = Position3D(*rng.uniform(-500.0, 500.0, 2), rng.uniform(0.0, 50.0))
                boresight = rng.choice([0.0, 90.0, 180.0, -180.0, rng.uniform(-720.0, 720.0)])
                bss.append(BaseStationSite(l + 1, where, float(boresight)))
            uavs = [Position3D(*rng.uniform(-500.0, 500.0, 2), rng.uniform(1.0, 300.0))
                    for _ in range(int(rng.integers(1, 30)))]
            site = bss[int(rng.integers(len(bss)))]
            p = site.position
            uavs.append(Position3D(p.x, p.y, p.z + rng.uniform(1.0, 300.0)))
            uavs.append(Position3D(p.x - 40.0, p.y, p.z + 60.0))
            links = link_geometries(uavs, bss)
            for m, l in np.ndindex(links.shape):
                assert links[m, l].tobytes() == struct.pack("3d", *link_geometry(bss[l], uavs[m]))
        edge = BaseStationSite(1, Position3D(0.0, 0.0, 0.0), 0.0)
        over, west = link_geometries([Position3D(0.0, 0.0, 9.0), Position3D(-3.0, 0.0, 4.0)],
                                     [edge])
        assert over["theta"][0] == 0.0 and west["phi"][0] == math.pi

    def test_coincident_uav_is_a_geometry_error(self):
        bss = [BaseStationSite(1, Position3D(0.0, 0.0, 0.0), 0.0)]
        with pytest.raises(GeometryError):
            link_geometries([Position3D(5.0, 0.0, 1.0), Position3D(0.0, 0.0, 0.0)], bss)
