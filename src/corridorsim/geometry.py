"""BS and UAV placement plus the BS-local spherical view of each link.

Every consumer of a link reads the one (M, L) array that `link_geometries`
returns: its fields `distance_3d`, `theta` and `phi` hold the values the
scalar `link_geometry` computes for link [m, l].

Coordinate convention: x east, y north, z altitude above ground (meters).
The zenith angle theta is measured from straight up at the BS, so a UAV
level with the BS sits at theta = pi/2 (the horizon) and one directly
overhead at theta = 0. Azimuth phi is taken relative to the BS array
boresight and wrapped to (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, GeometryError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class BaseStationSite:
    """A BS site; `boresight_deg` is the array normal in the horizontal plane."""

    id: int
    position: Position3D
    boresight_deg: float  # degrees, 0 = east, counterclockwise


@dataclass(frozen=True)
class CorridorSpec:
    """Circular corridor at a fixed altitude; defaults are the nominal corridor."""

    center: Position3D = Position3D(200.0, 200.0, 0.0)  # z is ignored
    radius: float = 200.0
    altitude: float = 100.0


class LinkGeometry(NamedTuple):
    distance_3d: float
    theta: float  # zenith angle at the BS, radians in [0, pi]
    phi: float  # azimuth relative to boresight, radians in (-pi, pi]


# One link per element: the fields of LinkGeometry, in its order.
LINK_DTYPE = np.dtype([(name, float) for name in LinkGeometry._fields])


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = (angle + math.pi) % TWO_PI - math.pi
    if a <= -math.pi:
        a += TWO_PI
    return a


def generate_corridor(spec: CorridorSpec, m: int) -> list[Position3D]:
    """Place `m` waypoints evenly on the corridor circle, waypoint k at angle 2*pi*k/m.

    Waypoint 0 lies due east of the center; all waypoints sit exactly at
    `spec.altitude`.
    """
    if m < 1:
        raise ConfigurationError(f"waypoint count must be >= 1, got {m}")
    if spec.radius <= 0.0:
        raise ConfigurationError(f"corridor radius must be positive, got {spec.radius}")
    if spec.altitude <= 0.0:
        raise ConfigurationError(f"corridor altitude must be positive, got {spec.altitude}")
    positions = []
    for k in range(m):
        ang = TWO_PI * k / m
        positions.append(
            Position3D(
                x=spec.center.x + spec.radius * math.cos(ang),
                y=spec.center.y + spec.radius * math.sin(ang),
                z=spec.altitude,
            )
        )
    return positions


def link_geometry(bs: BaseStationSite, uav: Position3D) -> LinkGeometry:
    """Distance and BS-local (theta, phi) of a UAV as seen from `bs`."""
    dx = uav.x - bs.position.x
    dy = uav.y - bs.position.y
    dz = uav.z - bs.position.z
    distance = math.sqrt(dx * dx + dy * dy + dz * dz)
    if distance <= 0.0:
        raise GeometryError(f"UAV coincides with BS {bs.id} at {bs.position}")
    # Clamp guards acos against rounding when the UAV is exactly overhead.
    theta = math.acos(max(-1.0, min(1.0, dz / distance)))
    phi = wrap_angle(math.atan2(dy, dx) - math.radians(bs.boresight_deg))
    return LinkGeometry(distance_3d=distance, theta=theta, phi=phi)


def link_geometries(uavs: list[Position3D], bss: list[BaseStationSite]) -> np.ndarray:
    """Every (UAV, BS) link as one (M, L) array of LINK_DTYPE, indexed [m, l].

    Each element is `link_geometry(bss[l], uavs[m])` bit for bit. The
    arithmetic, sqrt, clamp and wrap are numpy's, which round as the scalar
    code does; acos and atan2 stay in `math`, whose results can differ from
    numpy's by an ulp.
    """
    u = np.array([(p.x, p.y, p.z) for p in uavs], dtype=float).reshape(-1, 1, 3)
    b = np.array([(bs.position.x, bs.position.y, bs.position.z) for bs in bss], dtype=float)
    dx, dy, dz = np.moveaxis(u - b.reshape(-1, 3), -1, 0)
    distance = np.sqrt(dx * dx + dy * dy + dz * dz)
    if np.any(distance <= 0.0):
        _, l = np.argwhere(distance <= 0.0)[0]
        raise GeometryError(f"UAV coincides with BS {bss[l].id} at {bss[l].position}")
    links = np.empty(distance.shape, dtype=LINK_DTYPE)
    links["distance_3d"] = distance
    cosine = np.clip(dz / distance, -1.0, 1.0).ravel().tolist()
    links["theta"] = np.reshape(list(map(math.acos, cosine)), distance.shape)
    bearing = np.reshape(list(map(math.atan2, dy.ravel().tolist(), dx.ravel().tolist())),
                         distance.shape)
    boresight = np.array([math.radians(bs.boresight_deg) for bs in bss])
    phi = np.remainder(bearing - boresight + math.pi, TWO_PI) - math.pi
    links["phi"] = np.where(phi <= -math.pi, phi + TWO_PI, phi)
    return links
