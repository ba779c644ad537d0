"""Directional transmit gain of a sectorized uniform planar array.

Implements the standard 3GPP-style decomposition

    G(theta, phi) = A_E(theta, phi) + A_V(theta, phi)   [dBi]

where A_E is the single-element pattern (parabolic rolloff in both cuts,
capped by the side-lobe limit and the front-to-back ratio) and A_V is the
array factor 10*log10(|V^H W|^2) built from a steering vector V toward the
link direction and a beamforming vector W for a horizontal scan angle with
a fixed vertical tilt.

Element spacings are stored in wavelengths, so the carrier wavelength
cancels out of every phase term and the array math never touches it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s
# |V^H W|^2 is clamped here so that an exact null never reaches log10(0).
GAIN_FLOOR_DB = -400.0
_GAIN_FLOOR = 10.0 ** (GAIN_FLOOR_DB / 10.0)


@dataclass(frozen=True)
class AntennaConfig:
    """UPA geometry and element-pattern parameters.

    Defaults are the nominal 4x4 half-wavelength array: -8 dBi peak element
    gain, 65/90 degree beamwidths, 30 dB side-lobe and front-to-back caps,
    15 degree downtilt.
    """

    n_h: int = 4  # horizontal elements
    n_v: int = 4  # vertical elements
    d_h: float = 0.5  # horizontal spacing, wavelengths
    d_v: float = 0.5  # vertical spacing, wavelengths
    g_e_max_dbi: float = -8.0
    theta_3db_deg: float = 65.0  # elevation 3 dB beamwidth
    phi_3db_deg: float = 90.0  # azimuth 3 dB beamwidth
    a_m_db: float = 30.0  # front-to-back ratio
    sl_av_db: float = 30.0  # vertical side-lobe limit
    tilt_deg: float = 15.0  # vertical downtilt of every beam

    @property
    def n_elements(self) -> int:
        return self.n_h * self.n_v


@dataclass(frozen=True)
class SteeringDirection:
    """Link direction in the BS-local frame (theta zenith, phi off boresight)."""

    theta: float
    phi: float


def _maybe_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def element_gain_vertical(theta, cfg: AntennaConfig):
    """Vertical element cut A_EV(theta) in dB: 0 at the horizon, floor -SL_AV."""
    t_deg = np.degrees(np.asarray(theta, dtype=float))
    out = -np.minimum(12.0 * ((t_deg - 90.0) / cfg.theta_3db_deg) ** 2, cfg.sl_av_db)
    return _maybe_scalar(out)


def element_gain_horizontal(phi, cfg: AntennaConfig):
    """Horizontal element cut A_EH(phi) in dB: 0 on boresight, floor -A_m."""
    p_deg = np.degrees(np.asarray(phi, dtype=float))
    out = -np.minimum(12.0 * (p_deg / cfg.phi_3db_deg) ** 2, cfg.a_m_db)
    return _maybe_scalar(out)


def element_gain(theta, phi, cfg: AntennaConfig):
    """Combined element pattern A_E(theta, phi) in dBi, peak g_e_max_dbi."""
    a_v = np.asarray(element_gain_vertical(theta, cfg))
    a_h = np.asarray(element_gain_horizontal(phi, cfg))
    out = cfg.g_e_max_dbi - np.minimum(-(a_v + a_h), cfg.a_m_db)
    return _maybe_scalar(out)


def steering_vector(direction: SteeringDirection, cfg: AntennaConfig) -> np.ndarray:
    """Unit-modulus steering phasors toward `direction`.

    Flattened row-major over (horizontal index m, vertical index n); element
    (m, n) has phase 2*pi*(d_h*m*sin(theta)*sin(phi) + d_v*n*cos(theta)).
    """
    m = np.arange(cfg.n_h)
    n = np.arange(cfg.n_v)
    h_phase = cfg.d_h * m * math.sin(direction.theta) * math.sin(direction.phi)
    v_phase = cfg.d_v * n * math.cos(direction.theta)
    phase = h_phase[:, None] + v_phase[None, :]
    return np.exp(2j * math.pi * phase).reshape(-1)


def beamforming_vector(phi_scan, cfg: AntennaConfig) -> np.ndarray:
    """Unit-norm beamforming weights for a horizontal scan angle.

    Element (m, n) has phase -2*pi*(d_h*m*sin(phi_scan)*cos(tilt)
    - d_v*n*sin(tilt)), uniform magnitude 1/sqrt(n_h*n_v). `phi_scan` may be
    an array, in which case the leading axes broadcast and the element axis
    is last.
    """
    scan = np.asarray(phi_scan, dtype=float)
    tilt = math.radians(cfg.tilt_deg)
    m = np.arange(cfg.n_h)
    n = np.arange(cfg.n_v)
    h_phase = cfg.d_h * np.sin(scan)[..., None] * math.cos(tilt) * m
    v_phase = -cfg.d_v * n * math.sin(tilt)
    phase = h_phase[..., :, None] + v_phase
    w = np.exp(-2j * math.pi * phase) / math.sqrt(cfg.n_elements)
    return w.reshape(*scan.shape, cfg.n_elements) if scan.ndim else w.reshape(-1)


def array_gain(direction: SteeringDirection, phi_scan, cfg: AntennaConfig):
    """Array factor 10*log10(|V^H W|^2) in dB, clamped at GAIN_FLOOR_DB.

    Never exceeds 10*log10(n_h*n_v) (Cauchy-Schwarz). Vectorized over
    `phi_scan`.
    """
    v = steering_vector(direction, cfg)
    w = beamforming_vector(phi_scan, cfg)
    inner = w @ v.conj()
    power = np.maximum(np.abs(inner) ** 2, _GAIN_FLOOR)
    return _maybe_scalar(10.0 * np.log10(power))


def total_gain(direction: SteeringDirection, phi_scan, cfg: AntennaConfig):
    """Total transmit gain A_E + A_V in dBi. Vectorized over `phi_scan`."""
    return element_gain(direction.theta, direction.phi, cfg) + array_gain(
        direction, phi_scan, cfg
    )


def scan_coefficients(theta, phi, cfg: AntennaConfig):
    """Fold link directions into their element gains and scan coefficients.

    For the direction (theta, phi) the total gain at scan angle phi_scan is

        elem_db + 10*log10(|sum_k c_k z^k|^2),  z = exp(1j * alpha * sin(phi_scan)),

    because the steering vector and the scan-independent vertical weight
    phases sum out over the vertical elements. Returns (elem_db, c, alpha):
    elem_db has the broadcast shape S of theta and phi, c has shape
    S + (n_h,), and alpha = -2*pi*d_h*cos(tilt) is shared by every direction.
    c_k = v * exp(-2j*pi*d_h*sin(theta)*sin(phi)*k), with v the `vertical_weight`.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    elem_db = np.asarray(element_gain(theta, phi, cfg))
    h_phase = cfg.d_h * (np.sin(theta) * np.sin(phi))[..., None] * np.arange(cfg.n_h)
    coeffs = np.exp(-2j * math.pi * h_phase) * vertical_weight(theta, cfg)[..., None]
    return elem_db, coeffs, scan_alpha(cfg)


def vertical_weight(theta, cfg: AntennaConfig):
    """v = c_0 of `scan_coefficients`: the vertical phasors toward theta, summed, over sqrt(N)."""
    tilt = math.radians(cfg.tilt_deg)
    v_phase = cfg.d_v * (math.sin(tilt) - np.cos(theta))[..., None] * np.arange(cfg.n_v)
    return np.exp(2j * math.pi * v_phase).sum(axis=-1) / math.sqrt(cfg.n_elements)


def scan_alpha(cfg: AntennaConfig) -> float:
    """alpha = -2*pi*d_h*cos(tilt): a scan angle phi_scan steers by s = alpha * sin(phi_scan)."""
    return -2.0 * math.pi * cfg.d_h * math.cos(math.radians(cfg.tilt_deg))


def folded_gain_db(elem_db, coeffs, alpha: float, phi_scan, cfg: AntennaConfig):
    """Total gain in dBi of folded directions (`scan_coefficients`) at `phi_scan`.

    `phi_scan` broadcasts against `elem_db`. Summing the coefficients
    directly keeps total_gain()'s precision near nulls of the array factor.
    """
    field = (coeffs * scan_phasors(alpha, phi_scan, cfg.n_h)).sum(axis=-1)
    return power_gain_db(elem_db, field.real**2 + field.imag**2)


def scan_phasors(alpha: float, phi_scan, n_h: int) -> np.ndarray:
    """The powers z^k, k < n_h, of z = exp(1j * alpha * sin(phi_scan)), on a new last axis."""
    return np.exp(1j * alpha * np.sin(phi_scan)[..., None] * np.arange(n_h))


def power_gain_db(elem_db, power):
    """Total gain in dBi of a direction whose array power |sum_k c_k z^k|^2 is `power`."""
    return elem_db + 10.0 * np.log10(np.maximum(power, _GAIN_FLOOR))


def make_scan_gain(direction: SteeringDirection, cfg: AntennaConfig) -> Callable[[float], float]:
    """Build a fast scalar scan -> total gain map for a fixed direction.

    Uses the n_h coefficients of `scan_coefficients`, leaving one sin() and
    n_h phasors per evaluation. Matches total_gain() to float rounding; used
    by the per-triplet reference scan optimizer, which evaluates the gain a
    few hundred times per direction.
    """
    elem_db, coeffs, alpha = scan_coefficients(direction.theta, direction.phi, cfg)
    elem_db = float(elem_db)
    coeffs_list = [complex(c) for c in coeffs]

    def gain(phi_scan: float) -> float:
        step = alpha * math.sin(phi_scan)
        acc = 0j
        for k, c in enumerate(coeffs_list):
            acc += c * cmath.exp(1j * step * k)
        power = acc.real * acc.real + acc.imag * acc.imag
        if power < _GAIN_FLOOR:
            power = _GAIN_FLOOR
        return elem_db + 10.0 * math.log10(power)

    return gain
