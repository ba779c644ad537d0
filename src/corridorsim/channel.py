"""Channel-twin link gains between every UAV waypoint and BS.

Three interchangeable providers fill a LinkGainTensor:

* ``few_ray``      - deterministic free-space LOS ray plus a seeded diffuse
                     component sampled with ``ray_count - 1`` scatter rays.
                     The total scattered power is the LOS power divided by
                     the linear Rician K factor; the sampling error of the
                     ray sum shrinks as 1/(ray_count - 1), so a high ray
                     count pins the link gain down tightly while a low one
                     leaves estimation noise. This is the desk-scale stand-in
                     for a site-specific ray tracer. Up to 64 scatter rays
                     the error is the exact uniform-phasor sum; above, its
                     Gaussian limit, whose CDF is within 0.115/n of the exact
                     one (see ``_EXACT_RAY_LIMIT``).
* ``statistical``  - street-canyon LOS path loss
                     PL = 32.4 + 21*log10(d_3D) + 20*log10(f_GHz) [dB]
                     with unit-mean Rician small-scale fading.
* ``import``       - reads an externally produced tensor from the binary or
                     JSON file format documented at the bottom of this file.

Every provider is a pure function of (links, spec, rf, seeds): ``links``
is the (M, L) array of ``geometry.link_geometries``, and ``seeds`` holds one
int per replication, as for ``degrade``. A call returns one tensor stacked
on a leading replication axis, power gains (R, M, L) and coefficients
(R, M, L, k), and row r is a function of seeds[r] alone. Row r draws from
one numpy Generator per draw kind, seeded by ``SeedSequence(seeds[r] mod
2^64)``, and each stream fills a row-major (M*L, k) block in one call: link
(m, l)'s draws are row m*L + l. A link therefore keeps its draws when M
grows, the few-ray diffuse phase does not depend on the ray count, and a
replication's tensor does not depend on which rows share its call or on
the thread count.

The rest of a provider runs once on (R, M*L) arrays, and what does not
depend on the seed (the LOS ray, the path loss) once on (M*L,) arrays. Its
libm calls (cos, sin, log10, 10 ** x) go through ``math`` and ``cmath`` on
Python floats, because numpy's SIMD float64 log10 and exp may round
differently from libm.
"""

from __future__ import annotations

import cmath
import json
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .antenna import SPEED_OF_LIGHT
from .errors import GeometryError, TensorFormatError

# Above this many scatter rays n the error term (1/n) * sum(exp(i psi_k)),
# Pearson's random walk, is drawn from its Gaussian limit (same zero mean,
# same 1/n variance) instead of summed. Rayleigh's first-order correction
# puts the CDF of n |err|^2 within 0.4612 / (4 n) ~ 0.115 / n of Exp(1), so
# the first Gaussian n, 65, is off the exact sum by at most 1.8e-3.
# tests/test_channel.py::TestGaussianLimit checks the bound and fixes the
# value; README "Determinism" lists the tensors it moved (few-ray at
# ray_count 66..10 001; the default configs are untouched).
_EXACT_RAY_LIMIT = 64

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class RfConstants:
    """Link-budget constants. Defaults: 3.5 GHz, 30 MHz, 10 W TX, 0.3 W noise."""

    carrier_hz: float = 3.5e9
    bandwidth_hz: float = 30e6
    tx_power_w: float = 10.0
    noise_power_w: float = 0.3


@dataclass(frozen=True)
class ChannelProviderSpec:
    """Which provider to run and with what fidelity; the seeds are a call argument."""

    kind: str = "statistical"  # few_ray | statistical | import
    ray_count: int = 1_000_000
    rician_k_db: float = 3.0
    import_path: str | None = None


@dataclass
class LinkGainTensor:
    """Per-link channel state: scalar power gains plus optional coefficients.

    ``power_gains[..., m, l]`` is the linear |h|^2 for UAV m and BS l, with
    one leading replication axis on generated tensors, (R, M, L), and none
    on a file's, (M, L). When per-element ``coefficients`` (..., m, l, k)
    are present, power gains are their mean element power. ``ray_count``
    records the fidelity the tensor was generated (or degraded) at, None
    for statistical/imported tensors.
    """

    power_gains: np.ndarray
    coefficients: np.ndarray | None = None
    ray_count: int | None = None

    @property
    def m(self) -> int:
        return self.power_gains.shape[-2]

    @property
    def l(self) -> int:
        return self.power_gains.shape[-1]

    @property
    def n_elems(self) -> int:
        return 0 if self.coefficients is None else self.coefficients.shape[-1]


def aggregate_power(coefficients: np.ndarray) -> np.ndarray:
    """Scalar |h|^2 per link: mean element power over the antenna axis."""
    return np.mean(np.abs(coefficients) ** 2, axis=-1)


def free_space_path_gain(distance: float, carrier_hz: float):
    """Friis distance term (lambda / (4*pi*d))^2, linear."""
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0.0):
        raise GeometryError(f"path gain needs a positive distance, got {distance}")
    lam = SPEED_OF_LIGHT / carrier_hz
    out = (lam / (4.0 * math.pi * d)) ** 2
    return float(out) if np.ndim(distance) == 0 else out


def _unit_phasors(phases: np.ndarray) -> np.ndarray:
    """exp(1j * phase) per element, through libm's cos and sin on Python floats.

    cmath.exp of complex(0, phase) is exp(0) = 1 times libm's cos and sin,
    so it equals complex(math.cos(phase), math.sin(phase)) bit for bit, in
    one call per phase. The imaginary part is set, not multiplied by 1j,
    which would turn a phase of -0.0 into +0.0.
    """
    z = np.zeros(phases.size, dtype=complex)
    z.imag = phases.ravel()
    return np.array(list(map(cmath.exp, z.tolist())), dtype=complex).reshape(phases.shape)


def _stacked(row: np.ndarray, count: int) -> np.ndarray:
    """`row` repeated on a new leading axis of `count` rows, as a read-only view."""
    return np.broadcast_to(row, (count,) + row.shape)


def generate_few_ray(
    links: np.ndarray, spec: ChannelProviderSpec, rf: RfConstants, seeds: Sequence[int]
) -> LinkGainTensor:
    """LOS ray plus (ray_count - 1) seeded scatter rays per link, one row per seed.

    The diffuse field of link (m, l) is a fixed phasor of power LOS/K; its
    phase chi is row m*L + l of the replication's chi stream, independent of
    ray count. The scatter rays estimate it with zero-mean error of variance
    diffuse_power/(ray_count - 1), summed exactly up to _EXACT_RAY_LIMIT
    scatter rays and drawn from its Gaussian limit above. ray_count = 1 is
    the pure-LOS channel, the same in every row. The LOS ray is computed
    once for all rows.
    """
    if spec.ray_count < 1:
        raise ValueError(f"ray_count must be >= 1, got {spec.ray_count}")
    mm, ll = links.shape
    dist = links["distance_3d"].ravel()
    lam = SPEED_OF_LIGHT / rf.carrier_hz
    n_scatter = spec.ray_count - 1

    amp = np.sqrt(free_space_path_gain(dist, rf.carrier_hz))
    los = amp * _unit_phasors(np.fmod(2.0 * math.pi * dist / lam, 2.0 * math.pi))
    h = _stacked(los, len(seeds))
    if n_scatter >= 1:
        # chi has a stream of its own, so it does not depend on the ray count;
        # the second stream gives psi (exact) or the two Gaussian components of err.
        exact = n_scatter <= _EXACT_RAY_LIMIT
        chi = np.empty(h.shape)
        draws = np.empty(h.shape + (n_scatter if exact else 2,))
        for r, seed in enumerate(seeds):
            children = np.random.SeedSequence(seed & _SEED_MASK).spawn(2)
            chi_rng, err_rng = map(np.random.default_rng, children)
            chi_rng.random(out=chi[r])
            (err_rng.random if exact else err_rng.standard_normal)(out=draws[r])
        chi = -math.pi + 2.0 * math.pi * chi  # uniform(-pi, pi)
        if exact:
            psi = -math.pi + 2.0 * math.pi * draws
            err = (np.cos(psi) + 1j * np.sin(psi)).sum(axis=-1) / n_scatter
        else:
            err = (draws[..., 0] + 1j * draws[..., 1]) * math.sqrt(0.5 / n_scatter)
        s_amp = amp / math.sqrt(10.0 ** (spec.rician_k_db / 10.0))
        h = h + s_amp * (_unit_phasors(chi) + err)
    coeffs = h.reshape(len(seeds), mm, ll, 1)
    return LinkGainTensor(
        power_gains=aggregate_power(coeffs),
        coefficients=coeffs,
        ray_count=spec.ray_count,
    )


def generate_statistical(
    links: np.ndarray, spec: ChannelProviderSpec, rf: RfConstants, seeds: Sequence[int]
) -> LinkGainTensor:
    """Street-canyon LOS path loss with unit-mean Rician fading, one row per seed.

    Path loss and the LOS phasor are computed once for all rows.
    """
    mm, ll = links.shape
    dist = links["distance_3d"].ravel()
    lam = SPEED_OF_LIGHT / rf.carrier_hz
    k_lin = 10.0 ** (spec.rician_k_db / 10.0)
    los_frac = math.sqrt(k_lin / (k_lin + 1.0))
    scatter_frac = math.sqrt(1.0 / (k_lin + 1.0))

    g = np.empty((len(seeds), dist.size, 2))
    for r, seed in enumerate(seeds):
        np.random.default_rng(seed & _SEED_MASK).standard_normal(out=g[r])
    log10_d = np.array([math.log10(d) for d in dist.tolist()])
    pl_db = 32.4 + 21.0 * log10_d + 20.0 * math.log10(rf.carrier_hz / 1e9)
    amp = np.array([10.0**x for x in (-pl_db / 20.0).tolist()])
    fading = los_frac * _unit_phasors(2.0 * math.pi * dist / lam) + scatter_frac * (
        g[..., 0] + 1j * g[..., 1]
    ) / math.sqrt(2.0)
    coeffs = (amp * fading).reshape(len(seeds), mm, ll, 1)
    return LinkGainTensor(
        power_gains=aggregate_power(coeffs), coefficients=coeffs, ray_count=None
    )


def degrade(
    tensor: LinkGainTensor, target_ray_count: int, seeds: Sequence[int]
) -> LinkGainTensor:
    """Re-estimate a stacked tensor at a coarser ray count, row r from seeds[r].

    Each link's power is jittered by an independent mean-one Gamma factor
    with variance 1/target_ray_count (the variance of a target_ray_count-ray
    power average), so expectation is preserved while per-link deviation from
    the source grows as the ray count drops. A target equal to the source
    fidelity is a no-op.
    """
    if target_ray_count < 1:
        raise ValueError(f"target_ray_count must be >= 1, got {target_ray_count}")
    shape = tensor.power_gains.shape
    if shape[:-2] != (len(seeds),):
        raise ValueError(f"degrade needs one seed per row of {shape} gains, got {len(seeds)}")
    if tensor.ray_count is not None and target_ray_count == tensor.ray_count:
        return LinkGainTensor(
            power_gains=tensor.power_gains.copy(),
            coefficients=None if tensor.coefficients is None else tensor.coefficients.copy(),
            ray_count=tensor.ray_count,
        )
    gamma = np.empty(shape)
    for r, seed in enumerate(seeds):
        gamma[r] = np.random.default_rng(seed & _SEED_MASK).gamma(
            target_ray_count, 1.0 / target_ray_count, size=shape[1:]
        )
    if tensor.coefficients is not None:
        coeffs = tensor.coefficients * np.sqrt(gamma)[..., None]
        power = aggregate_power(coeffs)  # keep the aggregation rule bit-exact
    else:
        coeffs = None
        power = tensor.power_gains * gamma
    return LinkGainTensor(
        power_gains=power, coefficients=coeffs, ray_count=target_ray_count
    )


def generate(
    links: np.ndarray, spec: ChannelProviderSpec, rf: RfConstants, seeds: Sequence[int]
) -> LinkGainTensor:
    """Dispatch to the provider named by ``spec.kind``, one row per seed.

    An import draws nothing: the file is read once and its tensor shared,
    read-only, by every row.
    """
    if spec.kind == "few_ray":
        return generate_few_ray(links, spec, rf, seeds)
    if spec.kind == "statistical":
        return generate_statistical(links, spec, rf, seeds)
    if spec.kind == "import":
        if spec.import_path is None:
            raise TensorFormatError("import provider needs an import_path")
        tensor = import_tensor(spec.import_path)
        coeffs = tensor.coefficients
        return LinkGainTensor(
            power_gains=_stacked(tensor.power_gains, len(seeds)),
            coefficients=None if coeffs is None else _stacked(coeffs, len(seeds)),
        )
    raise ValueError(f"unknown channel provider kind {spec.kind!r}")


# --------------------------------------------------------------------------
# Tensor file format
#
# Binary, little-endian:
#   magic "CTNS" | u16 version (=1) | u32 m | u32 l | u32 n_elems
#   | u8 has_coefficients
#   | if has_coefficients: m*l*n_elems float64 (re, im) pairs, row-major (m, l, k)
#   | m*l float64 power gains, row-major (m, l)
#
# JSON mirror with the same field names is accepted for hand-written
# fixtures: {"m":, "l":, "n_elems":, "has_coefficients":,
#            "coefficients": [[[ [re, im], ...]]] or null,
#            "power_gains": [[...]]}
# --------------------------------------------------------------------------

_MAGIC = b"CTNS"
_VERSION = 1
_HEADER = struct.Struct("<4sHIIIB")


def export_tensor(tensor: LinkGainTensor, path: str | Path) -> None:
    """Write a tensor of one replication, (M, L) or (1, M, L), in the binary file format."""
    if tensor.power_gains.size != tensor.m * tensor.l:
        raise ValueError(
            f"a tensor file holds one replication, got gains of shape {tensor.power_gains.shape}"
        )
    has_coeff = tensor.coefficients is not None
    blob = _HEADER.pack(
        _MAGIC, _VERSION, tensor.m, tensor.l, tensor.n_elems, int(has_coeff)
    )
    if has_coeff:
        blob += np.ascontiguousarray(tensor.coefficients, dtype="<c16").tobytes()
    blob += np.ascontiguousarray(tensor.power_gains, dtype="<f8").tobytes()
    Path(path).write_bytes(blob)


def import_tensor(path: str | Path) -> LinkGainTensor:
    """Load a tensor from the binary or JSON file format.

    When coefficients are present the power gains are recomputed from them
    via the mean-element-power rule; the header dimensions must match the
    payload exactly.
    """
    p = Path(path)
    if not p.exists():
        raise TensorFormatError(f"channel tensor file not found: {p}")
    raw = p.read_bytes()
    if raw[:4] == _MAGIC:
        return _import_binary(raw, p)
    return _import_json(raw, p)


def _finish_import(coeffs: np.ndarray | None, power: np.ndarray, p: Path) -> LinkGainTensor:
    if coeffs is not None:
        if not np.all(np.isfinite(coeffs.view(float))):
            raise TensorFormatError(f"{p}: non-finite coefficient values")
        power = aggregate_power(coeffs)
    if not np.all(np.isfinite(power)):
        raise TensorFormatError(f"{p}: non-finite power gains")
    if np.any(power < 0.0):
        raise TensorFormatError(f"{p}: negative power gains")
    return LinkGainTensor(power_gains=power, coefficients=coeffs, ray_count=None)


def _import_binary(raw: bytes, p: Path) -> LinkGainTensor:
    if len(raw) < _HEADER.size:
        raise TensorFormatError(f"{p}: truncated header")
    magic, version, mm, ll, kk, has_coeff = _HEADER.unpack_from(raw)
    if version != _VERSION:
        raise TensorFormatError(f"{p}: unsupported version {version}")
    offset = _HEADER.size
    coeffs = None
    if has_coeff:
        _check_n_elems(kk, p)
        n_bytes = mm * ll * kk * 16
        if len(raw) < offset + n_bytes:
            raise TensorFormatError(
                f"{p}: dimension mismatch, header says {mm}x{ll}x{kk} coefficients "
                f"but only {len(raw) - offset} payload bytes remain"
            )
        coeffs = (
            np.frombuffer(raw, dtype="<c16", count=mm * ll * kk, offset=offset)
            .reshape(mm, ll, kk)
            .astype(np.complex128)
        )
        offset += n_bytes
    n_bytes = mm * ll * 8
    if len(raw) != offset + n_bytes:
        raise TensorFormatError(
            f"{p}: dimension mismatch, header says {mm}x{ll} power gains but "
            f"{len(raw) - offset} payload bytes remain (expected {n_bytes})"
        )
    power = (
        np.frombuffer(raw, dtype="<f8", count=mm * ll, offset=offset)
        .reshape(mm, ll)
        .astype(float)
    )
    return _finish_import(coeffs, power, p)


def _import_json(raw: bytes, p: Path) -> LinkGainTensor:
    try:
        doc = json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TensorFormatError(f"{p}: malformed header, neither CTNS nor JSON") from exc
    if not isinstance(doc, dict):
        raise TensorFormatError(f"{p}: a JSON tensor must be an object, got {doc!r:.40}")
    for key in ("m", "l", "n_elems", "has_coefficients", "power_gains"):
        if key not in doc:
            raise TensorFormatError(f"{p}: missing field {key!r}")
    for key in ("m", "l", "n_elems"):
        if type(doc[key]) is not int or doc[key] < 0:
            raise TensorFormatError(f"{p}: {key} must be a non-negative integer, got {doc[key]!r}")
    mm, ll, kk = doc["m"], doc["l"], doc["n_elems"]
    if doc["has_coefficients"] not in (0, 1):
        raise TensorFormatError(f"{p}: has_coefficients must be true or false")
    coeffs = None
    if doc["has_coefficients"]:
        _check_n_elems(kk, p)
        arr = _json_array(doc.get("coefficients"), (mm, ll, kk, 2), "coefficients", p)
        coeffs = arr[..., 0] + 1j * arr[..., 1]
    power = _json_array(doc["power_gains"], (mm, ll), "power_gains", p)
    return _finish_import(coeffs, power, p)


def _check_n_elems(kk: int, p: Path) -> None:
    # A mean over an empty element axis has no power gain to give.
    if kk < 1:
        raise TensorFormatError(f"{p}: coefficients need n_elems >= 1, got {kk}")


def _json_array(value, shape: tuple, name: str, p: Path) -> np.ndarray:
    """`value` as a float array of `shape`; anything else is a TensorFormatError."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise TensorFormatError(f"{p}: {name} is not a numeric array") from exc
    if arr.dtype.kind not in "iuf":
        raise TensorFormatError(f"{p}: {name} is not a numeric array")
    if arr.shape != shape:
        raise TensorFormatError(
            f"{p}: dimension mismatch, {name} shape {arr.shape} vs header {shape}"
        )
    return arr.astype(float)
