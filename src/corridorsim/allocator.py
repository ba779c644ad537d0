"""Two-stage UAV-BS-beam association plus the baseline allocators.

Stage 1 tunes the horizontal scan angle of every (UAV, BS, beam) triplet.
Each beam owns one of N equal azimuth sectors of (-pi, pi], and its scan
angle is optimized inside that sector, so the N beams of a BS stay distinct
and beam exclusivity is meaningful. `build_beam_gain_table` solves all
triplets in one deterministic numpy pass: the array power of a link is a
Dirichlet kernel in s = alpha * sin(phi_scan), shifted by the link's phase
step beta, so its peaks are beta plus lobe offsets that depend on n_h alone;
each sector's best angle is then read off those peaks, its ends and +-pi/2
by the kernel's sine ratio. The paper's per-triplet dual annealing is kept
in tests/oracles.py as the reference this pass must never fall below.

Stage 2 turns the optimized gains and the channel gains into a utility
tensor Lambda[m, l, n] = P * |h|^2 * 10^(G/10), flattens it to an
M x (L*N) matrix (column j -> BS j // N, beam j % N), and solves the
rectangular linear sum assignment exactly with scipy. Among tied optima
(mirror sectors often reach the same gain) the solver returns the same one
for the same matrix, though not necessarily the lowest-index one.

Baselines: uniformly random injective assignment, and nearest-BS with the
best remaining beam, ties going to the lowest index. All allocators are
deterministic given their inputs and seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq, linear_sum_assignment

from .antenna import AntennaConfig, element_gain, power_gain_db, scan_alpha, vertical_weight
from .antenna import make_scan_gain  # unused here; perfbench/tracing.py patches it
from .channel import _SEED_MASK, LinkGainTensor, RfConstants
from .errors import ConfigurationError, InfeasibleAssignmentError
from .geometry import BaseStationSite, Position3D, link_geometries

# Stage 1 holds ~2 * (n_h - 1) * (2 * d_h + 1) scan candidates and the 2N
# sector ends of every link in one array. 1 024 sectors of 0.35 degrees, 64
# times the nominal count, take a nominal run about 20 ms; 10^9 would
# exhaust memory on the sector ends alone.
MAX_ARRAY_SIDE = 64
MAX_D_H_WAVELENGTHS = 10.0
MAX_BEAMS = 1024
# Stage 1 and the run hold several arrays over all M * L * N triplets, and
# evaluation an M x M one; 2^20 triplets (M = 1 024 UAVs on 4 BSs of 256
# beams) is 800 times the nominal run.
MAX_TRIPLETS = 1 << 20
# Stage 1 holds a few (links, candidates) arrays; this many candidates is
# as many as the sector ends of a run at the triplet bound.
MAX_CANDIDATES = 2 * MAX_TRIPLETS
# A run stacks its replications on a leading axis, in chunks whose largest
# array (the (R, M, L, N) utility, or the exact few-ray branch's
# (R, M*L, n_scatter) phases) holds at most this many elements: one
# replication at the triplet bound.
MAX_STACKED = MAX_TRIPLETS


@dataclass(frozen=True)
class BeamCodebook:
    """N beams per BS, beam n owning the n-th azimuth sector of (-pi, pi]."""

    n_beams: int = 16

    @property
    def sectors(self) -> tuple[tuple[float, float], ...]:
        """The N half-open sectors (lo, hi], ordered, covering (-pi, pi]."""
        if self.n_beams < 1:
            raise ConfigurationError(f"codebook needs >= 1 beam, got {self.n_beams}")
        if self.n_beams > MAX_BEAMS:
            raise ConfigurationError(f"codebook.n_beams must be <= {MAX_BEAMS}, got {self.n_beams}")
        # -pi + n * 2pi/N, except that the last end is pi itself, never pi + 1 ulp
        ends = np.linspace(-math.pi, math.pi, self.n_beams + 1).tolist()
        return tuple(zip(ends[:-1], ends[1:]))


@dataclass
class BeamGainTable:
    """Stage-1 output: optimal scan angle and gain per (UAV, BS, beam)."""

    phi_star: np.ndarray  # (M, L, N) radians
    gain_db: np.ndarray  # (M, L, N)
    stage1_evals: int  # scan points evaluated


@dataclass
class Assignment:
    """Serving BS and beam of every UAV, as two (M,) index arrays.

    In the paper's indicator form, beta[m, l] = (bs[m] == l) and
    x[m, l, n] = (bs[m] == l and beam[m] == n). phi_scan_chosen is the
    per-UAV serving scan angle when the allocator had a beam table available.
    """

    bs: np.ndarray  # (M,) int
    beam: np.ndarray  # (M,) int
    phi_scan_chosen: np.ndarray | None = None  # (M,) radians


# --------------------------------------------------------------------------
# Stage 1: scan-angle optimization
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _lobe_offsets(n_h: int) -> tuple[float, ...]:
    """Where the Dirichlet kernel |sum_{k<n_h} exp(1j * k * x)|^2 peaks in [0, 2 pi).

    The main lobe is at 0, and one side lobe lies between each pair of
    consecutive nulls 2 pi j / n_h, where the amplitude
    sin(n_h x / 2) / sin(x / 2) has zero slope; that slope's numerator
    changes sign from one null to the next, so brentq brackets each root.
    n_h <= 2 leaves the main lobe alone. Constants of n_h, cached per n_h.
    """

    def slope(x: float) -> float:  # the amplitude's slope times 2 sin^2(x / 2)
        half, whole = 0.5 * x, 0.5 * n_h * x
        return n_h * math.cos(whole) * math.sin(half) - math.sin(whole) * math.cos(half)

    nulls = 2.0 * math.pi * np.arange(1, n_h) / n_h
    side = [brentq(slope, a, b, xtol=1e-15) for a, b in zip(nulls[:-1], nulls[1:])]
    return (0.0, *side)


def _lobe_peaks(beta: np.ndarray, reach: float, n_h: int) -> np.ndarray:
    """Every local maximum s of the array power P(s) = |v|^2 |sum_k exp(1j k (s - beta))|^2.

    The peaks sit at s = beta + x + 2 pi q for the `_lobe_offsets` x. Each
    beta + x is wrapped into [-pi, pi), so the peaks inside [-reach, reach]
    all have |q| <= `_wraps(reach)`. Returns shape beta.shape + (peaks,),
    the same count for every beta, so some peaks lie outside [-reach, reach].
    """
    wraps = _wraps(reach)
    lobes = np.remainder(beta[..., None] + _lobe_offsets(n_h) + math.pi, 2.0 * math.pi) - math.pi
    turns = 2.0 * math.pi * np.arange(-wraps, wraps + 1)
    return (lobes[..., None] + turns).reshape(beta.shape + (-1,))


def _wraps(reach: float) -> int:
    """The largest turn |q| of a peak beta + x + 2 pi q inside [-reach, reach]."""
    return math.floor((reach + math.pi) / (2.0 * math.pi))


def _kernel_power(v2, beta, s, n_h: int) -> np.ndarray:
    """The array power |v|^2 sin^2(n_h x / 2) / sin^2(x / 2), n_h^2 |v|^2 at x = 0.

    x = s - beta is reduced to [-pi, pi] first: at a grating lobe, x near
    2 pi q with q != 0, both sines of the unreduced x are rounding noise.
    """
    half = s - beta
    half = 0.5 * (half - 2.0 * math.pi * np.rint(half / (2.0 * math.pi)))
    den = np.sin(half)
    ratio = np.divide(np.sin(n_h * half), den, out=np.full_like(half, n_h), where=den != 0.0)
    return v2 * ratio**2


def stage1_size_errors(cfg: AntennaConfig, n_beams: int, n_links: int) -> list[str]:
    """One message per Stage-1 size above its bound, named by its config file keys.

    `n_links` is the number of (UAV, BS) links, M * L. A product of sizes
    is checked only when its factors are within their own bounds.
    """
    sizes = (("antenna.n_h", cfg.n_h, MAX_ARRAY_SIDE), ("antenna.n_v", cfg.n_v, MAX_ARRAY_SIDE),
             ("antenna.d_h_wavelengths", cfg.d_h, MAX_D_H_WAVELENGTHS),
             ("codebook.n_beams", n_beams, MAX_BEAMS))
    errors = [f"{key} must be <= {top}, got {value}" for key, value, top in sizes if value > top]
    if n_beams <= MAX_BEAMS and n_links * n_beams > MAX_TRIPLETS:
        errors.append(
            f"uav_count x bss x codebook.n_beams must be <= {MAX_TRIPLETS} stage-1 triplets, "
            f"got {n_links * n_beams}"
        )
    if (cfg.n_h <= MAX_ARRAY_SIDE and cfg.d_h <= MAX_D_H_WAVELENGTHS
            and math.isfinite(cfg.d_h) and math.isfinite(cfg.tilt_deg)):
        # Both arcsin branches of every `_lobe_peaks` peak, and the two poles.
        per_link = 2 * max(1, cfg.n_h - 1) * (2 * _wraps(abs(scan_alpha(cfg))) + 1) + 2
        if n_links * per_link > MAX_CANDIDATES:
            errors.append(f"uav_count x bss x {per_link} scan candidates per link (set by "
                          f"antenna.n_h, antenna.d_h_wavelengths and antenna.tilt_deg) must be "
                          f"<= {MAX_CANDIDATES}, got {n_links * per_link}")
    return errors


def optimal_scan_angles(
    theta, phi, sectors, cfg: AntennaConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """Best scan angle and total gain of every (direction, sector) pair at once.

    `theta` and `phi` broadcast to the directions' shape S and `sectors`
    lists N consecutive half-open intervals (lo, hi] inside [-pi, pi], each
    starting where the one before ends, as the codebook's do. Returns
    (phi_star, gain_db, scan points evaluated), the arrays of shape
    S + (N,), every phi_star inside its sector.

    Each direction's scan coefficients (`scan_coefficients`) are
    c_k = v * exp(-1j * beta * k) with beta = 2 pi d_h sin(theta) sin(phi),
    so its array power in s = alpha * sin(phi_scan) is the Dirichlet kernel
    |v|^2 sin^2(n_h x / 2) / sin^2(x / 2), x = s - beta (`_kernel_power`).
    All sectors of a direction share it, and its peaks over s in [-|alpha|,
    |alpha|] are the kernel's lobes (`_lobe_peaks`). An interior maximum of
    P(alpha * sin(phi)) has cos(phi) = 0 or P'(s) = 0, so a sector's best
    angle is one of its two ends, +-pi/2, or an arcsin branch of a peak,
    whichever inside the sector has the highest P (ties go to the ends, then
    to the first candidate). One searchsorted bins them all, so the sectors
    must be consecutive. The gain is the element gain plus 10 log10 of that
    P. The evaluation count is a fixed multiple of the number of pairs. An
    array, a spacing or a count above its MAX_* bound raises.
    """
    lo, hi = np.array(sectors, dtype=float).reshape(-1, 2).T
    oversized = stage1_size_errors(cfg, lo.size, np.broadcast(theta, phi).size)
    if oversized:
        raise ConfigurationError("; ".join(oversized))
    inside = np.all((-math.pi <= lo) & (lo < hi) & (hi <= math.pi))
    if lo.size == 0 or not inside or np.any(lo[1:] != hi[:-1]):
        raise ConfigurationError(f"scan sectors must be non-empty (lo, hi] inside [-pi, pi] and "
                                 f"consecutive, each starting where the last ends, got {sectors}")
    elem_db = np.asarray(element_gain(theta, phi, cfg))
    beta = 2.0 * math.pi * cfg.d_h * (np.sin(theta) * np.sin(phi))
    v = vertical_weight(theta, cfg)
    v2 = np.broadcast_to(v.real**2 + v.imag**2, beta.shape).reshape(-1, 1)
    beta, alpha = beta.reshape(-1, 1), scan_alpha(cfg)  # (K, 1), K directions
    k, nn = beta.shape[0], lo.size

    peaks = _lobe_peaks(beta[:, 0], abs(alpha), cfg.n_h)
    # A peak outside [-|alpha|, |alpha|] clips onto a pole, a candidate anyway.
    branch = np.arcsin(np.clip(peaks / alpha, -1.0, 1.0) if alpha else np.zeros_like(peaks))
    poles = np.broadcast_to([-0.5 * math.pi, 0.5 * math.pi], (k, 2))
    cand = np.concatenate(
        [branch, np.where(branch >= 0.0, math.pi, -math.pi) - branch, poles], axis=-1
    )
    # Per pair: the sector's two ends, then every candidate; (K, 2N + C) points.
    ends = np.stack([np.nextafter(lo, hi), hi], axis=-1).reshape(-1)
    points = np.concatenate([np.broadcast_to(ends, (k, ends.size)), cand], axis=-1)
    s = np.concatenate([np.broadcast_to(alpha * np.sin(ends), (k, ends.size)),
                        alpha * np.sin(cand)], axis=-1)
    power = _kernel_power(v2, beta, s, cfg.n_h)
    # Sector n holds the points in (lo[n], hi[n]], slot n + 1 of its
    # direction's N + 2 (0 below the first sector, N + 1 above the last). A
    # slot keeps its highest P, and of the points there, the first.
    slot = np.searchsorted(np.append(lo[0], hi), points) + (nn + 2) * np.arange(k)[:, None]
    best = np.full(k * (nn + 2), -np.inf)
    np.maximum.at(best, slot, power)
    top = power == best[slot]
    first = np.full(k * (nn + 2), points.shape[-1] - 1)
    np.minimum.at(first, slot[top], np.nonzero(top)[1])
    phi_star = np.take_along_axis(points, first.reshape(k, -1)[:, 1:-1], axis=-1)
    phi_star = phi_star.reshape(elem_db.shape + (nn,))
    p_star = best.reshape(k, -1)[:, 1:-1].reshape(phi_star.shape)
    return phi_star, power_gain_db(elem_db[..., None], p_star), k * cand.shape[-1] + k * nn * 3


def build_beam_gain_table(
    uavs: list[Position3D],
    bss: list[BaseStationSite],
    codebook: BeamCodebook,
    cfg: AntennaConfig,
) -> BeamGainTable:
    """Best scan angle and gain of every (UAV, BS, beam) triplet, in one batch."""
    links = link_geometries(uavs, bss)
    phi_star, gain_db, evals = optimal_scan_angles(
        links["theta"], links["phi"], codebook.sectors, cfg
    )
    return BeamGainTable(phi_star=phi_star, gain_db=gain_db, stage1_evals=evals)


# --------------------------------------------------------------------------
# Stage 2: utility tensor and assignment
# --------------------------------------------------------------------------


def build_utility(
    table: BeamGainTable,
    gains: LinkGainTensor,
    rf: RfConstants,
) -> np.ndarray:
    """Lambda[..., m, l, n] = P * |h[..., m, l]|^2 * 10^(G[m, l, n]/10), watts.

    Leading replication axes of the gains broadcast: stacked (R, M, L) gains
    give an (R, M, L, N) utility, and 10^(G/10) is taken once for all of them.
    """
    mm, ll, nn = table.gain_db.shape
    if (gains.m, gains.l) != (mm, ll):
        raise ValueError(f"beam table is {mm}x{ll} links but gains are {gains.m}x{gains.l}")
    return rf.tx_power_w * gains.power_gains[..., None] * 10.0 ** (table.gain_db / 10.0)


def _assignment(cols: np.ndarray | list[int], nn: int) -> Assignment:
    """UAV m served on flat column cols[m], i.e. BS cols[m] // N, beam cols[m] % N."""
    return Assignment(*np.divmod(cols, nn))


def _check_capacity(mm: int, n_cols: int) -> None:
    if mm > n_cols:
        raise InfeasibleAssignmentError(
            f"{mm} UAVs cannot be assigned to {n_cols} BS-beam pairs"
        )


def solve_assignment(util: np.ndarray) -> Assignment:
    """Maximize total utility over injective UAV -> (BS, beam) mappings.

    The tensor is flattened to M x (L*N) (column j -> BS j // N, beam
    j % N) and solved exactly as a rectangular assignment. scipy would leave
    rows unassigned when M > L*N, so that case is rejected first.
    """
    mm, ll, nn = util.shape
    _check_capacity(mm, ll * nn)
    _, cols = linear_sum_assignment(util.reshape(mm, ll * nn), maximize=True)
    return _assignment(cols, nn)


def fill_scan_angles(assignment: Assignment, table: BeamGainTable) -> Assignment:
    """Attach each UAV's serving scan angle from the beam table."""
    rows = np.arange(assignment.bs.size)
    assignment.phi_scan_chosen = table.phi_star[rows, assignment.bs, assignment.beam]
    return assignment


# --------------------------------------------------------------------------
# Baselines
# --------------------------------------------------------------------------


def allocate_random(mm: int, ll: int, nn: int, seed: int) -> Assignment:
    """Uniformly random injective UAV -> (BS, beam) mapping."""
    _check_capacity(mm, ll * nn)
    rng = np.random.default_rng(np.random.SeedSequence(seed & _SEED_MASK))
    return _assignment(rng.choice(ll * nn, size=mm, replace=False), nn)


def allocate_closest_bs(distance: np.ndarray, util: np.ndarray) -> Assignment:
    """Nearest BS by link distance, best still-free beam by utility.

    `distance` is the (M, L) `distance_3d` of `link_geometries`. UAVs are
    processed in index order. If the nearest BS has no free beam the UAV
    takes the nearest BS that still has one; ties on distance and on utility
    go to the lowest index.
    """
    mm, ll, nn = util.shape
    taken = np.zeros((ll, nn), dtype=bool)
    cols = []
    for m, order in enumerate(np.argsort(distance, axis=1, kind="stable")):
        for l in order:
            free = np.flatnonzero(~taken[l])
            if free.size:
                n = int(free[np.argmax(util[m, l, free])])
                break
        else:
            raise InfeasibleAssignmentError(
                f"no free beam left for UAV {m}: {mm} UAVs on {ll * nn} BS-beam pairs"
            )
        taken[l, n] = True
        cols.append(l * nn + n)
    return _assignment(cols, nn)
