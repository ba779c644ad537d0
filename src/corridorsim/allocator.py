"""Two-stage UAV-BS-beam association plus the baseline allocators.

Stage 1 tunes the horizontal scan angle of every (UAV, BS, beam) triplet.
Each beam owns one of N equal azimuth sectors of (-pi, pi], and its scan
angle is optimized inside that sector, so the N beams of a BS stay distinct
and beam exclusivity is meaningful. `build_beam_gain_table` solves all
triplets in one deterministic numpy pass: the array power of a link is a
real trig polynomial in sin(phi_scan), maximized per sector by a grid whose
density follows from the array geometry plus vectorized golden-section
refinement. `optimize_scan_angle` keeps the paper's per-triplet dual
annealing (generalized simulated annealing with a heavy-tailed visiting
distribution, Brent refinement of each new incumbent) as the reference
method the tests compare against.

Stage 2 turns the optimized gains and the channel gains into a utility
tensor Lambda[m, l, n] = P * |h|^2 * 10^(G/10), flattens it to an
M x (L*N) matrix (column j -> BS j // N, beam j % N), and solves the
resulting linear sum assignment exactly with a Hungarian solver.

Baselines: uniformly random injective assignment, and nearest-BS with the
best remaining beam. All allocators are deterministic given their seeds and
tie-break lowest-index-first.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

from .antenna import AntennaConfig, SteeringDirection, make_scan_gain, scan_coefficients
from .channel import LinkGainTensor, RfConstants
from .errors import ConfigurationError, InfeasibleAssignmentError
from .geometry import BaseStationSite, Position3D, link_geometries

_SEED_MASK = (1 << 64) - 1

# Generalized-annealing acceptance shape; more negative = greedier.
_ACCEPTANCE_PARAM = -5.0
_TAIL_LIMIT = 1e8

# Batched stage 1 refines each scan bracket down to this width (radians).
_SCAN_XTOL = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BeamCodebook:
    """N beams per BS, beam n owning the n-th azimuth sector of (-pi, pi]."""

    n_beams: int
    sectors: tuple[tuple[float, float], ...]  # (lo, hi], ordered, covering (-pi, pi]
    tilt: float  # shared vertical tilt, radians

    @classmethod
    def uniform(cls, n_beams: int, tilt: float) -> "BeamCodebook":
        if n_beams < 1:
            raise ConfigurationError(f"codebook needs >= 1 beam, got {n_beams}")
        width = 2.0 * math.pi / n_beams
        sectors = tuple(
            (-math.pi + n * width, -math.pi + (n + 1) * width) for n in range(n_beams)
        )
        return cls(n_beams=n_beams, sectors=sectors, tilt=tilt)


@dataclass(frozen=True)
class AnnealerConfig:
    """Iteration budget and schedule of the reference dual-annealing optimizer."""

    t_global: int = 200  # annealing proposals
    t_local: int = 50  # max iterations per local refinement
    initial_temperature: float = 5230.0
    visiting_param: float = 2.62  # heavy-tail shape, in (1, 3)
    restart_stall: int = 20  # proposals without improvement before restart
    seed: int = 0


@dataclass
class BeamGainTable:
    """Stage-1 output: optimal scan angle and gain per (UAV, BS, beam)."""

    phi_star: np.ndarray  # (M, L, N) radians
    gain_db: np.ndarray  # (M, L, N)
    stage1_evals: int  # scan points evaluated


@dataclass
class UtilityTensor:
    """Effective received power Lambda[m, l, n], linear watts."""

    values: np.ndarray  # (M, L, N), >= 0 and finite


@dataclass
class Assignment:
    """Binary association matrices; rows are UAVs.

    beta[m, l] = 1 iff UAV m is served by BS l; x[m, l, n] = 1 iff it uses
    beam n there. phi_scan_chosen is the per-UAV serving scan angle when the
    allocator had a beam table available.
    """

    beta: np.ndarray  # (M, L) int8
    x: np.ndarray  # (M, L, N) int8
    phi_scan_chosen: np.ndarray | None = None  # (M,) radians


# --------------------------------------------------------------------------
# Stage 1: scan-angle optimization
# --------------------------------------------------------------------------


class _TsallisVisitor:
    """Heavy-tailed step generator of generalized simulated annealing."""

    def __init__(self, visiting_param: float):
        if not 1.0 < visiting_param < 3.0:
            raise ConfigurationError(
                f"visiting_param must lie in (1, 3), got {visiting_param}"
            )
        qv = visiting_param
        self._qv = qv
        factor2 = math.exp((4.0 - qv) * math.log(qv - 1.0))
        factor3 = math.exp((2.0 - qv) * math.log(2.0) / (qv - 1.0))
        self._factor4p = math.sqrt(math.pi) * factor2 / (factor3 * (3.0 - qv))
        factor5 = 1.0 / (qv - 1.0) - 0.5
        d1 = 2.0 - factor5
        self._factor6 = (
            math.pi
            * (1.0 - factor5)
            / math.sin(math.pi * (1.0 - factor5))
            / math.exp(gammaln(d1))
        )

    def step(self, temperature: float, rng: np.random.Generator) -> float:
        x, y = rng.standard_normal(2)
        factor1 = math.exp(math.log(temperature) / (self._qv - 1.0))
        factor4 = self._factor4p * factor1
        x *= math.exp(
            -(self._qv - 1.0) * math.log(self._factor6 / factor4) / (3.0 - self._qv)
        )
        den = math.exp((self._qv - 1.0) * math.log(abs(y)) / (3.0 - self._qv))
        visit = x / den
        if visit > _TAIL_LIMIT:
            return _TAIL_LIMIT * rng.uniform()
        if visit < -_TAIL_LIMIT:
            return -_TAIL_LIMIT * rng.uniform()
        return visit


def _fold_into(x: float, lo: float, hi: float) -> float:
    """Wrap x into [lo, hi) modulo the interval length."""
    span = hi - lo
    a = math.fmod(x - lo, span) + span
    return math.fmod(a, span) + lo


def optimize_scan_angle(
    direction: SteeringDirection,
    sector: tuple[float, float],
    cfg: AntennaConfig,
    ann: AnnealerConfig,
    rng: np.random.Generator | None = None,
) -> tuple[float, float, int]:
    """Maximize the total gain toward `direction` over scan angles in `sector`.

    Returns (phi_star, gain_db, objective_evaluations). Random start inside
    the sector, `t_global` annealing proposals with probabilistic uphill
    acceptance under the generalized-annealing temperature schedule, Brent
    refinement around every new incumbent, and a uniform restart after
    `restart_stall` proposals without improvement.
    """
    lo, hi = sector
    if hi < lo:
        raise ConfigurationError(f"empty scan sector ({lo}, {hi}]")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(ann.seed & _SEED_MASK))
    gain_fn = make_scan_gain(direction, cfg)
    evals = 0

    def objective(scan: float) -> float:
        nonlocal evals
        evals += 1
        return -gain_fn(scan)

    width = hi - lo
    if width <= 1e-12:
        mid = 0.5 * (lo + hi)
        return mid, -objective(mid), evals

    x_cur = rng.uniform(lo, hi)
    e_cur = objective(x_cur)
    x_best, e_best = x_cur, e_cur

    visitor = _TsallisVisitor(ann.visiting_param)
    qv = ann.visiting_param
    qa = _ACCEPTANCE_PARAM
    t1 = math.exp((qv - 1.0) * math.log(2.0)) - 1.0
    stall = 0
    e_refined = math.inf  # incumbent value at the last local refinement

    def refine(x0: float, e0: float) -> tuple[float, float]:
        bracket = (max(lo, x0 - width / 8.0), min(hi, x0 + width / 8.0))
        res = minimize_scalar(
            objective,
            bounds=bracket,
            method="bounded",
            options={"xatol": 1e-8, "maxiter": ann.t_local},
        )
        if res.fun < e0:
            return float(res.x), float(res.fun)
        return x0, e0

    for i in range(ann.t_global):
        temperature = ann.initial_temperature * t1 / (
            math.exp((qv - 1.0) * math.log(i + 2.0)) - 1.0
        )
        t_step = temperature / (i + 1.0)
        x_new = _fold_into(x_cur + visitor.step(temperature, rng), lo, hi)
        e_new = objective(x_new)
        if e_new < e_cur:
            x_cur, e_cur = x_new, e_new
        else:
            pqv = 1.0 - (1.0 - qa) * (e_new - e_cur) / t_step
            if pqv > 0.0 and rng.uniform() <= math.exp(math.log(pqv) / (1.0 - qa)):
                x_cur, e_cur = x_new, e_new
        if e_cur < e_best:
            x_best, e_best = x_cur, e_cur
            stall = 0
            # Refine only on meaningful moves (> 0.01 dB) to bound the budget.
            if e_refined - e_best > 0.01:
                x_best, e_best = refine(x_best, e_best)
                e_refined = e_best
                x_cur, e_cur = x_best, e_best
        else:
            stall += 1
            if stall >= ann.restart_stall:
                x_cur = rng.uniform(lo, hi)
                e_cur = objective(x_cur)
                stall = 0

    x_best, e_best = refine(x_best, e_best)
    if x_best <= lo:  # keep the result inside the half-open sector
        x_best = math.nextafter(lo, hi)
        e_best = objective(x_best)
    return x_best, -e_best, evals


def _scan_power(autocorr: np.ndarray, alpha: float, phi_scan: np.ndarray) -> np.ndarray:
    """|sum_k c_k z^k|^2 at z = exp(1j * alpha * sin(phi_scan)), in real form.

    The power is the trig polynomial r_0 + 2*Re sum_{d>=1} r_d z^d of degree
    n_h - 1 in s = alpha * sin(phi_scan), where r_d = sum_k c_{k+d} conj(c_k)
    is the coefficient autocorrelation, shape (..., n_h); the sum is taken
    by Horner's rule, so no harmonic axis is ever materialized. `phi_scan`
    broadcasts against autocorr[..., 0].
    """
    z = np.exp(1j * alpha * np.sin(phi_scan))
    acc = np.zeros_like(z)
    for d in range(autocorr.shape[-1] - 1, 0, -1):
        acc = (acc + autocorr[..., d]) * z
    return autocorr[..., 0].real + 2.0 * np.real(acc)


def optimal_scan_angles(
    theta, phi, sectors, cfg: AntennaConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """Best scan angle and total gain of every (direction, sector) pair at once.

    `theta` and `phi` broadcast to the directions' shape S and `sectors`
    lists N half-open intervals (lo, hi]. Returns (phi_star, gain_db,
    scan points evaluated), the arrays of shape S + (N,), every phi_star
    inside its sector.

    Each direction folds into its element gain and n_h scan coefficients
    (`scan_coefficients`), which make the array power a real trig
    polynomial of degree D = n_h - 1 in s = alpha * sin(phi_scan). Every
    sector is cut into cells that span at most pi / (2 D) in s, a quarter
    period of the highest harmonic; the array factor of a uniform array has
    one maximum between consecutive nulls, 2 pi / n_h apart in s, so a cell
    holds at most one local maximum. Golden-section search refines every
    cell to `_SCAN_XTOL` radians, and the best grid or refined point wins.
    The evaluation count is a fixed multiple of the number of pairs.
    """
    lo, hi = np.array(sectors, dtype=float).reshape(-1, 2).T
    if lo.size == 0 or np.any(~(hi > lo)):
        raise ConfigurationError(f"scan sectors must be non-empty (lo, hi], got {sectors}")
    elem_db, coeffs, alpha = scan_coefficients(theta, phi, cfg)
    shape = elem_db.shape + (lo.size,)
    autocorr = np.stack(
        [(coeffs[..., d:] * coeffs[..., : cfg.n_h - d].conj()).sum(axis=-1)
         for d in range(cfg.n_h)],
        axis=-1,
    )[..., None, None, :]  # S + (1, 1, n_h)

    width = float(np.max(hi - lo))
    cells = max(1, math.ceil(abs(alpha) * width * 2.0 * (cfg.n_h - 1) / math.pi))
    steps = max(0, math.ceil(math.log(_SCAN_XTOL * cells / width) / math.log(_INV_PHI)))
    grid = np.linspace(np.nextafter(lo, hi), hi, cells + 1, axis=-1)  # (N, cells + 1)
    grid_power = _scan_power(autocorr, alpha, grid)

    a = np.broadcast_to(grid[:, :-1], shape + (cells,))
    b = np.broadcast_to(grid[:, 1:], shape + (cells,))
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1 = _scan_power(autocorr, alpha, x1)
    f2 = _scan_power(autocorr, alpha, x2)
    for _ in range(steps):
        left = f1 >= f2  # a maximum lies in [a, x2]
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        x_kept = np.where(left, x1, x2)
        f_kept = np.where(left, f1, f2)
        x_new = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        f_new = _scan_power(autocorr, alpha, x_new)
        x1, f1 = np.where(left, x_new, x_kept), np.where(left, f_new, f_kept)
        x2, f2 = np.where(left, x_kept, x_new), np.where(left, f_kept, f_new)

    points = np.concatenate([np.broadcast_to(grid, grid_power.shape), x1, x2], axis=-1)
    power = np.concatenate([grid_power, f1, f2], axis=-1)
    best = np.argmax(power, axis=-1)[..., None]
    phi_star = np.take_along_axis(points, best, axis=-1)[..., 0]

    # The winner's gain comes from the coefficient sum itself, which keeps
    # the precision of total_gain() near nulls of the array factor.
    z = np.exp(1j * alpha * np.sin(phi_star)[..., None] * np.arange(cfg.n_h))
    field = (coeffs[..., None, :] * z).sum(axis=-1)
    floor = 10.0 ** (cfg.gain_floor_db / 10.0)
    gain_db = elem_db[..., None] + 10.0 * np.log10(
        np.maximum(field.real**2 + field.imag**2, floor)
    )
    evals_per_pair = (cells + 1) + cells * (2 + steps) + 1
    return phi_star, gain_db, math.prod(shape) * evals_per_pair


def build_beam_gain_table(
    uavs: list[Position3D],
    bss: list[BaseStationSite],
    codebook: BeamCodebook,
    cfg: AntennaConfig,
) -> BeamGainTable:
    """Best scan angle and gain of every (UAV, BS, beam) triplet, in one batch."""
    geoms = link_geometries(uavs, bss)
    shape = (len(uavs), len(bss))
    theta = np.array([[g.theta for g in row] for row in geoms]).reshape(shape)
    phi = np.array([[g.phi for g in row] for row in geoms]).reshape(shape)
    phi_star, gain_db, evals = optimal_scan_angles(theta, phi, codebook.sectors, cfg)
    return BeamGainTable(phi_star=phi_star, gain_db=gain_db, stage1_evals=evals)


# --------------------------------------------------------------------------
# Stage 2: utility tensor and assignment
# --------------------------------------------------------------------------


def build_utility(
    table: BeamGainTable,
    gains: LinkGainTensor,
    rf: RfConstants,
    power_divisor: float = 1.0,
) -> UtilityTensor:
    """Lambda[m, l, n] = (P / power_divisor) * |h[m, l]|^2 * 10^(G[m, l, n]/10)."""
    mm, ll, nn = table.gain_db.shape
    if gains.power_gains.shape != (mm, ll):
        raise ValueError(
            f"beam table is {mm}x{ll} links but gains are "
            f"{gains.power_gains.shape[0]}x{gains.power_gains.shape[1]}"
        )
    p_eff = rf.tx_power_w / power_divisor
    values = p_eff * gains.power_gains[:, :, None] * 10.0 ** (table.gain_db / 10.0)
    return UtilityTensor(values=values)


def _hungarian_square(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost perfect matching on a square matrix.

    Shortest-augmenting-path formulation with row/column potentials, O(n^3).
    Returns the matched column of each row. Ties resolve to the lowest
    column index scanned first, so the result is deterministic.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)  # p[j]: row matched to column j (1-based, 0 = free)
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            free_idx = np.flatnonzero(free)
            k = free_idx[np.argmin(minv[1:][free])]
            j1 = k + 1
            delta = minv[j1]
            used_idx = np.flatnonzero(used)
            u[p[used_idx]] += delta
            v[used_idx] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    cols = np.empty(n, dtype=int)
    cols[p[1:] - 1] = np.arange(n)
    return cols


def solve_assignment(util: UtilityTensor) -> Assignment:
    """Maximize total utility over injective UAV -> (BS, beam) mappings.

    The tensor is flattened to M x (L*N) (column j -> BS j // N, beam
    j % N), negated, padded to square with a sentinel larger than any entry,
    and solved exactly; padding rows are dropped from the result.
    """
    mm, ll, nn = util.values.shape
    n_cols = ll * nn
    if mm > n_cols:
        raise InfeasibleAssignmentError(
            f"{mm} UAVs cannot be assigned to {n_cols} BS-beam pairs"
        )
    flat = util.values.reshape(mm, n_cols)
    cost = -flat
    sentinel = float(np.max(np.abs(cost))) + 1.0 if cost.size else 1.0
    square = np.full((n_cols, n_cols), sentinel)
    square[:mm, :] = cost
    cols = _hungarian_square(square)[:mm]
    beta = np.zeros((mm, ll), dtype=np.int8)
    x = np.zeros((mm, ll, nn), dtype=np.int8)
    for m, j in enumerate(cols):
        l, n = divmod(int(j), nn)
        beta[m, l] = 1
        x[m, l, n] = 1
    return Assignment(beta=beta, x=x)


def fill_scan_angles(assignment: Assignment, table: BeamGainTable) -> Assignment:
    """Attach each UAV's serving scan angle from the beam table."""
    mm = assignment.beta.shape[0]
    phi = np.empty(mm, dtype=float)
    for m in range(mm):
        l, n = serving_beam(assignment, m)
        phi[m] = table.phi_star[m, l, n]
    assignment.phi_scan_chosen = phi
    return assignment


def serving_beam(assignment: Assignment, m: int) -> tuple[int, int]:
    """(BS, beam) serving UAV m."""
    flat = np.flatnonzero(assignment.x[m].reshape(-1))
    if flat.size != 1:
        raise ValueError(f"UAV {m} has {flat.size} serving beams, expected exactly 1")
    return divmod(int(flat[0]), assignment.x.shape[2])


# --------------------------------------------------------------------------
# Full pipelines and baselines
# --------------------------------------------------------------------------


def allocate_two_stage(
    uavs: list[Position3D],
    bss: list[BaseStationSite],
    codebook: BeamCodebook,
    antenna_cfg: AntennaConfig,
    gains: LinkGainTensor,
    rf: RfConstants,
    power_divisor: float = 1.0,
    table: BeamGainTable | None = None,
) -> tuple[Assignment, BeamGainTable, dict]:
    """Stage 1 + stage 2; pass `table` to reuse a precomputed stage-1 result."""
    timings = {}
    t0 = time.perf_counter()
    if table is None:
        table = build_beam_gain_table(uavs, bss, codebook, antenna_cfg)
    timings["stage1_seconds"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    util = build_utility(table, gains, rf, power_divisor)
    assignment = fill_scan_angles(solve_assignment(util), table)
    timings["stage2_seconds"] = time.perf_counter() - t0
    return assignment, table, timings


def allocate_random(mm: int, ll: int, nn: int, seed: int) -> Assignment:
    """Uniformly random injective UAV -> (BS, beam) mapping."""
    if mm > ll * nn:
        raise InfeasibleAssignmentError(
            f"{mm} UAVs cannot be assigned to {ll * nn} BS-beam pairs"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed & _SEED_MASK))
    cols = rng.choice(ll * nn, size=mm, replace=False)
    beta = np.zeros((mm, ll), dtype=np.int8)
    x = np.zeros((mm, ll, nn), dtype=np.int8)
    for m, j in enumerate(cols):
        l, n = divmod(int(j), nn)
        beta[m, l] = 1
        x[m, l, n] = 1
    return Assignment(beta=beta, x=x)


def allocate_closest_bs(
    uavs: list[Position3D],
    bss: list[BaseStationSite],
    util: UtilityTensor,
) -> Assignment:
    """Nearest BS by Euclidean distance, best still-free beam by utility.

    UAVs are processed in index order. If the nearest BS has no free beam
    the UAV takes the nearest BS that still has one; ties on distance and on
    utility go to the lowest index.
    """
    mm, ll, nn = util.values.shape
    beta = np.zeros((mm, ll), dtype=np.int8)
    x = np.zeros((mm, ll, nn), dtype=np.int8)
    taken = np.zeros((ll, nn), dtype=bool)
    for m, uav in enumerate(uavs):
        dists = [
            math.dist(
                (uav.x, uav.y, uav.z), (bs.position.x, bs.position.y, bs.position.z)
            )
            for bs in bss
        ]
        order = sorted(range(ll), key=lambda l: (dists[l], l))
        chosen = None
        for l in order:
            free = np.flatnonzero(~taken[l])
            if free.size:
                n = int(free[np.argmax(util.values[m, l, free])])
                chosen = (l, n)
                break
        if chosen is None:
            raise InfeasibleAssignmentError(
                f"no free beam left for UAV {m}: {mm} UAVs on {ll * nn} BS-beam pairs"
            )
        l, n = chosen
        taken[l, n] = True
        beta[m, l] = 1
        x[m, l, n] = 1
    return Assignment(beta=beta, x=x)
