"""Slow reference methods the tests check the batched run path against.

`optimize_scan_angle` is the paper's per-triplet stage-1 optimizer: dual
annealing (generalized simulated annealing with a heavy-tailed visiting
distribution, Brent refinement of each new incumbent) inside one beam's
sector. `allocator.optimal_scan_angles` must never fall below it.

`interference_at` sums the interference one UAV hears term by term with the
scalar `total_gain`; `evaluator.sinr_matrix` must match it. `pairwise_sinr`
is the earlier `sinr_matrix`, which folds every (victim, interferer)
direction instead of every (UAV, BS) one; the two must agree bit for bit.

`array_power` is the array power |sum_k c_k z^k|^2 as a trig polynomial in
s, summed by Horner's rule over the coefficient autocorrelation, as stage 1
evaluated it before it took P from the Dirichlet kernel. `grid_newton_peaks`
and `golden_section_peaks` are the two earlier peak searches of stage 1,
on `array_power`. Both cut the reach of s into cells that hold at most one
local maximum of the array power P(s) and refine every cell: by a sub-grid
and Newton steps on P'(s) = 0, or by golden-section search to 1e-9 in s.
Stage 1 now takes the peaks in closed form, from the lobes of the Dirichlet
kernel (`allocator._lobe_peaks`); every peak the grid-and-Newton search
finds inside a cell must have a closed-form peak next to it in s whose P is
no lower, to 1e-12 of the largest P.

None of them runs in a scenario; they live here so that the package carries only
the run path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

from corridorsim.allocator import Assignment, BeamGainTable
from corridorsim.antenna import (
    AntennaConfig,
    SteeringDirection,
    folded_gain_db,
    make_scan_gain,
    scan_coefficients,
    total_gain,
)
from corridorsim.channel import _SEED_MASK, LinkGainTensor, RfConstants
from corridorsim.errors import ConfigurationError

# Generalized-annealing acceptance shape; more negative = greedier.
_ACCEPTANCE_PARAM = -5.0
_TAIL_LIMIT = 1e8
# golden_section_peaks refines each peak of the array power to this width in s.
_SCAN_XTOL = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# grid_newton_peaks seeds each peak from this many sub-grid steps per cell,
# then polishes it with this many Newton steps.
_SUBGRID = 8
_NEWTON_STEPS = 4


@dataclass(frozen=True)
class AnnealerConfig:
    """Iteration budget and schedule of the reference dual-annealing optimizer."""

    t_global: int = 200  # annealing proposals
    t_local: int = 50  # max iterations per local refinement
    initial_temperature: float = 5230.0
    visiting_param: float = 2.62  # heavy-tail shape, in (1, 3)
    restart_stall: int = 20  # proposals without improvement before restart
    seed: int = 0


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


def interference_at(
    m: int,
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    links: np.ndarray,
    antenna_cfg: AntennaConfig,
    rf: RfConstants,
) -> float:
    """Aggregate interference power (watts) received by UAV m; `links` is (M, L)."""
    total = 0.0
    for m_prime, (l_prime, n_prime) in enumerate(zip(assignment.bs, assignment.beam)):
        if m_prime == m or l_prime == assignment.bs[m]:
            continue
        link = links[m, l_prime]
        direction = SteeringDirection(theta=link["theta"], phi=link["phi"])
        g_db = total_gain(direction, beam_table.phi_star[m_prime, l_prime, n_prime], antenna_cfg)
        total += rf.tx_power_w * gains.power_gains[m, l_prime] * 10.0 ** (g_db / 10.0)
    return total


def pairwise_sinr(
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    links: np.ndarray,
    antenna_cfg: AntennaConfig,
    rf: RfConstants,
) -> np.ndarray:
    """Linear SINR of every UAV, shape (M,), folding all M x M directions."""
    mm = gains.power_gains.shape[0]
    l, n = assignment.bs, assignment.beam
    rows = np.arange(mm)
    h = gains.power_gains
    signal = rf.tx_power_w * h[rows, l] * 10.0 ** (beam_table.gain_db[rows, l, n] / 10.0)

    toward = links[:, l]  # (victim, interferer)
    folded = scan_coefficients(toward["theta"], toward["phi"], antenna_cfg)
    g_db = folded_gain_db(*folded, beam_table.phi_star[rows, l, n], antenna_cfg)
    heard = l[:, None] != l  # every UAV served by another BS
    coupling = np.where(heard, rf.tx_power_w * h[:, l] * 10.0 ** (g_db / 10.0), 0.0)
    # A BLAS matrix-vector product, not .sum(axis=1): it keeps every SINR
    # bit-identical to the results.json files already written, and numpy's
    # pairwise row sum does not.
    interference = coupling @ np.ones(mm)
    return signal / (interference + rf.noise_power_w)


def array_power(autocorr: np.ndarray, z) -> np.ndarray:
    """|sum_k c_k z^k|^2 at unit phasors z = exp(1j * s), in real form.

    The power is the trig polynomial P(s) = r_0 + 2*Re sum_{d>=1} r_d z^d of
    degree n_h - 1, where r_d = sum_k c_{k+d} conj(c_k) is the coefficient
    autocorrelation, shape (..., n_h); the sum is taken by Horner's rule, so
    no harmonic axis is ever materialized. `z` broadcasts against
    autocorr[..., 0].
    """
    acc = np.zeros(np.broadcast_shapes(np.shape(z), autocorr.shape[:-1]), dtype=complex)
    for d in range(autocorr.shape[-1] - 1, 0, -1):
        acc += autocorr[..., d]
        acc *= z
    return autocorr[..., 0].real + 2.0 * acc.real


def scan_power(autocorr: np.ndarray, alpha: float, phi_scan) -> np.ndarray:
    """The array power P(alpha * sin(phi_scan)) of `array_power`."""
    return array_power(autocorr, np.exp(1j * alpha * np.sin(phi_scan)))


def grid_newton_peaks(autocorr: np.ndarray, reach: float, degree: int) -> tuple[np.ndarray, int]:
    """Every local maximum of P(s) by grid-seeded Newton steps, stage 1's earlier way.

    `autocorr` has shape (K, 1, n_h). The range is cut into cells at most
    pi / (2 * degree) wide, a quarter period of the highest harmonic: the
    array factor of a uniform array has one maximum between consecutive
    nulls, 2 pi / n_h apart in s, so a cell holds at most one. Each cell
    starts from the best of `_SUBGRID` + 1 evenly spaced points, then takes
    `_NEWTON_STEPS` Newton steps on P'(s) = 0, each only where P''(s) < 0
    and clipped to the cell; P' and P'' are `array_power` of the
    autocorrelation r_d scaled by i*d and -d^2. A cell keeps the Newton
    point only if P there is at least the grid best. Returns the refined s,
    shape (K, cells), and the evaluations per direction.
    """
    cells = max(1, math.ceil(4.0 * reach * degree / math.pi))
    width = 2.0 * reach / cells
    lower = -reach + width * np.arange(cells)
    upper = lower + width
    grid = lower[:, None] + (width / _SUBGRID) * np.arange(_SUBGRID + 1)
    grid_power = array_power(autocorr[..., None, :], np.exp(1j * grid))  # (K, cells, g+1)
    best = grid_power.argmax(axis=-1)
    seed = grid[np.arange(cells), best]
    seed_power = grid_power.max(axis=-1)

    lags = np.arange(autocorr.shape[-1])
    slope, curvature = autocorr * (1j * lags), autocorr * -(lags**2.0)
    s = seed
    for _ in range(_NEWTON_STEPS):
        z = np.exp(1j * s)
        first, second = array_power(slope, z), array_power(curvature, z)
        step = np.divide(first, -second, out=np.zeros_like(first), where=second < 0.0)
        s = np.clip(s + step, lower, upper)
    peaks = np.where(array_power(autocorr, np.exp(1j * s)) >= seed_power, s, seed)
    return peaks, cells * (_SUBGRID + 2 + 2 * _NEWTON_STEPS)


def golden_section_peaks(
    autocorr: np.ndarray, reach: float, degree: int
) -> tuple[np.ndarray, int]:
    """Every local maximum of P(s) by golden-section search, stage 1's earlier way.

    `autocorr` has shape (K, 1, n_h). The range is cut into cells at most
    pi / (2 * degree) wide, a quarter period of the highest harmonic: the
    array factor of a uniform array has one maximum between consecutive
    nulls, 2 pi / n_h apart in s, so a cell holds at most one. Golden-section
    search refines every cell to `_SCAN_XTOL`. The phasor of a bracket's
    lower end turns by one of two fixed angles per step, so the loop takes
    no trig. Returns the refined s, shape (K, cells), and the evaluations
    per direction.
    """
    cells = max(1, math.ceil(4.0 * reach * degree / math.pi))
    width = 2.0 * reach / cells
    steps = 0
    if width > _SCAN_XTOL:
        steps = math.ceil(math.log(_SCAN_XTOL / width) / math.log(_INV_PHI))
    lower = -reach + width * np.arange(cells)
    f1 = array_power(autocorr, np.exp(1j * (lower + (1.0 - _INV_PHI) * width)))
    f2 = array_power(autocorr, np.exp(1j * (lower + _INV_PHI * width)))
    a = np.broadcast_to(lower, f1.shape).copy()
    z = np.broadcast_to(np.exp(1j * lower), f1.shape).copy()
    right = f1 < f2  # the maximum lies in [x1, b], else in [a, x2]
    kept = np.maximum(f1, f2)  # P at the interior point the next bracket keeps
    for _ in range(steps):
        shift = (1.0 - _INV_PHI) * width
        np.add(a, shift, out=a, where=right)
        np.multiply(z, cmath.exp(1j * shift), out=z, where=right)
        width *= _INV_PHI
        # After a move right the new point is x2 of the new bracket, else x1.
        turn = np.where(
            right, cmath.exp(1j * _INV_PHI * width), cmath.exp(1j * (1.0 - _INV_PHI) * width)
        )
        f_new = array_power(autocorr, z * turn)
        right = np.where(right, kept < f_new, f_new < kept)
        np.maximum(kept, f_new, out=kept)
    return a + 0.5 * width, cells * (2 + steps)
