"""Slow reference methods the tests check the batched run path against.

`optimize_scan_angle` is the paper's per-triplet stage-1 optimizer: dual
annealing (generalized simulated annealing with a heavy-tailed visiting
distribution, Brent refinement of each new incumbent) inside one beam's
sector. `allocator.optimal_scan_angles` must never fall below it.

`interference_at` sums the interference one UAV hears term by term with the
scalar `total_gain`; `evaluator.sinr_matrix` must match it. `pairwise_sinr`
is the earlier `sinr_matrix`, which folds every (victim, interferer)
direction instead of every (UAV, BS) one; the two must agree bit for bit.

None of them runs in a scenario; they live here so that the package carries only
the run path.
"""

from __future__ import annotations

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
    power_divisor: float = 1.0,
) -> float:
    """Aggregate interference power (watts) received by UAV m; `links` is (M, L)."""
    p_eff = rf.tx_power_w / power_divisor
    total = 0.0
    for m_prime, (l_prime, n_prime) in enumerate(zip(assignment.bs, assignment.beam)):
        if m_prime == m or l_prime == assignment.bs[m]:
            continue
        link = links[m, l_prime]
        direction = SteeringDirection(theta=link["theta"], phi=link["phi"])
        g_db = total_gain(direction, beam_table.phi_star[m_prime, l_prime, n_prime], antenna_cfg)
        total += p_eff * gains.power_gains[m, l_prime] * 10.0 ** (g_db / 10.0)
    return total


def pairwise_sinr(
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    links: np.ndarray,
    antenna_cfg: AntennaConfig,
    rf: RfConstants,
    power_divisor: float = 1.0,
) -> np.ndarray:
    """Linear SINR of every UAV, shape (M,), folding all M x M directions."""
    mm = gains.power_gains.shape[0]
    l, n = assignment.bs, assignment.beam
    rows = np.arange(mm)
    p_eff = rf.tx_power_w / power_divisor
    h = gains.power_gains
    signal = p_eff * h[rows, l] * 10.0 ** (beam_table.gain_db[rows, l, n] / 10.0)

    toward = links[:, l]  # (victim, interferer)
    folded = scan_coefficients(toward["theta"], toward["phi"], antenna_cfg)
    g_db = folded_gain_db(*folded, beam_table.phi_star[rows, l, n], antenna_cfg)
    heard = l[:, None] != l  # every UAV served by another BS
    coupling = np.where(heard, p_eff * h[:, l] * 10.0 ** (g_db / 10.0), 0.0)
    # A BLAS matrix-vector product, not .sum(axis=1): it keeps every SINR
    # bit-identical to the results.json files already written, and numpy's
    # pairwise row sum does not.
    interference = coupling @ np.ones(mm)
    return signal / (interference + rf.noise_power_w)
