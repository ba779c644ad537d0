"""Slow reference methods the tests check the batched run path against.

`optimize_scan_angle` is the paper's per-triplet stage-1 optimizer: dual
annealing (generalized simulated annealing with a heavy-tailed visiting
distribution, Brent refinement of each new incumbent) inside one beam's
sector. `allocator.optimal_scan_angles` must never fall below it.

`interference_at` sums the interference one UAV hears term by term with the
scalar `total_gain`; `evaluator.sinr_matrix` must match it. `pairwise_sinr`
is the earlier `sinr_matrix`, which folds every (victim, interferer)
direction instead of every (UAV, BS) one; the two must agree to rounding.
`db_round_trip_sinr` is `sinr_matrix` as it priced each pair before it
stayed on the linear scale: the total gain in dB, then 10^(G/10); the two
must agree to 1e-14 of an SINR at thermal noise.

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

`all_points_scan_angles` is stage 1 as it binned before it binned only its
candidates: one searchsorted over every sector end and every candidate, then
`maximum.at` and `minimum.at` over all of them. `unfolded_scan_angles` is
stage 1 as it took its inputs before it solved from the `scan_coefficients`
fold: its own `element_gain`, `vertical_weight` and beta.
`allocator.optimal_scan_angles` must match both bit for bit.

`non_finite_paths` is the recursive walk `harness.validate_config` made over
the config echo before it walked the echo's two fixed levels; the messages
and their order must stay the same.

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

from corridorsim.allocator import Assignment, BeamGainTable, _kernel_power, _lobe_peaks
from corridorsim.antenna import (
    AntennaConfig,
    SteeringDirection,
    element_gain,
    folded_gain_db,
    make_scan_gain,
    power_gain_db,
    scan_alpha,
    scan_coefficients,
    scan_phasors,
    total_gain,
    vertical_weight,
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


def db_round_trip_sinr(
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    fold: tuple[np.ndarray, np.ndarray, float],
    rf: RfConstants,
) -> np.ndarray:
    """`sinr_matrix` taking each M x M interferer gain to dB and back; `fold` as there."""
    elem_db, coeffs, alpha = fold
    mm, ll, n_h = coeffs.shape
    l, n = assignment.bs, assignment.beam
    rows = np.arange(mm)
    h = gains.power_gains
    signal = rf.tx_power_w * h[rows, l] * 10.0 ** (beam_table.gain_db[rows, l, n] / 10.0)

    z = np.zeros((mm, ll, n_h), dtype=complex)
    z[rows, l] = scan_phasors(alpha, beam_table.phi_star[rows, l, n], n_h)
    field = coeffs.reshape(mm, ll * n_h) @ z.reshape(mm, ll * n_h).T
    g_db = power_gain_db(elem_db[:, l], field.real**2 + field.imag**2)
    heard = l[:, None] != l  # every UAV served by another BS
    coupling = np.where(heard, rf.tx_power_w * h[:, l] * 10.0 ** (g_db / 10.0), 0.0)
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


def all_points_scan_angles(
    theta, phi, sectors, cfg: AntennaConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """`allocator.optimal_scan_angles` with every sector end and candidate binned at once.

    Per direction the points are the 2N sector ends (`nextafter(lo, hi)`
    and `hi` of each sector in turn), then every candidate; one searchsorted
    bins all (K, 2N + C) of them. A sector keeps its highest P, and of the
    points there, the first. The sectors must be consecutive; no size is
    checked.
    """
    lo, hi = np.array(sectors, dtype=float).reshape(-1, 2).T
    elem_db = np.asarray(element_gain(theta, phi, cfg))
    beta = 2.0 * math.pi * cfg.d_h * (np.sin(theta) * np.sin(phi))
    v = vertical_weight(theta, cfg)
    v2 = np.broadcast_to(v.real**2 + v.imag**2, beta.shape).reshape(-1, 1)
    beta, alpha = beta.reshape(-1, 1), scan_alpha(cfg)
    k, nn = beta.shape[0], lo.size

    peaks = _lobe_peaks(beta[:, 0], abs(alpha), cfg.n_h)
    branch = np.arcsin(np.clip(peaks / alpha, -1.0, 1.0) if alpha else np.zeros_like(peaks))
    poles = np.broadcast_to([-0.5 * math.pi, 0.5 * math.pi], (k, 2))
    cand = np.concatenate(
        [branch, np.where(branch >= 0.0, math.pi, -math.pi) - branch, poles], axis=-1
    )
    ends = np.stack([np.nextafter(lo, hi), hi], axis=-1).reshape(-1)
    points = np.concatenate([np.broadcast_to(ends, (k, ends.size)), cand], axis=-1)
    s = np.concatenate([np.broadcast_to(alpha * np.sin(ends), (k, ends.size)),
                        alpha * np.sin(cand)], axis=-1)
    power = _kernel_power(v2, beta, s, cfg.n_h)
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


def unfolded_scan_angles(
    theta, phi, sectors, cfg: AntennaConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """`allocator.optimal_scan_angles` with inputs not read off the fold; no size is checked.

    The element gains come from `element_gain`, |v|^2 from `vertical_weight`
    and beta = 2 pi d_h sin(theta) sin(phi); the rest is stage 1's search.
    """
    lo, hi = np.array(sectors, dtype=float).reshape(-1, 2).T
    elem_db = np.asarray(element_gain(theta, phi, cfg))
    beta = 2.0 * math.pi * cfg.d_h * (np.sin(theta) * np.sin(phi))
    v = vertical_weight(theta, cfg)
    v2 = np.broadcast_to(v.real**2 + v.imag**2, beta.shape).reshape(-1, 1)
    beta, alpha = beta.reshape(-1, 1), scan_alpha(cfg)
    k, nn = beta.shape[0], lo.size

    peaks = _lobe_peaks(beta[:, 0], abs(alpha), cfg.n_h)
    branch = np.arcsin(np.clip(peaks / alpha, -1.0, 1.0) if alpha else np.zeros_like(peaks))
    poles = np.broadcast_to([-0.5 * math.pi, 0.5 * math.pi], (k, 2))
    cand = np.concatenate(
        [branch, np.where(branch >= 0.0, math.pi, -math.pi) - branch, poles], axis=-1
    )
    ends = np.stack([np.nextafter(lo, hi), hi], axis=-1)
    s = np.concatenate([np.broadcast_to(alpha * np.sin(ends.reshape(-1)), (k, 2 * nn)),
                        alpha * np.sin(cand)], axis=-1)
    power = _kernel_power(v2, beta, s, cfg.n_h)
    end_power, power = power[:, : 2 * nn].reshape(k, nn, 2), power[:, 2 * nn :]
    upper = end_power[..., 1] > end_power[..., 0]
    end_phi = np.where(upper, hi, ends[:, 0])
    end_p = np.maximum(end_power[..., 0], end_power[..., 1])
    slot = np.searchsorted(np.append(lo[0], hi), cand) + (nn + 2) * np.arange(k)[:, None]
    best = np.full(k * (nn + 2), -np.inf)
    np.maximum.at(best, slot, power)
    top = power == best[slot]
    first = np.full(k * (nn + 2), cand.shape[-1] - 1)
    np.minimum.at(first, slot[top], np.nonzero(top)[1])
    best, first = best.reshape(k, -1)[:, 1:-1], first.reshape(k, -1)[:, 1:-1]
    wins = best > end_p
    phi_star = np.where(wins, np.take_along_axis(cand, first, axis=-1), end_phi)
    phi_star = phi_star.reshape(elem_db.shape + (nn,))
    p_star = np.where(wins, best, end_p).reshape(phi_star.shape)
    return phi_star, power_gain_db(elem_db[..., None], p_star), k * cand.shape[-1] + k * nn * 3


def non_finite_paths(doc, path: str = ""):
    """(dotted path, value) of every NaN or infinite number in a JSON document, at any depth."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from non_finite_paths(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from non_finite_paths(value, f"{path}[{i}]")
    elif isinstance(doc, float) and not math.isfinite(doc):
        yield path, doc
