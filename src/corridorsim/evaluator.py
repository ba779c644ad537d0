"""Interference, SINR, and Shannon-rate scoring of an assignment.

The same scoring path serves the optimized allocator and every baseline:
the serving term of UAV m is P * |h[m,l]|^2 * 10^(G/10) with G taken from
the stage-1 table at the serving (m, l, n); interference comes from every
other BS l' whose scheduled UAVs m' beam toward their own targets, with the
gain evaluated at the victim's angles toward l' but at the interferer's
chosen scan angle. Rates are Shannon capacity over `bandwidth_hz` per
scheduled resource block.

`sinr_matrix` scores every UAV on every RRB in one numpy pass; `sinr` and
`throughput` are views on it. The scalar `interference_at` loop is the
reference the tests check the matrix against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .allocator import Assignment, BeamGainTable, serving_beam, serving_beams
from .antenna import (
    AntennaConfig,
    SteeringDirection,
    folded_gain_db,
    scan_coefficients,
    total_gain,
)
from .channel import LinkGainTensor, RfConstants
from .geometry import LinkGeometry, link_angles


@dataclass
class EvaluationConfig:
    """Resource-block schedule and the interference-term conventions.

    `rrb_schedule` is a binary (M, L, R) indicator of which RRBs a UAV is
    scheduled on at a BS; None means all-ones. `beta_reading` selects whose
    association gates an interference term: the interfering UAV's
    ("interferer", default) or the victim's ("victim", which zeroes the sum
    because a UAV is associated with exactly one BS). `power_divisor`
    divides the per-BS transmit power, e.g. by N when power is split across
    beams.
    """

    num_rrbs: int = 1
    rrb_schedule: np.ndarray | None = None
    beta_reading: str = "interferer"
    power_divisor: float = 1.0


@dataclass
class ThroughputReport:
    """Per-UAV SINR/rate and aggregates for one scored assignment."""

    per_uav_sinr: np.ndarray  # linear, first RRB
    per_uav_rate_bps: np.ndarray
    total_rate_bps: float
    mean_rate_bps: float
    seed: int
    config_digest: str
    timings: dict = field(default_factory=dict)

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "per_uav_sinr": [float(s) for s in self.per_uav_sinr],
            "per_uav_rate_bps": [float(r) for r in self.per_uav_rate_bps],
            "total_rate_bps": float(self.total_rate_bps),
            "mean_rate_bps": float(self.mean_rate_bps),
            "seed": int(self.seed),
            "config_digest": self.config_digest,
        }
        if include_timings:
            out["timings"] = dict(self.timings)
        return out


def _schedule(eval_cfg: EvaluationConfig, mm: int, ll: int) -> np.ndarray:
    if eval_cfg.rrb_schedule is None:
        return np.ones((mm, ll, eval_cfg.num_rrbs), dtype=np.int8)
    schedule = np.asarray(eval_cfg.rrb_schedule)
    if schedule.shape != (mm, ll, eval_cfg.num_rrbs):
        raise ValueError(
            f"rrb_schedule has shape {schedule.shape}, expected {(mm, ll, eval_cfg.num_rrbs)}"
        )
    return schedule


def interference_at(
    m: int,
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    geometries: list[list[LinkGeometry]],
    antenna_cfg: AntennaConfig,
    rf: RfConstants,
    eval_cfg: EvaluationConfig | None = None,
    rrb: int = 0,
) -> float:
    """Aggregate interference power (watts) received by UAV m on one RRB."""
    eval_cfg = eval_cfg or EvaluationConfig()
    mm, ll = gains.power_gains.shape
    alpha = _schedule(eval_cfg, mm, ll)
    serving_l, _ = serving_beam(assignment, m)
    p_eff = rf.tx_power_w / eval_cfg.power_divisor
    total = 0.0
    for m_prime in range(mm):
        if m_prime == m:
            continue
        l_prime, n_prime = serving_beam(assignment, m_prime)
        if l_prime == serving_l:
            continue
        if eval_cfg.beta_reading == "victim":
            if not assignment.beta[m, l_prime]:
                continue
        elif not assignment.beta[m_prime, l_prime]:
            continue
        if not alpha[m_prime, l_prime, rrb]:
            continue
        geom = geometries[m][l_prime]
        direction = SteeringDirection(theta=geom.theta, phi=geom.phi)
        g_db = total_gain(direction, beam_table.phi_star[m_prime, l_prime, n_prime], antenna_cfg)
        total += p_eff * gains.power_gains[m, l_prime] * 10.0 ** (g_db / 10.0)
    return total


def sinr_matrix(
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    geometries: list[list[LinkGeometry]],
    antenna_cfg: AntennaConfig,
    rf: RfConstants,
    eval_cfg: EvaluationConfig | None = None,
) -> np.ndarray:
    """Linear SINR of every UAV on every RRB, shape (M, R), in one pass.

    Victim m hears interferer m' (served by BS l' on beam n') through the
    gain of BS l' toward m at the interferer's scan angle phi*[m', l', n'];
    `scan_coefficients` folds each (victim, l') direction as in stage 1.
    """
    eval_cfg = eval_cfg or EvaluationConfig()
    mm, ll = gains.power_gains.shape
    schedule = _schedule(eval_cfg, mm, ll)
    l, n = serving_beams(assignment)
    rows = np.arange(mm)
    p_eff = rf.tx_power_w / eval_cfg.power_divisor
    h = gains.power_gains
    signal = p_eff * h[rows, l] * 10.0 ** (beam_table.gain_db[rows, l, n] / 10.0)

    theta, phi = link_angles(geometries)
    folded = scan_coefficients(theta[:, l], phi[:, l], antenna_cfg)  # (victim, interferer)
    g_db = folded_gain_db(*folded, beam_table.phi_star[rows, l, n], antenna_cfg)
    if eval_cfg.beta_reading == "victim":
        gate = assignment.beta[:, l] != 0
    else:
        gate = assignment.beta[rows, l] != 0
    heard = (l[:, None] != l) & gate  # other BS, gated association
    coupling = np.where(heard, p_eff * h[:, l] * 10.0 ** (g_db / 10.0), 0.0)
    interference = coupling @ schedule[rows, l].astype(float)  # (victim, RRB)
    return signal[:, None] / (interference + rf.noise_power_w)


def _rates(sinrs: np.ndarray, rf: RfConstants) -> np.ndarray:
    """Shannon rate per UAV in bits/s, summed over the RRB axis."""
    return (rf.bandwidth_hz * np.log2(1.0 + sinrs)).sum(axis=1)


def sinr(
    m: int,
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    geometries: list[list[LinkGeometry]],
    antenna_cfg: AntennaConfig,
    rf: RfConstants,
    eval_cfg: EvaluationConfig | None = None,
    rrb: int = 0,
) -> float:
    """Linear SINR of UAV m on one RRB: serving power over interference + noise."""
    return float(
        sinr_matrix(assignment, gains, beam_table, geometries, antenna_cfg, rf, eval_cfg)[m, rrb]
    )


def throughput(
    m: int,
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    geometries: list[list[LinkGeometry]],
    antenna_cfg: AntennaConfig,
    rf: RfConstants,
    eval_cfg: EvaluationConfig | None = None,
) -> float:
    """Shannon rate of UAV m in bits/s, summed over its scheduled RRBs."""
    sinrs = sinr_matrix(assignment, gains, beam_table, geometries, antenna_cfg, rf, eval_cfg)
    return float(_rates(sinrs, rf)[m])


def evaluate_all(
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    geometries: list[list[LinkGeometry]],
    antenna_cfg: AntennaConfig,
    rf: RfConstants,
    eval_cfg: EvaluationConfig | None = None,
    seed: int = 0,
    config_digest: str = "",
) -> ThroughputReport:
    """Score every UAV and aggregate into a ThroughputReport."""
    t0 = time.perf_counter()
    sinrs = sinr_matrix(assignment, gains, beam_table, geometries, antenna_cfg, rf, eval_cfg)
    rates = _rates(sinrs, rf)
    return ThroughputReport(
        per_uav_sinr=sinrs[:, 0],
        per_uav_rate_bps=rates,
        total_rate_bps=float(rates.sum()),
        mean_rate_bps=float(rates.mean()),
        seed=seed,
        config_digest=config_digest,
        timings={"evaluation_seconds": time.perf_counter() - t0},
    )


def validate(assignment: Assignment, mm: int, ll: int, nn: int) -> list[str]:
    """Constraint check; returns one message per violation, empty when clean.

    C1: each UAV associates with exactly one BS. C2: no BS carries more than
    N UAVs. C3: each UAV rides exactly one active beam. C4: no beam serves
    two UAVs. Plus beta/x consistency: an active beam implies association.
    """
    violations: list[str] = []
    beta, x = assignment.beta, assignment.x
    if beta.shape != (mm, ll) or x.shape != (mm, ll, nn):
        violations.append(
            f"shape mismatch: beta {beta.shape} x {x.shape} vs ({mm}, {ll}, {nn})"
        )
        return violations
    row_sums = beta.sum(axis=1)
    for m in np.flatnonzero(row_sums != 1):
        violations.append(f"C1: UAV {m} associates with {row_sums[m]} BSs, expected 1")
    col_sums = beta.sum(axis=0)
    for l in np.flatnonzero(col_sums > nn):
        violations.append(f"C2: BS {l} serves {col_sums[l]} UAVs, limit {nn}")
    active = (beta[:, :, None] * x).reshape(mm, -1).sum(axis=1)
    for m in np.flatnonzero(active != 1):
        violations.append(f"C3: UAV {m} rides {active[m]} active beams, expected 1")
    beam_load = x.sum(axis=0)
    for l, n in zip(*np.nonzero(beam_load > 1)):
        violations.append(f"C4: beam ({l}, {n}) serves {beam_load[l, n]} UAVs, limit 1")
    for m, l, n in zip(*np.nonzero(x)):
        if not beta[m, l]:
            violations.append(
                f"beta/x consistency: x[{m}, {l}, {n}] = 1 but beta[{m}, {l}] = 0"
            )
    return violations
