"""Interference, SINR, and Shannon-rate scoring of an assignment.

The same scoring path serves the optimized allocator and every baseline:
the serving term of UAV m is P * |h[m,l]|^2 * 10^(G/10) with G taken from
the stage-1 table at the serving (m, l, n); interference comes from every
other BS l' whose associated UAVs m' beam toward their own targets, with the
gain evaluated at the victim's angles toward l' but at the interferer's
chosen scan angle. Rates are Shannon capacity over `bandwidth_hz`.

`sinr_matrix` scores every UAV in one numpy pass. The tests check it
against a scalar per-interferer loop kept in tests/oracles.py.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .allocator import Assignment, BeamGainTable
from .antenna import AntennaConfig, folded_gain_db, scan_coefficients
from .antenna import total_gain  # unused here; perfbench/tracing.py patches it
from .channel import LinkGainTensor, RfConstants


@dataclass
class ThroughputReport:
    """Per-UAV SINR/rate and aggregates for one scored assignment."""

    per_uav_sinr: np.ndarray  # linear
    per_uav_rate_bps: np.ndarray
    total_rate_bps: float
    mean_rate_bps: float
    seed: int
    config_digest: str
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "per_uav_sinr": [float(s) for s in self.per_uav_sinr],
            "per_uav_rate_bps": [float(r) for r in self.per_uav_rate_bps],
            "total_rate_bps": float(self.total_rate_bps),
            "mean_rate_bps": float(self.mean_rate_bps),
            "seed": int(self.seed),
            "config_digest": self.config_digest,
        }


def sinr_matrix(
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    links: np.ndarray,
    antenna_cfg: AntennaConfig,
    rf: RfConstants,
    power_divisor: float = 1.0,
) -> np.ndarray:
    """Linear SINR of every UAV, shape (M,), in one pass.

    Victim m hears interferer m' (served by BS l' on beam n') through the
    gain of BS l' toward m at the interferer's scan angle phi*[m', l', n'].
    `scan_coefficients` folds each (UAV, BS) direction of `links`, the (M, L)
    array of `geometry.link_geometries`, once, as in stage 1; the columns of
    the interferers' BSs then give every (victim, interferer) pair.
    """
    mm = gains.power_gains.shape[0]
    l, n = assignment.bs, assignment.beam
    rows = np.arange(mm)
    p_eff = rf.tx_power_w / power_divisor
    h = gains.power_gains
    signal = p_eff * h[rows, l] * 10.0 ** (beam_table.gain_db[rows, l, n] / 10.0)

    elem_db, coeffs, alpha = scan_coefficients(links["theta"], links["phi"], antenna_cfg)
    g_db = folded_gain_db(
        elem_db[:, l], coeffs[:, l], alpha, beam_table.phi_star[rows, l, n], antenna_cfg
    )
    heard = l[:, None] != l  # every UAV served by another BS
    coupling = np.where(heard, p_eff * h[:, l] * 10.0 ** (g_db / 10.0), 0.0)
    # A BLAS matrix-vector product, not .sum(axis=1): it keeps every SINR
    # bit-identical to the results.json files already written, and numpy's
    # pairwise row sum does not.
    interference = coupling @ np.ones(mm)
    return signal / (interference + rf.noise_power_w)


def evaluate_all(
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    links: np.ndarray,
    antenna_cfg: AntennaConfig,
    rf: RfConstants,
    power_divisor: float = 1.0,
    seed: int = 0,
    config_digest: str = "",
) -> ThroughputReport:
    """Score every UAV and aggregate into a ThroughputReport."""
    t0 = time.perf_counter()
    sinrs = sinr_matrix(assignment, gains, beam_table, links, antenna_cfg, rf, power_divisor)
    rates = rf.bandwidth_hz * np.log2(1.0 + sinrs)
    return ThroughputReport(
        per_uav_sinr=sinrs,
        per_uav_rate_bps=rates,
        total_rate_bps=float(rates.sum()),
        mean_rate_bps=float(rates.mean()),
        seed=seed,
        config_digest=config_digest,
        timings={"evaluation_seconds": time.perf_counter() - t0},
    )


def validate(assignment: Assignment, mm: int, ll: int, nn: int) -> list[str]:
    """Constraint check; returns one message per violation, empty when clean.

    Reports a shape mismatch, a BS or beam index out of range, and C4: no
    beam serves two UAVs. An index pair holds one BS and one active beam of
    that BS per UAV, so C1, C3 and beta/x consistency hold by construction;
    C2, at most N UAVs per BS, follows from C4 and the range check.
    """
    bs, beam = assignment.bs, assignment.beam
    if bs.shape != (mm,) or beam.shape != (mm,):
        return [f"shape mismatch: bs {bs.shape} beam {beam.shape} vs ({mm},)"]
    outside = np.flatnonzero((bs < 0) | (bs >= ll) | (beam < 0) | (beam >= nn))
    if outside.size:
        return [f"UAV {m}: BS {bs[m]}, beam {beam[m]} is outside {ll} BSs x {nn} beams"
                for m in outside]
    load = np.bincount(bs * nn + beam)
    return [f"C4: beam ({j // nn}, {j % nn}) serves {load[j]} UAVs, limit 1"
            for j in np.flatnonzero(load > 1)]
