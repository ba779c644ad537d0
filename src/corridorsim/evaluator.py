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

from dataclasses import dataclass

import numpy as np

from .allocator import Assignment, BeamGainTable
from .antenna import power_gain_db, scan_phasors
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

    def to_dict(self) -> dict:
        return {
            "per_uav_sinr": self.per_uav_sinr.tolist(),
            "per_uav_rate_bps": self.per_uav_rate_bps.tolist(),
            "total_rate_bps": float(self.total_rate_bps),
            "mean_rate_bps": float(self.mean_rate_bps),
            "seed": int(self.seed),
            "config_digest": self.config_digest,
        }


def sinr_matrix(
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    fold: tuple[np.ndarray, np.ndarray, float],
    rf: RfConstants,
) -> np.ndarray:
    """Linear SINR of every UAV, shape (M,), in one pass.

    Victim m hears interferer m' (served by BS l' on beam n') through the
    gain of BS l' toward m at the interferer's scan angle phi*[m', l', n'].
    `fold` is `scan_coefficients` of the run's (M, L) link array: elem_db
    (M, L), the coefficients c (M, L, n_h) and alpha. Row m' of Z (M, L*n_h)
    holds the interferer's n_h scan phasors in the block of its BS l' and
    zeros elsewhere, so one complex product c.reshape(M, L*n_h) @ Z.T gives
    the field sum_k c[m, l', k] z[m', k] of every (victim, interferer) pair.
    """
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
    # A BLAS matrix-vector product, not .sum(axis=1): it keeps every SINR
    # bit-identical to the results.json files already written, and numpy's
    # pairwise row sum does not.
    interference = coupling @ np.ones(mm)
    return signal / (interference + rf.noise_power_w)


def evaluate_all(
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    fold: tuple[np.ndarray, np.ndarray, float],
    rf: RfConstants,
    seed: int = 0,
    config_digest: str = "",
) -> ThroughputReport:
    """Score every UAV and aggregate into a ThroughputReport; `fold` as in `sinr_matrix`."""
    sinrs = sinr_matrix(assignment, gains, beam_table, fold, rf)
    rates = rf.bandwidth_hz * np.log2(1.0 + sinrs)
    return ThroughputReport(
        per_uav_sinr=sinrs,
        per_uav_rate_bps=rates,
        total_rate_bps=float(rates.sum()),
        mean_rate_bps=float(rates.mean()),
        seed=seed,
        config_digest=config_digest,
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
