"""Interference, SINR, and Shannon-rate scoring of an assignment.

The same scoring path serves the optimized allocator and every baseline:
the serving term of UAV m is P * |h[m,l]|^2 * 10^(G/10) with G taken from
the stage-1 table at the serving (m, l, n); interference comes from every
other BS l' whose associated UAVs m' beam toward their own targets, with the
gain evaluated at the victim's angles toward l' but at the interferer's
chosen scan angle, and priced on the linear scale. Rates are Shannon
capacity over `bandwidth_hz`.

`sinr_matrix` scores every UAV in one numpy pass. The tests check it
against a scalar per-interferer loop and against the earlier dB round trip
of the interferer gains, both kept in tests/oracles.py.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .allocator import Assignment, BeamGainTable
from .antenna import _GAIN_FLOOR, scan_phasors
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
    """Linear SINR of every UAV, shape (..., M), in one pass over the stack.

    The assignment's (..., M) index arrays and the (..., M, L) gains share
    their leading replication axes: an (M,) assignment scores (M, L) gains,
    and an (R, M) stack scores (R, M, L) gains, row r on gains[r].
    Victim m hears interferer m' (served by BS l' on beam n') through the
    gain of BS l' toward m at the interferer's scan angle phi*[m', l', n'].
    `fold` is `scan_coefficients` of the run's (M, L) link array, as the
    beam-gain table carries it: elem_db (M, L), the coefficients c
    (M, L, n_h) and alpha. Row m' of Z (M, L*n_h) holds the interferer's n_h
    scan phasors in the block of its BS l' and zeros elsewhere, so one
    complex product c.reshape(M, L*n_h) @ Z.T gives the field
    sum_k c[m, l', k] z[m', k] of every (victim, interferer) pair. The pair
    costs P * |h[m, l']|^2 * 10^(elem_db[m, l'] / 10) * max(|field|^2, floor),
    the floor being GAIN_FLOOR_DB on the linear scale, so the element gain
    leaves dB once per link and no M x M gain does. That weight is zero at a
    victim's own BS, whose UAVs it does not hear. Z, the weights and the
    signals are built for the whole stack at once; only the M x M field
    product and its sum run once per replication.
    """
    elem_db, coeffs, alpha = fold
    mm, ll, n_h = coeffs.shape
    shape = assignment.bs.shape
    if gains.power_gains.shape != shape[:-1] + (mm, ll):
        raise ValueError(f"an assignment of shape {shape} scores gains of shape "
                         f"{shape[:-1] + (mm, ll)}, got {gains.power_gains.shape}")
    bs, beam = assignment.bs.reshape(-1, mm), assignment.beam.reshape(-1, mm)
    h = gains.power_gains.reshape(-1, mm, ll)
    reps, rows = len(bs), np.arange(mm)
    own = (np.arange(reps)[:, None], rows, bs)  # (replication, UAV, serving BS)
    signal = rf.tx_power_w * h[own] * 10.0 ** (beam_table.gain_db[rows, bs, beam] / 10.0)

    z = np.zeros((reps, mm, ll, n_h), dtype=complex)
    z[own] = scan_phasors(alpha, beam_table.phi_star[rows, bs, beam], n_h)
    weight = rf.tx_power_w * h * 10.0 ** (elem_db / 10.0)  # (R, M, L)
    weight[own] = 0.0
    c = coeffs.reshape(mm, ll * n_h)
    ones = np.ones(mm)
    interference = np.empty((reps, mm))
    for r in range(reps):
        field = c @ z[r].reshape(mm, ll * n_h).T
        power = np.maximum(field.real**2 + field.imag**2, _GAIN_FLOOR)
        # A BLAS matrix-vector product, not .sum(axis=1): it keeps every SINR
        # bit-identical to the results.json files already written, and numpy's
        # pairwise row sum does not.
        interference[r] = (weight[r][:, bs[r]] * power) @ ones
    return (signal / (interference + rf.noise_power_w)).reshape(shape)


def evaluate_all(
    assignment: Assignment,
    gains: LinkGainTensor,
    beam_table: BeamGainTable,
    fold: tuple[np.ndarray, np.ndarray, float],
    rf: RfConstants,
    seed: int | Sequence[int] = 0,
    config_digest: str = "",
) -> ThroughputReport | list[ThroughputReport]:
    """Score every UAV and aggregate into a ThroughputReport; `fold` as in `sinr_matrix`.

    An (R, M) stack is scored in one `sinr_matrix` pass and gives a list of
    R reports, report r of row r with seed[r].
    """
    sinrs = sinr_matrix(assignment, gains, beam_table, fold, rf)
    rates = rf.bandwidth_hz * np.log2(1.0 + sinrs)
    if sinrs.ndim == 1:
        return _report(sinrs, rates, seed, config_digest)
    return [_report(*row, config_digest) for row in zip(sinrs, rates, seed, strict=True)]


def _report(sinrs: np.ndarray, rates: np.ndarray, seed: int, digest: str) -> ThroughputReport:
    total = float(rates.sum())
    return ThroughputReport(
        per_uav_sinr=sinrs,
        per_uav_rate_bps=rates,
        total_rate_bps=total,
        mean_rate_bps=total / rates.size,  # rates.mean(), bit for bit
        seed=seed,
        config_digest=digest,
    )


def validate(assignment: Assignment, mm: int, ll: int, nn: int) -> list[str]:
    """Constraint check; returns one message per violation, empty when clean.

    Reports a shape mismatch, a BS or beam index out of range, and C4: no
    beam serves two UAVs. An index pair holds one BS and one active beam of
    that BS per UAV, so C1, C3 and beta/x consistency hold by construction;
    C2, at most N UAVs per BS, follows from C4 and the range check. An
    (R, M) stack is checked in one pass, each message of row r prefixed
    with `replication r: `.
    """
    bs, beam = assignment.bs, assignment.beam
    if bs.shape != beam.shape or bs.shape[-1:] != (mm,) or bs.ndim > 2:
        return [f"shape mismatch: bs {bs.shape} beam {beam.shape} vs ({mm},)"]
    where = "replication {}: ".format if bs.ndim == 2 else lambda r: ""
    bs, beam = bs.reshape(-1, mm), beam.reshape(-1, mm)
    if bs.min() < 0 or bs.max() >= ll or beam.min() < 0 or beam.max() >= nn:
        outside = np.nonzero((bs < 0) | (bs >= ll) | (beam < 0) | (beam >= nn))
        return [f"{where(r)}UAV {m}: BS {bs[r, m]}, beam {beam[r, m]} is outside "
                f"{ll} BSs x {nn} beams" for r, m in zip(*outside)]
    load = np.bincount(((np.arange(len(bs))[:, None] * ll + bs) * nn + beam).ravel())
    return [f"{where(j // (ll * nn))}C4: beam ({j // nn % ll}, {j % nn}) serves {load[j]} UAVs, "
            "limit 1" for j in np.flatnonzero(load > 1)]
