"""Scenario configuration, experiment orchestration, and report emission.

A scenario is one JSON document (degrees and meters at the file boundary,
radians internally) describing RF constants, the array, the beam codebook,
BS sites, the corridor, channel providers, the allocator under test, and
the seed schedule. Running a scenario generates the evaluation (high
fidelity) tensor per replication, builds the allocation-side tensor for the
configured channel axis, runs the selected allocator, and always scores the
result on the evaluation tensor, so every scheme is judged on the same
channel.

Replication r of every scenario derives its channel seed from
(scenario seed, r): sweeps over UAV count or altitude are therefore paired
sample-by-sample. results.json contains only deterministic payload (wall
clock timings go to summary.csv), so identical configs and seeds reproduce
it byte for byte regardless of thread count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .allocator import (
    BeamCodebook,
    allocate_closest_bs,
    allocate_random,
    build_beam_gain_table,
    build_utility,
    fill_scan_angles,
    solve_assignment,
)
from .antenna import (
    SPEED_OF_LIGHT,
    AntennaConfig,
    SteeringDirection,
    array_gain,
    element_gain,
)
from .channel import (
    ChannelProviderSpec,
    LinkGainTensor,
    RfConstants,
    degrade,
    generate,
    generate_statistical,
    with_seed,
)
from .errors import ConfigurationError, InfeasibleAssignmentError
from .evaluator import EvaluationConfig, ThroughputReport, evaluate_all, validate
from .geometry import (
    BaseStationSite,
    CorridorSpec,
    Position3D,
    generate_corridor,
    link_geometries,
)

_SEED_MASK = (1 << 64) - 1

# Stream tags keeping the derived seed families disjoint. Tag 1 is retired;
# renumbering the others would move every channel draw.
_TAG_CHANNEL = 2
_TAG_DEGRADE = 3
_TAG_STATISTICAL = 4
_TAG_RANDOM = 5

ALLOCATORS = ("two_stage", "random", "closest_bs")
ALLOCATION_CHANNELS = ("hf", "lf", "statistical")


@dataclass(frozen=True)
class CodebookConfig:
    n_beams: int = 16
    tilt: float | None = None  # radians; None inherits the antenna tilt


@dataclass
class ScenarioConfig:
    """Complete description of one experiment."""

    rf: RfConstants = field(default_factory=RfConstants)
    antenna: AntennaConfig = field(default_factory=AntennaConfig)
    codebook: CodebookConfig = field(default_factory=CodebookConfig)
    bss: list[BaseStationSite] = field(default_factory=list)
    corridor: CorridorSpec = field(
        default_factory=lambda: CorridorSpec(Position3D(0.0, 0.0, 0.0), 200.0, 100.0)
    )
    uav_count: int = 20
    channel_hf: ChannelProviderSpec = field(
        default_factory=lambda: ChannelProviderSpec(kind="statistical")
    )
    channel_lf: ChannelProviderSpec = field(
        default_factory=lambda: ChannelProviderSpec(kind="few_ray", ray_count=100)
    )
    allocator: str = "two_stage"
    allocation_channel: str = "hf"
    evaluation_channel: str = "hf"
    seed: int = 0
    replications: int = 1
    split_power_among_beams: bool = False
    num_rrbs: int = 1
    beta_reading: str = "interferer"


@dataclass
class ExperimentResult:
    """All replications of one scenario plus aggregates."""

    config: dict  # canonical config echo
    config_digest: str
    reports: list[ThroughputReport]
    mean_rate_bps: float
    std_rate_bps: float
    stage1_seconds: float
    stage1_evals: int

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "config": self.config,
            "config_digest": self.config_digest,
            "reports": [r.to_dict(include_timings) for r in self.reports],
            "mean_rate_bps": float(self.mean_rate_bps),
            "std_rate_bps": float(self.std_rate_bps),
            "stage1_evals": int(self.stage1_evals),
        }
        if include_timings:
            out["stage1_seconds"] = float(self.stage1_seconds)
        return out


def default_scenario(seed: int = 0) -> ScenarioConfig:
    """Nominal setup: 4 BSs on a 400 m square, 200 m corridor, 16 beams."""
    config = ScenarioConfig(seed=seed)
    config.bss = [
        BaseStationSite(1, Position3D(0.0, 0.0, 25.0), 0.0),
        BaseStationSite(2, Position3D(400.0, 0.0, 25.0), 0.0),
        BaseStationSite(3, Position3D(400.0, 400.0, 25.0), 0.0),
        BaseStationSite(4, Position3D(0.0, 400.0, 25.0), 0.0),
    ]
    config.corridor = CorridorSpec(
        center=Position3D(200.0, 200.0, 0.0), radius=200.0, altitude=100.0,
        num_waypoints=config.uav_count,
    )
    config.bss = aim_boresights_at(config.bss, config.corridor.center)
    return config


def aim_boresights_at(
    bss: list[BaseStationSite], target: Position3D
) -> list[BaseStationSite]:
    """Point every BS boresight at `target` in the horizontal plane."""
    return [
        BaseStationSite(
            bs.id,
            bs.position,
            math.atan2(target.y - bs.position.y, target.x - bs.position.x),
        )
        for bs in bss
    ]


# --------------------------------------------------------------------------
# Config file round trip (degrees at the boundary)
# --------------------------------------------------------------------------


def config_to_dict(config: ScenarioConfig) -> dict:
    a = config.antenna
    return {
        "seed": config.seed,
        "uav_count": config.uav_count,
        "replications": config.replications,
        "allocator": config.allocator,
        "allocation_channel": config.allocation_channel,
        "evaluation_channel": config.evaluation_channel,
        "split_power_among_beams": config.split_power_among_beams,
        "num_rrbs": config.num_rrbs,
        "beta_reading": config.beta_reading,
        "rf": {
            "carrier_hz": config.rf.carrier_hz,
            "bandwidth_hz": config.rf.bandwidth_hz,
            "tx_power_w": config.rf.tx_power_w,
            "noise_power_w": config.rf.noise_power_w,
        },
        "antenna": {
            "n_h": a.n_h,
            "n_v": a.n_v,
            "d_h_wavelengths": a.d_h,
            "d_v_wavelengths": a.d_v,
            "g_e_max_dbi": a.g_e_max_dbi,
            "theta_3db_deg": math.degrees(a.theta_3db),
            "phi_3db_deg": math.degrees(a.phi_3db),
            "a_m_db": a.a_m_db,
            "sl_av_db": a.sl_av_db,
            "tilt_deg": math.degrees(a.theta_tilt),
            "gain_floor_db": a.gain_floor_db,
        },
        "codebook": {
            "n_beams": config.codebook.n_beams,
            "tilt_deg": None
            if config.codebook.tilt is None
            else math.degrees(config.codebook.tilt),
        },
        "bss": [
            {
                "id": bs.id,
                "x_m": bs.position.x,
                "y_m": bs.position.y,
                "z_m": bs.position.z,
                "boresight_deg": math.degrees(bs.boresight_azimuth),
            }
            for bs in config.bss
        ],
        "corridor": {
            "center_x_m": config.corridor.center.x,
            "center_y_m": config.corridor.center.y,
            "radius_m": config.corridor.radius,
            "altitude_m": config.corridor.altitude,
        },
        "channel_hf": _provider_to_dict(config.channel_hf),
        "channel_lf": _provider_to_dict(config.channel_lf),
    }


def _provider_to_dict(spec: ChannelProviderSpec) -> dict:
    return {
        "kind": spec.kind,
        "ray_count": spec.ray_count,
        "rician_k_db": spec.rician_k_db,
        "import_path": spec.import_path,
    }


def _provider_from_dict(doc: dict) -> ChannelProviderSpec:
    return ChannelProviderSpec(
        kind=doc.get("kind", "statistical"),
        ray_count=int(doc.get("ray_count", 1_000_000)),
        rician_k_db=float(doc.get("rician_k_db", 3.0)),
        seed=int(doc.get("seed", 0)),
        import_path=doc.get("import_path"),
    )


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from the JSON document, filling defaults."""
    base = default_scenario(seed=int(doc.get("seed", 0)))
    rf_doc = doc.get("rf", {})
    rf = RfConstants(
        carrier_hz=float(rf_doc.get("carrier_hz", 3.5e9)),
        bandwidth_hz=float(rf_doc.get("bandwidth_hz", 30e6)),
        tx_power_w=float(rf_doc.get("tx_power_w", 10.0)),
        noise_power_w=float(rf_doc.get("noise_power_w", 0.3)),
    )
    a_doc = doc.get("antenna", {})
    antenna = AntennaConfig(
        n_h=int(a_doc.get("n_h", 4)),
        n_v=int(a_doc.get("n_v", 4)),
        d_h=float(a_doc.get("d_h_wavelengths", 0.5)),
        d_v=float(a_doc.get("d_v_wavelengths", 0.5)),
        g_e_max_dbi=float(a_doc.get("g_e_max_dbi", -8.0)),
        theta_3db=math.radians(float(a_doc.get("theta_3db_deg", 65.0))),
        phi_3db=math.radians(float(a_doc.get("phi_3db_deg", 90.0))),
        a_m_db=float(a_doc.get("a_m_db", 30.0)),
        sl_av_db=float(a_doc.get("sl_av_db", 30.0)),
        theta_tilt=math.radians(float(a_doc.get("tilt_deg", 15.0))),
        wavelength=SPEED_OF_LIGHT / float(rf_doc.get("carrier_hz", 3.5e9)),
        gain_floor_db=float(a_doc.get("gain_floor_db", -400.0)),
    )
    cb_doc = doc.get("codebook", {})
    tilt_deg = cb_doc.get("tilt_deg")
    codebook = CodebookConfig(
        n_beams=int(cb_doc.get("n_beams", 16)),
        tilt=None if tilt_deg is None else math.radians(float(tilt_deg)),
    )
    co_doc = doc.get("corridor", {})
    corridor = CorridorSpec(
        center=Position3D(
            float(co_doc.get("center_x_m", 200.0)),
            float(co_doc.get("center_y_m", 200.0)),
            0.0,
        ),
        radius=float(co_doc.get("radius_m", 200.0)),
        altitude=float(co_doc.get("altitude_m", 100.0)),
        num_waypoints=int(doc.get("uav_count", 20)),
    )
    bss = []
    for i, bs_doc in enumerate(doc.get("bss", [])):
        boresight_deg = bs_doc.get("boresight_deg")
        pos = Position3D(
            float(bs_doc.get("x_m", 0.0)),
            float(bs_doc.get("y_m", 0.0)),
            float(bs_doc.get("z_m", 25.0)),
        )
        if boresight_deg is None:
            boresight = math.atan2(
                corridor.center.y - pos.y, corridor.center.x - pos.x
            )
        else:
            boresight = math.radians(float(boresight_deg))
        bss.append(BaseStationSite(int(bs_doc.get("id", i + 1)), pos, boresight))
    if not bss:
        bss = base.bss
    return ScenarioConfig(
        rf=rf,
        antenna=antenna,
        codebook=codebook,
        bss=bss,
        corridor=corridor,
        uav_count=int(doc.get("uav_count", 20)),
        channel_hf=_provider_from_dict(doc.get("channel_hf", {"kind": "statistical"})),
        channel_lf=_provider_from_dict(
            doc.get("channel_lf", {"kind": "few_ray", "ray_count": 100})
        ),
        allocator=doc.get("allocator", "two_stage"),
        allocation_channel=doc.get("allocation_channel", "hf"),
        evaluation_channel=doc.get("evaluation_channel", "hf"),
        seed=int(doc.get("seed", 0)),
        replications=int(doc.get("replications", 1)),
        split_power_among_beams=bool(doc.get("split_power_among_beams", False)),
        num_rrbs=int(doc.get("num_rrbs", 1)),
        beta_reading=doc.get("beta_reading", "interferer"),
    )


def load_config(path: str | Path) -> ScenarioConfig:
    return config_from_dict(json.loads(Path(path).read_text()))


def config_digest(config: ScenarioConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def validate_config(config: ScenarioConfig) -> list[str]:
    """Every problem with the scenario, one message per offending field."""
    errors: list[str] = []
    for name in ("carrier_hz", "bandwidth_hz", "tx_power_w", "noise_power_w"):
        if getattr(config.rf, name) <= 0.0:
            errors.append(f"rf.{name} must be positive, got {getattr(config.rf, name)}")
    a = config.antenna
    if a.n_h < 1 or a.n_v < 1:
        errors.append(f"antenna.n_h/n_v must be >= 1, got {a.n_h}x{a.n_v}")
    for name in ("d_h", "d_v", "theta_3db", "phi_3db", "a_m_db", "sl_av_db"):
        if getattr(a, name) <= 0.0:
            errors.append(f"antenna.{name} must be positive, got {getattr(a, name)}")
    if config.codebook.n_beams < 1:
        errors.append(f"codebook.n_beams must be >= 1, got {config.codebook.n_beams}")
    if not config.bss:
        errors.append("bss must list at least one site")
    ids = [bs.id for bs in config.bss]
    if sorted(ids) != list(range(1, len(ids) + 1)):
        errors.append(f"bss ids must be unique and contiguous from 1, got {ids}")
    for bs in config.bss:
        if bs.position.z < 0.0:
            errors.append(f"bss[{bs.id}].z_m must be >= 0, got {bs.position.z}")
    if config.corridor.radius <= 0.0:
        errors.append(f"corridor.radius_m must be positive, got {config.corridor.radius}")
    if config.corridor.altitude <= 0.0:
        errors.append(
            f"corridor.altitude_m must be positive, got {config.corridor.altitude}"
        )
    if config.uav_count < 1:
        errors.append(f"uav_count must be >= 1, got {config.uav_count}")
    capacity = len(config.bss) * config.codebook.n_beams
    if config.uav_count > capacity:
        errors.append(
            f"uav_count: {config.uav_count} UAVs cannot be assigned to "
            f"{capacity} BS-beam pairs"
        )
    if config.allocator not in ALLOCATORS:
        errors.append(f"allocator must be one of {ALLOCATORS}, got {config.allocator!r}")
    if config.allocation_channel not in ALLOCATION_CHANNELS:
        errors.append(
            f"allocation_channel must be one of {ALLOCATION_CHANNELS}, "
            f"got {config.allocation_channel!r}"
        )
    if config.evaluation_channel != "hf":
        errors.append(
            f"evaluation_channel is fixed to 'hf', got {config.evaluation_channel!r}"
        )
    for label, spec in (("channel_hf", config.channel_hf), ("channel_lf", config.channel_lf)):
        if spec.kind not in ("few_ray", "statistical", "import"):
            errors.append(f"{label}.kind must be few_ray|statistical|import, got {spec.kind!r}")
        if spec.ray_count < 1:
            errors.append(f"{label}.ray_count must be >= 1, got {spec.ray_count}")
        if spec.kind == "import" and not spec.import_path:
            errors.append(f"{label}.import_path is required for kind 'import'")
    if config.replications < 1:
        errors.append(f"replications must be >= 1, got {config.replications}")
    if config.num_rrbs < 1:
        errors.append(f"num_rrbs must be >= 1, got {config.num_rrbs}")
    if config.beta_reading not in ("interferer", "victim"):
        errors.append(
            f"beta_reading must be interferer|victim, got {config.beta_reading!r}"
        )
    return errors


# --------------------------------------------------------------------------
# Orchestration
# --------------------------------------------------------------------------


def _derive_seed(*parts: int) -> int:
    ss = np.random.SeedSequence([p & _SEED_MASK for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _allocation_tensor(
    config: ScenarioConfig,
    eval_tensor: LinkGainTensor,
    geoms,
    r: int,
) -> LinkGainTensor:
    if config.allocation_channel == "hf":
        return eval_tensor
    if config.allocation_channel == "lf":
        return degrade(
            eval_tensor,
            config.channel_lf.ray_count,
            _derive_seed(config.seed, _TAG_DEGRADE, r),
        )
    spec = config.channel_lf
    if spec.kind != "statistical":
        spec = replace(spec, kind="statistical", rician_k_db=config.channel_hf.rician_k_db)
    spec = with_seed(spec, _derive_seed(config.seed, _TAG_STATISTICAL, r))
    return generate_statistical(geoms, spec, config.rf)


def run_scenario(config: ScenarioConfig, threads: int = 1) -> ExperimentResult:
    """Run every replication of one scenario and aggregate the reports."""
    errors = validate_config(config)
    if errors:
        raise ConfigurationError("\n".join(errors))
    digest = config_digest(config)
    echo = config_to_dict(config)
    uavs = generate_corridor(config.corridor, config.uav_count)
    geoms = link_geometries(uavs, config.bss)
    tilt = config.codebook.tilt if config.codebook.tilt is not None else config.antenna.theta_tilt
    codebook = BeamCodebook.uniform(config.codebook.n_beams, tilt)
    divisor = float(config.codebook.n_beams) if config.split_power_among_beams else 1.0
    eval_cfg = EvaluationConfig(
        num_rrbs=config.num_rrbs,
        beta_reading=config.beta_reading,
        power_divisor=divisor,
    )

    # Stage 1 depends only on geometry, which is fixed across replications,
    # so the table is computed once and shared.
    t0 = time.perf_counter()
    table = build_beam_gain_table(uavs, config.bss, codebook, config.antenna)
    stage1_seconds = time.perf_counter() - t0

    mm, ll, nn = config.uav_count, len(config.bss), config.codebook.n_beams

    def one_replication(r: int) -> ThroughputReport:
        channel_seed = _derive_seed(config.seed, _TAG_CHANNEL, r)
        eval_tensor = generate(geoms, with_seed(config.channel_hf, channel_seed), config.rf)
        alloc_tensor = _allocation_tensor(config, eval_tensor, geoms, r)
        t_alloc = time.perf_counter()
        if config.allocator == "two_stage":
            util = build_utility(table, alloc_tensor, config.rf, divisor)
            assignment = solve_assignment(util)
        elif config.allocator == "random":
            assignment = allocate_random(
                mm, ll, nn, _derive_seed(config.seed, _TAG_RANDOM, r)
            )
        else:
            util = build_utility(table, alloc_tensor, config.rf, divisor)
            assignment = allocate_closest_bs(uavs, config.bss, util)
        fill_scan_angles(assignment, table)
        stage2_seconds = time.perf_counter() - t_alloc
        violations = validate(assignment, mm, ll, nn)
        if violations:
            raise InfeasibleAssignmentError("; ".join(violations))
        report = evaluate_all(
            assignment,
            eval_tensor,
            table,
            geoms,
            config.antenna,
            config.rf,
            eval_cfg,
            seed=channel_seed,
            config_digest=digest,
        )
        report.timings["stage2_seconds"] = stage2_seconds
        return report

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(one_replication, range(config.replications)))
    else:
        reports = [one_replication(r) for r in range(config.replications)]

    mean_rates = np.array([rep.mean_rate_bps for rep in reports])
    std = float(np.std(mean_rates, ddof=1)) if len(mean_rates) > 1 else 0.0
    return ExperimentResult(
        config=echo,
        config_digest=digest,
        reports=reports,
        mean_rate_bps=float(mean_rates.mean()),
        std_rate_bps=std,
        stage1_seconds=stage1_seconds,
        stage1_evals=table.stage1_evals,
    )


def sweep(
    config: ScenarioConfig, axis: str, values: list, threads: int = 1
) -> list[ExperimentResult]:
    """One run_scenario per axis value, sharing the base seed schedule."""
    if not values:
        raise ConfigurationError("sweep needs at least one axis value")
    results = []
    for value in values:
        cfg = _with_axis(config, axis, value)
        results.append(run_scenario(cfg, threads))
    return results


def _with_axis(config: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    cfg = replace(config)
    if axis == "uav_count":
        cfg.uav_count = int(value)
        cfg.corridor = replace(config.corridor, num_waypoints=int(value))
    elif axis == "altitude":
        cfg.corridor = replace(config.corridor, altitude=float(value))
    else:
        raise ConfigurationError(f"sweep axis must be uav_count|altitude, got {axis!r}")
    return cfg


# Timed runs per UAV count in `benchmark`; odd, so the median is one run.
_BENCH_REPEATS = 5


def benchmark(config: ScenarioConfig, uav_counts: list[int], threads: int = 1) -> list[dict]:
    """Per-UAV-count median stage timings and stage-1 evaluation counts.

    One untimed warm-up run comes first. Then every UAV count runs
    `_BENCH_REPEATS` times, interleaved (10, 20, ..., 10, 20, ...), so a
    slow phase of the machine hits all counts alike, and each stage time
    is the median over the repeats.
    """
    configs = [replace(_with_axis(config, "uav_count", m), replications=1) for m in uav_counts]
    if configs:
        run_scenario(configs[0], threads)
    samples = [[] for _ in configs]
    for _ in range(_BENCH_REPEATS):
        for cfg, runs in zip(configs, samples):
            result = run_scenario(cfg, threads)
            timings = result.reports[0].timings
            stage2 = timings.get("stage2_seconds", 0.0)
            evaluation = timings.get("evaluation_seconds", 0.0)
            runs.append(
                {
                    "stage1_seconds": result.stage1_seconds,
                    "stage2_seconds": stage2,
                    "evaluation_seconds": evaluation,
                    "total_seconds": result.stage1_seconds + stage2 + evaluation,
                    "stage1_evals": result.stage1_evals,
                }
            )
    return [
        {"uav_count": m, **{key: statistics.median(run[key] for run in runs) for key in runs[0]}}
        for m, runs in zip(uav_counts, samples)
    ]


# --------------------------------------------------------------------------
# Report emission
# --------------------------------------------------------------------------

_SUMMARY_FIELDS = [
    "allocator",
    "allocation_channel",
    "uav_count",
    "altitude_m",
    "replications",
    "mean_mbps",
    "std_mbps",
    "stage1_seconds",
    "stage1_evals",
    "stage2_seconds_mean",
    "evaluation_seconds_mean",
    "seed",
    "config_digest",
]


def summary_row(result: ExperimentResult) -> dict:
    cfg = result.config
    stage2 = [r.timings.get("stage2_seconds", 0.0) for r in result.reports]
    evals = [r.timings.get("evaluation_seconds", 0.0) for r in result.reports]
    return {
        "allocator": cfg["allocator"],
        "allocation_channel": cfg["allocation_channel"],
        "uav_count": cfg["uav_count"],
        "altitude_m": cfg["corridor"]["altitude_m"],
        "replications": cfg["replications"],
        "mean_mbps": result.mean_rate_bps / 1e6,
        "std_mbps": result.std_rate_bps / 1e6,
        "stage1_seconds": result.stage1_seconds,
        "stage1_evals": result.stage1_evals,
        "stage2_seconds_mean": float(np.mean(stage2)) if stage2 else 0.0,
        "evaluation_seconds_mean": float(np.mean(evals)) if evals else 0.0,
        "seed": cfg["seed"],
        "config_digest": result.config_digest,
    }


def emit_reports(
    results: list[ExperimentResult],
    out_dir: str | Path,
    gain_sweep: list[dict] | None = None,
) -> dict[str, Path]:
    """Write results.json (deterministic payload) and summary.csv.

    Wall-clock timings live in summary.csv only, so results.json is byte
    identical across reruns of the same config and seed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    results_path = out / "results.json"
    payload = {"results": [r.to_dict(include_timings=False) for r in results]}
    results_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    written["results"] = results_path

    summary_path = out / "summary.csv"
    with summary_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SUMMARY_FIELDS)
        writer.writeheader()
        for result in results:
            writer.writerow(summary_row(result))
    written["summary"] = summary_path

    if gain_sweep is not None:
        sweep_path = out / "gain_sweep.csv"
        with sweep_path.open("w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["phi_deg", "element_db", "array_db", "total_db"]
            )
            writer.writeheader()
            for row in gain_sweep:
                writer.writerow(row)
        written["gain_sweep"] = sweep_path
    return written


def gain_sweep_rows(
    antenna_cfg: AntennaConfig,
    theta_deg: float = 90.0,
    scan_deg: float = 0.0,
    step_deg: float = 0.5,
) -> list[dict]:
    """Gain-vs-azimuth cut at a fixed elevation and scan angle."""
    rows = []
    theta = math.radians(theta_deg)
    scan = math.radians(scan_deg)
    n_steps = int(round(360.0 / step_deg))
    for k in range(n_steps + 1):
        phi_deg = -180.0 + k * step_deg
        direction = SteeringDirection(theta=theta, phi=math.radians(phi_deg))
        e_db = element_gain(direction.theta, direction.phi, antenna_cfg)
        a_db = array_gain(direction, scan, antenna_cfg)
        rows.append(
            {
                "phi_deg": phi_deg,
                "element_db": e_db,
                "array_db": a_db,
                "total_db": e_db + a_db,
            }
        )
    return rows
