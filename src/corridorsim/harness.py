"""Scenario configuration, experiment orchestration, and report emission.

A scenario is one JSON document (angles in degrees, lengths in meters, in
the file and in ScenarioConfig alike) describing RF constants, the array,
the beam codebook, BS sites, the corridor, the channel providers, the
allocator under test, and the seed schedule. Running a scenario generates
the evaluation (high fidelity) tensors of its replications, stacked on a
leading axis, builds the allocation-side tensors for the configured
channel axis and their utility in the same stacked pass, runs the selected
allocator per replication, and always scores the result on the evaluation
tensor, so every scheme is judged on the same channel.

Replication r of every scenario derives its channel seeds from
(scenario seed, r), its tensors are row r of each stacked call, and link
(m, l) draws row m*L + l of each of its streams, so sweeps over UAV count
or altitude are paired sample by sample. results.json contains only
deterministic payload (wall clock timings go to summary.csv), so identical
configs and seeds reproduce it byte for byte regardless of thread count
and of how replications are chunked.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .allocator import (
    MAX_STACKED,
    BeamCodebook,
    allocate_closest_bs,
    allocate_random,
    build_beam_gain_table,
    build_utility,
    fill_scan_angles,
    solve_assignment,
    stage1_size_errors,
)
from .antenna import GAIN_FLOOR_DB, SPEED_OF_LIGHT, AntennaConfig, folded_gain_db, scan_coefficients
from .channel import (
    _EXACT_RAY_LIMIT,
    _SEED_MASK,
    ChannelProviderSpec,
    LinkGainTensor,
    RfConstants,
    degrade,
    generate,
    generate_statistical,
)
from .errors import ConfigurationError, InfeasibleAssignmentError, TensorFormatError
from .evaluator import ThroughputReport, evaluate_all, validate
from .geometry import (
    BaseStationSite,
    CorridorSpec,
    Position3D,
    generate_corridor,
    link_geometries,
)

# Stream tags keeping the derived seed families disjoint. Tag 1 is retired;
# renumbering the others would move every channel draw.
_TAG_CHANNEL = 2
_TAG_DEGRADE = 3
_TAG_STATISTICAL = 4
_TAG_RANDOM = 5

ALLOCATORS = ("two_stage", "random", "closest_bs")
ALLOCATION_CHANNELS = ("hf", "lf", "statistical")
# Worker threads a run may ask for. Replications are short numpy calls, and
# beyond a few threads the pool only adds contention.
MAX_THREADS = 64


def aim_boresights_at(bss: list[BaseStationSite], target: Position3D) -> list[BaseStationSite]:
    """Point every BS boresight at `target` in the horizontal plane."""

    def toward(p: Position3D) -> float:
        return math.degrees(math.atan2(target.y - p.y, target.x - p.x))

    return [replace(bs, boresight_deg=toward(bs.position)) for bs in bss]


def _nominal_sites(center: Position3D = CorridorSpec().center) -> list[BaseStationSite]:
    """The nominal sites, 25 m masts on the corners of a 400 m square, aimed at `center`."""
    corners = ((0.0, 0.0), (400.0, 0.0), (400.0, 400.0), (0.0, 400.0))
    sites = [
        BaseStationSite(i + 1, Position3D(x, y, 25.0), 0.0) for i, (x, y) in enumerate(corners)
    ]
    return aim_boresights_at(sites, center)


@dataclass
class ScenarioConfig:
    """Complete description of one experiment; the defaults are the nominal scenario."""

    rf: RfConstants = field(default_factory=RfConstants)
    antenna: AntennaConfig = field(default_factory=AntennaConfig)
    codebook: BeamCodebook = field(default_factory=BeamCodebook)
    bss: list[BaseStationSite] = field(default_factory=_nominal_sites)
    corridor: CorridorSpec = field(default_factory=CorridorSpec)
    uav_count: int = 20
    channel_hf: ChannelProviderSpec = field(default_factory=ChannelProviderSpec)
    lf_ray_count: int = 100  # the ray count `lf` re-estimates channel_hf at
    allocator: str = "two_stage"
    allocation_channel: str = "hf"
    seed: int = 0
    replications: int = 1


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
    stage2_seconds: float  # mean over the replications, as is evaluation_seconds
    evaluation_seconds: float

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "config_digest": self.config_digest,
            "reports": [r.to_dict() for r in self.reports],
            "mean_rate_bps": float(self.mean_rate_bps),
            "std_rate_bps": float(self.std_rate_bps),
            "stage1_evals": int(self.stage1_evals),
        }


# --------------------------------------------------------------------------
# Config file round trip
# --------------------------------------------------------------------------

# Every config file key once: (dotted file key, dotted attribute path). The
# attribute holds the file's value as it stands, so the echo of a loaded
# config loads back to the same config. A key a file omits keeps its value
# in ScenarioConfig(), and a value must have the JSON type of the
# attribute's annotation.
_SCHEMA = (
    ("seed", "seed"),
    ("uav_count", "uav_count"),
    ("replications", "replications"),
    ("allocator", "allocator"),
    ("allocation_channel", "allocation_channel"),
    ("rf.carrier_hz", "rf.carrier_hz"),
    ("rf.bandwidth_hz", "rf.bandwidth_hz"),
    ("rf.tx_power_w", "rf.tx_power_w"),
    ("rf.noise_power_w", "rf.noise_power_w"),
    ("antenna.n_h", "antenna.n_h"),
    ("antenna.n_v", "antenna.n_v"),
    ("antenna.d_h_wavelengths", "antenna.d_h"),
    ("antenna.d_v_wavelengths", "antenna.d_v"),
    ("antenna.g_e_max_dbi", "antenna.g_e_max_dbi"),
    ("antenna.theta_3db_deg", "antenna.theta_3db_deg"),
    ("antenna.phi_3db_deg", "antenna.phi_3db_deg"),
    ("antenna.a_m_db", "antenna.a_m_db"),
    ("antenna.sl_av_db", "antenna.sl_av_db"),
    ("antenna.tilt_deg", "antenna.tilt_deg"),
    ("codebook.n_beams", "codebook.n_beams"),
    ("corridor.center_x_m", "corridor.center.x"),
    ("corridor.center_y_m", "corridor.center.y"),
    ("corridor.radius_m", "corridor.radius"),
    ("corridor.altitude_m", "corridor.altitude"),
    *((f"channel_hf.{key}", f"channel_hf.{key}")
      for key in ("kind", "ray_count", "rician_k_db", "import_path")),
    ("channel_lf.ray_count", "lf_ray_count"),
)

# One `bss` entry, relative to a BaseStationSite. An omitted `id` is the
# entry's index + 1, an omitted or null `boresight_deg` aims the site at the
# corridor center, and omitted coordinates are those of nominal site 1.
_SITE_SCHEMA = (
    ("id", "id"),
    ("x_m", "position.x"),
    ("y_m", "position.y"),
    ("z_m", "position.z"),
    ("boresight_deg", "boresight_deg"),
)

# Keys earlier versions read. Files that still carry them load; the values
# are ignored. A few-ray `channel_lf` never read its `rician_k_db`.
_RETIRED = frozenset({
    "annealer", "evaluation_channel", "codebook.tilt_deg", "channel_hf.seed", "channel_lf.seed",
    "channel_lf.rician_k_db",
})

# Retired keys that load only at the value the run now always uses; dropping
# any other value would silently change the rates. `lf` re-estimates the
# evaluation tensor and `statistical` uses channel_hf's K, which is what a
# few-ray `channel_lf` without an import path gave. Power split among the
# beams is `rf.tx_power_w` / n_beams written out, and the gain floor guards
# log10(0) only.
_PINNED = {
    "num_rrbs": 1,
    "beta_reading": "interferer",
    "channel_lf.kind": "few_ray",
    "channel_lf.import_path": None,
    "split_power_among_beams": False,
    "antenna.gain_floor_db": GAIN_FLOOR_DB,
}

# channel_hf keys that only some provider kinds read. Every kind reads `kind`
# and `rician_k_db` (an import's K feeds the `statistical` allocation
# channel). The echo holds only the keys the kind reads; a file may give
# another only at its ChannelProviderSpec default, so older echoes load and
# no value that the run ignores loads silently.
_READ_BY_KIND = {"ray_count": ("few_ray",), "import_path": ("import",)}

# The JSON types a value may have, by its attribute's annotation. A float
# attribute takes any JSON number through float(), so 10 and 10.0 load alike.
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
    str | None: ((str, type(None)), "a string or null"),
}


def _compile(schema, root: type) -> dict:
    """{section or None: {file key: (getter, path, JSON types, their name, is float)}}."""
    hints = functools.cache(get_type_hints)
    tables = {}
    for name, dotted in schema:
        *owners, attr = path = tuple(dotted.split("."))
        owner = functools.reduce(lambda cls, step: hints(cls)[step], owners, root)
        section, _, key = name.rpartition(".")
        hint = hints(owner)[attr]
        row = (attrgetter(dotted), path, *_JSON_TYPES[hint], hint is float)
        tables.setdefault(section or None, {})[key] = row
    return tables


_TABLES = _compile(_SCHEMA, ScenarioConfig)
_SITE_TABLE = _compile(_SITE_SCHEMA, BaseStationSite)[None]


def config_to_dict(config: ScenarioConfig) -> dict:
    """The config file of `config`: every schema key."""
    doc = {}
    for section, table in _TABLES.items():
        (doc.setdefault(section, {}) if section else doc).update(_dump(config, table))
    for key in _unread_channel_keys(config.channel_hf):
        del doc["channel_hf"][key]
    doc["bss"] = [_dump(bs, _SITE_TABLE) for bs in config.bss]
    return doc


def _unread_channel_keys(spec: ChannelProviderSpec) -> list[str]:
    return [key for key, kinds in _READ_BY_KIND.items() if spec.kind not in kinds]


def _dump(obj, table: dict) -> dict:
    return {key: get(obj) for key, (get, *_) in table.items()}


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Load a JSON document; omitted keys keep defaults, unknown keys and wrong types raise.

    A channel_hf key its kind does not read raises too, unless it holds its default.
    """
    top = {k: v for k, v in _expect("config", doc).items() if k not in _TABLES and k != "bss"}
    values = _load(top, _TABLES[None], "")
    for section, table in _TABLES.items():
        if section in doc:
            values.update(_load(_expect(section, doc[section]), table, f"{section}."))
    config = _assign(ScenarioConfig(), values)
    default = ChannelProviderSpec()
    for key in _unread_channel_keys(config.channel_hf):
        value, pinned = getattr(config.channel_hf, key), getattr(default, key)
        if value != pinned:
            raise ConfigurationError(
                f"channel_hf.{key} is not read by kind {config.channel_hf.kind!r} and loads "
                f"only as {json.dumps(pinned)}, got {value!r}"
            )
    center = config.corridor.center
    if "bss" not in doc:
        config.bss = _nominal_sites(center)
    else:
        sites = _expect("bss", doc["bss"], list, "a list")
        config.bss = [_site_from_dict(i, site, center) for i, site in enumerate(sites)]
    return config


def _site_from_dict(i: int, doc, center: Position3D) -> BaseStationSite:
    where = f"bss[{i}]"
    given = {k: v for k, v in _expect(where, doc).items() if k != "boresight_deg" or v is not None}
    values = _load(given, _SITE_TABLE, f"{where}.")
    site = _assign(replace(_nominal_sites()[0], id=i + 1), values)
    return site if ("boresight_deg",) in values else aim_boresights_at([site], center)[0]


def _expect(key: str, value, kind: type = dict, name: str = "a JSON object"):
    if not isinstance(value, kind):
        raise ConfigurationError(f"{key} must be {name}, got {value!r}")
    return value


def _load(doc: dict, table: dict, where: str) -> dict:
    """{attribute path: value} of the keys of `doc`; `where` prefixes their names."""
    values = {}
    for key, value in doc.items():
        if where + key in _RETIRED:
            continue
        if where + key in _PINNED:
            pinned = _PINNED[where + key]
            types = (float, int) if type(pinned) is float else (type(pinned),)
            if type(value) not in types or value != pinned:
                raise ConfigurationError(
                    f"{where + key} is retired and loads only as {json.dumps(pinned)}, "
                    f"got {value!r}"
                )
            continue
        if key not in table:
            raise ConfigurationError(f"unknown config key {where + key!r}")
        _, path, types, expected, is_float = table[key]
        if type(value) not in types:
            raise ConfigurationError(f"{where + key} must be {expected}, got {value!r}")
        try:
            values[path] = float(value) if is_float else value
        except OverflowError:
            raise ConfigurationError(f"{where + key} is out of range") from None
    return values


def _assign(obj, values: dict):
    """Copy of dataclass `obj` with every attribute path in `values` set."""
    nested = {}
    for (name, *rest), value in values.items():
        nested.setdefault(name, {})[tuple(rest)] = value
    return replace(obj, **{
        name: sub[()] if () in sub else _assign(getattr(obj, name), sub)
        for name, sub in nested.items()
    })


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a scenario file; an unreadable file or a bad value is a ConfigurationError."""
    try:
        return config_from_dict(json.loads(Path(path).read_text()))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"cannot load config {path}: {exc}") from exc


def config_digest(config: ScenarioConfig, echo: dict | None = None) -> str:
    """Short hash of the config file; pass `echo`, its `config_to_dict`, if at hand."""
    canonical = json.dumps(config_to_dict(config) if echo is None else echo, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def validate_config(config: ScenarioConfig, echo: dict | None = None) -> list[str]:
    """Every problem with the scenario, one message per offending field.

    A message names the file key and the value the file holds. `echo` is
    `config_to_dict(config)`, built here unless the caller has it.
    """
    echo = config_to_dict(config) if echo is None else echo
    errors = [f"{path} must be finite, got {value}" for path, value in _non_finite(echo)]
    for key, value in echo["rf"].items():
        if value <= 0.0:
            errors.append(f"rf.{key} must be positive, got {value}")
    if config.rf.carrier_hz > 0.0 and not math.isfinite(SPEED_OF_LIGHT / config.rf.carrier_hz):
        errors.append(f"rf.carrier_hz must give a finite wavelength, got {config.rf.carrier_hz}")
    a = echo["antenna"]
    if a["n_h"] < 1 or a["n_v"] < 1:
        errors.append(f"antenna.n_h/n_v must be >= 1, got {a['n_h']}x{a['n_v']}")
    errors += stage1_size_errors(
        config.antenna, config.codebook.n_beams, config.uav_count * len(config.bss)
    )
    for key in (
        "d_h_wavelengths", "d_v_wavelengths", "theta_3db_deg", "phi_3db_deg", "a_m_db", "sl_av_db"
    ):
        if a[key] <= 0.0:
            errors.append(f"antenna.{key} must be positive, got {a[key]}")
    if config.codebook.n_beams < 1:
        errors.append(f"codebook.n_beams must be >= 1, got {config.codebook.n_beams}")
    if not config.bss:
        errors.append("bss must list at least one site")
    ids = [bs.id for bs in config.bss]
    if sorted(ids) != list(range(1, len(ids) + 1)):
        errors.append(f"bss ids must be unique and contiguous from 1, got {ids}")
    for i, bs in enumerate(config.bss):
        if bs.position.z < 0.0:
            errors.append(f"bss[{i}].z_m must be >= 0, got {bs.position.z}")
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
    hf = config.channel_hf
    if hf.kind not in ("few_ray", "statistical", "import"):
        errors.append(f"channel_hf.kind must be few_ray|statistical|import, got {hf.kind!r}")
    if hf.kind == "few_ray" and hf.ray_count < 1:
        errors.append(f"channel_hf.ray_count must be >= 1, got {hf.ray_count}")
    if hf.kind == "import" and not hf.import_path:
        errors.append("channel_hf.import_path is required for kind 'import'")
    if math.isfinite(hf.rician_k_db) and not 0.0 < _linear(hf.rician_k_db) < math.inf:
        errors.append(
            f"channel_hf.rician_k_db must have a finite, positive linear value, "
            f"got {hf.rician_k_db} dB"
        )
    if config.lf_ray_count < 1:
        errors.append(f"channel_lf.ray_count must be >= 1, got {config.lf_ray_count}")
    if config.replications < 1:
        errors.append(f"replications must be >= 1, got {config.replications}")
    return errors


def _linear(db: float) -> float:
    """10^(db/10) as the channel providers compute it; inf where that overflows."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _non_finite(doc, path: str = ""):
    """(dotted path, value) of every NaN or infinite number in a config echo."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _non_finite(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _non_finite(value, f"{path}[{i}]")
    elif isinstance(doc, float) and not math.isfinite(doc):
        yield path, doc


# --------------------------------------------------------------------------
# Orchestration
# --------------------------------------------------------------------------


def _derive_seed(*parts: int) -> int:
    ss = np.random.SeedSequence([p & _SEED_MASK for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _seeds(config: ScenarioConfig, tag: int, reps: range) -> list[int]:
    """The seed of stream family `tag` for each replication in `reps`."""
    return [_derive_seed(config.seed, tag, r) for r in reps]


def _allocation_tensor(
    config: ScenarioConfig,
    eval_tensor: LinkGainTensor,
    links: np.ndarray,
    reps: range,
) -> LinkGainTensor:
    if config.allocation_channel == "hf":
        return eval_tensor
    if config.allocation_channel == "lf":
        return degrade(eval_tensor, config.lf_ray_count, _seeds(config, _TAG_DEGRADE, reps))
    # generate_statistical reads only the spec's rician_k_db.
    seeds = _seeds(config, _TAG_STATISTICAL, reps)
    return generate_statistical(links, config.channel_hf, config.rf, seeds)


def _check_gains(tensor: LinkGainTensor, source: str) -> None:
    """A generated tensor must hold finite, non-negative power gains, as a file must."""
    gains = tensor.power_gains
    if not np.all(np.isfinite(gains)) or np.any(gains < 0.0):
        raise ConfigurationError(f"{source} gave non-finite or negative power gains")


def _chunk_size(config: ScenarioConfig) -> int:
    """Replications per channel pass: its largest stacked array within MAX_STACKED elements.

    That array is the (R, M, L, N) utility or, on the exact few-ray branch,
    the (R, M*L, n_scatter) scatter phases.
    """
    hf = config.channel_hf
    exact = hf.kind == "few_ray" and hf.ray_count - 1 <= _EXACT_RAY_LIMIT
    width = max(config.codebook.n_beams, hf.ray_count - 1 if exact else 0)
    return max(1, MAX_STACKED // (config.uav_count * len(config.bss) * width))


def run_scenario(config: ScenarioConfig, threads: int = 1) -> ExperimentResult:
    """Run every replication of one scenario and aggregate the reports.

    Replications are stacked in chunks of `_chunk_size`: each chunk makes one
    channel pass (generate, allocation tensor, checks, utility) over all its
    replications, then assigns and scores each replication on its own, on
    up to `threads` worker threads.
    """
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    if threads > MAX_THREADS:
        raise ConfigurationError(f"threads must be <= {MAX_THREADS}, got {threads}")
    echo = config_to_dict(config)
    errors = validate_config(config, echo)
    if errors:
        raise ConfigurationError("\n".join(errors))
    digest = config_digest(config, echo)
    uavs = generate_corridor(config.corridor, config.uav_count)
    links = link_geometries(uavs, config.bss)
    # The geometry is fixed across replications, so evaluation folds it once.
    fold = scan_coefficients(links["theta"], links["phi"], config.antenna)

    # Stage 1 depends only on geometry, which is fixed across replications,
    # so the table is computed once and shared.
    t0 = time.perf_counter()
    table = build_beam_gain_table(uavs, config.bss, config.codebook, config.antenna)
    stage1_seconds = time.perf_counter() - t0

    mm, ll, nn = config.uav_count, len(config.bss), config.codebook.n_beams
    channel_seeds = _seeds(config, _TAG_CHANNEL, range(config.replications))

    def channel_pass(reps: range) -> tuple[Iterable, Iterable, Iterable]:
        """Per replication of `reps`: evaluation gains, utility, share of the utility seconds."""
        seeds = channel_seeds[reps.start : reps.stop]
        # An overflowing link budget is reported by _check_gains, not by numpy.
        with np.errstate(over="ignore", invalid="ignore"):
            eval_tensor = generate(links, config.channel_hf, config.rf, seeds)
            if (eval_tensor.m, eval_tensor.l) != (mm, ll):
                got = f"{eval_tensor.m}x{eval_tensor.l}"
                raise TensorFormatError(f"channel tensor is {got} links, expected {mm}x{ll}")
            _check_gains(eval_tensor, f"channel_hf ({config.channel_hf.kind})")
            alloc_tensor = _allocation_tensor(config, eval_tensor, links, reps)
            if alloc_tensor is not eval_tensor:
                _check_gains(alloc_tensor, f"allocation channel {config.allocation_channel!r}")
        if config.allocator == "random":
            return eval_tensor.power_gains, repeat(None), repeat(0.0)
        t_util = time.perf_counter()
        util = build_utility(table, alloc_tensor, config.rf)
        return eval_tensor.power_gains, util, repeat((time.perf_counter() - t_util) / len(reps))

    def one_replication(
        r: int, gains: np.ndarray, util: np.ndarray | None, util_seconds: float
    ) -> tuple[ThroughputReport, float, float]:
        """The replication's report, its stage-2 seconds and its evaluation seconds."""
        t_alloc = time.perf_counter()
        if config.allocator == "two_stage":
            assignment = solve_assignment(util)
        elif config.allocator == "random":
            assignment = allocate_random(mm, ll, nn, _derive_seed(config.seed, _TAG_RANDOM, r))
        else:
            assignment = allocate_closest_bs(links["distance_3d"], util)
        fill_scan_angles(assignment, table)
        stage2_seconds = util_seconds + time.perf_counter() - t_alloc
        violations = validate(assignment, mm, ll, nn)
        if violations:
            raise InfeasibleAssignmentError("; ".join(violations))
        t_eval = time.perf_counter()
        report = evaluate_all(
            assignment,
            LinkGainTensor(power_gains=gains),
            table,
            fold,
            config.rf,
            seed=channel_seeds[r],
            config_digest=digest,
        )
        return report, stage2_seconds, time.perf_counter() - t_eval

    chunk = _chunk_size(config)
    workers = min(threads, config.replications)
    runs = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        each = pool.map if workers > 1 else map
        for start in range(0, config.replications, chunk):
            reps = range(start, min(start + chunk, config.replications))
            runs += each(one_replication, reps, *channel_pass(reps))
    reports, stage2_seconds, evaluation_seconds = zip(*runs)

    mean_rates = np.array([rep.mean_rate_bps for rep in reports])
    std = float(np.std(mean_rates, ddof=1)) if len(mean_rates) > 1 else 0.0
    return ExperimentResult(
        config=echo,
        config_digest=digest,
        reports=list(reports),
        mean_rate_bps=float(mean_rates.mean()),
        std_rate_bps=std,
        stage1_seconds=stage1_seconds,
        stage1_evals=table.stage1_evals,
        stage2_seconds=statistics.fmean(stage2_seconds),
        evaluation_seconds=statistics.fmean(evaluation_seconds),
    )


def sweep(
    config: ScenarioConfig, axis: str, values: list, threads: int = 1
) -> list[ExperimentResult]:
    """One run_scenario per axis value, sharing the base seed schedule."""
    if not values:
        raise ConfigurationError("sweep needs at least one axis value")
    return [run_scenario(_with_axis(config, axis, value), threads) for value in values]


def _with_axis(config: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    if axis == "uav_count":
        return replace(config, uav_count=int(value))
    if axis == "altitude":
        return replace(config, corridor=replace(config.corridor, altitude=float(value)))
    raise ConfigurationError(f"sweep axis must be uav_count|altitude, got {axis!r}")


# Timed runs per UAV count in `benchmark`; odd, so the median is one run. A
# one-replication nominal run takes only ~3-6 ms at M = 10-40 (2-vCPU VM), so a
# short slow phase can swap neighbouring UAV counts' medians of 5; 15 keep them apart.
_BENCH_REPEATS = 15


def benchmark(config: ScenarioConfig, uav_counts: list[int], threads: int = 1) -> list[dict]:
    """Per-UAV-count median stage timings and stage-1 evaluation counts.

    One untimed warm-up run comes first. Then every UAV count runs
    `_BENCH_REPEATS` times, interleaved (10, 20, ..., 10, 20, ...), so a
    slow phase of the machine hits all counts alike, and each stage time
    is the median over the repeats.
    """
    if not uav_counts:
        raise ConfigurationError("benchmark needs at least one UAV count")
    configs = [replace(_with_axis(config, "uav_count", m), replications=1) for m in uav_counts]
    run_scenario(configs[0], threads)
    samples = [[] for _ in configs]
    for _ in range(_BENCH_REPEATS):
        for cfg, runs in zip(configs, samples):
            result = run_scenario(cfg, threads)
            runs.append(
                {
                    "stage1_seconds": result.stage1_seconds,
                    "stage2_seconds": result.stage2_seconds,
                    "evaluation_seconds": result.evaluation_seconds,
                    "total_seconds": (
                        result.stage1_seconds + result.stage2_seconds + result.evaluation_seconds
                    ),
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
        "stage2_seconds_mean": result.stage2_seconds,
        "evaluation_seconds_mean": result.evaluation_seconds,
        "seed": cfg["seed"],
        "config_digest": result.config_digest,
    }


def emit_reports(results: list[ExperimentResult], out_dir: str | Path) -> dict[str, Path]:
    """Write results.json (deterministic payload) and summary.csv.

    Wall-clock timings live in summary.csv only, so results.json is byte
    identical across reruns of the same config and seed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "results.json"
    payload = {"results": [r.to_dict() for r in results]}
    results_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    summary_path = out / "summary.csv"
    with summary_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SUMMARY_FIELDS)
        writer.writeheader()
        for result in results:
            writer.writerow(summary_row(result))
    return {"results": results_path, "summary": summary_path}


_GAIN_SWEEP_FIELDS = ("phi_deg", "element_db", "array_db", "total_db")


def gain_sweep_rows(
    antenna_cfg: AntennaConfig,
    theta_deg: float = 90.0,
    scan_deg: float = 0.0,
    step_deg: float = 0.5,
) -> list[dict]:
    """Gain-vs-azimuth cut at a fixed elevation and scan angle, one batched pass."""
    for name, value in (("theta", theta_deg), ("scan", scan_deg)):
        if not math.isfinite(value):
            raise ConfigurationError(f"gain-sweep {name} must be finite, got {value}")
    phi_deg = -180.0 + np.arange(int(round(360.0 / step_deg)) + 1) * step_deg
    element_db, coeffs, alpha = scan_coefficients(
        math.radians(theta_deg), np.radians(phi_deg), antenna_cfg
    )
    array_db = folded_gain_db(0.0, coeffs, alpha, math.radians(scan_deg), antenna_cfg)
    columns = (phi_deg, element_db, array_db, element_db + array_db)
    return [dict(zip(_GAIN_SWEEP_FIELDS, row)) for row in zip(*(c.tolist() for c in columns))]


def write_gain_sweep(rows: list[dict], out_dir: str | Path) -> Path:
    """Write `gain_sweep_rows` output to gain_sweep.csv; no other file is touched."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "gain_sweep.csv"
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_GAIN_SWEEP_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return path
