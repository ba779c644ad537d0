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
deterministic payload (wall clock timings go to summary.csv), so the same
config and seed reproduce it byte for byte, at any chunking of the
replications.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import statistics
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .allocator import (
    MAX_STACKED,
    Assignment,
    BeamCodebook,
    allocate_closest_bs,
    allocate_random,
    build_beam_gain_table,
    build_utility,
    fill_scan_angles,
    solve_assignment,
    stage1_size_errors,
)
from .antenna import SPEED_OF_LIGHT, AntennaConfig, folded_gain_db, scan_coefficients
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
from .errors import ConfigurationError, InfeasibleAssignmentError, OutputError, TensorFormatError
from .evaluator import ThroughputReport, evaluate_all, validate
from .geometry import BaseStationSite, CorridorSpec, Position3D, generate_corridor
from .geometry import link_geometries  # unused here; perfbench/tracing.py patches it

# Stream tags keeping the derived seed families disjoint. Tag 1 is retired;
# renumbering the others would move every channel draw.
_TAG_CHANNEL = 2
_TAG_DEGRADE = 3
_TAG_STATISTICAL = 4
_TAG_RANDOM = 5

ALLOCATORS = ("two_stage", "random", "closest_bs")
ALLOCATION_CHANNELS = ("hf", "lf", "statistical")


# The nominal sites: 25 m masts on the corners of a 400 m square.
_NOMINAL_SITES = tuple(Position3D(x, y, 25.0) for x, y in
                       ((0.0, 0.0), (400.0, 0.0), (400.0, 400.0), (0.0, 400.0)))


def _bearing_deg(p: Position3D, target: Position3D) -> float:
    """The horizontal direction from `p` to `target`, degrees counterclockwise from east."""
    return math.degrees(math.atan2(target.y - p.y, target.x - p.x))


def _nominal_sites(center: Position3D = CorridorSpec().center) -> list[BaseStationSite]:
    """The nominal sites, their boresights aimed at `center`."""
    return [BaseStationSite(i + 1, p, _bearing_deg(p, center))
            for i, p in enumerate(_NOMINAL_SITES)]


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


def _need(holds, need: str):
    """A rule: a value for which `holds` is false reads `{key} {need}, got {value!r}`."""
    return lambda key, value: None if holds(value) else f"{key} {need}, got {value!r}"


_POSITIVE = _need(lambda value: value > 0.0, "must be positive")
_AT_LEAST_1 = _need(lambda value: value >= 1, "must be >= 1")
_FINITE_WAVELENGTH = _need(lambda hz: math.isfinite(SPEED_OF_LIGHT / hz),
                           "must give a finite wavelength")


def _linear(positive: bool):
    """A rule: the linear value 10^(dB/10), as the run computes it, is a finite (positive) float."""
    need = ", positive" if positive else ""

    def rule(key: str, db: float) -> str | None:
        try:
            if 10.0 ** (db / 10.0) > 0.0 or not positive:
                return None
        except OverflowError:
            pass
        return f"{key} must have a finite{need} linear value, got {db!r} dB"
    return rule


def _tensor_file(key: str, path: str | None) -> str | None:
    """An import's tensor must name a regular file."""
    if not path:
        return f"{key} is required for kind 'import'"
    if os.path.isfile(path):
        return None
    return (f"{key} must be a regular file, got {path!r}" if os.path.exists(path)
            else f"{key}: channel tensor file not found: {path}")


# Every config file key once: (dotted file key, dotted attribute path, rule).
# The attribute holds the file's value as it stands, so the echo of a loaded
# config loads back to the same config. A key a file omits keeps its value
# in ScenarioConfig(), and a value must have the JSON type of the
# attribute's annotation. `validate_config` reports each non-finite number,
# and each other value for which rule(file key, value) returns a message; a
# float key without a rule need only be finite.
_SCHEMA = (
    ("seed", "seed", None),
    ("uav_count", "uav_count", _AT_LEAST_1),
    ("replications", "replications", _AT_LEAST_1),
    ("allocator", "allocator", _need(lambda v: v in ALLOCATORS, f"must be one of {ALLOCATORS}")),
    ("allocation_channel", "allocation_channel",
     _need(lambda v: v in ALLOCATION_CHANNELS, f"must be one of {ALLOCATION_CHANNELS}")),
    ("rf.carrier_hz", "rf.carrier_hz", lambda k, hz: _POSITIVE(k, hz) or _FINITE_WAVELENGTH(k, hz)),
    ("rf.bandwidth_hz", "rf.bandwidth_hz", _POSITIVE),
    ("rf.tx_power_w", "rf.tx_power_w", _POSITIVE),
    ("rf.noise_power_w", "rf.noise_power_w", _POSITIVE),
    ("antenna.n_h", "antenna.n_h", _AT_LEAST_1),
    ("antenna.n_v", "antenna.n_v", _AT_LEAST_1),
    ("antenna.d_h_wavelengths", "antenna.d_h", _POSITIVE),
    ("antenna.d_v_wavelengths", "antenna.d_v", _POSITIVE),
    ("antenna.g_e_max_dbi", "antenna.g_e_max_dbi", _linear(positive=False)),
    ("antenna.theta_3db_deg", "antenna.theta_3db_deg", _POSITIVE),
    ("antenna.phi_3db_deg", "antenna.phi_3db_deg", _POSITIVE),
    ("antenna.a_m_db", "antenna.a_m_db", _POSITIVE),
    ("antenna.sl_av_db", "antenna.sl_av_db", _POSITIVE),
    ("antenna.tilt_deg", "antenna.tilt_deg", None),
    ("codebook.n_beams", "codebook.n_beams", _AT_LEAST_1),
    ("corridor.center_x_m", "corridor.center.x", None),
    ("corridor.center_y_m", "corridor.center.y", None),
    ("corridor.radius_m", "corridor.radius", _POSITIVE),
    ("corridor.altitude_m", "corridor.altitude", _POSITIVE),
    ("channel_hf.kind", "channel_hf.kind", _need(
        lambda v: v in ("few_ray", "statistical", "import"), "must be few_ray|statistical|import")),
    ("channel_hf.ray_count", "channel_hf.ray_count", _AT_LEAST_1),
    ("channel_hf.rician_k_db", "channel_hf.rician_k_db", _linear(positive=True)),
    ("channel_hf.import_path", "channel_hf.import_path", _tensor_file),
    ("channel_lf.ray_count", "lf_ray_count", _AT_LEAST_1),
)

# One `bss` entry, relative to a BaseStationSite. An omitted `id` is the
# entry's index + 1, an omitted or null `boresight_deg` aims the site at the
# corridor center, and omitted coordinates are those of nominal site 1.
_SITE_SCHEMA = (
    ("id", "id", None),
    ("x_m", "position.x", None),
    ("y_m", "position.y", None),
    ("z_m", "position.z", _need(lambda z: z >= 0.0, "must be >= 0")),
    ("boresight_deg", "boresight_deg", None),
)

# The two keys of an earlier version that still load: `annealer` is ignored,
# and `channel_lf.kind` loads only as the provider `lf` always is. Their only
# callers are the benchmark's configs, `montecarlo` in perfbench/workloads.py
# and `TINY` in perfbench/test_perfbench.py; both keys go when the benchmark
# drops them (ROADMAP.md, "Green benchmark and the first BENCH_*.json").
_RETIRED = frozenset({"annealer"})
_PINNED = {"channel_lf.kind": "few_ray"}

# channel_hf keys that only some provider kinds read. Every kind reads `kind`
# and `rician_k_db` (an import's K feeds the `statistical` allocation
# channel). The echo holds only the keys the kind reads, and a file that
# gives another is an error, so no value that the run ignores loads.
_READ_BY_KIND = {"ray_count": ("few_ray",), "import_path": ("import",)}

# The JSON types a value may have, by its attribute's annotation. A float
# attribute takes any JSON number through float(), so 10 and 10.0 load alike.
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    str | None: ((str, type(None)), "a string or null"),
}


def _compile(schema, root: type) -> dict:
    """{section or None: {file key: (getter, path, JSON types, their name, is float, rule)}}."""
    hints = functools.cache(get_type_hints)
    tables = {}
    for name, dotted, rule in schema:
        *owners, attr = path = tuple(dotted.split("."))
        owner = functools.reduce(lambda cls, step: hints(cls)[step], owners, root)
        section, _, key = name.rpartition(".")
        hint = hints(owner)[attr]
        row = (attrgetter(dotted), path, *_JSON_TYPES[hint], hint is float, rule)
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

    A channel_hf key its kind does not read raises too, at any value. An
    echo of this version loads back to its config; a file of an earlier
    version loads once the keys it is refused for are deleted (README,
    "Scenario config (JSON)").
    """
    top = {k: v for k, v in _expect("config", doc).items() if k not in _TABLES and k != "bss"}
    values = _load(top, _TABLES[None], "")
    for section, table in _TABLES.items():
        if section in doc:
            values.update(_load(_expect(section, doc[section]), table, f"{section}."))
    config = _assign(ScenarioConfig(bss=[]), values)  # the sites follow the center, below
    for key in _unread_channel_keys(config.channel_hf):
        if key in doc.get("channel_hf", ()):
            raise ConfigurationError(
                f"channel_hf.{key} is not read by kind {config.channel_hf.kind!r}"
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
    site = _assign(BaseStationSite(i + 1, _NOMINAL_SITES[0], 0.0), values)
    if ("boresight_deg",) in values:
        return site
    return replace(site, boresight_deg=_bearing_deg(site.position, center))


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
            if value != pinned:
                raise ConfigurationError(
                    f"{where + key} is retired and loads only as {json.dumps(pinned)}, "
                    f"got {value!r}"
                )
            continue
        if key not in table:
            raise ConfigurationError(f"unknown config key {where + key!r}")
        _, path, types, expected, is_float, _ = table[key]
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
        with open(path) as fh:
            return config_from_dict(json.loads(fh.read()))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"cannot load config {path}: {exc}") from exc


def config_digest(config: ScenarioConfig, echo: dict | None = None) -> str:
    """Short hash of the config file; `echo` is its checked echo, if at hand."""
    # json.dumps(echo, sort_keys=True), through an encoder built once
    canonical = _c_encoder(", ")(config_to_dict(config) if echo is None else echo)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def validate_config(config: ScenarioConfig, echo: dict | None = None) -> list[str]:
    """Every problem with the scenario, one message per offending field.

    A message names the file key and the value the file holds. The keys come
    first, in echo order: a non-finite number is reported as such, any other
    value against its schema row's rule. The checks that span several keys
    follow. `echo` is `config_to_dict(config)`, built here unless at hand
    (`checked_echoes` passes each run's).
    """
    echo = config_to_dict(config) if echo is None else echo
    walk = [(f"{s}." if s else "", echo[s] if s else echo, table) for s, table in _TABLES.items()]
    walk += [(f"bss[{i}].", site, _SITE_TABLE) for i, site in enumerate(echo["bss"])]
    errors = []
    for where, values, table in walk:
        for key, value in values.items():
            rule = table[key][-1] if key in table else None  # sections and `bss` have no row
            if isinstance(value, float) and not math.isfinite(value):
                errors.append(f"{where}{key} must be finite, got {value}")
            elif rule and (problem := rule(where + key, value)):
                errors.append(problem)
    # A stage-1 bound on a key reported above (an infinite spacing) adds nothing.
    named = {problem.split(" ", 1)[0] for problem in errors}
    n_links = config.uav_count * len(config.bss)
    sizes = stage1_size_errors(config.antenna, config.codebook.n_beams, n_links)
    errors += [problem for problem in sizes if problem.split(" ", 1)[0] not in named]
    if not config.bss:
        errors.append("bss must list at least one site")
    ids = [bs.id for bs in config.bss]
    if sorted(ids) != list(range(1, len(ids) + 1)):
        errors.append(f"bss ids must be unique and contiguous from 1, got {ids}")
    capacity = len(config.bss) * config.codebook.n_beams
    if config.uav_count > capacity:
        errors.append(f"uav_count: {config.uav_count} UAVs cannot be assigned to "
                      f"{capacity} BS-beam pairs")
    return errors


Checked = tuple[ScenarioConfig, dict]  # a config and its echo, checked by `checked_echoes`


def checked_echoes(configs: Iterable[ScenarioConfig]) -> list[Checked]:
    """Each config with its `config_to_dict` echo, once `validate_config` finds no problem.

    Every distinct problem of every config raises in one ConfigurationError,
    one problem per line. A caller that checks its configs before their runs
    passes each echo to `run_scenario`.
    """
    checked = [(config, config_to_dict(config)) for config in configs]
    if problems := dict.fromkeys(p for cfg, echo in checked for p in validate_config(cfg, echo)):
        raise ConfigurationError("\n".join(problems))
    return checked


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


def _check_finite(values: np.ndarray, problem: str) -> None:
    """`values` must be finite and non-negative, else the run ends with `problem`.

    Generated power gains are held to this, as a file's are, and so are the
    utility and the rates that a link budget past the floats would overflow.
    """
    if not (values.min() >= 0.0 and values.max() < math.inf):  # a NaN fails both
        raise ConfigurationError(problem)


def _chunk_size(config: ScenarioConfig) -> int:
    """Replications per channel pass: its largest stacked array within MAX_STACKED elements.

    That array is the (R, M, L, N) utility, the evaluator's (R, M, L, n_h)
    scan phasors or, on the exact few-ray branch, the (R, M*L, n_scatter)
    scatter phases.
    """
    hf = config.channel_hf
    exact = hf.kind == "few_ray" and hf.ray_count - 1 <= _EXACT_RAY_LIMIT
    width = max(config.codebook.n_beams, config.antenna.n_h, hf.ray_count - 1 if exact else 0)
    return max(1, MAX_STACKED // (config.uav_count * len(config.bss) * width))


def run_scenario(config: ScenarioConfig, echo: dict | None = None) -> ExperimentResult:
    """Run every replication of one scenario and aggregate the reports.

    `echo` is the config's echo from `checked_echoes`, which the run builds
    unless given; it is hashed into the digest and reported as the run's config.

    Replications are stacked in chunks of `_chunk_size`: each chunk makes one
    channel pass (generate, allocation tensor, checks, utility) over all its
    replications, assigns each replication, then scores the chunk in one
    pass: its (R, M) assignment is filled with scan angles, validated and
    evaluated as one stack.
    """
    if echo is None:
        [(_, echo)] = checked_echoes([config])
    digest = config_digest(config, echo)
    uavs = generate_corridor(config.corridor, config.uav_count)

    # Stage 1 depends only on geometry, which is fixed across replications,
    # so the table is computed once and shared. It carries the link array it
    # was solved on, which the channel and the closest-BS ranking read too,
    # and that array's fold, which evaluation reads.
    t0 = time.perf_counter()
    table = build_beam_gain_table(uavs, config.bss, config.codebook, config.antenna)
    stage1_seconds = time.perf_counter() - t0
    links = table.links

    mm, ll, nn = config.uav_count, len(config.bss), config.codebook.n_beams
    channel_seeds = _seeds(config, _TAG_CHANNEL, range(config.replications))
    chunk = _chunk_size(config)
    reports = []
    stage2_seconds = evaluation_seconds = 0.0  # summed here, averaged below
    # A link budget that overflows ends at a `_check_finite` that names its stage,
    # not in a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, config.replications, chunk):
            reps = range(start, min(start + chunk, config.replications))
            seeds = channel_seeds[start : reps.stop]
            eval_tensor = generate(links, config.channel_hf, config.rf, seeds)
            if (eval_tensor.m, eval_tensor.l) != (mm, ll):
                got = f"{eval_tensor.m}x{eval_tensor.l}"
                raise TensorFormatError(f"channel tensor is {got} links, expected {mm}x{ll}")
            bad_gains = "gave non-finite or negative power gains"
            _check_finite(eval_tensor.power_gains,
                          f"channel_hf ({config.channel_hf.kind}) {bad_gains}")
            alloc_tensor = _allocation_tensor(config, eval_tensor, links, reps)
            if alloc_tensor is not eval_tensor:
                _check_finite(alloc_tensor.power_gains,
                              f"allocation channel {config.allocation_channel!r} {bad_gains}")
            if config.allocator != "random":
                t_util = time.perf_counter()
                util = build_utility(table, alloc_tensor, config.rf)
                stage2_seconds += time.perf_counter() - t_util
                _check_finite(util, "stage 2 utility is not finite: the link budget overflows")
            t_alloc = time.perf_counter()
            shape = (len(reps), mm)
            assignment = Assignment(np.empty(shape, dtype=int), np.empty(shape, dtype=int))
            for i, r in enumerate(reps):
                if config.allocator == "two_stage":
                    row = solve_assignment(util[i])
                elif config.allocator == "random":
                    row = allocate_random(mm, ll, nn, _derive_seed(config.seed, _TAG_RANDOM, r))
                else:
                    row = allocate_closest_bs(links["distance_3d"], util[i])
                assignment.bs[i], assignment.beam[i] = row.bs, row.beam
            fill_scan_angles(assignment, table)
            stage2_seconds += time.perf_counter() - t_alloc
            if violations := validate(assignment, mm, ll, nn):
                raise InfeasibleAssignmentError(
                    f"chunk from replication {start}: " + "; ".join(violations))
            t_eval = time.perf_counter()
            reports += evaluate_all(assignment, eval_tensor, table, table.fold, config.rf,
                                    seed=seeds, config_digest=digest)
            evaluation_seconds += time.perf_counter() - t_eval

    # A non-finite SINR or rate makes its replication's mean rate non-finite.
    mean_rates = np.array([rep.mean_rate_bps for rep in reports])
    _check_finite(mean_rates, "evaluation gave non-finite SINRs: the link budget overflows")
    std = float(np.std(mean_rates, ddof=1)) if len(mean_rates) > 1 else 0.0
    return ExperimentResult(
        config=echo,
        config_digest=digest,
        reports=reports,
        mean_rate_bps=float(mean_rates.sum()) / len(mean_rates),  # mean(), bit for bit
        std_rate_bps=std,
        stage1_seconds=stage1_seconds,
        stage1_evals=table.stage1_evals,
        stage2_seconds=stage2_seconds / config.replications,
        evaluation_seconds=evaluation_seconds / config.replications,
    )


def sweep_configs(config: ScenarioConfig, axis: str, values: list) -> list[Checked]:
    """The config of each axis value with its echo, all checked before any runs."""
    if not values:
        raise ConfigurationError("sweep needs at least one axis value")
    return checked_echoes([_with_axis(config, axis, value) for value in values])


def sweep(config: ScenarioConfig, axis: str, values: list) -> list[ExperimentResult]:
    """One run_scenario per axis value, sharing the base seed schedule."""
    return [run_scenario(cfg, echo) for cfg, echo in sweep_configs(config, axis, values)]


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


def benchmark_configs(config: ScenarioConfig, uav_counts: list[int]) -> list[Checked]:
    """The one-replication config of each UAV count that `benchmark` runs, with its echo."""
    if not uav_counts:
        raise ConfigurationError("benchmark needs at least one UAV count")
    return sweep_configs(replace(config, replications=1), "uav_count", uav_counts)


def benchmark(config: ScenarioConfig, uav_counts: list[int]) -> list[dict]:
    """Per-UAV-count median stage timings and stage-1 evaluation counts.

    One untimed warm-up run comes first. Then every UAV count runs
    `_BENCH_REPEATS` times, interleaved (10, 20, ..., 10, 20, ...), so a
    slow phase of the machine hits all counts alike, and each stage time
    is the median over the repeats.
    """
    configs = benchmark_configs(config, uav_counts)
    run_scenario(*configs[0])
    samples = [[] for _ in configs]
    for _ in range(_BENCH_REPEATS):
        for (cfg, echo), runs in zip(configs, samples):
            result = run_scenario(cfg, echo)
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


@functools.cache
def _c_encoder(item_separator: str):
    """json's C encoder with sort_keys and `item_separator`, as obj -> str.

    Built with the arguments that `JSONEncoder(sort_keys=True,
    separators=(item_separator, ": ")).iterencode` passes it, except the
    circular-reference markers: a config echo and a container that holds no
    container cannot hold themselves, and one markers dict shared by every
    call would keep the entries of a call that raised. `JSONEncoder.encode`
    rebuilds this encoder on every call.
    """
    # (markers, default, encoder, indent, key_separator, item_separator,
    #  sort_keys, skipkeys, allow_nan)
    encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                            ": ", item_separator, True, False, True)
    return lambda obj: "".join(encode(obj, 0))


_CONTAINERS = (dict, list, tuple)


def dumps_indent2(obj, depth: int = 0) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte.

    json's indent mode runs its pure-Python encoder. This walks dicts (in key
    order) and lists that hold a container, encodes each scalar value of
    such a dict in place, and hands each container that holds no container
    to the C encoder in one call, its item separator carrying the newline
    and the indent. A dict that holds a container must have str keys
    (TypeError otherwise); json.dumps would coerce an int, float, bool or
    None key.
    """
    if not isinstance(obj, _CONTAINERS):
        return _c_encoder(", ")(obj)  # a scalar's text has no separator
    is_dict = isinstance(obj, dict)
    if not obj:
        return "{}" if is_dict else "[]"
    sep = ",\n  " + "  " * depth  # between the items, which sit at depth + 1
    if not any([isinstance(v, _CONTAINERS) for v in (obj.values() if is_dict else obj)]):
        body = _c_encoder(sep)(obj)[1:-1]
    elif is_dict:
        body = sep.join([
            encode_basestring_ascii(k) + ": "
            + (dumps_indent2(v, depth + 1) if isinstance(v, _CONTAINERS) else _c_encoder(", ")(v))
            for k, v in sorted(obj.items())
        ])
    else:
        body = sep.join([dumps_indent2(v, depth + 1) for v in obj])
    outer = "\n" + "  " * depth
    return ("{" if is_dict else "[") + sep[1:] + body + outer + ("}" if is_dict else "]")


def _cannot_write(exc: OSError, path) -> OutputError:
    return OutputError(f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def prepare_output_dir(out_dir: str | Path) -> None:
    """Create `out_dir` and its parents if missing; an OSError ends as an OutputError.

    An existing directory (or a symlink to one) costs one `stat` and no
    `mkdir`. Any other path goes to `mkdir`, which creates it or raises.
    """
    if os.path.isdir(out_dir):
        return
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(exc, out_dir) from exc


def _keep_bytes(path, flags: int) -> int:
    """`os.open` for `open(path, "wb")`, less the truncation."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_files(out_dir: str | Path, texts: dict[str, str]) -> list[Path]:
    """Write each {file name: text} into `out_dir`, making it; the paths, in order.

    Every target is opened before any is written. If one cannot be opened,
    none is written and the files this call created are removed. A file is
    overwritten in place: a symlink is followed, and the file keeps its
    inode and permissions. A longer old file is cut to length after the
    write, not to zero before it: on ext4 (auto_da_alloc) a truncation to
    zero makes `close()` start writeback. A device or pipe (size 0) is not
    cut. The text is written as UTF-8 with no newline translation. An
    OSError ends as an OutputError that names the path.
    """
    prepare_output_dir(out_dir)
    paths = [Path(out_dir, name) for name in texts]
    created = [path for path in paths if not os.path.lexists(path)]
    opened = []
    try:
        for path in paths:
            opened.append(open(path, "wb", opener=_keep_bytes))
        for fh, path, text in zip(opened, paths, texts.values()):
            data = text.encode()
            fh.write(data)
            # The size is max(old size, bytes flushed so far), which exceeds
            # len(data) exactly when the old file was longer.
            if os.fstat(fh.fileno()).st_size > len(data):
                fh.truncate()
            fh.close()
    except OSError as exc:
        if len(opened) < len(paths):  # a target did not open, so none was written
            for new in created:
                with contextlib.suppress(OSError):
                    new.unlink()
        raise _cannot_write(exc, path) from exc
    finally:
        for fh in opened:
            fh.close()
    return paths


def _csv_text(fields, rows: Iterable[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fields)
    writer.writerows([row[key] for key in fields] for row in rows)
    return buf.getvalue()


def emit_reports(results: list[ExperimentResult], out_dir: str | Path) -> dict[str, Path]:
    """Write results.json (deterministic payload) and summary.csv to out_dir, making it.

    results.json is `json.dumps(payload, indent=2, sort_keys=True)` plus a
    newline, written by `dumps_indent2`. Wall-clock timings live in
    summary.csv only, so results.json is byte identical across reruns of the
    same config and seed. Both files go through one `write_files` call, so
    the pair is written by one run or left as it was.
    """
    payload = {"results": [r.to_dict() for r in results]}
    results_path, summary_path = write_files(out_dir, {
        "results.json": dumps_indent2(payload) + "\n",
        "summary.csv": _csv_text(_SUMMARY_FIELDS, map(summary_row, results)),
    })
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
    [path] = write_files(out_dir, {"gain_sweep.csv": _csv_text(_GAIN_SWEEP_FIELDS, rows)})
    return path
