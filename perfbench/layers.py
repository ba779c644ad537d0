"""Per-layer metrics of one traced call set, and the stage-1 accuracy oracle."""

from __future__ import annotations

import hashlib
import statistics

import numpy as np

from .tracing import Tracer

# name -> (unit, better). Times are seconds per call set, counts per call set.
PER_LAYER = {
    "allocator.stage1_s": ("s", "lower"),
    "allocator.stage1_evals": ("count", "lower"),
    "allocator.stage1_triplets": ("count", "lower"),
    "allocator.evals_per_triplet": ("count", "lower"),
    "allocator.stage1_calls": ("count", "lower"),
    "allocator.stage1_repeat_share": ("ratio", "lower"),
    "allocator.stage1_gap_db": ("dB", "lower"),
    "allocator.stage1_gap_db_median": ("dB", "lower"),
    "allocator.assignment_s": ("s", "lower"),
    "allocator.utility_s": ("s", "lower"),
    "allocator.baseline_s": ("s", "lower"),
    "allocator.fill_scan_s": ("s", "lower"),
    "allocator.gain_vs_closest": ("ratio", "higher"),
    "allocator.gain_vs_random": ("ratio", "higher"),
    "allocator.self_s": ("s", "lower"),
    "evaluator.evaluate_s": ("s", "lower"),
    "evaluator.validate_s": ("s", "lower"),
    "evaluator.violations": ("count", "lower"),
    "evaluator.self_s": ("s", "lower"),
    "antenna.scan_gain_s": ("s", "lower"),
    "antenna.scan_gain_evals": ("count", "lower"),
    "antenna.total_gain_calls": ("count", "lower"),
    "antenna.total_gain_s": ("s", "lower"),
    "antenna.self_s": ("s", "lower"),
    "channel.generate_s": ("s", "lower"),
    "channel.degrade_s": ("s", "lower"),
    "channel.links": ("count", "lower"),
    "channel.rays_summed": ("count", "lower"),
    "channel.self_s": ("s", "lower"),
    "geometry.setup_s": ("s", "lower"),
    "geometry.links": ("count", "lower"),
    "geometry.self_s": ("s", "lower"),
    "harness.config_s": ("s", "lower"),
    "harness.run_self_s": ("s", "lower"),
    "harness.emit_reports_s": ("s", "lower"),
    "harness.results_bytes": ("B", "lower"),
    "harness.self_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main_self_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

# Counts that are deterministic at a seed; the rest are timings.
COUNTS = frozenset(name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "B"))

def stage1_fingerprint(args: tuple) -> str:
    """Digest of the stage-1 inputs: UAVs, BSs, codebook, antenna, annealer."""
    return hashlib.sha256(repr(args).encode()).hexdigest()


def callset_metrics(tracer: Tracer, results: list[bytes | None]) -> dict[str, float]:
    """Layer metrics of the call set the tracer just recorded."""
    selfs = tracer.self_times()
    incl = tracer.inclusive
    spans = tracer.run_spans()
    kept = tracer.kept
    leaves = tracer.leaves

    stage1 = kept["build_beam_gain_table"]
    fingerprints = [stage1_fingerprint(args) for args, _ in stage1]
    triplets = sum(table.gain_db.size for _, table in stage1)
    evals = sum(table.stage1_evals for _, table in stage1)

    # Few-ray links sum their scatter phasors exactly up to the channel
    # module's limit and switch to a Gaussian draw above it.
    from corridorsim.channel import _EXACT_RAY_LIMIT

    links = rays = 0
    for name in ("generate", "generate_statistical"):
        for (geoms, spec, *_), tensor in kept[name]:
            n = tensor.power_gains.size
            links += n
            if spec.kind == "few_ray" and 1 <= spec.ray_count - 1 <= _EXACT_RAY_LIMIT:
                rays += n * (spec.ray_count - 1)

    root = next(s for s in spans if s["name"] == "callset")
    return {
        "allocator.stage1_s": incl("build_beam_gain_table"),
        "allocator.stage1_evals": evals,
        "allocator.stage1_triplets": triplets,
        "allocator.evals_per_triplet": evals / triplets if triplets else 0.0,
        "allocator.stage1_calls": len(stage1),
        "allocator.stage1_repeat_share": (
            (len(fingerprints) - len(set(fingerprints))) / len(fingerprints)
            if fingerprints else 0.0
        ),
        "allocator.assignment_s": incl("solve_assignment"),
        "allocator.utility_s": incl("build_utility"),
        "allocator.baseline_s": incl("allocate_random", "allocate_closest_bs"),
        "allocator.fill_scan_s": incl("fill_scan_angles"),
        "allocator.self_s": selfs["allocator"],
        "evaluator.evaluate_s": incl("evaluate_all"),
        "evaluator.validate_s": incl("validate"),
        "evaluator.violations": sum(len(out) for _, out in kept["validate"]),
        "evaluator.self_s": selfs["evaluator"],
        "antenna.scan_gain_s": leaves["scan_gain"][0],
        "antenna.scan_gain_evals": leaves["scan_gain"][1],
        "antenna.total_gain_calls": leaves["total_gain"][1],
        "antenna.total_gain_s": leaves["total_gain"][0],
        "antenna.self_s": selfs["antenna"],
        "channel.generate_s": incl("generate", "generate_statistical"),
        "channel.degrade_s": incl("degrade"),
        "channel.links": links,
        "channel.rays_summed": rays,
        "channel.self_s": selfs["channel"],
        "geometry.setup_s": incl("generate_corridor", "link_geometries"),
        "geometry.links": sum(len(out) * len(out[0]) for _, out in kept["link_geometries"]),
        "geometry.self_s": selfs["geometry"],
        "harness.config_s": incl("load_config", "validate_config", "config_digest"),
        "harness.run_self_s": sum(s["self_s"] for s in spans if s["name"] == "run_scenario"),
        "harness.emit_reports_s": incl("emit_reports"),
        "harness.results_bytes": sum(len(raw) for raw in results if raw is not None),
        "harness.self_s": selfs["harness"],
        "cli.main_self_s": selfs["cli"],
        "trace.traced_wall_s": root["end"] - root["start"],
        "trace.unattributed_s": selfs["bench"],
    }


# The oracle's scan grid: 2 048 points put the grid optimum within ~1e-6 dB
# of the true one on a 16-beam sector. Larger tables are sampled so the
# oracle stays under a second.
ORACLE_GRID = 2048
ORACLE_MAX_TRIPLETS = 1280


def stage1_gap(calls: list) -> tuple[float, float]:
    """(max, median) dB by which stage-1 gains fall short of a dense-grid optimum.

    For each distinct stage-1 input, each triplet's best total gain inside
    its sector is found on ORACLE_GRID scan angles through
    `antenna.total_gain`. Tables with more than ORACLE_MAX_TRIPLETS triplets
    are checked on a fixed seeded sample of them.
    """
    from corridorsim.antenna import SteeringDirection, total_gain
    from corridorsim.geometry import link_geometry

    shortfalls = []
    seen = set()
    for args, table in calls:
        fingerprint = stage1_fingerprint(args)
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        uavs, bss, codebook, antenna = args[:4]
        shape = table.gain_db.shape
        flat = np.arange(table.gain_db.size)
        if flat.size > ORACLE_MAX_TRIPLETS:
            flat = np.sort(
                np.random.default_rng(0).choice(flat, ORACLE_MAX_TRIPLETS, replace=False)
            )
        for m, l, n in zip(*np.unravel_index(flat, shape)):
            geom = link_geometry(bss[l], uavs[m])
            lo, hi = codebook.sectors[n]
            scans = np.linspace(lo, hi, ORACLE_GRID)
            best = float(np.max(total_gain(SteeringDirection(geom.theta, geom.phi), scans, antenna)))
            shortfalls.append(max(0.0, best - float(table.gain_db[m, l, n])))
    if not shortfalls:
        return 0.0, 0.0
    return max(shortfalls), statistics.median(shortfalls)
