"""Command-line entry point.

Subcommands:
  run              one scenario, reports to --out
  sweep            run over --uavs or --altitudes, paired seeds
  bench            stage timings and stage-1 eval counts over --uavs
  gain-sweep       antenna gain vs azimuth CSV for plotting
  validate-config  check a config file and list every problem

Without --config the nominal scenario, `ScenarioConfig()`, is used.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import ConfigurationError, CorridorsimError
from .harness import (
    ALLOCATION_CHANNELS,
    ALLOCATORS,
    MAX_THREADS,
    ScenarioConfig,
    benchmark,
    emit_reports,
    gain_sweep_rows,
    load_config,
    run_scenario,
    summary_row,
    sweep,
    validate_config,
    write_gain_sweep,
)


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _add_common(parser: argparse.ArgumentParser, replications: bool = True) -> None:
    parser.add_argument("--config", type=Path, help="scenario JSON file")
    parser.add_argument("--seed", type=int, help="override scenario seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--allocator", choices=ALLOCATORS, help="allocator override")
    parser.add_argument(
        "--channel", choices=ALLOCATION_CHANNELS, help="allocation-side channel override"
    )
    if replications:
        parser.add_argument("--replications", type=int, help="replications override")
    parser.add_argument(
        "--threads", type=int, default=1, help=f"worker threads, 1 to {MAX_THREADS}"
    )


def _load(args: argparse.Namespace) -> ScenarioConfig:
    config = load_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        config.seed = args.seed
    if args.allocator:
        config.allocator = args.allocator
    if args.channel:
        config.allocation_channel = args.channel
    if getattr(args, "replications", None) is not None:
        config.replications = args.replications
    if getattr(args, "uavs", None) and len(args.uavs) == 1:
        config.uav_count = args.uavs[0]
    return config


def _print_summary(results) -> None:
    for result in results:
        row = summary_row(result)
        print(
            f"{row['allocator']:>10s}  channel={row['allocation_channel']:<11s} "
            f"M={row['uav_count']:<3d} alt={row['altitude_m']:<6.1f} "
            f"mean={row['mean_mbps']:.6g} Mbps  std={row['std_mbps']:.3g}  "
            f"stage1={row['stage1_seconds'] * 1e3:.3g}ms"
        )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every `main` call."""
    parser = argparse.ArgumentParser(prog="corridorsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    _add_common(p_run)
    p_run.add_argument("--uavs", type=_int_list, help="UAV count (single value)")

    p_sweep = sub.add_parser("sweep", help="sweep UAV counts or altitudes")
    _add_common(p_sweep)
    p_sweep.add_argument("--uavs", type=_int_list, help="comma-separated UAV counts")
    p_sweep.add_argument("--altitudes", type=_float_list, help="comma-separated altitudes (m)")

    p_bench = sub.add_parser("bench", help="runtime scaling over UAV counts")
    _add_common(p_bench, replications=False)  # `benchmark` runs one replication
    p_bench.add_argument(
        "--uavs", type=_int_list, default=(10, 20, 30, 40), help="comma-separated UAV counts"
    )

    p_gain = sub.add_parser("gain-sweep", help="gain-vs-azimuth CSV")
    p_gain.add_argument("--config", type=Path, help="scenario JSON file (its antenna)")
    p_gain.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p_gain.add_argument("--theta", type=float, default=90.0, help="zenith angle (deg)")
    p_gain.add_argument("--scan", type=float, default=0.0, help="scan angle (deg)")

    p_val = sub.add_parser("validate-config", help="check a config file")
    p_val.add_argument("--config", type=Path, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command in ("validate-config", "gain-sweep"):
            config = load_config(args.config) if args.config else ScenarioConfig()
            problems = validate_config(config)
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            if problems:
                return 1
            if args.command == "validate-config":
                print("config ok")
                return 0
            rows = gain_sweep_rows(config.antenna, theta_deg=args.theta, scan_deg=args.scan)
            print(f"wrote {write_gain_sweep(rows, args.out)}")
            return 0

        config = _load(args)

        if args.command == "run":
            if args.uavs and len(args.uavs) > 1:
                raise ConfigurationError(f"run takes one --uavs value, got {args.uavs}")
            results = [run_scenario(config, threads=args.threads)]
        elif args.command == "sweep":
            if args.altitudes:
                if args.uavs and len(args.uavs) > 1:
                    raise ConfigurationError(
                        f"sweep takes one --uavs value with --altitudes, got {args.uavs}"
                    )
                results = sweep(config, "altitude", args.altitudes, threads=args.threads)
            elif args.uavs:
                results = sweep(config, "uav_count", args.uavs, threads=args.threads)
            else:
                raise ConfigurationError("sweep needs --uavs or --altitudes")
        else:  # bench
            rows = benchmark(config, args.uavs, threads=args.threads)
            args.out.mkdir(parents=True, exist_ok=True)
            bench_path = args.out / "benchmark.json"
            bench_path.write_text(json.dumps(rows, indent=2) + "\n")
            for row in rows:
                print(
                    f"M={row['uav_count']:<3d} stage1={row['stage1_seconds'] * 1e3:.3g}ms "
                    f"stage2={row['stage2_seconds'] * 1e3:.3g}ms evals={row['stage1_evals']}"
                )
            print(f"wrote {bench_path}")
            return 0

        written = emit_reports(results, args.out)
        _print_summary(results)
        print(f"wrote {written['results']} and {written['summary']}")
        return 0
    except CorridorsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
