"""Benchmark corridorsim end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nominal --seed 0 --seconds 25 --trace 0

Each workload runs in this process through `corridorsim.cli.main(["run",
...])`, the code path `corridorsim run` pays for minus interpreter start.
Call set k of a run passes `--seed` S_k = seed * 1000 + k, so timed call
sets never repeat an input. One run:

1. set-up: a fresh interpreter imports `corridorsim.cli`, then loads and
   validates the workload config; timed 5 times, each right after the
   import probe (see probe.py). `setup_s` is the median of the
   probe-scaled times; the raw median is printed as `raw_setup_s`;
2. warm-up: one untimed call set at S_0, the byte-level reference;
3. `--trace 0`: timed call sets at S_1, S_2, ... for `--seconds` (at least
   `rate_sets` - 1), each between two runs of the speed probe (see probe.py).
   `wall_s` is the median of the probe-scaled call-set times; the raw
   median is printed as `raw_wall_s`. `mean_rate_bps` is the two-stage
   rate averaged over the workload's first `rate_sets` call sets;
   `--trace 1`: for `--seconds`, pairs of an untraced and a traced call set
   at S_0, S_1, ...; the traced set wraps corridorsim's functions (see
   tracing.py) and the stage-1 oracle runs after the pairs. Every set of
   a pair repeats a seed already run (the warm-up's or its twin's), so
   these runs also check that outputs are byte-identical.

Every line but the last is for people: the fingerprint, each failure, and
every metric with its unit. The last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer ones with `--trace 1`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SEED_STRIDE = 1000
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0

sys.path.insert(0, str(ROOT))

from perfbench.callset import Runner  # noqa: E402
from perfbench.layers import COUNTS, PER_LAYER, callset_metrics, stage1_gap  # noqa: E402
from perfbench.probe import IMPORT_REFERENCE_S, REFERENCE_S, import_probe, probe  # noqa: E402
from perfbench.tracing import Tracer, instrument  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "mean_rate_bps": "bps",
}

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import corridorsim.cli as cli
t1 = time.perf_counter()
problems = cli.validate_config(cli.load_config(sys.argv[1]))
print(json.dumps({"import_s": t1 - t0, "problems": problems, "module": cli.__file__}))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fingerprint(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "corridorsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def measure_setup(config_path: Path) -> tuple[list[float], list[float], list[float]]:
    """Raw and probe-scaled wall seconds of fresh set-ups, and their import share."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    walls, scaled, imports = [], [], []
    for _ in range(SETUP_REPEATS):
        reference = import_probe(env, ROOT, SETUP_TIMEOUT_S)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(config_path)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        walls.append(time.perf_counter() - t0)
        scaled.append(walls[-1] * IMPORT_REFERENCE_S / reference)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.splitlines()[-1])
        if report["problems"]:
            raise RuntimeError(f"workload config is invalid: {report['problems']}")
        if Path(report["module"]).resolve().parent != SRC / "corridorsim":
            raise RuntimeError(f"set-up imported corridorsim from {report['module']}")
        imports.append(report["import_s"])
    return walls, scaled, imports


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "corridorsim" / "__init__.py").is_file():
        print(f"error: no corridorsim sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corridorsim

    if Path(corridorsim.__file__).resolve().parent != SRC / "corridorsim":
        print(f"error: imported corridorsim from {corridorsim.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=2) + "\n")

    info = fingerprint(workload.name, args.seed)
    print("fingerprint " + json.dumps(info))
    setup_walls, setup_scaled, import_walls = measure_setup(config_path)
    runner = Runner(workload, config_path, work)
    seeds = [args.seed * SEED_STRIDE + k for k in range(SEED_STRIDE)]

    warm = runner.run(seeds[0])
    if warm.mean_rate() is None:
        print("error: no two-stage result at the first seed; see FAIL lines", file=sys.stderr)
        return 1
    # Rates at S_0 alone: what `corridorsim run --seed S_0` reports.
    extra = {"mean_rate_bps_s0": warm.mean_rate()}
    for name, call in workload.ratios:
        rate = warm.mean_rate(call)
        if rate is not None:
            extra[name] = warm.mean_rate() / rate

    extra["raw_setup_s"] = statistics.median(setup_walls)
    samples = {"setup_s": setup_scaled, "raw_setup_s": setup_walls}
    if args.trace:
        metrics, tracer = traced(runner, seeds, args.seconds)
        tracer.write(work / "trace.jsonl")
        metrics["cli.import_s"] = statistics.median(import_walls)
        for name in ("gain_vs_closest", "gain_vs_random"):  # 0 without baselines
            metrics[f"allocator.{name}"] = extra.get(name, 0.0)
        reported = {name: (metrics[name], unit) for name, (unit, _) in PER_LAYER.items()}
    else:
        sets = [warm]
        deadline = time.perf_counter() + args.seconds
        raw, walls = [], []
        while len(sets) < workload.rate_sets or time.perf_counter() < deadline:
            before = probe()
            sets.append(runner.run(seeds[len(sets)]))
            speed = REFERENCE_S / ((before + probe()) / 2)
            raw.append(sets[-1].wall_s)
            walls.append(sets[-1].wall_s * speed)
        rates = [s.mean_rate() for s in sets[: workload.rate_sets]]
        if None in rates:
            print("error: a two-stage call failed; see FAIL lines", file=sys.stderr)
            return 1
        extra["wall_samples"] = len(walls)
        extra["raw_wall_s"] = statistics.median(raw)
        samples["wall_s"] = walls
        samples["raw_wall_s"] = raw
        values = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mean_rate_bps": statistics.fmean(rates),
        }
        reported = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    extra["error_rate"] = runner.failed / runner.attempted

    check_reference(workload.name, args.seed, extra)
    for name, value in extra.items():
        print(f"extra {name} = {value:.6g}")
    for name, (value, unit) in reported.items():
        print(f"metric {name} = {value:.6g} {unit}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
    }
    (work / "result.json").write_text(
        json.dumps(
            {**result, "fingerprint": info, "extra": extra, "samples": samples,
             "failures": runner.failures},
            indent=2,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0


def traced(runner: Runner, seeds: list[int], seconds: float) -> tuple[dict, Tracer]:
    """Pairs of untraced and traced call sets; per-layer medians over the traced ones."""
    tracer = Tracer()
    rows, untraced, overheads, first_stage1 = [], [], [], None
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        k = len(rows)
        plain = runner.run(seeds[k])
        tracer.start_run(k)
        with instrument(tracer):
            traced_set = runner.run(seeds[k], tracer=tracer)
        rows.append(callset_metrics(tracer, traced_set.results))
        if first_stage1 is None:
            first_stage1 = list(tracer.kept["build_beam_gain_table"])
        untraced.append(plain.wall_s)
        overheads.append(traced_set.wall_s - plain.wall_s)

    # Counts come from S_0, so two runs at one seed report the same counts;
    # timings are medians over every traced call set.
    metrics = {
        name: rows[0][name] if name in COUNTS else statistics.median(r[name] for r in rows)
        for name in rows[0]
    }
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["allocator.stage1_gap_db"], metrics["allocator.stage1_gap_db_median"] = (
        stage1_gap(first_stage1)
    )
    return metrics, tracer


def check_reference(workload: str, seed: int, measured: dict) -> None:
    """Print how this run's S_0 values compare with the recorded ones, if any."""
    reference = json.loads((HERE / "reference.json").read_text())
    recorded = reference["values"].get(str(seed), {}).get(workload, {})
    for name, value in recorded.items():
        if name in measured:
            rel = (measured[name] - value) / value
            print(f"reference seed={seed} {name}: {measured[name]:.10g} "
                  f"(recorded {value:.10g}, relative difference {rel:.3g})")


if __name__ == "__main__":
    sys.exit(main())
