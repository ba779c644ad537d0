"""Run one workload call set through `corridorsim.cli.main` and check its outputs.

A call fails when it raises, when `cli.main` returns non-zero, when its
`results.json` is missing, unreadable or has a per-UAV SINR or rate that is
not finite and positive, or when `results.json` differs by a single byte
from the first run of the same call and seed. Each failure is printed with
the check that caught it; none stops the run.
"""

from __future__ import annotations

import gc
import io
import json
import math
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from .tracing import Tracer
from .workloads import Workload


@dataclass
class CallSet:
    """Outcome of one pass over a workload's calls at one seed."""

    seed: int
    wall_s: float
    results: list[bytes | None]  # raw results.json per call, None if absent
    docs: list[dict | None] = field(default_factory=list)  # parsed, None if failed

    def mean_rate(self, call: int = 0) -> float | None:
        doc = self.docs[call]
        return None if doc is None else float(doc["results"][0]["mean_rate_bps"])


class Runner:
    """Runs call sets of one workload and keeps the failure tally."""

    def __init__(self, workload: Workload, config_path: Path, work: Path, log=None):
        self.workload = workload
        self.config_path = config_path
        self.work = work
        self.log = log or (lambda line: print(line, file=sys.stderr))
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self._reference: dict[tuple[int, int], bytes] = {}

    def run(self, seed: int, tracer: Tracer | None = None) -> CallSet:
        from corridorsim import cli

        calls = self.workload.calls
        out_dirs = [self.work / f"call{i}" for i in range(len(calls))]
        for out in out_dirs:
            (out / "results.json").unlink(missing_ok=True)
        argvs = [
            self.workload.argv(call, str(self.config_path), seed, str(out))
            for call, out in zip(calls, out_dirs)
        ]
        outcomes: list[tuple[int | None, str | None]] = []
        sink = io.StringIO()
        gc.collect()
        with tracer.span("callset", "bench") if tracer else nullcontext():
            t0 = time.perf_counter()
            for argv in argvs:
                rc, error = None, None
                try:
                    with redirect_stdout(sink), (
                        tracer.span("main", "cli") if tracer else nullcontext()
                    ):
                        rc = cli.main(argv)
                except SystemExit as exc:  # argparse rejects its arguments this way
                    rc = exc.code
                except Exception as exc:  # every failure is counted, none stops the set
                    error = f"{type(exc).__name__}: {exc}"
                outcomes.append((rc, error))
            wall = time.perf_counter() - t0

        results = []
        for out in out_dirs:
            path = out / "results.json"
            results.append(path.read_bytes() if path.is_file() else None)
        callset = CallSet(seed=seed, wall_s=wall, results=results)
        for i, ((rc, error), raw) in enumerate(zip(outcomes, results)):
            problems, doc = self.check(i, seed, rc, error, raw)
            callset.docs.append(doc)
            self.attempted += 1
            if problems:
                self.failed += 1
                for check, detail in problems:
                    self.failures.append(
                        {"seed": seed, "call": calls[i].label, "check": check, "detail": detail}
                    )
                    self.log(
                        f"FAIL {self.workload.name} seed={seed} call={calls[i].label} "
                        f"check={check}: {detail}"
                    )
        return callset

    def check(self, i: int, seed: int, rc, error, raw: bytes | None):
        """(problems, parsed results) of call i; problems as (check, detail)."""
        if error is not None:
            return [("exception", error)], None
        if rc != 0:
            return [("exit_code", f"cli.main returned {rc!r}")], None
        if raw is None:
            return [("results_json", "results.json was not written")], None
        problems = []
        key = (seed, i)
        reference = self._reference.setdefault(key, raw)
        if raw != reference:
            problems.append(
                ("byte_identical", f"results.json differs from the first run at this seed "
                                   f"({len(raw)} vs {len(reference)} bytes)")
            )
        try:
            doc = json.loads(raw)
            uav_count = self.workload.config["uav_count"]
            results = doc["results"]
            if not results:
                raise ValueError("no results")
            for result in results:
                if not _finite_positive(result["mean_rate_bps"]):
                    problems.append(
                        ("sinr_rate_finite_positive",
                         f"mean_rate_bps is {result['mean_rate_bps']!r}")
                    )
                for report in result["reports"]:
                    for name in ("per_uav_sinr", "per_uav_rate_bps"):
                        values = report[name]
                        if len(values) != uav_count:
                            raise ValueError(f"{name} has {len(values)} entries, expected {uav_count}")
                        bad = [v for v in values if not _finite_positive(v)]
                        if bad:
                            problems.append(
                                ("sinr_rate_finite_positive",
                                 f"{name} has {len(bad)} non-finite or non-positive values, "
                                 f"first {bad[0]!r}")
                            )
        except (ValueError, KeyError, TypeError) as exc:
            return problems + [("results_json", f"malformed results.json: {exc!r}")], None
        return problems, (None if problems else doc)


def _finite_positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0
