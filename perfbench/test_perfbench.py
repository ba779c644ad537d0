"""Self-checks of the benchmark: `python3 -m pytest -q perfbench` from the repo root."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.callset import Runner
from perfbench.layers import COUNTS, PER_LAYER
from perfbench.workloads import WORKLOADS, Call, Workload

sys.path.insert(0, str(run.SRC))

# Same shape as `comparison` (four calls, repeated stage-1 inputs, baselines)
# plus an exact-path few-ray channel, at a size that runs in well under a second.
TINY = Workload(
    name="tiny",
    why="self-test",
    config={
        "uav_count": 4,
        "replications": 2,
        "channel_hf": {"kind": "few_ray", "ray_count": 50},
        "annealer": {"t_global": 5, "t_local": 5},
    },
    calls=(
        Call("two_stage/hf"),
        Call("two_stage/lf", channel="lf"),
        Call("closest_bs/hf", allocator="closest_bs"),
        Call("random/hf", allocator="random"),
    ),
)


def make_runner(tmp_path: Path, workload: Workload = TINY) -> Runner:
    tmp_path.mkdir(parents=True, exist_ok=True)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workload.config))
    return Runner(workload, config_path, tmp_path, log=lambda line: None)


def test_benchmark_json_names_every_metric_and_workload():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER


def test_counts_repeat_exactly_across_two_traced_runs(tmp_path):
    seeds = [7 * run.SEED_STRIDE + k for k in range(run.SEED_STRIDE)]
    first = run.traced(make_runner(tmp_path / "a"), seeds, seconds=1e-3)[0]
    second = run.traced(make_runner(tmp_path / "b"), seeds, seconds=1e-3)[0]
    counts = {name for name in COUNTS if name in first}
    assert counts >= {
        "allocator.stage1_evals", "antenna.total_gain_calls",
        "channel.rays_summed", "harness.results_bytes",
    }
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    # calls * replications * M * L * (rays - 1)
    assert first["channel.rays_summed"] == 4 * 2 * 4 * 4 * 49
    assert first["allocator.stage1_repeat_share"] == 0.75
    assert first["antenna.scan_gain_evals"] == first["allocator.stage1_evals"]
    assert first["evaluator.violations"] == 0


def _nan_sinr(raw: bytes) -> bytes:
    doc = json.loads(raw)
    doc["results"][0]["reports"][0]["per_uav_sinr"][0] = float("nan")
    return json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n"


@pytest.mark.parametrize(
    "corrupt, checks",
    [
        (_nan_sinr, {"sinr_rate_finite_positive", "byte_identical"}),
        (lambda raw: raw.replace(b"\n", b"\n ", 1), {"byte_identical"}),
        (lambda raw: raw[: len(raw) // 2], {"results_json", "byte_identical"}),
    ],
)
def test_corrupted_results_json_counts_as_failure(tmp_path, monkeypatch, corrupt, checks):
    from corridorsim import cli

    runner = make_runner(tmp_path)
    runner.run(11)  # clean reference at this seed
    assert (runner.attempted, runner.failed) == (4, 0)

    emit = cli.emit_reports

    def emit_then_corrupt(results, out_dir, **kwargs):
        written = emit(results, out_dir, **kwargs)
        path = written["results"]
        path.write_bytes(corrupt(path.read_bytes()))
        return written

    monkeypatch.setattr(cli, "emit_reports", emit_then_corrupt)
    runner.run(11)
    assert (runner.attempted, runner.failed) == (8, 4)
    assert runner.failed / runner.attempted == 0.5  # error_rate
    assert {f["check"] for f in runner.failures} == checks
