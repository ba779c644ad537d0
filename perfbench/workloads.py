"""The benchmark's workloads: a scenario config plus the CLI calls that run it.

Every workload is a closed loop with one caller: one process, `--threads 1`,
and each `corridorsim run` call starts after the previous one returns. The
seed is not part of a config; it is passed to every call as `--seed`, so
corridorsim sees only the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    """One `corridorsim run` invocation of a workload."""

    label: str
    allocator: str = "two_stage"
    channel: str = "hf"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    calls: tuple[Call, ...]
    # (metric, call index): rate of call 0 over the rate of that call.
    ratios: tuple[tuple[str, int], ...] = ()
    # mean_rate_bps averages the two-stage rate of the first this many call
    # sets, S_0, S_1, ...
    rate_sets: int = 4

    def argv(self, call: Call, config_path: str, seed: int, out_dir: str) -> list[str]:
        return [
            "run",
            "--config", config_path,
            "--seed", str(seed),
            "--allocator", call.allocator,
            "--channel", call.channel,
            "--threads", "1",
            "--out", out_dir,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nominal",
            why="the paper's nominal run; stage 1 is ~98% of it, channel and evaluation ~0",
            config={"uav_count": 20, "replications": 1},
            calls=(Call("two_stage/hf"),),
            # The rate of one seed spreads by 12-14% (IQR over median) across
            # seeds, the mean of four by up to 15% (seeds 91-100). A 25 s run
            # times 8-11 call sets anyway, so eight cost about nothing.
            rate_sets=8,
        ),
        Workload(
            name="montecarlo",
            why=(
                "M=64, 8 replications, 10 000-ray HF channel allocated on LF: "
                "evaluation, channel and assignment carry the run"
            ),
            config={
                "uav_count": 64,
                "replications": 8,
                "allocation_channel": "lf",
                "channel_hf": {"kind": "few_ray", "ray_count": 10_000},
                "channel_lf": {"kind": "few_ray", "ray_count": 100},
                "annealer": {"t_global": 10, "t_local": 10},
            },
            calls=(Call("two_stage/lf", channel="lf"),),
        ),
        Workload(
            name="comparison",
            why=(
                "scheme comparison on one geometry (M=8): the only workload with "
                "baselines and with repeated stage-1 inputs (3 of 4 calls)"
            ),
            # Replications re-draw only the channel; stage 1 runs once per
            # call. With 1 replication the mean rate of 8 UAVs spreads by ~27%
            # across seeds 0-9, wider than any regression bound; 4 replications
            # bring that to ~6% for ~7% of the wall time.
            config={"uav_count": 8, "replications": 4},
            calls=(
                Call("two_stage/hf"),
                Call("two_stage/lf", channel="lf"),
                Call("closest_bs/hf", allocator="closest_bs"),
                Call("random/hf", allocator="random"),
            ),
            ratios=(("gain_vs_closest", 2), ("gain_vs_random", 3)),
        ),
    )
}
