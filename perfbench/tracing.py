"""In-memory spans and counters around corridorsim's public functions.

`instrument(tracer)` replaces each traced function at the module attribute
its caller resolves at call time (for example `corridorsim.harness.
build_beam_gain_table`, which `run_scenario` calls) and puts the originals
back on exit. Nothing in corridorsim is edited.

Two kinds of wrapper:

* a span records (name, layer, start, end, parent, run id) for calls made a
  few times per scenario;
* a leaf only adds its time and call count to an accumulator and to the
  enclosing span's child time. It serves the hot per-evaluation calls (the
  stage-1 scan-gain closures, `total_gain` in the evaluator), where one
  record per call would cost more than the call.

A span's self time is its duration minus what its child spans and leaves
cover, so the self times of all layers plus the benchmark's root span add
up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# (module whose code makes the call, attribute it resolves, corridorsim layer)
SPANS = (
    ("corridorsim.cli", "load_config", "harness"),
    ("corridorsim.cli", "run_scenario", "harness"),
    ("corridorsim.cli", "emit_reports", "harness"),
    ("corridorsim.harness", "config_from_dict", "harness"),
    ("corridorsim.harness", "validate_config", "harness"),
    ("corridorsim.harness", "config_digest", "harness"),
    ("corridorsim.harness", "generate_corridor", "geometry"),
    ("corridorsim.harness", "link_geometries", "geometry"),
    ("corridorsim.harness", "generate", "channel"),
    ("corridorsim.harness", "generate_statistical", "channel"),
    ("corridorsim.harness", "degrade", "channel"),
    ("corridorsim.harness", "build_beam_gain_table", "allocator"),
    ("corridorsim.harness", "build_utility", "allocator"),
    ("corridorsim.harness", "solve_assignment", "allocator"),
    ("corridorsim.harness", "allocate_random", "allocator"),
    ("corridorsim.harness", "allocate_closest_bs", "allocator"),
    ("corridorsim.harness", "fill_scan_angles", "allocator"),
    ("corridorsim.harness", "validate", "evaluator"),
    ("corridorsim.harness", "evaluate_all", "evaluator"),
)

# Spans whose arguments and result the layer metrics need. Only references
# are kept while timing; the metrics are derived after the call set.
KEEP = frozenset(
    {"build_beam_gain_table", "generate", "generate_statistical", "link_geometries", "validate"}
)

LAYERS = ("cli", "harness", "geometry", "channel", "allocator", "antenna", "evaluator")


@dataclass
class _Frame:
    id: int
    name: str
    layer: str
    start: float
    child_s: float = 0.0


@dataclass
class Tracer:
    """Spans of every traced call set; leaves and kept calls of the current one."""

    run_id: int = 0
    spans: list[dict] = field(default_factory=list)
    leaves: dict = field(default_factory=lambda: defaultdict(lambda: [0.0, 0]))
    kept: dict = field(default_factory=lambda: defaultdict(list))
    _stack: list[_Frame] = field(default_factory=list)
    _next_id: int = 0

    def start_run(self, run_id: int) -> None:
        self.run_id = run_id
        self.leaves = defaultdict(lambda: [0.0, 0])
        self.kept = defaultdict(list)

    def open(self, name: str, layer: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, name, layer, time.perf_counter())
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += duration
        self.spans.append(
            {
                "name": frame.name,
                "layer": frame.layer,
                "start": frame.start,
                "end": end,
                "id": frame.id,
                "parent": parent.id if parent else None,
                "run": self.run_id,
                "self_s": duration - frame.child_s,
            }
        )

    @contextmanager
    def span(self, name: str, layer: str):
        frame = self.open(name, layer)
        try:
            yield
        finally:
            self.close(frame)

    def run_spans(self) -> list[dict]:
        return [s for s in self.spans if s["run"] == self.run_id]

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer in the current run; `bench` is the root span."""
        out = dict.fromkeys(LAYERS + ("bench",), 0.0)
        for span in self.run_spans():
            out[span["layer"]] += span["self_s"]
        out["antenna"] += sum(secs for secs, _ in self.leaves.values())
        return out

    def inclusive(self, *names: str) -> float:
        """Summed duration of the named spans in the current run."""
        return sum(s["end"] - s["start"] for s in self.run_spans() if s["name"] in names)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _spanned(tracer: Tracer, name: str, layer: str, fn):
    keep = name in KEEP

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, layer):
            out = fn(*args, **kwargs)
        if keep:
            tracer.kept[name].append((args, out))
        return out

    return wrapper


def _leaf(tracer: Tracer, name: str, fn):
    # Wrappers are built inside `instrument`, after `start_run`, so the
    # accumulator can be bound once instead of looked up per call.
    acc = tracer.leaves[name]
    stack = tracer._stack
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args):
        t0 = perf()
        out = fn(*args)
        dt = perf() - t0
        acc[0] += dt
        acc[1] += 1
        stack[-1].child_s += dt
        return out

    return wrapper


def _scan_gain_factory(tracer: Tracer, make_scan_gain):
    """Time `make_scan_gain` and every call of the closure it returns."""
    timed_make = _leaf(tracer, "make_scan_gain", make_scan_gain)

    @functools.wraps(make_scan_gain)
    def wrapper(*args):
        return _leaf(tracer, "scan_gain", timed_make(*args))

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced attribute for the duration of the block."""
    saved = []

    def patch(module_name: str, attr: str, wrap) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, wrap(original))

    try:
        for module_name, attr, layer in SPANS:
            patch(module_name, attr, lambda fn, n=attr, l=layer: _spanned(tracer, n, l, fn))
        # Leaves, all in the antenna layer.
        patch("corridorsim.allocator", "make_scan_gain", lambda fn: _scan_gain_factory(tracer, fn))
        patch("corridorsim.evaluator", "total_gain", lambda fn: _leaf(tracer, "total_gain", fn))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
