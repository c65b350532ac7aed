"""Per-layer timings of uniplan, taken from outside the package.

`traced()` replaces each traced function where it is looked up (the global
of the module that calls it, or the class attribute for methods) by a
wrapper that records a span in memory: name, start, end and parent. The
originals are put back on exit. A few hot functions get a counting wrapper
with no span. `layer_metrics()` turns the spans and counters into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span store. Spans nest by call order on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.child_s = array("d")  # time covered by each span's direct children
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.first_solution: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.child_s.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        t = time.perf_counter()
        self.end[i] = t
        self._stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child_s[p] += t - self.start[i]

    def innermost_is(self, nid: int) -> bool:
        return bool(self._stack) and self.name[self._stack[-1]] == nid

    def arrays(self):
        """(names, start, end, parent, self time) as numpy arrays."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        names = np.array(self.names, dtype=object)[np.frombuffer(self.name, dtype=np.int32)]
        own = end - start - np.frombuffer(self.child_s, dtype=float)
        return names, start, end, np.frombuffer(self.parent, dtype=np.int32), own

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float), end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _span(tracer: Tracer, name: str, fn, after=None, before=None):
    """Wrap fn in a span; after(args, result, state) runs on return, with
    state = before(args) taken before the call."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args) if before is not None else None
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(args, result, state)
        return result

    return wrapper


def _counter(fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result)
        return result

    return wrapper


def _targets(tracer: Tracer):
    """(owner, attribute, make_wrapper) for every patched name."""
    import uniplan.cli as cli
    import uniplan.executor as executor
    import uniplan.planner as planner
    import uniplan.prediction as prediction
    import uniplan.render as render
    import uniplan.world as world
    from uniplan.metrics import WeightedDistance
    from uniplan.planner import MotionGraph

    c = tracer.counts
    sample_id = tracer.name_id("world.sample")

    def ratio(key):
        def hook(args, result, state):
            c[key] += bool(result)
        return hook

    def neighbors(args, result, state):
        c["planner.neighbor_indices.returned"] += len(result)

    def value_arr(args, result, state):
        c["metrics.value_arr.elems"] += len(args[2])

    def alive(args):
        return args[0].alive_count

    def prune(args, result, alive_before):
        c["planner.prune.killed"] += alive_before - args[0].alive_count

    def build_tree(args, result, state):
        costs = result.iteration_costs
        tracer.first_solution.append(
            next((k for k, v in enumerate(costs) if math.isfinite(v)), len(costs)))

    def executed(args, result, state):
        c["executor.segments"] += len(result.segments)

    def rollout(args, result, state):
        steps = np.rint(result.t_final / args[2].step)
        c["control.rollout_batch.row_steps"] += float(steps.sum())

    def pose_is_free(result):
        if tracer.innermost_is(sample_id):
            c["world.sample.tries"] += 1
            c["world.sample.rejects"] += not result

    def step(result):
        c["executor.steps"] += 1

    spans = [
        (cli, "load_scenario", "world.load_scenario", None),
        (cli, "build_tree", "planner.build_tree", build_tree),
        (cli, "execute", "executor.execute", executed),
        (cli, "write_executed_csv", "executor.write_executed_csv", None),
        (cli, "render_plan", "render.render_plan", None),
        (cli, "render_execution", "render.render_execution", None),
        (cli, "rollout_batch", "control.rollout_batch", rollout),
        (planner, "issafe", "prediction.issafe.planner", ratio("prediction.issafe.planner.safe")),
        (executor, "issafe", "prediction.issafe.executor", ratio("prediction.issafe.executor.safe")),
        (planner, "sample_free_pose", "world.sample", None),
        (planner, "sample_uniform_pose", "world.sample", None),
        (planner, "project", "metrics.project", None),
        (planner, "prune", "planner.prune", prune, alive),
        (prediction, "region_is_free", "world.region_is_free", ratio("world.region_is_free.free")),
        (prediction, "convex_hull", "geom.convex_hull", None),
        (world, "convex_hull", "geom.convex_hull", None),
        (world, "separation", "geom.separation", None),
        (MotionGraph, "nearest_index", "planner.nearest_index", None),
        (MotionGraph, "neighbor_indices", "planner.neighbor_indices", neighbors),
        (MotionGraph, "rewire", "planner.rewire", None),
        (MotionGraph, "add_vertex", "planner.add_vertex", None),
        (WeightedDistance, "value_arr", "metrics.value_arr", value_arr),
        (WeightedDistance, "value", "metrics.value", None),
    ]
    for owner in (cli, executor, prediction):
        for attr in ("in_forward_domain", "in_backward_domain"):
            spans.append((owner, attr, "control.domain", None))
    spans.append((render, "in_forward_domain", "control.domain", None))

    for owner, attr, name, *hooks in spans:
        yield owner, attr, functools.partial(_span, tracer, name, after=hooks[0],
                                             before=hooks[1] if len(hooks) > 1 else None)
    yield world, "pose_is_free", lambda fn: _counter(fn, pose_is_free)
    yield executor, "_segment_control", lambda fn: _counter(fn, step)


@contextmanager
def traced(tracer: Tracer):
    """Patch every traced name for the duration of the block."""
    saved = []
    try:
        for owner, attr, make in _targets(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of a traced round."""
    names, start, end, parent, own = tracer.arrays()
    dur = end - start
    c = tracer.counts
    m: dict[str, float] = {}

    def calls(name):
        return int(np.count_nonzero(names == name))

    def total(name):
        return float(dur[names == name].sum())

    def share(num, den):
        return num / den if den else 0.0

    for name in ("planner.nearest_index", "planner.neighbor_indices", "planner.rewire",
                 "planner.prune", "world.region_is_free", "world.sample",
                 "geom.convex_hull", "geom.separation", "metrics.value_arr",
                 "metrics.value", "metrics.project", "control.domain"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    for name in ("planner.build_tree", "world.load_scenario", "control.rollout_batch",
                 "executor.execute", "executor.write_executed_csv", "render.render_plan",
                 "render.render_execution", "cli.plan", "cli.execute", "cli.sweep_turning"):
        m[f"{name}.s"] = total(name)

    m["planner.self_s"] = float(own[names == "planner.build_tree"].sum())
    m["planner.neighbor_indices.returned"] = c["planner.neighbor_indices.returned"]
    m["planner.prune.killed"] = c["planner.prune.killed"]
    m["planner.accept_ratio"] = share(calls("planner.add_vertex"), calls("world.sample"))

    # gaps between successive sampler calls of one build_tree
    sample_spans = names == "world.sample"
    gaps = [np.diff(start[sample_spans & (parent == p)])
            for p in np.unique(parent[sample_spans])]
    gaps_us = np.concatenate(gaps) * 1e6 if gaps else np.zeros(0)
    m["planner.iter_us_p50"] = float(np.percentile(gaps_us, 50)) if gaps_us.size else 0.0
    m["planner.iter_us_p99"] = float(np.percentile(gaps_us, 99)) if gaps_us.size else 0.0
    m["planner.first_solution_iter"] = (
        float(np.median(tracer.first_solution)) if tracer.first_solution else 0.0)

    for caller in ("planner", "executor"):
        name = f"prediction.issafe.{caller}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
        m[f"{name}.safe_ratio"] = share(c[f"{name}.safe"], calls(name))
    m["world.region_is_free.free_ratio"] = share(
        c["world.region_is_free.free"], calls("world.region_is_free"))
    m["world.sample.reject_ratio"] = share(c["world.sample.rejects"], c["world.sample.tries"])
    m["metrics.value_arr.elems"] = c["metrics.value_arr.elems"]
    m["control.rollout_batch.row_steps"] = c["control.rollout_batch.row_steps"]

    m["executor.self_s"] = float(own[names == "executor.execute"].sum())
    m["executor.steps"] = c["executor.steps"]
    m["executor.step_us"] = share(m["executor.execute.s"] * 1e6, c["executor.steps"])
    m["executor.segments"] = c["executor.segments"]

    ops = np.isin(names, ["cli.plan", "cli.execute", "cli.sweep_turning"])
    m["cli.self_s"] = float(own[ops].sum())
    return m

