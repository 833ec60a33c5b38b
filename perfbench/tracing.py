"""Spans around the simulator's public layer entry points.

A traced pass wraps each layer's entry point (untraced passes run the
program unmodified):

==================  ==================================================
span                entry point
==================  ==================================================
``ht``              ``repro.ht.record(...)``, enter to exit
``compiler``        ``GraphCompiler.compile``
``recipe.get/put``  ``RecipeCache.get`` / ``RecipeCache.put``
``runtime``         ``Runtime.execute`` / ``HLS1Runtime.execute``
``planner``         ``LayoutPlanner.price``
``serve.<policy>``  ``ServingSimulator.run``
``oracle``          ``ServingRuntime.step_cost``
``analysis``        the benchmark's own ``render()`` / ``checks()`` /
                    ``metrics()`` calls (see ``workloads.py``)
==================  ==================================================

Each span records its name, start, end and parent. A span's self time
is its duration minus the durations of its child spans; a layer's time
is the sum of its spans' self times. Spans stay in memory (one flat
integer array) until :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from collections import Counter

_now = time.perf_counter_ns

#: the pipeline's passes, in ``default_passes()`` order
PASS_NAMES = (
    "validate", "attention_lowering", "tpc_slicing", "lower_composites",
    "view_elision", "elementwise_fusion", "recompile_injection",
    "dma_staging", "emit", "tensor_parallel", "collective_injection",
    "pipeline_partition", "memory_planning",
)

#: the serve workload's policies, in the order it runs them
SERVE_POLICIES = ("continuous", "static")


class NullTracer:
    """The untraced run's tracer: spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """An in-memory span recorder with per-layer self-time totals."""

    def __init__(self):
        self.t0 = _now()
        self._name_ids: dict[str, int] = {}
        #: open spans: [id, name, start_ns, child_ns]
        self._stack: list[list] = []
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span and counter (one traced pass)."""
        #: closed spans, five values each: id, name id, start_ns, end_ns,
        #: parent id (-1 for a root span)
        self.spans = array("q")
        self._next_id = 0
        self.self_ns.clear()
        self.counts.clear()

    def open(self, name: str) -> list:
        frame = [self._next_id, name, _now(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> int:
        """Close the innermost span ``frame``; returns its duration."""
        end = _now()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        sid, name, start, child = frame
        dur = end - start
        if stack:
            parent = stack[-1]
            parent[3] += dur
            parent_id = parent[0]
        else:
            parent_id = -1
        self.self_ns[name] += dur - child
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._name_ids)
        self.spans.extend(
            (sid, name_id, start - self.t0, end - self.t0, parent_id)
        )
        return dur

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    def write(self, path) -> None:
        """Save the recorded spans as one JSON object of columns."""
        doc = {"names": sorted(self._name_ids, key=self._name_ids.get)}
        for i, col in enumerate(("id", "name", "start_ns", "end_ns",
                                 "parent")):
            doc[col] = self.spans[i::5].tolist()
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def metrics(self) -> dict:
        """The per-layer metrics of the spans recorded since ``reset``."""
        s = {k: v / 1e9 for k, v in self.self_ns.items()}
        c = self.counts

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return num * scale / den if den else 0.0

        m = {
            "ht.calls": c["ht.calls"],
            "ht.s": s.get("ht", 0.0),
            "ht.nodes": c["ht.nodes"],
            "ht.us_per_node": per(s.get("ht", 0.0), c["ht.nodes"], 1e6),
            "compiler.calls": c["compiler.calls"],
            "compiler.s": s.get("compiler", 0.0),
            "compiler.ops_out": c["compiler.ops_out"],
            "compiler.us_per_op": per(s.get("compiler", 0.0),
                                      c["compiler.ops_out"], 1e6),
        }
        for name in PASS_NAMES:
            m[f"pass.{name}.s"] = c[f"pass.{name}.ns"] / 1e9
        m["pass.hit_ratio"] = per(c["pass.hit"],
                                  c["pass.hit"] + c["pass.miss"])
        m.update({
            "recipe.hits": c["recipe.hits"],
            "recipe.misses": c["recipe.misses"],
            "recipe.hit_ratio": per(c["recipe.hits"],
                                    c["recipe.hits"] + c["recipe.misses"]),
            "recipe.get_s": s.get("recipe.get", 0.0),
            "recipe.put_s": s.get("recipe.put", 0.0),
            "runtime.calls": c["runtime.calls"],
            "runtime.s": s.get("runtime", 0.0),
            "runtime.events": c["runtime.events"],
            "runtime.us_per_event": per(s.get("runtime", 0.0),
                                        c["runtime.events"], 1e6),
            "analysis.s": s.get("analysis", 0.0),
            "planner.price_calls": c["planner.calls"],
            "planner.feasible_ratio": per(c["planner.feasible"],
                                          c["planner.calls"]),
        })
        for policy in SERVE_POLICIES:
            loop = s.get(f"serve.{policy}", 0.0)
            steps = c[f"serve.{policy}.steps"]
            m[f"serve.{policy}.loop.s"] = loop
            m[f"serve.{policy}.steps"] = steps
            m[f"serve.{policy}.loop.us_per_step"] = per(loop, steps, 1e6)
            m[f"serve.{policy}.rejected"] = c[f"serve.{policy}.rejected"]
        m.update({
            "oracle.lookups": c["oracle.lookups"],
            "oracle.measured": c["oracle.measured"],
            "oracle.replay_ratio": per(
                c["oracle.lookups"] - c["oracle.measured"],
                c["oracle.lookups"]),
            "oracle.s": c["oracle.ns"] / 1e9,
            "oracle.cold_s": c["oracle.cold_ns"] / 1e9,
        })
        return m


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every layer entry point so its calls record spans.

    The wrappers call the original functions unchanged, so a traced
    pass produces the same simulated outputs as an untraced one (the
    output check holds both to one reference). The originals are put
    back on exit, so untraced passes run the program unmodified.
    """
    import repro.ht as ht
    from repro.core.auto_layout import LayoutPlanner
    from repro.core.serving import ServingSimulator
    from repro.synapse.compiler import GraphCompiler
    from repro.synapse.recipe import RecipeCache
    from repro.synapse.runtime import HLS1Runtime, Runtime
    from repro.synapse.serving import ServingRuntime

    counts = tracer.counts
    patched = []

    def patch(owner, attr, make_wrapper):
        original = getattr(owner, attr)
        patched.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def record_wrapper(record):
        @contextlib.contextmanager
        def traced_record(*args, **kwargs):
            frame = tracer.open("ht")
            try:
                with record(*args, **kwargs) as rec:
                    yield rec
            finally:
                tracer.close(frame)
            counts["ht.calls"] += 1
            counts["ht.nodes"] += len(rec.graph.nodes)
        return traced_record

    def compile_wrapper(compile_):
        def traced_compile(self, graph):
            frame = tracer.open("compiler")
            try:
                schedule = compile_(self, graph)
            finally:
                tracer.close(frame)
            counts["compiler.calls"] += 1
            if not self.last_cache_hit:
                counts["compiler.ops_out"] += len(schedule.ops)
                for entry in schedule.stats.get("passes", ()):
                    counts[f"pass.{entry['pass']}.ns"] += (
                        entry["wall_us"] * 1e3
                    )
                    if entry["incremental"]:  # "hit" or "miss"
                        counts[f"pass.{entry['incremental']}"] += 1
            return schedule
        return traced_compile

    def get_wrapper(get):
        def traced_get(self, key):
            frame = tracer.open("recipe.get")
            try:
                schedule = get(self, key)
            finally:
                tracer.close(frame)
            counts["recipe.hits" if schedule is not None
                   else "recipe.misses"] += 1
            return schedule
        return traced_get

    def put_wrapper(put):
        def traced_put(self, key, schedule):
            frame = tracer.open("recipe.put")
            try:
                put(self, key, schedule)
            finally:
                tracer.close(frame)
        return traced_put

    def execute_wrapper(execute):
        def traced_execute(self, schedule, **kwargs):
            frame = tracer.open("runtime")
            try:
                result = execute(self, schedule, **kwargs)
            finally:
                tracer.close(frame)
            counts["runtime.calls"] += 1
            counts["runtime.events"] += len(result.timeline.events)
            return result
        return traced_execute

    def price_wrapper(price):
        def traced_price(self, layout):
            frame = tracer.open("planner")
            try:
                pricing = price(self, layout)
            finally:
                tracer.close(frame)
            counts["planner.calls"] += 1
            counts["planner.feasible"] += pricing.feasible
            return pricing
        return traced_price

    def run_wrapper(run):
        def traced_run(self, requests, policy):
            frame = tracer.open(f"serve.{policy}")
            try:
                result = run(self, requests, policy)
            finally:
                tracer.close(frame)
            counts[f"serve.{policy}.steps"] += (
                result.prefill_steps + result.decode_steps
            )
            counts[f"serve.{policy}.rejected"] += sum(
                1 for r in result.records if r.finish_reason == "rejected"
            )
            return result
        return traced_run

    def step_cost_wrapper(step_cost):
        def traced_step_cost(self, key, graph_factory):
            measured = self.measured
            frame = tracer.open("oracle")
            try:
                return step_cost(self, key, graph_factory)
            finally:
                dur = tracer.close(frame)
                counts["oracle.lookups"] += 1
                counts["oracle.ns"] += dur
                if self.measured != measured:
                    counts["oracle.measured"] += 1
                    counts["oracle.cold_ns"] += dur
        return traced_step_cost

    patch(ht, "record", record_wrapper)
    patch(GraphCompiler, "compile", compile_wrapper)
    patch(RecipeCache, "get", get_wrapper)
    patch(RecipeCache, "put", put_wrapper)
    patch(Runtime, "execute", execute_wrapper)
    patch(HLS1Runtime, "execute", execute_wrapper)
    patch(LayoutPlanner, "price", price_wrapper)
    patch(ServingSimulator, "run", run_wrapper)
    patch(ServingRuntime, "step_cost", step_cost_wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
