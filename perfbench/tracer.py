"""Traced-run tooling: wrappers around each layer's entry points.

Only the traced run installs these; untraced samples never import this
module.  Each wrapper records, in memory:

* a **span** (id, name, layer, start, end, parent span, run id) for calls
  at the granularity of a sweep, job, report section or transaction;
* or, for per-cycle and per-message entries (the network kernel's
  ``step`` and the delivery handlers), an **aggregate** updated in place:
  call count, inclusive time and self time — never one span per call.

Self time is kept exactly with a call stack: when a wrapped call
returns, its duration is charged to the enclosing wrapped call as child
time, and its own self time is its duration minus its children's.  The
layer of a wrapped function is its ``repro.<layer>`` module.

Spans are written out when the run ends, as JSON lines and as Chrome
trace-event JSON (opens in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

def layer_of(fn: Callable) -> str:
    module = getattr(fn, "__module__", "") or ""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "bench"


class Tracer:
    """In-memory span and aggregate recorder for one traced process."""

    def __init__(self, run_id: str = "run",
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict] = []
        #: Frames of the wrapped calls in progress: [child_time, span_id].
        self.stack: list[list] = []
        self.layer_self: dict[str, float] = defaultdict(float)
        #: name -> [layer, count, inclusive_s, self_s]
        self.aggs: dict[str, list] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.instances: dict[str, list] = defaultdict(list)
        self._patches: list[tuple[Any, str, Any]] = []
        self._next_id = 0

    # -- recording -----------------------------------------------------
    def span(self, fn: Callable, name: str, layer: Optional[str] = None,
             on_return: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record one span per call.  ``on_return``
        receives ``(result, args, kwargs)`` to update counts."""
        layer = layer or layer_of(fn)
        clock, stack, spans = self.clock, self.stack, self.spans
        layer_self, run_id = self.layer_self, self.run_id

        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # A span opened by hand inside this call (a report
                # section announced by a progress callback) ends with it.
                while stack[-1] is not frame:
                    self.close_span(stack[-1])
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                layer_self[layer] += own
                if stack:
                    stack[-1][0] += dur
                spans.append({"id": span_id, "parent": parent,
                              "name": name, "layer": layer,
                              "start": start, "end": end, "self": own,
                              "run": run_id})
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self, fn: Callable, name: str,
                  layer: Optional[str] = None,
                  on_return: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to add its count and time to one aggregate."""
        layer = layer or layer_of(fn)
        clock, stack = self.clock, self.stack
        layer_self = self.layer_self
        agg = self.aggs.setdefault(name, [layer, 0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                own = dur - frame[0]
                agg[1] += 1
                agg[2] += dur
                agg[3] += own
                layer_self[layer] += own
                if stack:
                    stack[-1][0] += dur
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def open_span(self, name: str, layer: str) -> list:
        """Start a span by hand (e.g. a report section announced by a
        progress callback); close it with :meth:`close_span`."""
        self._next_id += 1
        frame = [0.0, self._next_id, name, layer,
                 self.stack[-1][1] if self.stack else None, self.clock()]
        self.stack.append(frame)
        return frame

    def close_span(self, frame: list) -> None:
        if not self.stack or self.stack[-1] is not frame:
            raise RuntimeError(f"span {frame[2]!r} closed out of order")
        end = self.clock()
        self.stack.pop()
        child, span_id, name, layer, parent, start = frame
        dur = end - start
        own = dur - child
        self.layer_self[layer] += own
        if self.stack:
            self.stack[-1][0] += dur
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "layer": layer, "start": start, "end": end,
                           "self": own, "run": self.run_id})

    def add_span(self, name: str, layer: str, start: float, end: float,
                 parent: Optional[int] = None) -> int:
        """Record a span measured elsewhere (e.g. an HTTP call timed by
        the client); it takes no part in self-time accounting."""
        self._next_id += 1
        self.spans.append({"id": self._next_id, "parent": parent,
                           "name": name, "layer": layer, "start": start,
                           "end": end, "self": end - start,
                           "run": self.run_id})
        return self._next_id

    # -- installation --------------------------------------------------
    def patch_function(self, module, attr: str, wrap: Callable) -> None:
        """Replace ``module.attr`` and every ``from``-import of the same
        object in loaded ``repro`` modules with ``wrap(original)``."""
        original = getattr(module, attr)
        wrapped = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def patch_method(self, cls, attr: str, wrap: Callable) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrap(original))

    def register_instances(self, cls, label: str) -> None:
        """Keep every instance ``cls`` builds, for counter read-out."""
        original = cls.__dict__["__init__"]
        instances = self.instances[label]

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            instances.append(obj)

        self._patches.append((cls, "__init__", original))
        cls.__init__ = __init__

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------
    def self_time_by_layer(self) -> dict[str, float]:
        return dict(self.layer_self)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")
            for name, (layer, count, total, own) in sorted(
                    self.aggs.items()):
                fh.write(json.dumps({"aggregate": name, "layer": layer,
                                     "count": count, "total_s": total,
                                     "self_s": own,
                                     "run": self.run_id}) + "\n")

    def write_chrome(self, path: str, pid: int = 1) -> None:
        """Chrome trace-event JSON: one complete (``X``) event per span,
        aggregates as arguments of one metadata event."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [{"name": s["name"], "cat": s["layer"], "ph": "X",
                   "ts": (s["start"] - origin) * 1e6,
                   "dur": (s["end"] - s["start"]) * 1e6,
                   "pid": pid, "tid": 1,
                   "args": {"self_us": s["self"] * 1e6, "id": s["id"],
                            "parent": s["parent"], "run": s["run"]}}
                  for s in self.spans]
        events.append({"name": "aggregates", "ph": "i", "s": "g",
                       "ts": 0, "pid": pid, "tid": 1,
                       "args": {name: {"layer": a[0], "count": a[1],
                                       "total_s": a[2], "self_s": a[3]}
                                for name, a in self.aggs.items()}})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"run": self.run_id}}, fh)


def install_program_wrappers(tracer: Tracer,
                             job_functions: bool = True) -> None:
    """Wrap the entry points of every ``repro`` layer the benchmark's
    workloads reach.  Must run before the first call into the program.

    ``job_functions`` also wraps the sweep job bodies, so their own work
    (building the simulator and network, tallying rows) is charged to
    the analysis and network layers rather than to the runner that
    calls them.  A process that pickles jobs to a worker pool (the
    server) must leave it off: a wrapper cannot be pickled.
    """
    import repro.analysis.experiments as experiments
    import repro.analysis.report as report
    import repro.coherence.processor as processor
    import repro.coherence.system as system
    import repro.core.engine as engine
    import repro.core.grouping as grouping
    import repro.network as network_factory
    import repro.network.network as network
    import repro.runner.cache as cache
    import repro.runner.jobs as jobs
    import repro.sim.engine as sim_engine
    import repro.workloads.patterns as patterns
    from repro.network.legacy import LegacyMeshNetwork
    from repro.network.soa import SoaMeshNetwork
    from repro.workloads import apsp, barnes_hut, lu

    t = tracer
    counts = t.counts

    # sim: the calendar loops (spans; the network clock runs inside).
    for attr in ("run", "run_until_event"):
        t.patch_method(sim_engine.Simulator, attr,
                       lambda fn, a=attr: t.span(fn, f"Simulator.{a}"))
    t.register_instances(sim_engine.Simulator, "Simulator")

    # network: the per-cycle step of whichever kernel is built.
    for cls in (network.MeshNetwork, SoaMeshNetwork, LegacyMeshNetwork):
        if "step" in cls.__dict__:
            t.patch_method(cls, "step", lambda fn, c=cls: t.aggregate(
                fn, f"{c.__name__}.step", "network"))

    # core + brcp: plan building and transactions.
    t.patch_function(grouping, "build_plan",
                     lambda fn: t.aggregate(fn, "build_plan"))
    t.patch_method(engine.InvalidationEngine, "run",
                   lambda fn: t.span(fn, "InvalidationEngine.run"))
    t.patch_method(engine.InvalidationEngine, "handle_delivery",
                   lambda fn: t.aggregate(fn, "InvalidationEngine.deliver"))
    t.register_instances(engine.InvalidationEngine, "InvalidationEngine")

    # coherence + workloads: program replay, message dispatch, traces.
    def on_program(stats, _args, _kwargs):
        counts["coherence.references"] += stats["references"]
        counts["coherence.misses"] += stats["misses"]
        counts["coherence.invalidations"] += stats["invalidations"]
        counts["coherence.exec_cycles"] += stats["execution_cycles"]

    t.patch_function(processor, "run_program",
                     lambda fn: t.span(fn, "run_program",
                                       on_return=on_program))
    t.patch_method(system.DSMSystem, "_dispatch",
                   lambda fn: t.aggregate(fn, "DSMSystem.dispatch"))
    for module in (barnes_hut, lu, apsp):
        t.patch_function(module, "generate_traces",
                         lambda fn, m=module: t.span(
                             fn, f"{m.__name__.rsplit('.', 1)[1]}"
                                 f".generate_traces"))
    t.patch_function(patterns, "make_pattern",
                     lambda fn: t.aggregate(fn, "make_pattern"))

    # analysis: the public experiment entry points.
    for attr in ("run_invalidation_sweep", "run_analytical_sweep",
                 "run_application_experiment", "miss_latency_micro",
                 "read_miss_breakdown"):
        t.patch_function(experiments, attr,
                         lambda fn, a=attr: t.span(fn, a))
    t.patch_function(report, "generate_report",
                     lambda fn: t.span(fn, "generate_report"))
    if job_functions:
        for attr in ("_invalidation_scheme_job", "_analytical_scheme_job"):
            t.patch_function(experiments, attr,
                             lambda fn, a=attr: t.span(fn, a.strip("_")))
        t.patch_function(network_factory, "make_network",
                         lambda fn: t.span(fn, "make_network"))

    # runner: scheduling, cache I/O, key hashing.
    def on_jobs(_result, args, kwargs):
        counts["runner.jobs"] += len(args[0] if args else kwargs["jobs"])

    def on_load(result, _args, _kwargs):
        counts["runner.cache_misses" if result is cache.MISS
               else "runner.cache_hits"] += 1

    def on_store(stored, _args, _kwargs):
        counts["runner.cache_stores"] += bool(stored)

    t.patch_function(jobs, "run_jobs",
                     lambda fn: t.span(fn, "run_jobs", on_return=on_jobs))
    t.patch_method(cache.ResultCache, "load",
                   lambda fn: t.aggregate(fn, "ResultCache.load",
                                          on_return=on_load))
    t.patch_method(cache.ResultCache, "store",
                   lambda fn: t.aggregate(fn, "ResultCache.store",
                                          on_return=on_store))
    t.patch_function(cache, "key_digest",
                     lambda fn: t.aggregate(fn, "key_digest"))
    t.patch_function(cache, "code_fingerprint",
                     lambda fn: t.aggregate(fn, "code_fingerprint"))


def _agg(tracer: Tracer, name: str, index: int) -> float:
    entry = tracer.aggs.get(name)
    return float(entry[index]) if entry else 0.0


def layer_metrics(tracer: Tracer, networks: list) -> dict[str, float]:
    """The per-layer metric set of one traced sample."""
    t, c = tracer, tracer.counts
    own = t.layer_self
    sims = t.instances["Simulator"]
    engines = t.instances["InvalidationEngine"]
    counters = [net.phase_counters() for net in networks]
    dispatched = sum(s.dispatched for s in sims)
    stepped = sum(k["cycles_stepped"] for k in counters)
    sim_s = own.get("sim", 0.0)
    net_s = own.get("network", 0.0)
    records = [r for e in engines for r in e.records]
    out = {
        "sim.dispatched": float(dispatched),
        "sim.run_s": sim_s,
        "network.cycles_stepped": float(stepped),
        "network.cycles_skipped": float(sum(k["cycles_skipped"]
                                            for k in counters)),
        "network.flit_hops": float(sum(k["total_flit_hops"]
                                       for k in counters)),
        "network.injected": float(sum(k["injected"] for k in counters)),
        "network.step_s": net_s,
        "core.plans": _agg(t, "build_plan", 1),
        "core.plan_s": _agg(t, "build_plan", 3),
        "core.transactions": float(len(records)),
        "core.messages": float(sum(r.total_messages for r in records)),
        "core.txn_s": own.get("core", 0.0) + own.get("brcp", 0.0)
        - _agg(t, "build_plan", 3),
        "coherence.references": c["coherence.references"],
        "coherence.misses": c["coherence.misses"],
        "coherence.invalidations": c["coherence.invalidations"],
        "coherence.exec_cycles": c["coherence.exec_cycles"],
        "coherence.app_s": own.get("coherence", 0.0),
        "workloads.tracegen_s": own.get("workloads", 0.0),
        "runner.jobs": c["runner.jobs"],
        "runner.cache_hits": c["runner.cache_hits"],
        "runner.cache_misses": c["runner.cache_misses"],
        "runner.cache_stores": c["runner.cache_stores"],
        "runner.run_jobs_s": sum(s["self"] for s in t.spans
                                 if s["name"] == "run_jobs"),
        "runner.load_s": _agg(t, "ResultCache.load", 3),
        "runner.store_s": _agg(t, "ResultCache.store", 3),
        "runner.key_s": _agg(t, "key_digest", 3)
        + _agg(t, "code_fingerprint", 3),
    }
    return with_ratios(out)


def with_ratios(layers: dict[str, float]) -> dict[str, float]:
    """``layers`` plus the per-event, per-cycle and hit ratios derived
    from its counts and times (so summed layer sets stay consistent)."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits = layers["runner.cache_hits"]
    return dict(layers, **{
        "sim.us_per_event": ratio(layers["sim.run_s"] * 1e6,
                                  layers["sim.dispatched"]),
        "network.us_per_cycle": ratio(layers["network.step_s"] * 1e6,
                                      layers["network.cycles_stepped"]),
        "runner.hit_ratio": ratio(hits,
                                  hits + layers["runner.cache_misses"]),
    })


def section_times(tracer: Tracer) -> dict[str, float]:
    """Inclusive time of each report section span (``section:<name>``)."""
    out: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        if s["name"].startswith("section:"):
            out[s["name"][len("section:"):]] += s["end"] - s["start"]
    return dict(out)

