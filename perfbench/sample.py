"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/sample.py '<json config>'``.  The config names
the ``mode`` and its inputs; the last stdout line is a JSON result.
Modes:

* ``paper-report``: one ``generate_report`` call (cold or warm, by the
  state of the cache directory it is given);
* ``sharing-sweep``: the sweep twice in this process (cold, then warm);
* ``reference``: the served specs run serially through ``run_jobs``;
  prints the SHA-256 of each canonical result body;
* ``serve``: ``repro serve`` with the layer wrappers installed (traced
  runs only); writes the per-layer rollup when the server exits.

With ``"trace": <path prefix>`` the layer wrappers are installed before
the first timed call and the spans are written to ``<prefix>.jsonl``
and ``<prefix>.trace.json``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import stats
import workloads


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Networks(list):
    """Stand-in for ``repro.network.network.PROFILE_REGISTRY``: records
    the kernel class of every network built, and keeps the instances
    only when ``keep`` (for counter read-out)."""

    def __init__(self, keep: bool) -> None:
        super().__init__()
        self.keep = keep
        self.kinds: set[str] = set()

    def append(self, net) -> None:
        self.kinds.add(type(net).__name__)
        if self.keep:
            super().append(net)


def _start_tracing(config: dict):
    if not config.get("trace"):
        return None
    import tracer

    t = tracer.Tracer(run_id=config.get("run_id", "sample"))
    tracer.install_program_wrappers(t)
    return t


def _finish_tracing(t, config: dict, networks: list) -> dict:
    import tracer

    prefix = config["trace"]
    t.write_jsonl(prefix + ".jsonl")
    t.write_chrome(prefix + ".trace.json")
    metrics = tracer.layer_metrics(t, networks)
    own = t.self_time_by_layer()
    sections = tracer.section_times(t)
    for key, metric in (("table", "analysis.tables_s"),
                        ("sweep", "analysis.sweep_s"),
                        ("analytical", "analysis.analytical_s"),
                        ("application", "analysis.apps_s")):
        metrics[metric] = sum(v for name, v in sections.items()
                              if key in name.lower())
    return {"layers": metrics, "self_by_layer": own,
            "sections": sections}


def run_paper_report(config: dict) -> dict:
    import repro.analysis.report as report
    import repro.network.network as network

    networks = _Networks(keep=bool(config.get("trace")))
    network.PROFILE_REGISTRY = networks
    t = _start_tracing(config)
    marks: list[float] = []
    section: list = []

    def progress(message: str) -> None:
        marks.append(time.perf_counter())
        if t is not None and not message.startswith(" "):
            if section:
                t.close_span(section.pop())
            section.append(t.open_span(f"section:{message.strip()}",
                                       "analysis"))

    setup_s = time.monotonic() - config["spawn_t"]
    start = time.perf_counter()
    if t is not None:
        root = t.open_span("bench.paper-report", "bench")
    text = report.generate_report(scale=workloads.REPORT_SCALE,
                                  seed=config["seed"], jobs=1,
                                  progress=progress)
    if t is not None:
        t.close_span(root)   # the wrapped call closed the last section
    end = time.perf_counter()
    bounds = [start] + marks[1:] + [end] if marks else [start, end]
    out = {"setup_s": setup_s, "total_s": end - start,
           "op_s": [b - a for a, b in zip(bounds, bounds[1:])],
           "digest": stats.digest_text(text),
           "sections": text.count("\n## "),
           "kernels": sorted(networks.kinds)}
    if t is not None:
        out["trace"] = _finish_tracing(t, config, list(networks))
    out["rss_mib"] = _peak_rss_mib()
    return out


def run_sharing_sweep(config: dict) -> dict:
    from repro.analysis.experiments import run_invalidation_sweep
    from repro.config import paper_parameters
    import repro.network.network as network

    networks = _Networks(keep=True)
    network.PROFILE_REGISTRY = networks
    seed = config["seed"]
    jobs = [(paper_parameters(width).evolve(jobs=1), kind, degrees, scheme)
            for width, kind, degrees in workloads.SHARING_CONFIGS
            for scheme in workloads.SWEEP_SCHEMES]
    kept: list = []
    t = _start_tracing(config)

    def one_pass() -> tuple[float, list[float], list, int, int]:
        rows: list = []
        op_s: list[float] = []
        injected = delivered = 0
        begin = time.perf_counter()
        for params, kind, degrees, scheme in jobs:
            t0 = time.perf_counter()
            rows += run_invalidation_sweep(
                [scheme], degrees, per_degree=workloads.SHARING_PER_DEGREE,
                params=params, kind=kind, seed=seed, jobs=1,
                use_cache=False)
            op_s.append(time.perf_counter() - t0)
            for net in networks:
                counters = net.phase_counters()
                injected += counters["injected"]
                delivered += counters["delivered"]
            if t is not None:
                kept.extend(networks)
            networks.clear()
        return time.perf_counter() - begin, op_s, rows, injected, delivered

    setup_s = time.monotonic() - config["spawn_t"]
    passes = []
    for name in ("cold", "warm"):
        if t is not None:
            root = t.open_span(f"bench.sharing-sweep.{name}", "bench")
        passes.append(one_pass())
        if t is not None:
            t.close_span(root)
            if name == "cold":
                cold_self = t.self_time_by_layer()
    (cold_s, op_s, rows, injected, delivered), \
        (_, warm_op_s, warm_rows, warm_inj, warm_del) = passes
    out = {"setup_s": setup_s, "total_s": cold_s,
           "op_s": op_s, "warm_op_s": warm_op_s,
           "digest": stats.digest_rows(rows),
           "warm_digest": stats.digest_rows(warm_rows),
           "injected": injected + warm_inj,
           "delivered": delivered + warm_del,
           "kernels": sorted(networks.kinds)}
    if t is not None:
        out["trace"] = dict(_finish_tracing(t, config, kept),
                            cold_self_by_layer=cold_self)
    out["rss_mib"] = _peak_rss_mib()
    return out


def run_reference(config: dict) -> dict:
    from repro.runner import key_digest, run_jobs
    from repro.serve.jobspec import JobSpec

    bodies = {}
    for spec in workloads.served_specs(config["seed"]):
        job = JobSpec.from_mapping(spec).to_job()
        digest = key_digest(job.key)
        [result] = run_jobs([job], workers=1, cache=None,
                            journal_dir=config["journal_dir"])
        body = stats.result_body(digest, result)
        bodies[digest] = hashlib.sha256(body).hexdigest()
    return {"bodies": bodies}


def run_serve(config: dict) -> dict:
    """``repro serve`` under the layer wrappers (traced runs only)."""
    import repro.cli as cli
    import repro.network.network as network
    import repro.serve  # noqa: F401  (loaded so its imports get wrapped)
    import tracer

    networks = _Networks(keep=True)
    network.PROFILE_REGISTRY = networks
    t = tracer.Tracer(run_id=config.get("run_id", "serve"))
    tracer.install_program_wrappers(t, job_functions=False)
    code = cli.main(config["argv"])
    result = _finish_tracing(t, config, list(networks))
    with open(config["trace"] + ".layers.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return {"exit": code}


MODES = {"paper-report": run_paper_report,
         "sharing-sweep": run_sharing_sweep,
         "reference": run_reference,
         "serve": run_serve}


def main(argv: list[str]) -> int:
    config = json.loads(argv[1])
    result = MODES[config["mode"]](config)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
