#!/usr/bin/env python3
"""The repository benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload paper-report --seed 1 \
        --seconds 38 --trace 0

Run from the root of a checkout.  Every end-to-end sample runs untraced
in a fresh interpreter (``jobs=1``, the program's default kernel, a
throwaway ``REPRO_CACHE_DIR``); samples repeat while ``--seconds``
last.  A pass time adds up each step's fastest time over the samples
(a step is a report section, a sweep job or a round of requests);
``setup_s`` and ``peak_rss_mib`` are medians.  ``--trace 1``
instead makes the traced run: per-layer counts and self times from
wrappers around each layer's entry points (see ``tracer.py``), checked
to repeat exactly across two traced samples, plus the tracing overhead.

Every sample's output is checked; a wrong output fails the run (exit 1,
``"correct": false``) instead of producing a time.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Throwaway sample directories and trace output (ignored by git).
WORK = os.path.join(ROOT, ".perfbench")

#: The seed recorded numbers use; seed 2 is held out for claims.
DEFAULT_SEED = 1
MIN_SAMPLES = 3
#: A run stops starting samples once this much wall time is gone, so it
#: ends well inside the 180 s a run may take.
RUN_CAP_S = 140.0
CHILD_TIMEOUT_S = 120.0

WORKLOADS = ("paper-report", "sharing-sweep", "served-sweeps")

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
              "req_per_s": "1/s", "p50_ms": "ms", "peak_rss_mib": "MiB"}

#: Per-layer metric -> unit; every traced run reports all of them (0 for
#: a layer the workload never reaches).
PER_LAYER = {
    "sim.dispatched": "count", "sim.run_s": "s", "sim.us_per_event": "us",
    "network.cycles_stepped": "count", "network.cycles_skipped": "count",
    "network.flit_hops": "count", "network.injected": "count",
    "network.step_s": "s", "network.us_per_cycle": "us",
    "core.plans": "count", "core.plan_s": "s",
    "core.transactions": "count", "core.messages": "count",
    "core.txn_s": "s",
    "coherence.references": "count", "coherence.misses": "count",
    "coherence.invalidations": "count",
    "coherence.exec_cycles": "cycles", "coherence.app_s": "s",
    "workloads.tracegen_s": "s",
    "analysis.tables_s": "s", "analysis.sweep_s": "s",
    "analysis.analytical_s": "s", "analysis.apps_s": "s",
    "runner.jobs": "count", "runner.cache_hits": "count",
    "runner.cache_misses": "count", "runner.cache_stores": "count",
    "runner.hit_ratio": "ratio", "runner.run_jobs_s": "s",
    "runner.load_s": "s", "runner.store_s": "s", "runner.key_s": "s",
    "serve.requests": "count", "serve.failed": "count",
    "serve.hits": "count", "serve.misses": "count",
    "serve.coalesced": "count", "serve.miss_ms": "ms",
    "serve.hit_p90_ms": "ms", "serve.hit_p99_ms": "ms",
    "trace.overhead": "ratio", "trace.net_sim_share": "ratio",
}

#: Per-layer metrics that are counts of simulated or served work: they
#: must repeat exactly between two traced samples of the same code.
COUNTS = tuple(name for name, unit in PER_LAYER.items()
               if unit in ("count", "cycles"))


class RunFailed(RuntimeError):
    """A sample crashed or its output failed a check."""


# ----------------------------------------------------------------------
# Samples in fresh interpreters
# ----------------------------------------------------------------------
def child_env(cache_dir: str) -> dict:
    """The caller's environment minus every ``REPRO_*`` setting, with
    the checkout's ``src`` on the path and a throwaway cache root (the
    sweep journal lives under it)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(PYTHONPATH=SRC, REPRO_CACHE_DIR=cache_dir,
               PYTHONHASHSEED="0", PYTHONUNBUFFERED="1")
    return env


def new_workdir() -> str:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix="sample-", dir=WORK)


def run_child(config: dict, workdir: str) -> dict:
    """Run ``sample.py`` with ``config`` in a fresh interpreter whose
    working directory is ``workdir``; returns its JSON result."""
    config = dict(config, spawn_t=time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sample.py"),
         json.dumps(config)],
        cwd=workdir, env=child_env(os.path.join(workdir, "cache")),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RunFailed(f"{config['mode']} sample exited "
                        f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm_imports() -> None:
    """Import the program once so bytecode caches exist before any
    sample is timed (the first interpreter in a fresh checkout compiles
    every module)."""
    workdir = new_workdir()
    try:
        subprocess.run([sys.executable, "-c",
                        "import repro.analysis.report, repro.serve, "
                        "repro.cli"],
                       cwd=workdir,
                       env=child_env(os.path.join(workdir, "cache")),
                       check=True, timeout=CHILD_TIMEOUT_S,
                       capture_output=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_expected() -> dict:
    path = os.path.join(HERE, "expected.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Checks:
    """Output checks of one run; any failure fails the run."""

    def __init__(self) -> None:
        self.failed: list[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok and what not in self.failed:
            self.failed.append(what)

    def equal_all(self, values: list, what: str) -> None:
        self.require(len(set(values)) <= 1, f"{what} differ: "
                     f"{sorted(set(map(str, values)))}")

    def expected(self, workload: str, seed: int, digest: str) -> None:
        want = load_expected().get(workload, {}).get(str(seed))
        if want is not None:
            self.require(digest == want, f"{workload} seed {seed}: "
                         f"output digest {digest} != recorded {want}")


def steal_ticks() -> int:
    """CPU time the hypervisor gave to other guests, in clock ticks
    summed over this machine's CPUs (0 where not reported)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def repeat_samples(seconds: float, sample) -> list:
    """Call ``sample()`` while ``seconds`` last (at least
    ``MIN_SAMPLES`` times, never past ``RUN_CAP_S``).  Each sample notes
    the share of CPU time stolen by the hypervisor while it ran."""
    out = []
    begin = time.monotonic()
    tick_s = 1.0 / os.sysconf("SC_CLK_TCK")
    cpus = os.cpu_count() or 1
    while True:
        t0 = time.monotonic()
        stolen = steal_ticks()
        out.append(sample())
        took = time.monotonic() - t0
        out[-1]["steal"] = (steal_ticks() - stolen) * tick_s / (took * cpus)
        # Start another sample only if one as long as the last still
        # ends within ``seconds``.
        elapsed = time.monotonic() - begin
        if len(out) >= MIN_SAMPLES and elapsed + took > seconds:
            return out
        if elapsed + took > RUN_CAP_S:
            return out


# ----------------------------------------------------------------------
# Batch workloads: paper-report, sharing-sweep
# ----------------------------------------------------------------------
def paper_report_sample(seed: int, trace: str = "") -> dict:
    workdir = new_workdir()
    try:
        config = {"mode": "paper-report", "seed": seed}
        cold = run_child(dict(config, trace=trace and trace + "-cold",
                              run_id="cold"), workdir)
        warm = run_child(dict(config, trace=trace and trace + "-warm",
                              run_id="warm"), workdir)
        return {"cold": cold, "warm": warm}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def sharing_sweep_sample(seed: int, trace: str = "") -> dict:
    workdir = new_workdir()
    try:
        return {"cold": run_child({"mode": "sharing-sweep", "seed": seed,
                                   "trace": trace, "run_id": "cold"},
                                  workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_batch(workload: str, seed: int, samples: list,
                checks: Checks) -> None:
    digests = []
    for s in samples:
        cold = s["cold"]
        digests.append(cold["digest"])
        if "warm" in s:
            digests.append(s["warm"]["digest"])
        if "warm_digest" in cold:
            digests.append(cold["warm_digest"])
        if "injected" in cold:
            checks.require(cold["injected"] == cold["delivered"],
                           f"injected {cold['injected']} != delivered "
                           f"{cold['delivered']}")
            checks.require(cold["injected"] > 0, "no message injected")
        if workload == "paper-report":
            checks.require(cold["sections"] >= 4,
                           f"report has {cold['sections']} sections")
    checks.equal_all(digests, "cold and warm output digests")
    checks.equal_all([tuple(s["cold"]["kernels"]) for s in samples],
                     "kernel classes built")
    checks.expected(workload, seed, digests[0])


def batch_metrics(samples: list) -> dict:
    """End-to-end figures of a batch run.  The pass times add up each
    step's fastest time over the samples (a report section or a sweep
    job is a step); see ``README.md`` for why not the median total."""
    cold = stats.fastest([s["cold"]["op_s"] for s in samples])
    warm = stats.fastest([warm_steps(s) for s in samples])
    setups = [s["cold"]["setup_s"] for s in samples]
    setups += [s["warm"]["setup_s"] for s in samples if "warm" in s]
    rss = [max(s["cold"]["rss_mib"], s.get("warm", s["cold"])["rss_mib"])
           for s in samples]
    return {
        "setup_s": stats.median(setups),
        "cold_s": sum(cold),
        "warm_s": sum(warm),
        "req_per_s": len(cold) / sum(cold),
        "p50_ms": stats.median(cold) * 1e3,
        "peak_rss_mib": stats.median(rss),
    }


def batch_attempted(samples: list) -> int:
    return sum(len(s["cold"]["op_s"]) + len(warm_steps(s)) for s in samples)


def warm_steps(sample: dict) -> list:
    """The warm pass's step times: the warm report process's sections,
    or the sweep's second pass in the cold process."""
    return (sample["warm"]["op_s"] if "warm" in sample
            else sample["cold"]["warm_op_s"])


# ----------------------------------------------------------------------
# served-sweeps: repro serve in its own process, driven over HTTP
# ----------------------------------------------------------------------
def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    fd = proc.stdout.fileno()
    line = b""
    while not line.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise RunFailed("server did not announce its address")
        chunk = os.read(fd, 1)
        if not chunk:
            raise RunFailed("server exited before announcing its address")
        line += chunk
    return line.decode()


def _server_peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RunFailed("no VmHWM for the server process")


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
    # The worker pool lives in the server's process group.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    proc.stdout.close()


async def _drive_server(port: int, specs: list[dict], spawn_t: float,
                        recorder) -> dict:
    import httpclient

    host = "127.0.0.1"
    await httpclient.wait_healthy(host, port, timeout=60)
    setup_s = time.monotonic() - spawn_t
    conns = [httpclient.Connection(host, port)
             for _ in range(workloads.SERVED_CONNECTIONS)]
    try:
        for conn in conns:
            await conn.open()
        n = len(conns)
        halves = [specs[i::n] for i in range(n)]
        cold = await httpclient.run_phase(conns, halves,
                                          workloads.SERVED_COLD_ROUND)
        per_conn = workloads.SERVED_WARM_REQUESTS // n
        warm_plans = [[half[k % len(half)] for k in range(per_conn)]
                      for half in halves]
        warm = await httpclient.run_phase(conns, warm_plans,
                                          workloads.SERVED_WARM_ROUND)
        metrics = await conns[0].request("GET", "/metrics")
        results = {}
        for r in cold.responses:
            digest = r.headers.get("x-digest", "")
            got = await conns[0].request("GET", f"/results/{digest}")
            results[digest] = (got.status,
                               hashlib.sha256(got.body).hexdigest())
    finally:
        for conn in conns:
            await conn.close()
    if recorder is not None:
        recorder(cold, "cold")
        recorder(warm, "warm")
    return {"setup_s": setup_s, "cold": cold, "warm": warm,
            "metrics": json.loads(metrics.body), "results": results}


def served_sample(seed: int, trace: str = "", recorder=None) -> dict:
    workdir = new_workdir()
    argv = ["serve", "--host", "127.0.0.1", "--port", "0",
            "--workers", "1"]
    if trace:
        cmd = [sys.executable, os.path.join(HERE, "sample.py"),
               json.dumps({"mode": "serve", "argv": argv, "trace": trace,
                           "run_id": "server"})]
    else:
        cmd = [sys.executable, "-m", "repro"] + argv
    spawn_t = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=workdir,
                            env=child_env(os.path.join(workdir, "cache")),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        line = _read_line(proc, time.monotonic() + 60)
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        out = asyncio.run(_drive_server(port, workloads.served_specs(seed),
                                        spawn_t, recorder))
        out["rss_mib"] = _server_peak_rss_mib(proc.pid)
    finally:
        _stop_server(proc)
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        with open(trace + ".layers.json", encoding="utf-8") as fh:
            out["trace"] = json.load(fh)
    return out


def served_reference(seed: int) -> dict:
    """SHA-256 of each spec's canonical body, run serially through
    ``run_jobs`` in a fresh interpreter, outside any timed region."""
    workdir = new_workdir()
    try:
        return run_child({"mode": "reference", "seed": seed,
                          "journal_dir": os.path.join(workdir, "journal")},
                         workdir)["bodies"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_served(seed: int, samples: list, checks: Checks) -> None:
    reference = served_reference(seed)
    n_specs = len(workloads.served_specs(seed))
    warm_n = (workloads.SERVED_WARM_REQUESTS
              // workloads.SERVED_CONNECTIONS
              * workloads.SERVED_CONNECTIONS)
    for s in samples:
        cold, warm = s["cold"].responses, s["warm"].responses
        checks.require(all(r.status == 200 for r in cold + warm),
                       "a POST /jobs answered other than 200")
        checks.require(all(r.headers.get("x-cache") == "miss"
                           for r in cold), "a cold request was not a miss")
        checks.require(all(r.headers.get("x-cache") == "hit"
                           for r in warm), "a warm request was not a hit")
        checks.require(set(s["results"]) == set(reference),
                       "served digests differ from the serial run's")
        for digest, (status, body_sha) in s["results"].items():
            checks.require(status == 200 and body_sha
                           == reference.get(digest),
                           f"GET /results/{digest[:12]} differs from the "
                           f"serial run_jobs body")
        m = s["metrics"]
        checks.require((m["misses"], m["hits"], m["coalesced"],
                        m["failed"]) == (n_specs, warm_n, 0, 0),
                       f"server counts misses/hits/coalesced/failed = "
                       f"{m['misses']}/{m['hits']}/{m['coalesced']}/"
                       f"{m['failed']}, want {n_specs}/{warm_n}/0/0")


def served_metrics(samples: list) -> dict:
    """End-to-end figures of a served run: phase times add up each
    round's fastest time over the samples, and ``p50_ms`` is the median
    over warm requests of each request's fastest latency."""
    cold = stats.fastest([s["cold"].round_s for s in samples])
    warm = stats.fastest([s["warm"].round_s for s in samples])
    latency = stats.fastest([[r.latency for r in s["warm"].responses]
                             for s in samples])
    return {
        "setup_s": stats.median([s["setup_s"] for s in samples]),
        "cold_s": sum(cold),
        "warm_s": sum(warm),
        "req_per_s": len(latency) / sum(warm),
        "p50_ms": stats.median(latency) * 1e3,
        "peak_rss_mib": stats.median([s["rss_mib"] for s in samples]),
    }


def served_layers(sample: dict) -> dict:
    """serve.* from the client's view plus the server's ``/metrics``."""
    m = sample["metrics"]
    hit_ms = [r.latency * 1e3 for r in sample["warm"].responses]
    miss_ms = [r.latency * 1e3 for r in sample["cold"].responses]
    return {"serve.requests": float(m["submitted"]),
            "serve.failed": float(m["failed"]),
            "serve.hits": float(m["hits"]),
            "serve.misses": float(m["misses"]),
            "serve.coalesced": float(m["coalesced"]),
            "serve.miss_ms": stats.median(miss_ms),
            "serve.hit_p90_ms": stats.percentile(hit_ms, 90),
            "serve.hit_p99_ms": stats.percentile(hit_ms, 99)}


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
SAMPLERS = {"paper-report": paper_report_sample,
            "sharing-sweep": sharing_sweep_sample,
            "served-sweeps": served_sample}


def sample_summary(sample: dict) -> dict:
    """One sample's end-to-end figures, for the per-sample log lines."""
    figures = (served_metrics([sample]) if "metrics" in sample
               else batch_metrics([sample]))
    figures["steal"] = sample.get("steal", 0.0)
    return figures


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    checks = Checks()
    samples = repeat_samples(seconds,
                             lambda: SAMPLERS[workload](seed))
    if workload == "served-sweeps":
        check_served(seed, samples, checks)
        metrics = served_metrics(samples)
        attempted = sum(len(s["cold"].responses) + len(s["warm"].responses)
                        for s in samples)
        failed = sum(r.status != 200 for s in samples
                     for r in s["cold"].responses + s["warm"].responses)
    else:
        check_batch(workload, seed, samples, checks)
        metrics = batch_metrics(samples)
        attempted = batch_attempted(samples)
        failed = 0
    print(f"# {workload} seed {seed}: {len(samples)} samples")
    if workload == "served-sweeps":
        print(f"# p50_ms: median over {len(samples[0]['warm'].responses)} "
              f"warm requests of each one's fastest of {len(samples)}")
    else:
        print(f"# p50_ms: median over {len(samples[0]['cold']['op_s'])} "
              f"cold steps of each one's fastest of {len(samples)}")
        print(f"# kernel classes built: {samples[0]['cold']['kernels']}")
    for k, sample in enumerate(samples):
        print(f"# sample {k}: " + json.dumps(sample_summary(sample)))
    return {"metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
            "attempted": attempted, "failed": failed, "checks": checks}


def traced_run(workload: str, seed: int) -> dict:
    """Two untraced and two traced samples, interleaved: per-layer
    metrics from the traced ones, counts required to match exactly."""
    import tracer

    checks = Checks()
    trace_dir = os.path.join(WORK, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    untraced, traced = [], []
    for k in range(2):
        untraced.append(SAMPLERS[workload](seed))
        prefix = os.path.join(trace_dir, f"{workload}-seed{seed}-{k}")
        if workload == "served-sweeps":
            client = tracer.Tracer(run_id="client")
            sample = served_sample(seed, prefix,
                                   recorder=_span_recorder(client))
            client.write_jsonl(prefix + ".client.jsonl")
            client.write_chrome(prefix + ".client.trace.json", pid=2)
        else:
            sample = SAMPLERS[workload](seed, prefix)
        traced.append(sample)
        print(f"# traces written: {prefix}*.jsonl, {prefix}*.trace.json")

    if workload == "served-sweeps":
        check_served(seed, untraced + traced, checks)
        cold = lambda s: s["cold"].wall_s  # noqa: E731
        layer_sets = [dict(s["trace"]["layers"], **served_layers(s))
                      for s in traced]
        cold_selfs = [s["trace"]["self_by_layer"] for s in traced]
        attempted = sum(len(s["cold"].responses) + len(s["warm"].responses)
                        for s in untraced + traced)
    else:
        check_batch(workload, seed, untraced + traced, checks)
        cold = lambda s: s["cold"]["total_s"]  # noqa: E731
        # Both passes of a sample (cold and warm) are traced.
        layer_sets = [tracer.with_ratios(sum_layers(
            [p["trace"]["layers"] for p in (s["cold"], s.get("warm"))
             if p is not None])) for s in traced]
        cold_selfs = [s["cold"]["trace"].get(
            "cold_self_by_layer", s["cold"]["trace"]["self_by_layer"])
            for s in traced]
        attempted = batch_attempted(untraced + traced)

    for name in COUNTS:
        values = [ls.get(name, 0.0) for ls in layer_sets]
        checks.require(len(set(values)) == 1,
                       f"count {name} differs between traced runs: "
                       f"{values}")
    overhead = (stats.median([cold(s) for s in traced])
                / stats.median([cold(s) for s in untraced]))
    shares = [(own.get("sim", 0.0) + own.get("network", 0.0))
              / sum(own.values()) for own in cold_selfs]
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [ls.get(name, 0.0) for ls in layer_sets]
        metrics[name] = (stats.median(values), unit)
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.net_sim_share"] = (stats.median(shares), "ratio")
    print(f"# {workload}: network+sim share of the cold pass's traced "
          f"self time {metrics['trace.net_sim_share'][0]:.1%} "
          f"(cProfile of a ci app run and the 8x8 sweep: ~85 %)")
    total = sum(cold_selfs[0].values())
    for layer, own in sorted(cold_selfs[0].items(), key=lambda kv: -kv[1]):
        print(f"#   self time {layer:<10} {own:8.3f} s "
              f"{own / total:6.1%}")
    kernels = (traced[0]["cold"].get("kernels")
               if workload != "served-sweeps" else [])
    print(f"# kernel classes built: {kernels or 'none in this process'}")
    return {"metrics": metrics, "attempted": attempted, "failed": 0,
            "checks": checks}


def sum_layers(parts: list[dict]) -> dict:
    """Per-layer metrics of several traced processes, added up."""
    return {name: sum(p.get(name, 0.0) for p in parts) for name in parts[0]}


def _span_recorder(client):
    """Record each HTTP call of a phase as a span under a phase span."""
    def record(phase, name: str) -> None:
        if not phase.responses:
            return
        first = min(r.start for r in phase.responses)
        root = client.add_span(f"phase:{name}", "bench", first,
                               first + phase.wall_s)
        for r in phase.responses:
            client.add_span(f"POST /jobs {r.headers.get('x-cache', '?')}",
                            "serve", r.start, r.end, parent=root)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program source under {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2

    warm_imports()
    try:
        if args.trace:
            run = traced_run(args.workload, args.seed)
        else:
            run = timed_run(args.workload, args.seed, args.seconds)
    except (RunFailed, subprocess.SubprocessError, OSError,
            RuntimeError, ValueError, KeyError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    checks = run["checks"]
    for problem in checks.failed:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not checks.failed and run["failed"] == 0
    print(f"# operations: {run['attempted']} attempted, "
          f"{run['failed']} failed")
    # A run whose output is wrong produces no times.
    metrics = run["metrics"] if correct else {}
    for name, (value, unit) in metrics.items():
        print(f"{name:<26} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
