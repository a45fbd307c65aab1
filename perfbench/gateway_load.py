"""route_long and generate_short: the `rewardroute serve` gateway under a serial client.

The gateway runs in its own process, started through the CLI. This process
is the client: it sends one request at a time on a fresh connection (a
closed loop with one client) and, for /generate, hosts the six stub
backends the gateway forwards to.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import time
from dataclasses import dataclass, field

import bench_inputs
import procs
import reference

ROUTE_LONG, GENERATE_SHORT = "route_long", "generate_short"
REFERENCE_SAMPLE = {"/route": 20, "/generate": 60}
MIN_EXPERT_SHARE = 0.90
# The route_long gateway needs an endpoint per model to start; /route never calls it.
UNUSED_ENDPOINT = "http://127.0.0.1:9/"


@dataclass
class Served:
    """Replies of one closed-loop pass, kept raw until the checks."""

    path: str
    queries: list[str]
    clusters: list[int] | None
    starts_ns: list[int] = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    replies: list[tuple[int, bytes]] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def count(self) -> int:
        return len(self.replies)

    def query(self, i: int) -> str:
        return self.queries[i % len(self.queries)]


class Stubs:
    """Six in-process StubBackends, one per model."""

    def __init__(self, model_ids: list[str]):
        from rewardroute import StubBackend
        self.backends = {m: StubBackend(m).start() for m in model_ids}

    def endpoint(self, model_id: str) -> str:
        return self.backends[model_id].endpoint

    @property
    def hits(self) -> int:
        return sum(b.hits for b in self.backends.values())

    def shutdown(self) -> None:
        for b in self.backends.values():
            b.shutdown()


class GatewayRun:
    """One gateway set-up: checkpoint, registry, config files and stub backends."""

    def __init__(self, workdir: str, cpus: procs.Cpus, with_backends: bool):
        self.workdir = workdir
        self.cpus = cpus
        self.ckpt_path = os.path.join(workdir, "router.ckpt")
        bench_inputs.train_serving_checkpoint(self.ckpt_path)
        with open(self.ckpt_path, "rb") as fh:
            self.ckpt = reference.read_checkpoint(fh.read())
        self.model_ids = self.ckpt.model_ids
        self.stubs = Stubs(self.model_ids) if with_backends else None
        self.route_log = os.path.join(workdir, "routes.jsonl") if with_backends else None
        registry = {"models": [
            {"model_id": m,
             "endpoint": self.stubs.endpoint(m) if self.stubs else UNUSED_ENDPOINT}
            for m in self.model_ids]}
        self.registry_path = os.path.join(workdir, "registry.json")
        with open(self.registry_path, "w", encoding="utf-8") as fh:
            json.dump(registry, fh)
        self.proc = None
        self.port = None

    def write_config(self, port: int) -> str:
        config = {"checkpoint": self.ckpt_path, "registry": self.registry_path,
                  "port": port, "max_in_flight": 256}
        if self.route_log:
            config["route_log"] = self.route_log
        path = os.path.join(self.workdir, "gateway.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return path

    def spawn(self) -> float:
        """Start `rewardroute serve`; seconds until the first 200 from /healthz."""
        port = procs.free_port()
        config = self.write_config(port)
        started = time.perf_counter()
        proc = procs.spawn(["-m", "rewardroute.cli", "serve", "--config", config],
                           self.cpus, stdout=subprocess.DEVNULL)
        self.proc, self.port = proc, port
        return procs.wait_healthy(proc, port, started)

    def setup(self, repeats: int) -> list[float]:
        """Spawn the gateway `repeats` times; the last one stays up."""
        times = []
        for i in range(repeats):
            times.append(self.spawn())
            if i < repeats - 1:
                self.stop_gateway()
        return times

    def stop_gateway(self) -> None:
        if self.proc is not None:
            procs.stop(self.proc)
            self.proc = None

    def close(self) -> None:
        self.stop_gateway()
        if self.stubs is not None:
            self.stubs.shutdown()


def closed_loop(run: GatewayRun, served: Served, seconds: float | None = None,
                count: int | None = None, after=None) -> Served:
    """Send requests one after another until `seconds` pass or `count` are done."""
    bodies = [json.dumps({"query": q}).encode("utf-8") for q in served.queries]
    port, path = run.port, served.path
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    i = 0
    while (i < count) if count is not None else (time.perf_counter() < deadline):
        body = bodies[i % len(bodies)]
        t0 = time.perf_counter_ns()
        reply = procs.request(port, "POST", path, body)
        t1 = time.perf_counter_ns()
        served.starts_ns.append(t0)
        served.latencies_ns.append(t1 - t0)
        served.replies.append(reply)
        if after is not None:
            after(i, t0, t1, reply)
        i += 1
    served.elapsed_s = time.perf_counter() - start
    return served


def workload_queries(workload: str, seed: int) -> tuple[list[str], list[int] | None]:
    if workload == ROUTE_LONG:
        return bench_inputs.long_queries(seed), None
    pairs = bench_inputs.short_queries(seed)
    return [q for q, _ in pairs], [c for _, c in pairs]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Checks:
    def __init__(self):
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def ok(self) -> bool:
        return not self.errors


def check_served(run: GatewayRun, served: Served, seed: int, checks: Checks,
                 log_records: dict | None) -> int:
    """Check every reply of a pass; returns the number of failed requests."""
    ckpt, model_ids = run.ckpt, run.model_ids
    failed, expert_hits, dists = 0, 0, {}
    for i, (status, data) in enumerate(served.replies):
        if status != 200:
            failed += 1
            continue
        reply = json.loads(data.decode("utf-8"))
        query = served.query(i)
        if served.path == "/route":
            dist, model_id = reply.get("distribution"), reply.get("model_id")
        else:
            model_id = reply.get("model_id")
            if reply.get("text") != reference.stub_text(model_id, query):
                checks.fail(f"request {i}: text {reply.get('text')!r} is not the stub's answer")
            record = log_records.pop(reply.get("request_id"), None) if log_records is not None else None
            if record is None:
                checks.fail(f"request {i}: no route-log record for {reply.get('request_id')}")
                continue
            if (record.get("model_id") != model_id or record.get("served_by") != model_id
                    or record.get("status") != "ok"
                    or record.get("query_hash") != reference.query_hash(query)):
                checks.fail(f"request {i}: route-log record does not match the reply")
            dist = record.get("distribution")
            if model_id == model_ids[served.clusters[i % len(served.clusters)]]:
                expert_hits += 1
        problem = reference.check_distribution(dist, model_id, model_ids)
        if problem:
            checks.fail(f"request {i}: {problem}")
        dists[i] = dist
    ok_count = served.count - failed
    if served.path == "/generate" and ok_count and expert_hits < MIN_EXPERT_SHARE * ok_count:
        checks.fail(f"only {expert_hits}/{ok_count} queries went to their planted expert")
    sample = sorted(dists)
    random.Random(seed).shuffle(sample)
    for i in sample[:REFERENCE_SAMPLE[served.path]]:
        diff = reference.max_abs_diff(dists[i], reference.distribution(ckpt, served.query(i)))
        if diff > 1e-9:
            checks.fail(f"request {i}: distribution differs from the reference by {diff:.3g}")
    return failed


def read_route_log(path: str, checks: Checks) -> dict:
    records = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["request_id"] in records:
                checks.fail(f"route log repeats request {record['request_id']}")
            records[record["request_id"]] = record
    return records


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

BLOCK_S = 5


def quietest_block(served: Served) -> tuple[float, float, int]:
    """(median ms, completions per s, requests) of the run's least-disturbed block.

    The run is cut into whole BLOCK_S-second blocks by request start time;
    a partial block at the end joins the last whole one. Other tenants of a
    shared machine slow it in bursts of seconds, and noise only ever adds
    time, so the block with the lowest median shows the code's own cost.
    """
    blocks = max(1, int(served.elapsed_s // BLOCK_S))
    first = served.starts_ns[0]
    lat_ms: list[list[float]] = [[] for _ in range(blocks)]
    for start, lat, (status, _) in zip(served.starts_ns, served.latencies_ns, served.replies):
        if status == 200:
            lat_ms[min(blocks - 1, (start - first) // (BLOCK_S * 10**9))].append(lat / 1e6)
    spans_s = [BLOCK_S] * (blocks - 1) + [served.elapsed_s - BLOCK_S * (blocks - 1)]
    best = min((b for b in range(blocks) if lat_ms[b]), key=lambda b: statistics.median(lat_ms[b]))
    return statistics.median(lat_ms[best]), len(lat_ms[best]) / spans_s[best], len(lat_ms[best])


def run_untraced(workload: str, seed: int, seconds: float, workdir: str,
                 cpus: procs.Cpus, setup_repeats: int) -> dict:
    with_backends = workload == GENERATE_SHORT
    run = GatewayRun(workdir, cpus, with_backends)
    checks = Checks()
    try:
        queries, clusters = workload_queries(workload, seed)
        setup = run.setup(setup_repeats)
        path = "/route" if workload == ROUTE_LONG else "/generate"
        served = closed_loop(run, Served(path, queries, clusters), seconds=seconds)
        rss = procs.peak_rss_mb(run.proc.pid)
        run.stop_gateway()
        hits = run.stubs.hits if run.stubs else None
    finally:
        run.close()
    log = read_route_log(run.route_log, checks) if with_backends else None
    failed = check_served(run, served, seed, checks, log)
    ok_count = served.count - failed
    if with_backends:
        if hits != ok_count:
            checks.fail(f"stub hits {hits} != successful requests {ok_count}")
        if log:
            checks.fail(f"{len(log)} route-log records match no reply")
    lat_ms = [ns / 1e6 for ns, (status, _) in zip(served.latencies_ns, served.replies)
              if status == 200]
    p50_ms, per_s, block_requests = quietest_block(served)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (p50_ms, "ms"),
        "throughput_per_s": (per_s, "1/s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    report = {"requests": served.count, "block_requests": block_requests,
              "setup_runs": [round(s, 4) for s in setup],
              "run_p50_ms": round(statistics.median(lat_ms), 4),
              "run_per_s": round(ok_count / served.elapsed_s, 3)}
    # The tail is reported only where at least ten samples lie beyond it.
    if len(lat_ms) >= 1000:
        report["latency_p99_ms"] = round(statistics.quantiles(lat_ms, n=100)[-1], 4)
    return {"correct": checks.ok, "errors": checks.errors, "attempted": served.count,
            "failed": failed, "metrics": metrics, "report": report}
