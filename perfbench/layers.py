"""The traced run: spans around calls into each module's public functions.

Every traced run measures every layer, so each run reports the same
per-layer metrics:

- start-up: a fresh interpreter importing rewardroute.cli, load_checkpoint,
  and Gateway(config).start();
- serving: a closed-loop pass through the CLI gateway on the workload's own
  queries (route_long: long queries to /route; generate_short: short
  queries to /generate), each request followed by in-process route(),
  featurize() and forward() on the same query and, for /generate, a direct
  POST to the chosen stub. route_long and train_ablate add a short /generate
  probe for the backend and route-log layers;
- training: one pass over the train_ablate spec through
  make_synthetic_benchmark, aggregate_tag_rewards, featurize_matrix,
  build_targets, kl_objective, train (one beta) and routing_accuracy.

Passes run a fixed number of requests, so work counts repeat exactly.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
import urllib.request

import bench_inputs
import procs
import reference
from gateway_load import (GENERATE_SHORT, ROUTE_LONG, Checks, GatewayRun, Served,
                          check_served, closed_loop, read_route_log)
from spans import Span, Tracer

REQUESTS = {"/route": 300, "/generate": 1500}
PROBE_REQUESTS = 300
IMPORT_REPEATS, LOAD_REPEATS, START_REPEATS, KL_REPEATS = 3, 5, 3, 20
KL_BATCH = 64
IMPORT_PROBE = ("import time; t0 = time.perf_counter_ns(); import rewardroute.cli; "
                "t1 = time.perf_counter_ns(); print(t0, t1)")
US, MS, S = 1e3, 1e6, 1e9


def startup_layers(tracer: Tracer, run: GatewayRun, cpus: procs.Cpus) -> dict:
    from rewardroute import Gateway, GatewayConfig, load_checkpoint

    root = tracer.add("pass.startup", time.perf_counter_ns(), 0)
    for _ in range(IMPORT_REPEATS):
        with tracer.span("cli.import_process", parent=root) as outer:
            proc = procs.spawn(["-c", IMPORT_PROBE], cpus, stdout=subprocess.PIPE,
                               text=True)
            out, _ = proc.communicate()
        t0, t1 = (int(v) for v in out.split())
        tracer.add("cli.import", t0, t1, parent=outer)
    for _ in range(LOAD_REPEATS):
        with tracer.span("checkpoint.load", parent=root):
            load_checkpoint(run.ckpt_path)
    config = GatewayConfig.from_file(run.write_config(0))
    for _ in range(START_REPEATS):
        with tracer.span("gateway.start", parent=root):
            gateway = Gateway(config)
            gateway.start()
        gateway.shutdown()
    root.end_ns = time.perf_counter_ns()
    return {
        "cli.import_s": (tracer.median("cli.import", S, root), "s"),
        "checkpoint.load_ms": (tracer.median("checkpoint.load", MS, root), "ms"),
        "gateway.start_ms": (tracer.median("gateway.start", MS, root), "ms"),
    }


def direct_stub_call(endpoint: str, query: str) -> str:
    """POST to a stub on a new connection, the way the gateway calls a backend."""
    req = urllib.request.Request(endpoint, data=json.dumps({"query": query}).encode("utf-8"),
                                 headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req, timeout=30.0) as resp:
        return json.loads(resp.read().decode("utf-8"))["text"]


def serving_pass(tracer: Tracer, run: GatewayRun, model, path: str, queries: list[str],
                 clusters: list[int] | None, count: int, checks: Checks) -> tuple[Span, Served]:
    from rewardroute import featurize, forward, route

    config = model.featurizer_config
    root = tracer.add(f"pass.{path.strip('/')}", time.perf_counter_ns(), 0)
    served = Served(path, queries, clusters)

    def after(i, t0, t1, reply):
        request = tracer.add("request", t0, 0, parent=root, request_id=i)
        tracer.add("gateway.http", t0, t1, parent=request)
        query = served.query(i)
        with tracer.span("router.route", parent=request):
            route(model, query)
        with tracer.span("features.featurize", parent=request) as span:
            vector = featurize(config, query)
        span.counts = {"nnz": vector.nnz}
        with tracer.span("router.forward", parent=request):
            forward(model, vector)
        if path == "/generate" and reply[0] == 200:
            model_id = json.loads(reply[1].decode("utf-8"))["model_id"]
            with tracer.span("stub_backend.call", parent=request):
                text = direct_stub_call(run.stubs.endpoint(model_id), query)
            if text != reference.stub_text(model_id, query):
                checks.fail(f"direct stub call {i} answered {text!r}")
        request.end_ns = time.perf_counter_ns()

    closed_loop(run, served, count=count, after=after)
    root.end_ns = time.perf_counter_ns()
    return root, served


def per_request_overhead_us(tracer: Tracer, root: Span) -> float:
    """Median of client round trip minus in-process route (and stub call) time."""
    parts: dict[int, dict[str, int]] = {}
    for name in ("gateway.http", "router.route", "stub_backend.call"):
        for s in tracer.named(name, root):
            parts.setdefault(s.request_id, {})[name] = s.duration_ns
    return statistics.median(
        p["gateway.http"] - p["router.route"] - p.get("stub_backend.call", 0)
        for p in parts.values()) / US


def serving_metrics(tracer: Tracer, primary: Span, generate: Span, generate_ok: int,
                    stub_hits: int, log_bytes: int) -> dict:
    nnz = [s.counts["nnz"] for s in tracer.named("features.featurize", primary)]
    direct = len(tracer.named("stub_backend.call", generate))
    return {
        "features.featurize_us": (tracer.median("features.featurize", US, primary), "us"),
        "features.nnz_per_query": (sum(nnz) / len(nnz), "count"),
        "router.forward_us": (tracer.median("router.forward", US, primary), "us"),
        "router.route_us": (tracer.median("router.route", US, primary), "us"),
        "gateway.overhead_us": (per_request_overhead_us(tracer, primary), "us"),
        "stub_backend.call_ms": (tracer.median("stub_backend.call", MS, generate), "ms"),
        "gateway.route_log_bytes_per_request": (log_bytes / generate_ok, "bytes"),
        "gateway.backend_calls_per_request": ((stub_hits - direct) / generate_ok, "ratio"),
        "trace.request_p50_ms": (tracer.median("gateway.http", MS, primary), "ms"),
    }


def training_layers(tracer: Tracer, checks: Checks) -> dict:
    from rewardroute import (FeaturizerConfig, SyntheticSpec, TrainConfig,
                             aggregate_tag_rewards, build_targets, featurize_matrix,
                             holdout_split, init_router, kl_objective,
                             make_synthetic_benchmark, routing_accuracy, train)

    root = tracer.add("pass.train", time.perf_counter_ns(), 0)
    spec = SyntheticSpec(clusters=bench_inputs.SIX_CLUSTERS, **bench_inputs.ABLATION_SPEC)
    with tracer.span("ranking.make_synthetic_benchmark", parent=root):
        dataset, oracle = make_synthetic_benchmark(spec)
    train_ds, eval_ds = holdout_split(dataset, bench_inputs.EVAL_PERCENT)
    with tracer.span("rewards.aggregate_tag_rewards", parent=root):
        table = aggregate_tag_rewards(train_ds)
    config = TrainConfig(seed=bench_inputs.ABLATION_TRAIN_SEED, beta=0.0)
    with tracer.span("features.featurize_matrix", parent=root):
        x = featurize_matrix(FeaturizerConfig(), [row.query.text for row in train_ds.rows])
    with tracer.span("router.build_targets", parent=root):
        targets = build_targets(train_ds, table, config.beta, config.temperature)
    model = init_router(dataset.registry, seed=config.seed)
    batch_x, batch_t = x[:KL_BATCH], targets[:KL_BATCH]
    for _ in range(KL_REPEATS):
        with tracer.span("router.kl_objective", parent=root):
            kl_objective(model.weights, model.bias, batch_x, batch_t, config.l2_penalty)
    with tracer.span("router.train", parent=root):
        trained, _ = train(model, train_ds, table, config)
    with tracer.span("evaluation.routing_accuracy", parent=root):
        accuracy = routing_accuracy(trained, eval_ds, oracle)
    root.end_ns = time.perf_counter_ns()

    if len(eval_ds) != sum(bench_inputs.ablation_eval_counts()):
        checks.fail(f"eval split has {len(eval_ds)} rows, FNV-1a of the ids gives "
                    f"{sum(bench_inputs.ablation_eval_counts())}")
    if accuracy < 0.90:
        checks.fail(f"routing accuracy {accuracy} at beta=0 is below 0.90")
    train_s = tracer.median("router.train", S, root)
    featurize_s = tracer.median("features.featurize_matrix", S, root)
    targets_s = tracer.median("router.build_targets", S, root)
    return {
        "features.featurize_matrix_s": (featurize_s, "s"),
        "router.build_targets_ms": (targets_s * 1e3, "ms"),
        "router.kl_objective_ms": (tracer.median("router.kl_objective", MS, root), "ms"),
        "router.train_s": (train_s, "s"),
        "router.optimize_s": (train_s - featurize_s - targets_s, "s"),
        "evaluation.routing_accuracy_ms": (tracer.median("evaluation.routing_accuracy", MS, root), "ms"),
        "ranking.make_synthetic_benchmark_ms": (tracer.median("ranking.make_synthetic_benchmark", MS, root), "ms"),
        "rewards.aggregate_tag_rewards_ms": (tracer.median("rewards.aggregate_tag_rewards", MS, root), "ms"),
    }


def run_traced(workload: str, seed: int, workdir: str, cpus: procs.Cpus, smoke: bool,
               trace_path: str) -> dict:
    from rewardroute import load_checkpoint

    scale = 10 if smoke else 1
    tracer, checks = Tracer(), Checks()
    run = GatewayRun(workdir, cpus, with_backends=True)
    passes = []
    try:
        metrics = startup_layers(tracer, run, cpus)
        run.spawn()
        model = load_checkpoint(run.ckpt_path)
        if workload == ROUTE_LONG:
            queries = bench_inputs.long_queries(seed)
            passes.append(serving_pass(tracer, run, model, "/route", queries, None,
                                       REQUESTS["/route"] // scale, checks))
        pairs = bench_inputs.short_queries(seed)
        count = REQUESTS["/generate"] if workload == GENERATE_SHORT else PROBE_REQUESTS
        generate = serving_pass(tracer, run, model, "/generate", [q for q, _ in pairs],
                                [c for _, c in pairs], count // scale, checks)
        passes.append(generate)
        with tracer.span("gateway.metrics_scrape"):
            status, _ = procs.request(run.port, "GET", "/metrics")
        if status != 200:
            checks.fail(f"GET /metrics answered {status}")
        run.stop_gateway()
        stub_hits = run.stubs.hits
    finally:
        run.close()
    log = read_route_log(run.route_log, checks)
    log_bytes = os.path.getsize(run.route_log)
    failed = sum(check_served(run, served, seed, checks, log if served.path == "/generate" else None)
                 for _, served in passes)
    if log:
        checks.fail(f"{len(log)} route-log records match no reply")
    generate_ok = sum(1 for status, _ in generate[1].replies if status == 200)
    if stub_hits - len(tracer.named("stub_backend.call", generate[0])) != generate_ok:
        checks.fail("gateway backend calls differ from successful /generate requests")
    metrics.update(serving_metrics(tracer, passes[0][0], generate[0], generate_ok,
                                   stub_hits, log_bytes))
    metrics["gateway.metrics_scrape_ms"] = (tracer.median("gateway.metrics_scrape", MS), "ms")
    metrics.update(training_layers(tracer, checks))
    tracer.write(trace_path)
    attempted = sum(served.count for _, served in passes) + 1  # + the training pass
    report = {"trace": trace_path, "spans": len(tracer.spans)}
    return {"correct": checks.ok, "errors": checks.errors, "attempted": attempted,
            "failed": failed, "metrics": metrics, "report": report}
