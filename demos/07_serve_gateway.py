"""
Serving a trained router over HTTP
==================================

The gateway holds one router checkpoint in memory, scores each incoming
query once, and either returns the decision (/route) or forwards the
query to the chosen backend and relays its answer (/generate). This
script runs a full loop in-process: train, checkpoint, serve, call every
endpoint, hot-reload, shut down. Stub servers stand in for the model
backends; each answers with a deterministic string so a gateway response
can be checked against the offline decision exactly.

The CLI equivalent of the serving part is:
    rewardroute serve --config gateway.json
"""

import json
import tempfile
import urllib.request
from pathlib import Path

from rewardroute import (
    FeaturizerConfig,
    Gateway,
    GatewayConfig,
    StubBackend,
    TrainConfig,
    aggregate_tag_rewards,
    init_router,
    load_dataset,
    load_registry,
    route,
    save_checkpoint,
    stub_response,
    train,
)
from rewardroute.fixtures import fixture_path

# ---------------------------------------------------------------------------
# train a small router and write a checkpoint
# ---------------------------------------------------------------------------

registry = load_registry(fixture_path("registry.json"))
dataset = load_dataset(fixture_path("sample_dataset.jsonl"), registry)
model = init_router(registry, FeaturizerConfig(dimension=16384), seed=7)
trained, report = train(model, dataset, aggregate_tag_rewards(dataset),
                        TrainConfig(learning_rate=0.5, epochs=60, beta=0.3, seed=7))
print(f"trained on {report.row_count} rows, final loss {report.final_loss:.4f}")

workdir = Path(tempfile.mkdtemp(prefix="gateway-demo-"))
ckpt = workdir / "router.ckpt"
save_checkpoint(trained, ckpt)
print(f"checkpoint: {ckpt} ({ckpt.stat().st_size} bytes)")

# ---------------------------------------------------------------------------
# stand up one stub backend per model, then the gateway on a free port
# ---------------------------------------------------------------------------

backends = [StubBackend(m).start() for m in registry.ids]
for b in backends:
    print(f"stub backend {b.model_id} at {b.endpoint}")

gateway = Gateway(GatewayConfig(
    checkpoint_path=str(ckpt),
    endpoints={b.model_id: b.endpoint for b in backends},
    port=0,                                  # pick any free port
    route_log_path=str(workdir / "routes.jsonl"),
))
gateway.start()
print(f"gateway at {gateway.url}")


def get(path):
    with urllib.request.urlopen(f"{gateway.url}{path}", timeout=10) as resp:
        return resp.status, resp.read().decode()


def post(path, payload):
    req = urllib.request.Request(
        f"{gateway.url}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


# ---------------------------------------------------------------------------
# /route: decision only, no backend traffic
# ---------------------------------------------------------------------------

query = "write a python function that reverses a linked list"
status, body = post("/route", {"query": query})
print(f"\nPOST /route -> {status}")
print(f"  model_id     {body['model_id']}")
dist = ", ".join(f"{m}={p:.3f}" for m, p in zip(registry.ids, body["distribution"]))
print(f"  distribution {dist}")
assert body["model_id"] == route(trained, query)[0]
assert all(b.hits == 0 for b in backends), "/route must not touch a backend"

# ---------------------------------------------------------------------------
# /generate: route, call the chosen backend once, relay its text
# ---------------------------------------------------------------------------

for query in [
    "evaluate the integral of x squared from zero to three",
    "write a python function that reverses a linked list",
    "draft a polite note asking my landlord to fix the heater",
]:
    status, body = post("/generate", {"query": query})
    offline = route(trained, query)[0]
    print(f"\nPOST /generate -> {status}  ({query[:40]}...)")
    print(f"  served by {body['model_id']} (offline says {offline}), "
          f"{body['latency_ms']:.1f} ms")
    print(f"  text {body['text']!r}")
    assert body["model_id"] == offline
    assert body["text"] == stub_response(offline, query)

hits = {b.model_id: b.hits for b in backends}
print(f"\nbackend hits: {hits} (exactly one inference per /generate)")

# ---------------------------------------------------------------------------
# health, metrics, hot reload
# ---------------------------------------------------------------------------

status, text = get("/healthz")
print(f"\nGET /healthz -> {status} {text.strip()}")

status, text = get("/metrics")
print(f"\nGET /metrics -> {status}")
for line in text.splitlines():
    if line and not line.startswith("#"):
        print(f"  {line}")

status, body = post("/admin/reload", {"checkpoint_path": str(ckpt)})
print(f"\nPOST /admin/reload -> {status} {body}  (swap is atomic; in-flight "
      "requests finish on the old snapshot)")

# ---------------------------------------------------------------------------
# the route log records every /generate decision
# ---------------------------------------------------------------------------

print("\nroute log:")
for line in (workdir / "routes.jsonl").read_text().splitlines():
    rec = json.loads(line)
    print(f"  {rec['query_hash']}  -> {rec['served_by']:<10}  "
          f"{rec['latency_ms']:6.1f} ms  {rec['status']}")

gateway.shutdown()
for b in backends:
    b.shutdown()
print("\ngateway and backends stopped cleanly")
