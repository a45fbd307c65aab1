"""HTTP routing gateway.

Accepts queries, routes each with a loaded router checkpoint, and proxies
the query to the chosen backend, so a caller pays for exactly one backend
inference per request (plus at most one fallback call when the primary
backend fails and a fallback model is configured).

Endpoints:
    POST /route          {"query"} -> {"model_id", "distribution", "request_id"}
    POST /generate       {"query"} -> {"model_id", "text", "request_id", "latency_ms"}
    GET  /healthz        liveness: {"status": "ok", "models": K}
    GET  /metrics        text exposition of counters and latency percentiles
    POST /admin/reload   {"checkpoint_path"} swaps the model snapshot atomically

The router snapshot is immutable and shared read-only across handler
threads; reload replaces the reference, and in-flight requests finish on
the snapshot they started with. Admission is a bounded gate: when
max_in_flight requests are already being handled, new ones get 503
immediately instead of queuing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import sys
import threading
import time
import urllib.error
import urllib.request
import uuid
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .data import check_str, read_json, read_registry_file, require_fields, to_number
from .errors import DataFormatError, GatewayError
from .router import RouterModel, route

logger = logging.getLogger(__name__)


@dataclass
class GatewayConfig:
    checkpoint_path: str
    endpoints: dict[str, str]      # model_id -> backend URL
    host: str = "127.0.0.1"
    port: int = 8080
    timeout_ms: int = 30000
    max_in_flight: int = 256
    fallback_model_id: str | None = None
    route_log_path: str | None = None

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise GatewayError("timeout_ms must be positive")
        if self.max_in_flight < 1:
            raise GatewayError("max_in_flight must be at least 1")

    @classmethod
    def from_file(cls, path: str | Path) -> "GatewayConfig":
        raw = read_json(path, "gateway config")
        where = f"gateway config {path}"
        require_fields(raw, ("checkpoint", "registry"), where)

        def _path(key: str) -> str:
            q = Path(check_str(raw[key], where, repr(key)))
            return str(q if q.is_absolute() else Path(path).parent / q)

        registry_path = _path("registry")
        registry, entries = read_registry_file(registry_path)
        endpoints = {m: e["endpoint"] for m, e in zip(registry.ids, entries)
                     if e.get("endpoint") is not None}
        bad = [m for m, endpoint in endpoints.items() if not isinstance(endpoint, str)]
        if bad:
            raise DataFormatError(
                f"registry file {registry_path}: endpoint of {bad} is not a string"
            )
        fallback = raw.get("fallback_model_id")
        return cls(
            checkpoint_path=_path("checkpoint"),
            endpoints=endpoints,
            host=check_str(raw.get("host", "127.0.0.1"), where, "'host'"),
            port=to_number(int, raw.get("port", 8080), where, "'port'"),
            timeout_ms=to_number(int, raw.get("timeout_ms", 30000), where, "'timeout_ms'"),
            max_in_flight=to_number(int, raw.get("max_in_flight", 256), where, "'max_in_flight'"),
            fallback_model_id=(None if fallback is None
                               else check_str(fallback, where, "'fallback_model_id'")),
            route_log_path=_path("route_log") if raw.get("route_log") else None,
        )


# The /metrics quantiles cover only the last LATENCY_WINDOW admitted requests
# with a valid query: every scrape sorts the window under the lock that every
# request takes, so its cost must not grow with uptime.
LATENCY_WINDOW = 4096


class Metrics:
    """Monotone counters, the in-flight gauge and a bounded latency window, under one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self.routed: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.in_flight = 0
        self.latency_count = 0
        self._latencies_ms: deque[float] = deque(maxlen=LATENCY_WINDOW)

    def record_routed(self, model_id: str) -> None:
        with self._lock:
            self.routed[model_id] = self.routed.get(model_id, 0) + 1

    def record_error(self, kind: str) -> None:
        with self._lock:
            self.errors[kind] = self.errors.get(kind, 0) + 1

    def record_latency(self, ms: float) -> None:
        with self._lock:
            self.latency_count += 1
            self._latencies_ms.append(ms)

    def admit(self, limit: int) -> bool:
        """Take an in-flight slot if fewer than `limit` are taken, else count a rejection."""
        with self._lock:
            if self.in_flight >= limit:
                self.errors["rejected"] = self.errors.get("rejected", 0) + 1
                return False
            self.in_flight += 1
            return True

    def leave(self) -> None:
        with self._lock:
            self.in_flight -= 1

    def snapshot(self) -> dict:
        with self._lock:
            lat = np.asarray(self._latencies_ms) if self._latencies_ms else None
            return {
                "routed": dict(self.routed),
                "routed_total": sum(self.routed.values()),
                "errors": dict(self.errors),
                "errors_total": sum(self.errors.values()),
                "latency_ms_p50": float(np.percentile(lat, 50)) if lat is not None else None,
                "latency_ms_p95": float(np.percentile(lat, 95)) if lat is not None else None,
                "latency_ms_count": self.latency_count,
                "in_flight": self.in_flight,
            }

    def render_text(self) -> str:
        snap = self.snapshot()
        lines = []
        for model_id in sorted(snap["routed"]):
            lines.append(f'gateway_routed_total{{model="{model_id}"}} {snap["routed"][model_id]}')
        lines.append(f"gateway_routed_total {snap['routed_total']}")
        for kind in sorted(snap["errors"]):
            lines.append(f'gateway_errors_total{{kind="{kind}"}} {snap["errors"][kind]}')
        lines.append(f"gateway_errors_total {snap['errors_total']}")
        for q, key in (("0.5", "latency_ms_p50"), ("0.95", "latency_ms_p95")):
            if snap[key] is not None:
                lines.append(f'gateway_latency_ms{{quantile="{q}"}} {snap[key]:.3f}')
        lines.append(f"gateway_latency_ms_count {snap['latency_ms_count']}")
        lines.append(f"gateway_in_flight {snap['in_flight']}")
        return "\n".join(lines) + "\n"


def query_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class _HTTPServer(ThreadingHTTPServer):
    """The gateway's and the stub backend's server: a deep backlog, quiet hang-ups."""

    request_queue_size = 256

    def handle_error(self, request, client_address):
        # A client that hangs up before its reply is written is routine, not
        # a server fault worth a traceback on stderr.
        if isinstance(sys.exc_info()[1], ConnectionError):
            logger.debug("%s: client %s disconnected early",
                         type(self).__name__, client_address)
            return
        super().handle_error(request, client_address)


class _GatewayServer(_HTTPServer):
    daemon_threads = False      # handler threads are joined on close (graceful drain)
    block_on_close = True

    def __init__(self, addr, handler, gateway: "Gateway"):
        self.gateway = gateway
        super().__init__(addr, handler)


class _Handler(BaseHTTPRequestHandler):
    """Reads a request, asks the gateway for its reply and writes that once."""

    protocol_version = "HTTP/1.0"

    # BaseHTTPRequestHandler logging goes to the module logger to keep test
    # output quiet.
    def log_message(self, fmt, *args):
        logger.debug("gateway: " + fmt, *args)

    def setup(self):
        # Every read and write on the client socket is bounded by timeout_ms,
        # so a client that stalls mid-request is dropped (handle_one_request
        # closes on TimeoutError) instead of holding this thread, and
        # shutdown(), which joins it, forever.
        self.timeout = self.server.gateway.config.timeout_ms / 1000.0
        super().setup()

    def _read_json(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                # rfile.read(-1) would wait for EOF
                return None
            raw = self.rfile.read(length) if length else b""
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _write(self, code: int, body: dict | str) -> None:
        if isinstance(body, str):
            content_type, data = "text/plain; charset=utf-8", body.encode("utf-8")
        else:
            content_type, data = "application/json; charset=utf-8", json.dumps(body).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        self._write(*self.server.gateway.handle_get(self.path))

    def do_POST(self):
        # The body is read before admission: a client that trickles its body
        # holds this handler thread, never an admission slot.
        payload = self._read_json()
        self._write(*self.server.gateway.handle_post(self.path, payload))


class Gateway:
    """A running (or startable) routing service; use start()/shutdown() or serve_forever()."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        self._model = self._load_and_check(config.checkpoint_path)
        self.metrics = Metrics()
        self._log_lock = threading.Lock()
        self._server: _GatewayServer | None = None
        self._thread: threading.Thread | None = None

    # -- model snapshot ----------------------------------------------------

    @property
    def model(self) -> RouterModel:
        return self._model

    def _load_and_check(self, checkpoint_path: str) -> RouterModel:
        model = load_checkpoint(checkpoint_path)
        missing = [m for m in model.registry.ids if m not in self.config.endpoints]
        if missing:
            raise GatewayError(
                f"no endpoint configured for model(s) {missing}; every model the "
                "router can choose needs one"
            )
        fallback = self.config.fallback_model_id
        if fallback is not None and fallback not in model.registry.ids:
            raise GatewayError(f"fallback model {fallback!r} is not in the checkpoint registry")
        return model

    def reload_checkpoint(self, checkpoint_path: str) -> RouterModel:
        """Validate and atomically swap in a new model snapshot."""
        new_model = self._load_and_check(checkpoint_path)
        self._model = new_model
        logger.info("gateway reloaded checkpoint from %s", checkpoint_path)
        return new_model

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._server is not None:
            raise GatewayError("gateway already started")
        try:
            self._server = _GatewayServer((self.config.host, self.config.port),
                                          _Handler, self)
        except OSError as exc:
            raise GatewayError(
                f"cannot bind {self.config.host}:{self.config.port}: {exc}"
            ) from exc
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.05),
            name="gateway-serve", daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        if self._server is None:
            raise GatewayError("gateway not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def shutdown(self) -> None:
        """Stop accepting connections, then wait for in-flight handlers."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()   # joins handler threads (block_on_close)
        if self._thread is not None:
            self._thread.join()
        self._server = None
        self._thread = None

    def serve_forever(self) -> None:
        """Blocking serve; returns after shutdown() from another thread/signal."""
        if self._server is None:
            self.start()
        thread = self._thread
        try:
            while thread.is_alive():
                thread.join(timeout=0.2)
        except KeyboardInterrupt:
            self.shutdown()

    # -- request handling ----------------------------------------------------

    def handle_get(self, path: str) -> tuple[int, dict | str]:
        if path == "/healthz":
            return 200, {"status": "ok", "models": self.model.num_models}
        if path == "/metrics":
            return 200, self.metrics.render_text()
        return 404, {"error": f"unknown path {path}"}

    def handle_post(self, path: str, payload: dict | None) -> tuple[int, dict]:
        """Reply to a POST whose body is `payload` (None: not a JSON object).

        The admission slot is released before this returns, so a request's
        metrics are settled before its client can read the reply.
        """
        if path == "/admin/reload":
            if payload is None or not isinstance(payload.get("checkpoint_path"), str):
                return 400, {"error": "need {'checkpoint_path': ...}"}
            try:
                model = self.reload_checkpoint(payload["checkpoint_path"])
            except Exception as exc:
                return 400, {"error": f"reload failed: {exc}"}
            return 200, {"status": "reloaded", "models": model.num_models}
        if path not in ("/route", "/generate"):
            return 404, {"error": f"unknown path {path}"}
        if not self.metrics.admit(self.config.max_in_flight):
            return 503, {"error": "over capacity"}
        started = time.perf_counter()
        try:
            text = payload.get("query") if payload is not None else None
            if not isinstance(text, str) or not text.strip():
                self.metrics.record_error("bad_request")
                error = "body must be a JSON object" if payload is None else "missing or empty 'query'"
                return 400, {"error": error}
            if path == "/route":
                model_id, probs = self._decide(self.model, text)
                self.metrics.record_latency((time.perf_counter() - started) * 1000.0)
                return 200, {
                    "model_id": model_id,
                    "distribution": probs,
                    "request_id": uuid.uuid4().hex,
                }
            return self._generate(text, started)
        finally:
            self.metrics.leave()

    def _decide(self, model: RouterModel, text: str) -> tuple[str, list[float]]:
        model_id, probs = route(model, text)
        self.metrics.record_routed(model_id)
        return model_id, [float(p) for p in probs]

    def _call_backend(self, model_id: str, text: str) -> str:
        req = urllib.request.Request(
            self.config.endpoints[model_id],
            data=json.dumps({"query": text}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.config.timeout_ms / 1000.0) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise _classify_backend_error(exc) from exc
        if not isinstance(payload, dict) or "text" not in payload:
            raise BackendError("backend response has no 'text' field")
        return str(payload["text"])

    def _generate(self, text: str, started: float) -> tuple[int, dict]:
        model = self.model     # one snapshot for the whole request
        request_id = uuid.uuid4().hex
        model_id, probs = self._decide(model, text)
        served_by, status, response_text = model_id, "ok", None
        fallback = self.config.fallback_model_id
        try:
            response_text = self._call_backend(model_id, text)
        except BackendTimeout:
            status = "timeout"     # a slow query is not retried on a second backend
        except BackendError as exc:
            status = f"backend_error: {exc}"
            if fallback is not None and fallback != model_id:
                with contextlib.suppress(BackendError):
                    response_text = self._call_backend(fallback, text)
                    served_by, status = fallback, "ok"
        failover = served_by != model_id
        if failover:
            self.metrics.record_error("failover")
        elif response_text is None:
            self.metrics.record_error("timeout" if status == "timeout" else "backend")

        latency_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.record_latency(latency_ms)
        self._append_route_record(request_id, text, model_id, served_by,
                                  probs, latency_ms, status, failover)
        if response_text is None:
            return (504 if status == "timeout" else 502), {
                "error": status,
                "model_id": model_id,
                "request_id": request_id,
            }
        return 200, {
            "model_id": served_by,
            "text": response_text,
            "request_id": request_id,
            "latency_ms": latency_ms,
        }

    def _append_route_record(self, request_id, text, model_id, served_by,
                             probs, latency_ms, status, failover) -> None:
        if self.config.route_log_path is None:
            return
        record = {
            "request_id": request_id,
            "query_hash": query_hash(text),
            "model_id": model_id,
            "served_by": served_by,
            "distribution": probs,
            "latency_ms": latency_ms,
            "status": status,
            "failover": failover,
        }
        with self._log_lock:
            with open(self.config.route_log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")


class BackendError(Exception):
    pass


class BackendTimeout(BackendError):
    pass


def _classify_backend_error(exc: Exception) -> Exception:
    reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
    if isinstance(reason, TimeoutError):    # socket.timeout is TimeoutError
        return BackendTimeout(str(reason) or "timed out")
    return BackendError(str(reason))
