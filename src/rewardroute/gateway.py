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

import hashlib
import json
import logging
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
import uuid
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .data import ModelRegistry, load_registry
from .errors import DataFormatError, GatewayError
from .router import RouterModel, route

logger = logging.getLogger(__name__)


@dataclass
class GatewayConfig:
    checkpoint_path: str
    registry: ModelRegistry
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
        base = Path(path).parent
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataFormatError(f"cannot read gateway config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"gateway config {path} is not valid JSON: {exc}") from exc
        for key in ("checkpoint", "registry"):
            if key not in raw:
                raise DataFormatError(f"gateway config {path}: missing field {key!r}")

        def _resolve(p: str) -> str:
            q = Path(p)
            return str(q if q.is_absolute() else base / q)

        return cls(
            checkpoint_path=_resolve(raw["checkpoint"]),
            registry=load_registry(_resolve(raw["registry"])),
            host=raw.get("host", "127.0.0.1"),
            port=int(raw.get("port", 8080)),
            timeout_ms=int(raw.get("timeout_ms", 30000)),
            max_in_flight=int(raw.get("max_in_flight", 256)),
            fallback_model_id=raw.get("fallback_model_id"),
            route_log_path=_resolve(raw["route_log"]) if raw.get("route_log") else None,
        )


class Metrics:
    """Monotone counters plus a latency reservoir, updated under one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self.routed: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.in_flight = 0
        self._latencies_ms: list[float] = []

    def record_routed(self, model_id: str) -> None:
        with self._lock:
            self.routed[model_id] = self.routed.get(model_id, 0) + 1

    def record_error(self, kind: str) -> None:
        with self._lock:
            self.errors[kind] = self.errors.get(kind, 0) + 1

    def record_latency(self, ms: float) -> None:
        with self._lock:
            self._latencies_ms.append(ms)

    def enter(self) -> None:
        with self._lock:
            self.in_flight += 1

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
        lines.append(f"gateway_in_flight {snap['in_flight']}")
        return "\n".join(lines) + "\n"


def query_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class _GatewayServer(ThreadingHTTPServer):
    daemon_threads = False      # handler threads are joined on close (graceful drain)
    block_on_close = True
    request_queue_size = 256

    def __init__(self, addr, handler, gateway: "Gateway"):
        self.gateway = gateway
        super().__init__(addr, handler)

    def handle_error(self, request, client_address):
        # A client that hangs up before its reply is written is routine, not
        # a server fault worth a traceback on stderr.
        if isinstance(sys.exc_info()[1], ConnectionError):
            logger.debug("gateway: client %s disconnected early", client_address)
            return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"

    # Route table filled in do_GET/do_POST; BaseHTTPRequestHandler logging is
    # redirected to the module logger to keep test output quiet.
    def log_message(self, fmt, *args):
        logger.debug("gateway: " + fmt, *args)

    @property
    def gw(self) -> "Gateway":
        return self.server.gateway  # type: ignore[attr-defined]

    # Replies are held until the request's handler has returned, so its
    # metrics (routed, errors, in-flight release) are settled before the
    # client can read the reply and ask /metrics about it.
    _reply: tuple[int, str, bytes] | None = None

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._reply = (code, "application/json; charset=utf-8", body)

    def _send_text(self, code: int, text: str) -> None:
        self._reply = (code, "text/plain; charset=utf-8", text.encode("utf-8"))

    def _write_reply(self) -> None:
        if self._reply is None:
            return
        code, content_type, body = self._reply
        self._reply = None
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                # rfile.read(-1) would wait for EOF and pin an admission slot
                return None
            raw = self.rfile.read(length) if length else b""
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def do_GET(self):
        try:
            self._dispatch_get()
        finally:
            self._write_reply()

    def do_POST(self):
        try:
            self._dispatch_post()
        finally:
            self._write_reply()

    def _dispatch_get(self):
        if self.path == "/healthz":
            model = self.gw.model
            self._send_json(200, {"status": "ok", "models": model.num_models})
        elif self.path == "/metrics":
            self._send_text(200, self.gw.metrics.render_text())
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def _dispatch_post(self):
        if self.path == "/route":
            self.gw.handle_route(self)
        elif self.path == "/generate":
            self.gw.handle_generate(self)
        elif self.path == "/admin/reload":
            self.gw.handle_reload(self)
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})


class Gateway:
    """A running (or startable) routing service; use serve() or start()/shutdown()."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        self._model = self._load_and_check(config.checkpoint_path)
        self.metrics = Metrics()
        self._admission = threading.Semaphore(config.max_in_flight)
        self._log_lock = threading.Lock()
        self._server: _GatewayServer | None = None
        self._thread: threading.Thread | None = None

    # -- model snapshot ----------------------------------------------------

    @property
    def model(self) -> RouterModel:
        return self._model

    def _load_and_check(self, checkpoint_path: str) -> RouterModel:
        model = load_checkpoint(checkpoint_path)
        missing = [m for m in model.registry.ids
                   if self.config.registry.endpoint_for(m) is None]
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

    def _admit(self, handler: _Handler) -> bool:
        if not self._admission.acquire(blocking=False):
            self.metrics.record_error("rejected")
            handler._send_json(503, {"error": "over capacity"})
            return False
        self.metrics.enter()
        return True

    def _release(self) -> None:
        self.metrics.leave()
        self._admission.release()

    @staticmethod
    def _extract_query(handler: _Handler) -> str | None:
        payload = handler._read_json()
        if payload is None:
            handler._send_json(400, {"error": "body must be a JSON object"})
            return None
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            handler._send_json(400, {"error": "missing or empty 'query'"})
            return None
        return text

    def _decide(self, model: RouterModel, text: str) -> tuple[str, list[float]]:
        model_id, probs = route(model, text)
        self.metrics.record_routed(model_id)
        return model_id, [float(p) for p in probs]

    def handle_route(self, handler: _Handler) -> None:
        if not self._admit(handler):
            return
        try:
            text = self._extract_query(handler)
            if text is None:
                self.metrics.record_error("bad_request")
                return
            model_id, probs = self._decide(self.model, text)
            handler._send_json(200, {
                "model_id": model_id,
                "distribution": probs,
                "request_id": uuid.uuid4().hex,
            })
        finally:
            self._release()

    def _call_backend(self, endpoint: str, text: str) -> str:
        req = urllib.request.Request(
            endpoint,
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

    def handle_generate(self, handler: _Handler) -> None:
        if not self._admit(handler):
            return
        started = time.perf_counter()
        try:
            text = self._extract_query(handler)
            if text is None:
                self.metrics.record_error("bad_request")
                return
            model = self.model     # one snapshot for the whole request
            request_id = uuid.uuid4().hex
            model_id, probs = self._decide(model, text)
            served_by, status, failover = model_id, "ok", False
            response_text: str | None = None
            try:
                endpoint = self.config.registry.endpoint_for(model_id)
                response_text = self._call_backend(endpoint, text)
            except BackendTimeout:
                self.metrics.record_error("timeout")
                status = "timeout"
            except BackendError as exc:
                fallback = self.config.fallback_model_id
                if fallback is not None and fallback != model_id:
                    try:
                        endpoint = self.config.registry.endpoint_for(fallback)
                        response_text = self._call_backend(endpoint, text)
                        served_by, status, failover = fallback, "ok", True
                        self.metrics.record_error("failover")
                    except (BackendError, BackendTimeout):
                        self.metrics.record_error("backend")
                        status = f"backend_error: {exc}"
                else:
                    self.metrics.record_error("backend")
                    status = f"backend_error: {exc}"

            latency_ms = (time.perf_counter() - started) * 1000.0
            self._append_route_record(request_id, text, model_id, served_by,
                                      probs, latency_ms, status, failover)
            if response_text is None:
                code = 504 if status == "timeout" else 502
                handler._send_json(code, {
                    "error": status,
                    "model_id": model_id,
                    "request_id": request_id,
                })
                return
            self.metrics.record_latency(latency_ms)
            handler._send_json(200, {
                "model_id": served_by,
                "text": response_text,
                "request_id": request_id,
                "latency_ms": latency_ms,
            })
        finally:
            self._release()

    def handle_reload(self, handler: _Handler) -> None:
        payload = handler._read_json()
        if payload is None or not isinstance(payload.get("checkpoint_path"), str):
            handler._send_json(400, {"error": "need {'checkpoint_path': ...}"})
            return
        try:
            model = self.reload_checkpoint(payload["checkpoint_path"])
        except Exception as exc:
            handler._send_json(400, {"error": f"reload failed: {exc}"})
            return
        handler._send_json(200, {"status": "reloaded", "models": model.num_models})

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
    if isinstance(exc, (socket.timeout, TimeoutError)):
        return BackendTimeout(str(exc) or "timed out")
    if isinstance(exc, urllib.error.URLError):
        if isinstance(getattr(exc, "reason", None), (socket.timeout, TimeoutError)):
            return BackendTimeout(str(exc.reason))
        return BackendError(str(exc.reason if hasattr(exc, "reason") else exc))
    return BackendError(str(exc))


def serve(config: GatewayConfig) -> Gateway:
    """Construct and start a gateway; returns the running handle."""
    gw = Gateway(config)
    gw.start()
    return gw
