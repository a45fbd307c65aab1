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

Each connection is accepted and served by the same handler thread. The
threads start as they are needed, one more whenever the last idle one takes
a connection, up to max_in_flight + 1, and are reused for later
connections; while every one is busy, new connections wait in the listen
backlog. The router snapshot is immutable and shared read-only across
handler threads; reload replaces the reference, and in-flight requests
finish on the snapshot they started with. Admission is a bounded gate: when
max_in_flight requests are already being handled, new ones get 503
immediately instead of queuing, from the one thread the cap keeps for it.

A /route or /generate request takes one path: read the query, route it
once, then (for /generate) call the chosen backend. A backend call ends in
a status string, "ok", "timeout" or "backend_error: <reason>", and a
backend error, not a timeout, gets one call to the fallback model. Both
calls share one timeout_ms budget, taken at admission. The status goes
into the counters, the route-log record and the reply. Each call is one
HTTP/1.1 POST to the endpoint's host and port, checked once at start: no
proxy is consulted, a 3xx is a backend error and is never followed, and a
reply over MAX_BODY_BYTES is a backend error.

A call takes the most recently idle keep-alive connection to its backend,
or opens one. The connection goes back to the idle list only after a 2xx
reply that was read to its end and does not close the connection; any
error, timeout or non-2xx reply drops it. A reused connection that fails
before a status line arrives (the backend closed it while idle) is retried
once on a new connection within the same budget; a timeout, or a failure
after a reply has begun, never is. shutdown() closes the idle connections.

_HTTPServer, _JSONHandler and _query are shared with the stub backend:
both servers bind the same way and read bodies and queries by one rule.
The stub backend keeps a thread per connection, since its clients hold
their connections open.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import socket
import sys
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from .checkpoint import load_checkpoint
from .data import (check_query_text, check_str, read_json, read_registry_file, require_fields,
                   to_number)
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
        if not 0 <= self.port <= 65535:
            raise GatewayError(f"port must be in 0..65535, not {self.port}")
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

        _, endpoints = read_registry_file(_path("registry"))
        fallback = raw.get("fallback_model_id")
        numbers = {key: to_number(int, raw.get(key, getattr(cls, key)), where, repr(key))
                   for key in ("port", "timeout_ms", "max_in_flight")}
        return cls(
            checkpoint_path=_path("checkpoint"),
            endpoints=endpoints,
            host=check_str(raw.get("host", cls.host), where, "'host'"),
            **numbers,
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

    def render_text(self, handler_threads: int, handler_threads_busy: int) -> str:
        """The exposition text, with the server's handler-thread gauges appended."""
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
        lines.append(f"gateway_handler_threads {handler_threads}")
        lines.append(f"gateway_handler_threads_busy {handler_threads_busy}")
        return "\n".join(lines) + "\n"


def query_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class _HTTPServer(HTTPServer):
    """The gateway's and the stub backend's server: a deep backlog, quiet hang-ups.

    `owner` is the Gateway or StubBackend its handlers answer for. Each
    subclass brings its own threads through start(name) and stop(): the
    gateway's handler threads accept and serve their own connections, and
    the stub backend accepts on one thread and serves each connection on a
    thread of its own.
    """

    request_queue_size = 256

    def __init__(self, addr, handler, owner):
        self.owner = owner
        super().__init__(addr, handler)

    def handle_error(self, request, client_address):
        # A client that hangs up before its reply is written is routine, not
        # a server fault worth a traceback on stderr.
        if isinstance(sys.exc_info()[1], ConnectionError):
            logger.debug("%s: client %s disconnected early",
                         type(self).__name__, client_address)
            return
        super().handle_error(request, client_address)


# A handler thread whose accept() fails while the server is not stopping
# (EMFILE, say) waits this long before it accepts again.
ACCEPT_RETRY_S = 0.05


class _GatewayServer(_HTTPServer):
    """Handler threads that each accept() a connection and serve it themselves.

    start() starts one thread, and one more starts whenever the last idle
    thread takes a connection, up to max_in_flight + 1: max_in_flight for
    admitted requests and one to answer the next connection's 503 at once.
    Threads stay alive once started; while every one is busy, further
    connections wait in the listen backlog. No socket is handed between
    threads.
    """

    def __init__(self, addr, handler, owner):
        super().__init__(addr, handler, owner)
        self.max_threads = owner.config.max_in_flight + 1
        self.stopping = threading.Event()
        self._name = ""
        self._threads: list[threading.Thread] = []
        self._busy: set[int] = set()    # idents of threads whose connection awaits its reply
        self._lock = threading.Lock()

    def start(self, name: str) -> None:
        self._name = name
        with self._lock:
            self._add_thread()

    def _add_thread(self) -> None:
        """Start one more handler thread; the caller holds self._lock.

        When the system has no thread to give, the threads already running
        serve on, and a later connection tries again.
        """
        thread = threading.Thread(target=self._serve, name=f"{self._name}-{len(self._threads) + 1}",
                                  daemon=True)
        try:
            thread.start()
        except RuntimeError as exc:
            if not self._threads:
                raise
            logger.warning("%s: cannot start a handler thread: %s", type(self).__name__, exc)
            return
        self._threads.append(thread)

    def thread_counts(self) -> tuple[int, int]:
        """(handler threads started, those of them holding a connection not yet answered)."""
        with self._lock:
            return len(self._threads), len(self._busy)

    def release(self) -> None:
        """Count the calling handler thread idle again.

        A handler calls this just before it writes its reply, so a client
        that reads the reply and connects again finds the thread idle, not
        busy closing its socket, and no thread is started for it.
        """
        with self._lock:
            self._busy.discard(threading.get_ident())

    def _serve(self) -> None:
        while True:
            try:
                request, client_address = self.get_request()
            except OSError as exc:
                if self.stopping.is_set():
                    return
                # Out of file descriptors, say: this may be the last thread
                # that accepts, so it pauses and accepts again.
                logger.debug("%s: accept failed: %s", type(self).__name__, exc)
                self.stopping.wait(ACCEPT_RETRY_S)
                continue
            with self._lock:
                self._busy.add(threading.get_ident())
                if (len(self._busy) == len(self._threads) < self.max_threads
                        and not self.stopping.is_set()):
                    self._add_thread()
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.release()
                self.shutdown_request(request)

    def stop(self) -> None:
        """Stop accepting, let every handler finish its connection, close the socket.

        Shutting the listening socket down makes every accept() blocked on
        it, and every later one, fail at once (on Linux), so each idle
        thread ends. A busy one ends after its connection; its socket
        timeout drops a stalled client after timeout_ms.
        """
        self.stopping.set()
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:     # already stopped
            pass
        with self._lock:    # no thread starts once stopping is set
            threads = list(self._threads)
        for thread in threads:
            thread.join()
        self.server_close()


# A larger declared POST body gets 413 unread, so no client can make a
# handler thread buffer and parse an unbounded body.
MAX_BODY_BYTES = 1 << 20


# A backend's error reason goes into the 502 body and the route log with its
# C0 and DEL control characters dropped and cut to this many characters.
MAX_REASON_CHARS = 200
_CONTROL_CHARS = dict.fromkeys([*range(0x20), 0x7F])


def _backend_error(reason: object) -> str:
    """The status of a failed backend call; the reason is backend text, so one short line."""
    return "backend_error: " + str(reason).translate(_CONTROL_CHARS).strip()[:MAX_REASON_CHARS]


def _backend_target(model_id: str, url: str) -> tuple[str, int, str]:
    """(host, port, request target) of an http://host[:port][/path][?query] endpoint."""
    parts = urlsplit(url)
    try:
        if parts.scheme == "http" and parts.hostname and parts.port != 0:
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
            return parts.hostname, parts.port or 80, target
    except ValueError:      # a port that is not a number or is outside 0..65535
        pass
    raise GatewayError(f"model {model_id!r}: endpoint {url!r} is not an http://host[:port] URL")


class _BodyTooLarge(Exception):
    pass


class _JSONHandler(BaseHTTPRequestHandler):
    """Reads a JSON request body and writes one reply: the gateway's and the stub backend's."""

    protocol_version = "HTTP/1.0"
    # _write sends the headers and the body in two writes; with Nagle's
    # algorithm on, a keep-alive peer's delayed ACK holds the body ~40 ms.
    disable_nagle_algorithm = True

    def _read_json(self) -> dict | None:
        """The body as a JSON object, or None; _BodyTooLarge when it declares too many bytes.

        A body it leaves unread closes the connection after the reply, so its
        bytes are never parsed as a next keep-alive request.
        """
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            if length < 0:
                # no length to read by; rfile.read(-1) would wait for EOF
                return None
            raise _BodyTooLarge(f"body of {length} bytes is over {MAX_BODY_BYTES}")
        try:
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


class _Handler(_JSONHandler):
    """Reads a request, asks the gateway for its reply and writes that once."""

    # BaseHTTPRequestHandler logging goes to the module logger to keep test
    # output quiet.
    def log_message(self, fmt, *args):
        logger.debug("gateway: " + fmt, *args)

    def setup(self):
        # Every read and write on the client socket is bounded by timeout_ms,
        # so a client that stalls mid-request is dropped (handle_one_request
        # closes on TimeoutError) instead of holding this thread, and
        # shutdown(), which joins it, forever.
        self.timeout = self.server.owner.config.timeout_ms / 1000.0
        super().setup()

    def _write(self, code: int, body: dict | str) -> None:
        self.server.release()
        super()._write(code, body)

    def do_GET(self):
        self._write(*self.server.owner.handle_get(self.path))

    def do_POST(self):
        # The body is read before admission: a client that trickles its body
        # holds this handler thread, never an admission slot.
        gateway = self.server.owner
        try:
            payload = self._read_json()
        except _BodyTooLarge as exc:
            gateway.metrics.record_error("bad_request")
            self._write(413, {"error": str(exc)})
            return
        self._write(*gateway.handle_post(self.path, payload))


class Gateway:
    """A running (or startable) routing service; use start()/shutdown() or serve_forever()."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        self._backends = {m: _backend_target(m, url) for m, url in config.endpoints.items()}
        # Idle keep-alive connections per backend host and port, most recently
        # returned last. Only a call puts one there, so a list never holds
        # more than the calls that were once in flight to it at the same time.
        self._idle: dict[tuple[str, int], list[http.client.HTTPConnection]] = {
            (host, port): [] for host, port, _ in self._backends.values()}
        self._idle_lock = threading.Lock()
        self.model = self._load_and_check(config.checkpoint_path)
        self.metrics = Metrics()
        self._log_lock = threading.Lock()
        try:
            # Line-buffered, so each record is written out before its reply.
            self._log = (None if config.route_log_path is None else
                         open(config.route_log_path, "a", encoding="utf-8", buffering=1))
        except OSError as exc:
            raise GatewayError(f"cannot open route log {config.route_log_path}: {exc}") from exc
        self._server: _GatewayServer | None = None

    # -- model snapshot ----------------------------------------------------

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
        self.model = new_model
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
        self._server.start("gateway-handler")

    @property
    def port(self) -> int:
        if self._server is None:
            raise GatewayError("gateway not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def shutdown(self) -> None:
        """Stop accepting, drain in-flight handlers, close idle backend connections and the log."""
        # serve_forever() may call this while another thread's call is in
        # stop(); both then wait for the drain, which stop() allows twice.
        server = self._server
        if server is not None:
            server.stop()
            self._server = None
        # After stop(): no handler is left to return a connection.
        with self._idle_lock:
            for idle in self._idle.values():
                for conn in idle:
                    conn.close()
                idle.clear()
        if self._log is not None:
            self._log.close()

    def serve_forever(self) -> None:
        """Serve until shutdown() from another thread or a KeyboardInterrupt, then shut down."""
        if self._server is None:
            self.start()
        stopping = self._server.stopping
        try:
            # A timed wait, so the main thread sees a Ctrl-C within 0.2 s.
            while not stopping.wait(timeout=0.2):
                pass
        finally:
            self.shutdown()

    # -- request handling ----------------------------------------------------

    def handle_get(self, path: str) -> tuple[int, dict | str]:
        if path == "/healthz":
            return 200, {"status": "ok", "models": self.model.num_models}
        if path == "/metrics":
            return 200, self.metrics.render_text(*self._server.thread_counts())
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
            text, error = _query(payload)
            if error is not None:
                self.metrics.record_error("bad_request")
                return 400, {"error": error}
            model_id, probs = route(self.model, text)
            self.metrics.record_routed(model_id)
            distribution = [float(p) for p in probs]
            if path == "/generate":
                return self._generate(text, model_id, distribution, started)
            self.metrics.record_latency((time.perf_counter() - started) * 1000.0)
            return 200, {
                "model_id": model_id,
                "distribution": distribution,
                "request_id": uuid.uuid4().hex,
            }
        finally:
            self.metrics.leave()

    def _call_backend(self, model_id: str, text: str,
                      deadline: float) -> tuple[str | None, str]:
        """(text, "ok"), (None, "timeout") or (None, "backend_error: <reason>").

        The call gets the time left until `deadline` (a perf_counter()
        reading); with none left it is not made and ends as a timeout.
        """
        host, port, target = self._backends[model_id]
        # UTF-8 with nothing escaped: the forwarded body is never larger than
        # the body the gateway accepted, so it fits the backend's cap too.
        body = json.dumps({"query": text}, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
        idle = self._idle[host, port]
        with self._idle_lock:
            conn = idle.pop() if idle else None
        try:
            resp = None
            while resp is None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return None, "timeout"
                reused = conn is not None
                if reused:
                    conn.sock.settimeout(remaining)
                else:
                    conn = http.client.HTTPConnection(host, port, timeout=remaining)
                try:
                    conn.request("POST", target, body, {"Content-Type": "application/json"})
                    resp = conn.getresponse()
                # RemoteDisconnected, no status line at all, is a ConnectionResetError.
                except (BrokenPipeError, ConnectionResetError):
                    if not reused:
                        raise
                    # The backend closed this idle connection: once more on a new one.
                    conn.close()
                    conn = None
            # A 3xx is an error like any other: a redirect is never followed.
            if not 200 <= resp.status < 300:
                return None, _backend_error(resp.reason)
            raw = resp.read(MAX_BODY_BYTES + 1)
            if len(raw) > MAX_BODY_BYTES:
                return None, f"backend_error: reply over {MAX_BODY_BYTES} bytes"
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict) or "text" not in payload:
                return None, "backend_error: backend response has no 'text' field"
            # Read to its end, and the backend keeps it open: the next call may reuse it.
            if resp.isclosed() and not resp.will_close:
                with self._idle_lock:
                    idle.append(conn)
                conn = None
        except TimeoutError:    # socket.timeout is TimeoutError
            return None, "timeout"
        except (OSError, ValueError, http.client.HTTPException) as exc:
            return None, _backend_error(exc)
        finally:
            if conn is not None:
                conn.close()
        return str(payload["text"]), "ok"

    def _generate(self, text: str, model_id: str, distribution: list[float],
                  started: float) -> tuple[int, dict]:
        request_id = uuid.uuid4().hex
        served_by = model_id
        # One timeout_ms budget from admission: the fallback gets what the primary left.
        deadline = started + self.config.timeout_ms / 1000.0
        response_text, status = self._call_backend(model_id, text, deadline)
        fallback = self.config.fallback_model_id
        # A slow query is not retried on a second backend; a failed one is, once.
        if response_text is None and status != "timeout" and fallback not in (None, model_id):
            fallback_text, fallback_status = self._call_backend(fallback, text, deadline)
            if fallback_text is not None:
                response_text, served_by, status = fallback_text, fallback, fallback_status
        failover = served_by != model_id
        if failover:
            self.metrics.record_error("failover")
        elif response_text is None:
            self.metrics.record_error("timeout" if status == "timeout" else "backend")

        latency_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.record_latency(latency_ms)
        if self._log is not None:
            record = json.dumps({
                "request_id": request_id,
                "query_hash": query_hash(text),
                "model_id": model_id,
                "served_by": served_by,
                "distribution": distribution,
                "latency_ms": latency_ms,
                "status": status,
                "failover": failover,
            })
            with self._log_lock:
                self._log.write(record + "\n")
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


def _query(payload: dict | None) -> tuple[str | None, str | None]:
    """(query, None) for a routable /route or /generate body, else (None, why not)."""
    if payload is None:
        return None, "body must be a JSON object"
    text = payload.get("query")
    if not isinstance(text, str):
        return None, "'query' is missing or not a string"
    try:
        check_query_text(text, "'query'")
    except DataFormatError as exc:
        return None, str(exc)
    return text, None
