"""Deterministic stand-in for a model backend.

Answers POST {"query": ...} with {"text": "<model_id>:<hash12>", "model_id": ...}
where the text matches stub_response() from the ranking module, so a gateway
response can be checked against an offline routing decision exactly. Supports
an artificial delay and a forced-failure mode for exercising timeout and
error paths. It reads bodies with the gateway's reader and checks the query
with the gateway's rule (a bad body is 400, one over the cap 413), and it
binds through the gateway's server class. Unlike the gateway, it starts a
thread per connection: it speaks HTTP/1.1, so a client may keep its
connection for the next request, and shutdown() closes those connections
too.

Runnable standalone:

    python -m rewardroute.stub_backend --model-id m0 --port 9001
"""

from __future__ import annotations

import argparse
import logging
import socket
import threading
import time
from socketserver import ThreadingMixIn

from .gateway import _BodyTooLarge, _HTTPServer, _JSONHandler, _query
from .ranking import stub_response

logger = logging.getLogger(__name__)


class _StubHandler(_JSONHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        logger.debug("stub backend: " + fmt, *args)

    def do_POST(self):
        backend: StubBackend = self.server.owner  # type: ignore[attr-defined]
        backend.count_hit()
        if backend.delay_ms > 0:
            time.sleep(backend.delay_ms / 1000.0)
        if backend.fail:
            # The body is left unread, so this connection carries no next request.
            self.close_connection = True
            self._write(500, {"error": "forced failure"})
            return
        try:
            payload = self._read_json()
        except _BodyTooLarge as exc:
            self._write(413, {"error": str(exc)})
            return
        query, error = _query(payload)
        if error is not None:
            self._write(400, {"error": error})
            return
        self._write(200, {"text": stub_response(backend.model_id, query),
                          "model_id": backend.model_id})


class _StubServer(ThreadingMixIn, _HTTPServer):
    """Accepts on one thread and serves each connection on a daemon thread of its own.

    It keeps its open connections, so stop() can end the keep-alive ones:
    their threads wait on a client's next request with no timeout, and
    without this would serve it after stop().
    """

    daemon_threads = True

    def __init__(self, addr, handler, owner):
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        self.thread: threading.Thread | None = None
        super().__init__(addr, handler, owner)

    def start(self, name: str) -> None:
        self.thread = threading.Thread(target=self.serve_forever,
                                       kwargs={"poll_interval": 0.05}, name=name, daemon=True)
        self.thread.start()

    def process_request(self, request, client_address):
        # On the serving thread, so once stop() has ended that thread, every
        # accepted connection is in the set.
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def stop(self) -> None:
        if self.thread is not None:
            self.shutdown()
            self.thread.join()
        self.server_close()
        with self._open_lock:
            for request in self._open:
                try:
                    # Wakes the handler's read with EOF; its thread then closes the socket.
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:     # the client already went away
                    pass


class StubBackend:
    """One fake model server; start() binds and serves on a daemon thread."""

    def __init__(self, model_id: str, host: str = "127.0.0.1", port: int = 0,
                 delay_ms: float = 0.0, fail: bool = False):
        self.model_id = model_id
        self.host = host
        self.delay_ms = delay_ms
        self.fail = fail
        self._hits = 0
        self._lock = threading.Lock()
        self._server = _StubServer((host, port), _StubHandler, self)

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}/"

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    def count_hit(self) -> None:
        with self._lock:
            self._hits += 1

    def start(self) -> "StubBackend":
        self._server.start(f"stub-{self.model_id}")
        return self

    def shutdown(self) -> None:
        self._server.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run a stub model backend")
    parser.add_argument("--model-id", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--delay-ms", type=float, default=0.0)
    args = parser.parse_args(argv)
    backend = StubBackend(args.model_id, host=args.host, port=args.port,
                          delay_ms=args.delay_ms)
    backend.start()
    print(f"stub backend {args.model_id} listening on {backend.endpoint}")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        backend.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
