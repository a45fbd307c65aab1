import ast
import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from rewardroute import (
    CheckpointError,
    Gateway,
    GatewayConfig,
    GatewayError,
    StubBackend,
    load_checkpoint,
    route,
    save_checkpoint,
)


def _post(url, payload, timeout=10):
    data = json.dumps(payload).encode() if not isinstance(payload, bytes) else payload
    req = urllib.request.Request(url, data=data,
                                 headers={"Content-Type": "application/json"},
                                 method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        body = err.read()
        return err.code, json.loads(body) if body else {}


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory, tiny_model):
    path = tmp_path_factory.mktemp("gw") / "router.ckpt"
    save_checkpoint(tiny_model, path)
    return str(path)


@pytest.fixture
def gw_env(ckpt, tiny_model):
    """Started stub backends + a factory for gateways bound to them."""
    started = []

    class Env:
        def __init__(self):
            self.backends = {}
            for m in tiny_model.registry.ids:
                b = StubBackend(m).start()
                self.backends[m] = b
                started.append(b)

        def endpoints(self):
            return {m: b.endpoint for m, b in self.backends.items()}

        def gateway(self, **overrides):
            config = GatewayConfig(
                checkpoint_path=overrides.pop("checkpoint_path", ckpt),
                endpoints=overrides.pop("endpoints", self.endpoints()),
                port=0,
                **overrides,
            )
            gw = Gateway(config)
            gw.start()
            started.append(gw)
            return gw

        def add_backend(self, model_id, **kwargs):
            b = StubBackend(model_id, **kwargs).start()
            self.backends[model_id] = b
            started.append(b)
            return b

    yield Env()
    for item in reversed(started):
        item.shutdown()


def test_healthz_reports_model_count(gw_env):
    gw = gw_env.gateway()
    status, body = _post(gw.url + "/route", {"query": "tide moon shore"})
    assert status == 200
    status, text = _get(gw.url + "/healthz")
    assert status == 200
    assert json.loads(text) == {"status": "ok", "models": 3}


def test_route_matches_offline_decisions(gw_env, ckpt, tiny_benchmark):
    gw = gw_env.gateway()
    model = load_checkpoint(ckpt)
    dataset, _ = tiny_benchmark
    for row in dataset.rows[:12]:
        status, body = _post(gw.url + "/route", {"query": row.query.text})
        assert status == 200
        offline_id, offline_probs = route(model, row.query.text)
        assert body["model_id"] == offline_id
        np.testing.assert_allclose(body["distribution"], offline_probs, atol=1e-9)
        assert abs(sum(body["distribution"]) - 1.0) < 1e-9
        assert body["request_id"]


def test_generate_proxies_to_chosen_backend(gw_env, ckpt):
    from rewardroute import stub_response

    gw = gw_env.gateway()
    model = load_checkpoint(ckpt)
    query = "gear torque shaft bearing"
    status, body = _post(gw.url + "/generate", {"query": query})
    assert status == 200
    chosen, _ = route(model, query)
    assert body["model_id"] == chosen
    assert body["text"] == stub_response(chosen, query)
    assert body["latency_ms"] > 0
    assert sum(b.hits for b in gw_env.backends.values()) == 1
    assert gw_env.backends[chosen].hits == 1


@pytest.mark.parametrize("payload", [
    {},
    {"query": ""},
    {"query": "   "},
    {"query": 17},
    b"{broken json",
    b"[1, 2, 3]",
])
def test_invalid_generate_bodies_get_400(gw_env, payload):
    gw = gw_env.gateway()
    status, body = _post(gw.url + "/generate", payload)
    assert status == 400
    assert "error" in body
    assert sum(b.hits for b in gw_env.backends.values()) == 0


@pytest.mark.parametrize("path", ["/route", "/generate"])
def test_query_without_a_utf8_form_is_a_bad_request(gw_env, path):
    gw = gw_env.gateway()
    # JSON's "\ud800" decodes to a lone surrogate, which UTF-8 cannot encode.
    status, body = _post(gw.url + path, b'{"query": "tide \\ud800 moon"}')
    assert status == 400
    assert "surrogate" in body["error"]
    assert gw.metrics.snapshot()["errors"]["bad_request"] == 1
    assert sum(b.hits for b in gw_env.backends.values()) == 0
    status, _ = _post(gw.url + path, {"query": "tide moon"})
    assert status == 200


@pytest.mark.parametrize("payload, error", [
    ({}, "'query' is missing or not a string"),
    ({"query": 17}, "'query' is missing or not a string"),
    ({"query": " \t"}, "'query' is blank"),
    (b'{"query": "tide \\ud800 moon"}',
     "'query' holds a lone surrogate at character 5, so it has no UTF-8 form"),
])
def test_an_unroutable_query_is_a_400_naming_the_rule_it_breaks(gw_env, payload, error):
    status, body = _post(gw_env.gateway().url + "/route", payload)
    assert (status, body["error"]) == (400, error)


def test_non_ascii_query_under_the_cap_fits_the_backend_cap(gw_env, ckpt):
    from rewardroute import stub_response
    from rewardroute.gateway import MAX_BODY_BYTES

    query = " ".join(["éééé"] * 45_000)
    body = json.dumps({"query": query}, ensure_ascii=False).encode("utf-8")
    # With ASCII escapes each "é" would grow from 2 bytes to 6, past the cap.
    assert len(body) < MAX_BODY_BYTES < len(json.dumps({"query": query}))
    gw = gw_env.gateway()
    status, reply = _post(gw.url + "/generate", body)
    assert status == 200, reply
    chosen, _ = route(load_checkpoint(ckpt), query)
    assert reply["text"] == stub_response(chosen, query)
    assert gw.metrics.snapshot()["errors"] == {}


def test_unknown_path_is_404(gw_env):
    gw = gw_env.gateway()
    status, _ = _post(gw.url + "/nope", {"query": "x"})
    assert status == 404
    with pytest.raises(urllib.error.HTTPError):
        urllib.request.urlopen(gw.url + "/nope", timeout=5)


def test_over_capacity_requests_get_503(gw_env):
    for b in gw_env.backends.values():
        b.delay_ms = 700
    gw = gw_env.gateway(max_in_flight=1)
    results = []

    def call():
        results.append(_post(gw.url + "/generate", {"query": "tide moon shore"}))

    first = threading.Thread(target=call)
    first.start()
    time.sleep(0.25)  # let the first request occupy the only slot
    status, body = _post(gw.url + "/generate", {"query": "tide moon shore"})
    first.join()
    assert status == 503
    assert "capacity" in body["error"]
    assert results[0][0] == 200
    assert gw.metrics.snapshot()["errors"]["rejected"] == 1


def test_negative_content_length_is_400_and_frees_its_slot(gw_env):
    gw = gw_env.gateway(max_in_flight=1)
    with socket.create_connection((gw.config.host, gw.port), timeout=5) as sock:
        sock.sendall(b"POST /route HTTP/1.0\r\nContent-Type: application/json\r\n"
                     b"Content-Length: -1\r\n\r\n")
        reply = b""
        while chunk := sock.recv(4096):  # the gateway closes once it has replied
            reply += chunk
        # this client still holds its socket open while the next one asks
        status, body = _post(gw.url + "/route", {"query": "tide moon shore"})
    assert reply.startswith(b"HTTP/1.0 400")
    assert status == 200, body


def _raw_post(host, port, body=b"", length=None, timeout=2):
    """POST raw bytes on a fresh socket; return all the server writes before it closes."""
    length = len(body) if length is None else length
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(b"POST /generate HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % length + body)
        reply = b""
        while chunk := sock.recv(4096):  # the server closes once it has replied
            reply += chunk
    return reply


@pytest.mark.parametrize("server", ["gateway", "stub_backend"])
def test_body_declared_over_the_cap_gets_413_unread(gw_env, server):
    from rewardroute.gateway import MAX_BODY_BYTES

    gw = gw_env.gateway(timeout_ms=10000)
    stub = gw_env.backends["m0"]
    host, port = (gw.config.host, gw.port) if server == "gateway" else (stub.host, stub.port)
    # No body follows the header: a server that tried to read it would wait.
    reply = _raw_post(host, port, length=MAX_BODY_BYTES + 1)
    # The stub serves HTTP/1.1 (keep-alive), the gateway's client side HTTP/1.0.
    assert reply.startswith(b"HTTP/1.0 413" if server == "gateway" else b"HTTP/1.1 413")
    assert b"is over" in reply
    snap = gw.metrics.snapshot()
    assert snap["errors"] == ({"bad_request": 1} if server == "gateway" else {})
    assert snap["in_flight"] == 0


@pytest.mark.parametrize("body, length", [
    (b"[1]", None),
    (b'{"query": 5}', None),
    (b'{"query": "   "}', None),
    (b"{broken json", None),
    (b'{"query": "\xff"}', None),
    (b"", -1),
])
def test_stub_backend_answers_malformed_bodies_with_400(gw_env, body, length):
    from rewardroute import stub_response

    stub = gw_env.backends["m0"]
    reply = _raw_post(stub.host, stub.port, body, length)
    assert reply.startswith(b"HTTP/1.1 400")
    assert b'{"error": ' in reply
    status, answer = _post(stub.endpoint, {"query": "tide moon"})
    assert status == 200
    assert answer == {"text": stub_response("m0", "tide moon"), "model_id": "m0"}


def _read_until_closed(sock) -> bytes:
    reply = b""
    try:
        while chunk := sock.recv(4096):
            reply += chunk
    except ConnectionResetError:
        pass
    return reply


@pytest.mark.parametrize("case, code", [
    ("over-the-cap", 413),
    ("negative-length", 400),
    ("length-not-a-number", 400),
    ("forced-failure", 500),
])
def test_a_stub_reply_sent_with_the_body_unread_closes_the_connection(gw_env, case, code):
    from rewardroute.gateway import MAX_BODY_BYTES

    stub = gw_env.backends["m0"]
    stub.fail = case == "forced-failure"
    body = b'{"query": "tide moon"}'
    head = b"POST / HTTP/1.1\r\nHost: stub\r\nContent-Length: %s\r\n\r\n"
    length = {"over-the-cap": b"%d" % (MAX_BODY_BYTES + 1), "negative-length": b"-1",
              "length-not-a-number": b"twenty"}.get(case, b"%d" % len(body))
    # What follows the first header is its body only when the length says so;
    # either way it must not be read as a second request.
    first = head % length + (body if case == "forced-failure" else b"")
    with socket.create_connection((stub.host, stub.port), timeout=5) as sock:
        sock.sendall(first + head % (b"%d" % len(body)) + body)
        reply = _read_until_closed(sock)
    assert reply.startswith(b"HTTP/1.1 %d " % code)
    assert reply.count(b"HTTP/1.1 ") == 1
    assert stub.hits == 1


def test_route_log_that_cannot_be_opened_fails_startup(gw_env, tmp_path):
    missing = tmp_path / "no-such-dir" / "routes.jsonl"
    with pytest.raises(GatewayError, match="cannot open route log"):
        gw_env.gateway(route_log_path=str(missing))
    assert gw_env.backends["m0"].hits == 0


def test_partial_body_does_not_hold_an_admission_slot(gw_env):
    gw = gw_env.gateway(max_in_flight=1)
    sock = socket.create_connection((gw.config.host, gw.port), timeout=5)
    try:
        sock.sendall(b"POST /route HTTP/1.0\r\nContent-Type: application/json\r\n"
                     b"Content-Length: 100\r\n\r\n" + b'{"query": ')
        time.sleep(0.1)  # the gateway is now waiting for the other 90 bytes
        status, body = _post(gw.url + "/route", {"query": "tide moon shore"})
        assert status == 200, body
        assert gw.metrics.snapshot()["in_flight"] == 0
    finally:
        sock.close()  # shutdown joins the handler thread still reading this body


def test_stalled_client_does_not_block_shutdown(gw_env):
    gw = gw_env.gateway(timeout_ms=300)
    stopper = threading.Thread(target=gw.shutdown)
    sock = socket.create_connection((gw.config.host, gw.port), timeout=5)
    try:
        sock.sendall(b"POST /route HTTP/1.0\r\nContent-Type: application/json\r\n"
                     b"Content-Length: 100\r\n\r\n" + b'{"query": ')
        time.sleep(0.1)  # the gateway is now waiting for the other 90 bytes
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive(), "shutdown() waited on a client that sent nothing more"
        assert sock.recv(4096) == b""  # the gateway dropped the stalled connection
    finally:
        sock.close()
        if stopper.is_alive():
            stopper.join()


@pytest.mark.parametrize("server_of", [
    lambda env: env.gateway()._server,
    lambda env: env.backends["m0"]._server,
], ids=["gateway", "stub_backend"])
def test_client_disconnects_do_not_print_tracebacks(gw_env, capsys, server_of):
    server = server_of(gw_env)
    try:
        raise ConnectionResetError("peer reset")
    except ConnectionResetError:
        server.handle_error(None, ("127.0.0.1", 1))
    assert capsys.readouterr().err == ""
    try:
        raise RuntimeError("handler bug")
    except RuntimeError:
        server.handle_error(None, ("127.0.0.1", 1))
    assert "RuntimeError: handler bug" in capsys.readouterr().err


def test_backend_failure_without_fallback_is_502(gw_env):
    gw_env.backends["m0"].fail = True
    gw_env.backends["m1"].fail = True
    gw_env.backends["m2"].fail = True
    gw = gw_env.gateway()
    status, body = _post(gw.url + "/generate", {"query": "tide moon shore"})
    assert status == 502
    assert "backend_error" in body["error"]
    snap = gw.metrics.snapshot()
    assert snap["errors"]["backend"] == 1
    # the routing decision itself still counted
    assert snap["routed_total"] == 1


def test_backend_failure_uses_fallback_when_configured(gw_env, ckpt, tmp_path):
    model = load_checkpoint(ckpt)
    query = "tide moon shore ebb"
    primary, _ = route(model, query)
    fallback = next(m for m in model.registry.ids if m != primary)
    gw_env.backends[primary].fail = True
    log_path = tmp_path / "routes.jsonl"
    gw = gw_env.gateway(fallback_model_id=fallback, route_log_path=str(log_path))

    status, body = _post(gw.url + "/generate", {"query": query})
    assert status == 200
    assert body["model_id"] == fallback
    assert gw_env.backends[primary].hits == 1
    assert gw_env.backends[fallback].hits == 1
    snap = gw.metrics.snapshot()
    assert snap["errors"]["failover"] == 1

    record = json.loads(log_path.read_text().splitlines()[0])
    assert record["model_id"] == primary
    assert record["served_by"] == fallback
    assert record["failover"] is True
    assert record["status"] == "ok"


def test_failed_fallback_is_502_with_the_primary_error(gw_env, ckpt, tmp_path):
    model = load_checkpoint(ckpt)
    query = "tide moon shore ebb"
    primary, _ = route(model, query)
    fallback = next(m for m in model.registry.ids if m != primary)
    gw_env.backends[primary].fail = True
    gw_env.backends[fallback].delay_ms = 600   # the fallback times out
    log_path = tmp_path / "routes.jsonl"
    gw = gw_env.gateway(timeout_ms=150, fallback_model_id=fallback,
                        route_log_path=str(log_path))

    status, body = _post(gw.url + "/generate", {"query": query})
    assert status == 502
    assert body["model_id"] == primary
    assert gw_env.backends[primary].hits == 1
    snap = gw.metrics.snapshot()
    assert snap["errors"]["backend"] == 1
    assert "failover" not in snap["errors"] and "timeout" not in snap["errors"]

    record = json.loads(log_path.read_text().splitlines()[0])
    assert record["model_id"] == primary
    assert record["served_by"] == primary
    assert record["failover"] is False
    assert record["status"].startswith("backend_error:")
    assert body["error"] == record["status"]


def test_timeout_is_504_and_skips_fallback(gw_env, ckpt):
    model = load_checkpoint(ckpt)
    query = "basil thyme sage mint"
    primary, _ = route(model, query)
    fallback = next(m for m in model.registry.ids if m != primary)
    gw_env.backends[primary].delay_ms = 1000
    gw = gw_env.gateway(timeout_ms=150, fallback_model_id=fallback)

    status, body = _post(gw.url + "/generate", {"query": query})
    assert status == 504
    assert body["error"] == "timeout"
    assert gw_env.backends[fallback].hits == 0
    assert gw.metrics.snapshot()["errors"]["timeout"] == 1


class _RawBackend(BaseHTTPRequestHandler):
    """Reads a POST, then writes its server's `reply` bytes as the whole response."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.wfile.write(self.server.reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def raw_backend():
    """Starts backends that answer every POST with fixed bytes; returns their URLs."""
    servers = []

    def start(reply: bytes) -> str:
        server = ThreadingHTTPServer(("127.0.0.1", 0), _RawBackend)
        server.reply = reply
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}/"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("case", ["timeout", "no_text", "not_json"])
def test_generate_outcomes_pin_reply_counters_and_route_log(
        gw_env, ckpt, tmp_path, raw_backend, case):
    model = load_checkpoint(ckpt)
    query = "basil thyme sage mint"
    primary, _ = route(model, query)
    log_path = tmp_path / "routes.jsonl"
    if case == "timeout":
        fallback = next(m for m in model.registry.ids if m != primary)
        gw_env.backends[primary].delay_ms = 1000
        gw = gw_env.gateway(timeout_ms=150, fallback_model_id=fallback,
                            route_log_path=str(log_path))
        code, status, kind = 504, "timeout", "timeout"
    else:
        # A second gateway's /route answers 200 with JSON that has no "text".
        backend = (gw_env.gateway().url + "/route" if case == "no_text"
                   else raw_backend(b"HTTP/1.0 200 OK\r\nContent-Length: 8\r\n\r\nnot json"))
        gw = gw_env.gateway(endpoints={m: backend for m in model.registry.ids},
                            route_log_path=str(log_path))
        code, kind = 502, "backend"
        status = ("backend_error: backend response has no 'text' field" if case == "no_text"
                  else "backend_error: Expecting value: line 1 column 1 (char 0)")

    reply_code, body = _post(gw.url + "/generate", {"query": query})
    assert reply_code == code
    record = json.loads(log_path.read_text())
    assert body == {"error": status, "model_id": primary, "request_id": record["request_id"]}
    assert list(body) == ["error", "model_id", "request_id"]
    assert list(record) == ["request_id", "query_hash", "model_id", "served_by",
                            "distribution", "latency_ms", "status", "failover"]
    assert (record["status"], record["model_id"], record["served_by"], record["failover"]) \
        == (status, primary, primary, False)
    assert sum(b.hits for b in gw_env.backends.values()) == (case == "timeout")
    snap = gw.metrics.snapshot()
    assert snap["errors"] == {kind: 1}
    assert snap["routed"] == {primary: 1}
    assert (snap["latency_ms_count"], snap["in_flight"]) == (1, 0)


def test_backend_reply_that_is_not_http_is_a_backend_error(gw_env, ckpt, raw_backend):
    model = load_checkpoint(ckpt)
    query = "basil thyme sage mint"
    primary, _ = route(model, query)
    fallback = next(m for m in model.registry.ids if m != primary)
    endpoints = {**gw_env.endpoints(), primary: raw_backend(b"garbage\r\n\r\n")}

    gw = gw_env.gateway(endpoints=endpoints)
    status, body = _post(gw.url + "/generate", {"query": query})
    assert status == 502
    assert body["error"].startswith("backend_error: garbage")
    assert gw.metrics.snapshot()["errors"] == {"backend": 1}

    gw = gw_env.gateway(endpoints=endpoints, fallback_model_id=fallback)
    status, body = _post(gw.url + "/generate", {"query": query})
    assert (status, body["model_id"]) == (200, fallback)
    assert gw.metrics.snapshot()["errors"] == {"failover": 1}


@pytest.mark.parametrize("status_line, reason", [
    (b"HTTP/1.0 500 \x1b[31m" + b"x" * 59995, "[31m" + "x" * 196),
    (b"garbage", "garbage"),
], ids=["60000-byte-reason-phrase", "not-http"])
def test_backend_reason_is_one_short_printable_line(
        gw_env, ckpt, tmp_path, raw_backend, status_line, reason):
    model = load_checkpoint(ckpt)
    backend = raw_backend(status_line + b"\r\nContent-Length: 0\r\n\r\n")
    log_path = tmp_path / "routes.jsonl"
    gw = gw_env.gateway(endpoints={m: backend for m in model.registry.ids},
                        route_log_path=str(log_path))

    status, body = _post(gw.url + "/generate", {"query": "basil thyme sage mint"})
    assert (status, body["error"]) == (502, "backend_error: " + reason)
    line = log_path.read_text()
    assert json.loads(line)["status"] == body["error"]
    assert len(line) < 1000


def test_backend_reply_over_the_body_cap_is_a_backend_error(gw_env, ckpt, tmp_path, raw_backend):
    from rewardroute.gateway import MAX_BODY_BYTES

    model = load_checkpoint(ckpt)
    body = json.dumps({"text": "x" * (2 << 20)}).encode()
    backend = raw_backend(b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
    log_path = tmp_path / "routes.jsonl"
    gw = gw_env.gateway(endpoints={m: backend for m in model.registry.ids},
                        route_log_path=str(log_path))

    status, reply = _post(gw.url + "/generate", {"query": "basil thyme sage mint"})
    assert (status, reply["error"]) == (502, f"backend_error: reply over {MAX_BODY_BYTES} bytes")
    line = log_path.read_text()
    assert json.loads(line)["status"] == reply["error"]
    assert len(line) < 1000
    assert gw.metrics.snapshot()["errors"] == {"backend": 1}


class _CountingHandler(BaseHTTPRequestHandler):
    """Counts every request its server gets and answers each with a backend-shaped 200."""

    def _answer(self):
        self.server.requests += 1
        body = b'{"text": "from a host outside the registry"}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _answer

    def log_message(self, *args):
        pass


def test_backend_redirect_is_a_backend_error_and_is_not_followed(gw_env, ckpt, raw_backend):
    model = load_checkpoint(ckpt)
    query = "basil thyme sage mint"
    primary, _ = route(model, query)
    fallback = next(m for m in model.registry.ids if m != primary)
    elsewhere = ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
    elsewhere.requests = 0
    threading.Thread(target=elsewhere.serve_forever, daemon=True).start()
    try:
        location = f"http://127.0.0.1:{elsewhere.server_address[1]}/elsewhere"
        endpoints = {**gw_env.endpoints(), primary: raw_backend(
            b"HTTP/1.0 302 Found\r\nLocation: %s\r\nContent-Length: 0\r\n\r\n"
            % location.encode())}

        gw = gw_env.gateway(endpoints=endpoints)
        status, body = _post(gw.url + "/generate", {"query": query})
        assert (status, body["error"]) == (502, "backend_error: Found")
        assert gw.metrics.snapshot()["errors"] == {"backend": 1}

        gw = gw_env.gateway(endpoints=endpoints, fallback_model_id=fallback)
        status, body = _post(gw.url + "/generate", {"query": query})
        assert (status, body["model_id"]) == (200, fallback)
        assert gw_env.backends[fallback].hits == 1
        assert elsewhere.requests == 0
    finally:
        elsewhere.shutdown()
        elsewhere.server_close()


def test_fallback_gets_only_the_time_the_primary_left(gw_env, ckpt, tmp_path):
    model = load_checkpoint(ckpt)
    query = "tide moon shore ebb"
    primary, _ = route(model, query)
    fallback = next(m for m in model.registry.ids if m != primary)
    gw_env.backends[primary].fail = True
    gw_env.backends[primary].delay_ms = 450    # fails after 450 ms of the 600 ms budget
    gw_env.backends[fallback].delay_ms = 450   # would answer 450 ms after that
    log_path = tmp_path / "routes.jsonl"
    gw = gw_env.gateway(timeout_ms=600, fallback_model_id=fallback,
                        route_log_path=str(log_path))

    status, body = _post(gw.url + "/generate", {"query": query})
    record = json.loads(log_path.read_text())
    assert status == 502
    assert body["error"] == record["status"] == "backend_error: Internal Server Error"
    assert (body["model_id"], record["served_by"], record["failover"]) == (primary, primary, False)
    assert gw_env.backends[fallback].hits == 1
    assert gw.metrics.snapshot()["errors"] == {"backend": 1}
    # A call with no time left is not made.
    assert gw._call_backend(fallback, query, time.perf_counter()) == (None, "timeout")
    assert gw_env.backends[fallback].hits == 1


class _KeepAliveBackend(BaseHTTPRequestHandler):
    """Answers each POST with a backend-shaped 200 and counts connections, not requests.

    Its server's `mode` picks the reply: "keep-alive" (HTTP/1.1), "http/1.0",
    "connection-close", or "closes-silently" (HTTP/1.1 that does not say it
    closes, then does).
    """

    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1
        self.protocol_version = "HTTP/1.0" if self.server.mode == "http/1.0" else "HTTP/1.1"

    def do_POST(self):
        query = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["query"]
        body = json.dumps({"text": "keep: " + query}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        if self.server.mode == "connection-close":
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        if self.server.mode == "closes-silently":
            self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture
def keepalive_backend():
    """Starts a _KeepAliveBackend in the given mode; returns its server and URL."""
    servers = []

    def start(mode: str):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveBackend)
        server.mode, server.connections, server.lock = mode, 0, threading.Lock()
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server, f"http://127.0.0.1:{server.server_address[1]}/"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("mode, connections, pooled", [
    ("keep-alive", 1, 1),
    ("http/1.0", 20, 0),
    ("connection-close", 20, 0),
    ("closes-silently", 20, 1),
])
def test_sequential_calls_to_one_backend_reuse_one_connection(
        gw_env, tiny_model, keepalive_backend, mode, connections, pooled):
    server, url = keepalive_backend(mode)
    gw = gw_env.gateway(endpoints={m: url for m in tiny_model.registry.ids})
    for i in range(20):
        query = f"tide moon shore {i}"
        status, body = _post(gw.url + "/generate", {"query": query})
        assert (status, body.get("text")) == (200, "keep: " + query), body
    # A backend that closes is served on a new connection each time; one
    # that closes without saying so costs a retry, never an error.
    assert server.connections == connections
    assert [len(idle) for idle in gw._idle.values()] == [pooled]
    assert gw.metrics.snapshot()["errors"] == {}
    gw.shutdown()
    assert [len(idle) for idle in gw._idle.values()] == [0]


def test_concurrent_calls_neither_lose_nor_share_a_pooled_connection(
        gw_env, tiny_model, keepalive_backend):
    server, url = keepalive_backend("keep-alive")
    gw = gw_env.gateway(endpoints={m: url for m in tiny_model.registry.ids})
    queries = [f"tide moon shore {i}" for i in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda q: _post(gw.url + "/generate", {"query": q}), queries))
    finally:
        sys.setswitchinterval(interval)
    # A connection handed to two calls at once would mix up their replies.
    assert [(status, body.get("text")) for status, body in results] \
        == [(200, "keep: " + q) for q in queries]
    # Every connection opened is back in the pool once, and no more were
    # opened than calls were ever in flight.
    assert [len(idle) for idle in gw._idle.values()] == [server.connections]
    assert server.connections <= 8


def test_a_timed_out_connection_is_not_reused(gw_env, tiny_model):
    from rewardroute import stub_response

    slow = gw_env.add_backend("slow", delay_ms=400)
    gw = gw_env.gateway(timeout_ms=150, endpoints={m: slow.endpoint for m in tiny_model.registry.ids})
    status, body = _post(gw.url + "/generate", {"query": "tide moon shore"})
    assert (status, body["error"]) == (504, "timeout")
    time.sleep(0.4)     # the late reply has now been written
    slow.delay_ms = 0
    status, body = _post(gw.url + "/generate", {"query": "gear torque shaft"})
    assert (status, body["text"]) == (200, stub_response("slow", "gear torque shaft"))


def test_a_stopped_stub_is_not_served_through_a_pooled_connection(gw_env, ckpt):
    query = "basil thyme sage mint"
    primary, _ = route(load_checkpoint(ckpt), query)
    stub = gw_env.backends[primary]
    gw = gw_env.gateway()
    assert _post(gw.url + "/generate", {"query": query})[0] == 200
    stub.shutdown()
    status, body = _post(gw.url + "/generate", {"query": query})
    # The pooled connection is found closed and the call is retried once on
    # a new connection, which the stopped stub refuses.
    assert status == 502
    assert body["error"].startswith("backend_error: [Errno 111]")
    assert stub.hits == 1


def test_keep_alive_round_trip_to_a_stub_is_not_held_by_nagle(gw_env):
    # With Nagle's algorithm on, the reply's second write waits for the
    # client's delayed ACK, about 40 ms, on every request of a connection.
    stub = gw_env.backends["m0"]
    conn = http.client.HTTPConnection(stub.host, stub.port, timeout=5)
    seconds = []
    try:
        for i in range(20):
            started = time.perf_counter()
            conn.request("POST", "/", json.dumps({"query": f"tide moon {i}"}).encode(),
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 200 and json.loads(resp.read())["model_id"] == "m0"
            seconds.append(time.perf_counter() - started)
            assert not resp.will_close
    finally:
        conn.close()
    assert statistics.median(seconds) < 0.010


def test_metrics_counters_are_monotone(gw_env):
    gw = gw_env.gateway()
    seen = []
    for i in range(5):
        _post(gw.url + "/generate", {"query": f"tide moon shore {i}"})
        snap = gw.metrics.snapshot()
        seen.append((snap["routed_total"], snap["errors_total"]))
    assert seen == sorted(seen)
    assert seen[-1][0] == 5
    final = gw.metrics.snapshot()
    assert final["in_flight"] == 0
    assert final["latency_ms_p50"] is not None
    assert final["latency_ms_p95"] >= final["latency_ms_p50"]

    status, text = _get(gw.url + "/metrics")
    assert status == 200
    assert "gateway_routed_total 5" in text
    assert 'quantile="0.95"' in text
    assert "gateway_in_flight 0" in text



def test_every_answered_query_is_a_latency_sample(gw_env, tiny_model):
    # A /route 200 and a /generate 502 are samples as much as a /generate 200.
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        dead = f"http://127.0.0.1:{sock.getsockname()[1]}/"
    gw = gw_env.gateway(endpoints={m: dead for m in tiny_model.registry.ids})
    for i in range(5):
        assert _post(gw.url + "/route", {"query": f"tide moon shore {i}"})[0] == 200
    for i in range(3):
        assert _post(gw.url + "/generate", {"query": f"tide moon shore {i}"})[0] == 502
    assert _post(gw.url + "/route", {"query": "  "})[0] == 400   # not a sample

    status, text = _get(gw.url + "/metrics")
    assert status == 200
    lines = text.splitlines()
    assert "gateway_latency_ms_count 8" in lines
    assert sum(line.startswith("gateway_latency_ms{quantile=") for line in lines) == 2
    assert gw.metrics.snapshot()["latency_ms_count"] == 8

def test_reload_swaps_decisions_atomically(gw_env, ckpt, tiny_benchmark, tmp_path):
    from rewardroute import TrainConfig, aggregate_tag_rewards, init_router, train
    from rewardroute.features import FeaturizerConfig

    dataset, _ = tiny_benchmark
    table = aggregate_tag_rewards(dataset)
    other = init_router(dataset.registry, FeaturizerConfig(dimension=4096), seed=99)
    other, _ = train(other, dataset, table, TrainConfig(epochs=1, seed=99))
    other_path = tmp_path / "other.ckpt"
    save_checkpoint(other, other_path)

    gw = gw_env.gateway()
    query = "tide moon shore"
    status, before = _post(gw.url + "/route", {"query": query})
    assert status == 200
    np.testing.assert_allclose(
        before["distribution"], route(load_checkpoint(ckpt), query)[1], atol=1e-9
    )

    status, body = _post(gw.url + "/admin/reload", {"checkpoint_path": str(other_path)})
    assert status == 200
    assert body == {"status": "reloaded", "models": 3}

    status, after = _post(gw.url + "/route", {"query": query})
    np.testing.assert_allclose(after["distribution"], route(other, query)[1], atol=1e-9)
    assert not np.allclose(before["distribution"], after["distribution"])


def test_failed_reload_keeps_old_model(gw_env, ckpt, tmp_path):
    gw = gw_env.gateway()
    query = "gear torque shaft"
    _, before = _post(gw.url + "/route", {"query": query})

    status, body = _post(gw.url + "/admin/reload",
                         {"checkpoint_path": str(tmp_path / "missing.ckpt")})
    assert status == 400
    assert "reload failed" in body["error"]

    corrupt = tmp_path / "corrupt.ckpt"
    corrupt.write_bytes(b"RRCPgarbage garbage garbage garbage garbage")
    status, _ = _post(gw.url + "/admin/reload", {"checkpoint_path": str(corrupt)})
    assert status == 400

    status, _ = _post(gw.url + "/admin/reload", {"nope": 1})
    assert status == 400

    _, after = _post(gw.url + "/route", {"query": query})
    assert after["model_id"] == before["model_id"]
    np.testing.assert_allclose(after["distribution"], before["distribution"], atol=1e-12)


def test_startup_rejects_corrupt_checkpoint(gw_env, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError):
        gw_env.gateway(checkpoint_path=str(bad))


def test_startup_rejects_missing_endpoint(gw_env):
    endpoints = {"m0": gw_env.backends["m0"].endpoint}
    with pytest.raises(GatewayError, match=r"no endpoint configured for model\(s\) \['m1', 'm2'\]"):
        gw_env.gateway(endpoints=endpoints)


def test_startup_rejects_unknown_fallback(gw_env):
    with pytest.raises(GatewayError, match="fallback"):
        gw_env.gateway(fallback_model_id="never-heard-of-it")


@pytest.mark.parametrize("endpoint", [
    "https://127.0.0.1:9/",
    "file:///etc/hosts",
    "ftp://h/",
    "localhost:9001",
    "http://:9001/",
    "http://h:port/",
    "http://h:70000/",
])
def test_startup_rejects_an_endpoint_that_is_not_an_http_url(gw_env, endpoint):
    with pytest.raises(GatewayError, match=r"model 'm1': endpoint .* is not an http://"):
        gw_env.gateway(endpoints={**gw_env.endpoints(), "m1": endpoint})


def test_concurrent_generates_all_succeed_and_match_offline(gw_env, ckpt, tiny_benchmark):
    gw = gw_env.gateway()
    model = load_checkpoint(ckpt)
    dataset, _ = tiny_benchmark
    queries = [row.query.text for row in dataset.rows[:30]]

    with ThreadPoolExecutor(max_workers=30) as pool:
        results = list(pool.map(
            lambda q: _post(gw.url + "/generate", {"query": q}), queries
        ))

    assert all(status == 200 for status, _ in results)
    for (status, body), q in zip(results, queries):
        assert body["model_id"] == route(model, q)[0]
    assert sum(b.hits for b in gw_env.backends.values()) == len(queries)
    assert gw.metrics.snapshot()["in_flight"] == 0


def test_shutdown_drains_in_flight_requests(gw_env):
    for b in gw_env.backends.values():
        b.delay_ms = 400
    gw = gw_env.gateway()
    results = []

    def call():
        results.append(_post(gw.url + "/generate", {"query": "tide moon shore"}))

    worker = threading.Thread(target=call)
    worker.start()
    time.sleep(0.15)  # request is admitted and waiting on the backend
    gw.shutdown()
    worker.join()
    assert results and results[0][0] == 200


def _write_registry(path, endpoints):
    path.write_text(json.dumps({"models": [
        {"model_id": m, "endpoint": endpoint} for m, endpoint in endpoints.items()
    ]}), encoding="utf-8")


def test_gateway_config_from_file_leaves_unset_fields_at_their_defaults(gw_env, ckpt, tmp_path):
    _write_registry(tmp_path / "registry.json", gw_env.endpoints())
    config_path = tmp_path / "gateway.json"
    config_path.write_text(json.dumps({"checkpoint": ckpt, "registry": "registry.json"}),
                           encoding="utf-8")
    assert GatewayConfig.from_file(config_path) == GatewayConfig(
        checkpoint_path=ckpt, endpoints=gw_env.endpoints())


def test_gateway_config_from_file(gw_env, ckpt, tmp_path):
    _write_registry(tmp_path / "registry.json", gw_env.endpoints())
    config_path = tmp_path / "gateway.json"
    config_path.write_text(json.dumps({
        "checkpoint": ckpt,
        "registry": "registry.json",
        "port": 0,
        "timeout_ms": 2500,
        "max_in_flight": 7,
        "route_log": "routes.jsonl",
    }), encoding="utf-8")
    config = GatewayConfig.from_file(config_path)
    assert config.checkpoint_path == ckpt
    assert config.timeout_ms == 2500
    assert config.max_in_flight == 7
    assert config.endpoints == gw_env.endpoints()
    # relative paths resolve against the config file's directory
    assert config.route_log_path == str(tmp_path / "routes.jsonl")

    gw = Gateway(config)
    gw.start()
    try:
        status, _ = _get(gw.url + "/healthz")
        assert status == 200
    finally:
        gw.shutdown()


def test_gateway_config_validation(tmp_path, gw_env, ckpt):
    from rewardroute import DataFormatError

    missing = tmp_path / "config.json"
    missing.write_text(json.dumps({"registry": "r.json"}), encoding="utf-8")
    with pytest.raises(DataFormatError, match="checkpoint"):
        GatewayConfig.from_file(missing)

    # an endpoint that is not a string fails when the file loads, not on /generate
    _write_registry(tmp_path / "r.json", {**gw_env.endpoints(), "m1": 9001})
    config = tmp_path / "gateway.json"
    config.write_text(json.dumps({"checkpoint": ckpt, "registry": "r.json"}), encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"endpoint of \['m1'\] is not a string"):
        GatewayConfig.from_file(config)

    with pytest.raises(GatewayError, match="timeout_ms"):
        GatewayConfig(checkpoint_path=ckpt, endpoints=gw_env.endpoints(), timeout_ms=0)
    with pytest.raises(GatewayError, match="max_in_flight"):
        GatewayConfig(checkpoint_path=ckpt, endpoints=gw_env.endpoints(), max_in_flight=0)


@pytest.mark.parametrize("port", [-1, 65536, 70000])
def test_gateway_config_rejects_a_port_out_of_range(gw_env, ckpt, port):
    with pytest.raises(GatewayError, match="port"):
        GatewayConfig(checkpoint_path=ckpt, endpoints=gw_env.endpoints(), port=port)


def test_latency_window_keeps_only_recent_requests():
    from rewardroute.gateway import LATENCY_WINDOW, Metrics

    metrics = Metrics()
    for ms in (1000.0, 1.0):
        for _ in range(LATENCY_WINDOW):
            metrics.record_latency(ms)
    assert metrics.snapshot()["latency_ms_p95"] == 1.0


def test_backend_calls_do_not_go_through_a_proxy(gw_env, ckpt, tmp_path):
    # In a subprocess: urllib reads the proxy variables once per process, so
    # an in-process gateway could miss them.
    _write_registry(tmp_path / "registry.json", gw_env.endpoints())
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    (tmp_path / "gateway.json").write_text(json.dumps({
        "checkpoint": ckpt, "registry": "registry.json", "port": port,
    }), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k.lower() != "no_proxy"}
    env.update(http_proxy="http://127.0.0.1:9", HTTP_PROXY="http://127.0.0.1:9")
    proc = subprocess.Popen(
        [sys.executable, "-m", "rewardroute.cli", "serve",
         "--config", str(tmp_path / "gateway.json")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    url = f"http://127.0.0.1:{port}"
    try:
        deadline = time.monotonic() + 10.0
        while proc.poll() is None and time.monotonic() < deadline:
            try:
                _get(url + "/healthz", timeout=1.0)
                break
            except OSError:
                time.sleep(0.05)
        status, body = _post(url + "/generate", {"query": "tide moon shore"})
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    assert status == 200
    assert sum(b.hits for b in gw_env.backends.values()) == 1


URLLIB_CLIENT = {"urllib.request", "urllib.error"}


def _urllib_client_imports(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in URLLIB_CLIENT]
        elif isinstance(node, ast.ImportFrom) and node.module in ("urllib", *URLLIB_CLIENT):
            found += [node.module + "." + a.name for a in node.names
                      if node.module != "urllib" or f"urllib.{a.name}" in URLLIB_CLIENT]
    return found


def test_no_module_calls_backends_through_urllib():
    import rewardroute

    modules = sorted(Path(rewardroute.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    offending = [(path.name, name) for path in modules
                 for name in _urllib_client_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert offending == []
    tree = ast.parse("import urllib.request\nfrom urllib import error, parse\n"
                     "from urllib.request import urlopen\nimport urllib.parse\n")
    assert _urllib_client_imports(tree) == [
        "urllib.request", "urllib.error", "urllib.request.urlopen"]
