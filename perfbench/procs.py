"""Child processes of the benchmark: spawning, CPU pinning, RSS and teardown."""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import time

SRC = os.path.abspath("src")


def program_env() -> dict:
    """Environment for a child that runs rewardroute from the checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cpus:
    """Keep the benchmark's client and the measured process on separate CPUs.

    With fewer than two CPUs available nothing is pinned.
    """

    def __init__(self):
        cpus = sorted(os.sched_getaffinity(0))
        self.pinned = len(cpus) >= 2
        self.client = {cpus[0]}
        self.server = {cpus[-1]}

    def pin_self(self) -> None:
        if self.pinned:
            os.sched_setaffinity(0, self.client)

    def pin(self, pid: int) -> None:
        if self.pinned:
            os.sched_setaffinity(pid, self.server)


def spawn(argv: list[str], cpus: Cpus, **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, *argv], env=program_env(), **kwargs)
    try:
        cpus.pin(proc.pid)
    except ProcessLookupError:
        pass  # exited already; the caller sees it through poll()
    return proc


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stop(proc: subprocess.Popen, timeout: float = 15.0) -> None:
    """Interrupt a child (SIGINT), kill it if it does not exit, and always reap it."""
    if proc.poll() is None:
        try:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def request(port: int, method: str, path: str, body: bytes | None = None,
            timeout: float = 30.0) -> tuple[int, bytes]:
    """One request on a fresh connection, as a client of an HTTP/1.0 server makes it."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def wait_healthy(proc: subprocess.Popen, port: int, started: float,
                 limit_s: float = 60.0) -> float:
    """Seconds from `started` until GET /healthz answers 200."""
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"gateway exited with code {proc.returncode} during start-up")
        try:
            status, _ = request(port, "GET", "/healthz", timeout=5.0)
            if status == 200:
                return time.perf_counter() - started
        except OSError:
            pass
        if time.perf_counter() - started > limit_s:
            raise RuntimeError("gateway did not become healthy in time")
        time.sleep(0.002)
