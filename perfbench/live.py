"""The live layer: ``repro serve`` on a loopback port, two closed-loop clients.

Measured in the traced ``stream`` run (see ``run.py`` for why it is not
an end-to-end workload).  The server is a child process on an ephemeral
port with a bounded boot wait; it is always torn down with
``POST /shutdown`` and then killed if it is still there.  Each client
sends ``POST /invoke/<fn>`` over a fresh connection and waits for the
reply before the next one; client 0 also samples ``GET /stats`` on its
own connection every ``STATS_EVERY`` invocations (no third connection).
"""

from __future__ import annotations

import json
import os
import random
import selectors
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

SPEED = 400.0
INVOKERS = 8
FUNCTIONS = 8
DURATION_S = 0.05
CLIENTS = 2
REQUESTS_PER_CLIENT = 750
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 10.0
BATCH_TIMEOUT_S = 90.0
STATS_EVERY = 50

#: the live layer's per-layer metric names
METRICS = ("live.p50_ms", "live.p99_ms", "live.samples", "live.overhead_ms_p50",
           "live.kernel_lag_max_s", "live.steps_per_request")


class LiveFailed(RuntimeError):
    """The server did not come up, or the batch could not be driven."""


def write_config(workdir: str, seed: int) -> str:
    """A static fleet serving the ``faas-stream`` catalogue (8 fns x 0.05 s)."""
    config = {
        "name": "perfbench-live",
        "seed": seed,
        "horizon": 3600.0,
        "stack": {
            "supply": {"name": "static", "invokers": INVOKERS},
            "workloads": [{
                "name": "faas-stream", "qps": 1.0, "functions": FUNCTIONS,
                "duration": DURATION_S, "azure_durations": False,
            }],
        },
    }
    path = os.path.join(workdir, "live.json")
    with open(path, "w") as handle:
        json.dump(config, handle)
    return path


def http(port: int, method: str, path: str, body: bytes = b"",
         timeout: float = REQUEST_TIMEOUT_S) -> Tuple[int, dict]:
    """One request over a fresh loopback connection (the server closes it)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1") + body
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload) if payload else {}


class Server:
    """One ``repro serve`` child: bounded boot, guaranteed teardown."""

    def __init__(self, src: str, workdir: str, config: str) -> None:
        self.started = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=src,
                   REPRO_WAREHOUSE=os.path.join(workdir, "warehouse.sqlite"))
        self.log_path = os.path.join(workdir, "serve.log")
        with open(self.log_path, "a") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--config", config,
                 "--port", "0", "--speed", f"{SPEED:g}"],
                cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
            )
        self.port = 0

    def failed(self, what: str) -> LiveFailed:
        with open(self.log_path) as log:
            tail = " | ".join(log.read().strip().splitlines()[-3:])
        return LiveFailed(f"live server {what} (exit {self.proc.poll()}): {tail}")

    def boot(self) -> None:
        """Wait for the listening line, then for a healthy fleet."""
        deadline = self.started + BOOT_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            line = ""
            while "http://" not in line:
                if not selector.select(timeout=max(0.0, deadline - time.perf_counter())):
                    raise self.failed("did not start listening in time")
                line = self.proc.stdout.readline()
                if not line:
                    raise self.failed("exited during boot")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        while True:
            _status, health = http(self.port, "GET", "/healthz")
            if health.get("healthy_invokers", 0) >= INVOKERS:
                return
            if time.perf_counter() > deadline:
                raise self.failed(f"fleet not healthy in time: {health}")
            time.sleep(0.005)

    def close(self) -> None:
        """``POST /shutdown``, then kill whatever is left; always waits."""
        if self.proc.poll() is None and self.port:
            try:
                http(self.port, "POST", "/shutdown", timeout=5.0)
                self.proc.wait(timeout=10.0)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def drive(port: int, seed: int) -> dict:
    """``CLIENTS`` closed-loop clients, ``REQUESTS_PER_CLIENT`` invocations each."""
    lock = threading.Lock()
    samples: List[Tuple[float, float]] = []  # (wall latency s, kernel response s)
    failures: List[str] = []
    lags: List[float] = []
    deadline = time.perf_counter() + BATCH_TIMEOUT_S

    def client(index: int) -> None:
        rng = random.Random(f"{seed}/{index}")
        mine, bad = [], []
        for done in range(REQUESTS_PER_CLIENT):
            if time.perf_counter() > deadline:
                bad += ["batch deadline passed"] * (REQUESTS_PER_CLIENT - done)
                break
            function = f"sleep-{rng.randrange(FUNCTIONS):03d}"
            sent = time.perf_counter()
            try:
                status, body = http(port, "POST", f"/invoke/{function}", b"{}")
                latency = time.perf_counter() - sent
                if index == 0 and done % STATS_EVERY == 0:
                    _status, stats = http(port, "GET", "/stats")
                    lags.append(stats["clock_now"] - stats["kernel_now"])
            except (OSError, ValueError) as error:
                bad.append(f"{function}: {type(error).__name__}: {error}")
                continue
            if status != 200 or body.get("status") != "success" or body.get("function") != function \
                    or not body.get("response_time", -1.0) >= DURATION_S:
                bad.append(f"{function}: HTTP {status} {body}")
                continue
            mine.append((latency, float(body["response_time"])))
        with lock:
            samples.extend(mine)
            failures.extend(bad)

    _status, before = http(port, "GET", "/stats")
    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=BATCH_TIMEOUT_S + 2 * REQUEST_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise LiveFailed("live clients did not finish")
    _status, after = http(port, "GET", "/stats")
    sent = CLIENTS * REQUESTS_PER_CLIENT
    served = after["requests_total"] - before["requests_total"]
    if served != sent:
        failures.append(f"server accepted {served} invocations, clients sent {sent}")
    if after["activations_total"] != after["requests_total"] or after["inflight"]:
        failures.append(f"server activations {after['activations_total']} / inflight "
                        f"{after['inflight']} do not match {after['requests_total']} requests")
    return {"ops": sent, "samples": samples, "failures": failures, "lags": lags,
            "steps": after["kernel_steps"] - before["kernel_steps"]}


def session(src: str, workdir: str, seed: int) -> Tuple[Dict[str, float], List[str], int]:
    """Serve one batch; returns (live.* metrics, failures, requests sent).

    ``live.overhead_ms_p50`` is wall latency minus the reply's
    ``response_time / speed``: what transport and pacing add.
    """
    server = Server(src, workdir, write_config(workdir, seed))
    try:
        server.boot()
        batch = drive(server.port, seed)
    finally:
        server.close()
    latency = sorted(s[0] * 1000.0 for s in batch["samples"]) or [0.0]
    overhead = [(s[0] - s[1] / SPEED) * 1000.0 for s in batch["samples"]] or [0.0]
    metrics = {
        "live.p50_ms": float(statistics.median(latency)),
        "live.p99_ms": latency[min(len(latency) - 1, int(0.99 * len(latency)))],
        "live.samples": float(len(batch["samples"])),
        "live.overhead_ms_p50": float(statistics.median(overhead)),
        "live.kernel_lag_max_s": max(batch["lags"], default=0.0),
        "live.steps_per_request": batch["steps"] / batch["ops"],
    }
    return metrics, batch["failures"], batch["ops"]
