"""The ``serve-fanout`` workload: concurrent clients against ``repro serve``.

A real ``python -m repro serve`` process listens on a free localhost
port.  ``CLIENTS`` client threads run a closed loop: each POSTs a fresh
netlist (never seen before, so the service's coalescing and result
store are bypassed), reads the NDJSON stream to its ``result`` line and
only then sends its next request.  Four clients fan in on the server's
two campaign worker threads, so a request crosses every serving layer:
HTTP admission, the bounded accept queue, the worker pool, the
supervised in-process campaign and the chunked NDJSON stream.

Campaigns run in-process (no ``processes`` field): a served campaign
fanned out over fork workers makes the server drain after the first
request, because each terminated worker's SIGTERM reaches the server's
own signal handling.
"""

from __future__ import annotations

import http.client
import json
import selectors
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from repro.core.collapse import collapsed_single_faults
from repro.logic.benchfmt import write_bench

from workloads import (
    SERVE_GATES,
    SERVE_INPUTS,
    SERVE_OUTPUTS,
    mixed_network,
    vectorized_statuses,
)

CLIENTS = 4
SERVER_WORKERS = 2
#: Requests per second of ``--seconds`` on a 2-core x86 container; sets
#: how many requests a run sends.
RATE = 16.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 120.0
#: Every SAMPLE_EVERY-th request is re-derived in-process after the run.
SAMPLE_EVERY = 16


def fresh_network(seed: int, index: int):
    return mixed_network(seed, index, SERVE_INPUTS, SERVE_GATES, SERVE_OUTPUTS)


class Server:
    """One ``repro serve`` child process on a free localhost port."""

    def __init__(self, root: str, env: Dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", str(SERVER_WORKERS),
                "--queue", str(CLIENTS),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            self.port = self._await_listening()
            self._await_healthy()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        marker = "listening on http://"
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while sel.select(timeout=max(deadline - time.monotonic(), 0)):
                line = self.proc.stdout.readline()
                if not line:
                    break
                if marker in line:
                    address = line.split(marker, 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
        raise RuntimeError("repro serve did not start listening")

    def _await_healthy(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            if conn.getresponse().status != 200:
                raise RuntimeError("repro serve is not healthy")
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not go."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def post_campaign(port: int, network) -> Tuple[float, float, dict]:
    """One request; returns (seconds to ``accepted``, total seconds,
    the ``result`` line)."""
    body = json.dumps(
        {"netlist": write_bench(network), "statuses": True}
    ).encode()
    t0 = time.perf_counter()
    conn = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
    )
    try:
        conn.request(
            "POST", "/campaign", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {response.read()!r}")
        accepted = None
        line: dict = {}
        for raw in response:
            line = json.loads(raw)
            if line.get("event") == "accepted":
                accepted = time.perf_counter() - t0
            elif line.get("event") == "result":
                if accepted is None or "error" in line:
                    break
                return accepted, time.perf_counter() - t0, line
        raise RuntimeError(f"stream ended without a result: {line!r}")
    finally:
        conn.close()


def run(server: Server, seed: int, count: int, max_seconds: float):
    """Drive the closed loop until ``count`` requests have been sent, or
    no new request once ``max_seconds`` have passed.

    Returns ``(ops, rate, errors, mismatches)``: one record per
    completed request, faults classified per second of wall time, a
    message per request that failed, and one per sampled request whose
    statuses disagree with an in-process sweep.
    """
    lock = threading.Lock()
    next_index = [0]
    ops: List[dict] = []
    errors: List[str] = []
    mismatches: List[str] = []
    samples: Dict[int, Tuple[object, dict]] = {}
    deadline = time.perf_counter() + max_seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = next_index[0]
                next_index[0] += 1
            if index >= count:
                return
            network = fresh_network(seed, index)
            try:
                accepted, total, result = post_campaign(server.port, network)
            except Exception as error:  # count it; the loop carries on
                with lock:
                    errors.append(f"{type(error).__name__}: {error}")
                continue
            report = result["report"]
            op = {
                "seconds": total,
                "faults": result["faults"],
                "layers": {
                    "build": accepted,
                    "simulate": report["wall_seconds"],
                },
                "sim_calls": report["chunks_completed"],
            }
            with lock:
                ops.append(op)
                if index % SAMPLE_EVERY == 0:
                    samples[index] = (network, result)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(REQUEST_TIMEOUT_S + max_seconds)
    wall = time.perf_counter() - t0
    if any(t.is_alive() for t in threads):
        errors.append("client thread did not finish")
    for index, (network, result) in sorted(samples.items()):
        if not _statuses_match(network, result):
            mismatches.append(f"request {index}: statuses disagree")
    rate = sum(op["faults"] for op in ops) / wall
    return ops, rate, errors, mismatches


def _statuses_match(network, result: dict) -> bool:
    """The served statuses equal an in-process vectorized sweep's."""
    universe = list(collapsed_single_faults(network))
    return result.get("statuses") == vectorized_statuses(network, universe)
