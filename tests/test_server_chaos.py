"""``repro serve`` under sabotage: the service-resilience suite.

The worker-level chaos discipline of ``tests/test_supervisor.py``
applied one layer up: arm a service failure mode (a deterministically
slow campaign, a slowloris client, a subscriber that vanishes
mid-stream, a SIGKILL'd server process), run the real asyncio server on
an ephemeral port, and assert the hardening layer holds — overload is
shed with 429, deadlines and abandonment cancel cooperatively and free
lanes, drain keeps the probes honest, and the write-ahead journal makes
a kill -9 recoverable with statuses byte-identical to an uninterrupted
run.
"""

import asyncio
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.engine import supervisor
from repro.engine.store import STORE
from repro.engine.supervisor import CancelToken
from repro.obs.recorder import MemoryRecorder
from repro.qa import chaos
from repro.server import (
    CampaignServer,
    RequestJournal,
    _execute,
    _Job,
    canonical_request,
    request_fingerprint,
)

from tests.test_server import BENCH, _get, _post_campaign, _run

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCH_B = """
INPUT(a)
INPUT(b)
INPUT(c)
g1 = OR(a, b)
g2 = NAND(g1, c)
OUTPUT(g2)
"""

BENCH_C = """
INPUT(a)
INPUT(b)
g1 = XOR(a, b)
OUTPUT(g1)
"""

#: A wider circuit so the default serial sweep spans ~8 chunks — every
#: cancellation window in these tests lands *between* chunks.
CHAIN_BENCH = "\n".join(
    ["INPUT(a)", "INPUT(b)", "INPUT(c)", "INPUT(d)", "g0 = AND(a, b)"]
    + [
        f"g{i} = {kind}(g{i - 1}, {inp})"
        for i, (kind, inp) in enumerate(
            [
                ("OR", "c"),
                ("NAND", "d"),
                ("XOR", "a"),
                ("NOR", "b"),
                ("AND", "c"),
                ("OR", "d"),
                ("XOR", "b"),
                ("NAND", "a"),
            ],
            start=1,
        )
    ]
    + ["OUTPUT(g8)"]
)


@pytest.fixture(autouse=True)
def isolated_telemetry():
    yield
    chaos.release_service_hangs()
    STORE.enabled = False
    STORE.clear()
    obs.reset()


async def _with_server(inner, **kwargs):
    server = CampaignServer(host="127.0.0.1", port=0, **kwargs)
    await server.start()
    try:
        return await inner(server)
    finally:
        await server.close()


async def _post_raw(host, port, body):
    """POST /campaign, return (head text, body bytes) — for asserting
    on raw status lines and headers (Retry-After)."""
    payload = json.dumps(body).encode()
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        b"POST /campaign HTTP/1.1\r\nHost: t\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(payload)}\r\n\r\n".encode()
        + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, rest = raw.partition(b"\r\n\r\n")
    return head.decode(), rest


async def _wait_for(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


class TestAdmissionControl:
    def test_overload_sheds_429_with_retry_after(self):
        async def scenario(server):
            with chaos.sabotage_service("campaign-slow", slow_s=0.2):
                first = asyncio.ensure_future(
                    _post_campaign(
                        server.host,
                        server.port,
                        {"netlist": CHAIN_BENCH},
                    )
                )
                await _wait_for(lambda: server._outstanding() >= 1)
                head, body = await _post_raw(
                    server.host,
                    server.port,
                    {"netlist": BENCH_B},
                )
                assert " 429 " in head.splitlines()[0]
                assert re.search(r"(?im)^retry-after: \d+\r?$", head), head
                assert "retry later" in json.loads(body)["error"]
                # The running campaign is unharmed by the shed.
                _status, lines = await first
            assert lines[-1]["event"] == "result"
            assert "error" not in lines[-1]
            _status, metrics = await _get(server.host, server.port, "/metrics")
            assert 'repro_serve_shed_total{reason="queue-full"} 1' in metrics

        _run(_with_server(scenario, workers=1, queue_limit=0))

    def test_coalescing_is_exempt_from_admission_control(self):
        async def scenario(server):
            with chaos.sabotage_service("campaign-slow", slow_s=0.2):
                body = {"netlist": CHAIN_BENCH}
                first = asyncio.ensure_future(
                    _post_campaign(server.host, server.port, body)
                )
                await _wait_for(lambda: server._outstanding() >= 1)
                # Identical request: admitted (coalesced), not shed.
                _status, lines = await _post_campaign(
                    server.host, server.port, body
                )
                assert lines[0]["disposition"] == "coalesced"
                assert lines[-1]["event"] == "result"
                await first
            assert server.executions == 1

        _run(_with_server(scenario, workers=1, queue_limit=0))


class TestDeadlines:
    def test_deadline_cancels_campaign_and_frees_the_lane(self):
        async def scenario(server):
            with chaos.sabotage_service("campaign-slow", slow_s=0.2):
                started = time.monotonic()
                _status, lines = await _post_campaign(
                    server.host,
                    server.port,
                    {
                        "netlist": CHAIN_BENCH,
                        "deadline_s": 0.3,
                    },
                )
                elapsed = time.monotonic() - started
            final = lines[-1]
            assert final["event"] == "result"
            assert final.get("cancelled") is True
            assert "deadline exceeded" in final["error"]
            # The cancellation itself is a flight event on the stream.
            assert any(
                l["event"] == "campaign.cancelled" for l in lines
            ), [l["event"] for l in lines]
            # Cancelled between chunks — far sooner than the ~1.6s the
            # sabotaged campaign would take (8 chunks x 0.2s).
            assert elapsed < 1.2, elapsed
            assert server._outstanding() == 0
            _status, metrics = await _get(server.host, server.port, "/metrics")
            assert 'repro_serve_cancelled_total{kind="deadline"} 1' in metrics
            assert (
                'repro_campaign_cancelled_total{kind="deadline"} 1' in metrics
            )

        _run(_with_server(scenario))

    def test_server_default_deadline_applies(self):
        async def scenario(server):
            with chaos.sabotage_service("campaign-slow", slow_s=0.2):
                _status, lines = await _post_campaign(
                    server.host,
                    server.port,
                    {"netlist": CHAIN_BENCH},
                )
            assert lines[-1].get("cancelled") is True
            assert "deadline" in lines[-1]["error"]

        _run(_with_server(scenario, deadline_s=0.3))

    def test_bad_deadline_rejected(self):
        for bad in (0, -1, "soon", True):
            with pytest.raises(Exception, match="deadline_s"):
                canonical_request({"netlist": BENCH, "deadline_s": bad})


class TestSubscriberDisconnect:
    def test_last_subscriber_vanishing_cancels_the_orphan(self):
        async def scenario(server):
            with chaos.sabotage_service("campaign-slow", slow_s=0.2):
                lines = await chaos.disconnecting_subscriber(
                    server.host,
                    server.port,
                    {"netlist": CHAIN_BENCH},
                    after_lines=1,
                )
                assert lines and lines[0]["event"] == "accepted"
                job = next(iter(server.jobs.values()))
                await asyncio.wait_for(job.done.wait(), timeout=5.0)
            assert job.result.get("cancelled") is True
            assert "subscribers disconnected" in job.result["error"]
            assert job.subscribers == []  # queue removed with the client
            _status, metrics = await _get(server.host, server.port, "/metrics")
            assert (
                'repro_serve_cancelled_total{kind="abandoned"} 1' in metrics
            )

        _run(_with_server(scenario))

    def test_detached_recovery_jobs_survive_without_subscribers(self):
        async def scenario(server):
            request = canonical_request(
                {"netlist": BENCH_C}
            )
            job, disposition = server.submit(request, detached=True)
            assert disposition == "executed"
            await asyncio.wait_for(job.done.wait(), timeout=10.0)
            assert "error" not in job.result

        _run(_with_server(scenario))


class TestSlowClients:
    def test_slowloris_head_gets_408(self):
        async def scenario(server):
            status = await chaos.slowloris_probe(
                server.host, server.port, pause_s=10.0
            )
            assert status == 408
            _status, metrics = await _get(server.host, server.port, "/metrics")
            assert 'repro_serve_read_timeouts_total{phase="head"} 1' in metrics

        _run(_with_server(scenario, read_timeout=0.2))

    def test_stalled_body_gets_408(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(
                b"POST /campaign HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 500\r\n\r\n{\"netli"  # …and stall
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b" 408 " in raw.splitlines()[0]

        _run(_with_server(scenario, read_timeout=0.2))


class TestBoundedBuffers:
    def test_subscriber_queue_drops_oldest_progress_keeps_result(self):
        async def scenario():
            job = _Job("fp", {}, CancelToken(), queue_limit=4)
            queue = job.subscribe()
            for i in range(10):
                job.publish({"event": "campaign.chunk", "i": i})
            job.finish({"faults": 1})
            items = []
            while not queue.empty():
                items.append(queue.get_nowait())
            return job, items

        job, items = _run(scenario())
        assert len(items) == 4  # bounded, not 11
        assert items[-1]["event"] == "result"  # terminal line survives
        assert all(item["i"] >= 7 for item in items[:-1])  # oldest dropped
        assert len(job.history) <= 4  # replay buffer bounded too

    def test_finished_jobs_prune_to_lru(self):
        async def scenario(server):
            for bench in (BENCH, BENCH_B, BENCH_C):
                _status, lines = await _post_campaign(
                    server.host,
                    server.port,
                    {"netlist": bench},
                )
                assert lines[-1]["event"] == "result"
            assert len(server.jobs) <= 2
            assert server.executions == 3
            _status, metrics = await _get(server.host, server.port, "/metrics")
            assert "repro_serve_jobs_evicted_total 1" in metrics

        _run(_with_server(scenario, max_jobs=2))


class TestDrain:
    def test_drain_sheds_cancels_and_keeps_probes_honest(self, tmp_path):
        async def scenario(server):
            status_r, _body = await _get(server.host, server.port, "/readyz")
            assert "200" in status_r
            with chaos.sabotage_service("campaign-slow", slow_s=0.2):
                first = asyncio.ensure_future(
                    _post_campaign(
                        server.host,
                        server.port,
                        {"netlist": CHAIN_BENCH},
                    )
                )
                await _wait_for(lambda: server._outstanding() >= 1)
                drain_task = asyncio.ensure_future(server.drain(timeout=0.05))
                await _wait_for(lambda: server.draining)
                # Liveness stays green, readiness flips, POSTs shed.
                status_h, health = await _get(
                    server.host, server.port, "/healthz"
                )
                assert "200" in status_h
                assert json.loads(health)["draining"] is True
                status_r, _body = await _get(
                    server.host, server.port, "/readyz"
                )
                assert "503" in status_r
                status_p, lines_p = await _post_campaign(
                    server.host,
                    server.port,
                    {"netlist": BENCH_B},
                )
                assert "503" in status_p
                assert "draining" in lines_p[0]["error"]
                await drain_task
                _status, lines = await first
            final = lines[-1]
            assert final.get("cancelled") is True
            assert "draining" in final["error"]
            # The drained request is still *pending* in the journal:
            # exactly the work a --recover restart must finish.
            pending = server.journal.load_pending()
            assert len(pending) == 1
            _status, metrics = await _get(server.host, server.port, "/metrics")
            assert 'repro_serve_shed_total{reason="draining"} 1' in metrics
            assert 'repro_serve_cancelled_total{kind="drain"} 1' in metrics

        _run(_with_server(scenario, state_dir=str(tmp_path / "state")))


class TestJournal:
    def test_tolerates_torn_tail_and_compacts(self, tmp_path):
        journal = RequestJournal(str(tmp_path))
        journal.open()
        journal.accepted("fp1", {"netlist": "x"})
        journal.accepted("fp2", {"netlist": "y"})
        journal.done("fp1", {"ok": True})
        with open(journal.path, "a") as handle:
            handle.write('{"op": "accepted", "fingerprint": "fp3"')  # torn
        pending = journal.load_pending()
        assert list(pending) == ["fp2"]
        journal.compact(pending)
        assert list(journal.load_pending()) == ["fp2"]
        journal.done("fp2", {"ok": False})
        assert journal.load_pending() == {}
        journal.close()

    def test_reopen_truncates_torn_tail(self, tmp_path):
        """A crash mid-append leaves a partial final line; a restart
        without --recover must not glue the next record onto it."""
        journal = RequestJournal(str(tmp_path))
        journal.open()
        journal.accepted("fp1", {"netlist": "x"})
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write('{"op": "accepted", "fingerprint": "fp2"')  # torn
        journal.open()
        journal.accepted("fp3", {"netlist": "z"})
        journal.close()
        assert list(journal.load_pending()) == ["fp1", "fp3"]

    def test_completed_requests_do_not_replay_on_recover(self, tmp_path):
        state = str(tmp_path / "state")

        async def first_life(server):
            _status, lines = await _post_campaign(
                server.host,
                server.port,
                {"netlist": BENCH_C},
            )
            assert lines[-1]["event"] == "result"

        async def second_life(server):
            assert server.recovered == 0
            assert server.executions == 0

        _run(_with_server(first_life, state_dir=state))
        _run(_with_server(second_life, state_dir=state, recover=True))

    @staticmethod
    def _recover_stale_record(tmp_path, record):
        """Journal one accepted ``record``, restart with ``--recover``,
        and return the error its ``done`` record was closed with."""
        state = str(tmp_path / "state")
        journal = RequestJournal(state)
        journal.open()
        journal.accepted("fp-old", record)
        journal.close()

        async def recovered_life(server):
            assert server.recovered == 0
            assert server.executions == 0
            status, _body = await _get(server.host, server.port, "/readyz")
            assert " 200 " in status

        _run(_with_server(recovered_life, state_dir=state, recover=True))
        (done,) = [r for r in journal.records() if r["op"] == "done"]
        assert done["fingerprint"] == "fp-old"
        assert done["outcome"]["ok"] is False
        assert journal.load_pending() == {}
        return done["outcome"]["error"]

    def test_unreplayable_record_is_finished_not_replayed(self, tmp_path):
        """An accepted record that no longer validates (here one written
        with the retired ``transport`` field) is closed with an error
        outcome on ``--recover``; it must not block startup or linger."""
        error = self._recover_stale_record(
            tmp_path, {"netlist": BENCH_C, "transport": "inline"}
        )
        assert error.startswith(
            "unreplayable record: unknown request field(s): transport"
        )

    def test_retired_kernel_backend_record_is_not_replayed(self, tmp_path):
        """A record accepted while ``backend: kernel`` was a sweep rung is
        closed the same way: the rung is gone, so replaying it under
        another backend would answer a request nobody made."""
        error = self._recover_stale_record(
            tmp_path, {"netlist": BENCH_C, "backend": "kernel"}
        )
        assert error == "unreplayable record: unknown request field(s): backend"

    @pytest.mark.parametrize("backend", ["auto", "bitmask", "vectorized"])
    def test_backend_field_record_is_not_replayed(self, tmp_path, backend):
        """A record accepted while ``backend`` was a request field, with
        any value it then accepted, is closed as unreplayable: the field
        is gone, and recovery carries on without it."""
        error = self._recover_stale_record(
            tmp_path, {"netlist": BENCH_C, "backend": backend}
        )
        assert error == "unreplayable record: unknown request field(s): backend"


def _spawn_server(extra_args, env, timeout=30.0):
    """Start a real `repro serve` subprocess, return (proc, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"] + extra_args,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + timeout
    for line in proc.stdout:
        match = re.search(r"listening on http://[\d.]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
        if time.monotonic() > deadline:  # pragma: no cover
            break
    proc.kill()
    raise AssertionError("server subprocess never reported its port")


def _http_json(port, path, timeout=10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _post_blocking(port, body, timeout=60.0):
    """POST /campaign and return the decoded NDJSON lines (http.client
    de-chunks the stream for us)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body)
        conn.request(
            "POST",
            "/campaign",
            body=payload,
            headers={"Content-Type": "application/json"},
        )
        raw = conn.getresponse().read()
        return [json.loads(line) for line in raw.decode().splitlines()]
    finally:
        conn.close()


def _post_until_chunk(port, body, timeout=30.0):
    """POST /campaign over a raw socket and block until the first
    ``campaign.chunk`` flight event arrives, proving the campaign is
    genuinely mid-flight (some chunks checkpointed, more to go).
    Returns the still-open socket — the caller kills the server *while
    the subscriber is connected*, so the accepted record stays pending."""
    payload = json.dumps(body).encode()
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.sendall(
        b"POST /campaign HTTP/1.1\r\nHost: t\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(payload)}\r\n\r\n".encode()
        + payload
    )
    buffer = b""
    while b"campaign.chunk" not in buffer:
        data = sock.recv(4096)
        if not data:
            raise AssertionError(
                f"server closed before first chunk: {buffer.decode()!r}"
            )
        buffer += data
    return sock


@pytest.mark.slow
class TestKillRecover:
    def test_sigkill_then_recover_is_byte_identical(self, tmp_path):
        """The acceptance drill: kill -9 a serving process mid-campaign,
        restart with --recover, and the journaled request completes with
        statuses byte-identical to an uninterrupted run."""
        state = str(tmp_path / "state")
        request = {
            "netlist": CHAIN_BENCH,
            "statuses": True,
        }
        # The uninterrupted yardstick, computed in-process through the
        # same execution path the server uses.
        expected = _execute(
            canonical_request(dict(request)), MemoryRecorder()
        )["statuses"]

        base_env = dict(os.environ)
        base_env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        chaos_env = dict(
            base_env,
            REPRO_CHAOS_SERVE="campaign-slow",
            REPRO_CHAOS_SLOW_S="0.3",
        )
        proc, port = _spawn_server(
            ["--state-dir", state, "--workers", "1"], chaos_env
        )
        sock = None
        try:
            sock = _post_until_chunk(port, request)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            if proc.poll() is None:  # pragma: no cover - kill failed
                proc.kill()
            proc.wait(timeout=15)
            proc.stdout.close()
            if sock is not None:
                sock.close()

        # The WAL survived the kill with the request still pending.
        journal = RequestJournal(state)
        assert len(journal.load_pending()) == 1

        proc2, port2 = _spawn_server(
            ["--state-dir", state, "--recover"], base_env
        )
        try:
            deadline = time.monotonic() + 60.0
            while True:
                health = _http_json(port2, "/healthz")
                if health["recovered"] >= 1 and health["replaying"] == 0:
                    break
                assert time.monotonic() < deadline, health
                time.sleep(0.05)
            # The journaled request was completed by recovery: an
            # identical submission replays from the store, byte-identical
            # to the uninterrupted run.
            lines = _post_blocking(port2, request)
            final = lines[-1]
            assert final["event"] == "result"
            assert final["replayed"] is True
            assert final["statuses"] == expected
            # ...and the journal is clean again.
            assert journal.load_pending() == {}
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.wait(timeout=20)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc2.kill()
                proc2.wait()
            proc2.stdout.close()


class TestWorkerProcesses:
    """Campaigns run in persistent worker processes: a killed worker
    fails (or, with a journal, leaves pending) its own request only,
    and its slot is forked again for the next one."""

    @staticmethod
    async def _job_mid_campaign(server, body):
        """The job serving ``body`` once it has streamed a chunk."""
        fingerprint = request_fingerprint(canonical_request(dict(body)))
        await _wait_for(lambda: fingerprint in server.jobs)
        job = server.jobs[fingerprint]
        await _wait_for(
            lambda: job.worker is not None
            and any(l["event"] == "campaign.chunk" for l in job.history)
        )
        return job

    def test_killed_worker_fails_its_request_alone(self):
        async def scenario(server):
            victim = {"netlist": CHAIN_BENCH}
            bystander = {"netlist": BENCH_B}
            with chaos.sabotage_service("campaign-slow", slow_s=0.2):
                runs = [
                    asyncio.ensure_future(
                        _post_campaign(server.host, server.port, body)
                    )
                    for body in (victim, bystander)
                ]
                job = await self._job_mid_campaign(server, victim)
                killed = job.worker.pid
                assert killed != os.getpid()
                os.kill(killed, signal.SIGKILL)
                (_s1, lost), (_s2, kept) = await asyncio.gather(*runs)
            assert lost[-1]["event"] == "result"
            assert lost[-1]["error"].startswith(
                f"worker died: campaign worker {killed} ended with signal "
                f"{int(signal.SIGKILL)}"
            )
            assert kept[-1]["event"] == "result"
            assert "error" not in kept[-1]
            # The next request runs on a worker forked into the slot.
            _status, lines = await _post_campaign(
                server.host, server.port, {"netlist": BENCH_C}
            )
            assert "error" not in lines[-1]
            pids = {worker.pid for worker in server._slots}
            assert killed not in pids and None not in server._slots
            # Both finished campaigns' worker samples reached /metrics;
            # the killed one's died with it.
            _status, metrics = await _get(server.host, server.port, "/metrics")
            assert "repro_campaign_wall_seconds_count 2" in metrics

        _run(_with_server(scenario, workers=2))

    def test_killed_worker_request_replays_under_recover(self, tmp_path):
        state = str(tmp_path / "state")
        request = {"netlist": CHAIN_BENCH, "statuses": True}
        expected = _execute(
            canonical_request(dict(request)), MemoryRecorder()
        )["statuses"]

        async def first_life(server):
            with chaos.sabotage_service("campaign-slow", slow_s=0.2):
                run = asyncio.ensure_future(
                    _post_campaign(server.host, server.port, request)
                )
                job = await self._job_mid_campaign(server, request)
                os.kill(job.worker.pid, signal.SIGKILL)
                _status, lines = await run
            assert lines[-1]["error"].startswith("worker died")
            assert len(server.journal.load_pending()) == 1

        async def second_life(server):
            assert server.recovered == 1
            await _wait_for(lambda: server._outstanding() == 0, timeout=30)
            _status, lines = await _post_campaign(
                server.host, server.port, request
            )
            assert lines[-1]["replayed"] is True
            assert lines[-1]["statuses"] == expected
            assert server.journal.load_pending() == {}

        _run(_with_server(first_life, state_dir=state))
        _run(_with_server(second_life, state_dir=state, recover=True))

    def test_campaign_runs_in_a_worker_and_its_deadline_holds(
        self, tmp_path, monkeypatch
    ):
        """Every chunk of a served campaign runs in the worker's pid,
        not the server's, and the request's deadline, carried to the
        worker as an absolute time, still cancels it there."""
        log = tmp_path / "pids"
        original = supervisor.chunk_statuses

        def logging_chunk(kind, host, start, stop):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            time.sleep(0.2)
            return original(kind, host, start, stop)

        monkeypatch.setattr(supervisor, "chunk_statuses", logging_chunk)

        async def scenario(server):
            started = time.monotonic()
            _status, lines = await _post_campaign(
                server.host,
                server.port,
                {"netlist": CHAIN_BENCH, "deadline_s": 0.5},
            )
            assert time.monotonic() - started < 1.4
            assert lines[-1].get("cancelled") is True
            assert "deadline exceeded after 0.5s" in lines[-1]["error"]
            assert any(l["event"] == "campaign.cancelled" for l in lines)
            pids = {int(pid) for pid in log.read_text().split()}
            (worker,) = [w for w in server._slots if w.pid in pids]
            assert pids == {worker.pid} and worker.pid != os.getpid()
            _status, metrics = await _get(server.host, server.port, "/metrics")
            assert (
                'repro_campaign_cancelled_total{kind="deadline"} 1' in metrics
            )

        _run(_with_server(scenario, workers=1))


class TestServedForkFanout:
    def test_sequential_fork_requests_keep_server_ready(self):
        """A served campaign with ``"processes": 2`` runs on fork
        workers that the supervisor stops with SIGTERM.  Those workers
        must not inherit the server's asyncio signal wakeup fd, or the
        SIGTERM reaches the drain handler and the server stops
        admitting after the first request."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc, port = _spawn_server([], env)
        try:
            for bench in (
                CHAIN_BENCH,
                CHAIN_BENCH.replace("g0 = AND", "g0 = OR"),
            ):
                lines = _post_blocking(
                    port, {"netlist": bench, "processes": 2}
                )
                final = lines[-1]
                assert final.get("event") == "result", final
                assert final["backend"].startswith("fork:"), final
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                conn.request("GET", "/readyz")
                assert conn.getresponse().status == 200
            finally:
                conn.close()
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()
            proc.stdout.close()
