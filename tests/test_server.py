"""``repro serve``: coalescing, streaming, replay, and the probes.

The service's load-bearing promise is the stampede case: N identical
concurrent submissions must cost exactly one underlying campaign
execution, with every client receiving the full NDJSON progress stream
and the same result.  These tests run the real asyncio server on an
ephemeral port and speak real HTTP/1.1 (chunked transfer decoded by
hand) — no test doubles between the client bytes and the handler.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.server import (
    CampaignServer,
    RequestError,
    canonical_request,
    request_fingerprint,
)
from repro.synth import MIN_POPULATION

BENCH = """
INPUT(a)
INPUT(b)
INPUT(c)
g1 = AND(a, b)
g2 = XOR(g1, c)
OUTPUT(g2)
"""


@pytest.fixture(autouse=True)
def isolated_telemetry():
    """The server switches metrics on for the process; return them to
    their boot state around every test."""
    yield
    obs.reset()


async def _post_campaign(host, port, body):
    """POST /campaign and decode the chunked NDJSON stream."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode()
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
    status = head.decode().splitlines()[0]
    if b"chunked" not in head:
        return status, [json.loads(rest)]
    lines, buf = [], rest
    while buf:
        size_line, _, buf = buf.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            break
        chunk, buf = buf[:size], buf[size + 2:]
        lines.extend(json.loads(l) for l in chunk.decode().splitlines())
    return status, lines


async def _get(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.decode().splitlines()[0], body.decode()


def _run(coro):
    return asyncio.run(coro)


async def _with_server(inner):
    server = CampaignServer(host="127.0.0.1", port=0)
    await server.start()
    try:
        return await inner(server)
    finally:
        await server.close()


class TestCoalescing:
    def test_concurrent_identical_submissions_execute_once(self):
        async def scenario(server):
            body = {"netlist": BENCH, "processes": 2}
            results = await asyncio.gather(
                *[
                    _post_campaign(server.host, server.port, body)
                    for _ in range(8)
                ]
            )
            finals = []
            for status, lines in results:
                assert status.endswith("200 OK")
                assert lines[0]["event"] == "accepted"
                final = lines[-1]
                assert final["event"] == "result"
                assert "error" not in final
                # Every subscriber sees live campaign progress, not
                # just the terminal line.
                assert any(
                    l["event"] == "campaign.chunk" for l in lines
                ), [l["event"] for l in lines]
                finals.append(final)
            dispositions = [r[1][0]["disposition"] for r in results]
            assert dispositions.count("executed") == 1
            assert dispositions.count("coalesced") == 7
            assert server.executions == 1
            # All eight clients got the same statuses-bearing result.
            assert len({json.dumps(f, sort_keys=True) for f in finals}) == 1
            assert finals[0]["backend"].startswith("fork")
            return finals[0]

        result = _run(_with_server(scenario))
        assert result["faults"] > 0
        assert result["replayed"] is False

    def test_completed_campaign_replays_from_store(self):
        async def scenario(server):
            body = {"netlist": BENCH}
            _status, first = await _post_campaign(
                server.host, server.port, body
            )
            _status, second = await _post_campaign(
                server.host, server.port, body
            )
            assert first[-1]["replayed"] is False
            assert second[-1]["replayed"] is True
            # Replay skipped the runtime but preserved the answer.
            for key in ("faults", "detected", "silent", "dangerous"):
                assert second[-1][key] == first[-1][key]
            assert server.executions == 2  # two jobs, one real campaign
            _status, metrics = await _get(
                server.host, server.port, "/metrics"
            )
            assert 'repro_store_hits_total{kind="campaign"} 1' in metrics
            return metrics

        _run(_with_server(scenario))

    def test_different_requests_do_not_coalesce(self):
        body_a = {"netlist": BENCH}
        body_b = {"netlist": BENCH, "collapse": False}
        fp_a = request_fingerprint(canonical_request(body_a))
        fp_b = request_fingerprint(canonical_request(body_b))
        assert fp_a != fp_b


class TestHttpSurface:
    def test_metrics_endpoint_is_valid_prometheus(self):
        async def scenario(server):
            await _post_campaign(
                server.host,
                server.port,
                {"netlist": BENCH},
            )
            return await _get(server.host, server.port, "/metrics")

        status, text = _run(_with_server(scenario))
        assert status.endswith("200 OK")
        parsed = obs.parse_prometheus(text)  # raises on malformed lines
        assert "repro_serve_jobs_total" in parsed
        assert "repro_store_misses_total" in parsed

    def test_healthz_reports_store_state(self):
        async def scenario(server):
            return await _get(server.host, server.port, "/healthz")

        status, body = _run(_with_server(scenario))
        assert status.endswith("200 OK")
        health = json.loads(body)
        assert health["ok"] is True
        assert health["store"] == {"entries": 0, "hits": 0, "misses": 0}

    def test_close_cancels_idle_connections(self):
        """A connection that never sends a request head does not
        outlive the server: ``close()`` cancels and awaits its handler,
        so no ``_handle_connection`` task is left pending."""

        async def scenario():
            server = CampaignServer(host="127.0.0.1", port=0)
            await server.start()
            _reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            await asyncio.sleep(0.05)  # the handler is now parked
            await server.close()
            pending = [
                task
                for task in asyncio.all_tasks()
                if "_handle_connection" in repr(task.get_coro())
                and not task.done()
            ]
            writer.close()
            return pending

        assert _run(scenario()) == []

    def test_unknown_route_is_404(self):
        async def scenario(server):
            return await _get(server.host, server.port, "/nope")

        status, _body = _run(_with_server(scenario))
        assert "404" in status

    def test_malformed_submissions_are_400(self):
        async def scenario(server):
            cases = [
                {"netlist": ""},
                {"netlist": BENCH, "transprot": "fork"},
                {"netlist": BENCH, "processes": 0},
                {"netlist": "this is not a netlist"},
            ]
            out = []
            for body in cases:
                status, lines = await _post_campaign(
                    server.host, server.port, body
                )
                out.append((body, status, lines))
            return out

        for body, status, lines in _run(_with_server(scenario)):
            if "not a netlist" in body["netlist"]:
                # Parse failures surface on the stream (the job was
                # accepted; the netlist just doesn't compile).
                assert "error" in lines[-1], (body, lines)
            else:
                assert "400" in status, (body, status)
                assert "error" in lines[0]


class TestSynthKind:
    SYNTH_BODY = {
        "kind": "synth",
        "spec": "and2",
        "seed": 2,
        "population": 24,
        "generations": 20,
        "max_gates": 16,
    }

    def test_synth_request_streams_generations_and_replays(self):
        async def scenario(server):
            status, lines = await _post_campaign(
                server.host, server.port, self.SYNTH_BODY
            )
            status2, lines2 = await _post_campaign(
                server.host, server.port, self.SYNTH_BODY
            )
            return status, lines, status2, lines2

        status, lines, status2, lines2 = _run(_with_server(scenario))
        assert "200" in status and "200" in status2
        events = {line.get("event") for line in lines}
        assert "synth.generation" in events
        assert "synth.report" in events
        result = lines[-1]
        assert result["event"] == "result"
        assert result["kind"] == "synth"
        assert result["converged"] is True
        assert result["replayed"] is False
        replay = lines2[-1]
        assert replay["replayed"] is True
        assert replay["best_fingerprint"] == result["best_fingerprint"]

    def test_synth_job_does_not_evict_a_served_campaign(self):
        """Scoring a generation does not fill the job table: a campaign
        served before a synth job still replays after it.  (The maj3
        job scores more candidates than the table's 64 finished jobs.)"""

        async def scenario(server):
            body = {"netlist": BENCH}
            _status, first = await _post_campaign(
                server.host, server.port, body
            )
            _status, synth = await _post_campaign(
                server.host,
                server.port,
                dict(self.SYNTH_BODY, spec="maj3", generations=6),
            )
            _status, again = await _post_campaign(
                server.host, server.port, body
            )
            return first[-1], synth[-1], again[-1], server.max_jobs

        first, synth, again, max_jobs = _run(_with_server(scenario))
        assert synth["evaluations"] > max_jobs
        assert first["replayed"] is False
        assert again["replayed"] is True
        assert again["store"]["hits"] >= 1
        for key in ("faults", "detected", "silent", "dangerous"):
            assert again[key] == first[key]

    def test_synth_validation(self):
        with pytest.raises(RequestError, match="exactly one of"):
            canonical_request({"kind": "synth"})
        with pytest.raises(RequestError, match="exactly one of"):
            canonical_request(
                {"kind": "synth", "spec": "and2", "netlist": BENCH}
            )
        with pytest.raises(RequestError, match="unknown spec"):
            canonical_request({"kind": "synth", "spec": "nope"})
        with pytest.raises(RequestError, match="population"):
            canonical_request(
                {"kind": "synth", "spec": "and2", "population": 1}
            )
        # The floor is the campaign's: the elite plus one child.
        body = {"kind": "synth", "spec": "and2"}
        floor = f"'population' must be an integer >= {MIN_POPULATION}"
        with pytest.raises(RequestError, match=floor):
            canonical_request(dict(body, population=MIN_POPULATION - 1))
        request = canonical_request(dict(body, population=MIN_POPULATION))
        assert request["population"] == MIN_POPULATION
        with pytest.raises(RequestError, match="'kind' must be"):
            canonical_request({"kind": "weird", "netlist": BENCH})
        # Synth knobs on a plain campaign body are a client bug, not a
        # silent fork into a distinct fingerprint.
        with pytest.raises(RequestError, match="applies only to kind"):
            canonical_request({"netlist": BENCH, "spec": "and2"})

    def test_distinct_seeds_do_not_coalesce(self):
        one = canonical_request(self.SYNTH_BODY)
        two = canonical_request(dict(self.SYNTH_BODY, seed=3))
        assert request_fingerprint(one) != request_fingerprint(two)


class TestRequestCanonicalization:
    def test_defaults_are_filled(self):
        request = canonical_request({"netlist": BENCH})
        assert "backend" not in request
        assert request["collapse"] is True
        assert request["kind"] == "campaign"

    def test_unknown_fields_rejected(self):
        with pytest.raises(RequestError, match="transprot"):
            canonical_request({"netlist": BENCH, "transprot": "fork"})

    #: What each rejected knob's error says.  There is one sweep, so a
    #: body naming a ``backend`` names a field that no longer exists.
    KNOB_RULES = {
        "backend": r"unknown request field\(s\): backend",
        "timeout": "'timeout' must be a number > 0",
        "processes": "'processes' must be an integer >= 1",
        "collapse": "'collapse' must be a boolean",
        "statuses": "'statuses' must be a boolean",
    }

    @pytest.mark.parametrize(
        "field, value",
        [
            ("backend", "numba"),
            ("backend", "fallback"),
            ("timeout", "abc"),
            ("timeout", -1),
            ("timeout", True),
            ("processes", True),
            ("collapse", "no"),
            ("statuses", 3),
        ],
    )
    def test_unknown_transport_or_backend_rejected(self, field, value):
        """Bad execution knobs are refused at admission, naming what the
        engine accepts, instead of being journaled and failing (or
        silently running under a distinct fingerprint) inside the
        campaign."""
        with pytest.raises(RequestError, match=self.KNOB_RULES[field]):
            canonical_request({"netlist": BENCH, field: value})

    @pytest.mark.parametrize("backend", ["numba", "kernel"])
    def test_backend_field_is_http_400(self, backend):
        """The ``backend`` field is gone (and with it the codegen
        ``kernel`` rung): a request still naming one is refused at
        admission, not run on some other rung."""
        async def scenario(server):
            return await _post_campaign(
                server.host, server.port,
                {"netlist": BENCH, "backend": backend},
            )

        status, lines = _run(_with_server(scenario))
        assert "400" in status
        assert lines[0]["error"] == "unknown request field(s): backend"

    def test_fingerprint_ignores_key_order(self):
        one = canonical_request(
            {"netlist": BENCH, "processes": 2, "collapse": True}
        )
        two = canonical_request(
            {"collapse": True, "netlist": BENCH, "processes": 2}
        )
        assert request_fingerprint(one) == request_fingerprint(two)
