#!/usr/bin/env python
"""A streaming client for the ``repro serve`` campaign service.

Start the service in one terminal::

    PYTHONPATH=src python -m repro serve --port 8341

then submit a netlist and watch the campaign stream back as NDJSON —
one JSON object per line: the ``accepted`` header (carrying the content
fingerprint and whether this submission was coalesced onto an identical
in-flight campaign), every ``campaign.*`` flight event as it happens
(chunk completions, retries, degradations), and finally the
``result`` line with the coverage fractions and the structured
campaign report::

    python examples/serve_client.py http://127.0.0.1:8341 \\
        examples/data/adder4.bench

Submitting the same netlist twice concurrently demonstrates the
service's coalescing: both clients receive the full stream, but only
one campaign executes (``disposition: coalesced`` on the second).
``--smoke URL`` runs exactly that as a self-checking scenario — the CI
serve-smoke job's driver.  ``--recover-drill`` exercises the service's
crash tolerance end to end: it SIGKILLs a serving subprocess
mid-campaign, restarts it with ``--recover``, and checks the journaled
request completes byte-identically — the CI serve-chaos job's driver.

Uses only the standard library: the NDJSON stream is plain HTTP/1.1,
so ``urllib`` consumes it line by line.
"""

import json
import sys
import threading
from urllib.request import Request, urlopen

SMOKE_BENCH = """\
INPUT(a)
INPUT(b)
INPUT(cin)
s1 = XOR(a, b)
sum = XOR(s1, cin)
c1 = AND(a, b)
c2 = AND(s1, cin)
cout = OR(c1, c2)
OUTPUT(sum)
OUTPUT(cout)
"""


def submit(base_url, netlist, processes=2, quiet=False, **fields):
    """POST one campaign and yield each NDJSON event as a dict.

    Extra keyword ``fields`` go into the request body verbatim —
    ``statuses=True`` for per-fault statuses, ``deadline_s=5.0`` for a
    server-enforced deadline, and so on."""
    body = json.dumps(
        dict({"netlist": netlist, "processes": processes}, **fields)
    ).encode()
    request = Request(
        base_url.rstrip("/") + "/campaign",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urlopen(request) as response:
        for raw in response:
            event = json.loads(raw)
            if not quiet:
                print(json.dumps(event, sort_keys=True))
            yield event


def run_smoke(base_url):
    """Two identical concurrent submissions: both must stream, exactly
    one may execute."""
    streams = [[], []]

    def client(slot):
        for event in submit(base_url, SMOKE_BENCH, quiet=True):
            streams[slot].append(event)

    threads = [
        threading.Thread(target=client, args=(slot,)) for slot in (0, 1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    dispositions = sorted(stream[0]["disposition"] for stream in streams)
    results = [stream[-1] for stream in streams]
    for stream, result in zip(streams, results):
        assert stream[0]["event"] == "accepted", stream[0]
        assert result["event"] == "result", result
        assert "error" not in result, result
    assert dispositions == ["coalesced", "executed"], dispositions
    assert results[0]["faults"] == results[1]["faults"] > 0, results
    same = json.dumps(results[0], sort_keys=True) == json.dumps(
        results[1], sort_keys=True
    )
    assert same, "coalesced clients received different results"
    print(
        f"serve smoke OK: {dispositions}, one execution, "
        f"{results[0]['faults']} faults via {results[0]['backend']}, "
        f"dangerous fraction {results[0]['dangerous']:.1%}"
    )


def _spawn_serve(args, env):
    """Start a real ``repro serve`` subprocess; return (proc, base URL)."""
    import re
    import subprocess

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    for line in proc.stdout:
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        if match:
            return proc, match.group(1)
    proc.kill()
    raise RuntimeError("serve subprocess never reported its address")


def run_recover_drill():
    """SIGKILL a serving process mid-campaign, restart it with
    ``--recover``, and check the journaled request completes with
    statuses byte-identical to an uninterrupted run — the CI
    serve-chaos job's end-to-end driver."""
    import os
    import shutil
    import signal
    import tempfile
    import time

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    request = {"processes": None, "statuses": True}
    workdir = tempfile.mkdtemp(prefix="repro-recover-drill-")
    procs = []
    try:
        # 1. The uninterrupted yardstick.
        proc, url = _spawn_serve(
            ["--state-dir", os.path.join(workdir, "ref")], env
        )
        procs.append(proc)
        expected = None
        for event in submit(url, SMOKE_BENCH, quiet=True, **request):
            expected = event
        assert expected["event"] == "result", expected
        assert "error" not in expected, expected
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=20)

        # 2. A chaos-slowed server, SIGKILLed mid-campaign: the WAL has
        # the accepted record, the checkpoint has the finished chunks.
        state = os.path.join(workdir, "state")
        chaos_env = dict(
            env, REPRO_CHAOS_SERVE="campaign-slow", REPRO_CHAOS_SLOW_S="0.3"
        )
        proc, url = _spawn_serve(["--state-dir", state], chaos_env)
        procs.append(proc)
        for event in submit(url, SMOKE_BENCH, quiet=True, **request):
            if event["event"] == "campaign.chunk":
                proc.send_signal(signal.SIGKILL)
                break
        proc.wait(timeout=20)

        # 3. Recovery replays the journaled request from its checkpoint.
        proc, url = _spawn_serve(["--state-dir", state, "--recover"], env)
        procs.append(proc)
        deadline = time.time() + 60
        while True:
            with urlopen(url + "/healthz") as response:
                health = json.loads(response.read())
            if health["recovered"] >= 1 and health["replaying"] == 0:
                break
            assert time.time() < deadline, health
            time.sleep(0.1)
        final = None
        for event in submit(url, SMOKE_BENCH, quiet=True, **request):
            final = event
        assert final["event"] == "result", final
        assert final["replayed"] is True, final
        assert final["statuses"] == expected["statuses"], (
            "recovered statuses diverged from the uninterrupted run"
        )
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=20)
        print(
            f"recover drill OK: SIGKILL mid-campaign, --recover replayed "
            f"{health['recovered']} request(s), {len(final['statuses'])} "
            f"statuses byte-identical"
        )
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)


def run_local_demo():
    """No URL given: start a service in-process on an ephemeral port
    and run the coalescing scenario against it — the self-contained
    form the example guard test executes."""
    import asyncio

    from repro import obs
    from repro.engine.store import STORE
    from repro.server import CampaignServer

    previous_metrics = obs.metrics_enabled()
    server = CampaignServer(host="127.0.0.1", port=0)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    async def lifecycle():
        await server.start()
        ready.set()
        await stop
        await server.close()

    def run_loop():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(lifecycle())

    stop = loop.create_future()
    thread = threading.Thread(target=run_loop, daemon=True)
    thread.start()
    ready.wait(timeout=10)
    try:
        run_smoke(f"http://{server.host}:{server.port}")
    finally:
        loop.call_soon_threadsafe(stop.set_result, None)
        thread.join(timeout=10)
        loop.close()
        # The server flips process-global switches; an in-process demo
        # must hand them back the way it found them.
        STORE.enabled = False
        STORE.clear()
        obs.enable_metrics(previous_metrics)
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--smoke":
        run_smoke(argv[2] if len(argv) > 2 else "http://127.0.0.1:8341")
        return 0
    if len(argv) >= 2 and argv[1] == "--recover-drill":
        return run_recover_drill()
    if len(argv) >= 3 and argv[1].startswith("http"):
        with open(argv[2]) as handle:
            netlist = handle.read()
        final = None
        for event in submit(argv[1], netlist):
            final = event
        return 0 if final and final.get("dangerous") == 0.0 else 1
    return run_local_demo()


if __name__ == "__main__":
    status = main(sys.argv)
    if status:  # plain return keeps the example guard test quiet
        sys.exit(status)
