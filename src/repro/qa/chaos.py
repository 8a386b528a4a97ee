"""Deliberate engine sabotage — proving the fuzz harness can see.

A fuzzing subsystem that has never caught a bug is indistinguishable
from one that cannot.  Each named bug here miscompiles one gate kind in
the engine's one seam, the mask primitive of its one op interpreter, in
a way the differential properties must catch, and the harness self-test
drives the full pipeline — detect, shrink, emit artifact — against it.
The patches restore themselves on exit; fuzz trials build fresh
backends per case, so no sabotaged baseline outlives the context.

The second half of this module sabotages the *campaign runtime* the
same way: :func:`sabotage_campaign` arms worker-level failures — a
chunk that raises, a chunk that hangs, a worker SIGKILLed or exiting
mid-sweep — and the supervisor tests assert
the sweep still completes with statuses byte-identical to the serial
path, the incident visible in the
:class:`~repro.engine.supervisor.CampaignReport`.  Worker
sabotages ride :data:`repro.engine.supervisor.WORKER_CHUNK_HOOK`,
which fork children inherit from the parent at spawn time.  A one-shot
sabotage fires only on the first attempt of the chunk that starts at
item 0, so a retry or a replacement worker does not re-fire it, and
two runs of the same campaign record the same report ledger.

The third tier sabotages the *service*: :func:`sabotage_service` makes
campaigns deterministically slow or hung (so deadlines, disconnect
cancellation, drain, and SIGKILL recovery each have a wide window to
land in — spawned ``repro serve`` processes arm the same modes from the
:data:`SERVE_CHAOS_ENV` environment), and the misbehaving-client
drivers (:func:`slowloris_probe`, :func:`disconnecting_subscriber`)
attack the HTTP layer itself.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import threading
import time
from typing import Callable, Dict, Iterator, List, Tuple

from ..engine import backends
from ..engine import supervisor as _supervisor
from ..logic.gates import GateKind


#: name -> (gate kind, the kind it is miscompiled into).  Every bug
#: patches ``backends.evaluate_mask``, the primitive of the one op
#: interpreter (``backends.run_ops``), so each reaches the bitmask
#: tables, the point queries, ATPG pattern simulation and the clocked
#: campaigns alike.
BUGS: Dict[str, Tuple[GateKind, GateKind]] = {
    "nand-as-and": (GateKind.NAND, GateKind.AND),
    "nor-as-or": (GateKind.NOR, GateKind.OR),
    "not-as-buf": (GateKind.NOT, GateKind.BUF),
}


def bug_names() -> list:
    return sorted(BUGS)


@contextlib.contextmanager
def inject(name: str) -> Iterator[None]:
    """Activate one named engine bug for the duration of the context."""
    if name not in BUGS:
        known = ", ".join(bug_names())
        raise KeyError(f"unknown chaos bug {name!r}; known: {known}")
    swap_from, swap_as = BUGS[name]
    original = backends.evaluate_mask

    def broken(kind, masks, full):
        return original(swap_as if kind is swap_from else kind, masks, full)

    backends.evaluate_mask = broken
    try:
        yield
    finally:
        backends.evaluate_mask = original


# ----------------------------------------------------------------------
# campaign-runtime sabotage (worker-level failures)
# ----------------------------------------------------------------------
def _worker_hook(action: Callable[[], None], once: bool):
    def hook(chunk_key: str, attempt: int) -> None:
        if not once or (attempt == 0 and chunk_key.startswith("0:")):
            action()

    return hook


def _chunk_raises() -> None:
    raise RuntimeError("chaos: chunk sabotaged")


def _chunk_hangs() -> None:
    time.sleep(3600)


def _worker_killed() -> None:
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


def _worker_exits() -> None:
    os._exit(3)


#: Worker-level sabotages delivered through WORKER_CHUNK_HOOK (fork
#: children inherit the armed hook from the parent).
WORKER_SABOTAGE: Dict[str, Callable[[], None]] = {
    # The chunk raises inside the worker: the supervisor must retry it
    # and the sweep must still complete.
    "chunk-raises": _chunk_raises,
    # The chunk hangs forever: the per-chunk timeout must fire, the
    # worker be killed and replaced, the chunk retried elsewhere.
    "chunk-hangs": _chunk_hangs,
    # A worker is SIGKILLed mid-chunk: pipe EOF, replacement, retry.
    "worker-killed": _worker_killed,
    # A worker exits cleanly but prematurely mid-chunk: same recovery.
    "worker-exits": _worker_exits,
}


def campaign_sabotage_names() -> list:
    return sorted(WORKER_SABOTAGE)


@contextlib.contextmanager
def sabotage_campaign(kind: str, once: bool = False) -> Iterator[None]:
    """Arm one campaign-runtime failure for the duration of the context.

    Worker-level kinds (see :data:`WORKER_SABOTAGE`) install a
    :data:`~repro.engine.supervisor.WORKER_CHUNK_HOOK`; with ``once``
    the failure fires only on the first attempt of each campaign's
    chunk starting at item 0, otherwise every chunk attempt fails and
    the sweep degrades to the serial rung.
    """
    if kind not in WORKER_SABOTAGE:
        known = ", ".join(campaign_sabotage_names())
        raise KeyError(
            f"unknown campaign sabotage {kind!r}; known: {known}"
        )
    previous = _supervisor.WORKER_CHUNK_HOOK
    _supervisor.WORKER_CHUNK_HOOK = _worker_hook(WORKER_SABOTAGE[kind], once)
    try:
        yield
    finally:
        _supervisor.WORKER_CHUNK_HOOK = previous


# ----------------------------------------------------------------------
# service sabotage (`repro serve` chaos)
# ----------------------------------------------------------------------
#: Environment seam arming service sabotage in a spawned `repro serve`
#: process (read back by :func:`repro.server.serve` at startup).
SERVE_CHAOS_ENV = "REPRO_CHAOS_SERVE"
SERVE_CHAOS_SLOW_ENV = "REPRO_CHAOS_SLOW_S"

#: Kinds accepted by :func:`sabotage_service`.
SERVICE_SABOTAGE: Tuple[str, ...] = ("campaign-slow", "campaign-hangs")

# Hung campaigns park on this event instead of a bare sleep so a test
# can release a campaign stuck in one of its own threads at teardown.
_SERVICE_HANG = threading.Event()


def release_service_hangs() -> None:
    """Unstick every ``campaign-hangs`` chunk currently parked."""
    _SERVICE_HANG.set()


def _service_chunk_statuses(kind: str, slow_s: float) -> Callable:
    original = _supervisor.chunk_statuses

    def sabotaged(chunk_kind, host, start, stop):
        if kind == "campaign-slow":
            time.sleep(slow_s)
        else:  # campaign-hangs
            _SERVICE_HANG.wait(3600)
        return original(chunk_kind, host, start, stop)

    return sabotaged


@contextlib.contextmanager
def sabotage_service(kind: str, slow_s: float = 0.2) -> Iterator[None]:
    """Arm one `repro serve` failure mode for the duration of the context.

    Both kinds stretch the campaign itself (every chunk classification
    pays a delay), which is what the service-resilience tests need: a
    campaign that is deterministically *slow* spans many supervision
    poll intervals, giving deadlines, subscriber-disconnect
    cancellation, drain, and SIGKILL each a wide window to land in.

    * ``campaign-slow`` — every chunk sleeps ``slow_s`` before
      classifying (the serial rung runs ~8 chunks, so a default sweep
      takes ~8×``slow_s``);
    * ``campaign-hangs`` — every chunk parks until
      :func:`release_service_hangs` (or 3600 s): the campaign never
      finishes on its own, so only cancellation bounded by the drain
      grace period gets the server out (a served worker parked here is
      killed when the server closes).

    The sabotage patches :func:`repro.engine.supervisor.chunk_statuses`
    (``(kind, host, start, stop)``, whatever the chunk kind) — the one
    function fork workers and the serial loop both call — so
    it bites fork fan-out and the serial path a served request runs on
    by default.  ``repro serve``'s worker processes inherit it when they
    are forked, so arm it before the server's first request.
    """
    if kind not in SERVICE_SABOTAGE:
        known = ", ".join(SERVICE_SABOTAGE)
        raise KeyError(f"unknown service sabotage {kind!r}; known: {known}")
    original = _supervisor.chunk_statuses
    _SERVICE_HANG.clear()
    _supervisor.chunk_statuses = _service_chunk_statuses(kind, slow_s)
    try:
        yield
    finally:
        _SERVICE_HANG.set()
        _supervisor.chunk_statuses = original


def install_serve_env_sabotage() -> None:
    """Arm service sabotage from the environment, permanently for this
    process.  Called by :func:`repro.server.serve` at startup when
    :data:`SERVE_CHAOS_ENV` is set: the SIGKILL+``--recover`` chaos test
    spawns real server subprocesses, so the sabotage travels as
    environment.
    """
    kind = os.environ.get(SERVE_CHAOS_ENV)
    if not kind or kind not in SERVICE_SABOTAGE:
        return
    slow_s = float(os.environ.get(SERVE_CHAOS_SLOW_ENV) or 0.2)
    _supervisor.chunk_statuses = _service_chunk_statuses(kind, slow_s)


# ----------------------------------------------------------------------
# misbehaving-client drivers (the other half of service chaos)
# ----------------------------------------------------------------------
async def slowloris_probe(host: str, port: int, pause_s: float = 60.0) -> int:
    """Open a connection, send half a request head, then stall.

    Returns the HTTP status the server answers with (408 when the
    slow-client guard works).  ``pause_s`` only bounds the stall — the
    server's read timeout is expected to fire first.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b"POST /campaign HTTP/1.1\r\nContent-")
        await writer.drain()
        try:
            status_line = await asyncio.wait_for(
                reader.readline(), timeout=pause_s
            )
        except asyncio.TimeoutError:
            return 0
        return int(status_line.split()[1])
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def disconnecting_subscriber(
    host: str, port: int, body: dict, after_lines: int = 1
) -> List[dict]:
    """POST a campaign, read ``after_lines`` NDJSON lines, then vanish
    mid-stream (no clean HTTP shutdown).  Returns the lines read — the
    server is expected to notice the EOF and cancel the orphaned
    campaign once its last subscriber is gone."""
    payload = json.dumps(body).encode()
    reader, writer = await asyncio.open_connection(host, port)
    lines: List[dict] = []
    try:
        writer.write(
            f"POST /campaign HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Content-Type: application/json\r\n\r\n".encode() + payload
        )
        await writer.drain()
        while True:
            line = await reader.readline()  # headers, then chunk frames
            if not line:
                break
            text = line.strip().decode("latin-1", "replace")
            if text.startswith("{"):
                lines.append(json.loads(text))
                if len(lines) >= after_lines:
                    break
        return lines
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
