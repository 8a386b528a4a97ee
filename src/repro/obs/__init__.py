"""Telemetry: metrics registry, tracing spans, campaign flight recorder.

A dependency-free observability layer with one hard contract: **when
nothing is watching, instrumented code pays one branch per event**.
Three cooperating pieces:

* :data:`REGISTRY` — the process-local metrics registry
  (:mod:`repro.obs.metrics`): counters, gauges, fixed-bucket
  histograms, exported as Prometheus text or JSON.  Disabled by
  default; ``python -m repro campaign --metrics-out FILE`` (and the
  bench harness) enable it.
* :func:`span` / :func:`event` — tracing (:mod:`repro.obs.trace`):
  nested timed regions and discrete occurrences, serialized to the
  active flight recorder.  No recorder (the default) means a shared
  no-op span and an immediate return.
* :class:`FlightRecorder` — one campaign's JSONL event log
  (:mod:`repro.obs.recorder`), fork-safe: events produced inside a
  supervised fork worker are buffered and merged into the parent's
  flight through the chunk-result channel, so a single artifact holds
  the whole story.  ``python -m repro stats FLIGHT`` renders it.

Instrumented seams: the engine backends (op/word counters),
:func:`repro.engine.backends.chunk_statuses` (the per-chunk
``sweep.chunk`` span every execution path classifies through; synthesis
fitness chunks open it in :func:`repro.synth.fitness.evaluate_chunk`),
:mod:`repro.engine.supervisor` (chunk completions, retries, worker
replacements, checkpoint writes, the campaign wall-clock
stopwatch), :mod:`repro.engine.store` (artifact hits/misses/evictions),
:mod:`repro.server` (request/job/subscriber counters behind
``GET /metrics``),
:class:`repro.engine.campaign.FaultSweep` (sweep-level spans), and
:mod:`repro.qa.runner` (per-property spans and trial verdicts).
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    PrometheusFormatError,
    Registry,
    parse_prometheus,
)
from .recorder import (
    FlightRecorder,
    FlightRecorderError,
    MemoryRecorder,
    read_flight,
)
from .trace import (
    NOOP_SPAN,
    Span,
    Stopwatch,
    drain_child_events,
    event,
    get_recorder,
    set_recorder,
    span,
    tracing_enabled,
)

#: The process-wide default registry every instrumented module records
#: into.  ``REGISTRY.enabled`` is the single disabled-telemetry branch.
REGISTRY = Registry(enabled=False)


def metrics_enabled() -> bool:
    return REGISTRY.enabled


def enable_metrics(enabled: bool = True) -> None:
    REGISTRY.enabled = enabled


def reset() -> None:
    """Return telemetry to its boot state (tests, bench isolation):
    metrics disabled and cleared, no active recorder."""
    REGISTRY.enabled = False
    REGISTRY.reset()
    set_recorder(None)


@contextlib.contextmanager
def recording(
    trace_path: Optional[str] = None,
    metrics: bool = False,
    recorder=None,
) -> Iterator[Optional[object]]:
    """Enable telemetry for one region (the CLI session seam).

    ``trace_path`` opens a :class:`FlightRecorder` there (``recorder``
    supplies one directly instead); ``metrics=True`` additionally
    enables :data:`REGISTRY`.  On exit the previous recorder and
    metrics flag are restored and any recorder this call opened is
    closed.
    """
    opened = None
    if recorder is None and trace_path is not None:
        opened = recorder = FlightRecorder(trace_path)
    previous_recorder = get_recorder()
    previous_metrics = REGISTRY.enabled
    if recorder is not None:
        set_recorder(recorder)
    if metrics:
        REGISTRY.enabled = True
    try:
        yield recorder
    finally:
        set_recorder(previous_recorder)
        REGISTRY.enabled = previous_metrics
        if opened is not None:
            opened.close()


__all__ = [
    "Counter",
    "FlightRecorder",
    "FlightRecorderError",
    "Gauge",
    "Histogram",
    "MemoryRecorder",
    "NOOP_SPAN",
    "PrometheusFormatError",
    "REGISTRY",
    "Registry",
    "Span",
    "Stopwatch",
    "drain_child_events",
    "enable_metrics",
    "event",
    "get_recorder",
    "metrics_enabled",
    "parse_prometheus",
    "read_flight",
    "recording",
    "reset",
    "set_recorder",
    "span",
    "tracing_enabled",
]
