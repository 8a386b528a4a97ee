"""The telemetry subsystem: registry exporters, spans, flight merging.

Three layers of proof:

* the metrics registry round-trips — Prometheus text re-parses to the
  same samples, histogram buckets honour the inclusive ``le`` edge;
* spans nest, time, attribute to their parent, and survive exceptions
  without swallowing them;
* a supervised fork campaign merges worker events into the parent's
  flight exactly once — including under the worker-killed chaos
  sabotage, where the killed worker's unsent buffer is lost and the
  retry's events take its place (a partial flight survives complete).
"""

import json
import os

import pytest

from repro import obs
from repro.engine import FaultSweep, NetworkEngine
from repro.logic.benchfmt import load_bench
from repro.obs.stats import render, summarize
from repro.qa.chaos import sabotage_campaign

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "data")


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def adder():
    return load_bench(os.path.join(DATA_DIR, "adder4.bench"))


def fresh_sweep(network):
    return FaultSweep(network, engine=NetworkEngine(network))


# ----------------------------------------------------------------------
# metrics registry and exporters
# ----------------------------------------------------------------------
class TestRegistry:
    def test_prometheus_round_trip(self):
        reg = obs.Registry(enabled=True)
        chunks = reg.counter("repro_chunks_total", "chunks by backend")
        chunks.inc(3, backend="vectorized")
        chunks.inc(backend="bitmask")
        depth = reg.gauge("repro_queue_depth", "live queue depth")
        depth.set(7)
        depth.inc(-2)
        wall = reg.histogram(
            "repro_wall_seconds", "wall time", buckets=(0.1, 1.0)
        )
        wall.observe(0.05)
        wall.observe(0.5)
        wall.observe(30.0)

        parsed = obs.parse_prometheus(reg.to_prometheus())
        key = lambda **labels: tuple(sorted(labels.items()))
        assert parsed["repro_chunks_total"][key(backend="vectorized")] == 3
        assert parsed["repro_chunks_total"][key(backend="bitmask")] == 1
        assert parsed["repro_queue_depth"][key()] == 5
        assert parsed["repro_wall_seconds_bucket"][key(le="0.1")] == 1
        assert parsed["repro_wall_seconds_bucket"][key(le="1")] == 2
        assert parsed["repro_wall_seconds_bucket"][key(le="+Inf")] == 3
        assert parsed["repro_wall_seconds_count"][key()] == 3
        assert parsed["repro_wall_seconds_sum"][key()] == pytest.approx(30.55)

    def test_json_snapshot_groups_by_kind(self):
        reg = obs.Registry(enabled=True)
        reg.counter("c_total", "a counter").inc(2, kind="x")
        reg.gauge("g", "a gauge").set(1.5)
        reg.histogram("h_seconds", "a histogram", buckets=(1.0,)).observe(0.5)
        snapshot = json.loads(json.dumps(reg.to_json()))
        assert snapshot["counters"]["c_total"]["samples"] == [
            {"labels": {"kind": "x"}, "value": 2.0}
        ]
        assert snapshot["gauges"]["g"]["samples"][0]["value"] == 1.5
        hist = snapshot["histograms"]["h_seconds"]["samples"][0]
        assert hist["buckets"] == [[1.0, 1], ["+Inf", 1]]
        assert hist["count"] == 1

    def test_label_values_escape_and_round_trip(self):
        reg = obs.Registry(enabled=True)
        reg.counter("c_total").inc(reason='worker "died"\nbadly\\fast')
        parsed = obs.parse_prometheus(reg.to_prometheus())
        (labels,) = parsed["c_total"]
        assert dict(labels)["reason"] == 'worker "died"\nbadly\\fast'

    def test_histogram_bucket_edges_are_inclusive(self):
        reg = obs.Registry(enabled=True)
        h = reg.histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)  # exactly on a bound: le="1" must include it
        h.observe(2.0)
        h.observe(2.0000001)
        (sample,) = h.samples()
        assert sample["buckets"] == [[1.0, 1], [2.0, 2], ["+Inf", 3]]

    def test_histogram_rejects_unsorted_buckets(self):
        reg = obs.Registry(enabled=True)
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("empty", buckets=())

    def test_get_or_create_is_idempotent_but_kind_strict(self):
        reg = obs.Registry()
        c = reg.counter("same")
        assert reg.counter("same") is c
        with pytest.raises(ValueError):
            reg.gauge("same")
        with pytest.raises(ValueError):
            reg.histogram("same")

    def test_disabled_registry_records_nothing(self):
        reg = obs.Registry(enabled=False)
        c = reg.counter("quiet_total")
        c.inc(100)
        reg.histogram("quiet_seconds").observe(1.0)
        assert c.total() == 0
        assert reg.total("quiet_seconds") == 0
        assert "quiet_total 100" not in reg.to_prometheus()

    def test_counter_rejects_negative_increments(self):
        reg = obs.Registry(enabled=True)
        with pytest.raises(ValueError):
            reg.counter("c_total").inc(-1)

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(obs.PrometheusFormatError):
            obs.parse_prometheus("this is not a sample\n")
        with pytest.raises(obs.PrometheusFormatError):
            obs.parse_prometheus('name{unquoted=oops} 1\n')


# ----------------------------------------------------------------------
# spans and the flight recorder
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_tracing_is_a_shared_noop(self):
        assert obs.get_recorder() is None
        assert obs.span("anything", x=1) is obs.NOOP_SPAN
        obs.event("anything", x=1)  # must not raise, records nowhere

    def test_spans_nest_and_attribute_their_parent(self):
        rec = obs.MemoryRecorder()
        obs.set_recorder(rec)
        with obs.span("outer", role="parent"):
            with obs.span("inner") as sp:
                sp.set(discovered="late")
        inner, outer = rec.events
        assert inner["name"] == "inner" and inner["parent"] == "outer"
        assert outer["name"] == "outer" and outer["parent"] is None
        assert inner["attrs"] == {"discovered": "late"}
        assert inner["ok"] and outer["ok"]
        assert 0 <= inner["wall"] <= outer["wall"]

    def test_exception_recorded_and_propagated(self):
        rec = obs.MemoryRecorder()
        obs.set_recorder(rec)
        with pytest.raises(RuntimeError, match="boom"):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise RuntimeError("boom")
        inner, outer = rec.events
        assert not inner["ok"] and not outer["ok"]
        assert inner["error"] == "RuntimeError: boom"
        # the per-thread stack unwound cleanly: a fresh span is a root
        with obs.span("after"):
            pass
        assert rec.events[-1]["parent"] is None

    def test_flight_recorder_round_trips_jsonl(self, tmp_path):
        path = str(tmp_path / "flight.jsonl")
        with obs.FlightRecorder(path) as rec:
            obs.set_recorder(rec)
            with obs.span("work", n=3):
                obs.event("milestone", at=1)
            obs.set_recorder(None)
        events = list(obs.read_flight(path))
        names = [e["name"] for e in events]
        assert names == ["flight.open", "milestone", "work", "flight.close"]
        assert all("k" in e for e in events)

    def test_read_flight_rejects_corruption(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"k": "event", "name": "fine"}\nnot json\n')
        with pytest.raises(obs.FlightRecorderError):
            list(obs.read_flight(path))
        with open(path, "w") as handle:
            handle.write('{"no_kind": true}\n')
        with pytest.raises(obs.FlightRecorderError):
            list(obs.read_flight(path))
        with pytest.raises(obs.FlightRecorderError):
            list(obs.read_flight(str(tmp_path / "missing.jsonl")))

    def test_recording_context_restores_previous_state(self, tmp_path):
        outer = obs.MemoryRecorder()
        obs.set_recorder(outer)
        path = str(tmp_path / "inner.jsonl")
        with obs.recording(trace_path=path, metrics=True) as rec:
            assert obs.get_recorder() is rec
            assert obs.metrics_enabled()
        assert obs.get_recorder() is outer
        assert not obs.metrics_enabled()
        assert [e["name"] for e in obs.read_flight(path)] == [
            "flight.open",
            "flight.close",
        ]


# ----------------------------------------------------------------------
# fork-worker merge: the supervised campaign's whole story in one flight
# ----------------------------------------------------------------------
class TestForkMerge:
    def _campaign_flight(self, adder, tmp_path, chaos=None):
        sweep = fresh_sweep(adder)
        universe = sweep.single_fault_universe()
        path = str(tmp_path / "flight.jsonl")
        with obs.recording(trace_path=path):
            if chaos is not None:
                with sabotage_campaign(
                    chaos, once_path=str(tmp_path / "once")
                ):
                    sweep.sweep(universe, processes=2)
            else:
                sweep.sweep(universe, processes=2)
        return sweep.last_report, list(obs.read_flight(path))

    def test_worker_events_appear_exactly_once(self, adder, tmp_path):
        report, events = self._campaign_flight(adder, tmp_path)
        ok_chunks = [
            e
            for e in events
            if e["k"] == "span" and e["name"] == "sweep.chunk" and e["ok"]
        ]
        # the acceptance invariant: per-chunk span count == chunk ledger
        assert len(ok_chunks) == report.chunks_completed
        worker_spans = [
            e for e in events if e["k"] == "span" and e["name"] == "worker.chunk"
        ]
        keys = [e["attrs"]["chunk"] for e in worker_spans if e["ok"]]
        assert len(keys) == len(set(keys)), "a worker chunk merged twice"
        parent = os.getpid()
        worker_pids = {e["pid"] for e in worker_spans}
        assert worker_pids and parent not in worker_pids
        # merged verbatim: worker spans keep their source pid
        assert {e["pid"] for e in events} >= worker_pids | {parent}

    def test_killed_worker_flight_survives_complete(self, adder, tmp_path):
        report, events = self._campaign_flight(
            adder, tmp_path, chaos="worker-killed"
        )
        assert report.workers_replaced >= 1
        replacements = [
            e
            for e in events
            if e["k"] == "event" and e["name"] == "campaign.worker_replaced"
        ]
        assert len(replacements) == report.workers_replaced
        ok_chunks = [
            e
            for e in events
            if e["k"] == "span" and e["name"] == "sweep.chunk" and e["ok"]
        ]
        assert len(ok_chunks) == report.chunks_completed
        # the killed worker's unsent buffer is gone; the retried chunk's
        # events merged instead, so every completed chunk is on record
        chunk_events = [
            e
            for e in events
            if e["k"] == "event" and e["name"] == "campaign.chunk"
        ]
        assert len(chunk_events) == report.chunks_completed
        retry_events = [
            e
            for e in events
            if e["k"] == "event" and e["name"] == "campaign.retry"
        ]
        assert len(retry_events) == len(report.retries) >= 1

    def test_report_event_matches_campaign_report(self, adder, tmp_path):
        report, events = self._campaign_flight(adder, tmp_path)
        (recorded,) = [
            e["attrs"]
            for e in events
            if e["k"] == "event" and e["name"] == "campaign.report"
        ]
        # one stopwatch feeds both records: byte-identical wall time
        assert recorded == report.to_dict()

    def test_stats_summary_reads_the_flight(self, adder, tmp_path):
        report, events = self._campaign_flight(adder, tmp_path)
        summary = summarize(events)
        assert summary["chunk_spans"]["ok"] == report.chunks_completed
        assert summary["processes"] >= 3
        (campaign,) = summary["campaigns"]
        assert campaign["wall_seconds"] == report.wall_seconds
        assert campaign["faults_per_second"] > 0
        text = render(summary)
        assert "per-rung chunk time" in text
        assert f"{report.chunks_completed} simulated" in text


# ----------------------------------------------------------------------
# campaign metrics at the supervisor seam
# ----------------------------------------------------------------------
class TestCampaignMetrics:
    def test_supervised_sweep_populates_registry(self, adder):
        obs.enable_metrics(True)
        sweep = fresh_sweep(adder)
        universe = sweep.single_fault_universe()
        sweep.sweep(universe, processes=2)
        report = sweep.last_report
        reg = obs.REGISTRY
        assert reg.total("repro_campaign_chunks_total") == (
            report.chunks_completed
        )
        assert reg.total("repro_campaign_faults_total") == len(universe)
        assert reg.total("repro_campaign_wall_seconds") == 1
        # Engine ops run in the fork workers, whose registries are
        # process-local; the parent evaluates no ops of its own.
        assert reg.total("repro_engine_ops_total") == 0

    def test_qa_property_span_and_trial_counter(self):
        from repro.qa import fuzz

        obs.enable_metrics(True)
        rec = obs.MemoryRecorder()
        obs.set_recorder(rec)
        report = fuzz(
            seed=3,
            budget=4,
            properties=["backend-agreement"],
            artifact_dir=None,
        )
        assert report.ok
        spans = [
            e for e in rec.events if e["k"] == "span" and e["name"] == "qa.property"
        ]
        assert len(spans) == 1
        assert spans[0]["attrs"]["property"] == "backend-agreement"
        assert spans[0]["attrs"]["counterexamples"] == 0
        (qa_report,) = [
            e for e in rec.events if e["k"] == "event" and e["name"] == "qa.report"
        ]
        assert qa_report["attrs"]["ok"] is True
        assert obs.REGISTRY.total("repro_qa_trials_total") == (
            spans[0]["attrs"]["trials"]
        )
