"""The supervised campaign runtime under injected failure.

Every test here follows the chaos discipline of the fuzz harness: arm a
failure (a chunk that raises or hangs, a worker that dies, shared memory
denied), run the sweep, and assert it still completes with per-fault
statuses byte-identical to the undisturbed serial path — with the
incident recorded in the
:class:`~repro.engine.supervisor.CampaignReport` rather than swallowed.
Checkpoint/resume and the degenerate-chunking guards are covered the
same way: interruption is deliberate, resumption must be exact.
"""

import json
import os

import pytest

from repro.engine import (
    CampaignCancelled,
    CancelToken,
    CheckpointError,
    FaultSweep,
    universe_fingerprint,
)
from repro.engine import durable, supervisor
from repro.logic.benchfmt import load_bench
from repro.qa.chaos import (
    campaign_sabotage_names,
    sabotage_campaign,
    sabotage_service,
)
from repro.workloads.fig34 import fig37_fixed_network

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "data")


@pytest.fixture(scope="module")
def adder():
    return load_bench(os.path.join(DATA_DIR, "adder4.bench"))


@pytest.fixture(scope="module")
def adder_reference(adder):
    """Undisturbed serial statuses — the byte-identical yardstick."""
    sweep = FaultSweep(adder)
    universe = sweep.single_fault_universe()
    return universe, [s for _f, s in sweep.sweep(universe)]


def _statuses(pairs):
    return [status for _fault, status in pairs]


def fresh_sweep(network):
    from repro.engine import NetworkEngine

    return FaultSweep(network, engine=NetworkEngine(network))


def cancel_after(monkeypatch, chunks):
    """A :class:`CancelToken` that fires once ``chunks`` chunks are
    checkpointed, so the campaign stops at its next cancellation check:
    before the next chunk lands, in-process or under fork."""
    token = CancelToken()
    record = supervisor.CampaignCheckpoint.record
    recorded = []

    def counting(self, start, stop, values):
        record(self, start, stop, values)
        recorded.append(start)
        if len(recorded) >= chunks:
            token.cancel(f"stopped after {chunks} chunks")

    monkeypatch.setattr(supervisor.CampaignCheckpoint, "record", counting)
    return token


class TestChaosWorkerFailures:
    def test_worker_killed_mid_sweep(self, adder, adder_reference, tmp_path):
        universe, reference = adder_reference
        sweep = fresh_sweep(adder)
        with sabotage_campaign(
            "worker-killed", once=True
        ):
            result = sweep.sweep(universe, processes=2)
        assert _statuses(result) == reference
        report = sweep.last_report
        assert report.backend.startswith("fork:")
        assert report.workers_replaced >= 1
        assert any("worker died" in r.reason for r in report.retries)
        # Salvage: only the killed chunk was retried; every completed
        # chunk fed the final result instead of being discarded.
        assert report.chunks_completed == report.chunks_total

    def test_worker_exits_mid_sweep(self, adder, adder_reference, tmp_path):
        universe, reference = adder_reference
        sweep = fresh_sweep(adder)
        with sabotage_campaign(
            "worker-exits", once=True
        ):
            result = sweep.sweep(universe, processes=2)
        assert _statuses(result) == reference
        assert sweep.last_report.workers_replaced >= 1
        assert sweep.last_report.retries

    def test_chunk_raises_is_retried(self, adder, adder_reference, tmp_path):
        universe, reference = adder_reference
        sweep = fresh_sweep(adder)
        with sabotage_campaign(
            "chunk-raises", once=True
        ):
            result = sweep.sweep(universe, processes=2)
        assert _statuses(result) == reference
        report = sweep.last_report
        assert any(
            "chunk raised" in r.reason and r.action == "retried"
            for r in report.retries
        )
        # The worker survived its own exception: no replacement needed.
        assert report.workers_replaced == 0

    def test_hung_chunk_hits_timeout(self, adder, adder_reference, tmp_path):
        universe, reference = adder_reference
        sweep = fresh_sweep(adder)
        with sabotage_campaign(
            "chunk-hangs", once=True
        ):
            result = sweep.sweep(universe, processes=2, timeout=0.5)
        assert _statuses(result) == reference
        report = sweep.last_report
        assert any("timeout" in r.reason for r in report.retries)
        assert report.workers_replaced >= 1

    def test_unkillable_workers_salvaged_serially(
        self, adder, adder_reference
    ):
        """No once-latch: every spawned worker dies on its first chunk.
        The replacement cap trips and the sweep must salvage by
        finishing on the serial rung — never abort."""
        universe, reference = adder_reference
        sweep = fresh_sweep(adder)
        with sabotage_campaign("worker-killed"):
            result = sweep.sweep(universe, processes=2)
        assert _statuses(result) == reference
        report = sweep.last_report
        assert any(d.to == "serial" for d in report.degradations)
        assert report.backend == "serial:bitmask"
        assert report.chunks_completed + report.chunks_resumed == (
            report.chunks_total
        )

    def test_poisoned_chunk_splits_then_runs_in_parent(
        self, adder, adder_reference, monkeypatch
    ):
        """A chunk that fails on every attempt is re-chunked smaller and
        its single faults finally classified in the parent."""
        universe, reference = adder_reference
        sweep = fresh_sweep(adder)
        sub = universe[:8]
        monkeypatch.setattr(
            supervisor, "default_chunk_faults", lambda _n, _lanes: 8
        )
        with sabotage_campaign("chunk-raises"):
            result = sweep.sweep(sub, processes=2)
        assert _statuses(result) == reference[:8]
        report = sweep.last_report
        assert any(r.action == "split" for r in report.retries)
        assert any(r.action == "parent-serial" for r in report.retries)
        assert report.chunks_completed + report.chunks_resumed == (
            report.chunks_total
        )

    @pytest.mark.parametrize("chaos", ["worker-killed", "chunk-raises"])
    def test_one_shot_sabotage_gives_one_ledger(
        self, adder, adder_reference, chaos
    ):
        """A one-shot failure hits the first attempt of the chunk that
        starts at item 0, so two runs record the same report."""
        universe, reference = adder_reference
        reports = []
        for _run in range(2):
            sweep = fresh_sweep(adder)
            with sabotage_campaign(chaos, once=True):
                assert _statuses(sweep.sweep(universe, processes=2)) == (
                    reference
                )
            report = sweep.last_report.to_dict()
            del report["wall_seconds"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert [r["chunk"].split(":")[0] for r in reports[0]["retries"]] == [
            "0"
        ]

    def test_unknown_sabotage_rejected(self):
        with pytest.raises(KeyError):
            with sabotage_campaign("frobnicate"):
                pass
        assert "worker-killed" in campaign_sabotage_names()


class TestDegenerateChunking:
    def test_empty_universe(self):
        sweep = fresh_sweep(fig37_fixed_network())
        assert sweep.sweep([]) == []
        assert sweep.sweep([], processes=4) == []
        report = sweep.last_report
        assert report.faults == 0
        assert report.chunks_total == 0

    def test_more_processes_than_faults(self):
        sweep = fresh_sweep(fig37_fixed_network())
        universe = sweep.single_fault_universe()[:3]
        reference = [sweep.classify(f) for f in universe]
        result = sweep.sweep(universe, processes=8)
        assert _statuses(result) == reference
        # The fan-out gate declined — observably, not silently.
        assert any(
            "cannot amortize" in d.reason
            for d in sweep.last_report.degradations
        )
        assert not sweep.last_report.backend.startswith("fork:")

    def test_single_fault_universe(self):
        sweep = fresh_sweep(fig37_fixed_network())
        universe = sweep.single_fault_universe()[:1]
        reference = [sweep.classify(universe[0])]
        assert _statuses(sweep.sweep(universe, processes=2)) == reference
        assert sweep.last_report.chunks_total == 1

    def test_single_process_stays_serial(self, adder, adder_reference):
        universe, reference = adder_reference
        sweep = fresh_sweep(adder)
        result = sweep.sweep(universe, processes=1)
        assert _statuses(result) == reference
        assert not sweep.last_report.backend.startswith("fork:")
        assert not sweep.last_report.degradations


class TestCheckpointResume:
    def test_interrupt_then_resume_is_byte_identical(
        self, adder, adder_reference, tmp_path, monkeypatch
    ):
        universe, reference = adder_reference
        ckpt = str(tmp_path / "campaign.json")
        sweep = fresh_sweep(adder)
        with pytest.raises(CampaignCancelled):
            sweep.sweep(
                universe, checkpoint=ckpt, cancel=cancel_after(monkeypatch, 2)
            )
        payload = json.load(open(ckpt))
        assert len(payload["ranges"]) == 2
        resumed = fresh_sweep(adder)
        result = resumed.sweep(universe, checkpoint=ckpt, resume=True)
        assert _statuses(result) == reference
        report = resumed.last_report
        assert report.chunks_resumed == 2
        # Completed chunks were not re-simulated.
        assert report.chunks_completed == report.chunks_total - 2

    def test_fault_checkpoint_identity_is_unchanged(self):
        """Fault checkpoints are keyed by ``universe_fingerprint``, so
        files written by earlier versions keep loading (digest recorded
        before the campaign code last changed)."""
        from repro.workloads.fig34 import fig34_network

        sweep = fresh_sweep(fig34_network())
        universe = sweep.single_fault_universe()
        assert universe_fingerprint(universe, sweep.n) == (
            "86ce70a1ccf6e9bdcfae87f53580f59c8d598953222db93989c75ec6762c092f"
        )

    @pytest.mark.parametrize(
        "first, second",
        [("vectorized", "auto"), ("auto", "vectorized")],
    )
    def test_checkpoint_resumes_under_the_other_backend(
        self, adder, adder_reference, tmp_path, monkeypatch, first, second
    ):
        """The checkpoint identity ignores the chunk kind: a campaign
        interrupted on one backend resumes on the other, byte for byte,
        and the finished checkpoint holds the same statuses."""
        universe, reference = adder_reference
        ckpt = tmp_path / "campaign.json"
        with pytest.raises(CampaignCancelled):
            fresh_sweep(adder).sweep(
                universe, backend=first, checkpoint=str(ckpt),
                cancel=cancel_after(monkeypatch, 3),
            )
        resumed = fresh_sweep(adder)
        result = resumed.sweep(
            universe, backend=second, checkpoint=str(ckpt), resume=True
        )
        assert _statuses(result) == reference
        assert resumed.last_report.chunks_resumed == 3
        ranges = json.loads(ckpt.read_text())["ranges"]
        assert [s for r in ranges for s in r["statuses"]] == reference

    def test_interrupted_fork_campaign_resumes_under_fork(
        self, adder, adder_reference, tmp_path, monkeypatch
    ):
        """A token fired by the third checkpoint record stops the fork
        loop before any further returned chunk lands, whichever order
        the workers finish in: exactly three ranges, every run, and the
        resume completes them byte for byte."""
        universe, reference = adder_reference
        for run in range(5):
            ckpt = str(tmp_path / f"campaign{run}.json")
            with pytest.raises(CampaignCancelled):
                fresh_sweep(adder).sweep(
                    universe, processes=2, checkpoint=ckpt,
                    cancel=cancel_after(monkeypatch, 3),
                )
            monkeypatch.undo()
            assert len(json.load(open(ckpt))["ranges"]) == 3, run
            resumed = fresh_sweep(adder)
            result = resumed.sweep(
                universe, processes=2, checkpoint=ckpt, resume=True
            )
            assert _statuses(result) == reference
            assert resumed.last_report.chunks_resumed == 3

    def test_fully_completed_checkpoint_short_circuits(
        self, adder, adder_reference, tmp_path
    ):
        universe, reference = adder_reference
        ckpt = str(tmp_path / "campaign.json")
        sweep = fresh_sweep(adder)
        sweep.sweep(universe, checkpoint=ckpt)
        again = fresh_sweep(adder)
        result = again.sweep(universe, checkpoint=ckpt, resume=True)
        assert _statuses(result) == reference
        report = again.last_report
        assert report.backend == "resumed"
        assert report.chunks_completed == 0
        assert report.chunks_resumed == report.chunks_total

    def test_resume_requires_checkpoint_path(self, adder):
        sweep = fresh_sweep(adder)
        with pytest.raises(CheckpointError):
            sweep.sweep(sweep.single_fault_universe(), resume=True)

    def test_missing_checkpoint_rejected(self, adder, tmp_path):
        sweep = fresh_sweep(adder)
        with pytest.raises(CheckpointError, match="does not exist"):
            sweep.sweep(
                sweep.single_fault_universe(),
                checkpoint=str(tmp_path / "absent.json"),
                resume=True,
            )

    def test_foreign_checkpoint_rejected(self, adder, tmp_path, monkeypatch):
        """A checkpoint from a different fault universe must be refused,
        not silently misapplied."""
        ckpt = str(tmp_path / "campaign.json")
        sweep = fresh_sweep(adder)
        universe = sweep.single_fault_universe()
        with pytest.raises(CampaignCancelled):
            sweep.sweep(
                universe, checkpoint=ckpt, cancel=cancel_after(monkeypatch, 1)
            )
        other = fresh_sweep(fig37_fixed_network())
        with pytest.raises(CheckpointError, match="different campaign"):
            other.sweep(
                other.single_fault_universe(), checkpoint=ckpt, resume=True
            )

    def test_corrupt_checkpoint_rejected(self, adder, tmp_path):
        universe = fresh_sweep(adder).single_fault_universe()
        fingerprint = universe_fingerprint(universe, 9)
        bad_cases = [
            "not json at all {",
            json.dumps({"version": 99}),
            json.dumps(
                {
                    "version": 1,
                    "fingerprint": fingerprint,
                    "n_faults": len(universe),
                    "ranges": [
                        {"start": 0, "stop": 2, "statuses": ["detected", "bogus"]}
                    ],
                }
            ),
            json.dumps(
                {
                    "version": 1,
                    "fingerprint": fingerprint,
                    "n_faults": len(universe),
                    "ranges": [
                        {
                            "start": 0,
                            "stop": len(universe) + 5,
                            "statuses": [],
                        }
                    ],
                }
            ),
        ]
        for i, content in enumerate(bad_cases):
            path = tmp_path / f"bad{i}.json"
            path.write_text(content)
            sweep = fresh_sweep(adder)
            with pytest.raises(CheckpointError):
                sweep.sweep(universe, checkpoint=str(path), resume=True)

    def test_failed_checkpoint_write_leaves_no_temp_file(
        self, adder, adder_reference, tmp_path, monkeypatch
    ):
        """A write that dies mid-flush keeps the previous checkpoint
        intact and resumable, and leaves no temp file behind."""
        universe, reference = adder_reference
        ckpt = tmp_path / "campaign.json"
        real_fsync = durable.os.fsync
        calls = []

        def failing_fsync(fd):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(28, "No space left on device")
            real_fsync(fd)

        monkeypatch.setattr(durable.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="No space left"):
            fresh_sweep(adder).sweep(universe, checkpoint=str(ckpt))
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["campaign.json"]
        ranges = json.loads(ckpt.read_text())["ranges"]
        assert len(ranges) == 1
        again = fresh_sweep(adder)
        result = again.sweep(universe, checkpoint=str(ckpt), resume=True)
        assert _statuses(result) == reference
        assert again.last_report.chunks_resumed == 1

    def test_chunk_size_change_does_not_break_resume(
        self, adder, adder_reference, tmp_path, monkeypatch
    ):
        universe, reference = adder_reference
        ckpt = str(tmp_path / "campaign.json")
        sweep = fresh_sweep(adder)
        monkeypatch.setattr(
            supervisor, "default_chunk_faults", lambda _n, _lanes: 50
        )
        with pytest.raises(CampaignCancelled):
            sweep.sweep(
                universe, checkpoint=ckpt, cancel=cancel_after(monkeypatch, 2)
            )
        monkeypatch.setattr(
            supervisor, "default_chunk_faults", lambda _n, _lanes: 17
        )
        resumed = fresh_sweep(adder)
        result = resumed.sweep(universe, checkpoint=ckpt, resume=True)
        assert _statuses(result) == reference
        assert resumed.last_report.chunks_resumed == 2


class TestCampaignReport:
    def test_serial_report_shape(self, adder, adder_reference):
        universe, _reference = adder_reference
        sweep = fresh_sweep(adder)
        sweep.sweep(universe)
        report = sweep.last_report
        assert report.backend == "serial:bitmask"
        assert report.faults == len(universe)
        assert report.chunks_completed == report.chunks_total > 0
        assert report.wall_seconds > 0
        assert not report.degradations
        # The report must survive a JSON round trip for the CLI.
        encoded = json.loads(json.dumps(report.to_dict()))
        assert encoded["faults"] == len(universe)
        assert encoded["degradations"] == []
        assert "no degradations" in report.summary()

    def test_fork_report_names_the_rung(self, adder, adder_reference):
        universe, _reference = adder_reference
        sweep = fresh_sweep(adder)
        sweep.sweep(universe, processes=2)
        report = sweep.last_report
        assert report.backend.startswith("fork")
        assert report.backend == f"fork:{report.block_backend}"

    def test_fingerprint_is_order_sensitive(self, adder):
        universe = fresh_sweep(adder).single_fault_universe()
        forward = universe_fingerprint(universe, 9)
        backward = universe_fingerprint(list(reversed(universe)), 9)
        assert forward != backward
        assert forward != universe_fingerprint(universe, 8)


class TestCancellation:
    """CancelToken threaded through the supervision poll loop: a fired
    token stops the sweep within one poll interval, completed chunks
    stay checkpointed, and a later resume is byte-identical."""

    def test_pre_cancelled_token_raises_immediately(self, adder):
        token = CancelToken()
        token.cancel("caller gave up")
        sweep = fresh_sweep(adder)
        with pytest.raises(CampaignCancelled, match="caller gave up"):
            sweep.sweep(sweep.single_fault_universe(), cancel=token)

    def test_unfired_deadline_does_not_disturb_the_sweep(
        self, adder, adder_reference
    ):
        universe, reference = adder_reference
        sweep = fresh_sweep(adder)
        pairs = sweep.sweep(universe, cancel=CancelToken(deadline_s=600))
        assert _statuses(pairs) == reference

    def test_deadline_cancels_then_resume_is_byte_identical(
        self, adder, adder_reference, tmp_path
    ):
        universe, reference = adder_reference
        sweep = fresh_sweep(adder)
        ckpt = str(tmp_path / "cancelled.json")
        with sabotage_service("campaign-slow", slow_s=0.05):
            with pytest.raises(CampaignCancelled, match="deadline exceeded"):
                sweep.sweep(
                    universe,
                    checkpoint=ckpt,
                    cancel=CancelToken(deadline_s=0.12),
                )
        # The chunks completed before the deadline are already durable,
        # and resuming without the token finishes the exact remainder.
        assert os.path.exists(ckpt)
        resumed = sweep.sweep(universe, checkpoint=ckpt, resume=True)
        assert _statuses(resumed) == reference

    def test_explicit_cancel_frees_the_sweep_promptly(self, adder):
        import threading
        import time as _time

        sweep = fresh_sweep(adder)
        token = CancelToken()
        timer = threading.Timer(0.15, token.cancel, args=("client gone",))
        timer.start()
        started = _time.monotonic()
        try:
            with sabotage_service("campaign-slow", slow_s=0.1):
                with pytest.raises(CampaignCancelled, match="client gone"):
                    sweep.sweep(sweep.single_fault_universe(), cancel=token)
        finally:
            timer.cancel()
        # Cancellation lands between chunks: well before the ~0.8s the
        # sabotaged sweep would otherwise take.
        assert _time.monotonic() - started < 0.6


class TestTileMajorSweep:
    """Above ``UNTILED_MAX_INPUTS`` inputs a sweep's items are tile-major
    ``(tile, fault)`` pairs: consecutive chunks share a tile, so each
    process derives each tile once, and a fault's status is its most
    severe over the tiles."""

    @staticmethod
    def _net(n_inputs, gates=12, outputs=3):
        import random

        from repro.workloads.randomlogic import random_mixed_network

        return random_mixed_network(
            random.Random(f"rungs:{n_inputs}:0"), n_inputs, gates,
            n_outputs=outputs,
        )

    def test_each_tile_is_derived_once(self, monkeypatch):
        """A serial sweep of a 21-input, 120-gate, 16-output net (the
        ``bench_rungs`` grid shape) derives each tile's baseline once,
        not once per fault chunk."""
        from repro.core.collapse import collapsed_single_faults
        from repro.engine import backends

        net = self._net(21, gates=120, outputs=16)
        derive = backends.BitmaskBackend._derive_baseline
        derived = []

        def counting(self, full):
            derived.append(tuple(self._variables or ()))
            return derive(self, full)

        monkeypatch.setattr(
            backends.BitmaskBackend, "_derive_baseline", counting
        )
        sweep = fresh_sweep(net)
        universe = list(collapsed_single_faults(net))
        sweep.sweep(universe)
        assert backends.tile_count(21) == 8
        assert len(derived) == len(set(derived)) == 8
        assert sweep.last_report.chunks_completed == 8
        assert sweep.last_report.faults == len(universe)

    @pytest.mark.parametrize("n_inputs", [21, 22])
    def test_statuses_equal_the_untiled_table(
        self, n_inputs, tmp_path, monkeypatch
    ):
        from repro.engine import backends

        net = self._net(n_inputs)
        universe = fresh_sweep(net).single_fault_universe()
        with monkeypatch.context() as whole:
            whole.setattr(backends, "UNTILED_MAX_INPUTS", 64)
            reference = _statuses(fresh_sweep(net).sweep(universe))
        tiles = backends.tile_count(n_inputs)
        assert tiles > 1
        for processes in (None, 2):
            sweep = fresh_sweep(net)
            assert _statuses(sweep.sweep(universe, processes=processes)) == (
                reference
            )
            report = sweep.last_report
            assert report.faults == len(universe)
            assert report.chunks_completed == report.chunks_total
        ckpt = str(tmp_path / "tiled.json")
        with pytest.raises(CampaignCancelled):
            fresh_sweep(net).sweep(
                universe, checkpoint=ckpt, cancel=cancel_after(monkeypatch, 3)
            )
        assert json.load(open(ckpt))["n_faults"] == tiles * len(universe)
        resumed = fresh_sweep(net)
        result = resumed.sweep(universe, checkpoint=ckpt, resume=True)
        assert _statuses(result) == reference
        assert resumed.last_report.chunks_resumed == 3
        assert resumed.last_report.faults == len(universe)
