"""The execution layer: parity and chaos.

Fan-out's one hard contract is indistinguishability: a sweep run
in-process or fanned out over forked workers must return statuses
byte-identical to the undisturbed serial scalar path, under health
*and* under injected failure.  The chaos cases reuse the fuzz
harness's sabotage discipline: workers killed mid-chunk.
"""

import os
import random

import pytest

from repro.engine import FaultSweep, NetworkEngine
from repro.logic.benchfmt import load_bench
from repro.qa.chaos import sabotage_campaign
from repro.workloads.randomlogic import random_mixed_network

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "data")

@pytest.fixture(scope="module")
def adder():
    return load_bench(os.path.join(DATA_DIR, "adder4.bench"))


@pytest.fixture(scope="module")
def adder_reference(adder):
    """Serial scalar statuses — the byte-identical yardstick."""
    sweep = FaultSweep(adder)
    universe = sweep.compiled.universe_ids(collapse=False)
    statuses = [
        s for _f, s in sweep.sweep(universe, backend="bitmask")
    ]
    return universe, statuses


def fresh_sweep(network):
    return FaultSweep(network, engine=NetworkEngine(network))


def _statuses(pairs):
    return [status for _fault, status in pairs]


#: ``processes`` per execution path, keyed by the id each parity test
#: carries: fan-out happens iff ``processes > 1``.
PATHS = {"inline": 1, "fork": 2}


class TestTransportParity:
    @pytest.mark.parametrize("path", ("inline", "fork"))
    def test_statuses_byte_identical(self, adder, adder_reference, path):
        universe, reference = adder_reference
        sweep = fresh_sweep(adder)
        result = sweep.sweep(universe, processes=PATHS[path])
        assert _statuses(result) == reference
        report = sweep.last_report
        assert report.chunks_completed == report.chunks_total
        assert report.degradations == []
        if path == "inline":
            # processes=1 is the serial rung: in-process, no fan-out.
            assert report.backend == "serial:bitmask"
        else:
            assert report.backend.startswith("fork:")

    @pytest.mark.parametrize("path", ("fork",))
    def test_scalar_block_backend_parity(self, adder, adder_reference, path):
        """Fork workers stay honest on the rung named outright, not just
        on the one ``auto`` maps to."""
        universe, reference = adder_reference
        sweep = fresh_sweep(adder)
        result = sweep.sweep(
            universe, processes=PATHS[path], backend="bitmask"
        )
        assert _statuses(result) == reference
        assert sweep.last_report.backend == "fork:bitmask"


class TestTransportChaos:
    """Injected worker failure: recovery plus byte-identity."""

    @pytest.mark.parametrize("path", ("fork",))
    def test_worker_killed_is_replaced(
        self, adder, adder_reference, path, tmp_path
    ):
        universe, reference = adder_reference
        sweep = fresh_sweep(adder)
        with sabotage_campaign(
            "worker-killed", once=True
        ):
            result = sweep.sweep(universe, processes=PATHS[path])
        assert _statuses(result) == reference
        report = sweep.last_report
        assert report.workers_replaced >= 1
        assert any("worker died" in r.reason for r in report.retries)
        assert report.backend.startswith("fork:")


@pytest.mark.parametrize("backend", ("auto", "vectorized"))
def test_fork_fanout_never_builds_bitmask_baseline(backend):
    """The parent of a forked campaign has no use for the exhaustive
    big-int baseline (workers derive whatever their rung reads), so
    fanning out must not build it — whether the rung is the stem-region
    sweep ``auto`` maps to or the cone plans ``vectorized`` asks for."""
    network = random_mixed_network(
        random.Random("fork-baseline"), 13, 120, n_outputs=16
    )
    sweep = fresh_sweep(network)
    universe = sweep.compiled.universe_ids(collapse=False)
    sweep.sweep(universe, processes=2, backend=backend)
    assert sweep.engine._bitmask is None
    rung = "bitmask" if backend == "auto" else "cone"
    assert sweep.last_report.backend == f"fork:{rung}"


class TestBaselineIsolation:
    def test_baseline_is_immutable(self, adder):
        engine = NetworkEngine(adder)
        baseline = engine.bitmask.baseline()
        assert isinstance(baseline, tuple)
        with pytest.raises(TypeError):
            baseline[0] = 12345

    def test_line_bits_returns_fresh_list(self, adder):
        engine = NetworkEngine(adder)
        bits = engine.bitmask.line_bits()
        bits[0] ^= 0xFF  # a hostile caller scribbles on the result
        assert engine.bitmask.line_bits()[0] == engine.bitmask.baseline()[0]
