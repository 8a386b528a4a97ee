"""Parity suite for the fault-dropping ATPG driver (repro.engine.atpg).

The driver's whole value is that dropping, candidate batching, and
compaction are *accelerations*, never reclassifications: on every seed
circuit and a fixed-seed random-logic batch its final classification
map must be byte-identical to running the scalar ``Podem`` once per
collapsed fault.  The suite also pins the pattern seam the driver rides
(``chunk_pattern_bits`` across the vectorized / bitmask / pointwise
rungs), the degradation ladder, determinism, compaction
conservation, and the ``python -m repro atpg`` entry point.
"""

import json
import os
import random

import pytest

from repro.cli import main
from repro.core.atpg import Podem
from repro.core.collapse import collapse_stem_faults
from repro.engine import FaultSweep, NetworkEngine, engine_for
from repro.engine.atpg import AtpgReport, run_atpg
from repro.engine.backends import bitmask_pattern_bits, pack_pattern_masks
from repro.engine.vectorized import chunk_pattern_bits
from repro.logic.benchfmt import load_bench, save_bench
from repro.logic.faults import StuckAt
from repro.logic.gates import GateKind
from repro.logic.network import Gate, Network
from repro.workloads.benchcircuits import fig62_nand_network
from repro.workloads.fig34 import fig34_network, fig37_fixed_network
from repro.workloads.randomlogic import (
    random_array_network,
    random_mixed_network,
    random_nand_network,
)

pytestmark = pytest.mark.atpg

PARITY_SEED = 2026

DATA_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "data"
)


def scalar_classifications(net, max_backtracks=2000):
    """The reference: one scalar PODEM search per collapsed fault."""
    podem = Podem(net, max_backtracks=max_backtracks)
    out = {}
    for fault in sorted(
        collapse_stem_faults(net), key=lambda f: (f.line, f.value)
    ):
        result = podem.generate_test_ex(fault)
        out[fault.describe()] = (
            "detected" if result.status == "test" else result.status
        )
    return out


def seed_networks():
    return [
        fig34_network(),
        fig37_fixed_network(),
        fig62_nand_network(),
    ]


def random_batch(count=6):
    rng = random.Random(PARITY_SEED)
    nets = []
    for _ in range(count):
        if rng.random() < 0.5:
            nets.append(
                random_nand_network(
                    rng, rng.randint(3, 5), rng.randint(6, 16),
                    n_outputs=rng.randint(1, 2),
                )
            )
        else:
            nets.append(
                random_mixed_network(
                    rng, rng.randint(3, 5), rng.randint(6, 16),
                    n_outputs=rng.randint(1, 2),
                )
            )
    return nets


# ----------------------------------------------------------------------
# the pattern-simulation seam
# ----------------------------------------------------------------------
class TestPatternSeam:
    def test_pack_pattern_masks_bit_convention(self):
        # patterns 0b01, 0b10, 0b11 over two inputs: mask i's bit j is
        # input i under pattern j.
        masks = pack_pattern_masks([1, 2, 3], 2)
        assert masks == [0b101, 0b110]

    @pytest.mark.parametrize(
        "backend", ["vectorized", "bitmask", "pointwise"]
    )
    def test_rungs_match_truth_tables(self, backend, fig34):
        eng = engine_for(fig34)
        n = len(fig34.inputs)
        patterns = list(range(1 << n))
        faults = [
            StuckAt(line, v) for line in fig34.lines() for v in (0, 1)
        ]
        expected_base = tuple(eng.bitmask.output_bits(None))
        base = tuple(chunk_pattern_bits(eng, patterns, None, backend))
        assert base == expected_base
        rows = chunk_pattern_bits(eng, patterns, faults, backend)
        for fault, row in zip(faults, rows):
            assert tuple(row) == tuple(eng.bitmask.output_bits(fault))

    def test_zero_output_net_gives_one_row_per_fault(self):
        net = Network(
            ["a", "b"], [Gate("g", GateKind.AND, ("a", "b"))], [],
            name="no_outputs",
        )
        eng = engine_for(net)
        faults = [StuckAt(line, v) for line in net.lines() for v in (0, 1)]
        for backend in ("vectorized", "bitmask", "pointwise"):
            assert tuple(
                chunk_pattern_bits(eng, [0, 1, 3], None, backend)
            ) == ()
            rows = chunk_pattern_bits(eng, [0, 1, 3], faults, backend)
            assert [tuple(row) for row in rows] == [()] * len(faults)

    def test_partial_unordered_patterns(self, fig34):
        eng = engine_for(fig34)
        n = len(fig34.inputs)
        rng = random.Random(5)
        patterns = [rng.randrange(1 << n) for _ in range(11)]
        tables = tuple(eng.bitmask.output_bits(None))
        for backend in ("vectorized", "bitmask", "pointwise"):
            base = chunk_pattern_bits(eng, patterns, None, backend)
            for pos, mask in enumerate(base):
                for j, p in enumerate(patterns):
                    assert (mask >> j) & 1 == (tables[pos] >> p) & 1

    def test_multiword_pattern_lists(self):
        # >64 patterns exercises the vectorized path's word chunking.
        rng = random.Random(17)
        net = random_mixed_network(rng, 6, 20, n_outputs=2)
        eng = engine_for(net)
        patterns = [rng.randrange(1 << 6) for _ in range(150)]
        faults = [StuckAt(line, 1) for line in list(net.lines())[:8]]
        results = {
            backend: (
                tuple(chunk_pattern_bits(eng, patterns, None, backend)),
                tuple(
                    tuple(row)
                    for row in chunk_pattern_bits(
                        eng, patterns, faults, backend
                    )
                ),
            )
            for backend in ("vectorized", "bitmask", "pointwise")
        }
        assert (
            results["vectorized"]
            == results["bitmask"]
            == results["pointwise"]
        )

    def test_unknown_backend_rejected(self, fig34):
        with pytest.raises(ValueError):
            chunk_pattern_bits(engine_for(fig34), [0], None, "kernel")


# ----------------------------------------------------------------------
# classification parity: driver == scalar PODEM per collapsed fault
# ----------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("index", range(3))
    @pytest.mark.parametrize("backend", ["auto", "bitmask"])
    def test_seed_circuits(self, index, backend):
        net = seed_networks()[index]
        expected = scalar_classifications(net)
        report = run_atpg(net, backend=backend)
        assert report.classifications == expected
        assert report.requested == len(expected)
        detected = {
            name
            for name, status in report.classifications.items()
            if status == "detected"
        }
        assert set(report.detected_by) == detected
        assert all(
            0 <= i < report.patterns_kept
            for i in report.detected_by.values()
        )

    def test_seed_circuit_pointwise_rung(self):
        net = seed_networks()[0]
        report = run_atpg(net, backend="pointwise")
        assert report.classifications == scalar_classifications(net)
        assert report.backend == "pointwise"

    @pytest.mark.parametrize("index", range(6))
    def test_fixed_seed_random_batch(self, index):
        net = random_batch()[index]
        expected = scalar_classifications(net)
        for backend in ("auto", "bitmask"):
            report = run_atpg(net, backend=backend)
            assert report.classifications == expected, backend

    def test_packed_fallback_when_vectorized_absent(self, fig34):
        """The no-NumPy shape: an engine whose vectorized backend is
        None must resolve auto to the bitmask rung silently, and an
        explicit vectorized request must degrade with a recorded
        reason.  (The CI tests-no-numpy job runs this whole suite with
        NumPy genuinely uninstalled.)"""
        class NoNumpyEngine(NetworkEngine):
            @property
            def vectorized(self):
                return None

        eng = NoNumpyEngine(fig34)
        auto = run_atpg(fig34, engine=eng)
        assert auto.backend == "bitmask"
        assert auto.degradations == ()
        explicit = run_atpg(fig34, engine=eng, backend="vectorized")
        assert explicit.backend == "bitmask"
        assert [(d.frm, d.to) for d in explicit.degradations] == [
            ("vectorized", "bitmask")
        ]
        assert auto.classifications == scalar_classifications(fig34)
        assert explicit.classifications == auto.classifications

    def test_wide_net_stays_on_bitmask_rung(self):
        """Pattern simulation packs only the pattern list, so the
        25-input exhaustive ceiling must not push a 30-input run off
        the big-int rung."""
        from .test_engine import TestWideInputGuard

        net = TestWideInputGuard()._wide_net()
        faults = FaultSweep(net).single_fault_universe()[:8]
        report = run_atpg(net, faults=faults, backend="auto")
        assert report.backend == "bitmask"
        assert report.degradations == ()


# ----------------------------------------------------------------------
# driver semantics: determinism, dropping, compaction, pairs, deadlines
# ----------------------------------------------------------------------
class TestDriver:
    def test_deterministic(self, fig34):
        a = run_atpg(fig34)
        b = run_atpg(fig34)
        assert a.patterns == b.patterns
        assert a.classifications == b.classifications
        assert a.detected_by == b.detected_by

    def test_dropping_saves_podem_searches(self, fig34):
        dropping = run_atpg(fig34)
        reference = run_atpg(fig34, drop=False, compact=False)
        assert dropping.classifications == reference.classifications
        assert dropping.targets < reference.targets
        assert dropping.dropped > 0
        assert reference.dropped == 0
        assert reference.patterns_kept == reference.detected

    def test_compaction_preserves_coverage(self, fig34):
        compacted = run_atpg(fig34)
        loose = run_atpg(fig34, compact=False)
        assert compacted.classifications == loose.classifications
        assert compacted.patterns_kept <= loose.patterns_kept
        # Every pattern the compacted report credits must really detect
        # the fault it covers, per the block backend.
        eng = engine_for(fig34)
        universe = {
            f.describe(): f for f in collapse_stem_faults(fig34)
        }
        for name, index in compacted.detected_by.items():
            pattern = compacted.patterns[index]
            base = bitmask_pattern_bits(eng.compiled, [pattern], None)
            row = bitmask_pattern_bits(
                eng.compiled, [pattern], [universe[name]]
            )[0]
            assert any((b ^ r) & 1 for b, r in zip(base, row)), name

    def test_pairs_mode_emits_alternating_pairs(self, fig37):
        report = run_atpg(fig37, pairs=True)
        assert report.pairs
        # fig3.7 is the thesis's repaired self-checking network: every
        # collapsed fault is pair-testable.
        assert report.detected == report.requested
        n = len(fig37.inputs)
        full = (1 << n) - 1
        eng = engine_for(fig37)
        universe = {
            f.describe(): f for f in collapse_stem_faults(fig37)
        }
        for name, index in report.detected_by.items():
            x = report.patterns[index]
            pair = [x, x ^ full]
            base = bitmask_pattern_bits(eng.compiled, pair, None)
            row = bitmask_pattern_bits(eng.compiled, pair, [universe[name]])[0]
            good_alternates = any(
                ((b & 1) ^ ((b >> 1) & 1)) for b in base
            )
            faulty_nonalternating = any(
                ((b & 1) ^ ((b >> 1) & 1))
                and ((r & 1) == ((r >> 1) & 1))
                for b, r in zip(base, row)
            )
            assert good_alternates and faulty_nonalternating, name

    def test_candidate_budget_one_matches_scalar_patterns(self, fig34):
        """candidates=1 + no dropping is exactly the scalar generator:
        pattern k is the zero-filled test of the k-th surviving target."""
        report = run_atpg(fig34, drop=False, compact=False, candidates=1)
        podem = Podem(fig34)
        names = list(fig34.inputs)
        for fault in sorted(
            collapse_stem_faults(fig34), key=lambda f: (f.line, f.value)
        ):
            result = podem.generate_test_ex(fault)
            if result.status != "test":
                continue
            index = report.detected_by[fault.describe()]
            point = sum(
                (result.test[name] & 1) << i
                for i, name in enumerate(names)
            )
            assert report.patterns[index] == point

    def test_target_timeout_classifies_aborted(self, fig34):
        report = run_atpg(fig34, target_timeout=1e-12)
        assert report.aborted == report.requested
        assert report.patterns == ()

    def test_report_shape_and_coverage(self, fig34):
        report = run_atpg(fig34)
        assert isinstance(report, AtpgReport)
        assert 0.0 <= report.coverage() <= 1.0
        data = report.to_dict()
        assert data["coverage"] == report.coverage()
        json.dumps(data)  # JSON-serializable end to end
        assert "patterns kept" in report.summary()

    def test_explicit_fault_universe(self, fig34):
        line = sorted(fig34.lines())[0]
        faults = [StuckAt(line, 0), StuckAt(line, 1)]
        report = run_atpg(fig34, faults=faults)
        assert report.requested == 2
        assert set(report.classifications) == {
            f.describe() for f in faults
        }

    def test_invalid_arguments_rejected(self, fig34):
        with pytest.raises(ValueError):
            run_atpg(fig34, backend="kernel")
        with pytest.raises(ValueError):
            run_atpg(fig34, candidates=0)


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
class TestAtpgCli:
    @pytest.fixture
    def fig34_bench(self, tmp_path):
        path = os.path.join(tmp_path, "fig34.bench")
        save_bench(fig34_network(), path)
        return path

    def test_basic_run(self, fig34_bench, capsys):
        assert main(["atpg", fig34_bench]) == 0
        out = capsys.readouterr().out
        assert "detected" in out and "patterns kept" in out

    def test_json_matches_driver(self, fig34_bench, capsys):
        assert main(["atpg", fig34_bench, "--json", "--report"]) == 0
        data = json.loads(capsys.readouterr().out)
        expected = run_atpg(fig34_network())
        assert data["classifications"] == expected.classifications
        assert data["detected"] == expected.detected
        assert data["patterns"] == list(expected.patterns)

    def test_report_lists_patterns(self, fig34_bench, capsys):
        assert main(["atpg", fig34_bench, "--report"]) == 0
        assert "pattern 0:" in capsys.readouterr().out

    def test_flags_route_through(self, fig34_bench, capsys):
        assert (
            main(
                [
                    "atpg", fig34_bench, "--no-collapse", "--no-drop",
                    "--no-compact", "--backend", "bitmask", "--json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "bitmask"
        assert data["dropped"] == 0
        # raw (uncollapsed) stem universe is strictly larger
        assert data["requested"] > run_atpg(fig34_network()).requested

    def test_trace_out_flight_renders(self, fig34_bench, tmp_path, capsys):
        flight = os.path.join(tmp_path, "flight.jsonl")
        assert main(["atpg", fig34_bench, "--trace-out", flight]) == 0
        capsys.readouterr()
        assert main(["stats", flight]) == 0
        out = capsys.readouterr().out
        assert "atpg:" in out and "PODEM searches" in out

    def test_bad_flags_rejected(self, fig34_bench):
        with pytest.raises(SystemExit):
            main(["atpg", fig34_bench, "--timeout", "0"])
        with pytest.raises(SystemExit):
            main(["atpg", fig34_bench, "--candidates", "0"])


class TestCommittedBatch:
    """The committed random-logic batch (``examples/data/array*.bench``,
    the BENCH_atpg workload) stays reproducible and fully covered."""

    def test_batch_regenerates_from_pinned_seeds(self):
        for stages, seed in ((10, 0), (11, 1)):
            net = random_array_network(
                random.Random(f"array:{stages}:{seed}"),
                stages,
                name=f"array{stages}",
            )
            loaded = load_bench(
                os.path.join(DATA_DIR, f"array{stages}.bench")
            )
            assert loaded.inputs == net.inputs
            assert loaded.outputs == net.outputs
            assert [
                (g.name, g.kind, g.inputs) for g in loaded.gates
            ] == [(g.name, g.kind, g.inputs) for g in net.gates]

    def test_cli_coverage_equals_detectable_count(self, capsys):
        """Acceptance bar: ``python -m repro atpg`` on the committed
        batch detects exactly the faults the block backend can
        distinguish from the good circuit.  With zero aborts,
        ``detected == detectable`` reduces to checking that every
        redundant-claimed fault is truly undetectable — so only those
        few faults need the exhaustive 2^21-point sweep."""
        path = os.path.join(DATA_DIR, "array10.bench")
        assert main(["atpg", path, "--json", "--report"]) == 0
        data = json.loads(capsys.readouterr().out)
        net = load_bench(path)
        universe = sorted(
            collapse_stem_faults(net), key=lambda f: (f.line, f.value)
        )
        assert data["aborted"] == 0
        assert data["requested"] == len(universe)
        assert data["detected"] + data["redundant"] == data["requested"]
        redundant = {
            name
            for name, status in data["classifications"].items()
            if status == "redundant"
        }
        assert len(redundant) == data["redundant"]
        bitmask = engine_for(net).bitmask
        baseline = bitmask.output_bits(None)
        for fault in universe:
            if fault.describe() in redundant:
                assert bitmask.output_bits(fault) == baseline, (
                    f"{fault.describe()} claimed redundant but detectable"
                )
