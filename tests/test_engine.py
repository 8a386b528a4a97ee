"""Cross-backend equivalence of the compiled engine (repro.engine).

Every backend — word-parallel bitmask, pointwise (single points and
explicit point lists) — must agree
bit-for-bit with a naive dict-walking reference evaluator on every seed
circuit, fault-free and under exhaustive single-fault injection (stem
and pin stuck-ats).  The reference below deliberately shares no code
with the engine: it walks the named netlist gate by gate, resolving
stem and pin overrides the way the legacy evaluators did.
"""

import os
import random

import pytest

from repro.engine import FaultSweep, NetworkEngine, engine_for, select_backend
from repro.engine.vectorized import (
    HAVE_NUMPY,
    VectorizedBackend,
    chunk_pattern_bits,
    chunk_statuses,
)
from repro.logic.benchfmt import load_bench
from repro.logic.faults import (
    PinStuckAt,
    StuckAt,
    enumerate_single_faults,
    fault_overrides,
)
from repro.logic.gates import GateKind
from repro.logic.gates import evaluate as eval_gate
from repro.logic.network import Gate, Network
from repro.workloads.benchcircuits import fig62_nand_network
from repro.workloads.fig34 import fig34_network, fig37_fixed_network
from repro.workloads.randomlogic import random_mixed_network

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "data")


def const_buffer_network():
    """No inputs: one point, paired with itself, so it never alternates."""
    return Network(
        [],
        [Gate("one", GateKind.CONST1, ()), Gate("out", GateKind.BUF, ("one",))],
        ["out"],
    )


def inverter_network():
    """One input: a single ``(0, 1)`` pair."""
    return Network(
        ["a"],
        [Gate("na", GateKind.NOT, ("a",)), Gate("out", GateKind.BUF, ("na",))],
        ["out"],
    )


def mixed_network(n_inputs):
    return random_mixed_network(
        random.Random(0), n_inputs=n_inputs, n_gates=16, n_outputs=2
    )


#: label -> zero-argument builder of one seed circuit
SEED_CIRCUITS = {
    "fig34": fig34_network,
    "fig37_fixed": fig37_fixed_network,
    "fig62_nand": fig62_nand_network,
    "adder4_bench": lambda: load_bench(os.path.join(DATA_DIR, "adder4.bench")),
    "fig34_bench": lambda: load_bench(os.path.join(DATA_DIR, "fig34.bench")),
    "fig37_bench": lambda: load_bench(os.path.join(DATA_DIR, "fig37.bench")),
    "fig62_bench": lambda: load_bench(os.path.join(DATA_DIR, "fig62.bench")),
}

#: The block tiers' layout edges, added to the seed circuits in the
#: cross-rung checks: 0 and 1 inputs, and the one-word (6 inputs) /
#: two-word (7 inputs) table boundary.
LAYOUT_EDGES = {
    "const_buffer": const_buffer_network,
    "inverter": inverter_network,
    "mixed6": lambda: mixed_network(6),
    "mixed7": lambda: mixed_network(7),
}

#: Networks at or below this input count are checked on every point;
#: wider ones (the 9-input adder) on a seeded sample per fault.
EXHAUSTIVE_LIMIT = 6
SAMPLE_POINTS = 48


def reference_values(network, point, fault=None):
    """Naive per-point evaluation: named dict walk, no engine code."""
    if fault is None:
        stems, pins = {}, {}
    else:
        stems, pins = fault_overrides(fault)
    values = {}
    for i, name in enumerate(network.inputs):
        v = (point >> i) & 1
        values[name] = stems.get(name, v)
    for gate in network.gates:
        operands = [values[src] for src in gate.inputs]
        for slot in range(len(operands)):
            override = pins.get((gate.name, slot))
            if override is not None:
                operands[slot] = override
        v = eval_gate(gate.kind, operands)
        values[gate.name] = stems.get(gate.name, v)
    return values


def check_points(network):
    n = len(network.inputs)
    if n <= EXHAUSTIVE_LIMIT:
        return list(range(1 << n))
    rnd = random.Random(0x5EED)
    return sorted(rnd.sample(range(1 << n), SAMPLE_POINTS))


@pytest.fixture(params=sorted(SEED_CIRCUITS), scope="module")
def circuit(request):
    return SEED_CIRCUITS[request.param]()


@pytest.fixture(
    params=sorted(SEED_CIRCUITS) + sorted(LAYOUT_EDGES), scope="module"
)
def rung_circuit(request):
    return {**SEED_CIRCUITS, **LAYOUT_EDGES}[request.param]()


class TestFaultFree:
    def test_backends_match_reference(self, circuit):
        engine = engine_for(circuit)
        comp = engine.compiled
        bits = engine.bitmask.line_bits()
        points = check_points(circuit)
        for point in points:
            ref = reference_values(circuit, point)
            # bitmask: bit `point` of each line mask
            for name, idx in comp.index.items():
                assert (bits[idx] >> point) & 1 == ref[name], (name, point)
            # pointwise: full line list
            tuple_point = engine.pointwise.point_tuple(point)
            vals = engine.pointwise.line_values(tuple_point)
            for name, idx in comp.index.items():
                assert vals[idx] == ref[name], (name, point)
        # point lists: output vectors over the whole list at once
        expected = [
            tuple(reference_values(circuit, p)[o] for o in circuit.outputs)
            for p in points
        ]
        assert engine.pointwise.output_vectors(points) == expected


class TestSingleFaultEquivalence:
    def test_backends_agree_under_every_single_fault(self, circuit):
        engine = engine_for(circuit)
        comp = engine.compiled
        points = check_points(circuit)
        for fault in enumerate_single_faults(circuit):
            bits = engine.bitmask.line_bits(fault)
            sampled = engine.pointwise.output_vectors(points, fault)
            for pos, point in enumerate(points):
                ref = reference_values(circuit, point, fault)
                for name, idx in comp.index.items():
                    assert (bits[idx] >> point) & 1 == ref[name], (
                        fault.describe(),
                        name,
                        point,
                    )
                tuple_point = engine.pointwise.point_tuple(point)
                vals = engine.pointwise.line_values(tuple_point, fault)
                for name, idx in comp.index.items():
                    assert vals[idx] == ref[name], (
                        fault.describe(),
                        name,
                        point,
                    )
                expected_out = tuple(ref[o] for o in circuit.outputs)
                assert sampled[pos] == expected_out, (fault.describe(), point)


class TestVectorizedEquivalence:
    """The fault-batched block backends must agree bit-for-bit with the
    scalar bitmask backend, fault-free and under every single fault."""

    @pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")
    def test_vectorized_line_bits_match_bitmask(self, rung_circuit):
        engine = engine_for(rung_circuit)
        vec = VectorizedBackend(engine.compiled)
        assert vec.line_bits() == engine.bitmask.line_bits()
        for fault in enumerate_single_faults(rung_circuit):
            assert vec.line_bits(fault) == engine.bitmask.line_bits(
                fault
            ), fault.describe()

    @pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")
    def test_vectorized_response_blocks_match_scalar(self, rung_circuit):
        sweep = FaultSweep(rung_circuit)
        universe = sweep.single_fault_universe()
        vec = VectorizedBackend(sweep.compiled)
        triples = vec.response_block(universe)
        for fault, triple in zip(universe, triples):
            bits = sweep.response_bits(fault)
            assert triple == (
                bits.affected,
                bits.detected,
                bits.violations,
            ), fault.describe()

    def test_sweep_statuses_identical_across_backends(self, rung_circuit):
        sweep = FaultSweep(rung_circuit)
        universe = sweep.single_fault_universe()
        reference = [(f, sweep.classify(f)) for f in universe]
        assert sweep.sweep(universe, backend="bitmask") == reference
        assert sweep.sweep(universe, backend="vectorized") == reference
        assert sweep.sweep(universe, backend="auto") == reference

    @pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")
    def test_chunked_word_axis_matches_scalar(self, circuit):
        """Tiny chunk_words forces the tiled path even on the seed
        circuits (the 9-input adder's 4-word half gets real multi-tile
        sweeps at chunk sizes 1 and 2, and a last tile clipped at the
        half at chunk size 3)."""
        if len(circuit.inputs) < 8:
            pytest.skip("needs a half wider than one word to chunk")
        sweep = FaultSweep(circuit)
        universe = sweep.single_fault_universe()
        reference = [sweep.classify(f) for f in universe]
        bitmask = sweep.engine.bitmask
        for chunk_words in (1, 2, 3):
            vec = VectorizedBackend(sweep.compiled, chunk_words=chunk_words)
            assert vec.chunked
            assert vec.sweep_statuses(universe) == reference
            triples = vec.response_block(universe[:12])
            for fault, triple in zip(universe[:12], triples):
                bits = sweep.response_bits(fault)
                assert triple == (
                    bits.affected,
                    bits.detected,
                    bits.violations,
                ), (chunk_words, fault.describe())
            assert vec.line_bits(universe[0]) == bitmask.line_bits(
                universe[0]
            ), chunk_words

    @pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")
    def test_random_mixed_all_block_sizes(self):
        """Blocks of one fault, a prime count, a full word's worth and
        the whole universe classify the same as the scalar path."""
        net = random_mixed_network(
            random.Random(0xBEEF), n_inputs=9, n_gates=90, n_outputs=5
        )
        eng = NetworkEngine(net)
        universe = FaultSweep(net, engine=eng).single_fault_universe()
        reference = eng.bitmask.sweep_statuses(universe)
        for block_faults in (1, 7, 16, len(universe)):
            vec = VectorizedBackend(eng.compiled, block_faults=block_faults)
            assert vec.sweep_statuses(universe) == reference, block_faults

    @pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")
    def test_dead_cone_fault_on_vectorized(self):
        """A fault whose line reaches no output classifies on the block
        rung exactly as on the scalar one."""
        net = Network(
            ["a", "b"],
            [
                Gate("dead", GateKind.AND, ("a", "b")),
                Gate("out", GateKind.XOR, ("a", "b")),
            ],
            ["out"],
        )
        eng = NetworkEngine(net)
        faults = [StuckAt("dead", 0), StuckAt("dead", 1)]
        assert eng.vectorized.sweep_statuses(
            faults
        ) == eng.bitmask.sweep_statuses(faults)

    def test_chunk_statuses_degrades_without_vectorized(self):
        """A ``vectorized`` chunk lands on ``bitmask`` when the engine
        cannot build the block rung (a worker without NumPy)."""

        class NoVectorEngine(NetworkEngine):
            @property
            def vectorized(self):
                return None

        net = random_mixed_network(
            random.Random(0xBEEF), n_inputs=9, n_gates=90, n_outputs=5
        )
        eng = NoVectorEngine(net)
        universe = FaultSweep(net, engine=eng).single_fault_universe()
        assert chunk_statuses(
            eng, universe, "vectorized"
        ) == eng.bitmask.sweep_statuses(universe)


def shape_network(n_inputs):
    """Every shape the stem-region sweep must get right, on ``n_inputs``
    inputs: CONST, NOT, BUF, MAJ, MIN, XNOR, OR and NAND gates, the
    duplicate pins of ``AND(a, a)``, an output (``mj``) that also feeds
    gates, and a dead gate."""
    inputs = [f"x{i}" for i in range(n_inputs)]
    a = inputs[0] if inputs else "k1"
    last = inputs[-1] if inputs else "k0"
    gates = [
        Gate("k1", GateKind.CONST1, ()),
        Gate("k0", GateKind.CONST0, ()),
        Gate("d", GateKind.AND, (a, a)),
        Gate("nb", GateKind.NOT, (a,)),
        Gate("bf", GateKind.BUF, ("d",)),
        Gate("mj", GateKind.MAJ, ("bf", "nb", last)),
        Gate("mn", GateKind.MIN, ("mj", "k1", a)),
        Gate("xn", GateKind.XNOR, ("mj", "mn")),
        Gate("y", GateKind.OR, ("xn", "bf")),
        Gate("dead", GateKind.NAND, ("y", "k0")),
    ]
    return Network(inputs, gates, ["mj", "y"], name=f"shapes{n_inputs}")


class TestStemRegion:
    """The bitmask backend's stem-region classification (one flip
    simulation per fanout stem) against its cone-plan path."""

    @pytest.mark.parametrize("n_inputs", [0, 1, 6, 7, 20])
    def test_edge_shapes_agree_with_cone_plans(self, n_inputs):
        from repro.qa import Case
        from repro.qa.properties import (
            _check_stem_region,
            random_region_network,
        )

        net = shape_network(n_inputs)
        universe = NetworkEngine(net).compiled.fault_universe(
            collapse=False, live_only=False
        )
        described = {fault.describe() for fault in universe}
        assert {"dead s/0", "d.pin1 s/1", "mj s/1"} <= described
        assert _check_stem_region(Case(network=net)) is None
        for seed in range(2 if n_inputs == 20 else 6):
            rng = random.Random(f"stem-region:{n_inputs}:{seed}")
            case = Case(network=random_region_network(rng, n_inputs, 8))
            assert _check_stem_region(case) is None, seed

    def test_other_faults_keep_the_cone_path(self):
        """A multiple fault, a stem on an absent line and an out-of-range
        pin slot take the cone plan, with the reference interpreter's
        tables."""
        from repro.engine.backends import table_response
        from repro.logic.faults import MultipleFault
        from repro.qa.reference import reference_output_bits

        net = shape_network(3)
        bitmask = NetworkEngine(net).bitmask
        for fault in (
            MultipleFault((StuckAt("d", 1), PinStuckAt("y", 0, 0))),
            StuckAt("absent", 1),
            PinStuckAt("y", 7, 1),
        ):
            assert bitmask.region_output_bits(fault) is None
            tables = reference_output_bits(net, fault)
            assert bitmask.output_bits(fault) == tables
            assert bitmask.response_triple(fault) == table_response(
                bitmask.normals(), tables, 3
            )

    def test_threads_share_one_engine(self):
        """``serve`` threads share one engine: concurrent first-use
        derivation of the regions and root flips must give every thread
        the serial statuses."""
        import sys
        import threading

        net = random_mixed_network(
            random.Random("stem-region-threads"), 9, 80, n_outputs=8
        )
        universe = NetworkEngine(net).compiled.fault_universe(collapse=False)
        reference = NetworkEngine(net).bitmask.sweep_statuses(universe)
        shared = NetworkEngine(net).bitmask
        results = [None] * 6
        start = threading.Barrier(len(results))

        def work(slot):
            start.wait(timeout=30)
            results[slot] = shared.sweep_statuses(universe)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(slot,))
                for slot in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [reference] * len(results)

    def test_op_count(self):
        """A collapsed bitmask sweep evaluates the baseline, one op per
        sensitized pin (each folded line's reader and each pin fault's
        gate) and the output cone of each root it flips — no cone per
        fault.  On a 120-gate, 16-output net that is under a third of
        the per-fault cone plans' ops."""
        from repro import obs
        from repro.logic.faults import PinStuckAt as Pin

        net = random_mixed_network(
            random.Random("stem-region-ops"), 10, 120, n_outputs=16
        )
        obs.enable_metrics(True)
        engine = NetworkEngine(net)
        comp = engine.compiled
        universe = comp.fault_universe()
        FaultSweep(net, engine=engine).sweep(universe, backend="bitmask")
        roots, _sens = engine.bitmask.regions()
        flipped = set()
        pins = 0
        for fault in universe:
            if isinstance(fault, Pin):
                pins += 1
                flipped.add(roots[comp.index[fault.gate]])
            else:
                flipped.add(roots[comp.index[fault.line]])
        expected = (
            len(comp.ops)
            + sum(comp.branch_folds)
            + pins
            + sum(len(comp.cone_ops(root)) for root in flipped)
        )
        assert obs.REGISTRY.total("repro_engine_ops_total") == expected
        cone_plans = len(comp.ops) + sum(
            len(comp.fault_plan(fault).ops) for fault in universe
        )
        assert 3 * expected <= cone_plans


class TestBackendSelection:
    """The table in ``select_backend``'s docstring, whose cut-off is a
    row of ``benchmarks/bench_rungs.py``'s cold crossover grid."""

    def test_fault_count_does_not_enter(self):
        # The rule takes the input width alone: there is no fault-count
        # argument left to pass.
        import inspect

        assert list(inspect.signature(select_backend).parameters) == [
            "n_inputs",
            "numpy_available",
        ]
        for n in (0, 1, 4, 6, 7, 13, 20):
            assert select_backend(n, numpy_available=True) == "bitmask"
            assert select_backend(n, numpy_available=False) == "bitmask"

    def test_wide_inputs_block_even_for_few_faults(self):
        # Above 20 inputs the chunked vectorized rung takes every sweep
        # NumPy can serve, whatever the fault count.
        for n in (21, 24):
            assert select_backend(n, numpy_available=True) == "vectorized"
            assert select_backend(n, numpy_available=False) == "bitmask"

    def test_crossover_boundaries(self):
        # 20/21: bitmask up to 20, then the chunked vectorized rung;
        # without NumPy bitmask on both sides.
        for n_inputs, expected in (
            (13, "bitmask"),
            (14, "bitmask"),
            (20, "bitmask"),
            (21, "vectorized"),
        ):
            assert (
                select_backend(n_inputs, numpy_available=True) == expected
            ), n_inputs
            assert (
                select_backend(n_inputs, numpy_available=False) == "bitmask"
            ), n_inputs

    def test_default_reads_numpy_availability(self, monkeypatch):
        import repro.engine.vectorized

        monkeypatch.setattr(repro.engine.vectorized, "HAVE_NUMPY", True)
        assert select_backend(20) == "bitmask"
        assert select_backend(21) == "vectorized"
        monkeypatch.setattr(repro.engine.vectorized, "HAVE_NUMPY", False)
        assert select_backend(20) == "bitmask"
        assert select_backend(21) == "bitmask"

    def test_unknown_backend_name_rejected(self):
        sweep = FaultSweep(fig34_network())
        with pytest.raises(ValueError):
            sweep.sweep(sweep.single_fault_universe(), backend="gpu")


@pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")
class TestThresholdFaultRows:
    """A stuck operand can leave every carry of the MAJ/MIN bit-sliced
    counter all-zero; the packed result must keep the fault-row axis
    instead of collapsing to one scalar word."""

    @staticmethod
    def _threshold3(kind):
        return Network(
            ["x0", "x1", "x2"],
            [Gate("m", kind, ("x0", "x1", "x2"))],
            ["m"],
            name=f"{kind.value}3",
        )

    @pytest.mark.parametrize("kind", [GateKind.MAJ, GateKind.MIN])
    def test_three_input_threshold_on_vectorized(self, kind):
        net = self._threshold3(kind)
        universe = [
            StuckAt(line, value) for line in net.lines() for value in (0, 1)
        ] + [
            PinStuckAt("m", pin, value) for pin in range(3) for value in (0, 1)
        ]
        eng = NetworkEngine(net)
        reference = eng.bitmask.sweep_statuses(universe)
        vec = VectorizedBackend(eng.compiled, block_faults=1)
        assert vec.sweep_statuses(universe) == reference
        sweep = FaultSweep(net, engine=NetworkEngine(net))
        result = sweep.sweep(universe, backend="vectorized")
        assert [s for _, s in result] == reference
        assert sweep.last_sweep_backend == "vectorized"

    @pytest.mark.parametrize("kind", [GateKind.MAJ, GateKind.MIN])
    def test_pattern_rows_on_vectorized(self, kind):
        """All-zero patterns zero every operand of every fault row."""
        eng = NetworkEngine(self._threshold3(kind))
        faults = [StuckAt("x0", 0), PinStuckAt("m", 1, 0)]
        assert chunk_pattern_bits(
            eng, [0, 0], faults, "vectorized"
        ) == chunk_pattern_bits(eng, [0, 0], faults, "bitmask")


class TestWideInputGuard:
    """Circuits beyond the 25-input exhaustive ceiling must get a clear
    ``ValueError`` from the bitmask backend instead of an OOM attempt,
    while the sampled/vectorized paths keep working (regression for the
    eager 2^n-bit ``full`` mask allocation)."""

    def _wide_net(self, n_inputs=30):
        from repro.workloads.randomlogic import random_mixed_network

        return random_mixed_network(
            random.Random(0x71DE),
            n_inputs=n_inputs,
            n_gates=40,
            n_outputs=3,
        )

    def test_engine_builds_but_bitmask_raises(self):
        net = self._wide_net()
        engine = engine_for(net)  # must not allocate 2^30-bit masks
        with pytest.raises(ValueError, match="exhaustive ceiling"):
            engine.bitmask
        # pointwise/sampled still serve
        point = tuple([0, 1] * 15)
        assert engine.pointwise.output_values(point) is not None

    def test_fault_sweep_builds_lazily(self):
        net = self._wide_net()
        sweep = FaultSweep(net)  # previously touched .bitmask eagerly
        with pytest.raises(ValueError, match="exhaustive ceiling"):
            sweep.full

    def test_selection_never_picks_bitmask_wide(self):
        for n in (26, 30, 40):
            assert select_backend(n, numpy_available=True) != "bitmask"

    def test_wide_sweep_without_numpy_names_numpy(self, monkeypatch):
        """Without NumPy every sweep resolves to the big-int bitmask
        rung, which cannot hold a 2^30-bit table per line: the sweep
        must refuse up front, before any chunk or fork worker starts, and
        say that NumPy is what such a campaign needs."""
        import repro.engine
        import repro.engine.vectorized

        monkeypatch.setattr(repro.engine, "HAVE_NUMPY", False)
        monkeypatch.setattr(repro.engine.vectorized, "HAVE_NUMPY", False)
        sweep = FaultSweep(self._wide_net())
        universe = sweep.single_fault_universe()
        for processes in (None, 2):
            with pytest.raises(ValueError, match="above 25 inputs need NumPy"):
                sweep.sweep(universe, processes=processes)
        assert sweep.last_report is None


class TestSweepDrivers:
    def test_parallel_sweep_matches_serial(self, circuit):
        if len(circuit.inputs) > EXHAUSTIVE_LIMIT:
            pytest.skip("word-parallel sweep only exercised on small seeds")
        sweep = FaultSweep(circuit)
        universe = sweep.single_fault_universe()
        serial = sweep.sweep(universe)
        parallel = sweep.sweep(universe, processes=2)
        assert serial == parallel
        assert sweep.last_sweep_backend.startswith("fork:")

    def test_fork_unavailable_falls_back_to_serial_block_backend(
        self, monkeypatch
    ):
        """Platforms without the fork start method must still serve
        parallel requests — on the serial vectorized path, not by
        silently degrading to per-fault scalar."""
        import multiprocessing

        import repro.engine.campaign as campaign_mod

        real_get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real_get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        sweep = FaultSweep(fig37_fixed_network())
        universe = sweep.single_fault_universe()
        reference = [(f, sweep.classify(f)) for f in universe]
        result = sweep.sweep(universe, processes=4)
        assert result == reference
        assert sweep.last_sweep_backend in ("vectorized", "bitmask")
        # The fallback is recorded, not silent: the campaign report
        # names the ladder step and the reason.
        assert any(
            d.to == "serial" and "fork" in d.reason
            for d in sweep.last_report.degradations
        )

    def test_every_sweep_leaves_a_report(self, circuit):
        sweep = FaultSweep(circuit)
        universe = sweep.single_fault_universe()
        sweep.sweep(universe)
        report = sweep.last_report
        assert report is not None
        assert report.faults == len(universe)
        assert report.chunks_completed + report.chunks_resumed == (
            report.chunks_total
        )
        assert sweep.last_sweep_backend == report.block_backend

    def test_classification_matches_legacy_simulator(self, circuit):
        if len(circuit.inputs) > EXHAUSTIVE_LIMIT:
            pytest.skip("exhaustive oracle only exercised on small seeds")
        from repro.core.simulate import ScalSimulator

        sweep = FaultSweep(circuit)
        sim = ScalSimulator(circuit)
        for fault in sweep.single_fault_universe():
            bits = sweep.response_bits(fault)
            resp = sim.response(fault)
            assert bits.affected == resp.affected.bits
            assert bits.detected == resp.detected.bits
            assert bits.violations == resp.violations.bits
