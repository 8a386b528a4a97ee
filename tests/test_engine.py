"""Cross-backend equivalence of the compiled engine (repro.engine).

Every backend — word-parallel bitmask, pointwise (single points and
explicit point lists) — must agree
bit-for-bit with the naive dict-walking reference interpreter
(:mod:`repro.qa.reference`) on every seed circuit, fault-free and under
exhaustive single-fault injection (stem and pin stuck-ats).  The
reference shares no code with the engine: it walks the named netlist
gate by gate, resolving stem and pin overrides on its own.
"""

import os
import random

import pytest

from repro.engine import FaultSweep, NetworkEngine, backends, engine_for
from repro.engine.atpg import pattern_detections
from repro.engine.campaign import FaultItems
from repro.logic.benchfmt import load_bench
from repro.logic.faults import (
    MultipleFault,
    PinStuckAt,
    StuckAt,
    enumerate_single_faults,
)
from repro.logic.gates import GateKind
from repro.logic.network import Gate, Network
from repro.qa.reference import (
    point_tuple,
    reference_line_values,
    reference_outputs,
)
from repro.seq.simulator import SequentialCircuit
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


def constant_output_network():
    """Several outputs, one of them constant."""
    return Network(
        ["a", "b"],
        [
            Gate("x", GateKind.XOR, ("a", "b")),
            Gate("zero", GateKind.CONST0, ()),
            Gate("n", GateKind.NAND, ("a", "x")),
        ],
        ["x", "zero", "n"],
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
#: cross-rung checks: 0 and 1 inputs, a constant output beside others,
#: and the one-word (6 inputs) / two-word (7 inputs) table boundary.
LAYOUT_EDGES = {
    "const_buffer": const_buffer_network,
    "constant_output": constant_output_network,
    "inverter": inverter_network,
    "mixed6": lambda: mixed_network(6),
    "mixed7": lambda: mixed_network(7),
}

#: Networks at or below this input count are checked on every point;
#: wider ones (the 9-input adder) on a seeded sample per fault.
EXHAUSTIVE_LIMIT = 6
SAMPLE_POINTS = 48


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
        n = len(circuit.inputs)
        for point in points:
            ref = reference_line_values(circuit, point_tuple(n, point))
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
            reference_outputs(circuit, point_tuple(n, p)) for p in points
        ]
        assert engine.pointwise.output_vectors(points) == expected


class TestSingleFaultEquivalence:
    def test_backends_agree_under_every_single_fault(self, circuit):
        engine = engine_for(circuit)
        comp = engine.compiled
        points = check_points(circuit)
        n = len(circuit.inputs)
        for fault in enumerate_single_faults(circuit):
            bits = engine.bitmask.line_bits(fault)
            sampled = engine.pointwise.output_vectors(points, fault)
            for pos, point in enumerate(points):
                ref = reference_line_values(
                    circuit, point_tuple(n, point), fault
                )
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


def edge_faults(network):
    """Every single fault, a stem force shadowing a pin force on the same
    gate, and a fault on a line the net does not have."""
    faults = list(enumerate_single_faults(network))
    gate = next((g for g in network.gates if g.inputs), None)
    if gate is not None:
        faults.append(
            MultipleFault((StuckAt(gate.name, 1), PinStuckAt(gate.name, 0, 0)))
        )
    faults.append(StuckAt("absent", 1))
    return faults


class TestEdgeMatrix:
    """The one interpreter's callers against :mod:`repro.qa.reference` on
    the layout edges and seed circuits: packed point lists, ATPG pattern
    simulation (single and pairs) and a one-row clocked step."""

    def test_output_vectors_and_pattern_detections(self, rung_circuit):
        net = rung_circuit
        n = len(net.inputs)
        engine = NetworkEngine(net)
        points = check_points(net)[:16]  # keeps the wider nets quick
        # Pattern 2j is points[j], pattern 2j+1 its complement.
        mirrored = [q for p in points for q in (p, p ^ ((1 << n) - 1))]
        faults = edge_faults(net)
        single = pattern_detections(engine.compiled, points, faults)
        pairs = pattern_detections(engine.compiled, mirrored, faults, True)

        def outputs(fault):
            return [
                reference_outputs(net, point_tuple(n, p), fault)
                for p in mirrored
            ]

        good = outputs(None)
        for fault, got_single, got_pairs in zip(faults, single, pairs):
            bad = outputs(fault)
            label = fault.describe()
            got = engine.pointwise.output_vectors(points, fault)
            assert got == bad[::2], label
            assert got_single == sum(
                1 << j
                for j, (g, b) in enumerate(zip(good[::2], bad[::2]))
                if g != b
            ), label
            want_pairs = 0
            for j in range(len(points)):
                rails = zip(
                    good[2 * j], good[2 * j + 1], bad[2 * j], bad[2 * j + 1]
                )
                if any(g0 != g1 and b0 == b1 for g0, g1, b0, b1 in rails):
                    want_pairs |= 1 << (2 * j)
            assert got_pairs == want_pairs, label

    def test_one_row_clocked_step(self, rung_circuit):
        """Output 0 fed back to input 0 through one flip-flop (where the
        net has an input), stepped over a few points per fault."""
        net = rung_circuit
        n = len(net.inputs)
        feedback = {}
        if net.inputs and net.outputs[0] not in net.inputs:
            feedback = {net.outputs[0]: net.inputs[0]}
        for fault in [None] + edge_faults(net):
            circuit = SequentialCircuit(net, feedback)
            state = 0
            for point in check_points(net)[:4]:
                if feedback:
                    point = point & ~1 | state
                want = reference_line_values(net, point_tuple(n, point), fault)
                inputs = {
                    name: point >> i & 1
                    for i, name in enumerate(net.inputs)
                    if name in circuit.external_inputs
                }
                faults = [fault] if fault is not None else []
                assert circuit.step(inputs, faults) == want, (fault, point)
                state = want[net.outputs[0]] if feedback else 0


@pytest.fixture
def tiles(monkeypatch):
    """``tiles(pairs)`` tiles every sweep after it, at any width, into
    tiles of ``pairs`` pairs (the untiled cut drops to 0 inputs)."""

    def force(pairs):
        monkeypatch.setattr(backends, "UNTILED_MAX_INPUTS", 0)
        monkeypatch.setattr(backends, "TILE_PAIRS", pairs)

    return force


def tile_bits(table, n_inputs, lo, tile):
    """Whole-table ``table`` at the points of ``tile``, the one starting
    at lower-half point ``lo``, in the tile's bit order."""
    pairs = tile._half
    if not pairs:  # a width-0 table: its one point
        return table
    low = (1 << pairs) - 1
    top = (1 << n_inputs) - lo - pairs
    return (table >> lo) & low | ((table >> top) & low) << pairs


def table_tiles(bitmask):
    """Every table a sweep of ``bitmask``'s network classifies on."""
    count = backends.tile_count(bitmask.compiled.n_inputs)
    return [bitmask.tile(index) for index in range(count)]


def tile_widths(n_inputs):
    """Two tile widths of an ``n_inputs`` table, several tiles each."""
    half = (1 << n_inputs) >> 1
    return sorted({max(1, half >> 3), max(1, half >> 1)})


class TestVectorizedEquivalence:
    """``backend="vectorized"`` names the independent check a sweep can
    ask for: every fault's cone plan, over the same pair tiles as the
    stem-region sweep.  Each tile must hold the whole table's bits at its
    points, fault-free and under every single fault, and both paths
    must classify alike at every tile width."""

    def test_vectorized_line_bits_match_bitmask(self, rung_circuit, tiles):
        n = len(rung_circuit.inputs)
        whole = NetworkEngine(rung_circuit).bitmask
        faults = [None] + enumerate_single_faults(rung_circuit)
        for pairs in tile_widths(n):
            tiles(pairs)
            for k, tile in enumerate(table_tiles(whole)):
                for fault in faults:
                    assert tile.line_bits(fault) == [
                        tile_bits(bits, n, k * pairs, tile)
                        for bits in whole.line_bits(fault)
                    ], (pairs, k, fault)

    def test_vectorized_response_blocks_match_scalar(
        self, rung_circuit, tiles
    ):
        """A tile's pair masks, on both paths, are the whole table's at
        the tile's points."""
        n = len(rung_circuit.inputs)
        whole = NetworkEngine(rung_circuit).bitmask
        universe = FaultSweep(rung_circuit).single_fault_universe()
        for pairs in tile_widths(n):
            tiles(pairs)
            for k, tile in enumerate(table_tiles(whole)):
                for fault in universe:
                    want = tuple(
                        tile_bits(mask, n, k * pairs, tile)
                        for mask in whole.response_triple(fault)
                    )
                    assert tile.response_triple(fault) == want, fault
                    ids = tile.compiled.fault_ids(fault)
                    assert tile._cone_response(ids) == want, fault

    def test_sweep_statuses_identical_across_backends(self, rung_circuit):
        sweep = FaultSweep(rung_circuit)
        universe = sweep.single_fault_universe()
        reference = [(f, sweep.classify(f)) for f in universe]
        assert sweep.sweep(universe, backend="bitmask") == reference
        assert sweep.sweep(universe, backend="vectorized") == reference
        assert sweep.sweep(universe, backend="auto") == reference

    def test_chunked_word_axis_matches_scalar(self, circuit, tiles):
        """Tiles of 1, 2 and 4 pairs on the seed circuits with a half
        wider than one word (the 9-input adder: 256, 128 and 64 tiles),
        on both paths."""
        if len(circuit.inputs) < 8:
            pytest.skip("needs a half wider than one word to tile")
        sweep = FaultSweep(circuit)
        universe = sweep.single_fault_universe()
        reference = [sweep.classify(f) for f in universe]
        for pairs in (1, 2, 4):
            tiles(pairs)
            items = FaultItems(circuit, NetworkEngine(circuit), universe)
            assert items.all_statuses() == reference, pairs
            assert items.all_statuses(cone=True) == reference

    def test_random_mixed_all_block_sizes(self, tiles):
        """Every tile width from one pair to the whole 256-pair half
        classifies a 90-gate net as the untiled sweep does."""
        net = random_mixed_network(
            random.Random(0xBEEF), n_inputs=9, n_gates=90, n_outputs=5
        )
        universe = FaultSweep(net).single_fault_universe()
        reference = FaultItems(net, NetworkEngine(net), universe).all_statuses()
        assert set(reference) == {"detected", "dangerous"}
        for k in range(9):
            tiles(1 << k)
            items = FaultItems(net, NetworkEngine(net), universe)
            assert items.all_statuses() == reference, 1 << k

    def test_ragged_ranges_merge_to_the_whole_sweep(self, tiles):
        """Item ranges that start and stop inside tiles, evaluated in
        reverse (as a retried chunk may be), concatenate to the one-range
        statuses, and merge to the untiled ones."""
        net = random_mixed_network(
            random.Random(0xBEEF), n_inputs=9, n_gates=90, n_outputs=5
        )
        universe = FaultSweep(net).single_fault_universe()
        reference = FaultItems(net, NetworkEngine(net), universe).all_statuses()
        for pairs in (1, 8, 64):
            tiles(pairs)
            whole = FaultItems(net, NetworkEngine(net), universe)
            everything = whole.statuses(0, len(whole))
            for step in (7, len(universe) - 1, len(universe) + 3):
                items = FaultItems(net, NetworkEngine(net), universe)
                starts = range(0, len(items), step)
                ranges = [
                    items.statuses(start, min(start + step, len(items)))
                    for start in reversed(starts)
                ]
                got = [s for chunk in reversed(ranges) for s in chunk]
                assert got == everything, (pairs, step)
                assert items.merge(got) == reference, (pairs, step)

    def test_dead_cone_fault_on_vectorized(self, tiles):
        """A fault whose line reaches no output classifies on the cone
        path exactly as on the stem-region one, tiled or not."""
        net = Network(
            ["a", "b"],
            [
                Gate("dead", GateKind.AND, ("a", "b")),
                Gate("out", GateKind.XOR, ("a", "b")),
            ],
            ["out"],
        )
        faults = [StuckAt("dead", 0), StuckAt("dead", 1)]
        for pairs in (None, 1):
            if pairs:
                tiles(pairs)
            items = FaultItems(net, NetworkEngine(net), faults)
            region = items.all_statuses()
            assert items.all_statuses(cone=True) == region


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
        reference = FaultItems(net, NetworkEngine(net), universe).all_statuses()
        shared = NetworkEngine(net)
        results = [None] * 6
        start = threading.Barrier(len(results))

        def work(slot):
            start.wait(timeout=30)
            results[slot] = FaultItems(net, shared, universe).all_statuses()

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
            len(comp.fault_plan(comp.fault_ids(fault)).ops)
            for fault in universe
        )
        assert 3 * expected <= cone_plans

    @pytest.mark.parametrize("n_inputs", [1, 2, 6, 7])
    @pytest.mark.parametrize("pairs", [1, 2, 4])
    def test_tiled_sweeps_match_reference(self, n_inputs, pairs, tiles):
        """Tiles of 1–4 pairs, on both paths, give the untiled sweep's
        statuses and the reference interpreter's: constant outputs,
        ``AND(a, a)``, several outputs, dead lines, and the cone-path
        faults (a multiple fault, an absent line, an absent pin)."""
        from repro.engine.backends import (
            classify_status,
            table_normals,
            table_response,
        )
        from repro.logic.faults import MultipleFault
        from repro.qa.properties import random_region_network
        from repro.qa.reference import reference_output_bits

        extra = [
            MultipleFault((StuckAt("d", 1), PinStuckAt("y", 0, 0))),
            StuckAt("absent", 1),
            PinStuckAt("y", 7, 1),
        ]
        rng = random.Random(f"tiles:{n_inputs}:{pairs}")
        cases = []
        for net in (
            shape_network(n_inputs),
            random_region_network(rng, n_inputs, 8),
            random_mixed_network(rng, n_inputs, 12, n_outputs=3),
        ):
            universe = NetworkEngine(net).compiled.fault_universe(
                collapse=False, live_only=False
            )
            if net.name.startswith("shapes"):
                universe += extra
            normals = table_normals(reference_output_bits(net), n_inputs)
            reference = [
                classify_status(
                    *table_response(
                        normals, reference_output_bits(net, f), n_inputs
                    )[1:]
                )
                for f in universe
            ]
            untiled = FaultItems(net, NetworkEngine(net), universe)
            assert untiled.all_statuses() == reference
            cases.append((net, universe, reference))
        tiles(pairs)
        for net, universe, reference in cases:
            items = FaultItems(net, NetworkEngine(net), universe)
            assert items.all_statuses() == reference
            assert items.all_statuses(cone=True) == reference

    def test_tiled_sweep_at_20_inputs(self, tiles):
        """Eight tiles of a 20-input table, on both paths, against the
        untiled sweep, with the cone-path faults among the singles."""
        from repro.logic.faults import MultipleFault

        net = shape_network(20)
        universe = NetworkEngine(net).compiled.fault_universe(
            collapse=False, live_only=False
        ) + [
            MultipleFault((StuckAt("d", 1), PinStuckAt("y", 0, 0))),
            StuckAt("absent", 0),
        ]
        untiled = FaultItems(net, NetworkEngine(net), universe).all_statuses()
        assert {"detected", "silent"} <= set(untiled)
        tiles(1 << 16)
        items = FaultItems(net, NetworkEngine(net), universe)
        assert items.tiles == 8
        assert items.all_statuses() == untiled
        assert items.all_statuses(cone=True) == untiled


class TestBackendSelection:
    """What a sweep runs on: the rung each backend name maps to, and
    whether the table is tiled, which the input width alone decides."""

    def test_fault_count_does_not_enter(self):
        # The tile plan reads the backend alone: there is no fault
        # argument to pass, and every backend name maps to a fixed kind.
        import inspect

        from repro.engine.campaign import SWEEP_RUNGS

        assert list(inspect.signature(backends.tile_count).parameters) == [
            "n_inputs"
        ]
        assert {name: kind.name for name, kind in SWEEP_RUNGS.items()} == {
            "auto": "bitmask", "bitmask": "bitmask", "vectorized": "cone"
        }

    def test_wide_inputs_block_even_for_few_faults(self):
        # Above 20 inputs every sweep tiles, even of one fault, never
        # builds the whole table, and gives the whole table's statuses.
        net = shape_network(21)
        universe = NetworkEngine(net).compiled.fault_universe(
            collapse=False, live_only=False
        )
        whole = FaultSweep(net, engine=NetworkEngine(net))
        for faults in (universe[:1], universe):
            sweep = FaultSweep(net, engine=NetworkEngine(net))
            assert sweep.sweep(faults) == [
                (fault, whole.classify(fault)) for fault in faults
            ]
            assert sweep.engine.bitmask._baseline is None

    def test_crossover_boundaries(self):
        # 20/21: one whole table up to 20 inputs, then tiles of
        # TILE_PAIRS pairs covering the lower half.
        for n_inputs in (0, 1, 6, 7, 13, 14, 20):
            bitmask = NetworkEngine(shape_network(n_inputs)).bitmask
            assert table_tiles(bitmask) == [bitmask], n_inputs
        for n_inputs, count in ((21, 8), (22, 16)):
            bitmask = NetworkEngine(shape_network(n_inputs)).bitmask
            halves = [tile._half for tile in table_tiles(bitmask)]
            assert halves == [backends.TILE_PAIRS] * count, n_inputs

    def test_unknown_backend_name_rejected(self):
        sweep = FaultSweep(fig34_network())
        with pytest.raises(ValueError):
            sweep.sweep(sweep.single_fault_universe(), backend="gpu")


class TestThresholdFaultRows:
    """A stuck operand can leave every carry of the MAJ/MIN bit-sliced
    counter all-zero; the result must keep its width instead of
    collapsing, on the cone path and in pattern slots."""

    @staticmethod
    def _threshold3(kind):
        return Network(
            ["x0", "x1", "x2"],
            [Gate("m", kind, ("x0", "x1", "x2"))],
            ["m"],
            name=f"{kind.value}3",
        )

    @pytest.mark.parametrize("kind", [GateKind.MAJ, GateKind.MIN])
    def test_three_input_threshold_on_vectorized(self, kind, tiles):
        net = self._threshold3(kind)
        universe = [
            StuckAt(line, value) for line in net.lines() for value in (0, 1)
        ] + [
            PinStuckAt("m", pin, value) for pin in range(3) for value in (0, 1)
        ]
        items = FaultItems(net, NetworkEngine(net), universe)
        reference = items.all_statuses()
        assert items.all_statuses(cone=True) == reference
        sweep = FaultSweep(net, engine=NetworkEngine(net))
        result = sweep.sweep(universe, backend="vectorized")
        assert [s for _, s in result] == reference
        assert sweep.last_report.backend == "serial:cone"
        tiles(1)
        tiled = FaultItems(net, NetworkEngine(net), universe)
        assert tiled.all_statuses(cone=True) == reference

    @pytest.mark.parametrize("kind", [GateKind.MAJ, GateKind.MIN])
    def test_all_zero_pattern_slots(self, kind):
        """All-zero patterns zero every operand of every fault slot."""
        from repro.engine.atpg import pattern_detections

        eng = NetworkEngine(self._threshold3(kind))
        faults = [StuckAt("x0", 0), PinStuckAt("m", 1, 0), StuckAt("m", 1)]
        # Only MAJ's m s/1 flips the output at the all-zero point.
        expected = [0, 0, 0b11 if kind is GateKind.MAJ else 0]
        assert pattern_detections(eng.compiled, [0, 0], faults) == expected


class TestWideInputGuard:
    """Beyond the 25-input whole-table ceiling the bitmask backend's
    whole-table methods refuse with a clear ``ValueError`` before any
    allocation, instead of an OOM attempt, while its tiled sweep and the
    pointwise backend keep working."""

    def _wide_net(self, n_inputs=30):
        from repro.workloads.randomlogic import random_mixed_network

        return random_mixed_network(
            random.Random(0x71DE),
            n_inputs=n_inputs,
            n_gates=40,
            n_outputs=3,
        )

    def test_engine_builds_but_bitmask_raises(self):
        import tracemalloc

        for n_inputs in (26, 30):
            net = self._wide_net(n_inputs)
            engine = engine_for(net)  # must not allocate 2^n-bit masks
            fault = StuckAt(net.gates[0].name, 1)
            tracemalloc.start()
            try:
                bitmask = engine.bitmask
                with pytest.raises(ValueError, match="exhaustive ceiling"):
                    bitmask.baseline()
                with pytest.raises(ValueError, match="exhaustive ceiling"):
                    FaultSweep(net).response_bits(fault)
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, n_inputs
            # pointwise/sampled still serve
            point = tuple([0, 1] * (n_inputs // 2))
            assert engine.pointwise.output_values(point) is not None

    def test_fault_sweep_builds_lazily(self):
        net = self._wide_net()
        sweep = FaultSweep(net)  # previously touched .bitmask eagerly
        with pytest.raises(ValueError, match="exhaustive ceiling"):
            sweep.full

    def test_selection_never_picks_bitmask_wide(self):
        # Wide sweeps never take a whole table: every tile is TILE_PAIRS
        # pairs wide, and the first ones tile the lower half in order.
        for n in (26, 30, 40):
            bitmask = NetworkEngine(self._wide_net(n)).bitmask
            first = [bitmask.tile(0), bitmask.tile(1)]
            assert [tile._half for tile in first] == [backends.TILE_PAIRS] * 2
            # Input 17 is the lowest constant one: 0 then 1 on tile 0's
            # two ranges, 1 then 0 on tile 1's; the top input is 0 on
            # every lower range and 1 on every upper one.
            low = (1 << backends.TILE_PAIRS) - 1
            high = low << backends.TILE_PAIRS
            assert [tile._variables[17] for tile in first] == [high, low]
            assert [tile._variables[n - 1] for tile in first] == [high] * 2

    @pytest.mark.slow
    def test_26_input_sweep_runs_without_numpy(self, monkeypatch):
        """A 26-input exhaustive sweep (256 tiles) runs with NumPy
        unimportable, and its statuses equal the tiled cone reference."""
        import sys

        monkeypatch.setitem(sys.modules, "numpy", None)
        net = self._wide_net(26)
        sweep = FaultSweep(net, engine=NetworkEngine(net))
        universe = sweep.compiled.fault_universe()
        statuses = [s for _f, s in sweep.sweep(universe)]
        assert sweep.last_report.backend == "serial:bitmask"
        cone = [s for _f, s in sweep.sweep(universe, backend="vectorized")]
        assert sweep.last_report.backend == "serial:cone"
        assert statuses == cone
        assert "detected" in statuses


def test_entry_points_import_without_numpy():
    """Importing the package, its engine, CLI and server loads no NumPy:
    the exhaustive sweep is pure Python at every width."""
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, repro, repro.engine, repro.cli, repro.server\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestSweepDrivers:
    def test_parallel_sweep_matches_serial(self, circuit):
        if len(circuit.inputs) > EXHAUSTIVE_LIMIT:
            pytest.skip("word-parallel sweep only exercised on small seeds")
        sweep = FaultSweep(circuit)
        universe = sweep.single_fault_universe()
        serial = sweep.sweep(universe)
        parallel = sweep.sweep(universe, processes=2)
        assert serial == parallel
        assert sweep.last_report.backend.startswith("fork:")

    def test_fork_unavailable_falls_back_to_serial_block_backend(
        self, monkeypatch
    ):
        """Platforms without the fork start method must still serve
        parallel requests — on the serial path, with the step down
        recorded."""
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
        assert sweep.last_report.backend == "serial:bitmask"
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
        assert report.backend == f"serial:{report.block_backend}"

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
