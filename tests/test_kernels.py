"""The codegen kernel tier (repro.engine.kernels).

Every test here is a differential check against the scalar classifier:
the kernel tier re-derives the SCAL pair classification from generated
straight-line source (folded constants, dead-line elimination, fused
seeds), so nothing short of byte-identical statuses counts as passing.
Covers the exec'd-NumPy kernels, single-threaded and tiled/threaded
word axes, and the kernel cache against the content-addressed store.
"""

import random

import pytest

from repro.engine import (
    FaultSweep,
    KERNEL_MAX_INPUTS,
    NetworkEngine,
    engine_for,
    select_backend,
)
from repro.engine.store import STORE
from repro.engine.vectorized import (
    HAVE_NUMPY,
    chunk_pattern_bits,
    chunk_statuses,
)
from repro.logic.faults import PinStuckAt, StuckAt
from repro.logic.gates import GateKind
from repro.logic.network import Gate, Network
from repro.workloads.fig34 import fig34_network
from repro.workloads.randomlogic import random_mixed_network

from .test_engine import SEED_CIRCUITS

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the kernel tier needs NumPy"
)

if HAVE_NUMPY:
    from repro.engine.kernels import KernelBackend


def scalar_statuses(engine, universe):
    return engine.bitmask.sweep_statuses(universe)


@pytest.fixture(params=sorted(SEED_CIRCUITS))
def seed_circuit(request):
    return SEED_CIRCUITS[request.param]()


@pytest.fixture
def mixed9():
    return random_mixed_network(
        random.Random(0xBEEF), n_inputs=9, n_gates=90, n_outputs=5
    )


class TestKernelEquivalence:
    def test_seed_circuits_byte_identical(self, seed_circuit):
        eng = engine_for(seed_circuit)
        universe = FaultSweep(
            seed_circuit, engine=eng
        ).single_fault_universe()
        kern = KernelBackend(eng.compiled, vectorized=eng.vectorized)
        assert kern.sweep_statuses(universe) == scalar_statuses(
            eng, universe
        )

    def test_random_mixed_all_block_sizes(self, mixed9):
        eng = engine_for(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        reference = scalar_statuses(eng, universe)
        for block_faults in (1, 7, 16, len(universe)):
            kern = KernelBackend(
                eng.compiled,
                vectorized=eng.vectorized,
                block_faults=block_faults,
            )
            assert kern.sweep_statuses(universe) == reference, block_faults

    def test_tiled_word_axis_threads_1_and_n(self, mixed9):
        """tile_words=1 forces real tiles (9 inputs = 8 words, a 4-word
        half = 4 tiles); the threaded and serial paths must agree with
        each other and with the scalar classifier."""
        eng = engine_for(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        reference = scalar_statuses(eng, universe)
        for threads in (1, 4):
            kern = KernelBackend(
                eng.compiled,
                vectorized=eng.vectorized,
                tile_words=1,
                threads=threads,
            )
            assert len(kern._tiles) == 4
            assert kern.sweep_statuses(universe) == reference, threads

    def test_repeat_sweep_hits_prepared_blocks(self, mixed9):
        eng = engine_for(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        kern = KernelBackend(eng.compiled, vectorized=eng.vectorized)
        first = kern.sweep_statuses(universe)
        stats = kern.cache_stats()
        assert kern.sweep_statuses(universe) == first
        # steady state: no new kernels, no new prepared blocks
        assert kern.cache_stats() == stats

    def test_dead_cone_fault_is_const_kernel(self):
        """A fault that cannot reach any output compiles to a const
        kernel (no generated function at all) and still classifies
        exactly as the scalar path does."""
        net = Network(
            ["a", "b"],
            [
                Gate("dead", GateKind.AND, ("a", "b")),
                Gate("out", GateKind.XOR, ("a", "b")),
            ],
            ["out"],
        )
        eng = engine_for(net)
        fault = StuckAt("dead", 1)
        kern = KernelBackend(eng.compiled, vectorized=eng.vectorized)
        assert kern.sweep_statuses([fault]) == scalar_statuses(eng, [fault])
        (kobj,) = kern._kernels.values()
        assert kobj.const_status is not None
        assert kobj.fn is None

    def test_constant_folding_collapses_const_cones(self):
        """CONST-fed gates fold at generation time: the AND(const0, x)
        cone disappears from the generated body."""
        net = Network(
            ["a", "b"],
            [
                Gate("z", GateKind.CONST0, ()),
                Gate("g1", GateKind.AND, ("z", "a")),
                Gate("g2", GateKind.OR, ("g1", "b")),
                Gate("out", GateKind.XOR, ("g2", "a")),
            ],
            ["out"],
        )
        eng = engine_for(net)
        universe = FaultSweep(net, engine=eng).single_fault_universe()
        kern = KernelBackend(eng.compiled, vectorized=eng.vectorized)
        assert kern.sweep_statuses(universe) == scalar_statuses(
            eng, universe
        )
        # Under a fault on `a`, g1 = AND(const0, a) folds to 0 and
        # g2 = OR(0, b) folds through to b: only the forced line and
        # the output op survive in the generated body.
        kern_a = KernelBackend(eng.compiled, vectorized=eng.vectorized)
        kern_a.sweep_statuses([StuckAt("a", 1)])
        (kobj,) = kern_a._kernels.values()
        assert kobj.n_ops <= 3
        # line indices: a=0 b=1 z=2 g1=3 g2=4 out=5 — the folded AND
        # (g1) must not appear anywhere in the generated body.
        assert "v3" not in kobj.source
        # A fault *on the constant itself* must override the fold: z
        # stuck-at-1 flips g1 to a, and the statuses still match.
        kern_z = KernelBackend(eng.compiled, vectorized=eng.vectorized)
        assert kern_z.sweep_statuses(
            [StuckAt("z", 1)]
        ) == scalar_statuses(eng, [StuckAt("z", 1)])


class TestThresholdFaultRows:
    """A stuck operand can leave every carry of the MAJ/MIN bit-sliced
    counter all-zero; the packed result must keep the fault-row axis
    instead of collapsing to one scalar word."""

    @pytest.mark.parametrize("kind", [GateKind.MAJ, GateKind.MIN])
    def test_three_input_threshold_on_kernel(self, kind):
        net = Network(
            ["x0", "x1", "x2"],
            [Gate("m", kind, ("x0", "x1", "x2"))],
            ["m"],
            name=f"{kind.value}3",
        )
        universe = [
            StuckAt(line, value) for line in net.lines() for value in (0, 1)
        ] + [
            PinStuckAt("m", pin, value) for pin in range(3) for value in (0, 1)
        ]
        eng = NetworkEngine(net)
        reference = scalar_statuses(eng, universe)
        kern = KernelBackend(
            eng.compiled, vectorized=eng.vectorized, block_faults=1
        )
        assert kern.sweep_statuses(universe) == reference
        sweep = FaultSweep(net, engine=NetworkEngine(net))
        result = sweep.sweep(universe, backend="kernel")
        assert [s for _, s in result] == reference
        assert sweep.last_sweep_backend == "kernel"

    @pytest.mark.parametrize("kind", [GateKind.MAJ, GateKind.MIN])
    def test_pattern_rows_on_vectorized(self, kind):
        """All-zero patterns zero every operand of every fault row."""
        net = Network(
            ["x0", "x1", "x2"],
            [Gate("m", kind, ("x0", "x1", "x2"))],
            ["m"],
            name=f"{kind.value}3",
        )
        eng = NetworkEngine(net)
        faults = [StuckAt("x0", 0), PinStuckAt("m", 1, 0)]
        assert chunk_pattern_bits(
            eng, [0, 0], faults, "vectorized"
        ) == chunk_pattern_bits(eng, [0, 0], faults, "bitmask")


class TestKernelCeilingAndSelection:
    def test_too_wide_raises_value_error(self):
        net = random_mixed_network(
            random.Random(1),
            n_inputs=KERNEL_MAX_INPUTS + 1,
            n_gates=30,
            n_outputs=2,
        )
        eng = engine_for(net)
        with pytest.raises(ValueError, match="kernel backend supports"):
            KernelBackend(eng.compiled)
        assert eng.kernel is None

    def test_engine_kernel_property_lazy_and_shared(self, mixed9):
        eng = NetworkEngine(mixed9)
        assert eng._kernel is None
        kern = eng.kernel
        assert kern is not None and eng.kernel is kern

    def test_chunk_statuses_kernel_rung(self, mixed9):
        eng = engine_for(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        assert chunk_statuses(eng, universe, "kernel") == scalar_statuses(
            eng, universe
        )

    def test_chunk_statuses_degrades_without_kernel(self, mixed9):
        """A resolved "kernel" chunk lands on vectorized/bitmask when
        the engine cannot build the tier (worker-side degradation)."""

        class NoKernelEngine(NetworkEngine):
            @property
            def kernel(self):
                return None

        eng = NoKernelEngine(mixed9)
        universe = FaultSweep(mixed9, engine=eng).single_fault_universe()
        assert chunk_statuses(eng, universe, "kernel") == scalar_statuses(
            eng, universe
        )

    def test_fault_sweep_kernel_backend_reported(self, mixed9):
        sweep = FaultSweep(mixed9)
        universe = sweep.single_fault_universe()
        result = sweep.sweep(universe, backend="kernel")
        assert [s for _, s in result] == scalar_statuses(
            sweep.engine, universe
        )
        assert sweep.last_report.block_backend == "kernel"

    def test_auto_never_picks_kernel_beyond_ceiling(self):
        for n in range(KERNEL_MAX_INPUTS + 1, KERNEL_MAX_INPUTS + 6):
            assert select_backend(n, 500, numpy_available=True) != "kernel"


class TestKernelStoreCache:
    def test_store_hit_across_backends_of_same_program(self, monkeypatch):
        net = fig34_network()
        eng = engine_for(net)
        universe = FaultSweep(net, engine=eng).single_fault_universe()
        monkeypatch.setattr(STORE, "enabled", True)
        STORE.clear()
        try:
            first = KernelBackend(eng.compiled, vectorized=eng.vectorized)
            reference = first.sweep_statuses(universe)
            compiled_count = len(first._kernels)
            assert compiled_count > 0
            stored = sum(
                1 for key in STORE._entries if key[0] == "kernel"
            )
            assert stored == compiled_count
            hits_before = STORE.hits
            second = KernelBackend(eng.compiled, vectorized=eng.vectorized)
            assert second.sweep_statuses(universe) == reference
            # every kernel came from the store, none were regenerated
            assert STORE.hits - hits_before >= compiled_count
            assert len(second._kernels) == compiled_count
        finally:
            STORE.clear()

    def test_different_program_never_shares_kernels(self, monkeypatch):
        """The digest is keyed by program fingerprint: a different
        network of the same shape misses and compiles its own set."""
        net_a = random_mixed_network(
            random.Random(10), n_inputs=5, n_gates=20, n_outputs=2
        )
        net_b = random_mixed_network(
            random.Random(11), n_inputs=5, n_gates=20, n_outputs=2
        )
        eng_a, eng_b = engine_for(net_a), engine_for(net_b)
        monkeypatch.setattr(STORE, "enabled", True)
        STORE.clear()
        try:
            ka = KernelBackend(eng_a.compiled, vectorized=eng_a.vectorized)
            ka.sweep_statuses(
                FaultSweep(net_a, engine=eng_a).single_fault_universe()
            )
            misses_before = STORE.misses
            kb = KernelBackend(eng_b.compiled, vectorized=eng_b.vectorized)
            universe_b = FaultSweep(
                net_b, engine=eng_b
            ).single_fault_universe()
            assert kb.sweep_statuses(universe_b) == scalar_statuses(
                eng_b, universe_b
            )
            assert STORE.misses > misses_before
        finally:
            STORE.clear()

    def test_disabled_store_stays_in_memory(self):
        net = fig34_network()
        eng = engine_for(net)
        universe = FaultSweep(net, engine=eng).single_fault_universe()
        assert not STORE.enabled
        kern = KernelBackend(eng.compiled, vectorized=eng.vectorized)
        kern.sweep_statuses(universe)
        assert not any(key[0] == "kernel" for key in STORE._entries)
        assert kern.cache_stats()["kernels"] > 0
