"""The four benchmark workloads and their per-operation layer split.

Every workload repeats one *operation* — a complete fault campaign a
user would ask for — on inputs generated from ``(seed, index)``, so the
same seed always yields the same inputs.  Every timed run gets freshly
generated objects, so the engine's per-network caches start cold, as
they do for a user's fresh netlist.  Each operation is split into the
same three layers, so every workload reports every per-layer metric:

* ``build``    — from the input to an executable program: compiling the
  netlist (or realizing a state machine as SCAL circuits) and deriving
  its fault universe; for a served request, HTTP admission up to the
  ``accepted`` line;
* ``simulate`` — the fault simulation itself: the engine's
  ``sweep.chunk`` / ``atpg.chunk`` spans in-process, the clocked fault
  runs of a sequential campaign, or the served campaign's own wall time;
* ``other``    — the rest of the operation: supervisor bookkeeping,
  PODEM search and compaction, queueing and NDJSON streaming.
"""

from __future__ import annotations

import contextlib
import random
import time
from typing import Dict, Iterator, List

from repro.core.collapse import collapsed_single_faults
from repro.engine import FaultSweep, NetworkEngine, run_atpg
from repro.logic.faults import StuckAt
from repro.scal.codeconv import to_code_conversion
from repro.scal.dualff import to_dual_flipflop
from repro.scal.verify import codeconv_campaign, dualff_campaign, random_vectors
from repro.workloads.randomlogic import (
    random_array_network,
    random_machine,
    random_mixed_network,
)

# Input shapes.  Each is sized so one operation takes roughly 0.03-0.3 s
# on one core: long enough that the engine dominates Python overhead,
# short enough that a run holds dozens of operations and its median is
# steady from seed to seed.
SWEEP_INPUTS, SWEEP_GATES, SWEEP_OUTPUTS = 14, 120, 16
ATPG_STAGES = 6  # 13 inputs, ~90 collapsed faults
SEQ_STATES, SEQ_VECTORS = 6, 12
SERVE_INPUTS, SERVE_GATES, SERVE_OUTPUTS = 13, 160, 8

#: Timed passes over a run's inputs; an operation's time is its fastest.
PASSES = 3

#: Every CHECK_EVERY-th operation, up to CHECK_OPS of them, has its
#: outputs re-derived through an independent path after the timed loop.
#: Keeping only those results bounds the live heap, so garbage
#: collection costs no more late in a run than early.
CHECK_EVERY = 8
CHECK_OPS = 8
CHECK_FAULTS = 12


class Layers:
    """Per-operation layer clock: ``with layers("build"): ...``."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed


def _rng(seed: int, index: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}:{index}")


def mixed_network(seed: int, index: int, n_inputs: int, gates: int, outputs: int):
    return random_mixed_network(
        _rng(seed, index, "mixed"), n_inputs, gates, n_outputs=outputs,
        name=f"mixed_{seed}_{index}",
    )


def vectorized_statuses(network, universe) -> List[str]:
    """Statuses from the plain vectorized backend on a fresh engine.

    Auto-selection puts 13-20-input campaigns on the codegen'd kernel
    tier, so this path shares no evaluation code with the one measured.
    """
    sweep = FaultSweep(network, engine=NetworkEngine(network))
    return [status for _f, status in sweep.sweep(universe, backend="vectorized")]


class SweepWide:
    """Cold single-fault campaign on a fresh 14-input mixed-gate net."""

    name = "sweep-wide"
    span = "sweep.chunk"
    #: Operations per second of ``--seconds`` on a 2-core x86 container
    #: (all passes included); sets how many inputs a run takes.
    rate = 3.5

    def make(self, seed: int, index: int):
        return mixed_network(seed, index, SWEEP_INPUTS, SWEEP_GATES, SWEEP_OUTPUTS)

    def run(self, network, layers: Layers):
        with layers("build"):
            engine = NetworkEngine(network)
            universe = list(collapsed_single_faults(network))
        sweep = FaultSweep(network, engine=engine)
        statuses = [status for _f, status in sweep.sweep(universe)]
        return {"faults": len(universe), "universe": universe,
                "statuses": statuses}

    def check(self, network, result, index: int) -> bool:
        return result["statuses"] == vectorized_statuses(
            network, result["universe"]
        )


class AtpgWide:
    """Fault-dropping PODEM over a fresh 13-input iterative logic array."""

    name = "atpg-wide"
    span = "atpg.chunk"
    rate = 7.0

    def make(self, seed: int, index: int):
        return random_array_network(
            _rng(seed, index, "array"), ATPG_STAGES,
            name=f"array_{seed}_{index}",
        )

    def run(self, network, layers: Layers):
        with layers("build"):
            engine = NetworkEngine(network)
        report = run_atpg(network, engine=engine, seed=0)
        return {"faults": report.requested, "report": report}

    def check(self, network, result, index: int) -> bool:
        report = result["report"]
        if report.aborted or (
            report.detected + report.redundant != report.requested
        ):
            return False
        # Every detected fault must really flip an output under the kept
        # pattern credited with it (pointwise, one point at a time), and
        # every redundant fault must leave the whole truth table intact.
        engine = NetworkEngine(network)
        faults = {
            f.describe(): f
            for f in (
                StuckAt(line, v) for line in network.lines() for v in (0, 1)
            )
        }
        n = engine.compiled.n_inputs
        rng = random.Random(index)
        detected = sorted(report.detected_by)
        for name in rng.sample(detected, min(CHECK_FAULTS, len(detected))):
            pattern = report.patterns[report.detected_by[name]]
            point = tuple((pattern >> i) & 1 for i in range(n))
            if engine.pointwise.output_values(point, faults[name]) == (
                engine.pointwise.output_values(point)
            ):
                return False
        normal = engine.bitmask.output_bits()
        for name, status in report.classifications.items():
            if status == "redundant":
                if engine.bitmask.output_bits(faults[name]) != normal:
                    return False
        return True


class SeqScal:
    """Both SCAL realizations of a fresh 6-state machine, each driven
    through a full single-fault clocked campaign."""

    name = "seq-scal"
    span = None
    rate = 4.5

    def make(self, seed: int, index: int):
        rng = _rng(seed, index, "machine")
        machine = random_machine(
            rng, SEQ_STATES, name=f"machine_{seed}_{index}"
        )
        return machine, random_vectors(
            machine, SEQ_VECTORS, seed=rng.getrandbits(32)
        )

    def run(self, inputs, layers: Layers):
        machine, vectors = inputs
        with layers("build"):
            dualff = to_dual_flipflop(machine)
            codeconv = to_code_conversion(machine)
        with layers("simulate"):
            results = (
                dualff_campaign(dualff, vectors),
                codeconv_campaign(codeconv, vectors),
            )
        faults = sum(r.total for r in results)
        return {
            "faults": faults,
            # Every fault drives the whole stream: two periods per vector.
            "sim_calls": faults * 2 * len(vectors),
            "results": results,
            "machines": (dualff, codeconv),
        }

    def check(self, inputs, result, index: int) -> bool:
        machine, vectors = inputs
        reference = machine.run(list(vectors))
        for scal in result["machines"]:
            run = scal.run(vectors)
            if run.detected or scal.decoded_outputs(run) != reference:
                return False
        # Both realizations are fault-secure (Thms 4.1-4.4): no single
        # fault may produce a wrong output without breaking alternation.
        return all(r.dangerous == 0 for r in result["results"])


IN_PROCESS = {w.name: w for w in (SweepWide(), AtpgWide(), SeqScal())}
