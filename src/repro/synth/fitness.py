"""Candidate fitness: exhaustive alternation sweeps + fault coverage.

A candidate's fitness has four graded components, each derived from the
same machinery the verification paths use (so the search optimizes the
real acceptance criteria, not a proxy):

* **correctness** — Hamming distance between the candidate's exhaustive
  output tables and the spec's (Algorithm 3.1's functional half);
* **self-duality** — the number of points where ``F(X̄) ≠ ¬F(X)``
  (:func:`repro.logic.truthtable.reverse_bits` over the same tables);
* **coverage** — the collapsed stuck-at universe swept through
  :meth:`repro.engine.campaign.FaultItems.all_statuses` (the big-int
  stem-region sweep, ``bitmask``), in the manner of an
  exhaustive-fault-simulation fitness; ``dangerous`` faults (wrong
  *and* still alternating) are the self-checking violations the search
  minimizes;
* **area** — :func:`repro.scal.costs.network_cost` under the Table 4.1
  unit model, a small pressure toward the Pareto front's cheap end.

The module exposes two evaluators with byte-identical records: the
**batched** path (big-int tables + the exhaustive stem-region sweep —
what campaigns use) and the **scalar** path (one point at a time: a
fault-free pass, then each fault's cone — the bench baseline that
prices the batching).

:data:`SYNTH_CHUNKS` (named ``synth``) makes scoring a chunk kind of
its own for :func:`repro.engine.run_campaign`: the host is the batch's
task list, and its evaluate function, :func:`evaluate_chunk`, scores
one index range of it and ships back one JSON record per task (fork
workers inherit the list, so no task crosses the pipe).  Every
per-candidate exception is captured *inside* the record (an invalid
candidate is a normal low-fitness outcome, not a chunk failure for the
supervisor to retry).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Sequence, Tuple

from .. import obs
from ..core.collapse import sorted_stem_universe
from ..engine.backends import (
    NetworkEngine,
    classify_status,
    run_ops,
    table_normals,
    table_response,
)
from ..engine.campaign import CHUNK_FAULTS, FaultItems
from ..engine.supervisor import ChunkKind
from ..logic.truthtable import reverse_bits
from ..scal.costs import network_cost
from .genome import Genome
from .specs import SynthSpec


def _popcount(bits: int) -> int:
    return bin(bits).count("1")


@dataclasses.dataclass(frozen=True)
class FitnessRecord:
    """One candidate's full scorecard (JSON-round-trippable)."""

    ok: bool
    error: str = ""
    spec_hamming: int = 0
    dual_defects: int = 0
    points: int = 0
    n_outputs: int = 0
    faults: int = 0
    dangerous: int = 0
    detected: int = 0
    silent: int = 0
    gates: int = 0
    gate_inputs: int = 0
    cost: float = 0.0
    backend: str = ""

    @property
    def perfect(self) -> bool:
        """Functionally correct, self-dual, and self-checking."""
        return (
            self.ok
            and self.spec_hamming == 0
            and self.dual_defects == 0
            and self.dangerous == 0
        )

    @property
    def coverage(self) -> float:
        """Fraction of the collapsed universe that is *not* a
        self-checking violation."""
        if self.faults <= 0:
            return 1.0 if self.ok else 0.0
        return 1.0 - self.dangerous / self.faults

    @property
    def score(self) -> float:
        """Scalar rank: correctness and coverage dominate, duality and
        detection shape the slope, area breaks ties toward small
        networks.  Invalid candidates pin to ``-1.0``."""
        if not self.ok:
            return -1.0
        cells = self.points * self.n_outputs
        correctness = 1.0 - self.spec_hamming / cells
        duality = 1.0 - self.dual_defects / cells
        detection = self.detected / self.faults if self.faults else 0.0
        return (
            3.0 * correctness
            + 1.0 * duality
            + 2.0 * self.coverage
            + 0.5 * detection
            - 0.001 * self.cost
        )

    def to_json(self) -> str:
        return json.dumps(
            dataclasses.asdict(self), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json(cls, text: str) -> "FitnessRecord":
        return cls(**json.loads(text))


def make_task(
    genome: Genome, spec: SynthSpec, mode: str = "batched"
) -> Dict[str, object]:
    """The pickle-safe (plain-JSON) evaluation task for one candidate."""
    return {
        "genome": genome.canonical(),
        "input_names": list(spec.input_names),
        "tables": list(spec.tables),
        "mode": mode,
    }


def _scalar_tables(
    engine: NetworkEngine, universe: Sequence
) -> List[Tuple[int, ...]]:
    """Exhaustive output tables of the fault-free net, then of each fault,
    assembled one point at a time — the deliberately unbatched baseline:
    per point one fault-free pass, then each fault's cone on a copy."""
    comp = engine.compiled
    plans = [comp.fault_plan(comp.fault_ids(fault)) for fault in universe]
    tables = [[0] * len(comp.out_idx) for _ in range(len(plans) + 1)]
    for p in range(1 << comp.n_inputs):
        base = engine.pointwise.line_values(engine.pointwise.point_tuple(p))
        runs = [base] + [
            run_ops(comp, list(base), 1, plan.ops, plan.forcing)
            for plan in plans
        ]
        for outs, values in zip(tables, runs):
            for k, idx in enumerate(comp.out_idx):
                if values[idx]:
                    outs[k] |= 1 << p
    return [tuple(outs) for outs in tables]


def _scalar_statuses(
    engine: NetworkEngine, universe: Sequence
) -> Tuple[Tuple[int, ...], List[str]]:
    """Per-fault scalar classification through
    :func:`~repro.engine.backends.table_response`, the reference every
    rung's classification is byte-identical to."""
    n = engine.compiled.n_inputs
    good, *faulty = _scalar_tables(engine, universe)
    normals = table_normals(good, n)
    statuses = [
        classify_status(*table_response(normals, tables, n)[1:])
        for tables in faulty
    ]
    return normals[0], statuses


def evaluate_task(task: Dict[str, object]) -> FitnessRecord:
    """Score one candidate; exceptions become ``ok=False`` records."""
    try:
        genome = Genome.from_json(str(task["genome"]))
        input_names = tuple(str(x) for x in task["input_names"])
        spec_tables = tuple(int(t) for t in task["tables"])
        mode = str(task.get("mode", "batched"))
        if len(spec_tables) != len(genome.outputs):
            raise ValueError(
                f"genome has {len(genome.outputs)} outputs, "
                f"spec has {len(spec_tables)}"
            )
        network = genome.to_network(input_names)
        engine = NetworkEngine(network)
        n = genome.n_inputs
        points = 1 << n
        full = (1 << points) - 1
        universe = sorted_stem_universe(network)
        if mode == "scalar":
            bits, statuses = _scalar_statuses(engine, universe)
            backend = "scalar"
        else:
            bits = engine.bitmask.output_bits(None)
            backend = "bitmask"
            statuses = FaultItems(network, engine, universe).all_statuses()
        spec_hamming = sum(
            _popcount((b ^ t) & full) for b, t in zip(bits, spec_tables)
        )
        dual_defects = sum(
            _popcount(~(b ^ reverse_bits(b, n)) & full) for b in bits
        )
        return FitnessRecord(
            ok=True,
            spec_hamming=spec_hamming,
            dual_defects=dual_defects,
            points=points,
            n_outputs=len(spec_tables),
            faults=len(universe),
            dangerous=statuses.count("dangerous"),
            detected=statuses.count("detected"),
            silent=statuses.count("silent"),
            gates=network.gate_count(include_buffers=False),
            gate_inputs=network.gate_input_count(),
            cost=network_cost(network),
            backend=backend,
        )
    except Exception as error:
        return FitnessRecord(
            ok=False, error=f"{type(error).__name__}: {error}"
        )


def evaluate_chunk(
    tasks: Sequence[Dict[str, object]], start: int, stop: int
) -> List[str]:
    """Score tasks ``start:stop``: one JSON record per task, in order,
    with per-candidate failures folded into the records."""
    with obs.span("sweep.chunk", faults=stop - start, backend="synth"):
        payloads = [
            evaluate_task(task).to_json() for task in tasks[start:stop]
        ]
    if obs.REGISTRY.enabled:
        CHUNK_FAULTS.inc(stop - start, backend="synth")
    return payloads


#: Candidate scoring: the host is a batch's task list, which fork workers
#: inherit as it is (each candidate compiles its own engine).  The
#: campaign opens each batch's ``synth.batch`` span and checkpoints whole
#: generations itself, so batches carry no checkpoint.
SYNTH_CHUNKS = ChunkKind(
    name="synth", evaluate=evaluate_chunk, worker_host=lambda tasks: tasks
)
