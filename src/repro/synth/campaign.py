"""The supervised synthesis/repair campaign driver.

:class:`SynthCampaign` runs a deterministic generational loop: rank the
population by :class:`~repro.synth.fitness.FitnessRecord` score, keep an
elite, breed the rest by tournament selection with seeded
mutation/crossover, and charge every generation's *fresh* candidates as
one supervised batch in its own ``synth.batch`` span:
:func:`repro.engine.run_campaign` over the batch's task list with
:data:`~repro.synth.fitness.SYNTH_CHUNKS` — so synthesis inherits the
whole execution fabric (fork fan-out iff ``processes > 1``, retries
with splitting, dead-worker replacement) that fault campaigns already
have.

Determinism contract: a campaign is a pure function of
``(spec, seed, population, tunables)``.  All randomness flows through
one seeded :class:`random.Random`; candidate ranking breaks score ties
on the canonical genome JSON; fitness memoization is a pure cache
(re-evaluation is deterministic), so the per-generation checkpoint —
population, RNG state, best-so-far, history, Pareto archive, all behind
a config fingerprint — resumes to a byte-identical continuation.  The
generation cap and the budget are no part of that fingerprint, so a run
capped at 4 generations and resumed under a cap of 12 is the
uninterrupted 12-generation run; a :class:`~repro.engine.CancelToken`
is the one mid-run stop.

Flight events: ``synth.generation`` per generation, ``synth.improved``
when the best-so-far changes, one ``synth.report`` at the end; metrics
are the ``repro_synth_*`` family.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..engine import CancelToken, CheckpointError, run_campaign
from ..engine.durable import load_envelope, write_envelope
from ..logic.network import Network
from ..scal.costs import REYNOLDS_COST_FACTOR, network_cost
from .fitness import SYNTH_CHUNKS, FitnessRecord, make_task
from .genome import Genome
from .operators import crossover, mutate, random_genome
from .specs import SynthSpec, spec_from_network

_REG = obs.REGISTRY
_M_GENS = _REG.counter(
    "repro_synth_generations_total", "Synthesis generations completed"
)
_M_EVALS = _REG.counter(
    "repro_synth_evaluations_total",
    "Candidate fitness evaluations, by memo outcome",
)
_M_IMPROVED = _REG.counter(
    "repro_synth_improvements_total", "Best-so-far replacements"
)
_M_BEST = _REG.gauge(
    "repro_synth_best_score", "Best fitness score of the running campaign"
)
_M_CHECKPOINTS = _REG.counter(
    "repro_synth_checkpoint_writes_total", "Synthesis checkpoint flushes"
)


@dataclasses.dataclass
class SynthReport:
    """Structured result of one synthesis/repair campaign."""

    spec: str
    seed: int
    mode: str
    generations_run: int
    evaluations: int
    improvements: int
    converged: bool
    best_genome: str
    best_fingerprint: str
    best_generation: int
    best_record: FitnessRecord
    history: List[dict]
    pareto: List[dict]
    wall_seconds: float = 0.0
    batches: int = 0
    chunks: int = 0
    retries: int = 0
    degradations: int = 0
    workers_replaced: int = 0
    checkpoint_path: Optional[str] = None
    resumed_generation: int = 0
    cost_reference: Optional[float] = None

    @property
    def cost_factor(self) -> Optional[float]:
        """Winner area over the reference realization's area — the
        measured analogue of Reynolds' 1.8 conversion factor."""
        if self.cost_reference and self.best_record.ok:
            return self.best_record.cost / self.cost_reference
        return None

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["best_record"] = dataclasses.asdict(self.best_record)
        data["best_score"] = self.best_record.score
        data["best_perfect"] = self.best_record.perfect
        data["cost_factor"] = self.cost_factor
        return data

    def summary(self) -> str:
        best = self.best_record
        lines = [
            f"synth {self.mode} campaign: spec={self.spec} seed={self.seed}",
            f"  generations: {self.generations_run}"
            f" (resumed at {self.resumed_generation})"
            if self.resumed_generation
            else f"  generations: {self.generations_run}",
            f"  evaluations: {self.evaluations}"
            f"  improvements: {self.improvements}"
            f"  converged: {'yes' if self.converged else 'no'}",
            f"  best: score={best.score:.4f} perfect={best.perfect}"
            f" gen={self.best_generation} [{self.best_fingerprint[:12]}]",
            f"    hamming={best.spec_hamming} dual_defects={best.dual_defects}"
            f" dangerous={best.dangerous}/{best.faults}"
            f" detected={best.detected} silent={best.silent}",
            f"    gates={best.gates} gate_inputs={best.gate_inputs}"
            f" cost={best.cost:g}",
        ]
        if self.cost_reference is not None:
            factor = self.cost_factor
            lines.append(
                f"  cost model: reference={self.cost_reference:g}"
                + (
                    f" measured_factor={factor:.2f}"
                    f" (Reynolds general: {REYNOLDS_COST_FACTOR})"
                    if factor is not None
                    else ""
                )
            )
        if self.pareto:
            lines.append("  pareto front (cost vs coverage):")
            for entry in self.pareto:
                lines.append(
                    f"    cost={entry['cost']:g}"
                    f" coverage={entry['coverage']:.3f}"
                    f" gates={entry['gates']}"
                    f" dangerous={entry['dangerous']}"
                    f" [{entry['fingerprint'][:12]}]"
                )
        lines.append(
            f"  execution: batches={self.batches} chunks={self.chunks}"
            f" retries={self.retries} degradations={self.degradations}"
            f" wall={self.wall_seconds:.2f}s"
        )
        return "\n".join(lines)


def _pareto_insert(front: List[dict], entry: dict) -> List[dict]:
    """Insert into the (cost↓, coverage↑) nondominated archive."""
    for other in front:
        if other["genome"] == entry["genome"]:
            return front
        if (
            other["cost"] <= entry["cost"]
            and other["coverage"] >= entry["coverage"]
        ):
            return front  # dominated (or tied) by an incumbent
    kept = [
        other
        for other in front
        if not (
            entry["cost"] <= other["cost"]
            and entry["coverage"] >= other["coverage"]
        )
    ]
    kept.append(entry)
    kept.sort(key=lambda e: (e["cost"], -e["coverage"], e["genome"]))
    return kept


class SynthCampaign:
    """One population-based synthesis or repair search (module docstring
    has the determinism contract)."""

    #: Checkpoint envelope version (see :mod:`repro.engine.durable`).
    VERSION = 1

    def __init__(
        self,
        spec: SynthSpec,
        seed: int = 0,
        population: int = 16,
        generations: int = 40,
        budget: Optional[int] = None,
        max_gates: int = 24,
        elite: int = 2,
        tournament: int = 3,
        crossover_rate: float = 0.4,
        init_gates: Optional[int] = None,
        mode: str = "synth",
        seed_population: Optional[Sequence[Genome]] = None,
        host_network: Optional[Network] = None,
        cost_reference: Optional[float] = None,
        processes: Optional[int] = None,
        timeout: Optional[float] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        cancel: Optional[CancelToken] = None,
    ) -> None:
        if population < 2:
            raise ValueError("population must be at least 2")
        if not 0 < elite < population:
            raise ValueError("elite must be in (0, population)")
        if resume and checkpoint is None:
            raise CheckpointError("resume requires a checkpoint path")
        if budget is not None and budget < population:
            raise ValueError(
                "budget must cover at least one full generation "
                f"({population} evaluations)"
            )
        self.spec = spec
        self.seed = seed
        self.population_size = population
        self.generations = generations
        self.budget = budget
        self.max_gates = max_gates
        self.elite = elite
        self.tournament = tournament
        self.crossover_rate = crossover_rate
        self.init_gates = init_gates
        self.mode = mode
        self.seed_population = (
            tuple(seed_population) if seed_population else None
        )
        if cost_reference is None:
            # Anchor the Pareto/cost reporting to the Table 4.1 cost
            # model: the two-level Yamamoto reference realization (or
            # the repair host) is the denominator of cost_factor.
            cost_reference = network_cost(
                host_network
                if host_network is not None
                else spec.reference_network()
            )
        self.cost_reference = cost_reference
        self.processes = processes
        self.timeout = timeout
        self.checkpoint_path = checkpoint
        self.resume = resume
        self.cancel = cancel
        self._memo: Dict[str, FitnessRecord] = {}

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Campaign identity for checkpoint validation.  Execution knobs
        (processes/timeout) and the stop conditions
        (generations/budget) are excluded on purpose: they change how
        far or how fast the search runs, never what it computes."""
        payload = json.dumps(
            {
                "spec": self.spec.fingerprint(),
                "seed": self.seed,
                "population": self.population_size,
                "max_gates": self.max_gates,
                "elite": self.elite,
                "tournament": self.tournament,
                "crossover_rate": self.crossover_rate,
                "init_gates": self.init_gates,
                "mode": self.mode,
                "seeded": [
                    g.fingerprint() for g in (self.seed_population or ())
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    # ------------------------------------------------------------------
    # the generational loop
    # ------------------------------------------------------------------
    def run(self) -> SynthReport:
        watch = obs.Stopwatch()
        rng = random.Random(f"repro-synth:{self.seed}")
        state = self._initial_state(rng)
        population: List[Genome] = state["population"]
        generation: int = state["generation"]
        resumed_at = generation if self.resume else 0
        evaluations: int = state["evaluations"]
        improvements: int = state["improvements"]
        best: Optional[Tuple[Genome, FitnessRecord, int]] = state["best"]
        history: List[dict] = state["history"]
        pareto: List[dict] = state["pareto"]
        converged: bool = state["converged"]
        totals = {
            "batches": 0,
            "chunks": 0,
            "retries": 0,
            "degradations": 0,
            "workers_replaced": 0,
        }
        while (
            not converged
            and generation < self.generations
            and (
                self.budget is None
                or evaluations + len(population) <= self.budget
            )
        ):
            records, fresh = self._evaluate(population, totals)
            evaluations += len(population)
            ranked = sorted(
                zip(population, records),
                key=lambda pair: (-pair[1].score, pair[0].canonical()),
            )
            top_genome, top_record = ranked[0]
            if best is None or top_record.score > best[1].score:
                best = (top_genome, top_record, generation)
                improvements += 1
                _M_IMPROVED.inc()
                obs.event(
                    "synth.improved",
                    generation=generation,
                    score=top_record.score,
                    fingerprint=top_genome.fingerprint(),
                    gates=top_record.gates,
                    cost=top_record.cost,
                    spec_hamming=top_record.spec_hamming,
                    dual_defects=top_record.dual_defects,
                    dangerous=top_record.dangerous,
                )
            for genome, record in ranked:
                if record.ok and record.spec_hamming == 0 and record.dual_defects == 0:
                    pareto = _pareto_insert(
                        pareto,
                        {
                            "genome": genome.canonical(),
                            "fingerprint": genome.fingerprint(),
                            "cost": record.cost,
                            "coverage": record.coverage,
                            "gates": record.gates,
                            "dangerous": record.dangerous,
                            "generation": generation,
                        },
                    )
            mean_score = sum(r.score for r in records) / len(records)
            history.append(
                {
                    "generation": generation,
                    "best_score": best[1].score,
                    "best": best[0].fingerprint(),
                    "gen_best_score": top_record.score,
                    "mean_score": mean_score,
                    "evaluations": evaluations,
                    "pareto": len(pareto),
                }
            )
            obs.event(
                "synth.generation",
                generation=generation,
                best_score=best[1].score,
                gen_best_score=top_record.score,
                mean_score=mean_score,
                fresh=fresh,
                evaluations=evaluations,
                pareto=len(pareto),
            )
            _M_GENS.inc()
            if _REG.enabled:
                _M_BEST.set(best[1].score)
            generation += 1
            converged = best[1].perfect
            if not converged:
                population = self._breed(ranked, rng)
            if self.checkpoint_path is not None:
                self._save(
                    self._state_payload(
                        rng,
                        population,
                        generation,
                        evaluations,
                        improvements,
                        best,
                        history,
                        pareto,
                        converged,
                    )
                )

        if best is None:
            raise RuntimeError("campaign ended before any evaluation")
        report = SynthReport(
            spec=self.spec.name,
            seed=self.seed,
            mode=self.mode,
            generations_run=generation,
            evaluations=evaluations,
            improvements=improvements,
            converged=converged,
            best_genome=best[0].canonical(),
            best_fingerprint=best[0].fingerprint(),
            best_generation=best[2],
            best_record=best[1],
            history=history,
            pareto=[dict(entry) for entry in pareto],
            wall_seconds=watch.elapsed(),
            checkpoint_path=self.checkpoint_path,
            resumed_generation=resumed_at,
            cost_reference=self.cost_reference,
            **totals,
        )
        obs.event(
            "synth.report",
            spec=report.spec,
            seed=report.seed,
            mode=report.mode,
            generations=report.generations_run,
            evaluations=report.evaluations,
            improvements=report.improvements,
            best_score=report.best_record.score,
            best_fingerprint=report.best_fingerprint,
            converged=report.converged,
            pareto=len(report.pareto),
            wall_seconds=report.wall_seconds,
        )
        return report

    # ------------------------------------------------------------------
    # state plumbing
    # ------------------------------------------------------------------
    def _save(self, state: Dict[str, object]) -> None:
        """Checkpoint the full campaign state (atomic; a config
        fingerprint guards against resuming someone else's search)."""
        write_envelope(
            self.checkpoint_path, self.VERSION, self.fingerprint(), state
        )
        if _REG.enabled:
            _M_CHECKPOINTS.inc()

    def _initial_state(self, rng: random.Random) -> Dict[str, object]:
        if self.resume:
            data = load_envelope(
                self.checkpoint_path, self.VERSION, self.fingerprint()
            )
            rng.setstate(_rng_state_from_json(data["rng_state"]))
            best = None
            if data["best"] is not None:
                best = (
                    Genome.from_json(data["best"]["genome"]),
                    FitnessRecord.from_json(data["best"]["record"]),
                    int(data["best"]["generation"]),
                )
            return {
                "population": [
                    Genome.from_json(text) for text in data["population"]
                ],
                "generation": int(data["generation"]),
                "evaluations": int(data["evaluations"]),
                "improvements": int(data["improvements"]),
                "best": best,
                "history": list(data["history"]),
                "pareto": list(data["pareto"]),
                "converged": bool(data["converged"]),
            }
        if self.seed_population is not None:
            population = list(self.seed_population)
            while len(population) < self.population_size:
                population.append(
                    mutate(
                        population[rng.randrange(len(population))],
                        rng,
                        self.max_gates,
                    )
                )
            population = population[: self.population_size]
        else:
            n = self.spec.n_inputs
            n_outputs = len(self.spec.tables)
            population = [
                random_genome(
                    rng,
                    n,
                    self.init_gates
                    if self.init_gates is not None
                    else rng.randint(3, max(4, self.max_gates // 3)),
                    n_outputs,
                )
                for _ in range(self.population_size)
            ]
        return {
            "population": population,
            "generation": 0,
            "evaluations": 0,
            "improvements": 0,
            "best": None,
            "history": [],
            "pareto": [],
            "converged": False,
        }

    def _state_payload(
        self,
        rng: random.Random,
        population: List[Genome],
        generation: int,
        evaluations: int,
        improvements: int,
        best: Optional[Tuple[Genome, FitnessRecord, int]],
        history: List[dict],
        pareto: List[dict],
        converged: bool,
    ) -> Dict[str, object]:
        return {
            "spec": self.spec.name,
            "seed": self.seed,
            "generation": generation,
            "evaluations": evaluations,
            "improvements": improvements,
            "rng_state": _rng_state_to_json(rng.getstate()),
            "population": [g.canonical() for g in population],
            "best": (
                {
                    "genome": best[0].canonical(),
                    "record": best[1].to_json(),
                    "generation": best[2],
                }
                if best is not None
                else None
            ),
            "history": history,
            "pareto": pareto,
            "converged": converged,
        }

    # ------------------------------------------------------------------
    # evaluation and breeding
    # ------------------------------------------------------------------
    def _evaluate(
        self,
        population: Sequence[Genome],
        totals: Dict[str, int],
    ) -> Tuple[List[FitnessRecord], int]:
        records: List[Optional[FitnessRecord]] = [None] * len(population)
        tasks = []
        fresh_index = []
        for i, genome in enumerate(population):
            cached = self._memo.get(genome.canonical())
            if cached is not None:
                records[i] = cached
            else:
                tasks.append(make_task(genome, self.spec))
                fresh_index.append(i)
        if tasks:
            with obs.span(
                "synth.batch", candidates=len(tasks),
                processes=self.processes or 0,
            ):
                payloads, batch_report = run_campaign(
                    tasks,
                    len(tasks),
                    SYNTH_CHUNKS,
                    processes=self.processes,
                    timeout=self.timeout,
                    cancel=self.cancel,
                )
            for i, payload in zip(fresh_index, payloads):
                record = FitnessRecord.from_json(payload)
                records[i] = record
                self._memo[population[i].canonical()] = record
            totals["batches"] += 1
            totals["chunks"] += batch_report.chunks_completed
            totals["retries"] += len(batch_report.retries)
            totals["degradations"] += len(batch_report.degradations)
            totals["workers_replaced"] += batch_report.workers_replaced
        if _REG.enabled:
            if tasks:
                _M_EVALS.inc(len(tasks), outcome="fresh")
            memo_hits = len(population) - len(tasks)
            if memo_hits:
                _M_EVALS.inc(memo_hits, outcome="memo")
        return [r for r in records if r is not None], len(tasks)

    def _breed(
        self,
        ranked: List[Tuple[Genome, FitnessRecord]],
        rng: random.Random,
    ) -> List[Genome]:
        next_population = [genome for genome, _ in ranked[: self.elite]]

        def pick() -> Genome:
            contenders = [
                rng.randrange(len(ranked)) for _ in range(self.tournament)
            ]
            return ranked[min(contenders)][0]

        while len(next_population) < self.population_size:
            if rng.random() < self.crossover_rate:
                child = crossover(pick(), pick(), rng)
                child = mutate(child, rng, self.max_gates)
            else:
                child = mutate(pick(), rng, self.max_gates)
            next_population.append(child)
        return next_population


def _rng_state_to_json(state) -> list:
    return [state[0], list(state[1]), state[2]]


def _rng_state_from_json(data) -> tuple:
    return (data[0], tuple(data[1]), data[2])


# ----------------------------------------------------------------------
# repair mode
# ----------------------------------------------------------------------
def damage_network(
    network: Network, seed: int, damage: int, max_gates: Optional[int] = None
) -> Genome:
    """Apply ``damage`` seeded mutations to a network's genome — the
    injected-fault half of the repair drill."""
    genome = Genome.from_network(network)
    rng = random.Random(f"repro-synth-damage:{seed}")
    limit = max_gates if max_gates is not None else len(genome.gates) + 4
    for _ in range(damage):
        genome = mutate(genome, rng, limit)
    return genome


def repair_campaign(
    network: Network,
    seed: int = 0,
    damage: int = 3,
    **kwargs,
) -> SynthCampaign:
    """Build a repair-mode campaign: derive the spec from the pristine
    network, damage it with ``damage`` seeded mutations, and seed the
    population from the damaged genome.  The pristine area anchors the
    cost comparison."""
    spec = spec_from_network(network)
    damaged = damage_network(
        network, seed, damage, kwargs.get("max_gates")
    )
    kwargs.setdefault("cost_reference", network_cost(network))
    return SynthCampaign(
        spec,
        seed=seed,
        mode="repair",
        seed_population=[damaged],
        host_network=network,
        **kwargs,
    )
