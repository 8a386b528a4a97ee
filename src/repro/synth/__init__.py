"""Search-based SCAL synthesis/repair campaigns.

The subsystem that turns the engine from an analyzer into a designer:
a population-based stochastic search (per Garvie & Husbands' TSC
synthesis) evolving gate networks toward functional correctness,
self-duality, and self-checking, with every generation's candidates
charged as one supervised batch against the word-axis execution
backends, a chunk kind of the campaign runtime of its own.

Layers:

* :mod:`repro.synth.genome` — the flat, acyclic-by-construction gate
  list representation with a canonical JSON identity;
* :mod:`repro.synth.operators` — seeded mutation/crossover moves
  (including the dual-pair-preserving swap);
* :mod:`repro.synth.specs` — seed-circuit targets (self-dualized small
  functions plus natively self-dual ones) and repair-mode spec
  derivation;
* :mod:`repro.synth.fitness` — the batched and scalar evaluators with
  byte-identical records, and the
  :data:`~repro.synth.fitness.SYNTH_CHUNKS` chunk kind;
* :mod:`repro.synth.campaign` — the deterministic generational driver
  with checkpoint/resume, flight events, metrics, and the
  area-vs-coverage Pareto report.
"""

from .campaign import (
    SynthCampaign,
    SynthReport,
    damage_network,
    repair_campaign,
)
from .fitness import FitnessRecord, evaluate_chunk, evaluate_task, make_task
from .genome import Genome, GenomeError
from .operators import crossover, mutate, random_genome
from .specs import SPECS, SynthSpec, spec_from_network

__all__ = [
    "FitnessRecord",
    "Genome",
    "GenomeError",
    "SPECS",
    "SynthCampaign",
    "SynthReport",
    "SynthSpec",
    "crossover",
    "damage_network",
    "evaluate_chunk",
    "evaluate_task",
    "make_task",
    "mutate",
    "random_genome",
    "repair_campaign",
    "spec_from_network",
]
