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

from .._lazy import lazy_exports

_EXPORTS = {
    "FitnessRecord": "fitness",
    "Genome": "genome",
    "GenomeError": "genome",
    "MIN_POPULATION": "campaign",
    "SPECS": "specs",
    "SynthCampaign": "campaign",
    "SynthReport": "campaign",
    "SynthSpec": "specs",
    "crossover": "operators",
    "damage_network": "campaign",
    "evaluate_chunk": "fitness",
    "evaluate_task": "fitness",
    "make_task": "fitness",
    "mutate": "operators",
    "random_genome": "operators",
    "repair_campaign": "campaign",
    "spec_from_network": "specs",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
