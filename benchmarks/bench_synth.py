"""Synthesis fitness throughput and fixed-seed search regression gate.

Two claims land in ``BENCH_synth.json``:

* **batched >= 5x scalar fitness throughput** — the generational search
  charges every candidate to the big-int stem-region sweep through the
  ``synth`` chunk seam; over a deterministic candidate pool the batched
  evaluator must produce records byte-identical (modulo the advisory
  ``backend`` field) to the pointwise scalar evaluator while being at
  least ``MIN_SYNTH_SPEEDUP`` faster overall;
* **fixed-seed search convergence** — the committed micro-campaign
  configurations (the same ones the tests and CI smoke drill) converge
  to perfect self-dual, self-checking winners in a pinned number of
  generations and evaluations, so a search-quality regression (operator
  drift, fitness reweighting, RNG discipline) fails ``--check`` as an
  exact metric mismatch rather than as noise.
"""

import dataclasses
import random
import time

from _harness import benchmark_elapsed, record

from repro.synth import (
    SPECS,
    SynthCampaign,
    evaluate_task,
    make_task,
    random_genome,
)
from repro.synth.specs import _self_dualized

#: Acceptance bar: batched fitness evaluation must beat the scalar
#: evaluator by at least this factor over the throughput pool.
MIN_SYNTH_SPEEDUP = 5.0

#: Identity-pool size per builtin spec (every record compared
#: field-for-field against the scalar evaluator).
POOL_PER_SPEC = 20

#: Throughput pool: one 5-input (32-point) spec with campaign-sized
#: genomes, where the scalar cost (points x faults x gates) dwarfs the
#: shared per-candidate compile overhead — the shape a generation batch
#: actually has once the search grows past toy specs.
THROUGHPUT_POOL = 40

#: The committed fixed-seed micro-campaigns (spec, seed) — the same
#: convergent configurations the test suite and CI smoke drill.
CAMPAIGNS = (("and2", 2), ("or2", 2), ("maj3", 2))


def _identity_pool():
    pool = []
    for spec_name in sorted(SPECS):
        spec = SPECS[spec_name]
        rng = random.Random(f"bench-synth:{spec_name}")
        for _ in range(POOL_PER_SPEC):
            genome = random_genome(rng, spec.n_inputs, rng.randint(8, 16))
            pool.append((spec, genome))
    return pool


def _throughput_pool():
    spec = _self_dualized(
        "bench5", 4, 0b1111100010000000, "4-input spec self-dualized: "
        "the 32-point throughput target"
    )
    rng = random.Random("bench-synth:throughput")
    return [
        (spec, random_genome(rng, spec.n_inputs, rng.randint(16, 28)))
        for _ in range(THROUGHPUT_POOL)
    ]


def _evaluate_both(pool):
    start = time.perf_counter()
    batched = [
        evaluate_task(make_task(genome, spec)) for spec, genome in pool
    ]
    batched_wall = time.perf_counter() - start
    start = time.perf_counter()
    scalar = [
        evaluate_task(make_task(genome, spec, mode="scalar"))
        for spec, genome in pool
    ]
    scalar_wall = time.perf_counter() - start
    agreed = sum(
        1
        for b, s in zip(batched, scalar)
        if dataclasses.replace(b, backend="")
        == dataclasses.replace(s, backend="")
    )
    return agreed, batched_wall, scalar_wall


def synth_report():
    identity = _identity_pool()
    id_agreed, id_batched, id_scalar = _evaluate_both(identity)

    throughput = _throughput_pool()
    tp_agreed, tp_batched, tp_scalar = _evaluate_both(throughput)

    speedup = tp_scalar / tp_batched if tp_batched else float("inf")
    ok = id_agreed == len(identity) and tp_agreed == len(throughput)

    lines = [
        "Synthesis fitness: batched (big-int) vs scalar evaluator",
        f"  identity pool: {len(identity)} candidates over "
        f"{len(SPECS)} builtin specs, records identical "
        f"{id_agreed}/{len(identity)} "
        f"(scalar {id_scalar:.3f}s, batched {id_batched:.3f}s)",
        f"  throughput pool: {len(throughput)} campaign-sized candidates "
        f"on a 32-point spec, records identical "
        f"{tp_agreed}/{len(throughput)}",
        f"  scalar {tp_scalar:.3f}s  batched {tp_batched:.3f}s  "
        f"-> {speedup:.1f}x",
        "",
        "Fixed-seed micro-campaigns (population=24, max_gates=16):",
    ]
    metrics = {
        "identity_candidates": len(identity),
        "identity_identical": id_agreed,
        "throughput_candidates": len(throughput),
        "throughput_identical": tp_agreed,
        "scalar_seconds": round(tp_scalar, 4),
        "batched_seconds": round(tp_batched, 4),
        "fitness_speedup": round(speedup, 2),
    }
    for spec_name, seed in CAMPAIGNS:
        report = SynthCampaign(
            SPECS[spec_name],
            seed=seed,
            population=24,
            generations=20,
            max_gates=16,
        ).run()
        ok = ok and report.converged and report.best_record.perfect
        lines.append(
            f"  {spec_name:5s} seed={seed}: converged gen "
            f"{report.best_generation} after {report.evaluations} "
            f"evaluations, winner cost {report.best_record.cost:g} "
            f"(factor {report.cost_factor:.2f} vs two-level reference), "
            f"{report.best_record.detected}/{report.best_record.faults} "
            f"faults detected"
        )
        metrics[f"{spec_name}_converged"] = int(report.converged)
        metrics[f"{spec_name}_generation"] = report.best_generation
        metrics[f"{spec_name}_evaluations"] = report.evaluations
        metrics[f"{spec_name}_winner_gates"] = report.best_record.gates
    return "\n".join(lines), metrics, ok, speedup


def test_synth(benchmark):
    text, metrics, ok, speedup = benchmark.pedantic(
        synth_report, rounds=1, iterations=1
    )
    assert ok, text
    assert speedup >= MIN_SYNTH_SPEEDUP, (
        f"batched fitness speedup {speedup:.2f}x fell below the "
        f"{MIN_SYNTH_SPEEDUP:.0f}x acceptance bar\n{text}"
    )
    record("synth", text, metrics, benchmark_elapsed(benchmark))
