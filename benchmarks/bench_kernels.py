"""E-KERNELS — the codegen kernel tier vs the vectorized interpreter
(PR 8, ROADMAP item 5).

One workload, three rungs: the randlogic single-fault universe (shared
with bench_campaigns) classified by the scalar big-int bitmask path,
the NumPy vectorized backend, and the program-specialized kernel tier.
The gate asserts statuses are byte-identical across all three and
that the kernel's steady-state sweep
beats the vectorized backend by at least ``MIN_KERNEL_SPEEDUP``.

The cold first sweep (kernel generation included) is reported but not
gated: auto-selection already accounts for it by keeping circuits at or
below 12 inputs on the vectorized rung.
"""

import time
from collections import Counter

from _harness import benchmark_elapsed, record

from bench_campaigns import (
    RANDLOGIC_GATES,
    RANDLOGIC_INPUTS,
    RANDLOGIC_OUTPUTS,
    RANDLOGIC_SEED,
)

import random

from repro import obs
from repro.engine import FaultSweep, engine_for
from repro.engine.vectorized import HAVE_NUMPY
from repro.workloads.randomlogic import random_mixed_network

#: The PR's floor: the kernel tier's steady-state randlogic sweep must
#: beat the vectorized backend by at least this factor (measured ~2.4x
#: to 3.0x).
MIN_KERNEL_SPEEDUP = 2.0

#: Steady-state timings are best-of-N to damp scheduler noise.
ROUNDS = 5


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def kernels_report():
    rng = random.Random(RANDLOGIC_SEED)
    net = random_mixed_network(
        rng,
        n_inputs=RANDLOGIC_INPUTS,
        n_gates=RANDLOGIC_GATES,
        n_outputs=RANDLOGIC_OUTPUTS,
    )
    eng = engine_for(net)
    sweep = FaultSweep(net, engine=eng)
    universe = sweep.single_fault_universe()

    was_enabled = obs.metrics_enabled()
    obs.enable_metrics(False)
    try:
        scalar = [
            s for _, s in sweep.sweep(universe, backend="bitmask")
        ]
        if HAVE_NUMPY:
            from repro.engine.kernels import KernelBackend

            vec = eng.vectorized
            vectorized = vec.sweep_statuses(universe)
            vec_seconds = _best_of(
                lambda: vec.sweep_statuses(universe)
            )

            start = time.perf_counter()
            kern = KernelBackend(eng.compiled, vectorized=vec)
            kernel_statuses = kern.sweep_statuses(universe)
            cold_seconds = time.perf_counter() - start
            kern_seconds = _best_of(
                lambda: kern.sweep_statuses(universe)
            )
            cache = kern.cache_stats()
        else:
            vectorized = kernel_statuses = scalar
            vec_seconds = kern_seconds = cold_seconds = 0.0
            cache = {"kernels": 0, "blocks": 0, "tiles": 0}
    finally:
        obs.enable_metrics(was_enabled)

    identical = scalar == vectorized == kernel_statuses
    speedup = vec_seconds / kern_seconds if kern_seconds > 0 else 0.0
    counts = Counter(scalar)
    lines = [
        "Program-specialized kernel tier vs vectorized interpreter "
        f"({RANDLOGIC_INPUTS} inputs, {RANDLOGIC_GATES} gates, "
        f"{len(universe)} live faults)",
        f"  statuses: {counts['detected']} detected, "
        f"{counts['silent']} silent, {counts['dangerous']} dangerous",
        f"  byte-identical across scalar/vectorized/kernel: "
        f"{identical}",
        f"  vectorized steady-state:  {vec_seconds * 1e3:8.2f} ms",
        f"  kernel steady-state:      {kern_seconds * 1e3:8.2f} ms   "
        f"({speedup:.2f}x, floor {MIN_KERNEL_SPEEDUP:.1f}x)",
        f"  kernel cold (codegen in): {cold_seconds * 1e3:8.2f} ms   "
        f"({cache['kernels']} kernels compiled)",
    ]
    ok = identical and (
        not HAVE_NUMPY or speedup >= MIN_KERNEL_SPEEDUP
    )
    metrics = {
        "kernels_faults": len(universe),
        "kernels_detected": counts["detected"],
        "kernels_silent": counts["silent"],
        "kernels_dangerous": counts["dangerous"],
        "kernels_statuses_identical": identical,
        "kernels_compiled": cache["kernels"],
        "kernels_vectorized_seconds": vec_seconds,
        "kernels_kernel_seconds": kern_seconds,
        "kernels_cold_seconds": cold_seconds,
        "kernels_speedup": speedup,
    }
    return "\n".join(lines), ok, metrics


def test_kernels(benchmark):
    text, ok, metrics = benchmark.pedantic(
        kernels_report, rounds=2, iterations=1
    )
    record(
        "kernels",
        text,
        metrics=metrics,
        elapsed=benchmark_elapsed(benchmark),
    )
    assert ok, (
        "statuses diverged across rungs or kernel speedup below "
        f"{MIN_KERNEL_SPEEDUP}x: {metrics}"
    )
