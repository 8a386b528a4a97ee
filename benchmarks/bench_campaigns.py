"""E-CAMPAIGN — sequential fault campaigns across a machine suite
(Chapter 4 end-to-end, extension).

The DESIGN.md "sequential style" ablation at scale: for every machine in
the workload library, build both SCAL realizations (dual flip-flop and
code conversion), run full single-fault campaigns, and compare coverage,
storage cost, and detection latency.  Also sweeps *transient* faults
(Definition 2.1's temporary case) on the dual-FF 0101 detector.
"""

import os
import random
import time
from collections import Counter

from _harness import benchmark_elapsed, check_enabled, load_baseline, record
from bench_rungs import MAX_AUTO_SLOWDOWN, time_rungs

from repro import obs

from repro.engine import FaultSweep
from repro.logic.faults import enumerate_stem_faults
from repro.workloads.randomlogic import random_mixed_network
from repro.scal.codeconv import to_code_conversion
from repro.scal.dualff import to_dual_flipflop
from repro.scal.verify import codeconv_campaign, dualff_campaign, random_vectors
from repro.workloads.detectors import kohavi_0101
from repro.workloads.machines import machine_suite


def campaigns_report():
    rows = [
        f"  {'machine':14s} {'style':9s} {'FFs/bits':>8s} {'faults':>7s} "
        f"{'detected':>9s} {'DANGEROUS':>10s} {'latency':>8s}"
    ]
    all_secure = True
    faults_swept = 0
    for machine in machine_suite():
        vectors = random_vectors(machine, 30, seed=len(machine.states))
        dff = to_dual_flipflop(machine)
        d = dualff_campaign(dff, vectors)
        cc = to_code_conversion(machine)
        c = codeconv_campaign(cc, vectors)
        for style, result, storage in (
            ("dual-FF", d, dff.flip_flop_count()),
            ("codeconv", c, cc.flip_flop_count()),
        ):
            latency = (
                f"{result.mean_detection_latency:.1f}"
                if result.mean_detection_latency is not None
                else "n/a"
            )
            rows.append(
                f"  {machine.name:14s} {style:9s} {storage:8d} "
                f"{result.total:7d} {result.detected:9d} "
                f"{result.dangerous:10d} {latency:>8s}"
            )
            if not result.is_fault_secure:
                all_secure = False
            faults_swept += result.total

    # Inductive (exhaustive per-state/per-input) verification.
    from repro.scal.induction import verify_inductively

    inductive_rows = []
    all_proved = True
    for machine in machine_suite():
        dff = to_dual_flipflop(machine)
        verdict = verify_inductively(dff)
        inductive_rows.append(
            f"  {machine.name:14s}: {verdict.summary().split(': ', 1)[1]}"
        )
        if not verdict.holds:
            all_proved = False

    # Transient sweep on the 0101 detector.
    detector = kohavi_0101()
    dff = to_dual_flipflop(detector)
    vectors = random_vectors(detector, 30, seed=9)
    reference = detector.run(vectors)
    transient_total = transient_bad = 0
    for fault in enumerate_stem_faults(dff.circuit.network, include_inputs=False):
        for window in ((4, 4), (9, 9), (8, 11)):
            transient_total += 1
            run = dff.run(vectors, fault=fault, fault_window=window)
            if dff.decoded_outputs(run) != reference and not run.detected:
                transient_bad += 1
    lines = [
        "Sequential single-fault campaigns (dual flip-flop vs code "
        "conversion)",
        *rows,
        "",
        f"all campaigns fault-secure: {all_secure}",
        "inductive verification (exhaustive per-state/per-input proof):",
        *inductive_rows,
        f"transient sweep (0101 detector, windowed stem faults): "
        f"{transient_total} injections, undetected-wrong {transient_bad}",
    ]
    metrics = {
        "campaign_faults_swept": faults_swept,
        "transient_injections": transient_total,
        "transient_undetected_wrong": transient_bad,
    }
    ok = all_secure and transient_bad == 0 and all_proved
    return "\n".join(lines), ok, metrics


def test_campaigns(benchmark):
    text, ok, metrics = benchmark.pedantic(
        campaigns_report, rounds=2, iterations=1
    )
    assert ok
    record("campaigns", text, metrics=metrics, elapsed=benchmark_elapsed(benchmark))


# ----------------------------------------------------------------------
# large random-logic fault sweep: every sweep rung on one universe,
# statuses byte-identical, and `auto` within MAX_AUTO_SLOWDOWN of the
# fastest rung cold (the bench_rungs.py gate on a 12-input net)
# ----------------------------------------------------------------------
RANDLOGIC_SEED = 0xA17
RANDLOGIC_INPUTS = 12
RANDLOGIC_GATES = 240
RANDLOGIC_OUTPUTS = 8


def randlogic_network():
    return random_mixed_network(
        random.Random(RANDLOGIC_SEED),
        n_inputs=RANDLOGIC_INPUTS,
        n_gates=RANDLOGIC_GATES,
        n_outputs=RANDLOGIC_OUTPUTS,
    )


def randlogic_sweep_report():
    net = randlogic_network()
    sweep = FaultSweep(net)
    universe = sweep.single_fault_universe()

    # Telemetry stays disabled inside the measured region: this bench's
    # fast-sweep time doubles as the disabled-overhead gate (the
    # instrumented seams may cost one branch each, nothing more).
    was_enabled = obs.metrics_enabled()
    obs.enable_metrics(False)
    try:
        start = time.perf_counter()
        scalar = sweep.sweep(universe, backend="bitmask")
        scalar_seconds = time.perf_counter() - start

        # Best-of-3 damps scheduler noise; the gate compares against
        # the committed baseline at percent granularity.
        fast_seconds = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fast = sweep.sweep(universe, backend="auto")
            fast_seconds = min(fast_seconds, time.perf_counter() - start)

        cold, cold_statuses, auto_rung = time_rungs(randlogic_network, universe)
    finally:
        obs.enable_metrics(was_enabled)
    fast_backend = sweep.last_sweep_backend

    scalar_statuses = [status for _fault, status in scalar]
    identical = fast == scalar and all(
        got == scalar_statuses for got in cold_statuses.values()
    )
    speedup = scalar_seconds / fast_seconds if fast_seconds > 0 else 0.0
    fastest = min(cold["bitmask"], cold["vectorized"])
    auto_ratio = cold["auto"] / fastest
    counts = Counter(status for _fault, status in scalar)
    lines = [
        "Large random-logic single-fault sweep "
        f"({RANDLOGIC_INPUTS} inputs, {RANDLOGIC_GATES} gates, "
        f"{len(universe)} live faults)",
        f"  statuses: {counts['detected']} detected, "
        f"{counts['silent']} silent, {counts['dangerous']} dangerous",
        f"  scalar bitmask sweep:    {scalar_seconds:8.4f} s",
        f"  auto ({fast_backend:>10s}) sweep: {fast_seconds:8.4f} s   "
        f"({speedup:.1f}x)",
        f"  cold sweeps: auto ({auto_rung}) {cold['auto'] * 1e3:.1f} ms, "
        f"bitmask {cold['bitmask'] * 1e3:.1f} ms, "
        f"vectorized {cold['vectorized'] * 1e3:.1f} ms   "
        f"(auto/fastest {auto_ratio:.2f}x, limit {MAX_AUTO_SLOWDOWN}x)",
        f"  statuses byte-identical across backends: {identical}",
    ]
    ok = identical and auto_ratio <= MAX_AUTO_SLOWDOWN
    metrics = {
        "randlogic_faults": len(universe),
        "randlogic_detected": counts["detected"],
        "randlogic_silent": counts["silent"],
        "randlogic_dangerous": counts["dangerous"],
        "randlogic_statuses_identical": identical,
        "randlogic_scalar_seconds": scalar_seconds,
        "randlogic_fast_seconds": fast_seconds,
        "randlogic_speedup": speedup,
        "randlogic_auto_rung": auto_rung,
        "randlogic_cold_auto_seconds": cold["auto"],
        "randlogic_cold_bitmask_seconds": cold["bitmask"],
        "randlogic_cold_vectorized_seconds": cold["vectorized"],
    }
    return "\n".join(lines), ok, metrics


def test_randlogic_sweep(benchmark):
    text, ok, metrics = benchmark.pedantic(
        randlogic_sweep_report, rounds=2, iterations=1
    )
    # The committed baseline must be read before record() overwrites it.
    baseline = load_baseline("campaigns_randlogic") if check_enabled() else None
    record(
        "campaigns_randlogic",
        text,
        metrics=metrics,
        elapsed=benchmark_elapsed(benchmark),
    )
    assert ok, (
        "statuses diverged, or auto is more than "
        f"{MAX_AUTO_SLOWDOWN}x slower than the fastest rung cold:\n{text}"
    )
    if baseline is not None:
        base_fast = (baseline.get("metrics") or {}).get(
            "randlogic_fast_seconds"
        )
        if base_fast:
            limit = float(os.environ.get("BENCH_OBS_OVERHEAD_PCT", "2.0"))
            overhead = (
                metrics["randlogic_fast_seconds"] / base_fast - 1.0
            ) * 100.0
            assert overhead < limit, (
                f"disabled-telemetry sweep took "
                f"{metrics['randlogic_fast_seconds']:.4f}s, "
                f"{overhead:.1f}% over the committed baseline "
                f"{base_fast:.4f}s (limit {limit:g}%; override with "
                f"BENCH_OBS_OVERHEAD_PCT)"
            )


# ----------------------------------------------------------------------
# supervised campaign runtime: fork fan-out with per-chunk supervision,
# clean and under a mid-sweep worker kill — statuses must stay
# byte-identical to the serial path and every incident must be visible
# in the CampaignReport
# ----------------------------------------------------------------------
def supervised_sweep_report():
    import os
    import tempfile

    from repro.qa.chaos import sabotage_campaign

    net = randlogic_network()
    sweep = FaultSweep(net)
    universe = sweep.single_fault_universe()

    start = time.perf_counter()
    serial = sweep.sweep(universe)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    forked = sweep.sweep(universe, processes=2)
    forked_seconds = time.perf_counter() - start
    clean = sweep.last_report

    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        with sabotage_campaign(
            "worker-killed", once_path=os.path.join(tmp, "once")
        ):
            sabotaged = sweep.sweep(universe, processes=2)
        chaos_seconds = time.perf_counter() - start
    chaos = sweep.last_report

    forked_identical = forked == serial
    chaos_identical = sabotaged == serial
    recovered = chaos.workers_replaced >= 1 and bool(chaos.retries)
    lines = [
        "Supervised fork campaign over the random-logic universe "
        f"({len(universe)} faults, 2 workers)",
        f"  serial sweep:               {serial_seconds:8.4f} s",
        f"  supervised fork sweep:      {forked_seconds:8.4f} s   "
        f"(backend {clean.backend}, {clean.chunks_total} chunks, "
        f"{len(clean.degradations)} degradations)",
        f"  fork sweep, worker killed:  {chaos_seconds:8.4f} s   "
        f"({chaos.workers_replaced} workers replaced, "
        f"{len(chaos.retries)} retries)",
        f"  statuses byte-identical (clean / chaos): "
        f"{forked_identical} / {chaos_identical}",
    ]
    ok = forked_identical and chaos_identical and recovered
    metrics = {
        "supervised_faults": len(universe),
        "supervised_clean_identical": forked_identical,
        "supervised_clean_degradations": len(clean.degradations),
        "supervised_chaos_identical": chaos_identical,
        "supervised_chaos_recovered": recovered,
        "supervised_serial_seconds": serial_seconds,
        "supervised_forked_seconds": forked_seconds,
        "supervised_chaos_seconds": chaos_seconds,
    }
    return "\n".join(lines), ok, metrics


def test_supervised_sweep(benchmark):
    text, ok, metrics = benchmark.pedantic(
        supervised_sweep_report, rounds=2, iterations=1
    )
    record(
        "campaigns_supervised",
        text,
        metrics=metrics,
        elapsed=benchmark_elapsed(benchmark),
    )
    assert ok, "supervised sweep diverged or failed to recover from chaos"


# ----------------------------------------------------------------------
# fork fan-out: the same supervised universe over forked pipes
# vs the serial in-process path — byte-identical statuses, no
# degradations, and the fork fan-out overhead on the record
# ----------------------------------------------------------------------
def transport_sweep_report():
    net = randlogic_network()
    sweep = FaultSweep(net)
    universe = sweep.single_fault_universe()

    start = time.perf_counter()
    serial = sweep.sweep(universe)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    forked = sweep.sweep(universe, processes=2)
    fork_seconds = time.perf_counter() - start
    report = sweep.last_report
    identical = forked == serial
    degradations = len(report.degradations)

    lines = [
        "Execution transports over the random-logic universe "
        f"({len(universe)} faults, 2 lanes)",
        f"  serial:                     {serial_seconds:8.4f} s",
        f"  fork:                       {fork_seconds:8.4f} s   "
        f"(backend {report.backend}, {degradations} degradations)",
        f"  statuses byte-identical across transports: {identical}",
    ]
    ok = identical and degradations == 0
    metrics = {
        "transports_faults": len(universe),
        "transports_identical": identical,
        "transports_fork_degradations": degradations,
        "transports_serial_seconds": serial_seconds,
        "transports_fork_seconds": fork_seconds,
    }
    return "\n".join(lines), ok, metrics


def test_transport_sweep(benchmark):
    text, ok, metrics = benchmark.pedantic(
        transport_sweep_report, rounds=2, iterations=1
    )
    record(
        "campaigns_transports",
        text,
        metrics=metrics,
        elapsed=benchmark_elapsed(benchmark),
    )
    assert ok, "transport sweep diverged from serial or degraded"
