"""E-CAMPAIGN — sequential fault campaigns across a machine suite
(Chapter 4 end-to-end, extension).

The DESIGN.md "sequential style" ablation at scale: for every machine in
the workload library, build both SCAL realizations (dual flip-flop and
code conversion), run full single-fault campaigns, and compare coverage,
storage cost, and detection latency.  Also sweeps *transient* faults
(Definition 2.1's temporary case) on the dual-FF 0101 detector.
"""

import contextlib
import os
import random
import statistics
import sys
import time
from collections import Counter

from _harness import benchmark_elapsed, check_enabled, record
from bench_rungs import REPEATS, cold_sweep

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
            run = dff.run(vectors, [fault], fault_window=window)
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
# large random-logic fault sweep: the first sweep, warm `auto` sweeps
# and cold ones on one universe, statuses byte-identical
# ----------------------------------------------------------------------
RANDLOGIC_SEED = 0xA17
RANDLOGIC_INPUTS = 12
RANDLOGIC_GATES = 240
RANDLOGIC_OUTPUTS = 8

#: Interleaved pairs of timed sweeps in the disabled-telemetry A/B; the
#: overhead is the median of the per-pair time ratios.
OBS_AB_PAIRS = 41


def randlogic_network():
    return random_mixed_network(
        random.Random(RANDLOGIC_SEED),
        n_inputs=RANDLOGIC_INPUTS,
        n_gates=RANDLOGIC_GATES,
        n_outputs=RANDLOGIC_OUTPUTS,
    )


class _NoRegistry:
    enabled = False


def _noop(*_args, **_kwargs):
    return None


@contextlib.contextmanager
def obs_stubbed():
    """Every telemetry seam a bare no-op: ``obs.span``/``obs.event``,
    each instrumented module's ``_REG`` branch, and the metric objects'
    update methods — the sweep as if it carried no instrumentation."""
    patches = [
        (obs, "span", lambda _name, **_attrs: obs.NOOP_SPAN),
        (obs, "event", _noop),
        (obs.Counter, "inc", _noop),
        (obs.Gauge, "inc", _noop),
        (obs.Gauge, "set", _noop),
        (obs.Histogram, "observe", _noop),
    ]
    patches += [
        (module, "_REG", _NoRegistry)
        for module in list(sys.modules.values())
        if getattr(module, "_REG", None) is obs.REGISTRY
    ]
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, stub in patches:
            setattr(owner, name, stub)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def time_obs_ab(sweep, universe):
    """Warm ``auto`` sweeps with telemetry disabled and with it stubbed
    out, in ``OBS_AB_PAIRS`` back-to-back pairs whose order alternates,
    so machine noise lands on both arms alike.  Returns the median of
    the per-pair ``disabled / stubbed`` ratios, each arm's fastest
    time and the disabled arm's statuses."""
    fastest = {"disabled": float("inf"), "stubbed": float("inf")}
    ratios = []
    for pair in range(OBS_AB_PAIRS):
        arms = ("disabled", "stubbed") if pair % 2 else ("stubbed", "disabled")
        times = {}
        for arm in arms:
            stubbed = arm == "stubbed"
            with obs_stubbed() if stubbed else contextlib.nullcontext():
                start = time.perf_counter()
                result = sweep.sweep(universe, backend="auto")
                times[arm] = time.perf_counter() - start
            fastest[arm] = min(fastest[arm], times[arm])
            if arm == "disabled":
                statuses = result
        ratios.append(times["disabled"] / times["stubbed"])
    ratio = statistics.median(ratios)
    return ratio, fastest["disabled"], fastest["stubbed"], statuses


def randlogic_sweep_report():
    net = randlogic_network()
    sweep = FaultSweep(net)
    universe = sweep.compiled.universe_ids(collapse=False)

    # Telemetry stays disabled inside the measured region: the warm
    # sweep doubles as the disabled-overhead A/B (the instrumented seams
    # may cost one branch each, nothing more).
    was_enabled = obs.metrics_enabled()
    obs.enable_metrics(False)
    try:
        start = time.perf_counter()
        scalar = sweep.sweep(universe, backend="bitmask")
        scalar_seconds = time.perf_counter() - start

        ratio, fast_seconds, stubbed_seconds, fast = time_obs_ab(
            sweep, universe
        )

        cold = [
            cold_sweep(randlogic_network, universe) for _ in range(REPEATS)
        ]
    finally:
        obs.enable_metrics(was_enabled)
    fast_backend = sweep.last_report.block_backend

    scalar_statuses = [status for _fault, status in scalar]
    identical = fast == scalar and all(
        got == scalar_statuses for _seconds, got in cold
    )
    cold_seconds = min(seconds for seconds, _got in cold)
    speedup = scalar_seconds / fast_seconds if fast_seconds > 0 else 0.0
    overhead = (ratio - 1.0) * 100.0
    counts = Counter(status for _fault, status in scalar)
    lines = [
        "Large random-logic single-fault sweep "
        f"({RANDLOGIC_INPUTS} inputs, {RANDLOGIC_GATES} gates, "
        f"{len(universe)} live faults)",
        f"  statuses: {counts['detected']} detected, "
        f"{counts['silent']} silent, {counts['dangerous']} dangerous",
        f"  first bitmask sweep:     {scalar_seconds:8.4f} s",
        f"  auto ({fast_backend:>10s}) sweep: {fast_seconds:8.4f} s   "
        f"({speedup:.1f}x)",
        f"  cold auto sweep: {cold_seconds * 1e3:.1f} ms "
        f"(fastest of {REPEATS})",
        f"  telemetry disabled vs stubbed out: {fast_seconds * 1e3:.2f} ms "
        f"vs {stubbed_seconds * 1e3:.2f} ms fastest ({overhead:+.2f}%, "
        f"median ratio of {OBS_AB_PAIRS} interleaved pairs)",
        f"  statuses byte-identical across backends: {identical}",
    ]
    ok = identical
    metrics = {
        "randlogic_faults": len(universe),
        "randlogic_detected": counts["detected"],
        "randlogic_silent": counts["silent"],
        "randlogic_dangerous": counts["dangerous"],
        "randlogic_statuses_identical": identical,
        "randlogic_scalar_seconds": scalar_seconds,
        "randlogic_fast_seconds": fast_seconds,
        "randlogic_stubbed_seconds": stubbed_seconds,
        "randlogic_speedup": speedup,
        "randlogic_cold_auto_seconds": cold_seconds,
    }
    return "\n".join(lines), ok, metrics, overhead


def test_randlogic_sweep(benchmark):
    text, ok, metrics, overhead = benchmark.pedantic(
        randlogic_sweep_report, rounds=2, iterations=1
    )
    record(
        "campaigns_randlogic",
        text,
        metrics=metrics,
        elapsed=benchmark_elapsed(benchmark),
    )
    assert ok, f"statuses diverged across the sweeps:\n{text}"
    if check_enabled():
        limit = float(os.environ.get("BENCH_OBS_OVERHEAD_PCT", "2.0"))
        assert overhead < limit, (
            f"disabled-telemetry sweep {overhead:.1f}% slower than the "
            f"same sweep with telemetry stubbed out (limit {limit:g}%; "
            f"override with BENCH_OBS_OVERHEAD_PCT)\n{text}"
        )


# ----------------------------------------------------------------------
# supervised campaign runtime: fork fan-out with per-chunk supervision,
# clean and under a mid-sweep worker kill — statuses must stay
# byte-identical to the serial path and every incident must be visible
# in the CampaignReport
# ----------------------------------------------------------------------
def supervised_sweep_report():
    from repro.qa.chaos import sabotage_campaign

    net = randlogic_network()
    sweep = FaultSweep(net)
    universe = sweep.compiled.universe_ids(collapse=False)

    start = time.perf_counter()
    serial = sweep.sweep(universe)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    forked = sweep.sweep(universe, processes=2)
    forked_seconds = time.perf_counter() - start
    clean = sweep.last_report

    start = time.perf_counter()
    with sabotage_campaign("worker-killed", once=True):
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
    universe = sweep.compiled.universe_ids(collapse=False)

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
