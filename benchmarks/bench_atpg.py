"""E-ATPG — the fault-dropping ATPG driver vs scalar PODEM.

Two records.  ``atpg_podem`` validates the scalar structural route
against the exhaustive Theorem 3.2 classification on small networks
(Section 3.6's "analytic approach" saving), unchanged from the earlier
bench.  ``atpg`` is the regression gate for the fault-dropping driver
(:func:`repro.engine.atpg.run_atpg`): over the committed workload — the
seed circuits, ripple adders, and the committed random-logic batch
(``examples/data/array10.bench`` and ``array11.bench``, random
iterative arrays) — it requires

* classification parity: wherever scalar per-collapsed-fault
  ``Podem.generate_test_ex`` completes, the dropping driver's
  detected/redundant verdict is byte-identical — and any fault the
  scalar loop *aborts* on (backtrack budget) must be rescued as
  ``detected`` by an earlier dropped pattern, never lost;
* full coverage: every fault the block backend can distinguish from the
  good circuit (``output_bits(fault) != output_bits(None)``) is
  detected, and nothing aborts.  The exhaustive sweep is exponential in
  input count, so this independent cross-check runs on circuits up to
  ``SWEEP_MAX_INPUTS`` inputs (wider ones are covered by parity: a
  completed PODEM verdict is already exact);
* the no-dropping reference: ``run_atpg(drop=False)`` reports exactly
  the scalar loop's verdict for every fault, aborts included, with one
  exception: up to ``UNTILED_MAX_INPUTS`` inputs ``run_atpg`` proves a
  target redundant from the exhaustive tables before any search, so a
  redundant fault the scalar loop aborts on reads ``redundant`` there
  (no circuit of this workload has one);
* speed: fault dropping beats ``run_atpg(drop=False)`` — one PODEM
  search per fault over the same universe — by at least
  ``MIN_ATPG_SPEEDUP`` overall.  Up to ``UNTILED_MAX_INPUTS`` inputs
  (the seed circuits, adder4 and adder8) the dropping run reads its
  tests off the exhaustive tables and searches nothing; above it
  (adder10/12, array10/11) it runs PODEM with candidate completions
  and pattern simulation.  Each circuit's two modes run interleaved
  ``SPEED_ROUNDS`` times and each keeps its fastest run, so a noisy
  neighbour slows both sides alike.

The count metrics land in ``BENCH_atpg.json`` where ``--check`` compares
them exactly; the ``*_seconds``/``*_speedup`` keys ride along as
informational timing.
"""

import os
import random
import time

from _harness import benchmark_elapsed, record

from repro.core.atpg import Podem
from repro.core.collapse import sorted_stem_universe
from repro.engine import engine_for
from repro.engine.atpg import run_atpg
from repro.logic.benchfmt import load_bench
from repro.logic.evaluate import line_tables, outputs_with_fault
from repro.logic.faults import StuckAt, enumerate_stem_faults
from repro.modules.adder import ripple_adder_network
from repro.workloads.benchcircuits import fig62_nand_network
from repro.workloads.fig34 import fig34_network, fig37_fixed_network
from repro.workloads.randomlogic import random_mixed_network

DATA_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "data"
)

#: The acceptance bar: fault dropping must beat ``drop=False`` by at
#: least this factor over the whole committed workload (it reads
#: 12.4-12.7x on a shared 2-core x86 host).
MIN_ATPG_SPEEDUP = 8.0

#: Interleaved timed runs per mode and circuit; each mode keeps its
#: fastest.
SPEED_ROUNDS = 3

#: Widest circuit the exhaustive detectability cross-check sweeps
#: (2^n points per line; 25-input circuits already cost ~40s).
SWEEP_MAX_INPUTS = 23


def atpg_podem_report():
    rnd = random.Random(131)
    total = agreed = verified = 0
    for _ in range(8):
        net = random_mixed_network(rnd, 4, rnd.randint(3, 8))
        podem = Podem(net)
        normal = line_tables(net)
        for fault in enumerate_stem_faults(net):
            total += 1
            faulty = line_tables(net, fault)
            testable = any(
                (normal[o] ^ faulty[o]).bits for o in net.outputs
            )
            test = podem.generate_test(fault)
            if (test is not None) == testable:
                agreed += 1
            if test is not None:
                good = net.output_values(test)
                bad = outputs_with_fault(net, test, fault)
                if good != bad:
                    verified += 1

    # Scale demo: a 7-bit ripple adder (15 inputs) — structural only.
    wide = ripple_adder_network(7)
    wide_podem = Podem(wide)
    wide_faults = [
        StuckAt(line, value)
        for line in ["s0", "s3", "s6", "c7", "a0", "b6", "cin"]
        for value in (0, 1)
    ]
    wide_found = 0
    for fault in wide_faults:
        test = wide_podem.generate_test(fault)
        if test is not None:
            good = wide.output_values(test)
            bad = outputs_with_fault(wide, test, fault)
            if good != bad:
                wide_found += 1
    lines = [
        "Structural ATPG (PODEM) vs exhaustive Theorem 3.2",
        f"  small networks: {total} faults, classification agreement "
        f"{agreed}/{total}, generated tests verified {verified}/{verified}",
        f"  7-bit ripple adder ({len(wide.inputs)} inputs, "
        f"{wide.gate_count()} gates): {wide_found}/{len(wide_faults)} "
        "sampled faults tested structurally (truth tables would need "
        f"2^{len(wide.inputs)} points per line)",
    ]
    ok = agreed == total and wide_found == len(wide_faults)
    return "\n".join(lines), ok


def test_atpg_podem(benchmark):
    text, ok = benchmark.pedantic(atpg_podem_report, rounds=3, iterations=1)
    assert ok
    record("atpg_podem", text)


# ----------------------------------------------------------------------
# the engine-accelerated driver
# ----------------------------------------------------------------------
def _workload():
    """(label, network) pairs: seed circuits, ripple adders, and the
    committed random iterative-array batch."""
    circuits = [
        ("fig34", fig34_network()),
        ("fig37", fig37_fixed_network()),
        ("fig62", fig62_nand_network()),
        ("adder4", load_bench(os.path.join(DATA_DIR, "adder4.bench"))),
        ("adder8", ripple_adder_network(8)),
        ("adder10", ripple_adder_network(10)),
        ("adder12", ripple_adder_network(12)),
        ("array10", load_bench(os.path.join(DATA_DIR, "array10.bench"))),
        ("array11", load_bench(os.path.join(DATA_DIR, "array11.bench"))),
    ]
    return circuits


def _detectable_count(network, universe):
    """Faults the block backend distinguishes from the fault-free
    circuit on some input point — the sweep-level coverage ceiling."""
    bitmask = engine_for(network).bitmask
    baseline = bitmask.output_bits(None)
    return sum(
        1 for fault in universe if bitmask.output_bits(fault) != baseline
    )


def engine_atpg_report():
    rows = []
    totals = {
        "circuits": 0,
        "faults_total": 0,
        "detected_total": 0,
        "redundant_total": 0,
        "aborted_total": 0,
        "scalar_aborted_total": 0,
        "patterns_kept_total": 0,
        "detectable_total": 0,
        "sweep_checked_circuits": 0,
    }
    nodrop_wall = engine_wall = 0.0
    ok = True
    for label, network in _workload():
        universe = sorted_stem_universe(network)
        podem = Podem(network)
        scalar = {}
        for fault in universe:
            result = podem.generate_test_ex(fault)
            scalar[fault.describe()] = (
                "detected" if result.status == "test" else result.status
            )

        fastest = {True: float("inf"), False: float("inf")}
        for _round in range(SPEED_ROUNDS):
            for drop in (True, False):
                start = time.perf_counter()
                run = run_atpg(network, faults=universe, drop=drop)
                elapsed = time.perf_counter() - start
                fastest[drop] = min(fastest[drop], elapsed)
                if drop:
                    report = run
                else:
                    reference = run
        engine_wall += fastest[True]
        nodrop_wall += fastest[False]
        ok = ok and reference.classifications == scalar

        # Parity where scalar completed; scalar aborts must be rescued.
        rescued = 0
        for name, verdict in scalar.items():
            if verdict == "aborted":
                rescued += 1
                ok = ok and report.classifications[name] == "detected"
            else:
                ok = ok and report.classifications[name] == verdict
        ok = ok and report.aborted == 0

        swept = len(network.inputs) <= SWEEP_MAX_INPUTS
        if swept:
            detectable = _detectable_count(network, universe)
            ok = ok and report.detected == detectable
            totals["detectable_total"] += detectable
            totals["sweep_checked_circuits"] += 1

        totals["circuits"] += 1
        totals["faults_total"] += report.requested
        totals["detected_total"] += report.detected
        totals["redundant_total"] += report.redundant
        totals["aborted_total"] += report.aborted
        totals["scalar_aborted_total"] += rescued
        totals["patterns_kept_total"] += report.patterns_kept
        rows.append(
            f"  {label:8s} {report.requested:4d} faults  "
            f"{report.detected:4d} detected  {report.redundant:2d} "
            f"redundant  {report.targets:3d} targets  "
            f"{report.patterns_kept:3d} patterns"
            + ("" if swept else "  [sweep skipped: "
               f"{len(network.inputs)} inputs]")
            + (f"  [{rescued} scalar aborts rescued]" if rescued else "")
        )

    speedup = nodrop_wall / engine_wall if engine_wall else float("inf")
    lines = [
        "Fault-dropping ATPG (run_atpg) vs drop=False, scalar PODEM parity",
        f"  workload: {totals['circuits']} circuits, "
        f"{totals['faults_total']} collapsed faults "
        f"({totals['detectable_total']} detectable on the "
        f"{totals['sweep_checked_circuits']} sweep-checked circuits)",
    ]
    lines.extend(rows)
    lines.append(
        f"  drop=False {nodrop_wall:.3f}s  dropping {engine_wall:.3f}s  "
        f"-> {speedup:.1f}x"
    )
    metrics = dict(totals)
    metrics["nodrop_seconds"] = round(nodrop_wall, 4)
    metrics["engine_seconds"] = round(engine_wall, 4)
    metrics["atpg_speedup"] = round(speedup, 2)
    return "\n".join(lines), metrics, ok, speedup


def test_atpg(benchmark):
    text, metrics, ok, speedup = benchmark.pedantic(
        engine_atpg_report, rounds=1, iterations=1
    )
    assert ok, text
    assert speedup >= MIN_ATPG_SPEEDUP, (
        f"fault-dropping ATPG speedup over drop=False {speedup:.2f}x "
        f"fell below the {MIN_ATPG_SPEEDUP:.0f}x acceptance bar\n{text}"
    )
    record("atpg", text, metrics, benchmark_elapsed(benchmark))
