"""E-RUNGS — the cold sweep-rung crossover grid behind ``select_backend``.

For each input width, ``NETS`` fresh 120-gate, 16-output mixed nets
(the perfbench ``sweep-wide`` shape) have their collapsed single-fault
universe classified cold by ``FaultSweep.sweep`` in-process, once per
rung: ``auto``, ``bitmask`` and ``vectorized``.  Cold means a freshly
generated network object and a new ``NetworkEngine`` per timed sweep,
so compile, baselines, fault plans and the block set-up are all inside
the time, as they are for a user's fresh netlist.  The rung order
rotates from net to net and from repeat to repeat; a net's time on a
rung is its fastest of ``REPEATS`` runs, and a cell is the median over
the row's nets.

The gate, on every row:

* statuses are byte-identical across the three rungs on every net;
* ``auto``'s median is at most ``MAX_AUTO_SLOWDOWN`` times the fastest
  rung's median.

The rung ``auto`` picks on each row is a non-timing metric, so the
``--check`` run fails when the selection table moves without the
committed grid moving with it.  Rows of 18 and 20 inputs take about a
minute and run only under the ``slow`` marker
(``pytest benchmarks/bench_rungs.py -m slow``).
"""

import gc
import random
import statistics
import time
from collections import Counter

import pytest

from _harness import benchmark_elapsed, record

from repro import obs
from repro.core.collapse import collapsed_single_faults
from repro.engine import FaultSweep, NetworkEngine
from repro.workloads.randomlogic import random_mixed_network

#: The gate: ``auto`` may be at most this much slower than the fastest
#: rung on any row (measured 1.0x-1.1x; the retired codegen rung read
#: about 1.55x at 13 and 14 inputs).
MAX_AUTO_SLOWDOWN = 1.3

RUNGS = ("auto", "bitmask", "vectorized")
GATES, OUTPUTS = 120, 16
NETS = 5
REPEATS = 3
FAST_WIDTHS = (8, 10, 12, 13, 14, 16)
SLOW_WIDTHS = (18, 20)


def grid_network(n_inputs, index):
    """Net ``index`` of the ``n_inputs`` row, a new object per call."""
    return random_mixed_network(
        random.Random(f"rungs:{n_inputs}:{index}"),
        n_inputs,
        GATES,
        n_outputs=OUTPUTS,
    )


def cold_sweep(make, universe, rung):
    """One cold sweep of ``universe`` on a fresh network from ``make``:
    ``(seconds, statuses, block backend that ran)``."""
    network = make()
    gc.collect()
    start = time.perf_counter()
    sweep = FaultSweep(network, engine=NetworkEngine(network))
    result = sweep.sweep(universe, backend=rung)
    seconds = time.perf_counter() - start
    statuses = [status for _fault, status in result]
    return seconds, statuses, sweep.last_report.block_backend


def time_rungs(make, universe, offset=0, repeats=REPEATS):
    """Fastest cold time per rung over ``repeats`` rotated passes.

    Returns ``(seconds by rung, statuses by rung, rung auto ran on)``;
    ``offset`` rotates the first pass's order (callers pass the net's
    index so the rungs take turns going first).
    """
    best = {rung: float("inf") for rung in RUNGS}
    statuses = {}
    picked = None
    for repeat in range(repeats):
        shift = (offset + repeat) % len(RUNGS)
        for rung in RUNGS[shift:] + RUNGS[:shift]:
            seconds, got, ran_on = cold_sweep(make, universe, rung)
            best[rung] = min(best[rung], seconds)
            if statuses.setdefault(rung, got) != got:
                raise AssertionError(f"{rung} statuses changed between runs")
            if rung == "auto":
                picked = ran_on
    return best, statuses, picked


def grid_row(n_inputs):
    """One row of the grid: median seconds per rung, statuses agree?"""
    per_rung = {rung: [] for rung in RUNGS}
    counts = Counter()
    identical = True
    picks = set()
    faults = 0
    for index in range(NETS):
        universe = list(collapsed_single_faults(grid_network(n_inputs, index)))
        best, statuses, picked = time_rungs(
            lambda: grid_network(n_inputs, index), universe, offset=index
        )
        for rung in RUNGS:
            per_rung[rung].append(best[rung])
        reference = statuses["bitmask"]
        identical &= all(statuses[rung] == reference for rung in RUNGS)
        counts.update(reference)
        picks.add(picked)
        faults += len(universe)
    medians = {rung: statistics.median(times) for rung, times in per_rung.items()}
    return {
        "inputs": n_inputs,
        "faults": faults,
        "counts": counts,
        "identical": identical,
        "auto_rung": "/".join(sorted(picks)),
        "medians": medians,
        "ratio": medians["auto"] / min(medians["bitmask"], medians["vectorized"]),
    }


def rungs_report(widths):
    was_enabled = obs.metrics_enabled()
    obs.enable_metrics(False)
    try:
        rows = [grid_row(n) for n in widths]
    finally:
        obs.enable_metrics(was_enabled)
    lines = [
        "Cold sweep-rung crossover: median ms over "
        f"{NETS} fresh {GATES}-gate {OUTPUTS}-output mixed nets per row "
        f"(fastest of {REPEATS} cold runs per net, rung order rotating)",
        f"  {'inputs':>6s} {'faults':>7s} {'auto':>9s} {'bitmask':>9s} "
        f"{'vectorized':>10s}  {'auto picks':<10s} {'auto/fastest':>12s} "
        "identical",
    ]
    metrics = {}
    ok = True
    for row in rows:
        n, med = row["inputs"], row["medians"]
        lines.append(
            f"  {n:6d} {row['faults']:7d} {med['auto'] * 1e3:9.1f} "
            f"{med['bitmask'] * 1e3:9.1f} {med['vectorized'] * 1e3:10.1f}  "
            f"{row['auto_rung']:<10s} {row['ratio']:11.2f}x "
            f"{row['identical']}"
        )
        ok &= row["identical"] and row["ratio"] <= MAX_AUTO_SLOWDOWN
        metrics[f"rungs_{n}_faults"] = row["faults"]
        for status in ("detected", "silent", "dangerous"):
            metrics[f"rungs_{n}_{status}"] = row["counts"][status]
        metrics[f"rungs_{n}_identical"] = row["identical"]
        metrics[f"rungs_{n}_auto_rung"] = row["auto_rung"]
        for rung in RUNGS:
            metrics[f"rungs_{n}_{rung}_seconds"] = med[rung]
    lines.append(
        f"  gate: statuses identical on every row, auto within "
        f"{MAX_AUTO_SLOWDOWN}x of the fastest rung: {ok}"
    )
    return "\n".join(lines), ok, metrics


def _run(benchmark, name, widths):
    text, ok, metrics = benchmark.pedantic(
        rungs_report, args=(widths,), rounds=1, iterations=1
    )
    record(name, text, metrics=metrics, elapsed=benchmark_elapsed(benchmark))
    assert ok, (
        "statuses diverged across rungs, or auto is more than "
        f"{MAX_AUTO_SLOWDOWN}x slower than the fastest rung on a row:\n{text}"
    )


def test_rungs(benchmark):
    _run(benchmark, "rungs", FAST_WIDTHS)


@pytest.mark.slow
def test_rungs_wide(benchmark):
    _run(benchmark, "rungs_wide", SLOW_WIDTHS)
