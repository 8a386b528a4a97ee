"""E-RUNGS — the cold sweep-rung crossover grid behind ``select_backend``.

For each input width, ``NETS`` fresh 120-gate, 16-output mixed nets
(the perfbench ``sweep-wide`` shape) have their collapsed single-fault
universe classified cold by ``FaultSweep.sweep``, once per rung:
``auto``, ``bitmask`` and ``vectorized``.  Cold means a freshly
generated network object and a new ``NetworkEngine`` per timed sweep,
so compile, baselines, stem regions, fault plans and the block set-up
are all inside the time, as they are for a user's fresh netlist.  Each
row runs in a fresh child interpreter (``python bench_rungs.py --row
N``), so whatever ran earlier in the calling process — other benches
warming NumPy, say — cannot tilt the grid.  The rung order rotates from
net to net and from repeat to repeat; a net's time on a rung is its
fastest of ``REPEATS`` runs, and a cell is the median over the row's
nets.

The ``fork`` column is informational: ``auto`` again with
``processes=2`` on the rows in ``FORK_WIDTHS``, where each fork worker
derives its own baseline and stem regions.  Its metrics end in
``_seconds``, so no check gates them, and ``auto`` fans out whenever
``processes > 1`` regardless of what it reads.

The gate, on every row:

* statuses are byte-identical across the three rungs (and the ``fork``
  run, where there is one) on every net;
* ``auto``'s median is at most ``MAX_AUTO_SLOWDOWN`` times the fastest
  rung's median.

The rung ``auto`` picks on each row is a non-timing metric, so the
``--check`` run fails when the selection table moves without the
committed grid moving with it.  Rows of 18 and 20 inputs take about a
minute and run only under the ``slow`` marker
(``pytest benchmarks/bench_rungs.py -m slow``).
"""

import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter

import pytest

from _harness import benchmark_elapsed, record

import repro

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
#: Rows that also time ``auto`` fanned out over two fork workers.
FORK_WIDTHS = (14, 16, 18, 20)
FORK_PROCESSES = 2


def grid_network(n_inputs, index):
    """Net ``index`` of the ``n_inputs`` row, a new object per call."""
    return random_mixed_network(
        random.Random(f"rungs:{n_inputs}:{index}"),
        n_inputs,
        GATES,
        n_outputs=OUTPUTS,
    )


def cold_sweep(make, universe, rung, processes=None):
    """One cold sweep of ``universe`` on a fresh network from ``make``:
    ``(seconds, statuses, block backend that ran)``."""
    network = make()
    gc.collect()
    start = time.perf_counter()
    sweep = FaultSweep(network, engine=NetworkEngine(network))
    result = sweep.sweep(universe, backend=rung, processes=processes)
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


def fork_seconds(make, universe, repeats=REPEATS):
    """Fastest cold ``auto`` sweep over ``FORK_PROCESSES`` fork workers:
    ``(seconds, statuses)``."""
    best, statuses = float("inf"), None
    for _ in range(repeats):
        seconds, got, _ran_on = cold_sweep(
            make, universe, "auto", processes=FORK_PROCESSES
        )
        best = min(best, seconds)
        if statuses is not None and statuses != got:
            raise AssertionError("fork statuses changed between runs")
        statuses = got
    return best, statuses


def grid_row(n_inputs):
    """One row of the grid: median seconds per rung, statuses agree?"""
    per_rung = {rung: [] for rung in RUNGS}
    fork = []
    counts = Counter()
    identical = True
    picks = set()
    faults = 0
    for index in range(NETS):
        universe = list(collapsed_single_faults(grid_network(n_inputs, index)))
        make = lambda: grid_network(n_inputs, index)  # noqa: E731
        best, statuses, picked = time_rungs(make, universe, offset=index)
        for rung in RUNGS:
            per_rung[rung].append(best[rung])
        reference = statuses["bitmask"]
        identical &= all(statuses[rung] == reference for rung in RUNGS)
        if n_inputs in FORK_WIDTHS:
            seconds, forked = fork_seconds(make, universe)
            fork.append(seconds)
            identical &= forked == reference
        counts.update(reference)
        picks.add(picked)
        faults += len(universe)
    medians = {rung: statistics.median(times) for rung, times in per_rung.items()}
    return {
        "inputs": n_inputs,
        "faults": faults,
        "counts": dict(counts),
        "identical": identical,
        "auto_rung": "/".join(sorted(picks)),
        "medians": medians,
        "fork": statistics.median(fork) if fork else None,
        "ratio": medians["auto"] / min(medians["bitmask"], medians["vectorized"]),
    }


def child_row(n_inputs):
    """:func:`grid_row` in a fresh interpreter, with telemetry off."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--row", str(n_inputs)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def rungs_report(widths):
    rows = [child_row(n) for n in widths]
    lines = [
        "Cold sweep-rung crossover: median ms over "
        f"{NETS} fresh {GATES}-gate {OUTPUTS}-output mixed nets per row "
        f"(fastest of {REPEATS} cold runs per net, rung order rotating, "
        "one fresh interpreter per row; fork = auto with "
        f"processes={FORK_PROCESSES}, informational)",
        f"  {'inputs':>6s} {'faults':>7s} {'auto':>9s} {'bitmask':>9s} "
        f"{'vectorized':>10s} {'fork':>9s}  {'auto picks':<10s} "
        f"{'auto/fastest':>12s} identical",
    ]
    metrics = {}
    ok = True
    for row in rows:
        n, med = row["inputs"], row["medians"]
        fork = "-" if row["fork"] is None else f"{row['fork'] * 1e3:.1f}"
        lines.append(
            f"  {n:6d} {row['faults']:7d} {med['auto'] * 1e3:9.1f} "
            f"{med['bitmask'] * 1e3:9.1f} {med['vectorized'] * 1e3:10.1f} "
            f"{fork:>9s}  {row['auto_rung']:<10s} {row['ratio']:11.2f}x "
            f"{row['identical']}"
        )
        ok &= row["identical"] and row["ratio"] <= MAX_AUTO_SLOWDOWN
        metrics[f"rungs_{n}_faults"] = row["faults"]
        for status in ("detected", "silent", "dangerous"):
            metrics[f"rungs_{n}_{status}"] = row["counts"].get(status, 0)
        metrics[f"rungs_{n}_identical"] = row["identical"]
        metrics[f"rungs_{n}_auto_rung"] = row["auto_rung"]
        for rung in RUNGS:
            metrics[f"rungs_{n}_{rung}_seconds"] = med[rung]
        if row["fork"] is not None:
            metrics[f"rungs_{n}_auto_fork{FORK_PROCESSES}_seconds"] = row["fork"]
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


if __name__ == "__main__":
    # ``--row N``: one grid row, printed as JSON (the child side of
    # :func:`child_row`).
    if sys.argv[1:2] != ["--row"] or len(sys.argv) != 3:
        sys.exit("usage: bench_rungs.py --row N_INPUTS")
    obs.enable_metrics(False)
    print(json.dumps(grid_row(int(sys.argv[2]))))
