"""E-RUNGS — the cold untiled/tiled grid behind ``UNTILED_MAX_INPUTS``.

For each input width, ``NETS`` fresh 120-gate, 16-output mixed nets
(the perfbench ``sweep-wide`` shape) have their collapsed single-fault
universe classified cold by ``FaultSweep.sweep``, once per column:

* ``auto`` — the shipped configuration: one whole table up to
  ``UNTILED_MAX_INPUTS`` inputs, pair tiles of ``TILE_PAIRS`` pairs
  above;
* ``untiled`` — one whole table at every width
  (``UNTILED_MAX_INPUTS`` raised past the row);
* ``tiled`` — pair tiles at every width (``UNTILED_MAX_INPUTS`` set to
  0; a row whose half fits in one tile sweeps that one tile).

The columns are forced through the module constants of
:mod:`repro.engine.backends`.  Cold means a freshly generated network
object and a new ``NetworkEngine`` per timed sweep, so compile,
baselines, stem regions and root flips are all inside the time, as
they are for a user's fresh netlist.  Each cell runs in a fresh child
interpreter (``python bench_rungs.py --row N --column C``), so nothing
that ran earlier can warm it, and its peak RSS (``VmHWM``, which a
child does not inherit from the pytest parent) is the column's own.  A
net's time is its fastest of ``REPEATS`` runs, and a cell is the
median over the row's nets.

The ``fork`` column is informational: ``auto`` again with
``processes=2`` on the rows in ``FORK_WIDTHS``, where each fork worker
derives its own tables.  Its metrics end in ``_seconds``, so no check
gates them.

The gates:

* statuses are byte-identical across the columns (and the ``fork``
  run, where there is one) on every net of every row;
* on rows of at most ``UNTILED_MAX_INPUTS`` inputs, ``auto``'s median
  is at most ``MAX_AUTO_SLOWDOWN`` times the faster of ``untiled`` and
  ``tiled``;
* on the wider rows, where ``auto`` tiles, its median is at most
  ``MAX_TILED_SLOWDOWN`` times ``untiled``'s (a sweep's items are
  tile-major there, so each tile is derived once per process);
* ``auto``'s peak RSS on the 22-input row is at most its peak RSS on
  the 20-input row (tiles bound memory where the whole table doubles
  per input).

The number of tiles ``auto`` sweeps on each row is a non-timing
metric, so the ``--check`` run fails when the cut moves without the
committed grid moving with it.  Rows of 18 to 22 inputs take a few
minutes and run only under the ``slow`` marker
(``pytest benchmarks/bench_rungs.py -m slow``).
"""

import gc
import hashlib
import json
import os
import random
import resource
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
from repro.engine import FaultSweep, NetworkEngine, backends
from repro.workloads.randomlogic import random_mixed_network

#: The gate: ``auto`` may be at most this much slower than the faster
#: column on any untiled row.
MAX_AUTO_SLOWDOWN = 1.3
#: The gate on tiled rows: ``auto`` may be at most this much slower than
#: the whole table.
MAX_TILED_SLOWDOWN = 1.1

#: Column -> the ``UNTILED_MAX_INPUTS`` it runs under (``None``: as
#: shipped).
COLUMNS = {"auto": None, "untiled": 64, "tiled": 0}
GATES, OUTPUTS = 120, 16
NETS = 5
REPEATS = 3
FAST_WIDTHS = (8, 10, 12, 13, 14, 16)
SLOW_WIDTHS = (18, 20, 21, 22)
#: Rows that also time ``auto`` fanned out over two fork workers.
FORK_WIDTHS = (14, 16, 18, 20)
FORK_PROCESSES = 2
#: The rows of the memory gate: the widest untiled one and the widest.
RSS_ROWS = (20, 22)


def grid_network(n_inputs, index):
    """Net ``index`` of the ``n_inputs`` row, a new object per call."""
    return random_mixed_network(
        random.Random(f"rungs:{n_inputs}:{index}"),
        n_inputs,
        GATES,
        n_outputs=OUTPUTS,
    )


def peak_rss_mb():
    """This process's peak RSS in MiB: ``VmHWM`` from
    ``/proc/self/status``.  On Linux ``ru_maxrss`` keeps the parent's
    peak across ``fork`` + ``exec``, so it is read only where there is
    no ``/proc``."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cold_sweep(make, universe, processes=None):
    """One cold sweep of ``universe`` on a fresh network from ``make``:
    ``(seconds, statuses)``."""
    network = make()
    gc.collect()
    start = time.perf_counter()
    sweep = FaultSweep(network, engine=NetworkEngine(network))
    result = sweep.sweep(universe, processes=processes)
    seconds = time.perf_counter() - start
    return seconds, [status for _fault, status in result]


def grid_cell(n_inputs, column):
    """One cell, in this interpreter: per net, the fastest of
    ``REPEATS`` cold sweeps and a digest of its statuses; the status
    counts; the tiles one sweep takes; and the peak RSS in MiB."""
    if COLUMNS.get(column) is not None:
        backends.UNTILED_MAX_INPUTS = COLUMNS[column]
    processes = FORK_PROCESSES if column == "fork" else None
    seconds, digests = [], []
    counts = Counter()
    faults = 0
    for index in range(NETS):
        universe = list(collapsed_single_faults(grid_network(n_inputs, index)))
        make = lambda: grid_network(n_inputs, index)  # noqa: E731
        best, statuses = float("inf"), None
        for _ in range(REPEATS):
            elapsed, got = cold_sweep(make, universe, processes)
            best = min(best, elapsed)
            if statuses is not None and got != statuses:
                raise AssertionError(f"{column} statuses changed between runs")
            statuses = got
        seconds.append(best)
        digests.append(hashlib.sha256(" ".join(statuses).encode()).hexdigest())
        counts.update(statuses)
        faults += len(universe)
    return {
        "seconds": seconds,
        "digests": digests,
        "counts": dict(counts),
        "faults": faults,
        "tiles": backends.tile_count(n_inputs),
        "peak_mb": peak_rss_mb(),
    }


def child_cell(n_inputs, column):
    """:func:`grid_cell` in a fresh interpreter, with telemetry off."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--row", str(n_inputs),
         "--column", column],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def grid_row(n_inputs, turn):
    """One row: every column's cell, the column order rotated by
    ``turn``."""
    columns = list(COLUMNS)
    columns = columns[turn % 3:] + columns[:turn % 3]
    if n_inputs in FORK_WIDTHS:
        columns.append("fork")
    cells = {column: child_cell(n_inputs, column) for column in columns}
    medians = {
        column: statistics.median(cell["seconds"])
        for column, cell in cells.items()
    }
    reference = cells["auto"]["digests"]
    return {
        "inputs": n_inputs,
        "faults": cells["auto"]["faults"],
        "counts": cells["auto"]["counts"],
        "identical": all(c["digests"] == reference for c in cells.values()),
        "tiles": {column: cell["tiles"] for column, cell in cells.items()},
        "peak_mb": {column: cell["peak_mb"] for column, cell in cells.items()},
        "medians": medians,
        "ratio": medians["auto"] / min(medians["untiled"], medians["tiled"]),
    }


def rungs_report(widths):
    rows = [grid_row(n, turn) for turn, n in enumerate(widths)]
    untiled_cut = backends.UNTILED_MAX_INPUTS
    lines = [
        "Cold untiled/tiled sweep grid: median ms over "
        f"{NETS} fresh {GATES}-gate {OUTPUTS}-output mixed nets per row "
        f"(fastest of {REPEATS} cold runs per net, one fresh interpreter "
        f"per cell; tiles of {backends.TILE_PAIRS} pairs; fork = auto "
        f"with processes={FORK_PROCESSES}, informational; peak RSS in MiB "
        "per cell)",
        f"  {'inputs':>6s} {'faults':>7s} {'auto':>9s} {'untiled':>9s} "
        f"{'tiled':>9s} {'fork':>9s} {'tiles':>5s} {'auto/fastest':>12s} "
        f"{'auto MiB':>8s} {'untiled MiB':>11s} identical",
    ]
    metrics = {}
    ok = True
    peaks = {}
    for row in rows:
        n, med = row["inputs"], row["medians"]
        fork = "-" if "fork" not in med else f"{med['fork'] * 1e3:.1f}"
        lines.append(
            f"  {n:6d} {row['faults']:7d} {med['auto'] * 1e3:9.1f} "
            f"{med['untiled'] * 1e3:9.1f} {med['tiled'] * 1e3:9.1f} "
            f"{fork:>9s} {row['tiles']['auto']:5d} {row['ratio']:11.2f}x "
            f"{row['peak_mb']['auto']:8.0f} {row['peak_mb']['untiled']:11.0f} "
            f"{row['identical']}"
        )
        ok &= row["identical"]
        if n <= untiled_cut:
            ok &= row["ratio"] <= MAX_AUTO_SLOWDOWN
        else:
            ok &= med["auto"] <= MAX_TILED_SLOWDOWN * med["untiled"]
        peaks[n] = row["peak_mb"]["auto"]
        metrics[f"rungs_{n}_faults"] = row["faults"]
        for status in ("detected", "silent", "dangerous"):
            metrics[f"rungs_{n}_{status}"] = row["counts"].get(status, 0)
        metrics[f"rungs_{n}_identical"] = row["identical"]
        metrics[f"rungs_{n}_auto_tiles"] = row["tiles"]["auto"]
        for column, seconds in med.items():
            name = f"auto_fork{FORK_PROCESSES}" if column == "fork" else column
            metrics[f"rungs_{n}_{name}_seconds"] = seconds
    memory_gate = ""
    if all(n in peaks for n in RSS_ROWS):
        narrow, wide = RSS_ROWS
        ok &= peaks[wide] <= peaks[narrow]
        memory_gate = (
            f", auto's peak RSS at {wide} inputs at most its peak at "
            f"{narrow}"
        )
    lines.append(
        f"  gate: statuses identical on every row, auto within "
        f"{MAX_AUTO_SLOWDOWN}x of the faster column up to {untiled_cut} "
        f"inputs and within {MAX_TILED_SLOWDOWN}x of untiled above"
        f"{memory_gate}: {ok}"
    )
    return "\n".join(lines), ok, metrics


def _run(benchmark, name, widths):
    text, ok, metrics = benchmark.pedantic(
        rungs_report, args=(widths,), rounds=1, iterations=1
    )
    record(name, text, metrics=metrics, elapsed=benchmark_elapsed(benchmark))
    assert ok, (
        "statuses diverged across columns, auto is more than "
        f"{MAX_AUTO_SLOWDOWN}x slower than the faster column on an "
        f"untiled row or {MAX_TILED_SLOWDOWN}x slower than untiled on a "
        f"tiled row, or tiling did not bound memory:\n{text}"
    )


def test_rungs(benchmark):
    _run(benchmark, "rungs", FAST_WIDTHS)


@pytest.mark.slow
def test_rungs_wide(benchmark):
    _run(benchmark, "rungs_wide", SLOW_WIDTHS)


if __name__ == "__main__":
    # ``--row N --column C``: one grid cell, printed as JSON (the child
    # side of :func:`child_cell`).
    args = sys.argv[1:]
    if len(args) != 4 or args[0] != "--row" or args[2] != "--column":
        sys.exit("usage: bench_rungs.py --row N_INPUTS --column COLUMN")
    obs.enable_metrics(False)
    print(json.dumps(grid_cell(int(args[1]), args[3])))
