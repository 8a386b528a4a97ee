"""Run one benchmark workload, sized to ``--seconds``, and print its metrics.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 10 --trace 0

Workloads: ``sweep-wide``, ``atpg-wide``, ``seq-scal`` and
``serve-fanout`` (``perfbench/README.md`` says why each was chosen).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with
telemetry off; with ``--trace 1`` the run records layer spans and
reports the per-layer metrics instead.  The program is imported from
``src/`` beside this directory; without it the run exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("sweep-wide", "atpg-wide", "seq-scal", "serve-fanout")

#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: A run stops repeating passes once it has taken this many times
#: ``--seconds`` (every operation still gets at least one timed pass).
MAX_SLOWDOWN = 3


def operation_count(rate: float, seconds: float) -> int:
    """Inputs per run: ``rate`` is a workload's operations per second of
    ``--seconds`` (all passes included) on the reference host, so a run
    does a fixed amount of work that takes about ``--seconds`` there."""
    return max(4, round(rate * seconds))


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _time_cold_starts(workload: str) -> List[float]:
    """Wall time of fresh interpreters that import the workload's layers
    and finish one small operation — what a user pays per CLI call."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "coldstart.py"), workload],
            cwd=ROOT,
            env=_child_env(),
            check=True,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(ops: List[dict], rate: float, setup: List[float]) -> dict:
    return {
        "op_ms": _metric(
            statistics.median(op["seconds"] * 1e3 for op in ops), "ms"
        ),
        "faults_per_s": _metric(rate, "1/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def _per_layer(ops: List[dict]) -> dict:
    """Layer times are means per operation, so build + simulate + other
    adds up to the traced run's mean operation time."""
    build, simulate, other, per_fault = [], [], [], []
    for op in ops:
        b = op["layers"].get("build", 0.0)
        s = op["layers"].get("simulate", 0.0)
        build.append(b * 1e3)
        simulate.append(s * 1e3)
        other.append((op["seconds"] - b - s) * 1e3)
        per_fault.append(s * 1e6 / op["faults"])
    med, mean = statistics.median, statistics.fmean
    return {
        "build_ms": _metric(mean(build), "ms"),
        "simulate_ms": _metric(mean(simulate), "ms"),
        "other_ms": _metric(mean(other), "ms"),
        "simulate_us_per_fault": _metric(med(per_fault), "us"),
        "faults_per_op": _metric(med(op["faults"] for op in ops), "count"),
        "sim_calls_per_op": _metric(
            med(op["sim_calls"] for op in ops), "count"
        ),
    }


def _timed_op(workload, inputs, recorder):
    """Run one operation; returns its record and the workload's result."""
    from workloads import Layers

    layers = Layers()
    t0 = time.perf_counter()
    result = workload.run(inputs, layers)
    elapsed = time.perf_counter() - t0
    sim_calls = result.get("sim_calls", 0)
    if recorder is not None:
        if workload.span is not None:
            spans = [
                e["wall"] for e in recorder.events
                if e.get("k") == "span" and e["name"] == workload.span
            ]
            layers.seconds["simulate"] = sum(spans)
            sim_calls = len(spans)
        recorder.events.clear()
    op = {
        "seconds": elapsed,
        "faults": result["faults"],
        "layers": layers.seconds,
        "sim_calls": sim_calls,
    }
    return op, result


def _run_in_process(workload, seed: int, seconds: float, trace: bool):
    """Closed loop, one operation at a time, a fresh input each time.

    The run is a fixed amount of work: ``operation_count`` inputs, so
    two commits measure exactly the same inputs for a seed.  It makes
    ``PASSES`` passes over them, every pass on freshly generated
    (identical) objects so no per-network cache carries over, and each
    operation keeps its fastest pass.  Other tenants of a shared host
    slow the CPU by tens of percent for seconds at a time; passes
    seconds apart are rarely all hit, and the minimum filters that out.
    Returns ``(ops, rate, errors, mismatches)``, the rate being the
    median over operations of faults classified per second (a mean
    would follow the few inputs whose ATPG search runs long).
    """
    from repro import obs
    from workloads import CHECK_EVERY, CHECK_OPS, PASSES, Layers

    # Warm-up: lazy imports and one-time tables are paid before timing,
    # and what they leave on the heap is frozen out of later GC passes.
    workload.run(workload.make(seed, -1), Layers())
    gc.collect()
    gc.freeze()
    recorder = obs.MemoryRecorder() if trace else None
    best: Dict[int, dict] = {}
    kept: Dict[int, tuple] = {}
    errors: Dict[int, str] = {}
    mismatches: List[str] = []

    def attempt(index: int) -> None:
        inputs = workload.make(seed, index)
        try:
            op, result = _timed_op(workload, inputs, recorder)
        except Exception as error:  # count it; the loop carries on
            errors[index] = f"op {index}: {type(error).__name__}: {error}"
            return
        if index not in best or op["seconds"] < best[index]["seconds"]:
            best[index] = op
        if index % CHECK_EVERY == 0 and index // CHECK_EVERY < CHECK_OPS:
            kept[index] = (inputs, result)

    count = operation_count(workload.rate, seconds)
    obs.set_recorder(recorder)
    try:
        # On a host far slower than the one the rates were set on, later
        # passes are cut short rather than overrunning the time limit.
        give_up = time.perf_counter() + MAX_SLOWDOWN * seconds
        for _ in range(PASSES):
            for index in range(count):
                if time.perf_counter() > give_up and index in best:
                    continue
                attempt(index)
    finally:
        obs.set_recorder(None)
    # Correctness: re-derive the kept operations through independent
    # paths, outside the timed region.
    for index, (inputs, result) in sorted(kept.items()):
        if not workload.check(inputs, result, index):
            mismatches.append(f"op {index}: outputs disagree with the reference")
    ops = [op for index, op in sorted(best.items()) if index not in errors]
    rate = statistics.median(op["faults"] / op["seconds"] for op in ops)
    return ops, rate, list(errors.values()), mismatches


def _run_serve(seed: int, seconds: float, setup: List[float]):
    """Start the server SETUP_REPEATS times (each start is one set-up
    sample), keep the last one up and drive the client loop against it."""
    import serve

    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server = serve.Server(ROOT, _child_env())
            setup.append(time.perf_counter() - t0)
        # Warm-up request: the server's lazy imports are paid untimed.
        serve.post_campaign(server.port, serve.fresh_network(seed, -1))
        return serve.run(
            server, seed, operation_count(serve.RATE, seconds),
            MAX_SLOWDOWN * seconds,
        )
    finally:
        if server is not None:
            server.stop()


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: no repro package under src/ beside perfbench/; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from workloads import IN_PROCESS

    setup: List[float] = []
    if args.workload == "serve-fanout":
        ops, rate, errors, mismatches = _run_serve(
            args.seed, args.seconds, setup
        )
    else:
        if not args.trace:
            setup = _time_cold_starts(args.workload)
        ops, rate, errors, mismatches = _run_in_process(
            IN_PROCESS[args.workload], args.seed, args.seconds,
            bool(args.trace),
        )
    for message in (errors + mismatches)[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    if len(ops) < 2:
        print("perfbench: fewer than two operations completed", file=sys.stderr)
        return 1
    metrics = _per_layer(ops) if args.trace else _end_to_end(ops, rate, setup)
    for name, m in metrics.items():
        print(f"{args.workload:13s} {name:22s} {m['value']:14.4f} {m['unit']}")
    # An operation that raised never joined `ops`; a mismatch is an
    # operation that completed with wrong outputs.
    print(json.dumps({
        "correct": not (errors or mismatches),
        "attempted": len(ops) + len(errors),
        "failed": len(errors) + len(mismatches),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
