"""Shared helpers for the reproduction benches.

Every bench regenerates one thesis table or figure: it computes the
rows, prints them (visible with ``pytest benchmarks/ -s``), and writes
them under ``benchmarks/results/`` so EXPERIMENTS.md's paper-vs-measured
records can be refreshed from disk.

Alongside the human-readable ``<name>.txt`` every bench emits a
machine-readable ``BENCH_<name>.json`` carrying the measured wall time
and any scalar metrics, so speedups can be tracked across commits
without parsing report text.

**Regression gate**: running the benches with ``--check`` (or with the
``BENCH_CHECK`` environment variable set) compares each fresh run
against the *committed* ``BENCH_<name>.json`` baseline before
overwriting it:

* non-timing metrics must be exactly equal (a changed fault count or
  coverage fraction is a correctness regression, not noise);
* the measured wall time may not exceed the baseline by more than
  ``BENCH_CHECK_FACTOR`` (default 1.6×);
* timing-flavored metrics — keys ending in ``_seconds`` or
  ``_speedup`` — are informational and never compared exactly.

A missing baseline is not a failure (new benches bootstrap their own);
the fresh JSON is always written, so a failing check still leaves the
new numbers on disk for inspection.

When the telemetry registry (:data:`repro.obs.REGISTRY`) is enabled —
the bench conftest enables it per test — each ``BENCH_<name>.json``
additionally embeds the final metrics snapshot under ``"telemetry"``,
and ``--check`` gates one anomaly on it: the campaign degradation
counter may not exceed the committed baseline's (an unexpected ladder
step down is a runtime regression even when the wall time looks fine).
"""

import json
import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Wall-time regression threshold for ``--check`` runs.
DEFAULT_CHECK_FACTOR = 1.6

#: Metric-name suffixes excluded from exact comparison (machine-speed
#: dependent, tracked but never gating).
TIMING_SUFFIXES = ("_seconds", "_speedup")


class BenchRegression(AssertionError):
    """A bench run regressed against its committed baseline."""


def check_enabled() -> bool:
    return bool(os.environ.get("BENCH_CHECK"))


def _check_factor() -> float:
    return float(os.environ.get("BENCH_CHECK_FACTOR", DEFAULT_CHECK_FACTOR))


def _load_baseline(json_path):
    try:
        with open(json_path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _counter_total(telemetry, name: str):
    """Sum of one counter across label sets in an embedded telemetry
    snapshot; ``None`` when the snapshot or metric is absent."""
    if not telemetry:
        return None
    entry = (telemetry.get("counters") or {}).get(name)
    if entry is None:
        return None
    return sum(sample.get("value", 0.0) for sample in entry.get("samples", []))


def _compare(name: str, baseline: dict, payload: dict):
    """Every regression of ``payload`` against ``baseline`` (messages)."""
    problems = []
    base_metrics = baseline.get("metrics") or {}
    new_metrics = payload.get("metrics") or {}
    for key, want in sorted(base_metrics.items()):
        if key.endswith(TIMING_SUFFIXES):
            continue
        got = new_metrics.get(key)
        if got != want:
            problems.append(
                f"{name}: metric {key!r} changed from baseline "
                f"{want!r} to {got!r}"
            )
    base_elapsed = baseline.get("elapsed_seconds")
    new_elapsed = payload.get("elapsed_seconds")
    if base_elapsed and new_elapsed:
        factor = _check_factor()
        if new_elapsed > base_elapsed * factor:
            problems.append(
                f"{name}: elapsed {new_elapsed:.4f}s exceeds baseline "
                f"{base_elapsed:.4f}s by more than {factor:.2f}x"
            )
    base_deg = _counter_total(
        baseline.get("telemetry"), "repro_campaign_degradations_total"
    )
    new_deg = _counter_total(
        payload.get("telemetry"), "repro_campaign_degradations_total"
    )
    if base_deg is not None and new_deg is not None and new_deg > base_deg:
        problems.append(
            f"{name}: campaign degradations rose from baseline "
            f"{base_deg:.0f} to {new_deg:.0f} (unexpected ladder step "
            f"down; see the embedded telemetry snapshot)"
        )
    return problems


def record(name: str, text: str, metrics=None, elapsed=None) -> str:
    """Print and persist one bench's regenerated artifact.

    Writes ``<name>.txt`` plus the machine-readable ``BENCH_<name>.json``
    (``metrics`` is a flat dict of scalars, ``elapsed`` the mean wall
    time of one report run in seconds).  Under ``--check`` /
    ``BENCH_CHECK`` the previous JSON is treated as the committed
    baseline and a :class:`BenchRegression` is raised on any metric
    change or wall-time blow-up — after the new artifacts are written.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text.rstrip() + "\n")
    payload = {
        "bench": name,
        "elapsed_seconds": elapsed,
        "metrics": metrics or {},
    }
    try:
        from repro import obs
    except ImportError:  # bare script run without src on sys.path
        obs = None
    if obs is not None and obs.metrics_enabled():
        payload["telemetry"] = obs.REGISTRY.to_json()
    json_path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    baseline = _load_baseline(json_path) if check_enabled() else None
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n===== {name} =====")
    print(text)
    if baseline is not None:
        problems = _compare(name, baseline, payload)
        if problems:
            raise BenchRegression("; ".join(problems))
    return path


def benchmark_elapsed(benchmark):
    """Mean wall time of the benchmark's measured rounds, if available."""
    try:
        return benchmark.stats.stats.mean
    except AttributeError:
        return None
