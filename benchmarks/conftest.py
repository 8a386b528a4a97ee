"""Bench-local pytest hooks: the ``--check`` regression-gate flag.

``pytest benchmarks/... --check`` compares every bench's fresh
``BENCH_<name>.json`` (written to the git-ignored
``benchmarks/results/fresh/``) against the committed baseline in
``benchmarks/results/`` (see ``_harness.record``): non-timing metrics
must match exactly and wall time may not exceed the baseline by more
than ``BENCH_CHECK_FACTOR`` (default 1.6x).  Implemented by exporting
``BENCH_CHECK`` so the harness (and bare ``python bench_x.py`` runs)
share one switch.

The telemetry registry is enabled (and cleared) around every bench so
``_harness.record`` can embed the final metrics snapshot in each
``BENCH_<name>.json``; benches that *time* hot paths disable it around
their measured sections (see ``bench_campaigns.randlogic_sweep_report``,
which also gates the disabled-telemetry overhead).
"""

import os

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _bench_telemetry():
    obs.reset()
    obs.enable_metrics(True)
    yield
    obs.reset()


def pytest_addoption(parser):
    parser.addoption(
        "--check",
        action="store_true",
        default=False,
        help="fail benches that regress against the committed "
        "benchmarks/results/BENCH_*.json baselines",
    )


def pytest_configure(config):
    if config.getoption("--check", default=False):
        os.environ["BENCH_CHECK"] = "1"
