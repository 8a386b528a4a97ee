"""E-COVER — single-fault coverage of SCAL networks (Section 2.4).

Paper claim: alternating logic "provides self-checking for single
faults" — every single stuck-at either never corrupts the output or is
caught as a nonalternating pair; an unchecked network detects nothing.
Regenerated over a population of random self-dual two-level networks,
with the DESIGN.md fault-granularity ablation (stem-only vs stem+pin
universes) and the broken Figure 3.4 network as the contrast case.
"""

import random

from _harness import benchmark_elapsed, record

from repro.core.simulate import fault_coverage
from repro.engine.compiled import compile_network
from repro.workloads.fig34 import fig34_network
from repro.workloads.randomlogic import random_alternating_network


def coverage_report():
    rnd = random.Random(91)
    stem_rows = []
    pin_rows = []
    dangerous_total = 0
    networks = 12
    for _ in range(networks):
        net = random_alternating_network(rnd, 3)
        stems = compile_network(net).universe_ids(
            include_pins=False, collapse=False
        )
        stem = fault_coverage(net, stems)
        both = fault_coverage(net)
        stem_rows.append(stem)
        pin_rows.append(both)
        dangerous_total += stem["dangerous"] + both["dangerous"]

    def mean(rows, key):
        return sum(r[key] for r in rows) / len(rows)

    broken = fault_coverage(fig34_network())
    lines = [
        "Section 2.4 - SCAL single-fault coverage "
        f"({networks} random self-dual two-level networks)",
        f"  stem-only universe:  detected {mean(stem_rows, 'detected'):.3f}  "
        f"silent {mean(stem_rows, 'silent'):.3f}  "
        f"dangerous {mean(stem_rows, 'dangerous'):.3f}",
        f"  stem+pin universe:   detected {mean(pin_rows, 'detected'):.3f}  "
        f"silent {mean(pin_rows, 'silent'):.3f}  "
        f"dangerous {mean(pin_rows, 'dangerous'):.3f}",
        f"  total dangerous faults across the population: "
        f"{dangerous_total:.0f} (thesis: complete single-fault coverage)",
        "",
        "contrast - the unfixed Figure 3.4 network:",
        f"  detected {broken['detected']:.3f}  silent {broken['silent']:.3f}  "
        f"dangerous {broken['dangerous']:.3f} "
        "(the line-20 fault slips through)",
    ]
    ok = dangerous_total == 0 and broken["dangerous"] > 0
    metrics = {
        "networks": networks,
        "stem_detected_mean": mean(stem_rows, "detected"),
        "pin_detected_mean": mean(pin_rows, "detected"),
        "dangerous_total": dangerous_total,
        "broken_fig34_dangerous": broken["dangerous"],
    }
    return "\n".join(lines), ok, metrics


def test_fault_coverage(benchmark):
    text, ok, metrics = benchmark.pedantic(
        coverage_report, rounds=3, iterations=1
    )
    assert ok
    record(
        "fault_coverage",
        text,
        metrics=metrics,
        elapsed=benchmark_elapsed(benchmark),
    )
