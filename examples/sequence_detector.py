#!/usr/bin/env python
"""The 0101 sequence detector three ways (Chapter 4, Table 4.1).

Builds Kohavi's overlapping 0101 detector as:

* the plain synthesized machine (Figure 4.8),
* Reynolds' dual flip-flop SCAL machine (Figure 4.9),
* the code-conversion (translator) SCAL machine (Figure 4.10),

verifies all three agree on a random serial input stream, shows fault
detection in action (inject a stuck line into the SCAL versions and
watch the alternation checker fire), and prints the Table 4.1 cost
comparison, paper numbers beside measured ones.

Run:  python examples/sequence_detector.py
"""

import random

from repro.logic.faults import StuckAt
from repro.scal.costs import (
    THESIS_TABLE_4_1,
    kohavi_general,
    measured_cost,
    render_cost_table,
    reynolds_general,
    translator_general,
)
from repro.workloads.detectors import (
    kohavi_0101,
    kohavi_circuit,
    reynolds_0101,
    translator_0101,
)


def main() -> None:
    rnd = random.Random(2026)
    bits = [rnd.randint(0, 1) for _ in range(32)]
    vectors = [(b,) for b in bits]
    machine = kohavi_0101()
    reference = [z for (z,) in machine.run(vectors)]
    print("input :", "".join(map(str, bits)))
    print("expect:", "".join(map(str, reference)))

    kohavi = kohavi_circuit()
    got_kohavi = [z for (z,) in kohavi.run_symbols(vectors)]
    print("kohavi:", "".join(map(str, got_kohavi)), "(plain machine)")

    reynolds = reynolds_0101()
    run = reynolds.run(vectors)
    got_reynolds = [z for (z,) in reynolds.decoded_outputs(run)]
    print("dualff:", "".join(map(str, got_reynolds)),
          f"(alternation checked, fault detected: {run.detected})")

    translator = translator_0101()
    run_t = translator.run(vectors)
    got_translator = [z for (z,) in translator.decoded_outputs(run_t)]
    print("transl:", "".join(map(str, got_translator)),
          f"(1-out-of-2 code checked, fault detected: {run_t.detected})")

    assert got_kohavi == got_reynolds == got_translator == reference

    # Inject a fault into the dual-FF machine's combinational block.
    print("\n--- injecting Z0 stuck-at-1 into the dual flip-flop machine ---")
    bad = reynolds.run(vectors, [StuckAt("Z0", 1)])
    print(f"detected: {bad.detected} at logical step {bad.first_detection}")

    # Inject a stored-state bit fault into the translator machine.
    print("--- injecting a memory data-line fault into the translator machine ---")
    from repro.system.memory import MemoryFault

    stuck_line = MemoryFault("data_line", 0, 1)
    bad_t = translator.run(vectors, [stuck_line])
    print(f"detected: {bad_t.detected} at logical step {bad_t.first_detection}")

    # Table 4.1 — paper vs measured.
    print("\n" + render_cost_table(list(THESIS_TABLE_4_1), "Table 4.1 (thesis)"))
    n = kohavi.circuit.flip_flop_count()
    m = kohavi.circuit.gate_count()
    measured = [
        measured_cost("Kohavi measured", n, kohavi.circuit.network),
        measured_cost(
            "Reynolds measured",
            reynolds.flip_flop_count(),
            reynolds.circuit.network,
        ),
        measured_cost(
            "Translator measured",
            translator.flip_flop_count(),
            translator.network,
            extra_gates=translator.encoding.width + 2,
        ),
    ]
    print("\n" + render_cost_table(measured, "Table 4.1 (this reproduction)"))
    print("\n" + render_cost_table(
        [kohavi_general(n, m), reynolds_general(n, m), translator_general(n, m)],
        f"Table 4.1 general formulas at n={n}, m={m}",
    ))


if __name__ == "__main__":
    main()
