"""E-FIG4.5 — the complete code-conversion system (Figure 4.5, Thm 4.4).

Paper claim: the self-dual block + ALPT + parity memory + PALT loop is a
self-checking sequential machine storing only n+1 bits.  Regenerated:
functional equivalence with the symbolic machine on a long input stream,
and a full single-fault campaign across all four units (combinational
stems, ALPT lines, PALT lines, memory cells/lines/address lines) with
zero undetected wrong outputs.
"""

import random

from _harness import record

from repro.scal.codeconv import to_code_conversion
from repro.scal.verify import codeconv_campaign
from repro.workloads.detectors import kohavi_0101


def codeconv_report():
    rnd = random.Random(41)
    machine = kohavi_0101()
    cc = to_code_conversion(machine)
    vectors = [(rnd.randint(0, 1),) for _ in range(50)]
    reference = machine.run(vectors)
    healthy = cc.run(vectors)
    equivalent = cc.decoded_outputs(healthy) == reference and not healthy.detected
    # Every stem, translator line class and memory fault, uncollapsed.
    result = codeconv_campaign(cc, vectors, collapse=False)
    lines = [
        "Figure 4.5 - code-conversion sequential machine (0101 detector)",
        f"storage: {cc.flip_flop_count()} bits (n+1) vs 2n = "
        f"{2 * cc.encoding.width} for dual flip-flops",
        f"functional equivalence over {len(vectors)} steps: {equivalent}",
        f"single-fault campaign: {result.total} faults -> detected "
        f"{result.detected}, silent(harmless) {result.silent}, "
        f"DANGEROUS {result.dangerous}",
        *(f"  DANGEROUS: {label}" for label in result.dangerous_faults),
    ]
    return "\n".join(lines), equivalent and result.dangerous == 0


def test_fig4_5_codeconv(benchmark):
    text, ok = benchmark.pedantic(codeconv_report, rounds=3, iterations=1)
    assert ok
    record("fig4_5_codeconv", text)
