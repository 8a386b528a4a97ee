"""E-FIG4.4 — ALPT and PALT self-checking (Figures 4.4a/4.4b, Thms 4.1/4.3).

Paper claims: "The ALPT is self-checking if the parity of its output is
checked" and "The PALT is self-checking if its 1-out-of-2 code output is
checked", proved by walking the line classes a–j.  Regenerated: an
exhaustive per-line-class stuck-at injection over all input words,
counting detections and asserting no fault ever produces a wrong word
without a code violation.
"""

from _harness import record

from repro.checkers.tworail import code_valid
from repro.engine.compiled import RowForcing
from repro.scal.translators import ALPT, PALT, TranslatorFault
from repro.system.memory import parity

WIDTH = 4


def _alpt_sites():
    sites = [(s, k) for s in "abcde" for k in range(WIDTH)]
    return sites + [("f", 0), ("i", 0), ("h", 0), ("j", 0)]


def _palt_sites():
    sites = [(s, k) for s in "abcde" for k in range(WIDTH)]
    return sites + [("f", 0), ("g", 0), ("h", 0)]


def translators_report():
    # ALPT sweep.
    alpt_rows = []
    alpt_ok = True
    for site, index in _alpt_sites():
        for value in (0, 1):
            alpt = ALPT(WIDTH)
            forcing = RowForcing()
            alpt.force(forcing, 0, TranslatorFault(site, index, value))
            detected = wrong_undetected = 0
            for word in range(1 << WIDTH):
                bits = [(word >> i) & 1 for i in range(WIDTH)]
                comp = [1 - b for b in bits]
                data, par = alpt.feed_pair(forcing, bits, comp)
                bad_code = parity(data) != par
                wrong = data != bits or par != parity(bits)
                if bad_code:
                    detected += 1
                elif wrong:
                    wrong_undetected += 1
            if wrong_undetected:
                alpt_ok = False
            alpt_rows.append(
                f"  ALPT {site}[{index}] s/{value}: detected on {detected}/16 "
                f"words, undetected-wrong {wrong_undetected}"
            )
    # PALT sweep.
    palt_ok = True
    palt_rows = []
    for site, index in _palt_sites():
        for value in (0, 1):
            palt = PALT(WIDTH)
            forcing = RowForcing()
            palt.force(forcing, 0, TranslatorFault(site, index, value))
            exposed = wrong_undetected = 0
            for word in range(1 << WIDTH):
                stored = [(word >> i) & 1 for i in range(WIDTH)]
                code = palt.code_output(forcing, stored, parity(stored))
                first = palt.outputs_for_period(forcing, stored, 0)
                second = palt.outputs_for_period(forcing, stored, 1)
                alternates = all(b == 1 - a for a, b in zip(first, second))
                detected = (not code_valid(code)) or not alternates
                wrong = first != stored
                if detected:
                    exposed += 1
                elif wrong:
                    wrong_undetected += 1
            if wrong_undetected:
                palt_ok = False
            palt_rows.append(
                f"  PALT {site}[{index}] s/{value}: exposed on {exposed}/16 "
                f"words, undetected-wrong {wrong_undetected}"
            )
    summary = [
        f"Figure 4.4 translators, width {WIDTH}",
        f"Theorem 4.1 (ALPT): every line-class fault fault-secure = {alpt_ok} "
        f"({len(alpt_rows)} faults injected)",
        f"Theorem 4.3 (PALT): every line-class fault fault-secure = {palt_ok} "
        f"({len(palt_rows)} faults injected)",
        "",
        "per-fault detail (first 8 rows each):",
        *alpt_rows[:8],
        "  ...",
        *palt_rows[:8],
        "  ...",
    ]
    return "\n".join(summary), alpt_ok and palt_ok


def test_fig4_4_translators(benchmark):
    text, ok = benchmark(translators_report)
    assert ok
    record("fig4_4_translators", text)
