"""E-FIG4.4 — ALPT and PALT self-checking (Figures 4.4a/4.4b, Thms 4.1/4.3).

Paper claims: "The ALPT is self-checking if the parity of its output is
checked" and "The PALT is self-checking if its 1-out-of-2 code output is
checked", proved by walking the line classes a–j.  Regenerated on the
gate-level translators: every lettered line stuck (a stem fault) and,
for the ALPT, every latch output stuck, at widths 1-4, over every input
word (for the ALPT, every word after every previous word), counting
detections and asserting no fault ever produces a wrong word without a
code violation.  The ALPT's common clock ``g`` stuck is the thesis's
special case: every latch holds and the system stops.
"""

import itertools

from _harness import record

from repro.logic.evaluate import evaluate_with_fault
from repro.logic.faults import StuckAt, enumerate_stem_faults
from repro.scal.translators import (
    CODE_LINES,
    COMMON_CLOCK,
    alpt_latches,
    alpt_network,
    palt_network,
)
from repro.seq.simulator import FlipFlopFault
from repro.system.memory import parity

WIDTHS = (1, 2, 3, 4)


def _words(width):
    return [list(bits) for bits in itertools.product((0, 1), repeat=width)]


def _alpt_word(width, previous, bits, fault):
    """The ALPT's (data, parity) word after one alternating pair."""
    stem = None if isinstance(fault, FlipFlopFault) else fault
    periods = [
        evaluate_with_fault(
            alpt_network(width),
            {**{f"Y{k}": b ^ phase for k, b in enumerate(bits)}, "phi": phase},
            stem,
        )
        for phase in (0, 1)
    ]
    state = previous + [parity(previous)]
    for k, (latch, d_line, clock, period) in enumerate(alpt_latches(width)):
        if periods[0][clock] != periods[1][clock]:
            state[k] = periods[period][d_line]
        if stem is None and fault.state_line == latch:
            state[k] = fault.value
    return state[:-1], state[-1]


def _alpt_sweep(width):
    """``(fault, detected pairs, undetected-wrong pairs)`` per fault."""
    faults = [
        f
        for f in enumerate_stem_faults(alpt_network(width), include_inputs=False)
        if f.line != COMMON_CLOCK
    ]
    faults += [
        FlipFlopFault(latch, 0, value)
        for latch, *_rest in alpt_latches(width)
        for value in (0, 1)
    ]
    rows = []
    for fault in faults:
        detected = wrong = 0
        for previous, bits in itertools.product(_words(width), repeat=2):
            data, par = _alpt_word(width, previous, bits, fault)
            if parity(data) != par:
                detected += 1
            elif (data, par) != (bits, parity(bits)):
                wrong += 1
        rows.append((fault, detected, wrong))
    return rows


def _palt_sweep(width):
    """``(fault, exposed words, undetected-wrong words)`` per fault."""
    rows = []
    for fault in enumerate_stem_faults(palt_network(width), include_inputs=False):
        exposed = wrong = 0
        for stored in _words(width):
            inputs = {f"t{k}": b for k, b in enumerate(stored)}
            inputs["tp"] = parity(stored)
            first, second = (
                evaluate_with_fault(
                    palt_network(width), {**inputs, "phi": phase}, fault
                )
                for phase in (0, 1)
            )
            ys = [(first[f"y{k}"], second[f"y{k}"]) for k in range(width)]
            g, h = (first[line] for line in CODE_LINES)
            if g == h or any(a == b for a, b in ys):
                exposed += 1
            elif [a for a, _ in ys] != stored:
                wrong += 1
        rows.append((fault, exposed, wrong))
    return rows


def _clock_stops(width):
    """The common clock stuck at either value: every latch holds."""
    return all(
        _alpt_word(width, previous, bits, StuckAt(COMMON_CLOCK, value))
        == (previous, parity(previous))
        for value in (0, 1)
        for previous, bits in itertools.product(_words(width), repeat=2)
    )


def translators_report():
    ok = True
    summary = ["Figure 4.4 gate-level translators, widths 1-4"]
    detail = []
    for width in WIDTHS:
        alpt, palt = _alpt_sweep(width), _palt_sweep(width)
        alpt_ok = all(d and not w for _f, d, w in alpt)
        palt_ok = all(e and not w for _f, e, w in palt)
        stops = _clock_stops(width)
        ok &= alpt_ok and palt_ok and stops
        summary += [
            f"width {width}:",
            f"  Theorem 4.1 (ALPT): every fault fault-secure and exposed = "
            f"{alpt_ok} ({len(alpt)} faults injected: lines a, b, d, e, f, "
            "h, j and latch outputs c, i)",
            f"  Theorem 4.1 case 5 (ALPT g s/0, s/1): every latch holds = "
            f"{stops}",
            f"  Theorem 4.3 (PALT): every fault fault-secure and exposed = "
            f"{palt_ok} ({len(palt)} faults injected: lines a-h)",
        ]
        if width == 4:
            pairs = 1 << 2 * width
            detail += [
                f"  ALPT {f.describe()}: detected on {d}/{pairs} "
                f"(previous, word) pairs, undetected-wrong {w}"
                for f, d, w in alpt[:8]
            ]
            detail.append("  ...")
            detail += [
                f"  PALT {f.describe()}: exposed on {e}/{1 << width} "
                f"words, undetected-wrong {w}"
                for f, e, w in palt[:8]
            ]
            detail.append("  ...")
    lines = summary + ["", "per-fault detail, width 4 (first 8 rows each):"]
    return "\n".join(lines + detail), ok


def test_fig4_4_translators(benchmark):
    text, ok = benchmark(translators_report)
    assert ok
    record("fig4_4_translators", text)
