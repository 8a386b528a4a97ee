"""The code translators of the code-conversion technique (Section 4.3),
as gate-level networks (Figures 4.4a/4.4b).

Every line the figures letter is one named gate (``alpt_a0``,
``palt_f``, ...), so a translator fault is an ordinary stem fault of the
code-conversion loop network (:mod:`repro.scal.codeconv`), collapsed
and forced like any other.  The ALPT's latches are state elements
outside the network: their outputs (lines ``c`` and ``i``) stuck are
:class:`~repro.seq.simulator.FlipFlopFault`\\ s.

* **ALPT** (Alternating Logic to Parity Translator, Figure 4.4a): takes
  the alternating pair ``(Y, Ȳ)`` the self-dual block produces over two
  periods and emits an (n+1)-bit parity code word for storage.  Input
  line ``a`` fans out to the data latch's D line ``b`` and the
  parity-tree input ``e``; the tree's output ``f`` is the parity
  latch's D line.  The common clock stem ``g`` (the period clock) drives
  each data latch's clock ``d`` and, through ``h``, the inverted parity
  latch clock ``j``.  Every latch is edge-triggered on its clock's rise
  (:func:`alpt_latches`): a data latch loads the first (true) period's
  value, the parity latch the second (complemented) period's.  With an
  even word size the parity of ``Ȳ`` equals the parity of ``Y``; for odd
  sizes the tree also reads the clock ``g``, which is 1 in the second
  period — the thesis's "convert an odd word size to even word size or
  change the parity" remark.
* **PALT** (Parity to Alternating Logic Translator, Figure 4.4b): takes
  a stored code word and regenerates the alternating pair by XOR-ing
  each stored-data line ``a`` with its branch ``c``/``d`` of the period
  clock; the XOR outputs ``b`` are the block's present-state lines
  ``y*``.  Each also feeds the parity tree through ``e``, whose output
  ``f`` is the complement of the recomputed parity.  The 1-out-of-2 code
  is ``g`` (the stored parity bit) and ``h`` (from ``f``), read in the
  first period — the self-checking hook Theorem 4.3 relies on.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from ..logic.gates import GateKind
from ..logic.network import Gate, Network
from .alternating import PERIOD_CLOCK

#: The ALPT's common clock stem: stuck, it stops the whole system
#: (Theorem 4.1 case 5, "all clock fanout is from one node").
COMMON_CLOCK = "alpt_g"

#: The PALT's 1-out-of-2 code lines.
CODE_LINES = ("palt_g", "palt_h")


def stored_lines(width: int) -> Tuple[str, ...]:
    """The PALT's inputs from memory: the data bits, then the parity."""
    return tuple(f"t{k}" for k in range(width)) + ("tp",)


def alpt_latches(width: int) -> List[Tuple[str, str, str, int]]:
    """``(output line, D line, clock line, period)`` of each ALPT latch,
    the n data latches then the parity latch; ``period`` is the one
    whose D value the clock's rise loads."""
    latches = [(f"alpt_c{k}", f"alpt_b{k}", f"alpt_d{k}", 0) for k in range(width)]
    return latches + [("alpt_i", "alpt_f", "alpt_j", 1)]


@functools.lru_cache(maxsize=None)
def alpt_network(width: int, clock: str = PERIOD_CLOCK) -> Network:
    """Figure 4.4a: inputs ``Y*`` and the period clock; outputs every
    latch's D line and clock line (:func:`alpt_latches`).  Built once per
    width: every code-conversion machine composes it."""
    gates = [Gate(COMMON_CLOCK, GateKind.BUF, (clock,))]
    for k in range(width):
        gates += [
            Gate(f"alpt_a{k}", GateKind.BUF, (f"Y{k}",)),
            Gate(f"alpt_b{k}", GateKind.BUF, (f"alpt_a{k}",)),
            Gate(f"alpt_d{k}", GateKind.BUF, (COMMON_CLOCK,)),
            Gate(f"alpt_e{k}", GateKind.BUF, (f"alpt_a{k}",)),
        ]
    tree = tuple(f"alpt_e{k}" for k in range(width))
    gates += [
        Gate(
            "alpt_f",
            GateKind.XOR,
            tree + ((COMMON_CLOCK,) if width % 2 else ()),
        ),
        Gate("alpt_h", GateKind.BUF, (COMMON_CLOCK,)),
        Gate("alpt_j", GateKind.NOT, ("alpt_h",)),
    ]
    inputs = [f"Y{k}" for k in range(width)] + [clock]
    outputs = [line for latch in alpt_latches(width) for line in latch[1:3]]
    return Network(inputs, gates, outputs, name=f"alpt{width}")


@functools.lru_cache(maxsize=None)
def palt_network(width: int, clock: str = PERIOD_CLOCK) -> Network:
    """Figure 4.4b: inputs the stored word (:func:`stored_lines`) and the
    period clock; outputs the alternating lines ``y*`` and the code
    lines (:data:`CODE_LINES`).  Built once per width, like the ALPT."""
    stored = stored_lines(width)
    gates = []
    for k in range(width):
        gates += [
            Gate(f"palt_a{k}", GateKind.BUF, (stored[k],)),
            Gate(f"palt_c{k}", GateKind.BUF, (clock,)),
            Gate(f"palt_d{k}", GateKind.BUF, (f"palt_c{k}",)),
            Gate(f"y{k}", GateKind.XOR, (f"palt_a{k}", f"palt_d{k}")),
            Gate(f"palt_e{k}", GateKind.BUF, (f"y{k}",)),
        ]
    tree = tuple(f"palt_e{k}" for k in range(width))
    gates += [
        Gate("palt_f", GateKind.XNOR, tree),
        Gate("palt_g", GateKind.BUF, (stored[-1],)),
        Gate("palt_h", GateKind.BUF, ("palt_f",)),
    ]
    outputs = [f"y{k}" for k in range(width)] + list(CODE_LINES)
    return Network(list(stored) + [clock], gates, outputs, name=f"palt{width}")
