"""repro — Self-Checking Alternating Logic (SCAL).

A full reproduction of Woodard & Metze's ISCA 1978 work on designing
self-checking digital systems with alternating logic (time-redundant
single-stuck-at fault detection), built from the 1977 thesis text.

Package map
-----------
``repro.logic``     gate-level substrate: netlists, truth tables, faults,
                    self-duality, two-level synthesis.
``repro.core``      the paper's contribution: the SCAL oracle, conditions
                    A–E, Algorithm 3.1, test generation, redundancy.
``repro.engine``    compiled fault-simulation engine: flat op programs,
                    word-parallel / pointwise / sampled backends,
                    batched fault sweeps with cone-pruned re-simulation.
``repro.seq``       sequential machines and Kohavi-style synthesis.
``repro.scal``      dual flip-flop and code-conversion SCAL machines,
                    ALPT/PALT translators, Table 4.1 cost model.
``repro.checkers``  dual-rail TSCC, XOR checkers, mixed checker design,
                    hardcore clock-disable analysis (Theorem 5.2).
``repro.modules``   minority modules (Theorems 6.2/6.3), self-dual
                    adder/shifter/status storage.
``repro.system``    parity memory, the SCAL CPU and Figure 7.3 computer,
                    ADR / TMR / Figure 7.5 comparisons, reliability.
``repro.workloads`` thesis example circuits and random populations.

Quickstart
----------
>>> from repro.logic import parse_expression, network_is_self_dual
>>> from repro.core import analyze_network, is_scal_network
>>> net = parse_expression("a b | b c | a c", inputs=["a", "b", "c"])
>>> network_is_self_dual(net)       # majority is self-dual
True
>>> analyze_network(net).is_self_checking
True
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "GateKind": "logic.gates",
    "Network": "logic.network",
    "NetworkBuilder": "logic.network",
    "ScalSimulator": "core.simulate",
    "StuckAt": "logic.faults",
    "TruthTable": "logic.truthtable",
    "analyze_network": "core.analysis",
    "checkers": None,
    "core": None,
    "engine": None,
    "is_scal_network": "core.simulate",
    "logic": None,
    "modules": None,
    "parse_expression": "logic.parse",
    "parse_expressions": "logic.parse",
    "scal": None,
    "seq": None,
    "system": None,
    "workloads": None,
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
