"""Seed-circuit specifications for synthesis campaigns.

A :class:`SynthSpec` is the target contract a campaign evolves toward:
named inputs (the alternation variable ``phi`` last, where present) and
one truth table per output.  The built-in registry covers small
functions made self-dual by the Yamamoto construction
(:func:`repro.logic.selfdual.self_dualize_table`) plus functions that
are self-dual outright (3-input majority, 3-input parity), so a perfect
candidate is simultaneously functionally correct *and* alternating.

Each spec also carries a two-level reference realization
(:func:`repro.logic.synthesis.sop_network`) — the Yamamoto-style SCAL
network that hosts the campaign's fork workers and anchors the
Table 4.1 cost comparison in the Pareto report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Tuple

from ..engine.backends import engine_for
from ..logic.network import Network
from ..logic.selfdual import PERIOD_CLOCK, self_dualize_table
from ..logic.synthesis import sop_network
from ..logic.truthtable import TruthTable


@dataclasses.dataclass(frozen=True)
class SynthSpec:
    """One synthesis target: named inputs and per-output truth tables."""

    name: str
    input_names: Tuple[str, ...]
    tables: Tuple[int, ...]
    description: str = ""

    @property
    def n_inputs(self) -> int:
        return len(self.input_names)

    @property
    def points(self) -> int:
        return 1 << self.n_inputs

    def fingerprint(self) -> str:
        payload = json.dumps(
            {
                "name": self.name,
                "inputs": list(self.input_names),
                "tables": list(self.tables),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def reference_network(self) -> Network:
        """The two-level reference realization; multi-output specs
        synthesize one SOP cone per output into a shared builder over
        the common inputs."""
        if len(self.tables) == 1:
            return sop_network(
                TruthTable(self.n_inputs, self.tables[0], self.input_names),
                names=self.input_names,
                network_name=f"spec_{self.name}",
            )
        from ..logic.network import NetworkBuilder

        builder = NetworkBuilder(list(self.input_names), name=f"spec_{self.name}")
        outs = []
        for k, bits in enumerate(self.tables):
            cone = sop_network(
                TruthTable(self.n_inputs, bits, self.input_names),
                names=self.input_names,
                output_name=f"F{k}",
                network_name=f"spec_{self.name}_{k}",
            )
            rename = {name: name for name in self.input_names}
            for gate in cone.gates:
                rename[gate.name] = builder.add(
                    f"o{k}_{gate.name}",
                    gate.kind,
                    [rename[src] for src in gate.inputs],
                )
            outs.append(rename[cone.outputs[0]])
        return builder.build(outs)


def _self_dualized(name: str, n: int, bits: int, description: str) -> SynthSpec:
    base = TruthTable(n, bits, tuple(f"x{i}" for i in range(n)))
    table = self_dualize_table(base, PERIOD_CLOCK)
    return SynthSpec(
        name=name,
        input_names=tuple(table.names),
        tables=(table.bits,),
        description=description,
    )


#: Built-in seed-circuit specs, keyed by CLI name.
SPECS: Dict[str, SynthSpec] = {
    "and2": _self_dualized(
        "and2", 2, 0b1000, "2-input AND, Yamamoto self-dualized with phi"
    ),
    "or2": _self_dualized(
        "or2", 2, 0b1110, "2-input OR, Yamamoto self-dualized with phi"
    ),
    "xor2": _self_dualized(
        "xor2",
        2,
        0b0110,
        "2-input XOR self-dualized with phi (3-input odd parity)",
    ),
    "maj3": SynthSpec(
        name="maj3",
        input_names=("x0", "x1", "x2"),
        tables=(0b11101000,),
        description="3-input majority (self-dual without a clock variable)",
    ),
}


def spec_from_network(network: Network) -> SynthSpec:
    """Derive the spec an existing network realizes (repair mode): its
    exhaustive output tables become the contract the repaired candidate
    must match."""
    engine = engine_for(network)
    return SynthSpec(
        name=f"net:{network.name}",
        input_names=tuple(network.inputs),
        tables=tuple(engine.bitmask.output_bits(None)),
        description=f"tables of {network.name!r}",
    )
