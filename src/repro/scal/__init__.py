"""SCAL sequential design techniques (Chapter 4): alternating operation,
the dual flip-flop transform, the gate-level ALPT/PALT translators, the
complete code-conversion system (one loop network of PALT, self-dual
block and ALPT), and the Table 4.1 cost model."""

from .alternating import (
    PERIOD_CLOCK,
    AlternatingRun,
    AlternatingStep,
)
from .codeconv import CodeConversionMachine, loop_network, to_code_conversion
from .costs import (
    REYNOLDS_COST_FACTOR,
    THESIS_TABLE_4_1,
    CostReport,
    cost_factor,
    kohavi_general,
    measured_cost,
    render_cost_table,
    reynolds_general,
    translator_general,
)
from .dualff import (
    DualFlipFlopMachine,
    self_dual_machine_network,
    to_dual_flipflop,
)
from .induction import InductiveVerdict, verify_inductively
from .translators import alpt_network, palt_network
from .verify import (
    CampaignResult,
    codeconv_campaign,
    dualff_campaign,
    random_vectors,
)

__all__ = [
    "AlternatingRun",
    "CampaignResult",
    "InductiveVerdict",
    "AlternatingStep",
    "CodeConversionMachine",
    "CostReport",
    "DualFlipFlopMachine",
    "PERIOD_CLOCK",
    "REYNOLDS_COST_FACTOR",
    "THESIS_TABLE_4_1",
    "alpt_network",
    "codeconv_campaign",
    "cost_factor",
    "dualff_campaign",
    "kohavi_general",
    "loop_network",
    "measured_cost",
    "render_cost_table",
    "palt_network",
    "reynolds_general",
    "self_dual_machine_network",
    "to_code_conversion",
    "to_dual_flipflop",
    "random_vectors",
    "verify_inductively",
    "translator_general",
]
