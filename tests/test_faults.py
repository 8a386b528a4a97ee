"""Unit tests for fault models (repro.logic.faults)."""

import pytest

from repro.engine.compiled import compile_network
from repro.logic.faults import (
    MultipleFault,
    PinStuckAt,
    StuckAt,
    enumerate_pin_faults,
    enumerate_single_faults,
    enumerate_stem_faults,
    fault_overrides,
)
from repro.logic.gates import GateKind
from repro.logic.network import NetworkBuilder


def folded_universe(net):
    """The engine's uncollapsed universe, dead lines kept, by name: the
    naive enumeration less the pins folded into non-fanout stems."""
    comp = compile_network(net)
    return list(
        map(comp.fault, comp.universe_ids(collapse=False, live_only=False))
    )


def fan_net():
    b = NetworkBuilder(["a", "b"])
    n1 = b.add("n1", GateKind.NAND, ["a", "b"])
    b.add("o1", GateKind.NOT, [n1])
    b.add("o2", GateKind.AND, [n1, "a"])
    return b.build(["o1", "o2"])


class TestFaultObjects:
    def test_stuck_at_validation(self):
        with pytest.raises(ValueError):
            StuckAt("x", 2)

    def test_pin_validation(self):
        with pytest.raises(ValueError):
            PinStuckAt("g", -1, 0)
        with pytest.raises(ValueError):
            PinStuckAt("g", 0, 5)

    def test_describe(self):
        assert StuckAt("n1", 0).describe() == "n1 s/0"
        assert PinStuckAt("g", 2, 1).describe() == "g.pin2 s/1"
        mf = MultipleFault((StuckAt("a", 1), StuckAt("b", 1)))
        assert "a s/1" in mf.describe() and "b s/1" in mf.describe()

    def test_unidirectional(self):
        uni = MultipleFault((StuckAt("a", 1), StuckAt("b", 1)))
        assert uni.is_unidirectional()
        mixed = MultipleFault((StuckAt("a", 1), StuckAt("b", 0)))
        assert not mixed.is_unidirectional()


class TestEnumeration:
    def test_stem_fault_count(self):
        net = fan_net()
        stems = list(enumerate_stem_faults(net))
        # 2 inputs + 3 gates, two polarities each.
        assert len(stems) == 10

    def test_stems_without_inputs(self):
        net = fan_net()
        stems = list(enumerate_stem_faults(net, include_inputs=False))
        assert len(stems) == 6
        assert all(f.line not in ("a", "b") for f in stems)

    def test_pin_fault_count(self):
        net = fan_net()
        pins = list(enumerate_pin_faults(net))
        # pins: n1 has 2, o1 has 1, o2 has 2 -> 5 pins * 2 polarities.
        assert len(pins) == 10

    def test_single_fault_collapsing(self):
        net = fan_net()
        collapsed = folded_universe(net)
        full = enumerate_single_faults(net)
        assert len(collapsed) < len(full)
        # n1 fans out, so faults on its two branch pins must survive.
        surviving_pins = [
            f for f in collapsed if isinstance(f, PinStuckAt)
        ]
        branch_pins = {
            (f.gate, f.pin_index)
            for f in surviving_pins
        }
        assert ("o1", 0) in branch_pins
        assert ("o2", 0) in branch_pins

    def test_collapse_drops_single_branch_pins(self):
        b = NetworkBuilder(["a"])
        b.add("n1", GateKind.NOT, ["a"])
        b.add("n2", GateKind.NOT, ["n1"])
        net = b.build(["n2"])
        collapsed = folded_universe(net)
        # n1 -> n2 pin is equivalent to the n1 stem; a -> n1 likewise.
        assert all(not isinstance(f, PinStuckAt) for f in collapsed)

    def test_no_pins_option(self):
        net = fan_net()
        faults = enumerate_single_faults(net, include_pins=False)
        assert all(isinstance(f, StuckAt) for f in faults)


class TestOverrides:
    def test_stem_override(self):
        stems, pins = fault_overrides(StuckAt("n1", 1))
        assert stems == {"n1": 1} and pins == {}

    def test_pin_override(self):
        stems, pins = fault_overrides(PinStuckAt("o2", 1, 0))
        assert stems == {} and pins == {("o2", 1): 0}

    def test_multiple_override(self):
        mf = MultipleFault((StuckAt("a", 0), PinStuckAt("o2", 0, 1)))
        stems, pins = fault_overrides(mf)
        assert stems == {"a": 0} and pins == {("o2", 0): 1}
