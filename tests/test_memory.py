"""Tests for the parity memory (repro.system.memory)."""

import pytest

from repro.engine.compiled import RowForcing
from repro.system.memory import (
    MemoryFault,
    ParityMemory,
    parity,
    single_memory_faults,
)

HEALTHY = RowForcing()


def one_row(mem, fault):
    """The one-row forcing of one memory fault."""
    forcing = RowForcing()
    mem.force(forcing, 0, fault)
    return forcing


class TestParity:
    def test_even_parity(self):
        assert parity([1, 1, 0]) == 0
        assert parity([1, 0, 0]) == 1
        assert parity([]) == 0


class TestHealthyMemory:
    def test_store_load_roundtrip(self):
        mem = ParityMemory(4, address_bits=3)
        mem.store(HEALTHY, 5, [1, 0, 1, 1], parity([1, 0, 1, 1]))
        data, par = mem.load(HEALTHY, 5)
        assert data == [1, 0, 1, 1]
        assert mem.check_word(data, par)

    def test_unwritten_cell_reads_zero(self):
        mem = ParityMemory(4)
        data, par = mem.load(HEALTHY, 2)
        assert data == [0, 0, 0, 0]

    def test_address_parity_folding_invariant(self):
        """Healthy accesses: the fold cancels between store and load."""
        mem = ParityMemory(4, address_bits=4, fold_address_parity=True)
        for addr in range(8):
            word = [(addr >> i) & 1 for i in range(4)]
            mem.store(HEALTHY, addr, word, parity(word))
            data, par = mem.load(HEALTHY, addr)
            assert data == word
            assert mem.check_word(data, par)


class TestFaults:
    def test_cell_fault_breaks_parity(self):
        mem = ParityMemory(4)
        word = [1, 0, 1, 1]
        mem.store(HEALTHY, 3, word, parity(word))
        faulty = one_row(mem, MemoryFault("cell", 0, 1 - word[0], address=3))
        data, par = mem.load(faulty, 3)
        assert not mem.check_word(data, par)

    def test_parity_bit_cell_fault_detected(self):
        mem = ParityMemory(4)
        word = [1, 0, 1, 1]
        mem.store(HEALTHY, 3, word, parity(word))
        stuck = MemoryFault("cell", 4, 1 - parity(word), address=3)
        faulty = one_row(mem, stuck)
        data, par = mem.load(faulty, 3)
        assert not mem.check_word(data, par)

    def test_data_line_fault_affects_all_reads(self):
        mem = ParityMemory(4)
        for addr in (0, 1):
            word = [addr, 1, 0, 0]
            mem.store(HEALTHY, addr, word, parity(word))
        faulty = one_row(mem, MemoryFault("data_line", 1, 0))
        for addr in (0, 1):
            data, par = mem.load(faulty, addr)
            assert not mem.check_word(data, par)

    def test_address_line_fault_detected_on_pre_fault_words(self):
        """Dussault's folding: a word written with a healthy address and
        read through a stuck address line shows a parity violation."""
        mem = ParityMemory(4, address_bits=3, fold_address_parity=True)
        word = [1, 1, 0, 0]
        mem.store(HEALTHY, 0b010, word, parity(word))  # healthy write
        faulty = one_row(mem, MemoryFault("address_line", 1, 0))
        # Reading 0b010 now actually reads cell 0b000 (unwritten) with
        # address parity of the *presented* address folded out.
        data, par = mem.load(faulty, 0b010)
        assert not mem.check_word(data, par)

    def test_consistent_stuck_address_line_is_benign(self):
        """If both the write and the read go through the same stuck
        line, the system sees a permuted but consistent address space —
        functionally correct, hence not flagged."""
        mem = ParityMemory(4, address_bits=3, fold_address_parity=True)
        faulty = one_row(mem, MemoryFault("address_line", 0, 1))
        word = [0, 1, 0, 1]
        mem.store(faulty, 2, word, parity(word))
        data, par = mem.load(faulty, 2)
        assert data == word
        assert mem.check_word(data, par)

    @pytest.mark.parametrize(
        "fault",
        [
            MemoryFault("data_line", 4, 1),  # bit 3 is the parity bit
            MemoryFault("data_line", -1, 1),
            MemoryFault("cell", 5, 0, address=0),
            MemoryFault("cell", 0, 0, address=8),
            MemoryFault("cell", 0, 0, address=-1),
            MemoryFault("address_line", 3, 1),
            MemoryFault("word_line", 0, 1),
        ],
        ids=lambda fault: fault.describe(),
    )
    def test_out_of_range_fault_rejected(self, fault):
        """A fault on a site the memory does not have would force a key
        nothing reads and count as a silent fault; it is refused."""
        mem = ParityMemory(3, address_bits=3)
        with pytest.raises(ValueError, match="no such site"):
            one_row(mem, fault)

    def test_last_sites_accepted(self):
        mem = ParityMemory(3, address_bits=3)
        mem.store(HEALTHY, 7, [0, 0, 0], 0)  # stored parity bit: the fold, 1
        for fault in (
            MemoryFault("data_line", 3, 0),
            MemoryFault("cell", 3, 0, address=7),
        ):
            assert mem.load(one_row(mem, fault), 7) == ([0, 0, 0], 1)
        # Address line 2 stuck at 0 sends the read of 7 to cell 3.
        faulty = one_row(mem, MemoryFault("address_line", 2, 0))
        assert not mem.check_word(*mem.load(faulty, 7))

    def test_fault_universe_size(self):
        faults = single_memory_faults(4, 3, addresses=(0,))
        kinds = {f.kind for f in faults}
        assert kinds == {"cell", "data_line", "address_line"}
        # (4+1 bits) * 2 values * (1 data_line + 1 cell) + 3*2 address.
        assert len(faults) == 5 * 2 * 2 + 6

    def test_describe(self):
        assert "address_line" in MemoryFault("address_line", 2, 1).describe()
        assert "cell[7]" in MemoryFault("cell", 0, 1, address=7).describe()
