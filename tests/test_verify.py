"""Tests for sequential fault campaigns (repro.scal.verify)."""

import random
import sys
import threading

import pytest

from repro.scal.codeconv import to_code_conversion
from repro.scal.dualff import to_dual_flipflop
from repro.scal.verify import (
    codeconv_campaign,
    dualff_campaign,
    random_vectors,
)
from repro.workloads.detectors import kohavi_0101
from repro.workloads.randomlogic import random_machine


class TestDualffCampaign:
    def test_fault_secure(self, detector):
        machine = to_dual_flipflop(detector)
        vectors = random_vectors(detector, 40, seed=1)
        result = dualff_campaign(machine, vectors)
        assert result.is_fault_secure, result.dangerous_faults
        assert result.detected > 0
        assert result.total == result.detected + result.silent

    def test_latency_reported(self, detector):
        machine = to_dual_flipflop(detector)
        result = dualff_campaign(machine, random_vectors(detector, 40, 2))
        assert result.mean_detection_latency is not None
        assert result.mean_detection_latency >= 0

    def test_flip_flop_faults_included(self, detector):
        machine = to_dual_flipflop(detector)
        vectors = random_vectors(detector, 30, 3)
        with_ffs = dualff_campaign(machine, vectors, include_flip_flops=True)
        without = dualff_campaign(machine, vectors, include_flip_flops=False)
        assert with_ffs.total > without.total

    def test_summary_text(self, detector):
        machine = to_dual_flipflop(detector)
        text = dualff_campaign(machine, random_vectors(detector, 20, 4)).summary()
        assert "DANGEROUS 0" in text


class TestCodeconvCampaign:
    def test_fault_secure(self, detector):
        machine = to_code_conversion(detector)
        vectors = random_vectors(detector, 40, seed=5)
        result = codeconv_campaign(machine, vectors)
        assert result.is_fault_secure, result.dangerous_faults
        assert result.detected > 0

    def test_covers_all_units(self, detector):
        machine = to_code_conversion(detector)
        vectors = random_vectors(detector, 30, seed=6)
        # Raw universe: comb stems + 2*(5w+4) alpt + 2*(5w+3) palt +
        # memory faults.
        raw = codeconv_campaign(machine, vectors, collapse=False)
        assert raw.total > 100
        # Collapsed default sweeps fewer runs but keeps the verdict.
        collapsed = codeconv_campaign(machine, vectors)
        assert 0 < collapsed.total <= raw.total
        assert collapsed.is_fault_secure == raw.is_fault_secure


class TestRandomVectors:
    def test_deterministic(self, detector):
        assert random_vectors(detector, 10, 7) == random_vectors(detector, 10, 7)

    def test_width_matches_machine(self, detector):
        vectors = random_vectors(detector, 5, 8)
        assert all(len(v) == detector.n_inputs for v in vectors)


class TestVectorWidth:
    """A stream whose vectors do not match the machine's input count is
    rejected up front, naming the vector, by every clocked entry point."""

    @pytest.mark.parametrize("vector", [(), (1, 1, 1)], ids=["short", "long"])
    @pytest.mark.parametrize("form", ["dualff", "codeconv"])
    @pytest.mark.parametrize("entry", ["run", "campaign"])
    def test_wrong_width_rejected(self, form, entry, vector):
        machine = random_machine(random.Random(3), 3)
        assert machine.n_inputs == 1
        if form == "dualff":
            scal, campaign = to_dual_flipflop(machine), dualff_campaign
        else:
            scal, campaign = to_code_conversion(machine), codeconv_campaign
        vectors = [(0,), vector, (1,)]
        call = scal.run if entry == "run" else lambda v: campaign(scal, v)
        with pytest.raises(ValueError) as info:
            call(vectors)
        message = str(info.value)
        assert "vector 1" in message
        assert f"width {len(vector)}" in message
        assert "n_inputs=1" in message


def test_one_machine_clocked_from_several_threads_at_once():
    """The stepper keeps a run in locals: four threads clocking the same
    two machine objects at once get the serial results."""
    machine = random_machine(random.Random(11), 6)
    vectors = random_vectors(machine, 30, seed=4)
    dff, cc = to_dual_flipflop(machine), to_code_conversion(machine)

    def both():
        return dualff_campaign(dff, vectors), codeconv_campaign(cc, vectors)

    serial = both()
    results, errors = [], []

    def worker():
        try:
            for _ in range(4):
                results.append(both())
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert results == [serial] * 16
