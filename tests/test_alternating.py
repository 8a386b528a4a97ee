"""Tests for alternating-operation helpers (repro.scal.alternating)."""

from repro.scal.alternating import AlternatingRun, AlternatingStep, one_row_run


class TestSteps:
    def test_alternating_step(self):
        good = AlternatingStep((1, 0), (0, 1))
        assert good.alternates
        assert good.decoded == (1, 0)
        bad = AlternatingStep((1, 0), (1, 1))
        assert not bad.alternates

    def test_run_detection(self):
        run = AlternatingRun(
            (AlternatingStep((1,), (0,)), AlternatingStep((1,), (1,)))
        )
        assert run.detected
        assert run.first_detection == 1

    def test_checker_flags_detection(self):
        run = AlternatingRun(
            (AlternatingStep((1,), (0,)),),
            checker_flags=(True,),
        )
        assert run.detected
        assert run.first_detection == 0

    def test_clean_run(self):
        run = AlternatingRun((AlternatingStep((1,), (0,)),))
        assert not run.detected
        assert run.first_detection is None
        assert run.decoded_outputs() == [(1,)]


class TestOneRowRun:
    TRACE = [((1, 0), (0, 1), 0), ((1, 1), (0, 1), 1)]

    def test_steps_and_checker_flags(self):
        run = one_row_run(self.TRACE)
        assert run.steps == (
            AlternatingStep((1, 0), (0, 1)),
            AlternatingStep((1, 1), (0, 1)),
        )
        assert run.checker_flags == (False, True)

    def test_without_a_checker(self):
        assert one_row_run(self.TRACE, checker=False).checker_flags == ()

    def test_stopped_run_is_one_raised_flag(self):
        run = one_row_run(self.TRACE, stopped=1)
        assert run == AlternatingRun((), (True,))
        assert run.detected

    def test_stopped_run_is_detected_at_step_0(self):
        """A stopped run is detected, so it has a first detection: step
        0, the latency the campaigns leave out of their mean."""
        assert one_row_run(self.TRACE, stopped=1).first_detection == 0
