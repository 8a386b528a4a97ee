"""Guard tests: every example script runs cleanly end to end."""

import os
import runpy
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)

SCRIPTS = sorted(
    name
    for name in os.listdir(EXAMPLES_DIR)
    if name.endswith(".py")
)


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script, capsys):
    path = os.path.join(EXAMPLES_DIR, script)
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"
    lowered = out.lower()
    assert "traceback" not in lowered


def test_checker_design_output_is_deterministic():
    """The example's output does not follow the string hash seed (its
    sharing groups are frozensets)."""
    src = os.path.join(os.path.dirname(EXAMPLES_DIR), "src")
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.add(
            subprocess.run(
                [sys.executable, os.path.join(EXAMPLES_DIR, "checker_design.py")],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout
        )
    assert len(outputs) == 1


def test_all_examples_present():
    expected = {
        "quickstart.py",
        "sequence_detector.py",
        "scal_computer.py",
        "minority_conversion.py",
        "checker_design.py",
        "test_generation.py",
        "design_flow.py",
        "netlist_interchange.py",
    }
    assert expected <= set(SCRIPTS)
