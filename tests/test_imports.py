"""Import budgets: packages re-export lazily, so an entry point loads
only the modules it uses.

Each budget runs in a fresh interpreter and reads ``sys.modules``, so
it is deterministic (no timings).  The in-process checks take over what
eager re-exports used to catch at import time: a stale name in a
package's ``__all__``.
"""

import importlib
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = (
    "repro",
    "repro.checkers",
    "repro.core",
    "repro.engine",
    "repro.logic",
    "repro.modules",
    "repro.qa",
    "repro.scal",
    "repro.seq",
    "repro.synth",
    "repro.system",
    "repro.workloads",
)


def loaded_after(*modules: str):
    """The ``repro`` modules a fresh interpreter holds after importing
    ``modules``."""
    code = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print('\\n'.join(m for m in sys.modules"
        " if m.split('.')[0] == 'repro'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return set(out.split())


def test_import_repro_loads_no_submodule():
    assert loaded_after("repro") == {"repro", "repro._lazy"}


def test_clocked_scal_path_skips_the_unrelated_stacks():
    loaded = loaded_after(
        "repro.scal.verify", "repro.scal.codeconv", "repro.scal.dualff"
    )
    unrelated = {
        "repro.server",
        "repro.cli",
        "repro.synth",
        "repro.qa",
        "repro.checkers",
        "repro.modules",
        "repro.core.analysis",
    }
    assert not loaded & unrelated, sorted(loaded & unrelated)


def test_cli_import_skips_server_and_analysis():
    loaded = loaded_after("repro.cli")
    assert not loaded & {"repro.server", "repro.core.analysis"}


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name
        # Resolved once, then a plain attribute of the package.
        assert name in vars(module), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.engine.nope


def test_name_shared_with_its_module_stays_the_name():
    importlib.import_module("repro.modules.minority")
    from repro.modules import minority

    assert minority is sys.modules["repro.modules.minority"].minority
    assert repro.modules.minority is minority
