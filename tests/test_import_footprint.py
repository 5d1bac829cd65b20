"""What each entry point imports.

The announce server (``repro tracker serve``) is a long-running process
whose resident memory is whatever it imported before its first
announce, and ``repro --help`` pays every import before it prints a
line.  The server loads the CLI's argument parser and the tracker tier
(``repro.tracker``, ``repro.protocol.bencode``, ``repro.spec_grammar``),
``--help`` the parser alone, and neither loads numpy or the
simulator.  The second half of the
file imports every module of the package on its own: with no package
``__init__`` importing its neighbours, an import cycle shows here
instead of in a user's first ``import``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.tracker

SRC = Path(repro.__file__).resolve().parents[1]

NOT_FOR_THE_TRACKER = (
    "numpy",
    "repro.sim",
    "repro.core",
    "repro.instrumentation",
    "repro.workloads",
)


def imported_modules(*args):
    """Every module a fresh ``python -X importtime <args>`` imports."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True,
    )
    # import time: <self us> | <cumulative us> | <indent><module>
    return {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


@pytest.mark.parametrize(
    "args",
    [
        ["-c", "import repro.cli, repro.tracker.server, repro.tracker.client"],
        ["-m", "repro", "tracker", "serve", "--help"],
    ],
    ids=["import", "serve-help"],
)
def test_the_tracker_tier_imports_no_simulator(args):
    modules = imported_modules(*args)
    assert "repro.cli" in modules
    loaded = sorted(
        name
        for name in modules
        for banned in NOT_FOR_THE_TRACKER
        if name == banned or name.startswith(banned + ".")
    )
    assert loaded == []


EACH_ON_ITS_OWN = """
import importlib, json, sys, traceback
failures = {}
for name in json.loads(sys.argv[1]):
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures[name] = traceback.format_exc(limit=-3)
print(json.dumps(failures))
"""


def module_names():
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


def test_every_module_imports_on_its_own():
    names = module_names()
    assert "repro" in names and "repro.tracker.server" in names
    result = subprocess.run(
        [sys.executable, "-c", EACH_ON_ITS_OWN, json.dumps(names)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == {}
