"""Every module-level definition in ``src/repro`` is reached by something
other than its own tests: a run, a claim, the CLI, an example or the
benchmark suite.  A definition only the tests call is deleted, or moved
into the test tree when a test needs it as a fixture (ROADMAP aim 2).

Pure AST: nothing from ``repro`` is imported, so this runs in the lint
lane without numpy.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
OUTSIDE = (ROOT / "benchmarks" / "suite", ROOT / "examples")

# Module-level definitions nothing outside tests/ reaches, each kept on
# purpose.
KEPT_TEST_ONLY = {
    "jsonl_to_binary": "RBT1's converter; RBT1 goes whole once the suite's "
    "trace_roundtrip stops naming the binary format (ROADMAP item 1)",
    "announce_http": "the HTTP announce client the live-server tests drive, "
    "and the one the live peer finder is to call (ROADMAP item 12)",
    "announce_udp": "the UDP announce client the live-server tests drive, "
    "and the one the live peer finder is to call (ROADMAP item 12)",
}

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def module_definitions():
    """``(name, path, first line, last line)`` of every module-level
    ``def``, ``async def`` and ``class`` under ``src/repro``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((node.name, path, node.lineno, node.end_lineno))
    return found


def src_uses():
    """Per identifier under ``src/``, the ``(path, line)`` of each use:
    names, attributes, and names a ``from ... import`` binds outside a
    package ``__init__.py`` (a re-export reaches nothing by itself)."""
    found = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        reexports = path.name == "__init__.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                found[node.attr].append((path, node.lineno))
            elif isinstance(node, ast.ImportFrom) and not reexports:
                for alias in node.names:
                    found[alias.name].append((path, node.lineno))
    return found


def outside_names():
    """Identifiers and the identifier-shaped words of string constants
    under ``benchmarks/suite/`` and ``examples/``: the suite names the
    entry points it shims by string."""
    found = set()
    for root in OUTSIDE:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.alias):
                    found.update(node.name.split("."))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found.update(IDENTIFIER.findall(node.value))
    return found


def unreached():
    """Names of the module-level definitions nothing reaches.  A use
    inside an unreached definition reaches nothing either, unless that
    definition is kept on purpose, so a dead cluster (a report class and
    the function building it) is found whole: the set grows until it
    stops changing."""
    definitions = module_definitions()
    uses = src_uses()
    outside = outside_names()
    dead = set()
    while True:
        silent = [d for d in definitions if d[0] in dead and d[0] not in KEPT_TEST_ONLY]

        def reached(definition):
            return definition[0] in outside or any(
                not any(
                    path == d_path and first <= line <= last
                    for _, d_path, first, last in silent + [definition]
                )
                for path, line in uses[definition[0]]
            )

        grown = {d[0] for d in definitions if not reached(d)}
        if grown == dead:
            return dead
        dead = grown


class TestSrcReach:
    def test_every_definition_is_reached_or_kept_on_purpose(self):
        dead = sorted(unreached() - set(KEPT_TEST_ONLY))
        assert not dead, "definitions only tests reach: %s" % ", ".join(dead)

    def test_kept_definitions_exist_and_are_still_unreached(self):
        defined = {definition[0] for definition in module_definitions()}
        dead = unreached()
        for name, reason in KEPT_TEST_ONLY.items():
            assert name in defined, "gone; drop it from KEPT_TEST_ONLY: " + name
            assert name in dead, "now reached; drop it: " + reason
