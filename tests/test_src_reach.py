"""Every module-level definition and every class method in ``src/repro``
is reached by something other than its own tests: a run, a claim, the
CLI, an example or the benchmark suite.  A definition only the tests
call is deleted, or moved into the test tree when a test needs it as a
fixture (``tests/probes.py``; ROADMAP aim 2).  A method is reached by
its name: any use outside its own body, as an attribute, a name or a
string naming it (``getattr``, a handler table), reaches every method
so named.

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

# Definitions nothing outside tests/ reaches, each kept on purpose; a
# method is named ``Class.method``.
KEPT_TEST_ONLY = {
    "jsonl_to_binary": "RBT1's converter; RBT1 goes whole once the suite's "
    "trace_roundtrip stops naming the binary format (ROADMAP item 1)",
    "announce_http": "the HTTP announce client the live-server tests drive, "
    "and the one the live peer finder is to call (ROADMAP item 12)",
    "announce_udp": "the UDP announce client the live-server tests drive, "
    "and the one the live peer finder is to call (ROADMAP item 12)",
    "Instrumentation.fault_counters": "the fault-counter view that "
    "tests/test_trace_replay.py's unchanged assertions hold live and replay to",
    "LiveSwarm.kill_peer": "the live-fault harness: crashes a peer mid-run "
    "for tests/test_net_faults.py",
    "ConformanceReport.assert_ok": "the conformance harness's one-call "
    "verdict the net tests assert with",
    "Tracker.num_registered": "src/repro/tracker/ is left as it is while "
    "tracker_wire reads code layout (ROADMAP item 2)",
    "Tracker.registered_addresses": "src/repro/tracker/ is left as it is "
    "while tracker_wire reads code layout (ROADMAP item 2)",
}
# asyncio calls a protocol's callbacks; nothing names them.
for _callback in (
    "_UdpClientProtocol.connection_made",
    "_UdpClientProtocol.datagram_received",
    "_UdpClientProtocol.error_received",
    "_HttpTrackerProtocol.connection_made",
    "_HttpTrackerProtocol.data_received",
    "_HttpTrackerProtocol.eof_received",
    "_HttpTrackerProtocol.connection_lost",
    "_UdpTrackerProtocol.connection_made",
    "_UdpTrackerProtocol.datagram_received",
):
    KEPT_TEST_ONLY[_callback] = "an asyncio protocol callback: the event loop calls it"

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_definitions():
    """``(qualified name, name, path, first line, last line)`` of every
    module-level ``def``, ``async def`` and ``class`` under ``src/repro``,
    and of every method of such a class (``Class.method``; dunders, which
    the language calls, left out)."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, DEFINITIONS):
                continue
            found.append((node.name, node.name, path, node.lineno, node.end_lineno))
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                name = method.name if isinstance(method, FUNCTIONS) else "__"
                if not (name.startswith("__") and name.endswith("__")):
                    found.append(
                        (
                            "%s.%s" % (node.name, name),
                            name,
                            path,
                            method.lineno,
                            method.end_lineno,
                        )
                    )
    return found


def src_uses():
    """Per identifier under ``src/``, the ``(path, line)`` of each use:
    names, attributes, and, outside a package ``__init__.py`` (a
    re-export reaches nothing by itself), the names a ``from ... import``
    binds and strings that are one identifier (``getattr`` names, handler
    tables)."""
    found = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        reexports = path.name == "__init__.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                found[node.attr].append((path, node.lineno))
            elif reexports:
                continue
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    found[alias.name].append((path, node.lineno))
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and IDENTIFIER.fullmatch(node.value)
            ):
                found[node.value].append((path, node.lineno))
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
    """Qualified names of the definitions nothing reaches.  A use inside
    an unreached definition reaches nothing either, unless that
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
            name = definition[1]
            return name in outside or any(
                not any(
                    path == d_path and first <= line <= last
                    for __, __, d_path, first, last in silent + [definition]
                )
                for path, line in uses[name]
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
