"""Oracles stay in the test tree, and every one of them runs.

Each ``tests/reference_*.py`` module is the former form of a fast path,
kept so that a differential test can hold production to it, and each
says that nothing under ``src/`` may import it.  This test enforces both
halves of that arrangement from the source alone (``ast``, no import):
no module under ``src/repro`` imports the test tree or an oracle, and no
oracle goes unimported by every ``tests/test_*.py`` — an oracle that no
test runs is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_names(path):
    """Every dotted name an import statement in *path* reaches; ``from
    package import name`` reaches both ``package`` and ``package.name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            yield module
            for alias in node.names:
                yield "%s.%s" % (module, alias.name) if module else alias.name


def reaches_the_test_tree(name):
    parts = name.split(".")
    return parts[0] == "tests" or any(part.startswith("reference_") for part in parts)


def test_oracles_live_in_the_test_tree_and_run():
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert len(sources) > 50
    leaks = sorted(
        "%s imports %s" % (path.relative_to(ROOT), name)
        for path in sources
        for name in set(imported_names(path))
        if reaches_the_test_tree(name)
    )
    assert not leaks, leaks

    oracles = sorted(path.stem for path in (ROOT / "tests").glob("reference_*.py"))
    assert oracles
    imported_by_tests = {
        name
        for path in (ROOT / "tests").glob("test_*.py")
        for name in imported_names(path)
    }
    unused = [
        oracle for oracle in oracles if "tests." + oracle not in imported_by_tests
    ]
    assert not unused, "no tests/test_*.py imports %s" % unused
