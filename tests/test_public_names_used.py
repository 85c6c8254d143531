"""Every public name in ``src/repro`` has a caller outside the tests.

A public top-level function or class, or a public method of a
top-level class, that only tests call is an extension nobody uses: it
costs reading and upkeep and hides which code the program runs.  This
scan parses ``src/repro`` and requires each such name to occur as an
identifier somewhere in the Python files of ``src/``, ``benchmarks/``
or ``examples/`` besides its own definition.  Re-exports in
``__init__.py`` files do not count as uses.

The match is by word, not by resolved object: ``Foo.run`` passes when
anything in those files says ``run``, in code or in prose.  The scan
is a floor against new test-only names, not a call graph.
"""

from __future__ import annotations

import ast
import os
import re
from collections import Counter
from typing import Dict, Iterator, List, Tuple

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
USE_TREES = ("src", "benchmarks", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Public names with no caller in the scanned trees, each with why it
#: stays.
ALLOWED: Dict[str, str] = {
    "NoiseModel.disabled": "a noise-free model for residual studies "
                           "(tests and what-if runs build one)",
    "validate_tail_block": "CI's percentile-smoke job validates the tail "
                           "block with it (.github/workflows/ci.yml)",
}


def _py_files(tree: str) -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, tree)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def public_names() -> List[Tuple[str, str]]:
    """``(qualified name, bare name)`` of every public definition."""
    found = []
    for path in _py_files(os.path.join("src", "repro")):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        found.append((f"{node.name}.{item.name}", item.name))
    return found


def identifier_counts() -> Counter:
    """How often each identifier-shaped word occurs outside tests,
    ignoring ``__init__.py`` re-exports."""
    counts: Counter = Counter()
    for tree in USE_TREES:
        for path in _py_files(tree):
            if os.path.basename(path) == "__init__.py":
                continue
            with open(path, encoding="utf-8") as fh:
                counts.update(IDENTIFIER.findall(fh.read()))
    return counts


def test_every_public_name_has_a_non_test_use():
    counts = identifier_counts()
    # Its own ``def``/``class`` line is one occurrence; a use is another.
    unused = sorted(q for q, bare in public_names()
                    if counts[bare] < 2 and q not in ALLOWED)
    assert unused == [], (
        "public names that only tests use; delete them, move them into a "
        f"tests/ helper, or allowlist them with a reason: {unused}")


def test_allowlist_entries_exist():
    defined = {q for q, _ in public_names()}
    assert set(ALLOWED) <= defined, set(ALLOWED) - defined
