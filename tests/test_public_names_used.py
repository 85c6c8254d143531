"""Every public name in ``src/repro`` has a caller outside the tests.

A public top-level function or class, or a public method of a
top-level class, that only tests call is an extension nobody uses: it
costs reading and upkeep and hides which code the program runs.  This
scan parses ``src/repro`` and requires each such name to be used in
the code of the Python files of ``src/``, ``benchmarks/`` or
``examples/``: a top-level name must occur as an identifier besides
its own definition, and a method must occur as an attribute access
(``.name``).  Comments, docstrings and strings do not count, and
neither do re-exports in ``__init__.py`` files.

The match is by name, not by resolved object: ``Foo.run`` passes when
any code in those files says ``.run``.  The scan is a floor against new
test-only names, not a call graph.
"""

from __future__ import annotations

import ast
import os
import tokenize
from collections import Counter
from typing import Dict, Iterator, List, Tuple

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
USE_TREES = ("src", "benchmarks", "examples")
#: f-string delimiters (token types of Python 3.12+; -1 never matches)
FSTRING_START = getattr(tokenize, "FSTRING_START", -1)
FSTRING_END = getattr(tokenize, "FSTRING_END", -1)

#: Public names with no caller in the scanned trees, each with why it
#: stays.
ALLOWED: Dict[str, str] = {
    "NoiseModel.disabled": "a noise-free model for residual studies "
                           "(tests and what-if runs build one)",
    "verify_requests": "a test-facing invariant checker of the repro.obs "
                       "API (request conservation)",
    "verify_trace": "a test-facing invariant checker of the repro.obs API "
                    "(the check_trace fixture wraps it)",
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


def public_names() -> List[Tuple[str, str, bool]]:
    """``(qualified name, bare name, is a method)`` of every public
    definition."""
    found = []
    for path in _py_files(os.path.join("src", "repro")):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found.append((node.name, node.name, False))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        found.append((f"{node.name}.{item.name}", item.name,
                                      True))
    return found


def code_names(path: str) -> Iterator[Tuple[str, bool]]:
    """The identifiers of ``path``'s code, each with whether it follows
    a ``.`` (an attribute access): ``tokenize`` NAME tokens, so words
    in comments, docstrings and other strings do not count.

    Python 3.12 tokenizes the expressions inside f-strings too; they
    are skipped so that every version counts the same names.
    """
    depth = 0
    after_dot = False
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == FSTRING_START:
                depth += 1
            elif tok.type == FSTRING_END:
                depth -= 1
            elif depth:
                continue
            elif tok.type == tokenize.NAME:
                yield tok.string, after_dot
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                after_dot = tok.type == tokenize.OP and tok.string == "."


def identifier_counts() -> Tuple[Counter, Counter]:
    """How often each identifier occurs in code outside tests, and how
    often as an attribute access, ignoring ``__init__.py`` re-exports."""
    names: Counter = Counter()
    attributes: Counter = Counter()
    for tree in USE_TREES:
        for path in _py_files(tree):
            if os.path.basename(path) == "__init__.py":
                continue
            for name, is_attribute in code_names(path):
                names[name] += 1
                attributes[name] += is_attribute
    return names, attributes


def _used(bare: str, method: bool, names: Counter,
          attributes: Counter) -> bool:
    if method:
        return attributes[bare] >= 1
    # Its own ``def``/``class`` line is one occurrence; a use is another.
    return names[bare] >= 2


def test_every_public_name_has_a_non_test_use():
    names, attributes = identifier_counts()
    unused = sorted(q for q, bare, method in public_names()
                    if not _used(bare, method, names, attributes)
                    and q not in ALLOWED)
    assert unused == [], (
        "public names that only tests use; delete them, move them into a "
        f"tests/ helper, or allowlist them with a reason: {unused}")


def test_allowlist_entries_exist():
    defined = {q for q, _, _ in public_names()}
    assert set(ALLOWED) <= defined, set(ALLOWED) - defined


def test_only_code_counts(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Mentions alpha."""\n'
        "# beta\n"
        "x = 'gamma' + f'{delta}'\n"
        "epsilon(x)\n")
    names = {name for name, _ in code_names(str(source))}
    assert {"x", "epsilon"} <= names
    assert not names & {"alpha", "beta", "gamma", "delta"}


def test_methods_count_only_attribute_access(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def run(job):\n"
        "    job.start()\n"
        "    return stop(job)\n")
    tokens = dict(code_names(str(source)))
    assert tokens["start"] and not tokens["stop"] and not tokens["run"]
