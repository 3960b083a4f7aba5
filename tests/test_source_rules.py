"""Source rules for ``src/dgalgebra`` that keep its checks alive under
``python -O``, keep bugs from being reported as answers, and keep public
surface that nothing uses from piling up.

``assert`` statements are compiled out under ``-O``, so a re-check written
as one silently disappears; a handler for ``Exception`` or ``BaseException``
(or a bare ``except:``) turns any bug inside it into whatever the handler
returns.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dgalgebra"
BROAD = {"Exception", "BaseException"}


def _nodes():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield f"{path.relative_to(SRC)}:{getattr(node, 'lineno', '?')}", node


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for t in caught:
        name = t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)
        if name in BROAD:
            return True
    return False


def test_sources_are_found():
    assert (SRC / "algebra.py").is_file()


def test_no_assert_statements():
    found = [where for where, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_broad_exception_handlers():
    found = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.ExceptHandler) and _is_broad(node)
    ]
    assert found == []


def _public_definitions():
    """``(file, name)`` of every public module-level or class-level
    function, method and class."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            for d in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not d.name.startswith("_"):
                        yield path.relative_to(SRC), d.name


def test_every_public_name_is_referenced():
    """Each public name occurs as a word somewhere besides its definitions:
    in the sources, tests, demos, bench or README.  Re-exports from the
    package ``__init__`` do not count as a use."""
    files = [ROOT / "README.md"]
    for folder in ("src", "tests", "demos", "bench"):
        files.extend((ROOT / folder).rglob("*.py"))
    words = Counter()
    for path in files:
        if path != SRC / "__init__.py":
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defined = list(_public_definitions())
    definitions = Counter(name for _, name in defined)
    unused = [f"{path}:{name}" for path, name in defined if words[name] <= definitions[name]]
    assert defined
    assert unused == []
