"""Source rules for ``src/dgalgebra`` that keep its checks alive under
``python -O`` and keep bugs from being reported as answers.

``assert`` statements are compiled out under ``-O``, so a re-check written
as one silently disappears; a handler for ``Exception`` or ``BaseException``
(or a bare ``except:``) turns any bug inside it into whatever the handler
returns.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dgalgebra"
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
