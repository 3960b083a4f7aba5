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


def test_monomials_are_constructed_only_in_algebra_py():
    """The key layout of ``Monomial`` is private to
    ``algebra.py``; other modules get monomials from its kernel."""
    found = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.Call)
        and "Monomial" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and not where.startswith("algebra.py:")
    ]
    assert found == []


# The names in algebra.py that know where a monomial key keeps each exponent.
KEY_LAYOUT = {"_WIDTH", "_MASK", "_DEGREE_BOUND", "_fields"}


def _key_layout_uses(tree: ast.AST) -> list:
    """Line numbers in ``tree`` that read the key layout: a reference to a
    ``KEY_LAYOUT`` name, or arithmetic, a shift or a mask with an operand
    that is a ``.key`` attribute or a name bound to the key that
    ``_derivation_vectors`` yields first."""
    keys = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.For)
            and isinstance(node.iter, ast.Call)
            and "_derivation_vectors" in (getattr(node.iter.func, "id", None), getattr(node.iter.func, "attr", None))
            and isinstance(node.target, ast.Tuple)
            and isinstance(node.target.elts[0], ast.Name)
        ):
            keys.add(node.target.elts[0].id)

    def is_key(operand):
        return (isinstance(operand, ast.Attribute) and operand.attr == "key") or (
            isinstance(operand, ast.Name) and operand.id in keys
        )

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            operands = (node.target, node.value)
        elif isinstance(node, ast.UnaryOp):
            operands = (node.operand,)
        else:
            operands = ()
        named = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if any(map(is_key, operands)) or named in KEY_LAYOUT:
            found.append(node.lineno)
    return sorted(found)


def test_the_monomial_key_layout_is_private_to_algebra_py():
    """A monomial's key packs its exponents into fixed-width bit fields, a
    layout that only ``algebra.py`` knows; other modules (``_assemble``
    indexes a basis by key) use keys only as opaque dictionary keys."""
    snippet = "i = m.key >> 32\nfor k, *_ in _derivation_vectors(a, 1, m):\n    j = -k\nw = _WIDTH\nd = {m.key: 1}\n"
    assert _key_layout_uses(ast.parse(snippet)) == [1, 3, 4]
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "algebra.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found.extend(f"{path.relative_to(SRC)}:{line}" for line in _key_layout_uses(tree))
    assert found == []


def test_monomials_are_reindexed_only_in_element():
    """``_reindex`` is called only inside ``AlgebraPresentation.element``,
    so an element moves between presentations by one path."""
    calls, in_element = [], set()
    for where, node in _nodes():
        if isinstance(node, ast.ClassDef) and node.name == "AlgebraPresentation":
            for d in node.body:
                if isinstance(d, ast.FunctionDef) and d.name == "element":
                    in_element.update(ast.walk(d))
        elif isinstance(node, ast.Call) and "_reindex" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            calls.append((where, node))
    assert calls
    assert [where for where, node in calls if node not in in_element] == []


def _linalg_private_uses(path: Path):
    """Private ``linalg`` names that the module at ``path`` imports or reads
    as an attribute of ``linalg``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "linalg":
            yield from (a.name for a in node.names if a.name.startswith("_"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id == "linalg"
        ):
            yield node.attr


def test_eliminations_go_through_public_linalg_names():
    """Outside ``linalg.py`` no module imports or reads a private ``linalg``
    name such as ``_rref``, so every elimination passes through ``rref``,
    ``rref_solve``, ``row_space_basis``, ``reduce_mod_rows`` or
    ``smith_form``, the names that the benchmark's tracer wraps."""
    paths = [p for p in sorted(SRC.rglob("*.py")) if p.name != "linalg.py"]
    paths += sorted((ROOT / "demos").rglob("*.py"))
    found = [f"{path.relative_to(ROOT)}: {name}" for path in paths for name in _linalg_private_uses(path)]
    assert paths
    assert found == []


def test_the_library_reads_cached_d_matrices_without_copies():
    """``differential_matrix`` copies the cached d-matrix for outside
    callers; no code in ``src/dgalgebra`` calls it, so the library's own
    eliminations read the cache without that copy."""
    found = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.Call)
        and "differential_matrix" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []


def test_only_linalg_py_touches_matrix_entries():
    """``RationalMatrix.lines`` is the one matrix store; outside
    ``linalg.py`` no module reads or writes the ``(i, j)``-keyed
    ``.entries`` view, which is kept for tests and the benchmark's tracer."""
    found = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.Attribute) and node.attr == "entries" and not where.startswith("linalg.py:")
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


def _references(tree: ast.AST):
    """Names a module refers to: ``ast.Name`` ids, ``ast.Attribute``
    attributes and imported names (and their aliases)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            if node.asname:
                yield node.asname


def _readme_code_words():
    """Words inside the README's fenced code blocks and inline code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S):
        yield from re.findall(r"\w+", block)


def test_every_public_name_is_referenced():
    """Each public name is referenced in code: as a name, an attribute or
    an import in the sources, tests, demos or bench, or inside a README code
    span.  Definitions, comments, docstrings and re-exports from the
    package ``__init__`` do not count as a use."""
    files = []
    for folder in ("src", "tests", "demos", "bench"):
        files.extend((ROOT / folder).rglob("*.py"))
    uses = set(_readme_code_words())
    for path in files:
        if path != SRC / "__init__.py":
            uses.update(_references(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    defined = list(_public_definitions())
    unused = [f"{path}:{name}" for path, name in defined if name not in uses]
    assert defined
    assert unused == []



def test_one_cylinder_per_source_and_no_subalgebras():
    """Homotopies on a set of generators live on the source's one cylinder:
    outside ``algebra.py`` no module calls ``.subalgebra(``, and
    ``CylinderAlgebra(...)`` is constructed only in ``build_cylinder``,
    which keeps one per presentation."""
    subalgebras, cylinders, in_build = [], [], []
    for where, node in _nodes():
        if isinstance(node, ast.FunctionDef) and node.name == "build_cylinder":
            in_build.extend(ast.walk(node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "subalgebra" and not where.startswith("algebra.py:"):
                subalgebras.append(where)
        if isinstance(node, ast.Call) and "CylinderAlgebra" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            cylinders.append((where, node))
    assert subalgebras == []
    assert cylinders
    assert [where for where, node in cylinders if node not in set(in_build)] == []


def test_homotopies_are_applied_only_inside_cylinder_py():
    """``Homotopy.as_morphism()`` is called only in ``cylinder.py``, so every
    image under H of alpha or of a correction is read through
    ``Homotopy.end_image`` or ``Homotopy.correction_image``, which skip the
    series when the bars vanish on the generators that d(v) reaches."""
    calls = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "as_morphism"
    ]
    assert calls
    assert [where for where in calls if not where.startswith("cylinder.py:")] == []


def test_the_correction_is_expanded_only_inside_cylinder_py():
    """``.correction(`` is called only in ``cylinder.py``, by
    ``Homotopy.correction_image``, so no module expands alpha to check the
    lemma: its hypotheses are read from the reach and from d(w)."""
    calls = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "correction"
    ]
    assert calls
    assert [where for where in calls if not where.startswith("cylinder.py:")] == []


def _is_fraction_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and "Fraction" in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


def _bare_divisions(tree: ast.AST) -> list:
    """Line numbers of the true divisions ``a / b`` and ``a /= b`` in
    ``tree`` that have no ``Fraction(...)`` call as an operand."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            operands = (node.target, node.value)
        else:
            continue
        if not any(map(_is_fraction_call, operands)):
            found.append(node.lineno)
    return sorted(found)


def test_true_division_has_a_fraction_operand():
    """Coefficients are ints where integral, so ``a / b`` on two of them
    would bring in a float that no exact comparison would notice; every
    true division in the sources divides with a ``Fraction(...)`` operand."""
    assert _bare_divisions(ast.parse("x = a / b\nx /= 2\ny = a / Fraction(b)\ny /= Fraction(2)\n")) == [1, 2]
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.relative_to(SRC)}:{line}" for line in _bare_divisions(tree))
    assert found == []
