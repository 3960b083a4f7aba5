"""Per-layer counters and self times, recorded by wrapping public functions.

Only the traced run installs the wrappers; they are removed afterwards.  A
wrapped function is replaced wherever ``dgalgebra`` holds a reference to it
(its home module, modules that imported it by name, the package namespace,
class attributes such as ``__call__ = apply``), so internal calls are seen
too.  Recording happens only inside an operation opened with ``op()``; work
the benchmark does between operations is not counted.

A layer's self time is the time spent in its calls minus the time spent in
wrapped calls they made.  Observers that derive matrix statistics run after
the clock stops, and their time is removed from the enclosing span as well.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_ns = time.perf_counter_ns


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0


@dataclass
class MatrixStats:
    """Eliminations seen by ``linalg.rref`` and the d-matrices among them."""

    cells: int = 0
    nnz: int = 0
    max_coeff_bits: int = 0
    d_rows: int = 0
    d_cols: int = 0
    d_nnz: int = 0


@dataclass
class Frame:
    layer: str
    child_ns: int = 0


class Tracer:
    def __init__(self):
        self.layers: Dict[str, LayerStats] = {}
        self.matrix = MatrixStats()
        self.counters: Dict[str, int] = {}
        self.asked: set = set()
        self.asks = 0
        self.repeats = 0
        self._keep: List[Any] = []  # holds asked presentations so ids stay unique
        self._stack: List[Frame] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------------

    @contextmanager
    def op(self):
        """The root span of one benchmark operation."""
        self._stack.append(Frame("op"))
        try:
            yield
        finally:
            self._stack.pop()

    def count(self, name: str, k: int = 1):
        self.counters[name] = self.counters.get(name, 0) + k

    def ask(self, algebra, degree):
        """One request for a (presentation, degree) pair, for ``repeat_ratio``."""
        key = (id(algebra), degree)
        self.asks += 1
        if key in self.asked:
            self.repeats += 1
        else:
            self.asked.add(key)
            self._keep.append(algebra)

    def wrap(self, layer: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        stats = self.layers.setdefault(layer, LayerStats())
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = Frame(layer)
            stack.append(frame)
            start = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_ns() - start
                stack.pop()
                stats.calls += 1
                stats.self_ns += elapsed - frame.child_ns
                parent.child_ns += elapsed
            if observe is not None:
                t0 = perf_ns()
                observe(parent.layer, args, result)
                parent.child_ns += perf_ns() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, layer: str, fn: Callable) -> Callable:
        """Count calls only; the time stays with the caller."""
        stats = self.layers.setdefault(layer, LayerStats())
        stack = self._stack

        def counted(*args, **kwargs):
            if stack:
                stats.calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -------------------------------------------------------------

    def install(self, package: str, targets):
        """``targets`` holds ``(owner, attribute, make_wrapper)``; every
        binding of the original object inside ``package`` is replaced."""
        namespaces = []
        for name, module in list(sys.modules.items()):
            if name == package or name.startswith(package + "."):
                namespaces.append(module)
                for value in vars(module).values():
                    if isinstance(value, type) and value.__module__.startswith(package):
                        namespaces.append(value)
        for owner, attr, make in targets:
            original = vars(owner)[attr]
            wrapper = make(original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, value))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, value in reversed(self._restore):
            setattr(ns, key, value)
        self._restore.clear()

    @contextmanager
    def installed(self, package: str, targets):
        self.install(package, targets)
        try:
            yield self
        finally:
            self.uninstall()


# -- the layers of dgalgebra ----------------------------------------------------------


def _bits(values) -> int:
    best = 0
    for v in values:
        if v:
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def dgalgebra_targets(tracer: Tracer):
    """Wrappers for the public functions of each ``dgalgebra`` module."""
    from dgalgebra import algebra, classify, cli, cohomology, cylinder, linalg, obstruction, parser, symbolic, weights

    m = tracer.matrix

    def timed(layer, observe=None):
        return lambda fn: tracer.wrap(layer, fn, observe)

    def note_matrix(rows, cols, nnz, is_d_matrix=False):
        m.cells += rows * cols
        m.nnz += nnz
        if is_d_matrix and rows * cols > m.d_rows * m.d_cols:
            m.d_rows, m.d_cols, m.d_nnz = rows, cols, nnz

    def obs_rref(parent, args, result):
        matrix = args[0]
        note_matrix(matrix.rows, matrix.cols, len(matrix.entries))
        m.max_coeff_bits = max(m.max_coeff_bits, _bits(result[0].entries.values()))

    def obs_rref_solve(parent, args, result):
        matrix = args[0]
        # inside cohomology_at_degree the eliminated matrix is d on degree n
        note_matrix(matrix.rows, matrix.cols, len(matrix.entries), parent == "cohomology.degree")
        particular, kernel = result
        bits = _bits(particular or ())
        for vec in kernel:
            bits = max(bits, _bits(vec))
        m.max_coeff_bits = max(m.max_coeff_bits, bits)

    def obs_row_space(parent, args, result):
        rows = args[0]
        cols = len(rows[0]) if rows else 0
        note_matrix(len(rows), cols, sum(1 for r in rows for v in r if v))
        for row in result[0]:
            m.max_coeff_bits = max(m.max_coeff_bits, _bits(row))

    def obs_d_matrix(parent, args, result):
        tracer.ask(args[0], args[1])
        if result.rows * result.cols > m.d_rows * m.d_cols:
            m.d_rows, m.d_cols, m.d_nnz = result.rows, result.cols, len(result.entries)

    def asks(degree_at):
        """Observer for ``f(algebra, ..., degree, ...)`` calls."""

        def observe(parent, args, result):
            tracer.ask(args[0], args[degree_at])

        return observe

    def obs_is_coboundary(parent, args, result):
        tracer.ask(args[0], args[1].degree())

    def obs_equations(parent, args, result):
        tracer.count("classify.equations", len(result.equations))

    def obs_families(parent, args, result):
        tracer.count("classify.families", len(result))

    def obs_verdict(parent, args, result):
        tracer.count(f"obstruction.verdict_{result.verdict}")

    def obs_null_verdict(parent, args, result):
        tracer.count("obstruction.verdict_yes" if result.nullhomotopic else "obstruction.verdict_no")

    return [
        (linalg, "rref", timed("linalg.rref", obs_rref)),
        (linalg, "rref_solve", timed("linalg.rref", obs_rref_solve)),
        (linalg, "row_space_basis", timed("linalg.rref", obs_row_space)),
        (linalg, "reduce_mod_rows", timed("linalg.reduce")),
        (linalg, "smith_form", timed("linalg.smith")),
        (cohomology, "cohomology_at_degree", timed("cohomology.degree", asks(1))),
        (cohomology, "weight_split_cohomology", timed("cohomology.degree", asks(1))),
        (cohomology, "differential_matrix", timed("cohomology.d_matrix", obs_d_matrix)),
        (cohomology, "is_coboundary", timed("cohomology.is_coboundary", obs_is_coboundary)),
        (cohomology, "class_coordinates", timed("cohomology.class_coordinates", asks(2))),
        (cohomology, "induced_map", timed("cohomology.induced_map")),
        (algebra.AlgebraPresentation, "monomial_basis", timed("algebra.monomial_basis")),
        (algebra.Element, "__mul__", timed("algebra.mul")),
        (algebra, "normalize_monomial", lambda fn: tracer.wrap_count("algebra.normalize_monomial", fn)),
        (algebra, "extend_derivation", timed("algebra.derivation")),
        (algebra.Morphism, "apply", timed("algebra.morphism_apply")),
        (symbolic.SymbolicElement, "__mul__", timed("symbolic.mul")),
        (symbolic.Poly, "__mul__", timed("symbolic.mul")),
        (symbolic.SymbolicElement, "substitute", timed("symbolic.substitute")),
        (symbolic.Poly, "substitute", timed("symbolic.substitute")),
        (classify, "constraint_system", timed("classify.constraint_system", obs_equations)),
        (classify, "solve_structured", timed("classify.solve_structured", obs_families)),
        (classify, "classify_homotopy_set", timed("classify.homotopy_set")),
        (cylinder.CylinderAlgebra, "alpha", timed("cylinder.alpha")),
        (cylinder.CylinderAlgebra, "correction", timed("cylinder.correction")),
        (obstruction, "compute_obstruction", timed("obstruction.compute")),
        (obstruction, "decide_homotopic", timed("obstruction.decide_homotopic", obs_verdict)),
        (obstruction, "decide_nullhomotopic", timed("obstruction.decide_nullhomotopic", obs_null_verdict)),
        (parser, "parse_presentation", timed("parser.parse")),
        (parser, "parse_morphism", timed("parser.parse")),
        (weights, "verify_infinite_family", timed("weights.family")),
        (cli, "main", timed("cli.main")),
    ]
