"""Exact linear algebra over Q and integer lattice tools.

Everything here is deterministic: elimination always ends in the reduced row
echelon form, which is unique, so kernels, particular solutions and
canonical witnesses are reproducible across runs and platforms.  The one
elimination over Q, ``_rref``, works on primitive integer rows and divides
by the pivots only when it emits the reduced rows, so its results are the
same rows as an elimination over ``Fraction`` without the gcd work of
rational arithmetic at every step.  Its row format, ``RationalMatrix.lines``,
is the one matrix store from assembly to elimination.  Inputs pass
``algebra._as_rational``, so a float raises ``TypeError`` instead of
entering as a binary fraction; public outputs are ``Fraction``s.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .algebra import _as_rational, _check_int
from .errors import (
    DimensionMismatch,
    NonRationalRoot,
    PreconditionViolated,
    UnsolvableSystem,
    UnsupportedShape,
)


class RationalMatrix:
    """A sparse matrix of exact rationals.  ``lines`` is the one store: a
    ``{column: value}`` dict per row, an ``int`` for each integral value and
    no zero; ``entries`` is a read-only ``{(i, j): Fraction}`` view of it."""

    __slots__ = ("rows", "cols", "lines")

    def __init__(self, rows: int, cols: int, entries=None):
        for name, size in (("rows", rows), ("cols", cols)):
            _check_int(name, size)
            if size < 0:
                raise DimensionMismatch(f"{name} must not be negative, got {size}")
        self.rows = rows
        self.cols = cols
        self.lines: List[Dict[int, Fraction]] = [{} for _ in range(rows)]
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise DimensionMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
                v = _as_rational(v)
                if v:
                    self.lines[i][j] = v

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged rows")
        return cls(len(rows), c, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})

    @property
    def entries(self) -> Mapping[Tuple[int, int], Fraction]:
        return MappingProxyType({(i, j): Fraction(v) for i, line in enumerate(self.lines) for j, v in line.items()})

    def get(self, i: int, j: int) -> Fraction:
        return Fraction(self.lines[i].get(j, 0))

    def dense_rows(self) -> List[List[Fraction]]:
        return [_dense(line, self.cols) for line in self.lines]

    def transpose(self) -> "RationalMatrix":
        m = RationalMatrix(self.cols, self.rows)
        lines = m.lines
        for i, line in enumerate(self.lines):
            if line:
                for j, v in line.items():
                    lines[j][i] = v
        return m

    def mat_vec(self, x: Sequence[Fraction]) -> List[Fraction]:
        if len(x) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        x = [_as_rational(v) for v in x]
        return [Fraction(sum(v * x[j] for j, v in line.items() if x[j])) for line in self.lines]

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.lines == other.lines
        )

    def __repr__(self):
        return f"<RationalMatrix {self.rows}x{self.cols}, {sum(map(len, self.lines))} entries>"


def _dense(vec: Dict[int, Fraction], n: int) -> List[Fraction]:
    """The sparse vector ``vec`` (ints and Fractions) as a length-n list of
    ``Fraction``s; its zeros share one object."""
    out = [Fraction(0)] * n
    for j, v in vec.items():
        out[j] = Fraction(v) if type(v) is int else v
    return out


def _rref(rows: List[Dict[int, Fraction]]) -> Tuple[List[Dict[int, Fraction]], List[int]]:
    """Reduced row echelon form of sparse rows ``{column: nonzero value}``
    (ints or Fractions).

    Returns the nonzero rows, scaled to pivot 1 and ordered by pivot column,
    with their pivot columns; an integral value is an ``int``.  The input
    rows are consumed.  The elimination is fraction-free: each row is scaled
    in place to a primitive integer row (``_make_integer``) and combined with
    integer multiples of pivot rows (``_eliminate``); rows are divided by
    their pivots only when they are emitted.  Each row is first reduced at
    its leading column only, shortest rows first to limit fill-in; back
    substitution then clears the other pivot columns.  The reduced echelon
    form of a row space is unique, so the result does not depend on this
    order or on the row scaling.
    """
    by_pivot: Dict[int, Dict[int, int]] = {}
    for row in sorted(filter(None, rows), key=len):
        _make_integer(row)
        while row:
            p = min(row)
            pivot_row = by_pivot.get(p)
            if pivot_row is None:
                by_pivot[p] = row
                break
            _eliminate(row, p, pivot_row)
    pivots = sorted(by_pivot)
    for p in reversed(pivots):
        row = by_pivot[p]
        for q in [j for j in row if j != p and j in by_pivot]:
            _eliminate(row, q, by_pivot[q])
    for p in pivots:
        _divide(by_pivot[p], p)
    return [by_pivot[p] for p in pivots], pivots


def _make_integer(row: Dict[int, Fraction]):
    """Scale a sparse rational row in place to its primitive integer
    multiple: denominators cleared by their lcm, content divided out."""
    if len(row) == 1:
        for j in row:
            row[j] = 1
        return
    scale = 1
    for v in row.values():
        scale = lcm(scale, v.denominator)
    for j, v in row.items():
        row[j] = v.numerator * (scale // v.denominator)
    _divide_content(row)


def _eliminate(row: Dict[int, int], p: int, pivot_row: Dict[int, int]):
    """``row = a * row - b * pivot_row`` in place, with the smallest positive
    a that clears column p, dropping entries that cancel; when ``a > 1`` the
    row's content is divided out."""
    a, b = pivot_row[p], row[p]
    g = gcd(a, b)
    if a < 0:
        g = -g
    a, b = a // g, b // g
    if a != 1:
        for j, v in row.items():
            row[j] = a * v
    for j, v in pivot_row.items():
        x = row.get(j, 0) - b * v
        if x:
            row[j] = x
        else:
            del row[j]
    if a != 1:
        _divide_content(row)


def _divide_content(row: Dict[int, int]):
    """Divide an integer row in place by the gcd of its entries."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j, v in row.items():
            row[j] = v // g


def _divide(row: Dict[int, int], p: int):
    """Divide an integer row by its entry at the pivot p in place, keeping
    an ``int`` wherever the quotient is exact."""
    pv = row[p]
    if pv != 1:
        for j, v in row.items():
            row[j] = Fraction(v, pv) if v % pv else v // pv


def _subtract(row: Dict[int, Fraction], f: Fraction, other: Dict[int, Fraction]):
    """``row -= f * other`` in place, dropping entries that cancel."""
    for j, v in other.items():
        x = row.get(j, 0) - f * v
        if x:
            row[j] = x
        else:
            del row[j]


def rref(matrix: RationalMatrix) -> Tuple[RationalMatrix, List[int]]:
    """The reduced row echelon form of ``matrix`` and its pivot columns; the
    first ``len(pivots)`` lines of the result are the reduced rows, the
    others are empty.  ``matrix`` is not changed."""
    rows, pivots = _rref([dict(line) for line in matrix.lines if line])
    out = RationalMatrix(0, matrix.cols)  # the lines below are its only row dicts
    out.rows, out.lines = matrix.rows, rows + [{} for _ in range(matrix.rows - len(rows))]
    return out, pivots


def rref_solve(
    matrix: RationalMatrix, b: Sequence
) -> Tuple[Optional[List[Fraction]], List[List[Fraction]]]:
    """Solve ``A x = b`` exactly.

    Returns ``(particular, kernel)``; ``particular`` is None when b is
    outside the column space.  The particular solution sets all free
    variables to zero, which makes witnesses canonical.  ``matrix`` is not
    changed.
    """
    b = [_as_rational(v) for v in b]
    if len(b) != matrix.rows:
        raise DimensionMismatch("right-hand side has wrong length")
    n = matrix.cols
    aug = [dict(line) for line in matrix.lines]
    for row, v in zip(aug, b):
        if v:
            row[n] = v
    rows, pivots = _rref(aug)

    particular: Optional[List[Fraction]] = None
    if n not in pivots:  # else a pivot in the augmented column: inconsistent
        particular = _dense({c: row[n] for row, c in zip(rows, pivots) if n in row}, n)
    return particular, [_dense(vec, n) for vec in kernel_rows(rows, pivots, n)]


def kernel_rows(
    rows: List[Dict[int, Fraction]], pivots: List[int], n: int
) -> List[Dict[int, Fraction]]:
    """A sparse kernel basis of the reduced echelon rows over the first n
    columns: free column f gives ``{f: 1, pivot(r): -r[f]}``, in column order."""
    pivot_set = set(pivots)
    kernel = {f: {f: 1} for f in range(n) if f not in pivot_set}
    for row, p in zip(rows, pivots):
        for f, v in row.items():
            if f in kernel:
                kernel[f][p] = -v
    return list(kernel.values())


def row_space_basis(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Independent spanning rows in reduced echelon form, with their pivots;
    ragged rows raise ``DimensionMismatch``."""
    matrix = RationalMatrix.from_rows(rows)
    reduced, pivots = _rref(matrix.lines)
    return [_dense(row, matrix.cols) for row in reduced], pivots


def reduce_mod_rows(
    vec: Dict[int, Fraction], rows: List[Dict[int, Fraction]], pivots: List[int]
) -> Dict[int, Fraction]:
    """Reduce the sparse vector ``vec`` (``{column: value}``, ints or
    Fractions) modulo the row space of sparse rows with the given ascending
    pivots; the result is a new sparse vector.

    The rows must be *reduced* echelon rows, as ``rref`` returns them: each
    is 1 at its pivot and 0 at every other pivot.  Then subtracting one row
    leaves the entries at the other pivots alone, so the coefficient of the
    row at pivot p is ``vec[p]``, and only the pivots in the support of
    ``vec`` (found by bisection) are subtracted, in ascending order.
    """
    hits = []
    for c, f in vec.items():
        i = bisect_left(pivots, c)
        if i < len(pivots) and pivots[i] == c and f:
            hits.append((i, f))
    hits.sort()
    v = dict(vec)
    for i, f in hits:
        _subtract(v, f, rows[i])
    return v


# -- Smith normal form -------------------------------------------------------


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul_int(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                aik = a[i][k]
                for j in range(cols):
                    if b[k][j]:
                        out[i][j] += aik * b[k][j]
    return out


def smith_form(matrix: Sequence[Sequence[int]]):
    """Smith normal form ``U * M * V = D`` with unimodular U, V.

    D is diagonal with non-negative entries and d[i] | d[i+1]; the
    reconstruction identity is re-checked before returning.
    """
    original = [list(map(int, row)) for row in matrix]
    a = [row[:] for row in original]
    m = len(a)
    n = len(a[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, k):
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # locate a minimal-magnitude nonzero entry in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        # clear row and column t; restart if a remainder shrinks the pivot
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the whole trailing block for the divisor chain
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    d = [[a[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    if _mat_mul_int(_mat_mul_int(u, original), v) != d:
        raise PreconditionViolated("internal inconsistency: Smith reduction lost the transform identity")
    return u, d, v


# -- multiplicative systems ----------------------------------------------------


@dataclass(frozen=True)
class MultiplicativeSystem:
    """Equations ``prod_i x_i**e_i = constant`` over nonzero rationals."""

    unknowns: Tuple[str, ...]
    equations: Tuple[Tuple[Tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        for exps, const in self.equations:
            if len(exps) != len(self.unknowns):
                raise DimensionMismatch("exponent vector length mismatch")
            if const == 0:
                raise UnsupportedShape("multiplicative constants must be nonzero")

    @classmethod
    def make(cls, unknowns: Sequence[str], equations: Iterable) -> "MultiplicativeSystem":
        eqs = tuple((tuple(int(e) for e in exps), Fraction(_as_rational(c))) for exps, c in equations)
        return cls(tuple(unknowns), eqs)

    def satisfied_by(self, values: Sequence[Fraction]) -> bool:
        for exps, const in self.equations:
            acc = Fraction(1)
            for v, e in zip(values, exps):
                acc *= Fraction(_as_rational(v)) ** e
            if acc != const:
                return False
        return True


@dataclass
class MultiplicativeSolutions:
    """Finite solutions plus free lattice directions when the lattice is
    rank-deficient; the full solution set is every listed solution scaled by
    ``t**u`` componentwise for any nonzero rational t and direction u."""

    solutions: List[Tuple[Fraction, ...]]
    free_directions: List[Tuple[int, ...]] = field(default_factory=list)

    @property
    def is_finite(self) -> bool:
        return not self.free_directions


def _prime_factors(n: int):
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def solve_multiplicative_system(system: MultiplicativeSystem) -> MultiplicativeSolutions:
    """Solve ``prod x_i**e_i = c`` equations over nonzero rationals.

    Decomposes constants and unknowns into sign times prime valuations.  One
    Smith form ``U * E * V = D`` of the exponent matrix E serves both parts:
    the valuations satisfy an integer linear system per prime, and the signs
    the same system mod 2, where U and V stay invertible, so with ``s = V y``
    it reads ``d_i * y_i = (U sigma)_i``.  When the exponent lattice has
    full column rank the solution set is finite; otherwise the kernel
    directions are reported symbolically.  Solutions can only involve primes
    dividing some constant: any other prime's valuations satisfy the
    homogeneous system, which is covered by the reported kernel directions
    (and in the full-rank case forces valuation zero).
    """
    k = len(system.unknowns)
    if not system.equations:
        return MultiplicativeSolutions(
            solutions=[tuple(Fraction(1) for _ in range(k))],
            free_directions=[
                tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
            ],
        )
    exponent_rows = [list(exps) for exps, _ in system.equations]
    constants = [c for _, c in system.equations]
    factored = [(_prime_factors(c.numerator), _prime_factors(c.denominator)) for c in constants]
    primes = sorted({p for num, den in factored for p in (*num, *den)})

    u, d, v = smith_form(exponent_rows)
    m = len(exponent_rows)
    diag = [d[i][i] for i in range(min(m, k))]

    free_cols = [j for j in range(k) if j >= len(diag) or diag[j] == 0]
    free_directions = [tuple(v[i][j] for i in range(k)) for j in free_cols]

    # one integer valuation vector per prime
    valuations = {}
    for p in primes:
        w = [num.get(p, 0) - den.get(p, 0) for num, den in factored]
        uw = [sum(u[i][j] * w[j] for j in range(m)) for i in range(m)]
        y = [0] * k
        for i in range(min(m, k)):
            if diag[i] == 0:
                if uw[i] != 0:
                    raise UnsolvableSystem(
                        f"no rational solution: prime {p} constraint is inconsistent"
                    )
                continue
            if uw[i] % diag[i]:
                raise NonRationalRoot(
                    f"prime {p}: valuation {Fraction(uw[i], diag[i])} is not an integer"
                )
            y[i] = uw[i] // diag[i]
        for i in range(min(m, k), m):
            if uw[i] != 0:
                raise UnsolvableSystem(
                    f"no rational solution: prime {p} constraint is inconsistent"
                )
        valuations[p] = [sum(v[i][j] * y[j] for j in range(k)) for i in range(k)]

    # signs: y_i is fixed by an odd d_i, free for an even one or past the rank
    u_sigma = [sum(u[i][j] for j in range(m) if constants[j] < 0) % 2 for i in range(m)]
    y = [0] * k
    for i in range(m):
        if i < len(diag) and diag[i] % 2:
            y[i] = u_sigma[i]
        elif u_sigma[i]:
            raise UnsolvableSystem("no rational solution: the sign system is inconsistent")
    free_signs = [j for j in range(k) if j >= len(diag) or diag[j] % 2 == 0]
    if len(free_signs) > 20:
        raise UnsupportedShape("too many free signs to enumerate")

    magnitudes = [Fraction(1)] * k
    for p in primes:
        for i in range(k):
            magnitudes[i] *= Fraction(p) ** valuations[p][i]

    solutions = []
    for mask in range(1 << len(free_signs)):
        for b, j in enumerate(free_signs):
            y[j] = (mask >> b) & 1
        signs = [sum(v[i][j] * y[j] for j in range(k)) % 2 for i in range(k)]
        sol = tuple(
            magnitudes[i] * (-1 if signs[i] else 1) for i in range(k)
        )
        solutions.append(sol)
    solutions = sorted(set(solutions))

    solutions = [s for s in solutions if system.satisfied_by(s)]
    if not solutions and not free_directions:
        raise UnsolvableSystem("no rational solution")
    return MultiplicativeSolutions(solutions=solutions, free_directions=free_directions)
