"""Degree-bounded cohomology with exact witnesses.

Representatives are canonical: the reduced echelon basis of the cocycles
that are 0 at every B^n pivot, from one elimination of d_n, so the same
presentation always yields the same representatives, in the same order.
The weight split reads weights only through ``algebra.WeightAssignment``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraPresentation, Element, Morphism, WeightAssignment
from .algebra import _add_term, _by_index, _check_int, _derivation_vectors
from .errors import DegreeMismatch, NotACocycle, PreconditionViolated, PresentationMismatch
from .linalg import RationalMatrix, kernel_rows, reduce_mod_rows, rref, rref_solve


def _assemble(algebra: AlgebraPresentation, n: int) -> RationalMatrix:
    """The full degree-n d-matrix, one column per basis monomial, with rows
    found by monomial key."""
    src = algebra.monomial_basis(n)
    index = {m.key: i for i, m in enumerate(algebra.monomial_basis(n + 1))}
    images = _by_index(algebra, algebra._diff)
    matrix = RationalMatrix(len(index), len(src))
    lines = matrix.lines
    for j, m in enumerate(src):
        column = {}
        for key, _, _, k, c in _derivation_vectors(images, 1, m):
            _add_term(column, key, c if k == 1 else -c if k == -1 else k * c)
        for key, c in column.items():
            i = index.get(key)
            if i is None:
                bad = [t for t in algebra.d(algebra.element({m: 1})).terms if t.degree != n + 1]
                raise DegreeMismatch(f"d({m}) has the term {bad[0]} outside degree {n + 1}")
            lines[i][j] = c
    return matrix


def _d_matrix(algebra: AlgebraPresentation, n: int) -> RationalMatrix:
    """The cached degree-n d-matrix itself, assembled on first use; callers
    must not mutate it (``rref``, ``rref_solve`` and ``transpose`` do not)."""
    full = algebra._d_matrix_cache.get(n)
    if full is None:
        full = algebra._d_matrix_cache[n] = _assemble(algebra, n)
    return full


def differential_matrix(algebra: AlgebraPresentation, n: int) -> RationalMatrix:
    """Matrix of d restricted to degree n, columns indexed by the degree-n
    monomial basis and rows by the degree-(n+1) basis.

    The full matrix is assembled once per presentation and degree; every
    call returns a fresh copy.
    """
    _check_int("n", n)
    full = _d_matrix(algebra, n)
    matrix = RationalMatrix(full.rows, full.cols)
    matrix.lines = [dict(line) for line in full.lines]
    return matrix


@dataclass
class DegreeCohomology:
    algebra: AlgebraPresentation
    degree: int
    dimension: int
    representatives: List[Element]
    # sparse reduced echelon rows and ascending pivots over the degree-n
    # basis index: B^n, and the kernel of d_n off the B^n pivots; an
    # integral entry is an int, so reducing modulo the rows pays Fraction
    # arithmetic only where a denominator exists
    _boundaries: Tuple[List[Dict[int, Fraction]], List[int]] = field(repr=False)
    _rep_rows: Tuple[List[Dict[int, Fraction]], List[int]] = field(repr=False)


def cohomology_at_degree(algebra: AlgebraPresentation, n: int) -> DegreeCohomology:
    """H^n with canonical representatives, computed once per presentation
    and degree.

    B^n is the echelon form of the transposed d-matrix of degree n - 1.  The
    representatives span the kernel of d_n off the B^n pivots (the cocycles
    reduced modulo B^n), eliminated once in reversed column order: so each
    kernel vector is 1 at its free column, 0 at the other free ones and
    otherwise nonzero only at later basis indices, and the kernel basis,
    reversed, is the reduced echelon form.  Both forms are kept for
    ``class_coordinates``; cached d-matrices are not copied.
    """
    _check_int("n", n)
    cached = algebra._cohomology_cache.get(n)
    if cached is not None:
        return cached
    basis = algebra.monomial_basis(n)
    boundaries = rep_rows = ([], [])
    if basis:
        reduced, pivots = rref(_d_matrix(algebra, n - 1).transpose())
        boundaries = (reduced.lines[: len(pivots)], pivots)
        free = sorted(set(range(len(basis))).difference(pivots), reverse=True)
        column = {j: k for k, j in enumerate(free)}
        d = _d_matrix(algebra, n)
        off_b = RationalMatrix(d.rows, len(free))
        for line, restricted in zip(d.lines, off_b.lines):
            if line:
                for j, v in line.items():
                    if j in column:
                        restricted[column[j]] = v
        reduced, pivots = rref(off_b)
        kernel = kernel_rows(reduced.lines, pivots, len(free))
        rows = [{free[k]: v for k, v in vec.items()} for vec in reversed(kernel)]
        rep_rows = (rows, [min(row) for row in rows])
    reps = [algebra.element({basis[j]: row[j] for j in sorted(row)}) for row in rep_rows[0]]
    result = DegreeCohomology(algebra, n, len(reps), reps, boundaries, rep_rows)
    algebra._cohomology_cache[n] = result
    return result


def is_coboundary(algebra: AlgebraPresentation, z: Element) -> Optional[Element]:
    """A canonical witness ``w`` with ``d(w) = z``, or None.

    ``z`` must be a homogeneous cocycle.
    """
    if z.is_zero():
        return algebra.zero()
    n = z.degree()
    if n is None:
        raise NotACocycle("element is not homogeneous")
    if not algebra.d(z).is_zero():
        raise NotACocycle(f"d({z}) != 0")
    lower = algebra.monomial_basis(n - 1)
    if not lower:
        return None
    rhs = [z.terms.get(m, 0) for m in algebra.monomial_basis(n)]
    particular, _ = rref_solve(_d_matrix(algebra, n - 1), rhs)
    if particular is None:
        return None
    witness = algebra.element({m: c for m, c in zip(lower, particular) if c})
    if algebra.d(witness) != z:
        raise PreconditionViolated("internal inconsistency: coboundary witness does not bound")
    return witness


def class_coordinates(target: AlgebraPresentation, x: Element, n: int) -> List[Fraction]:
    """Coordinates of the class of cocycle ``x`` in the canonical H^n basis.

    Reduced modulo the B^n echelon rows, a cocycle is a combination of the
    representatives, whose echelon rows give its coordinates at their
    pivots; any other remainder means ``x`` is not a cocycle.
    """
    if x.algebra != target:
        raise PresentationMismatch("element belongs to a different presentation")
    h = cohomology_at_degree(target, n)
    if not x.is_homogeneous(n):
        raise NotACocycle(f"element is not homogeneous of degree {n}")
    index = {m: i for i, m in enumerate(target.monomial_basis(n))}
    rest = reduce_mod_rows({index[m]: c for m, c in x.terms.items()}, *h._boundaries)
    coordinates = [Fraction(rest.get(p, 0)) for p in h._rep_rows[1]]
    if reduce_mod_rows(rest, *h._rep_rows):
        raise NotACocycle("element is not a cocycle modulo coboundaries")
    return coordinates


def induced_map(f: Morphism, n: int):
    """Matrix of the induced cohomology map in degree n.

    Row i holds the coordinates of the image of the i-th source
    representative over the target representatives.  Homotopic chain maps
    induce the same matrix, which makes disagreement a cheap certificate of
    non-homotopy.
    """
    source_reps = cohomology_at_degree(f.source, n).representatives
    return tuple(tuple(class_coordinates(f.target, f.apply(r), n)) for r in source_reps)


def induced_map_is_isomorphism(f: Morphism, n: int) -> bool:
    matrix = induced_map(f, n)
    if len(matrix) != cohomology_at_degree(f.target, n).dimension:
        return False
    return not matrix or len(rref(RationalMatrix.from_rows(matrix))[1]) == len(matrix)


def weight_split_cohomology(
    algebra: AlgebraPresentation, n: int
) -> Dict[int, List[Element]]:
    """Split H^n by second degree i = weight - n.

    The generators' weights must pass ``validate_weights``, else
    ``WeightsMissing``.  Then d is block-diagonal by weight, so every
    canonical H^n representative is weight-homogeneous and the split
    groups them by ``weight_of_monomial``, in ascending order.  For n >= 1
    and positive weights only i > -n occurs.
    """
    _check_int("n", n)
    assignment = WeightAssignment.from_generators(algebra).require_valid()
    out: Dict[int, List[Element]] = {}
    for rep in cohomology_at_degree(algebra, n).representatives:
        weights = {assignment.weight_of_monomial(m) for m in rep.terms}
        if len(weights) != 1:
            raise PreconditionViolated(
                f"internal inconsistency: representative {rep} is not weight-homogeneous"
            )
        out.setdefault(weights.pop() - n, []).append(rep)
    return dict(sorted(out.items()))


def nilpotency_witness(
    algebra: AlgebraPresentation, z: Element, k_max: int
) -> Optional[Tuple[int, Element]]:
    """Least k <= k_max with z**k a coboundary, together with a witness."""
    _check_int("k_max", k_max)
    if not algebra.d(z).is_zero():
        raise NotACocycle("nilpotency search needs a cocycle")
    power = algebra.one()
    for k in range(1, k_max + 1):
        power = power * z
        witness = is_coboundary(algebra, power) if power.is_homogeneous() else None
        if witness is not None:
            return k, witness
    return None


@dataclass
class CohomologyClass:
    """A cohomology class carried by an explicit cocycle representative."""

    algebra: AlgebraPresentation
    degree: int
    representative: Element

    def __post_init__(self):
        if not self.algebra.d(self.representative).is_zero():
            raise NotACocycle("representative is not a cocycle")
        if not self.representative.is_homogeneous(self.degree):
            raise NotACocycle("representative has the wrong degree")

    def coboundary_witness(self) -> Optional[Element]:
        if not hasattr(self, "_witness"):
            self._witness = is_coboundary(self.algebra, self.representative)
        return self._witness

    def is_zero(self) -> bool:
        return self.coboundary_witness() is not None

    def equals(self, other: "CohomologyClass") -> bool:
        if self.algebra != other.algebra or self.degree != other.degree:
            return False
        return is_coboundary(self.algebra, self.representative - other.representative) is not None

    def __str__(self):
        return f"[{self.representative}] in H^{self.degree}"
