"""Degree-bounded cohomology with exact witnesses.

Representatives are canonical: the reduced kernel vectors are put in reduced
row echelon form, so the same presentation always yields the same cocycle
representatives, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraPresentation, Element, Morphism, _derive_terms
from .errors import DegreeMismatch, NotACocycle, PreconditionViolated, PresentationMismatch, WeightsMissing
from .linalg import RationalMatrix, kernel_rows, reduce_mod_rows, rref, rref_solve


def _assemble(algebra: AlgebraPresentation, n: int) -> RationalMatrix:
    """The full degree-n d-matrix, read off the term kernel per basis monomial."""
    src = algebra.monomial_basis(n)
    index = {m: i for i, m in enumerate(algebra.monomial_basis(n + 1))}
    images = {name: img.terms for name, img in algebra._diff.items()}
    matrix = RationalMatrix(len(index), len(src))
    one = Fraction(1)
    for j, m in enumerate(src):
        for mono, c in _derive_terms(algebra, images, 1, {m: one}).items():
            i = index.get(mono)
            if i is None:
                raise DegreeMismatch(f"d({m}) has the term {mono} outside degree {n + 1}")
            matrix.entries[i, j] = c
    return matrix


def differential_matrix(algebra: AlgebraPresentation, n: int, allowed=None) -> RationalMatrix:
    """Matrix of d restricted to degree n, columns indexed by the degree-n
    monomial basis and rows by the degree-(n+1) basis.

    The full matrix is assembled once per presentation and degree; every
    call returns a fresh copy.  ``allowed`` restricts both bases to a
    sub-basis that d must preserve (used for weight splitting).
    """
    full = algebra._d_matrix_cache.get(n)
    if full is None:
        full = algebra._d_matrix_cache[n] = _assemble(algebra, n)
    if allowed is None:
        matrix = RationalMatrix(full.rows, full.cols)
        matrix.entries = dict(full.entries)
        return matrix
    src = algebra.monomial_basis(n)
    cols = {j: k for k, j in enumerate(j for j, m in enumerate(src) if allowed(m))}
    target = algebra.monomial_basis(n + 1)
    rows = {i: k for k, i in enumerate(i for i, m in enumerate(target) if allowed(m))}
    matrix = RationalMatrix(len(rows), len(cols))
    for (i, j), v in full.entries.items():
        if j in cols:
            if i not in rows:
                raise PreconditionViolated(f"d({src[j]}) leaves the sub-basis: term {target[i]}")
            matrix.entries[rows[i], cols[j]] = v
    return matrix


def _echelon(matrix: RationalMatrix) -> Tuple[List[Dict[int, Fraction]], List[int]]:
    """The sparse reduced echelon rows of ``matrix`` and their pivots."""
    reduced, pivots = rref(matrix)
    return reduced.sparse_rows()[: len(pivots)], pivots


@dataclass
class DegreeCohomology:
    algebra: AlgebraPresentation
    degree: int
    dimension: int
    representatives: List[Element]


def _representatives(algebra: AlgebraPresentation, n: int, allowed=None) -> List[Element]:
    """Canonical cocycle representatives of H^n, optionally restricted to a
    sub-basis (used for weight splitting; d preserves the restriction)."""
    basis = [m for m in algebra.monomial_basis(n) if allowed is None or allowed(m)]
    if not basis:
        return []
    # Z^n from the reduced d-matrix; B^n is the row space of the transposed
    # d-matrix of degree n - 1
    kernel = kernel_rows(*_echelon(differential_matrix(algebra, n, allowed)), len(basis))
    image_rows, image_pivots = _echelon(differential_matrix(algebra, n - 1, allowed).transpose())
    reduced = [reduce_mod_rows(vec, image_rows, image_pivots) for vec in kernel]
    reduced = [red for red in reduced if red]
    if not reduced:
        return []
    matrix = RationalMatrix(len(reduced), len(basis))
    matrix.entries = {(i, j): v for i, red in enumerate(reduced) for j, v in red.items()}
    rep_rows, _ = _echelon(matrix)
    return [Element(algebra, {basis[j]: row[j] for j in sorted(row)}) for row in rep_rows]


def cohomology_at_degree(algebra: AlgebraPresentation, n: int) -> DegreeCohomology:
    cached = algebra._cohomology_cache.get(n)
    if cached is not None:
        return cached
    reps = _representatives(algebra, n)
    result = DegreeCohomology(algebra, n, len(reps), reps)
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
    d_matrix = differential_matrix(algebra, n - 1)
    particular, _ = rref_solve(d_matrix, [z.terms.get(m, 0) for m in algebra.monomial_basis(n)])
    if particular is None:
        return None
    witness = algebra.element({m: c for m, c in zip(lower, particular) if c})
    if algebra.d(witness) != z:
        raise PreconditionViolated("internal inconsistency: coboundary witness does not bound")
    return witness


def class_coordinates(
    target: AlgebraPresentation, x: Element, n: int
) -> List[Fraction]:
    """Coordinates of the class of cocycle ``x`` in the canonical H^n basis."""
    if x.algebra != target:
        raise PresentationMismatch("element belongs to a different presentation")
    if not x.is_homogeneous(n):
        raise NotACocycle(f"element is not homogeneous of degree {n}")
    reps = cohomology_at_degree(target, n).representatives
    index = {m: i for i, m in enumerate(target.monomial_basis(n))}
    # columns: the representatives, then d of each degree-(n-1) monomial
    d_lower = differential_matrix(target, n - 1)
    k = len(reps)
    matrix = RationalMatrix(d_lower.rows, k + d_lower.cols)
    matrix.entries = {(i, j + k): v for (i, j), v in d_lower.entries.items()}
    for j, r in enumerate(reps):
        for m, c in r.terms.items():
            matrix.entries[index[m], j] = c
    sol, _ = rref_solve(matrix, [x.terms.get(m, 0) for m in target.monomial_basis(n)])
    if sol is None:
        raise NotACocycle("element is not a cocycle modulo coboundaries")
    return sol[:k]


def induced_map(f: Morphism, n: int):
    """Matrix of the induced cohomology map in degree n.

    Row i holds the coordinates of the image of the i-th source
    representative over the target representatives.  Homotopic chain maps
    induce the same matrix, which makes disagreement a cheap certificate of
    non-homotopy.
    """
    source_reps = cohomology_at_degree(f.source, n).representatives
    return tuple(
        tuple(class_coordinates(f.target, f.apply(r), n)) for r in source_reps
    )


def induced_map_is_isomorphism(f: Morphism, n: int) -> bool:
    matrix = induced_map(f, n)
    dim_src = len(matrix)
    dim_tgt = cohomology_at_degree(f.target, n).dimension
    if dim_src != dim_tgt:
        return False
    return dim_src == 0 or len(rref(RationalMatrix.from_rows(matrix))[1]) == dim_src


def monomial_weight(algebra: AlgebraPresentation, m) -> int:
    w = 0
    for name, e in m.factors:
        g = algebra.generator(name)
        if g.weight is None:
            raise WeightsMissing(f"generator {name} has no weight")
        w += g.weight * e
    return w


def weight_split_cohomology(
    algebra: AlgebraPresentation, n: int
) -> Dict[int, List[Element]]:
    """Split H^n by second degree i = weight - n.

    Requires a full weight assignment; the differential preserves weights on
    validated assignments, so the cochain complex splits and the per-weight
    representative lists together form a basis of H^n.  For n >= 1 and
    positive weights only i > -n occurs.
    """
    if not algebra.has_weights():
        raise WeightsMissing("all generators need weights for a weight split")
    for g in algebra.generators:
        for m in algebra.differential_image(g.name).terms:
            if monomial_weight(algebra, m) != g.weight:
                raise WeightsMissing(
                    f"d({g.name}) is not homogeneous of weight {g.weight}: term {m}"
                )
    weights = sorted({monomial_weight(algebra, m) for m in algebra.monomial_basis(n)})
    out: Dict[int, List[Element]] = {}
    for w in weights:
        reps = _representatives(
            algebra, n, allowed=lambda m, w=w: monomial_weight(algebra, m) == w
        )
        if reps:
            out[w - n] = reps
    return out


def nilpotency_witness(
    algebra: AlgebraPresentation, z: Element, k_max: int
) -> Optional[Tuple[int, Element]]:
    """Least k <= k_max with z**k a coboundary, together with a witness."""
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
    weight: Optional[int] = None

    def __post_init__(self):
        if not self.algebra.d(self.representative).is_zero():
            raise NotACocycle("representative is not a cocycle")
        if not self.representative.is_homogeneous(self.degree):
            if not self.representative.is_zero():
                raise NotACocycle("representative has the wrong degree")
        self._witness_cache = False
        self._witness = None

    def coboundary_witness(self) -> Optional[Element]:
        if not self._witness_cache:
            self._witness = is_coboundary(self.algebra, self.representative)
            self._witness_cache = True
        return self._witness

    def is_zero(self) -> bool:
        return self.coboundary_witness() is not None

    def equals(self, other: "CohomologyClass") -> bool:
        if self.algebra != other.algebra or self.degree != other.degree:
            return False
        return is_coboundary(self.algebra, self.representative - other.representative) is not None

    def __str__(self):
        return f"[{self.representative}] in H^{self.degree}"
