"""Degree-bounded cohomology with exact witnesses.

Representatives are canonical: the reduced kernel vectors are put in reduced
row echelon form, so the same presentation always yields the same cocycle
representatives, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraPresentation, Element, Morphism
from .errors import NotACocycle, PreconditionViolated, PresentationMismatch, WeightsMissing
from .linalg import (
    RationalMatrix,
    reduce_mod_rows,
    row_space_basis,
    rref,
    rref_solve,
)


def _index(basis: List) -> Dict:
    return {m: i for i, m in enumerate(basis)}


def _coords(x: Element, basis: List) -> List[Fraction]:
    index = _index(basis)
    vec = [Fraction(0)] * len(basis)
    for m, c in x.terms.items():
        vec[index[m]] = c
    return vec


def _from_coords(algebra: AlgebraPresentation, basis: List, vec) -> Element:
    return algebra.element({m: Fraction(c) for m, c in zip(basis, vec) if c})


def _basis(algebra: AlgebraPresentation, n: int, allowed=None) -> List:
    basis = algebra.monomial_basis(n)
    return basis if allowed is None else [m for m in basis if allowed(m)]


def differential_matrix(algebra: AlgebraPresentation, n: int, allowed=None) -> RationalMatrix:
    """Matrix of d restricted to degree n, columns indexed by the degree-n
    monomial basis and rows by the degree-(n+1) basis.

    ``allowed`` restricts both bases to a sub-basis that d must preserve
    (used for weight splitting).
    """
    src = _basis(algebra, n, allowed)
    index = _index(_basis(algebra, n + 1, allowed))
    matrix = RationalMatrix(len(index), len(src))
    for j, m in enumerate(src):
        for mono, c in algebra.d(algebra.element({m: 1})).terms.items():
            matrix.entries[index[mono], j] = c
    return matrix


@dataclass
class DegreeCohomology:
    algebra: AlgebraPresentation
    degree: int
    dimension: int
    representatives: List[Element]


def _representatives(
    algebra: AlgebraPresentation, n: int, allowed=None
) -> List[Element]:
    """Canonical cocycle representatives of H^n, optionally restricted to a
    sub-basis (used for weight splitting; d preserves the restriction)."""
    basis = _basis(algebra, n, allowed)
    if not basis:
        return []
    d_matrix = differential_matrix(algebra, n, allowed)
    _, kernel = rref_solve(d_matrix, [0] * d_matrix.rows)

    # B^n is the row space of the transposed d-matrix of degree n - 1
    image, image_pivots = rref(differential_matrix(algebra, n - 1, allowed).transpose())
    image_rows = image.sparse_rows()

    reduced = []
    for vec in kernel:
        red = reduce_mod_rows(vec, image_rows, image_pivots)
        if any(red):
            reduced.append(red)
    rep_rows, _ = row_space_basis(reduced)
    return [_from_coords(algebra, basis, row) for row in rep_rows]


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
    target = _coords(z, algebra.monomial_basis(n))
    particular, _ = rref_solve(d_matrix, target)
    if particular is None:
        return None
    witness = _from_coords(algebra, lower, particular)
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
    index = _index(target.monomial_basis(n))
    # columns: the representatives, then d of each degree-(n-1) monomial
    d_lower = differential_matrix(target, n - 1)
    k = len(reps)
    matrix = RationalMatrix(d_lower.rows, k + d_lower.cols)
    matrix.entries = {(i, j + k): v for (i, j), v in d_lower.entries.items()}
    for j, r in enumerate(reps):
        for m, c in r.terms.items():
            matrix.entries[index[m], j] = c
    sol, _ = rref_solve(matrix, _coords(x, target.monomial_basis(n)))
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
