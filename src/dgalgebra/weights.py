"""Positive weight gradings, scaling automorphisms, and the machinery that
turns one nontrivial homotopy class into infinitely many.

The weight layer lives in ``algebra`` and is re-exported here: a
``WeightAssignment`` is valid when ``validate_weights`` finds every
generator weighted by a positive ``int`` and every differential image
weight-homogeneous of its generator's weight.  A valid assignment yields,
for every nonzero rational lambda, the diagonal automorphism scaling each
generator by lambda**weight(v); on a degree-n class of second degree
i = weight - n the induced map is multiplication by lambda**(n + i).

Given a map f that is not nullhomotopic and weights on either side, the
composites with powers of the scaling automorphism are pairwise
non-homotopic: after normalising f to vanish below its first obstructed
stage, the pairwise obstruction representatives pick up the exact scalar
lambda**(i*w) - lambda**(j*w) on a weight-w component, which is nonzero for
lambda outside {0, 1, -1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraPresentation, Element, Morphism, _as_rational, _check_int, compose
from .algebra import WeightAssignment, WeightIssue, WeightReport, validate_weights  # noqa: F401 (re-exported)
from .cohomology import is_coboundary
from .errors import PreconditionViolated, ZeroLambda
from .linalg import RationalMatrix, rref_solve
from .obstruction import Filtration, decide_nullhomotopic


def phi_lambda(assignment: WeightAssignment, lam) -> Morphism:
    """The diagonal automorphism v -> lambda**weight(v) * v.

    Inverse under phi_lambda(1/lambda); always a chain map on a validated
    assignment.
    """
    lam = _as_rational(lam)
    if lam == 0:
        raise ZeroLambda("the scaling parameter must be nonzero")
    assignment.require_valid()
    algebra = assignment.algebra
    images = {
        g.name: algebra.gen(g.name) * (lam ** assignment.weights[g.name])
        for g in algebra.generators
    }
    return Morphism(algebra, algebra, images)


# -- weight search (non-universality reports) -----------------------------------


@dataclass
class WeightSearchResult:
    """Outcome of solving the weight-homogeneity system over Q.

    The system is homogeneous and linear in the generator weights; its
    solution space decides whether any positive weight assignment exists.
    ``certificate`` holds an integral positive assignment when one is found.
    ``conclusive`` is False only when the solution space has dimension 2 or
    more and the bounded walk over integer combinations of its basis found
    no positive point; on dimension 0 or 1 the walk is exhaustive, since a
    line holds a positive point only if a multiple of its one basis vector
    by some c in -10..10 is positive.
    """

    algebra: AlgebraPresentation
    solution_dimension: int
    basis: List[Tuple[Fraction, ...]]
    certificate: Optional[Dict[str, int]]
    conclusive: bool

    @property
    def universal(self) -> Optional[bool]:
        if self.certificate is not None:
            return True
        return False if self.conclusive else None


def find_weight_assignment(algebra: AlgebraPresentation) -> WeightSearchResult:
    """Search for a positive weight assignment making d weight-preserving.

    Builds one linear equation per (generator, differential term):
    sum of factor weights = generator weight.  A strictly positive point of
    the rational solution space, found by one walk over small integer
    combinations of the kernel basis in every dimension, scales to a
    positive integral assignment.
    """
    names = algebra.generator_names()
    index = {n: i for i, n in enumerate(names)}
    entries: Dict[Tuple[int, int], int] = {}
    rows = 0
    for g in algebra.generators:
        for m in algebra.differential_image(g.name).terms:
            for n, e in (*m.factors, (g.name, -1)):
                entries[rows, index[n]] = entries.get((rows, index[n]), 0) + e
            rows += 1
    _, kernel = rref_solve(RationalMatrix(rows, len(names), entries), [0] * rows)

    dim = len(kernel)
    found = _search_positive_combination(kernel, bound=10) if kernel else None
    certificate = None if found is None else _integralise(names, found)
    conclusive = dim < 2 or found is not None
    if certificate is not None:
        trial = WeightAssignment(algebra, certificate)
        if not validate_weights(trial).ok:
            raise PreconditionViolated("internal inconsistency: certificate invalid")
    return WeightSearchResult(algebra, dim, [tuple(v) for v in kernel], certificate, conclusive)


def _integralise(names, vector) -> Dict[str, int]:
    denominators = [Fraction(v).denominator for v in vector]
    scale = 1
    for d in denominators:
        scale = math.lcm(scale, d)
    ints = [int(Fraction(v) * scale) for v in vector]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return {n: v for n, v in zip(names, ints)}


def _search_positive_combination(kernel, bound: int):
    from itertools import product

    k = len(kernel)
    n = len(kernel[0])
    for coeffs in product(range(-bound, bound + 1), repeat=k):
        if all(c == 0 for c in coeffs):
            continue
        vec = [Fraction(0)] * n
        for c, basis_vec in zip(coeffs, kernel):
            if c:
                for i in range(n):
                    vec[i] += c * basis_vec[i]
        if all(v > 0 for v in vec):
            return vec
    return None


# -- infinite-family certification ------------------------------------------------


@dataclass
class FamilyPair:
    i: int
    j: int
    generator: str
    scale_weight: int
    scale_factor: Fraction
    distinct: bool


@dataclass
class InfiniteFamilyReport:
    side: str
    lam: Fraction
    count: int
    stage: int
    base_map: Morphism  # normalised map vanishing below the stage
    pairs: List[FamilyPair]

    @property
    def all_distinct(self) -> bool:
        return all(p.distinct for p in self.pairs)


def _weight_components(assignment: WeightAssignment, x: Element):
    out: Dict[int, Element] = {}
    for m, c in x.terms.items():
        w = assignment.weight_of_monomial(m)
        out[w] = out.get(w, assignment.algebra.zero()) + assignment.algebra.element({m: c})
    return out


def verify_infinite_family(f: Morphism, side: str, lam, count: int) -> InfiniteFamilyReport:
    """Certify that composing f with powers of the scaling automorphism gives
    pairwise non-homotopic maps.

    ``side`` is ``"target"`` (post-compose on a weighted target) or
    ``"source"`` (pre-compose on a weighted source).  Needs lambda outside
    {0, 1, -1} and a non-nullhomotopic f; the pairwise distinctness is
    certified through the obstruction of the normalised map, whose weight
    components scale by exactly lambda**(i*w) - lambda**(j*w).
    """
    _check_int("count", count)
    if count < 1:
        raise PreconditionViolated(f"count must be at least 1, not {count}")
    lam = _as_rational(lam)
    if lam in (0, 1, -1):
        raise PreconditionViolated("lambda must avoid 0, 1 and -1")
    if side not in ("target", "source"):
        raise PreconditionViolated("side must be 'target' or 'source'")
    assignment = WeightAssignment.from_generators(f.target if side == "target" else f.source).require_valid()

    verdict = decide_nullhomotopic(f, Filtration.by_degree(f.source))
    if verdict.nullhomotopic:
        raise PreconditionViolated(
            "the map is nullhomotopic; its composites form a single class"
        )
    failure = verdict.failure
    f_prime = failure.modified_map
    stage = failure.stage

    # A weight-wt component x of f'(w) contributes (lam**(i*wt) -
    # lam**(j*wt)) * x to the obstruction of composites i and j, so the first
    # non-bounding component separates every pair and is searched for once.
    # On a weighted target the components are those of f'(w); on a weighted
    # source f'(w) is one component, of the weight of w.
    target = f_prime.target
    w, wt, comp = next(
        (
            (w, wt, comp)
            for w in failure.obstruction.nonzero_generators()
            for wt, comp in sorted(
                _weight_components(assignment, f_prime.images[w]).items()
                if side == "target"
                else [(assignment.weights[w], f_prime.images[w])]
            )
            if is_coboundary(target, comp) is None
        ),
        ("", 0, None),  # no separating component: every factor below is 0
    )
    pairs = []
    for i in range(count + 1):
        for j in range(i + 1, count + 1):
            # both composites vanish wherever f' does, so the pairwise
            # obstruction with the zero homotopy is the scaled component
            factor = lam ** (i * wt) - lam ** (j * wt)
            distinct = factor != 0 and is_coboundary(target, comp * factor) is None
            pairs.append(FamilyPair(i, j, w, wt, factor, distinct))
    return InfiniteFamilyReport(side, lam, count, stage, f_prime, pairs)


def scaled_composite(
    f: Morphism, side: str, assignment: WeightAssignment, lam, power: int
) -> Morphism:
    """The composite of f with the power-th iterate of the scaling map."""
    _check_int("power", power)
    phi = phi_lambda(assignment, lam)
    out = f
    for _ in range(power):
        out = compose(phi, out) if side == "target" else compose(out, phi)
    return out
