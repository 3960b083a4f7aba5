"""Independent reference arithmetic for the benchmark's correctness checks.

A small free graded-commutative algebra engine written apart from
``dgalgebra`` (nothing here imports it).  Monomials are exponent tuples over
a fixed generator order; a product carries the Koszul sign of the odd-odd
transpositions needed to sort it.  Exact checks such as ``d(w) = z`` run over
``Fraction``; ranks are taken modulo the Mersenne prime 2**61 - 1, so a rank
can only drop below its rational value when that prime divides a pivot,
which the benchmark's small integer inputs make vanishingly unlikely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

PRIME = (1 << 61) - 1

Mono = Tuple[int, ...]
Poly = Dict[Mono, Fraction]


class RefAlgebra:
    """Free graded-commutative algebra with a differential given on generators.

    ``generators`` is a list of ``(name, degree)``; ``images`` maps a name to
    a list of ``(coefficient, [(name, exponent), ...])`` terms, each term an
    ordered product.
    """

    def __init__(self, generators: Sequence[Tuple[str, int]], images):
        self.names = [n for n, _ in generators]
        self.degrees = [d for _, d in generators]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.odd = [d % 2 == 1 for d in self.degrees]
        self.diff: Dict[int, Poly] = {}
        for name, terms in images.items():
            img = self.from_factors(terms)
            if img:
                self.diff[self.index[name]] = img
        self._basis: Dict[int, List[Mono]] = {}
        self._image_span: Dict[int, ModSpan] = {}
        self._rank: Dict[int, int] = {}

    # -- elements ---------------------------------------------------------

    def unit(self) -> Mono:
        return (0,) * len(self.names)

    def mono_degree(self, m: Mono) -> int:
        return sum(e * d for e, d in zip(m, self.degrees))

    def mono_mul(self, a: Mono, b: Mono) -> Tuple[int, Optional[Mono]]:
        """Sign and product of two sorted monomials, ``(0, None)`` if zero."""
        sign = 1
        odd_after = 0  # odd factors of ``a`` at positions after the current one
        for i in range(len(a) - 1, -1, -1):
            if self.odd[i]:
                if a[i] and b[i]:
                    return 0, None
                # b's odd factor at i moves left past a's odd factors above i
                if b[i] and odd_after % 2:
                    sign = -sign
                odd_after += a[i]
        return sign, tuple(x + y for x, y in zip(a, b))

    def mul(self, x: Poly, y: Poly) -> Poly:
        out: Poly = {}
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                s, m = self.mono_mul(m1, m2)
                if s:
                    v = out.get(m, 0) + s * c1 * c2
                    if v:
                        out[m] = v
                    else:
                        out.pop(m, None)
        return out

    def add(self, x: Poly, y: Poly, scale=1) -> Poly:
        out = dict(x)
        for m, c in y.items():
            v = out.get(m, 0) + scale * c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return out

    def power(self, x: Poly, k: int) -> Poly:
        out: Poly = {self.unit(): Fraction(1)}
        for _ in range(k):
            out = self.mul(out, x)
        return out

    def from_factors(self, terms: Iterable) -> Poly:
        """Element from ``(coefficient, [(name, exponent), ...])`` ordered products."""
        out: Poly = {}
        for coeff, factors in terms:
            acc: Poly = {self.unit(): Fraction(coeff)}
            for name, exp in factors:
                g = [0] * len(self.names)
                g[self.index[name]] = 1
                for _ in range(exp):
                    acc = self.mul(acc, {tuple(g): Fraction(1)})
            out = self.add(out, acc)
        return out

    def d(self, x: Poly) -> Poly:
        """The differential, by the Leibniz rule with sign ``(-1)**|prefix|``."""
        out: Poly = {}
        for m, c in x.items():
            prefix = [0] * len(m)
            prefix_degree = 0
            for i, e in enumerate(m):
                if not e:
                    continue
                img = self.diff.get(i)
                if img is not None:
                    left = list(prefix)
                    left[i] = e - 1
                    right = [0] * len(m)
                    right[i + 1:] = m[i + 1:]
                    sign = -1 if prefix_degree % 2 else 1
                    term = self.mul(self.mul({tuple(left): Fraction(1)}, img), {tuple(right): Fraction(1)})
                    out = self.add(out, term, sign * e * c)
                prefix[i] = e
                prefix_degree += e * self.degrees[i]
        return out

    # -- degree-wise linear algebra ------------------------------------------

    def basis(self, n: int) -> List[Mono]:
        cached = self._basis.get(n)
        if cached is not None:
            return cached
        out: List[Mono] = []

        def extend(i, remaining, picked):
            if i == len(self.names):
                if remaining == 0:
                    out.append(tuple(picked))
                return
            top = 1 if self.odd[i] else remaining // self.degrees[i]
            for e in range(min(top, remaining // self.degrees[i]) + 1):
                extend(i + 1, remaining - e * self.degrees[i], picked + [e])

        if n >= 0:
            extend(0, n, [])
        self._basis[n] = out
        return out

    def rank_d(self, n: int) -> int:
        """Rank of d from degree n to degree n+1, modulo ``PRIME``."""
        if n not in self._rank:
            self._rank[n] = self.boundary_span(n + 1).rank
        return self._rank[n]

    def boundary_span(self, n: int) -> "ModSpan":
        """Echelon basis of the coboundaries B^n, modulo ``PRIME``."""
        span = self._image_span.get(n)
        if span is None:
            span = ModSpan()
            for m in self.basis(n - 1):
                span.add(to_mod(self.d({m: Fraction(1)})))
            self._image_span[n] = span
        return span

    def cohomology_dimension(self, n: int) -> int:
        return len(self.basis(n)) - self.rank_d(n) - self.rank_d(n - 1)

    def is_coboundary(self, z: Poly) -> bool:
        """Whether the homogeneous element ``z`` lies in B^n (rank test mod p)."""
        if not z:
            return True
        n = self.mono_degree(next(iter(z)))
        return not self.boundary_span(n).reduce(to_mod(z))

    def independent_mod_boundaries(self, n: int, elements: List[Poly]) -> bool:
        span = self.boundary_span(n).copy()
        return all(span.add(to_mod(x)) for x in elements)


def to_mod(x: Poly) -> Dict[Mono, int]:
    out = {}
    for m, c in x.items():
        v = c.numerator % PRIME * pow(c.denominator, -1, PRIME) % PRIME
        if v:
            out[m] = v
    return out


class ModSpan:
    """Row echelon basis of a subspace of a free module over GF(PRIME).

    Vectors are sparse dicts keyed by any totally ordered labels; each
    stored row is monic at its least label, its pivot.
    """

    def __init__(self):
        self.rows: Dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "ModSpan":
        other = ModSpan()
        other.rows = dict(self.rows)
        return other

    def reduce(self, v: Dict) -> Dict:
        """``v`` minus span elements, returned as soon as its least label is
        not a pivot; empty exactly when ``v`` lies in the span."""
        v = dict(v)
        while v:
            lead = min(v)
            row = self.rows.get(lead)
            if row is None:
                return v
            f = v[lead]
            for j, x in row.items():
                nv = (v.get(j, 0) - f * x) % PRIME
                if nv:
                    v[j] = nv
                else:
                    v.pop(j, None)
        return v

    def add(self, v: Dict) -> bool:
        """Insert ``v``; False when it was already in the span."""
        r = self.reduce(v)
        if not r:
            return False
        lead = min(r)
        inv = pow(r[lead], -1, PRIME)
        self.rows[lead] = {j: x * inv % PRIME for j, x in r.items()}
        return True
