"""Polynomials in named scalar unknowns, and algebra elements whose
coefficients are such polynomials.

This is the substrate for turning the chain-map condition on a generic
morphism ansatz into polynomial equations: a symbolic element multiplies
like an ordinary one (the Koszul sign comes from the underlying monomials)
while its coefficients multiply as commutative polynomials over Q.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from .algebra import (
    AlgebraPresentation,
    Element,
    Monomial,
    _add_term,
    _add_terms,
    _as_rational,
    _by_index,
    _derive_terms,
    _mul_terms,
    _power,
    _signed_sum_text,
)

PowerProduct = Tuple[Tuple[str, int], ...]  # sorted by unknown name


def _merge_power_products(a: PowerProduct, b: PowerProduct) -> PowerProduct:
    exps: Dict[str, int] = {}
    for n, e in a:
        exps[n] = exps.get(n, 0) + e
    for n, e in b:
        exps[n] = exps.get(n, 0) + e
    return tuple(sorted((n, e) for n, e in exps.items() if e))


class Poly:
    """A polynomial over Q in named commuting unknowns; canonical term dict."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[PowerProduct, Fraction]] = None):
        self.terms: Dict[PowerProduct, Fraction] = {}
        if terms:
            for pp, c in terms.items():
                c = _as_rational(c)
                if c:
                    self.terms[pp] = c

    @classmethod
    def constant(cls, c) -> "Poly":
        c = _as_rational(c)
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(pp == () for pp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), 0)

    def variables(self) -> set:
        return {n for pp in self.terms for n, _ in pp}

    def max_term_degree(self) -> int:
        return max((sum(e for _, e in pp) for pp in self.terms), default=0)

    def is_linear(self) -> bool:
        return self.max_term_degree() <= 1

    def linear_parts(self):
        """(constant, {var: coefficient}); raises on nonlinear input."""
        if not self.is_linear():
            raise ValueError("polynomial is not linear")
        const = 0
        coeffs: Dict[str, Fraction] = {}
        for pp, c in self.terms.items():
            if pp == ():
                const = c
            else:
                coeffs[pp[0][0]] = c
        return const, coeffs

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        p = Poly()
        p.terms = _add_terms(self.terms, other.terms)
        return p

    def __neg__(self) -> "Poly":
        p = Poly()
        p.terms = {pp: -c for pp, c in self.terms.items()}
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _as_rational(other)
            if not c:
                return Poly()
            p = Poly()
            p.terms = {pp: co * c for pp, co in self.terms.items()}
            return p
        out: Dict[PowerProduct, Fraction] = {}
        for pp1, c1 in self.terms.items():
            for pp2, c2 in other.terms.items():
                _add_term(out, _merge_power_products(pp1, pp2), c1 * c2)
        p = Poly()
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        return _power(operator.mul, self, k, Poly.constant(1))

    def substitute(self, values: Mapping[str, object]) -> "Poly":
        """Replace unknowns by polynomials or by rationals (ints and
        Fractions).  A term with no replaced unknown is copied unchanged, and
        each power of a value is computed once per call."""
        powers: Dict[Tuple[str, int], object] = {}
        out: Dict[PowerProduct, Fraction] = {}
        for pp, c in self.terms.items():
            if not any(n in values for n, _ in pp):
                _add_term(out, pp, c)
                continue
            products = [(tuple(f for f in pp if f[0] not in values), 1)]
            for n, e in pp:
                if n in values:
                    power = powers.get((n, e))
                    if power is None:
                        v = values[n]
                        power = powers[n, e] = v**e if isinstance(v, Poly) else _as_rational(v) ** e
                    if isinstance(power, Poly):
                        products = [
                            (_merge_power_products(pp1, pp2), c1 * c2)
                            for pp1, c1 in products
                            for pp2, c2 in power.terms.items()
                        ]
                    else:
                        c *= power
            if c:
                for pp2, c2 in products:
                    _add_term(out, pp2, c * c2)
        p = Poly()
        p.terms = out
        return p

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        out = 0
        for pp, c in self.terms.items():
            acc = c
            for n, e in pp:
                acc *= _as_rational(values[n]) ** e
            out += acc
        return out

    # -- identity -----------------------------------------------------------

    def canonical(self) -> Tuple:
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.canonical())

    def __str__(self):
        return _signed_sum_text((c, pp) for pp, c in sorted(self.terms.items()))

    __repr__ = __str__


class SymbolicElement:
    """An element of an algebra with Poly coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: AlgebraPresentation, terms: Optional[Dict[Monomial, Poly]] = None):
        self.algebra = algebra
        self.terms: Dict[Monomial, Poly] = {m: p for m, p in (terms or {}).items() if p}

    @classmethod
    def from_element(cls, x: Element) -> "SymbolicElement":
        return cls(x.algebra, {m: Poly.constant(c) for m, c in x.terms.items()})

    @classmethod
    def unknown_times(cls, name: str, x: Element) -> "SymbolicElement":
        v = Poly.variable(name)
        return cls(x.algebra, {m: v * c for m, c in x.terms.items()})

    def __add__(self, other: "SymbolicElement") -> "SymbolicElement":
        return SymbolicElement(self.algebra, _add_terms(self.terms, other.terms))

    def __neg__(self):
        return SymbolicElement(self.algebra, {m: -p for m, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other) -> "SymbolicElement":
        if not isinstance(other, (SymbolicElement, Element)):
            return SymbolicElement(self.algebra, {m: p * other for m, p in self.terms.items()})
        return SymbolicElement(self.algebra, _mul_terms(self.algebra, self.terms, other.terms))

    def __pow__(self, k: int) -> "SymbolicElement":
        return _power(operator.mul, self, k, SymbolicElement.from_element(self.algebra.one()))

    def substitute(self, values: Mapping[str, Poly]) -> "SymbolicElement":
        return SymbolicElement(
            self.algebra, {m: p.substitute(values) for m, p in self.terms.items()}
        )

    def evaluate(self, values: Mapping[str, Fraction]) -> Element:
        return self.algebra.element(
            {m: p.evaluate(values) for m, p in self.terms.items()}
        )

    def variables(self) -> set:
        out = set()
        for p in self.terms.values():
            out |= p.variables()
        return out

    def d(self) -> "SymbolicElement":
        """Differential; coefficients are scalars for d."""
        images = _by_index(self.algebra, self.algebra.differential_images())
        return SymbolicElement(self.algebra, _derive_terms(self.algebra, images, 1, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({p})*{m}" for m, p in sorted(self.terms.items(), key=lambda kv: self.algebra.monomial_sort_key(kv[0]))
        )

    __repr__ = __str__
