"""Free graded-commutative differential algebras over the rationals.

Conventions fixed by this module and relied on everywhere else:

* Coefficients are exact: ``int`` where integral and ``fractions.Fraction``
  only where a denominator exists (arithmetic may leave an integral
  ``Fraction``).  Coefficients from outside pass ``_as_rational``; no floats.
* Generators are totally ordered by ``(degree, name)``.  A monomial is
  identified by one non-negative ``int`` key that packs its exponent of
  generator ``i`` into the ``_WIDTH``-bit field at bit ``_WIDTH * i``, so
  two equal elements always have identical term dictionaries (canonical
  form).  Its exponent tuple, ``(name, exponent)`` factors and printed text
  are derived views; monomials of another presentation (a subalgebra, the
  cylinder) are re-indexed by name, never mixed in one term dict.
* An exponent is at most its monomial's degree, so keys add without a
  carry between fields while degrees stay below ``2**_WIDTH``.  Every path
  that adds or shifts fields checks the result degree first and raises
  ``PreconditionViolated`` at ``2**_WIDTH`` or beyond.
* Transposing two adjacent factors of degrees ``p`` and ``q`` multiplies
  a monomial by ``(-1)**(p*q)``.  Consequently an odd-degree generator
  squares to zero, and only inversions between odd factors contribute to
  the normalisation sign, which is read off bitmasks of odd generators.
* A derivation of (degree) parity ``e`` satisfies
  ``theta(a*b) = theta(a)*b + (-1)**(e*|a|) * a*theta(b)``;
  the differential is the parity-1 instance.

Every sum, Koszul product, power, derivation and multiplicative extension
of generator images on term dicts ``{Monomial: coefficient}`` goes through
one kernel, the private ``_add_terms``, ``_mul_terms``, ``_power``,
``_derive_terms`` and ``_extend_terms`` below, on keys: a product adds
two keys, and a derivation puts the key of each term of ``theta(g_i)`` in
place of one copy of ``g_i`` by ``key - (1 << _WIDTH * i) + image_key``.
``normalize_monomial`` is only the entry point for raw ``(name, exponent)``
lists.  The kernel uses only ``+``, ``*`` (also by an ``int``), unary ``-``
and truthiness of the coefficients, so ``Element``, ``Morphism`` and the
cylinder's ``alpha`` (rational coefficients) share it with
``symbolic.SymbolicElement`` and the generic ansatz (``symbolic.Poly``
coefficients); ``Poly`` reuses its sum and power.

The weight layer lives here too: ``WeightAssignment.weight_of_monomial``
is the only sum of factor weights, ``validate_weights`` the only judge of
an assignment (every generator weighted by a positive ``int``, no other
name, d weight-homogeneous), and ``WeightAssignment.require_valid`` the
only place that raises ``WeightsMissing`` on its report.

Values are immutable once built: presentations, elements and morphisms can
be shared freely between threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    DegreeMismatch,
    DgaError,
    PreconditionViolated,
    PresentationMismatch,
    UnknownGenerator,
    WeightsMissing,
)

Scalar = (int, Fraction)

# The bit width of one exponent field of a monomial key.
_WIDTH = 32
_MASK = (1 << _WIDTH) - 1
_DEGREE_BOUND = 1 << _WIDTH


@dataclass(frozen=True)
class Generator:
    """A named algebra generator with its total degree and optional extras.

    ``weight`` is a positive multiplicative grading read through
    :class:`WeightAssignment`; ``stage`` is a filtration index used by the
    stage-wise nullhomotopy decision.  Degree, weight and stage are each an
    ``int`` (a ``bool`` is not one), else ``PreconditionViolated``.
    """

    name: str
    degree: int
    weight: Optional[int] = None
    stage: Optional[int] = None

    def __post_init__(self):
        if not self.name:
            raise DgaError("generator needs a nonempty name")
        for attr, least in (("degree", 1), ("weight", 1), ("stage", 0)):
            value = getattr(self, attr)
            if value is not None or attr == "degree":
                _check_int(f"generator {self.name}: {attr}", value)
                if value < least:
                    raise DgaError(f"generator {self.name}: {attr} must be >= {least}")

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1

    def sort_key(self):
        return (self.degree, self.name)


class Monomial:
    """A canonical monomial of one presentation.

    ``key`` packs its exponent of generator ``i`` (in generator order) into
    bits ``_WIDTH * i`` to ``_WIDTH * (i + 1) - 1``, and ``generators`` is
    that presentation's generator tuple; an odd generator has exponent 0 or
    1.  ``odd`` is the bitmask of the odd generators present (bit ``i`` for
    generator ``i``).  The unit has key 0 and degree 0.  Only paths that
    keep the degree below ``2**_WIDTH`` add keys, so fields never carry.
    ``exponents`` (one per generator, unpacked on first read and kept),
    ``factors``, the printed form and the sort key are derived views.
    """

    __slots__ = ("key", "degree", "odd", "generators", "_exponents")

    def __init__(self, key: int, degree: int, odd: int, generators: tuple):
        self.key = key
        self.degree = degree
        self.odd = odd
        self.generators = generators
        self._exponents = None

    def __hash__(self):
        # a key beyond the hash range is hashed as ``hash(key)`` would be
        return self.key

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.key == other.key and (
            self.generators is other.generators or self.generators == other.generators
        )

    @property
    def exponents(self) -> tuple:
        """One exponent per generator, in generator order."""
        if self._exponents is None:
            exponents = [0] * len(self.generators)
            for i, e in _fields(self.key):
                exponents[i] = e
            self._exponents = tuple(exponents)
        return self._exponents

    @property
    def factors(self) -> tuple:
        """``((name, exponent), ...)`` in generator order, exponents >= 1."""
        gens = self.generators
        return tuple((gens[i].name, e) for i, e in _fields(self.key))

    def is_unit(self) -> bool:
        return not self.degree

    def factor_count(self) -> int:
        """Number of generator factors counted with multiplicity."""
        return sum(e for _, e in _fields(self.key))

    def generator_names(self):
        gens = self.generators
        return [gens[i].name for i, _ in _fields(self.key)]

    def __str__(self) -> str:
        return _product_text(self.factors) or "1"

    def __repr__(self):
        return f"Monomial(factors={self.factors!r}, degree={self.degree!r})"


def _fields(key: int) -> list:
    """``(i, e)`` for each nonzero exponent ``e`` packed in ``key``, by
    ascending generator index ``i``; runs of zero fields are skipped at the
    lowest set bit."""
    out = []
    i = 0
    while key:
        skip = ((key & -key).bit_length() - 1) // _WIDTH
        key >>= _WIDTH * skip
        i += skip
        out.append((i, key & _MASK))
        key >>= _WIDTH
        i += 1
    return out


def _degree_error(degree: int) -> PreconditionViolated:
    """The error for a monomial of a degree at or beyond ``_DEGREE_BOUND``,
    whose key fields could carry."""
    return PreconditionViolated(f"monomial degrees must stay below 2**{_WIDTH}, got {degree}")


def _product_text(factors) -> str:
    """``a*b^2`` for ``((name, exponent), ...)``; empty without factors."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in factors)


def _signed_sum_text(terms) -> str:
    """``c1*p1 - c2*p2 + ...`` for ``(coefficient, factors)`` pairs with
    nonzero coefficients; a term without factors prints as its coefficient,
    and no terms as ``0``.  Elements and polynomials print through it."""
    parts = []
    for c, factors in terms:
        body = _product_text(factors)
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


def _as_rational(c):
    """``c`` as a coefficient: an ``int`` when integral, else a ``Fraction``;
    anything else, a float included, raises ``TypeError``."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


def _check_int(name: str, value) -> None:
    """Raise ``PreconditionViolated`` unless ``value`` is an ``int`` (a
    ``bool`` is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise PreconditionViolated(f"{name} must be an int, got {value!r}")


class AlgebraPresentation:
    """A finitely generated free graded-commutative algebra with differential.

    Build one with :meth:`build`; the two-phase constructor exists because
    differential images are elements of the algebra being defined.
    """

    __slots__ = (
        "generators",
        "_by_name",
        "_order",
        "_diff",
        "_frozen",
        "_hash",
        "_basis_cache",
        "_block_ends",
        "_reach",
        "_sub_cache",
        "_cohomology_cache",
        "_d_matrix_cache",
        "_cylinder",
        "_unit",
        "label",
    )

    def __init__(self, generators: Sequence[Generator], label: str = ""):
        gens = sorted(generators, key=Generator.sort_key)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise DgaError("generator names must be unique")
        self.generators = tuple(gens)
        self._by_name = {g.name: g for g in gens}
        self._order = {g.name: i for i, g in enumerate(gens)}
        self._diff = {}
        self._frozen = False
        self._hash = None
        self._sub_cache = {}
        self._cohomology_cache = {}
        self._d_matrix_cache = {}
        self._cylinder = None
        self._unit = Monomial(0, 0, 0, self.generators)
        self._basis_cache = {0: [self._unit]}
        self._block_ends = {0: [0] * len(gens)}
        self._reach = (-1, None)
        self.label = label

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        generators: Iterable,
        differential: Optional[Callable[[SimpleNamespace], Mapping[str, "Element"]]] = None,
        label: str = "",
    ) -> "AlgebraPresentation":
        """Create a presentation.

        ``generators`` may contain :class:`Generator` objects or
        ``(name, degree)`` / ``(name, degree, weight)`` tuples.
        ``differential``, if given, receives a namespace of generator
        elements and returns a dict of differential images; omitted
        generators get differential zero.
        """
        alg = cls.unsealed(generators, label=label)
        if differential is not None:
            for name, img in differential(alg.namespace()).items():
                alg._set_differential(name, img)
        return alg.seal()

    @classmethod
    def unsealed(cls, generators, label: str = ""):
        gen_objs = [g if isinstance(g, Generator) else Generator(*g) for g in generators]
        return cls(gen_objs, label=label)

    def seal(self) -> "AlgebraPresentation":
        self._frozen = True
        return self

    def _set_differential(self, name: str, image: "Element"):
        if self._frozen:
            raise DgaError("presentation is sealed")
        if name not in self._by_name:
            raise UnknownGenerator(name)
        if not isinstance(image, Element) or image.algebra is not self:
            raise PresentationMismatch(
                f"differential image of {name} must live in the same presentation"
            )
        if image.is_zero():
            self._diff.pop(name, None)
        else:
            self._diff[name] = image
        # everything derived from the differential is stale now
        self._hash = self._cylinder = None
        self._sub_cache, self._cohomology_cache, self._d_matrix_cache = {}, {}, {}

    # -- identity ----------------------------------------------------------

    def _structure(self):
        diff_items = tuple(
            sorted((n, tuple(sorted(img.terms.items(), key=lambda kv: kv[0].exponents)))
                   for n, img in self._diff.items())
        )
        return (self.generators, diff_items)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AlgebraPresentation):
            return NotImplemented
        return self._structure() == other._structure()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._structure())
        return self._hash

    def __repr__(self):
        gens = ", ".join(f"{g.name}({g.degree})" for g in self.generators)
        name = self.label or "algebra"
        return f"<{name}: Lambda({gens})>"

    # -- accessors ----------------------------------------------------------

    def generator(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownGenerator(name) from None

    def generator_names(self):
        return [g.name for g in self.generators]

    def degree_of(self, name: str) -> int:
        return self.generator(name).degree

    def max_generator_degree(self) -> int:
        return max((g.degree for g in self.generators), default=0)

    def namespace(self) -> SimpleNamespace:
        return SimpleNamespace(**{g.name: self.gen(g.name) for g in self.generators})

    # -- element constructors ------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {self._unit: 1})

    def scalar(self, c) -> "Element":
        c = _as_rational(c)
        return Element(self, {self._unit: c} if c else {})

    def gen(self, name: str) -> "Element":
        g = self.generator(name)
        i = self._order[name]
        return Element(self, {Monomial(1 << _WIDTH * i, g.degree, g.is_odd << i, self.generators): 1})

    def element(self, terms: Mapping[Monomial, object]) -> "Element":
        """The element with the given terms; a monomial of another
        presentation is matched to this one's generators by name."""
        clean = {}
        for m, c in terms.items():
            c = _as_rational(c)
            if c:
                clean[m if m.generators is self.generators else _reindex(m, self)] = c
        return Element(self, clean)

    # -- differential --------------------------------------------------------

    def differential_image(self, name: str) -> "Element":
        self.generator(name)
        return self._diff.get(name) or self.zero()

    def differential_images(self) -> dict:
        return dict(self._diff)

    def d(self, x: "Element") -> "Element":
        if x.algebra is not self:
            raise PresentationMismatch("element belongs to a different presentation")
        return extend_derivation(self, self._diff, 1, x, _check=False)

    # -- monomial bases -------------------------------------------------------

    def monomial_basis(self, n: int) -> list:
        """All canonical monomials of total degree exactly ``n``, in the
        order of :meth:`monomial_sort_key`; only degree ``n`` is built and
        cached.

        A monomial whose first generator is ``g_i``, with exponent ``a``, is
        ``g_i**a`` times a monomial of degree ``j = n - a*|g_i|`` in the
        later generators, and taking ``i`` and then ``a`` in increasing
        order yields the sorted basis without a sort.  If degree ``j`` is
        cached, those form a suffix of its basis that starts at the end of
        the block whose first generator is ``g_i`` or an earlier one (each
        degree keeps these ends), and ``g_i**a`` times one of them is the
        key sum ``(a << _WIDTH * i) + key``; else :meth:`_walk` enumerates
        them.  A degree of ``2**_WIDTH`` or more is ``PreconditionViolated``.
        """
        _check_int("n", n)
        if n < 0:
            return []
        cache = self._basis_cache
        cached = cache.get(n)
        if cached is not None:
            return cached
        if n >= _DEGREE_BOUND:
            raise _degree_error(n)
        ends = self._block_ends
        gens = self.generators
        out = []
        block_ends = [0] * len(gens)
        for i, g in enumerate(gens):
            if g.degree <= n:
                bit = g.is_odd << i
                for a in range(1, 2 if bit else n // g.degree + 1):
                    j = n - a * g.degree
                    head = a << _WIDTH * i
                    lower = cache.get(j)
                    if lower is None:
                        self._walk(head, i + 1, j, n, bit, out)
                        continue
                    start = ends[j][i]
                    if start < len(lower):
                        out += [Monomial(head + m.key, n, m.odd | bit, gens) for m in lower[start:]]
            block_ends[i] = len(out)
        cache[n] = out
        ends[n] = block_ends
        return out

    def _walk(self, head: int, p: int, rest: int, n: int, odd: int, out: list) -> None:
        """Append to ``out`` the monomials of degree ``n`` that are the
        monomial with key ``head`` on the generators before ``p`` times a
        monomial of degree ``rest`` on generator ``p`` and later, in basis
        order: at each generator the exponents 1, 2, ... come first and 0
        last.  Every branch is pruned to yield a monomial, and the stack is
        explicit, so its depth does not grow with the number of generators.
        ``n`` is below ``2**_WIDTH``, so the key sums do not carry."""
        reach = self._reachable(n)
        if not reach[p] >> rest & 1:
            return
        gens = self.generators
        stack = [(head, p, rest, odd)]
        while stack:
            key, p, r, odd = stack.pop()
            if not r:
                out.append(Monomial(key, n, odd, gens))
                continue
            g = gens[p]
            later = reach[p + 1]
            top = r // g.degree
            # pushed in reverse, so 0 is popped last
            if later >> r & 1:
                stack.append((key, p + 1, r, odd))
            one = 1 << _WIDTH * p
            for e in range(min(top, 1) if g.is_odd else top, 0, -1):
                if later >> (r - e * g.degree) & 1:
                    stack.append((key + e * one, p + 1, r - e * g.degree, odd | g.is_odd << p))

    def _reachable(self, n: int) -> list:
        """``reach[p]`` has bit ``r`` set when some monomial of degree ``r``
        uses only the generators from ``p`` on, for ``r <= n``.  Cached and
        rebuilt at twice the last bound when outgrown, so asking every
        degree up to ``N`` costs ``O(N)`` bitset work."""
        bound, reach = self._reach
        if n <= bound:
            return reach
        bound = max(n, 2 * bound)
        mask = (1 << bound + 1) - 1
        reach = [1]
        for g in reversed(self.generators):
            x = reach[-1]
            shift = g.degree
            while shift <= bound:
                x |= x << shift & mask
                if g.is_odd:
                    break
                shift <<= 1
            reach.append(x)
        reach.reverse()
        self._reach = (bound, reach)
        return reach

    def monomial_sort_key(self, m: Monomial):
        """Degree first; within a degree, at the first generator where two
        monomials differ, the one with the smaller nonzero exponent there
        comes first and a zero exponent comes last."""
        return (m.degree, tuple(_fields(m.key)))

    # -- subalgebras ------------------------------------------------------------

    def subalgebra(self, names: Iterable[str]) -> "AlgebraPresentation":
        """The sub-presentation on ``names``.

        Requires the selected differential images to stay inside the selected
        generators, otherwise the result would not be closed under ``d``.
        """
        key = frozenset(names)
        cached = self._sub_cache.get(key)
        if cached is not None:
            return cached
        for n in key:
            self.generator(n)
        sub = AlgebraPresentation.unsealed(
            [self._by_name[n] for n in sorted(key, key=lambda n: self._order[n])],
            label=(self.label + "|sub") if self.label else "",
        )
        for n in sorted(key, key=lambda s: self._order[s]):
            img = self._diff.get(n)
            if img is None:
                continue
            for mono in img.terms:
                for gname in mono.generator_names():
                    if gname not in key:
                        raise UnknownGenerator(
                            f"subalgebra on {sorted(key)} is not d-closed: "
                            f"d({n}) uses {gname}"
                        )
            sub._set_differential(n, sub.element(img.terms))
        sub.seal()
        self._sub_cache[key] = sub
        return sub


def _reindex(m: Monomial, target: AlgebraPresentation) -> Monomial:
    """``m`` over the generators of ``target`` with the same names.

    Both generator tuples are sorted by ``(degree, name)``, so the shared
    generators keep their relative order and no sign arises.
    """
    if m.degree >= _DEGREE_BOUND:
        raise _degree_error(m.degree)
    key = odd = 0
    for j, e in _fields(m.key):
        g = m.generators[j]
        i = target._order.get(g.name)
        if i is None:
            raise UnknownGenerator(g.name)
        if target.generators[i].degree != g.degree:
            raise DegreeMismatch(f"generator {g.name} changes degree in transfer")
        key += e << _WIDTH * i
        odd |= g.is_odd << i
    return Monomial(key, m.degree, odd, target.generators)


class Element:
    """A finite rational linear combination of canonical monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: AlgebraPresentation, terms: dict):
        self.algebra = algebra
        self.terms = terms  # Monomial -> nonzero int or Fraction; never mutated

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Common degree of all terms, or None for 0 or inhomogeneous input."""
        degs = {m.degree for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, n: Optional[int] = None) -> bool:
        if not self.terms:
            return True
        d = self.degree()
        return d is not None and (n is None or d == n)

    def sorted_terms(self):
        return [(m, self.terms[m]) for m in sorted(self.terms, key=self.algebra.monomial_sort_key)]

    # -- arithmetic -----------------------------------------------------------

    def _check_same(self, other: "Element"):
        if self.algebra is other.algebra:
            return
        if self.algebra != other.algebra:
            raise PresentationMismatch("elements live in different presentations")

    def __add__(self, other):
        if isinstance(other, Scalar):
            other = self.algebra.scalar(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        return Element(self.algebra, _add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Element(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Scalar):
            other = self.algebra.scalar(other)
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Scalar):
            c = _as_rational(other)
            if not c:
                return self.algebra.zero()
            # integral products become ints, so a later product pays no Fraction
            return Element(
                self.algebra,
                {m: p if type(p := co * c) is int else _as_rational(p) for m, co in self.terms.items()},
            )
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        return Element(self.algebra, _mul_terms(self.algebra, self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            c = _as_rational(other)
            if not c:
                raise ZeroDivisionError("division of an element by zero")
            return self * Fraction(1, c)
        return NotImplemented

    def __pow__(self, k: int):
        return _power(operator.mul, self, k, self.algebra.one())

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            other = self.algebra.scalar(other)
        if not isinstance(other, Element):
            return NotImplemented
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            return False
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return _signed_sum_text((c, m.factors) for m, c in self.sorted_terms())

    __repr__ = __str__


def normalize_monomial(algebra: AlgebraPresentation, raw_factors):
    """Sort a raw ``(name, exponent)`` factor list into canonical form.

    Returns ``(sign, monomial)`` where ``sign`` is the Koszul sign of the
    sorting permutation, or ``(0, None)`` when an odd generator repeats.
    Only inversions between odd-degree factors can flip the sign, so the
    sign is the inversion parity of the odd subsequence.  A degree of
    ``2**_WIDTH`` or more is ``PreconditionViolated``.
    """
    occurrences = []  # (generator index, exponent)
    for name, exp in raw_factors:
        if exp == 0:
            continue
        if exp < 0:
            raise DgaError(f"negative exponent on {name}")
        algebra.generator(name)
        occurrences.append((algebra._order[name], exp))
    gens = algebra.generators
    key = odd = flips = degree = 0
    for i, exp in occurrences:
        degree += gens[i].degree * exp
        if degree >= _DEGREE_BOUND:
            raise _degree_error(degree)
        if gens[i].is_odd:
            bit = 1 << i
            if exp > 1 or odd & bit:
                return 0, None
            flips += _sign_flips(odd, bit)
            odd |= bit
        key += exp << _WIDTH * i
    return (-1 if flips % 2 else 1), Monomial(key, degree, odd, gens)


def extend_derivation(
    algebra: AlgebraPresentation,
    images: Mapping[str, Element],
    parity: int,
    x: Element,
    _check: bool = True,
) -> Element:
    """Extend generator images to a derivation and apply it to ``x``.

    ``parity`` is the degree shift of the derivation; its parity fixes the
    sign rule ``theta(a*b) = theta(a)*b + (-1)**(parity*|a|)*a*theta(b)``.
    Generators missing from ``images`` are sent to zero.
    """
    if x.algebra is not algebra:
        raise PresentationMismatch("element belongs to a different presentation")
    if _check:
        for name, img in images.items():
            if img.is_zero():
                continue
            if img.algebra is not algebra and img.algebra != algebra:
                raise PresentationMismatch(f"image of {name} is not in this presentation")
            want = algebra.degree_of(name) + parity
            if not img.is_homogeneous(want):
                raise DegreeMismatch(
                    f"image of {name} is not homogeneous of degree {want}"
                )
    return Element(algebra, _derive_terms(algebra, _by_index(algebra, images), parity, x.terms))


# -- the term kernel -------------------------------------------------------------


def _add_term(out: dict, m, c) -> None:
    """Add the nonzero coefficient ``c`` at key ``m`` of ``out``, in place."""
    s = out[m] + c if m in out else c
    if s:
        out[m] = s
    else:
        del out[m]


def _add_terms(a: dict, b: dict) -> dict:
    """The sum of two term dicts (any hashable keys, e.g. Poly power products)."""
    out = dict(a)
    for m, c in b.items():
        _add_term(out, m, c)
    return out


def _sign_flips(left: int, right: int) -> int:
    """The number of pairs ``(i, j)`` with bit ``i`` in ``left``, bit ``j`` in
    ``right`` and ``i > j``: the transpositions of odd generators that put
    ``left`` followed by ``right`` into generator order."""
    flips = 0
    while left and right:
        low = right & -right
        flips += (left & -(low << 1)).bit_count()
        right ^= low
    return flips


def _from_keys(gens: tuple, coefficients: dict, shapes: dict) -> dict:
    """The term dict of ``coefficients`` (key -> nonzero coefficient), in
    its order, each key made the monomial over ``gens`` with the degree and
    odd mask in ``shapes[key]``."""
    out = {}
    for key, c in coefficients.items():
        degree, odd = shapes[key]
        out[Monomial(key, degree, odd, gens)] = c
    return out


def _mul_terms(algebra: AlgebraPresentation, a: dict, b: dict) -> dict:
    """The product of two term dicts: keys add, and the Koszul sign comes
    from the odd-generator bitmasks.  Terms are summed by key."""
    out, shapes = {}, {}
    for m1, c1 in a.items():
        k1, o1, d1 = m1.key, m1.odd, m1.degree
        for m2, c2 in b.items():
            o2 = m2.odd
            if o1 & o2:
                continue
            degree = d1 + m2.degree
            if degree >= _DEGREE_BOUND:
                raise _degree_error(degree)
            c = c1 * c2
            if _sign_flips(o1, o2) % 2:
                c = -c
            key = k1 + m2.key
            _add_term(out, key, c)
            shapes[key] = degree, o1 | o2
    return _from_keys(algebra.generators, out, shapes)


def _power(mul: Callable, x, k: int, one):
    """``x**k`` under the associative product ``mul`` by square-and-multiply,
    with at most ``2 * log2(k)`` products; no square beyond ``x**k`` is
    formed."""
    if not isinstance(k, int) or k < 0:
        raise PreconditionViolated(f"exponent must be a non-negative integer, got {k!r}")
    out = None
    while k:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return one if out is None else out


def _by_index(algebra: AlgebraPresentation, images: Mapping[str, "Element"]) -> list:
    """``(i, terms)`` for each generator ``g_i`` with a nonzero image in
    ``images``, in generator order."""
    return [
        (i, img.terms)
        for i, g in enumerate(algebra.generators)
        if (img := images.get(g.name)) is not None and img.terms
    ]


def _derivation_vectors(images: Sequence, parity: int, m: Monomial):
    """The terms of ``theta(m)`` for the derivation of the given parity with
    the nonzero generator images ``images`` (``(i, term dict)`` pairs in
    generator order), as ``(key, degree, odd mask, k, c)`` for ``k * c``
    times the monomial, where ``k`` is a signed integer.

    Each term of ``theta(g_i)`` replaces one copy of ``g_i``.  For an even
    generator all copies contribute alike (moving ``theta(g_i)`` past an
    even ``g_i`` costs nothing), hence the multiplicity.  Moving ``theta``
    past the factors before ``g_i`` gives ``(-1)**parity`` per odd one; the
    Koszul sign moves the term's odd generators past the odd generators of
    ``m`` before and after ``g_i``.
    """
    key, odd, degree, gens = m.key, m.odd, m.degree, m.generators
    for i, img in images:
        x = key >> _WIDTH * i & _MASK
        if not x:
            continue
        rest = odd & ~(1 << i)
        before = rest & ((1 << i) - 1)
        after = rest ^ before
        k = -x if parity % 2 and before.bit_count() % 2 else x
        lowered = key - (1 << _WIDTH * i)
        lowered_degree = degree - gens[i].degree
        for m2, c2 in img.items():
            o2 = m2.odd
            if o2 & rest:
                continue
            image_degree = lowered_degree + m2.degree
            if image_degree >= _DEGREE_BOUND:
                raise _degree_error(image_degree)
            flips = _sign_flips(before, o2) + _sign_flips(o2, after)
            yield lowered + m2.key, image_degree, rest | o2, -k if flips % 2 else k, c2


def _derive_terms(algebra: AlgebraPresentation, images: Sequence, parity: int, terms: dict) -> dict:
    """Apply the derivation of the given parity with the nonzero generator
    images ``images`` (``(i, term dict)`` pairs in generator order) to
    ``terms``; terms are summed by key."""
    out, shapes = {}, {}
    for m, c in terms.items():
        for key, degree, odd, k, c2 in _derivation_vectors(images, parity, m):
            _add_term(out, key, c * k * c2)
            shapes[key] = degree, odd
    return _from_keys(algebra.generators, out, shapes)


def _extend_terms(
    algebra: AlgebraPresentation, image: Callable[[str], dict], terms: dict, one
) -> dict:
    """Apply the algebra map sending each generator ``g`` to the term dict
    ``image(g)`` of ``algebra`` to ``terms``; ``one`` is the unit of the
    images' coefficients."""
    unit = {algebra._unit: one}
    mul = partial(_mul_terms, algebra)
    out = {}
    for m, c in terms.items():
        term = {algebra._unit: one * c}
        gens = m.generators
        for i, exp in _fields(m.key):
            term = mul(term, _power(mul, image(gens[i].name), exp, unit))
            if not term:
                break
        for mm, cc in term.items():
            _add_term(out, mm, cc)
    return out


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class ValidationIssue:
    generator: Optional[str]
    kind: str
    detail: str

    def __str__(self):
        where = self.generator or "<presentation>"
        return f"{where}: {self.kind}: {self.detail}"


@dataclass
class ValidationReport:
    issues: list
    valid = "presentation valid: d*d = 0, differentials decomposable, degrees >= 2"

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self):
        return "\n".join(str(i) for i in self.issues) or self.valid


def validate_presentation(algebra: AlgebraPresentation) -> ValidationReport:
    """Check minimality conditions: degrees >= 2, d homogeneous of degree +1,
    d*d = 0, and every differential image decomposable."""
    issues = []
    for g in algebra.generators:
        if g.degree < 2:
            issues.append(
                ValidationIssue(g.name, "degree", f"degree {g.degree} is below 2")
            )
        img = algebra.differential_image(g.name)
        if img.is_zero():
            continue
        if not img.is_homogeneous(g.degree + 1):
            issues.append(
                ValidationIssue(
                    g.name,
                    "degree-mismatch",
                    f"d({g.name}) is not homogeneous of degree {g.degree + 1}",
                )
            )
        for m in img.terms:
            if m.factor_count() < 2:
                issues.append(
                    ValidationIssue(
                        g.name,
                        "minimality",
                        f"d({g.name}) has indecomposable term {m}",
                    )
                )
        dd = algebra.d(img)
        if not dd.is_zero():
            issues.append(
                ValidationIssue(g.name, "d-squared", f"d(d({g.name})) = {dd} != 0")
            )
    return ValidationReport(issues)


def require_graded(*algebras: AlgebraPresentation) -> None:
    """Raise :class:`DegreeMismatch` unless each ``d(g)`` is homogeneous of degree ``|g| + 1``."""
    for algebra in algebras:
        for g in algebra.generators:
            if not algebra.differential_image(g.name).is_homogeneous(g.degree + 1):
                raise DegreeMismatch(f"d({g.name}) is not homogeneous of degree {g.degree + 1}")


# -- weights -------------------------------------------------------------------


@dataclass
class WeightAssignment:
    """Generator weights, a plain table until ``validate_weights`` judges
    it; a monomial's weight is the sum of its factors' weights."""

    algebra: AlgebraPresentation
    weights: dict

    @classmethod
    def from_generators(cls, algebra: AlgebraPresentation) -> "WeightAssignment":
        """The weights the generators carry; a generator without one is
        left out (a missing weight that ``validate_weights`` reports)."""
        return cls(algebra, {g.name: g.weight for g in algebra.generators if g.weight is not None})

    def weight_of_monomial(self, m: Monomial) -> int:
        return sum(self.weights[n] * e for n, e in m.factors)

    def require_valid(self) -> "WeightAssignment":
        """This assignment, or ``WeightsMissing`` carrying the report."""
        report = validate_weights(self)
        if not report.ok:
            raise WeightsMissing(f"weights invalid: {report}")
        return self


@dataclass
class WeightIssue:
    generator: str
    detail: str

    def __str__(self):
        return f"{self.generator}: {self.detail}"


class WeightReport(ValidationReport):
    valid = "weights valid: every differential image is weight-homogeneous"


def validate_weights(assignment: WeightAssignment) -> WeightReport:
    """Report every name that is not a generator and every generator with no
    weight or one that is not a positive ``int``; when there are none,
    every term of a d(g) whose weight is not the weight of g."""
    algebra = assignment.algebra
    issues = [WeightIssue(n, "not a generator") for n in assignment.weights if n not in algebra._by_name]
    for g in algebra.generators:
        w = assignment.weights.get(g.name)
        if w is None:
            issues.append(WeightIssue(g.name, "no weight assigned"))
        elif isinstance(w, bool) or not isinstance(w, int):
            issues.append(WeightIssue(g.name, f"weight {w!r} is not an int"))
        elif w < 1:
            issues.append(WeightIssue(g.name, f"weight {w} is not positive"))
    if issues:
        return WeightReport(issues)
    for g in algebra.generators:
        w = assignment.weights[g.name]
        for m in algebra.differential_image(g.name).terms:
            mw = assignment.weight_of_monomial(m)
            if mw != w:
                issues.append(
                    WeightIssue(g.name, f"term {m} of d({g.name}) has weight {mw}, not the weight {w} of {g.name}")
                )
    return WeightReport(issues)


# -- morphisms -------------------------------------------------------------------


def _checked_images(
    source: AlgebraPresentation, target: AlgebraPresentation, images: Mapping[str, Element], shift: int, label: str
) -> dict:
    """``images`` on every generator g of ``source``, zero where unset; each
    must lie in ``target`` and be homogeneous of degree |g| + ``shift``, and
    every name must be a generator of ``source``."""
    out = {}
    for g in source.generators:
        img = images.get(g.name)
        if img is None:
            img = target.zero()
        if img.algebra is not target and img.algebra != target:
            raise PresentationMismatch(f"{label} of {g.name} is not in the target")
        if not img.is_zero() and not img.is_homogeneous(g.degree + shift):
            raise DegreeMismatch(f"{label} of {g.name} must be homogeneous of degree {g.degree + shift}")
        out[g.name] = img
    for name in images:
        source.generator(name)
    return out


class Morphism:
    """A degree-0 algebra map determined by generator images.

    The chain-map property is computed on demand and cached, never taken on
    trust from input files; only identities and composites of verified
    chain maps start verified, because they are chain maps by construction.
    """

    __slots__ = ("source", "target", "images", "_chain_report")

    def __init__(
        self,
        source: AlgebraPresentation,
        target: AlgebraPresentation,
        images: Mapping[str, Element],
    ):
        self.source = source
        self.target = target
        self.images = _checked_images(source, target, images, 0, "image")
        self._chain_report = None

    @classmethod
    def identity(cls, algebra: AlgebraPresentation) -> "Morphism":
        """The identity, a chain map by definition, so it starts verified."""
        identity = cls(algebra, algebra, {g.name: algebra.gen(g.name) for g in algebra.generators})
        identity._chain_report = []
        return identity

    @classmethod
    def zero_map(cls, source, target) -> "Morphism":
        return cls(source, target, {})

    def apply(self, x: Element) -> Element:
        if x.algebra is not self.source and x.algebra != self.source:
            raise PresentationMismatch("element is not in the source")
        terms = _extend_terms(self.target, lambda n: self.images[n].terms, x.terms, 1)
        return Element(self.target, terms)

    __call__ = apply

    def chain_report(self) -> list:
        """Pairs ``(generator, residual)`` where ``d(f(v)) - f(d(v)) != 0``."""
        if self._chain_report is None:
            bad = []
            for g in self.source.generators:
                residual = self.target.d(self.images[g.name]) - self.apply(
                    self.source.differential_image(g.name)
                )
                if not residual.is_zero():
                    bad.append((g.name, residual))
            self._chain_report = bad
        return self._chain_report

    @property
    def verified(self) -> bool:
        return not self.chain_report()

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __hash__(self):
        return hash(
            (self.source, self.target, tuple(sorted((n, i) for n, i in self.images.items())))
        )

    def __repr__(self):
        ims = ", ".join(f"{n} -> {self.images[n]}" for n in self.source.generator_names())
        return f"<morphism {ims}>"


def compose(f: Morphism, g: Morphism) -> Morphism:
    """The composite ``f . g`` (apply ``g`` first).

    A composite of chain maps is a chain map, d(f g) = f d g = f g d, so
    when both factors are verified the composite starts verified; otherwise
    it is checked on demand like any morphism.
    """
    if g.target != f.source:
        raise PresentationMismatch("morphisms are not composable")
    product = Morphism(
        g.source, f.target, {name: f.apply(img) for name, img in g.images.items()}
    )
    if f.verified and g.verified:
        product._chain_report = []
    return product
