"""Cylinder algebras and homotopies of algebra maps.

For a free algebra on V the cylinder is free on V + barV + hatV where
``|bar v| = |v| - 1``, ``|hat v| = |v|``, ``d(bar v) = hat v`` and
``d(hat v) = 0``.  The degree -1 derivation ``i`` sends ``v`` to ``bar v``
and kills barred and hatted generators; ``gamma = d i + i d`` is an even
derivation and ``alpha = sum gamma**n / n!`` its exponential, a DG algebra
endomorphism.

A homotopy from f to g is an algebra map H on the cylinder with
``H restricted to the plain copy = f`` and ``H . alpha restricted = g``.
Storing a homotopy as (start map, bar images) and deriving
``H(hat v) = d(H(bar v))`` makes the chain-map condition hold by
construction, so no invalid homotopy state can be represented.  Unset bars
are zero, and zero bars extend a homotopy on a d-closed set of generators
along the cofibration into the whole algebra, the relative cylinder of
Félix–Halperin–Thomas (GTM 205, §14); so a homotopy on a
subalgebra lives on the algebra's one cylinder, and no sub-cylinder or
restriction is needed.

Termination of the alpha series: each application of gamma either converts
a plain factor v into hat v or into a term of i(d v) whose plain part has
total degree at most |v| - 1, so the total degree of plain factors strictly
drops and the series is finite on every monomial.

On a generator the series keeps ``gamma**n(v)`` undivided (``int``
coefficients on an integral presentation) and adds each of its terms with
one division by ``n!``, so the products of the series stay integral.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping

from .algebra import (
    AlgebraPresentation,
    Element,
    Generator,
    Morphism,
    _add_term,
    _extend_terms,
    extend_derivation,
    transfer_element,
)
from .errors import DegreeMismatch, PresentationMismatch


class CylinderAlgebra:
    """The cylinder presentation over a base algebra, with i, gamma, alpha.

    Barred and hatted copies are named ``v@bar`` / ``v@hat``; ``@`` cannot
    occur in parsed identifiers, so the scheme never collides and the same
    base generator gets the same decorated names in every (sub-)cylinder.
    """

    def __init__(self, base: AlgebraPresentation):
        if any("@" in n for n in base.generator_names()):
            raise PresentationMismatch("cannot build a cylinder over a cylinder")
        self.base = base
        self.bar_name: Dict[str, str] = {g.name: f"{g.name}@bar" for g in base.generators}
        self.hat_name: Dict[str, str] = {g.name: f"{g.name}@hat" for g in base.generators}

        gens = list(base.generators)
        for g in base.generators:
            gens.append(Generator(self.bar_name[g.name], g.degree - 1))
            gens.append(Generator(self.hat_name[g.name], g.degree))
        total = AlgebraPresentation.unsealed(gens, label=(base.label + "^I") if base.label else "cylinder")
        for g in base.generators:
            img = base.differential_image(g.name)
            if not img.is_zero():
                total._set_differential(g.name, transfer_element(img, total))
            total._set_differential(self.bar_name[g.name], total.gen(self.hat_name[g.name]))
        self.total = total.seal()

        self._i_images = {g.name: self.total.gen(self.bar_name[g.name]) for g in base.generators}
        self._gamma_images: Dict[str, Element] = {}
        self._alpha_gen: Dict[str, Element] = {}

    # -- derivations ------------------------------------------------------------

    def i(self, x: Element) -> Element:
        return extend_derivation(self.total, self._i_images, -1, x, _check=False)

    def gamma(self, x: Element) -> Element:
        images = self._gamma_images
        if not images:
            for g in self.base.generators:
                hat = self.total.gen(self.hat_name[g.name])
                dv = self.total.d(self.total.gen(g.name))
                images[g.name] = hat + self.i(dv)
            self._gamma_images = images
        return extend_derivation(self.total, images, 0, x, _check=False)

    def alpha(self, x: Element) -> Element:
        """The exponential of gamma, computed multiplicatively.

        alpha is an algebra map, so it is evaluated on generators (with the
        series, memoised) and extended to monomials as a product.
        """
        if x.algebra is not self.total:
            raise PresentationMismatch("element is not in this cylinder")
        alpha = self._alpha_generator
        terms = _extend_terms(self.total, lambda n: alpha(n).terms, x.terms, 1)
        return Element(self.total, terms)

    def _alpha_generator(self, name: str) -> Element:
        cached = self._alpha_gen.get(name)
        if cached is not None:
            return cached
        term = self.total.gen(name)
        acc = dict(term.terms)
        n = factorial = 1
        while True:
            term = self.gamma(term)  # gamma**n(v), undivided
            if term.is_zero():
                break
            factorial *= n
            for m, c in term.terms.items():
                _add_term(acc, m, Fraction(c, factorial))
            n += 1
        self._alpha_gen[name] = out = self.total.element(acc)
        return out

    def correction(self, name: str) -> Element:
        """alpha(v) - v - hat(v) for a base generator; decomposable, and only
        involving copies of V0 in any valid decomposition with v in V1."""
        g = self.base.generator(name)
        return (
            self._alpha_generator(name)
            - self.total.gen(name)
            - self.total.gen(self.hat_name[name])
        )


def build_cylinder(algebra: AlgebraPresentation) -> CylinderAlgebra:
    if algebra._cylinder is None:
        algebra._cylinder = CylinderAlgebra(algebra)
    return algebra._cylinder


class Homotopy:
    """A homotopy presented by its start map and bar-generator images."""

    __slots__ = ("cylinder", "start", "bar_images", "_morphism", "_end")

    def __init__(
        self,
        cylinder: CylinderAlgebra,
        start: Morphism,
        bar_images: Mapping[str, Element],
    ):
        if start.source != cylinder.base:
            raise PresentationMismatch("start map must be defined on the cylinder base")
        self.cylinder = cylinder
        self.start = start
        target = start.target
        imgs = {}
        for g in cylinder.base.generators:
            img = bar_images.get(g.name)
            if img is None:
                img = target.zero()
            if img.algebra is not target and img.algebra != target:
                raise PresentationMismatch(f"bar image of {g.name} is not in the target")
            if not img.is_zero() and not img.is_homogeneous(g.degree - 1):
                raise DegreeMismatch(
                    f"bar image of {g.name} must be homogeneous of degree {g.degree - 1}"
                )
            imgs[g.name] = img
        for name in bar_images:
            cylinder.base.generator(name)
        self.bar_images = imgs
        self._morphism = None
        self._end = None

    @property
    def target(self) -> AlgebraPresentation:
        return self.start.target

    def as_morphism(self) -> Morphism:
        """The cylinder-to-target algebra map: plain generators go to the
        start images, barred to the bar images, hatted to d(bar image)."""
        if self._morphism is None:
            images = {}
            for g in self.cylinder.base.generators:
                images[g.name] = self.start.images[g.name]
                bar = self.bar_images[g.name]
                images[self.cylinder.bar_name[g.name]] = bar
                images[self.cylinder.hat_name[g.name]] = self.target.d(bar)
            self._morphism = Morphism(self.cylinder.total, self.target, images)
        return self._morphism

    def end_image(self, name: str) -> Element:
        """The end map's image of the base generator ``name``, H(alpha(name))."""
        return self.as_morphism().apply(self.cylinder.alpha(self.cylinder.total.gen(name)))

    def end(self) -> Morphism:
        if self._end is None:
            images = {g.name: self.end_image(g.name) for g in self.cylinder.base.generators}
            self._end = Morphism(self.cylinder.base, self.target, images)
        return self._end

    @classmethod
    def constant(cls, f: Morphism) -> "Homotopy":
        """The zero-bars homotopy from f to f."""
        return cls(build_cylinder(f.source), f, {})

