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

The reach of v is the set of generators in d(v), together with everything
those generators reach in turn.  Every term of the correction
``alpha(v) - v - hat v`` carries a bar, and all its decorated factors
belong to generators in the reach of v.  Proof sketch: gamma kills every
barred and hatted generator, and ``gamma(u) = hat u + i(d u)``, so
``alpha(v) - v - hat v = sum_{n>=1} gamma**(n-1)(i(d v)) / n!``.  Each term
of ``i(d v)`` has one bar and plain factors from d(v); each gamma step
turns one plain factor u into ``hat u`` or into a term of ``i(d u)``, so
decorations only pile up and every plain factor stays in the reach.  A
homotopy H sends ``bar u`` to its bar image h(u) and ``hat u`` to
``d(h(u))``, so when h vanishes on the reach of v, H kills the whole
correction and ``H(alpha(v)) = f(v) + d(h(v))``; ``Homotopy.correction_image``
then returns zero without expanding the series.  No step lowers a term's
factor count, so the correction is decomposable exactly when d(v) is: a
linear term u of d(v) leaves the one-factor term ``bar u``, and every other
term has two or more factors.  The obstruction's lemma check therefore reads
the reach and d(v) alone, and only ``correction_image`` expands the series.

Cylinders need every base generator in degree >= 2, so that each barred
copy has a positive degree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Mapping, Optional

from .algebra import (
    AlgebraPresentation,
    Element,
    Generator,
    Morphism,
    _add_term,
    _checked_images,
    _extend_terms,
    extend_derivation,
    require_graded,
)
from .errors import PreconditionViolated, PresentationMismatch, UnknownGenerator


class CylinderAlgebra:
    """The cylinder presentation over a base algebra, with i, gamma, alpha.

    Barred and hatted copies are named ``v@bar`` / ``v@hat``; ``@`` cannot
    occur in parsed identifiers, so the scheme never collides and the same
    base generator gets the same decorated names in every (sub-)cylinder.
    The base must be graded (each ``d(v)`` homogeneous of degree ``|v| + 1``),
    else the alpha series need not end.
    """

    def __init__(self, base: AlgebraPresentation):
        if any("@" in n for n in base.generator_names()):
            raise PresentationMismatch("cannot build a cylinder over a cylinder")
        require_graded(base)
        for g in base.generators:
            if g.degree < 2:
                raise PreconditionViolated(
                    f"generator {g.name} has degree {g.degree}; cylinders need generators of degree >= 2"
                )
        self.base = base
        self.bar_name: Dict[str, str] = {g.name: f"{g.name}@bar" for g in base.generators}
        self.hat_name: Dict[str, str] = {g.name: f"{g.name}@hat" for g in base.generators}

        gens = list(base.generators)
        for g in base.generators:
            gens.append(Generator(self.bar_name[g.name], g.degree - 1))
            gens.append(Generator(self.hat_name[g.name], g.degree))
        total = AlgebraPresentation.unsealed(gens, label=(base.label + "^I") if base.label else "cylinder")
        for g in base.generators:
            total._set_differential(g.name, total.element(base.differential_image(g.name).terms))
            total._set_differential(self.bar_name[g.name], total.gen(self.hat_name[g.name]))
        self.total = total.seal()

        self._i_images = {g.name: self.total.gen(self.bar_name[g.name]) for g in base.generators}
        self._gamma_images: Dict[str, Element] = {}
        self._alpha_gen: Dict[str, Element] = {}
        self._reach: Optional[Dict[str, FrozenSet[str]]] = None

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

    def reach(self, name: str) -> FrozenSet[str]:
        """The base generators in d(``name``), with everything they reach.

        Built once for every generator, in generator order: when d(v) is
        decomposable, every generator in it has a lower degree (degrees are
        >= 2 on a cylinder's base), so it comes first and its set is ready;
        a worklist, not recursion, covers the rest.
        """
        if self._reach is None:
            reach: Dict[str, FrozenSet[str]] = {}
            for g in self.base.generators:
                out, todo = set(), [g.name]
                while todo:
                    for m in self.base.differential_image(todo.pop()).terms:
                        for u in m.generator_names():
                            if u not in out:
                                out.add(u)
                                if u in reach:
                                    out |= reach[u]
                                else:
                                    todo.append(u)
                reach[g.name] = frozenset(out)
            self._reach = reach
        if name not in self._reach:
            raise UnknownGenerator(name)
        return self._reach[name]

    def correction(self, name: str) -> Element:
        """alpha(v) - v - hat(v) for a base generator v = ``name``: its
        decorated factors belong to generators in the reach of v, and it is
        decomposable when d(v) is.  Only ``Homotopy.correction_image``
        expands it."""
        self.base.generator(name)
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

    __slots__ = ("cylinder", "start", "bar_images", "_morphism")

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
        self.bar_images = _checked_images(cylinder.base, start.target, bar_images, -1, "bar image")
        self._morphism = None

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

    def correction_image(self, name: str) -> Element:
        """H(alpha(v) - v - hat v) for the base generator v = ``name``.

        Zero, with no series expanded, when the bars vanish on the reach of
        v: every term of the correction then has a factor that H kills.
        """
        bars = self.bar_images
        if all(bars[u].is_zero() for u in self.cylinder.reach(name)):
            return self.target.zero()
        return self.as_morphism().apply(self.cylinder.correction(name))

    def end_image(self, name: str) -> Element:
        """The end map's image of the base generator v = ``name``,
        ``H(alpha(v)) = f(v) + d(H(bar v)) + H(alpha(v) - v - hat v)``."""
        correction = self.correction_image(name)
        return self.start.images[name] + self.target.d(self.bar_images[name]) + correction

    def end(self) -> Morphism:
        images = {g.name: self.end_image(g.name) for g in self.cylinder.base.generators}
        return Morphism(self.cylinder.base, self.target, images)

    @classmethod
    def constant(cls, f: Morphism) -> "Homotopy":
        """The zero-bars homotopy from f to f."""
        return cls(build_cylinder(f.source), f, {})

