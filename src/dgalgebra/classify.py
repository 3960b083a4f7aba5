"""Enumerate algebra maps between presentations and classify them up to
homotopy.

The enumeration puts one scalar unknown on every (source generator, target
basis monomial) pair of matching degree, expands the chain-map condition
into polynomial equations, and solves the resulting system in the layered
shape these presentations produce: defined unknowns are eliminated, the
remaining nonlinear equations are differences of monomials handled by the
exponent-lattice solver under an exhaustive zero/nonzero case split, and
what is left is affine.  Anything outside that shape raises
:class:`UnsupportedShape` instead of guessing.

Classification then collapses each solution family onto its parameter-zero
representative (every parameter direction must be a coboundary) and
separates representatives with the homotopy deciders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import AlgebraPresentation, Element, Monomial, Morphism, _as_rational, _extend_terms, compose
from .algebra import require_graded
from .cohomology import induced_map_is_isomorphism, is_coboundary
from .errors import (
    ClassificationIncomplete,
    InvalidDecomposition,
    PreconditionViolated,
    UnsolvableSystem,
    UnsupportedShape,
)
from .linalg import (
    MultiplicativeSystem,
    RationalMatrix,
    rref,
    rref_solve,
    solve_multiplicative_system,
)
from .obstruction import decide_homotopic, make_decomposition
from .symbolic import Poly, SymbolicElement


@dataclass
class UnknownMorphism:
    """A degree-matched generic morphism with named scalar unknowns."""

    source: AlgebraPresentation
    target: AlgebraPresentation
    images: Dict[str, SymbolicElement]
    unknowns: List[str]

    def unknown_for(self, gen_name: str, monomial: Monomial) -> Optional[str]:
        poly = self.images[gen_name].terms.get(monomial)
        if poly is None:
            return None
        vars_ = poly.variables()
        return sorted(vars_)[0] if vars_ else None

    def apply(self, x: Element) -> SymbolicElement:
        one = Poly.constant(1)
        terms = _extend_terms(self.target, lambda n: self.images[n].terms, x.terms, one)
        return SymbolicElement(self.target, terms)

    def evaluate(self, values: Dict[str, Fraction]) -> Morphism:
        return Morphism(
            self.source,
            self.target,
            {n: img.evaluate(values) for n, img in self.images.items()},
        )


def generic_ansatz(source: AlgebraPresentation, target: AlgebraPresentation) -> UnknownMorphism:
    """One unknown per (generator, matching-degree target monomial)."""
    images = {}
    unknowns: List[str] = []
    for g in source.generators:
        terms = {}
        for k, m in enumerate(target.monomial_basis(g.degree)):
            name = f"{g.name}.{k}"
            unknowns.append(name)
            terms[m] = Poly.variable(name)
        images[g.name] = SymbolicElement(target, terms)
    return UnknownMorphism(source, target, images, unknowns)


@dataclass
class Equation:
    poly: Poly
    origins: List[Tuple[str, Monomial]]

    def __str__(self):
        return f"{self.poly} = 0"


@dataclass
class ConstraintSystem:
    unknown_morphism: UnknownMorphism
    equations: List[Equation]


def _normalize_poly(p: Poly) -> Poly:
    """Scale to integer content one with positive leading coefficient."""
    if p.is_zero():
        return p
    denom_lcm = 1
    for c in p.terms.values():
        denom_lcm = math.lcm(denom_lcm, c.denominator)
    scaled = {pp: c * denom_lcm for pp, c in p.terms.items()}
    num_gcd = 0
    for c in scaled.values():
        num_gcd = math.gcd(num_gcd, c.numerator)
    lead = min(scaled)
    sign = 1 if scaled[lead] > 0 else -1
    out = Poly()
    out.terms = {pp: sign * c.numerator // num_gcd for pp, c in scaled.items()}
    return out


def constraint_system(ansatz: UnknownMorphism) -> ConstraintSystem:
    """Expand f(d v) - d(f v) per generator; one equation per target monomial."""
    equations: List[Equation] = []
    seen: Dict[tuple, Equation] = {}
    for g in ansatz.source.generators:
        lhs = ansatz.apply(ansatz.source.differential_image(g.name))
        rhs = ansatz.images[g.name].d()
        diff = lhs - rhs
        for m in sorted(diff.terms, key=ansatz.target.monomial_sort_key):
            poly = _normalize_poly(diff.terms[m])
            key = poly.canonical()
            if key in seen:
                seen[key].origins.append((g.name, m))
            else:
                eq = Equation(poly, [(g.name, m)])
                seen[key] = eq
                equations.append(eq)
    return ConstraintSystem(ansatz, equations)


@dataclass
class AffineExpr:
    constant: Fraction
    coefficients: Dict[str, Fraction]

    def evaluate(self, params: Dict[str, Fraction]) -> Fraction:
        out = self.constant
        for name, c in self.coefficients.items():
            out += c * params.get(name, 0)
        return out

    def __str__(self):
        parts = [str(self.constant)] if self.constant or not self.coefficients else []
        for name, c in sorted(self.coefficients.items()):
            parts.append(f"{c}*{name}")
        return " + ".join(parts) if parts else "0"


@dataclass
class SolutionFamily:
    """A chain-map family: numeric assignments plus affine free parameters."""

    unknown_morphism: UnknownMorphism
    fixed: Dict[str, Fraction]
    free: List[str]
    dependent: Dict[str, AffineExpr]
    _representative: Optional[Morphism] = field(
        default=None, init=False, repr=False, compare=False
    )

    def assignment(self, params: Optional[Dict[str, Fraction]] = None) -> Dict[str, Fraction]:
        params = {k: _as_rational(v) for k, v in (params or {}).items()}
        unknown = sorted(set(params) - set(self.free))
        if unknown:
            raise PreconditionViolated(
                f"not a free parameter of this family: {', '.join(unknown)}"
            )
        values = dict(self.fixed)
        for p in self.free:
            values[p] = params.get(p, 0)
        for name, expr in self.dependent.items():
            values[name] = expr.evaluate(params)
        return values

    def member(self, params: Optional[Dict[str, Fraction]] = None) -> Morphism:
        return self.unknown_morphism.evaluate(self.assignment(params))

    def representative(self) -> Morphism:
        """The parameter-zero member, built on first use and kept, so its
        chain check runs once; a family is not changed after it is made."""
        if self._representative is None:
            self._representative = self.member()
        return self._representative

    def substitution(self) -> Dict[str, object]:
        """Fixed unknowns as their rational values and dependent unknowns as
        polynomials in the free parameters, ready for ``Poly.substitute``."""
        subs: Dict[str, object] = dict(self.fixed)
        for name, expr in self.dependent.items():
            terms = {((pname, 1),): c for pname, c in expr.coefficients.items()}
            terms[()] = expr.constant
            subs[name] = Poly(terms)
        return subs


def _case_split(
    polys: Sequence[Poly], var_order: List[str]
) -> List[Dict[str, Fraction]]:
    """Exhaustive zero/nonzero split; nonzero leaves go to the lattice solver."""
    results: List[Dict[str, Fraction]] = []
    order_index = {v: k for k, v in enumerate(var_order)}

    def recurse(current: List[Poly], fixed: Dict[str, Fraction], nonzero: frozenset, zero: Optional[str]):
        # ``current`` has every earlier value substituted; only ``zero``,
        # the unknown this branch newly fixes to zero, is left to substitute
        simplified: List[Poly] = []
        for p in current:
            q = p if zero is None else _substituted(p, {zero: 0})
            if q.is_zero():
                continue
            if q.is_constant():
                return  # inconsistent branch
            simplified.append(q)
        undecided = sorted(
            {
                v
                for p in simplified
                for v in p.variables()
                if v not in fixed and v not in nonzero
            },
            key=order_index.__getitem__,
        )
        if undecided:
            v = undecided[0]
            recurse(simplified, {**fixed, v: 0}, nonzero, v)
            recurse(simplified, fixed, nonzero | {v}, None)
            return

        live = sorted({v for p in simplified for v in p.variables()}, key=order_index.__getitem__)
        dangling = [v for v in nonzero if v not in live]
        if dangling:
            raise UnsupportedShape(
                f"unknown(s) {dangling} are forced nonzero but otherwise free"
            )
        if not simplified:
            results.append(dict(fixed))
            return
        mult_rows = []
        for p in simplified:
            terms = sorted(p.terms.items())
            if len(terms) == 1:
                return  # single monomial over nonzero unknowns: inconsistent
            if len(terms) > 2:
                raise UnsupportedShape(f"equation is not a monomial difference: {p}")
            (pp1, c1), (pp2, c2) = terms
            exps = []
            for v in live:
                e1 = next((e for n, e in pp1 if n == v), 0)
                e2 = next((e for n, e in pp2 if n == v), 0)
                exps.append(e1 - e2)
            mult_rows.append((exps, Fraction(-c2, c1)))
        system = MultiplicativeSystem.make(live, mult_rows)
        try:
            solutions = solve_multiplicative_system(system)
        except UnsolvableSystem:
            return
        if not solutions.is_finite:
            raise UnsupportedShape(
                "nonlinear unknowns admit an infinite multiplicative family"
            )
        for sol in solutions.solutions:
            results.append({**fixed, **dict(zip(live, sol))})

    recurse(list(polys), {}, frozenset(), None)
    return results


def _substituted(p: Poly, values: Dict[str, object]) -> Poly:
    """``p`` with ``values`` substituted; ``p`` itself when none of its
    unknowns has a value."""
    return p if p.variables().isdisjoint(values) else p.substitute(values)


def _definition(p: Poly) -> Optional[Tuple[str, Poly]]:
    """``(u, -(d/c)*M)`` when ``p`` is ``c*u + d*M`` with ``u`` a bare
    unknown absent from the monomial ``M``, else None."""
    if len(p.terms) != 2:
        return None
    terms = sorted(p.terms.items())
    for (pp_a, c_a), (pp_b, c_b) in ((terms[0], terms[1]), (terms[1], terms[0])):
        if len(pp_a) == 1 and pp_a[0][1] == 1:
            u = pp_a[0][0]
            if all(n != u for n, _ in pp_b):
                return u, Poly({pp_b: Fraction(-c_b, c_a)})
    return None


def eliminate_defined_unknowns(system: ConstraintSystem):
    """Triangularise the nonlinear part of the system.

    Repeatedly removes the first equation of the shape ``c*u + d*M = 0``
    where ``u`` is a bare unknown absent from the monomial ``M``, recording
    ``u := -(d/c)*M`` and substituting it into the equations that contain
    ``u``.  An index from each unknown to those equations means each record
    is substituted into each equation at most once, and only the equations a
    record changed are tested again.  Returns
    ``(records, reduced nonlinear polys, linear polys)``.
    """
    all_polys = [eq.poly for eq in system.equations]
    nonlinear = [p for p in all_polys if p.max_term_degree() >= 2]
    linear = [p for p in all_polys if p.max_term_degree() <= 1 and not p.is_zero()]

    work = dict(enumerate(nonlinear))  # position -> live equation
    index: Dict[str, set] = {}
    for k, p in work.items():
        for n in p.variables():
            index.setdefault(n, set()).add(k)
    ready = {k for k, p in work.items() if _definition(p)}  # eligible live positions
    records: List[Tuple[str, Poly]] = []
    while ready:
        k = min(ready)
        ready.remove(k)
        u, replacement = definition = _definition(work.pop(k))
        records.append(definition)
        new_names = replacement.variables()
        for j in index.pop(u, ()):
            # the index may name an equation that lost u to a cancellation
            if j not in work or u not in work[j].variables():
                continue
            q = _normalize_poly(work[j].substitute({u: replacement}))
            ready.discard(j)
            if q.is_zero():
                del work[j]
                continue
            work[j] = q
            for n in new_names:
                index.setdefault(n, set()).add(j)
            if _definition(q):
                ready.add(j)

    # live equations in position order, each distinct one once
    reduced = list({p.canonical(): p for p in work.values()}.values())
    linear += [p for p in reduced if p.max_term_degree() <= 1]
    return records, [p for p in reduced if p.max_term_degree() >= 2], linear


def solve_structured(system: ConstraintSystem) -> List[SolutionFamily]:
    """Solve the chain-map constraints into solution families.

    Every returned family is re-verified by substitution against the full
    system; failure there is a bug, not a report.
    """
    ansatz = system.unknown_morphism
    var_order = list(ansatz.unknowns)
    order_index = {v: k for k, v in enumerate(var_order)}

    records, reduced, linear = eliminate_defined_unknowns(system)

    split_vars = sorted(
        {v for p in reduced for v in p.variables()}, key=order_index.__getitem__
    )
    assignments = _case_split(reduced, split_vars)

    families: List[SolutionFamily] = []
    for assign in assignments:
        full = dict(assign)
        for name, replacement in reversed(records):
            value = _substituted(replacement, full)
            if not value.is_constant():
                raise UnsupportedShape(
                    f"eliminated unknown {name} does not resolve to a constant"
                )
            full[name] = value.constant_value()

        # affine solve over the remaining unknowns
        lin_polys = []
        consistent = True
        for p in linear:
            q = _substituted(p, full)
            if q.is_zero():
                continue
            if q.is_constant():
                consistent = False
                break
            if not q.is_linear():
                raise UnsupportedShape(f"residual equation is not affine: {q}")
            lin_polys.append(q)
        if not consistent:
            continue

        remaining = [v for v in var_order if v not in full]
        rem_index = {v: k for k, v in enumerate(remaining)}
        entries, rhs = {}, []
        for i, q in enumerate(lin_polys):
            const, coeffs = q.linear_parts()
            for nm, c in coeffs.items():
                entries[i, rem_index[nm]] = c
            rhs.append(-const)
        matrix = RationalMatrix(len(lin_polys), len(remaining), entries)
        particular, kernel = rref_solve(matrix, rhs)
        if particular is None:
            continue

        # one kernel vector per free unknown; its last nonzero entry is the
        # free column (the others are pivot columns left of it)
        free_names = [remaining[max(j for j, x in enumerate(vec) if x)] for vec in kernel]
        dependent: Dict[str, AffineExpr] = {}
        fixed = dict(full)
        for i, name in enumerate(remaining):
            if name in free_names:
                continue
            coeffs = {}
            for fname, vec in zip(free_names, kernel):
                if vec[i]:
                    coeffs[fname] = vec[i]
            if coeffs:
                dependent[name] = AffineExpr(particular[i], coeffs)
            else:
                fixed[name] = particular[i]

        family = SolutionFamily(ansatz, fixed, free_names, dependent)
        _verify_family(system, family)
        families.append(family)
    return families


def _verify_family(system: ConstraintSystem, family: SolutionFamily):
    """Re-check a family exactly: every equation vanishes identically in the
    free parameters, and the representative is a chain map."""
    subs = family.substitution()
    for eq in system.equations:
        if not _substituted(eq.poly, subs).is_zero():
            raise PreconditionViolated(f"internal inconsistency: family violates {eq}")
    if not family.representative().verified:
        raise PreconditionViolated(
            "internal inconsistency: family member is not a chain map"
        )


# -- homotopy classification -----------------------------------------------------


@dataclass
class HomotopyClass:
    representative: Morphism
    family_indices: List[int]


@dataclass
class ClassificationResult:
    kind: str  # "finite" | "infinite" | "incomplete"
    classes: List[HomotopyClass]
    families: List[SolutionFamily]
    unresolved_pairs: List[Tuple[int, int]] = field(default_factory=list)
    certificate: Optional[dict] = None

    @property
    def class_count(self) -> Optional[int]:
        return len(self.classes) if self.kind == "finite" else None


def _family_collapses(family: SolutionFamily) -> Tuple[str, Optional[dict]]:
    """Check every free direction of the family bounds, so that all members
    are homotopic to the parameter-zero representative.

    Returns one of:
      ("collapses", None)                      all directions bound
      ("infinite", certificate)                a direction is provably essential
      ("unknown", info)                        could not decide the family
    """
    if not family.free:
        return "collapses", None
    ansatz = family.unknown_morphism
    source, target = ansatz.source, ansatz.target
    subs = family.substitution()
    images = {n: img.substitute(subs) for n, img in ansatz.images.items()}
    param_gens = [g.name for g in source.generators if images[g.name].variables()]
    try:
        decomposition = make_decomposition(source, param_gens)
    except InvalidDecomposition:
        return "unknown", {"reason": "parameter generators do not split off"}

    rep = family.representative()
    rep_vanishes_on_v0 = all(
        rep.images[n].is_zero() for n in decomposition.v0_ordered()
    )
    for p in family.free:
        for w in param_gens:
            direction = images[w].evaluate(
                {q: 1 if q == p else 0 for q in family.free}
            ) - rep.images[w]
            if direction.is_zero():
                continue
            if not target.d(direction).is_zero():
                return "unknown", {"reason": f"direction {p} at {w} is not a cocycle"}
            if is_coboundary(target, direction) is None:
                if rep_vanishes_on_v0:
                    return "infinite", {
                        "parameter": p,
                        "generator": w,
                        "direction": direction,
                    }
                return "unknown", {
                    "reason": f"direction {p} at {w} is essential but the family "
                    "does not vanish on V0",
                }
    return "collapses", None


def classify_homotopy_set(
    source: AlgebraPresentation, target: AlgebraPresentation
) -> ClassificationResult:
    """The homotopy set of maps source -> target, when finite.

    Families whose parameter directions all bound collapse onto their
    representatives; representatives are separated or merged with the
    homotopy deciders.  A provably essential direction on a family whose
    members vanish on the complementary generators certifies an infinite
    set.
    """
    require_graded(source, target)
    ansatz = generic_ansatz(source, target)
    system = constraint_system(ansatz)
    families = solve_structured(system)

    for idx, family in enumerate(families):
        status, info = _family_collapses(family)
        if status == "infinite":
            return ClassificationResult(
                "infinite", [], families, certificate={"family": idx, **(info or {})}
            )
        if status == "unknown":
            return ClassificationResult(
                "incomplete", [], families, certificate={"family": idx, **(info or {})}
            )

    classes: List[HomotopyClass] = []
    unresolved: List[Tuple[int, int]] = []
    for idx, family in enumerate(families):
        rep = family.representative()
        placed = False
        for cls in classes:
            decision = decide_homotopic(rep, cls.representative)
            if decision.yes:
                cls.family_indices.append(idx)
                placed = True
                break
            if decision.verdict == "undetermined":
                unresolved.append((idx, classes.index(cls)))
        if not placed:
            classes.append(HomotopyClass(rep, [idx]))
    kind = "incomplete" if unresolved else "finite"
    return ClassificationResult(kind, classes, families, unresolved_pairs=unresolved)


# -- self-equivalences ---------------------------------------------------------------


@dataclass
class SelfEquivalenceGroup:
    classes: List[HomotopyClass]
    identity_index: int
    table: Dict[Tuple[int, int], int]

    @property
    def order(self) -> int:
        return len(self.classes)

    @property
    def label(self) -> str:
        if self.order == 1:
            return "trivial"
        if self.order == 2:
            return "Z2"
        return f"order-{self.order}"


def self_equivalence_group(algebra: AlgebraPresentation) -> SelfEquivalenceGroup:
    """Homotopy classes of self-maps inducing cohomology isomorphisms in all
    degrees up to the top generator degree, with their composition table.

    An invertible linear part Q(f) certifies a class, which needs only
    generator degrees >= 1; a singular Q(f) falls back to checking H(f) in
    each degree 0..top (see :func:`_equivalence_group`)."""
    result = classify_homotopy_set(algebra, algebra)
    if result.kind != "finite":
        raise ClassificationIncomplete(
            f"self-map classification is {result.kind}: {result.certificate}"
        )
    return _equivalence_group(algebra, result)


def _linear_part_invertible(f: Morphism) -> bool:
    """Whether the linear part Q(f): V -> V of a self-map is invertible: one
    square matrix per generator degree, the coefficients of f(g) on the
    generators of degree |g|, one ``rref`` each."""
    algebra = f.source
    for k in {g.degree for g in algebra.generators}:
        names = [g.name for g in algebra.generators if g.degree == k]
        column = {m: j for j, n in enumerate(names) for m in algebra.gen(n).terms}
        entries = {
            (i, column[m]): c
            for i, n in enumerate(names)
            for m, c in f.images[n].terms.items()
            if m in column
        }
        if len(rref(RationalMatrix(len(names), len(names), entries))[1]) < len(names):
            return False
    return True


def _equivalence_group(
    algebra: AlgebraPresentation, result: ClassificationResult
) -> SelfEquivalenceGroup:
    """The self-equivalence group read off a finite self-map classification.

    With every generator in degree >= 1 (as :class:`Generator` enforces), an
    invertible Q(f) makes f an algebra automorphism by graded Nakayama (FHT,
    GTM 205, §12), so a chain map f is a chain isomorphism and H(f) is an
    isomorphism in every degree.  Only a singular Q(f) falls back to checking
    H(f) in each degree 0..top."""
    bound = algebra.max_generator_degree()
    equivalences: List[HomotopyClass] = []
    for cls in result.classes:
        f = cls.representative
        if _linear_part_invertible(f) or all(
            induced_map_is_isomorphism(f, n) for n in range(bound + 1)
        ):
            equivalences.append(cls)

    identity = Morphism.identity(algebra)
    identity_index = None
    for i, cls in enumerate(equivalences):
        decision = decide_homotopic(cls.representative, identity)
        if decision.yes:
            identity_index = i
            break
    if identity_index is None:
        raise ClassificationIncomplete("no class contains the identity")

    table: Dict[Tuple[int, int], int] = {}
    for i, ci in enumerate(equivalences):
        for j, cj in enumerate(equivalences):
            product = compose(ci.representative, cj.representative)
            location = None
            for k, ck in enumerate(equivalences):
                decision = decide_homotopic(product, ck.representative)
                if decision.yes:
                    location = k
                    break
            if location is None:
                raise ClassificationIncomplete(
                    f"could not locate the product of classes {i} and {j}"
                )
            table[(i, j)] = location
    return SelfEquivalenceGroup(equivalences, identity_index, table)
