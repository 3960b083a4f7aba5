"""Obstruction classes for homotopy of algebra maps, and the deciders built
on them.

Setup: the source splits as V = V0 + V1 with every differential image inside
the subalgebra on V0, two maps f, g agree up to homotopy H on that
subalgebra, and the obstruction assigns to each V1 generator w the class of

    f(w) + H(alpha(w) - w - hat(w)) - g(w)

in the target cohomology at degree |w|.  The lemma: when d(w) lies in the
subalgebra on V0 and has no linear term, the correction term is
decomposable and only involves the plain, barred and hatted copies of V0
(so only H's bars on V0 matter).  Those two hypotheses are checked at
runtime, without expanding the correction, and the representative is
checked to be a cocycle.  More precisely, every term of the correction
carries a bar, and its decorated factors all belong to generators that
d(w) reaches (the proof is in the ``cylinder`` docstring).  So H(...) is
zero when H's bars vanish on that reach, as they do for the constant
homotopy and at the first stage of the stage-wise deciders, and then no
series is applied.

As only H's bars on V0 matter, a homotopy on V0 is given on the source's
one cylinder: it starts at f, only its bars on V0 are read, and its bars on
V1 are zero.  Zero bars on V1 are the extension of a homotopy on the V0
subalgebra along the cofibration into the whole source.  Vanishing of every
class is exactly the condition for extending H over all of V, and the
extension is written down from the coboundary witnesses.

Every entry point runs one stage loop with one growing dict of bars: the
extension of H is the single stage V1 started from H's bars on V0, and the
stage-wise deciders run over a filtration from no bars.  Either all stages
extend (and the bars give a full homotopy) or the first obstructed stage
yields a map f', the end of the homotopy with the bars so far, homotopic to
f and vanishing below the stage, whose per-generator classes are the
failure certificate.  Both outcomes are exact and machine-checked.

Every entry point that takes maps checks them in one place, ``_check_maps``
(``decide_nullhomotopic`` checks f against itself).  A generator of degree
below 2 is refused where a cylinder is built, not in ``_check_maps``, so
step (a) of ``decide_homotopic`` answers first: a difference of induced
maps is a "no" for any DGA, with or without a cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .algebra import AlgebraPresentation, Element, Morphism, _check_int, require_graded
from .cohomology import CohomologyClass, induced_map
from .cylinder import Homotopy, build_cylinder
from .errors import (
    HomotopyEndpointMismatch,
    InvalidDecomposition,
    InvalidFiltration,
    LemmaViolation,
    Obstructed,
    PreconditionViolated,
)


@dataclass(frozen=True)
class ObstructionDecomposition:
    """A split of the generators with all differentials landing in the V0 part."""

    algebra: AlgebraPresentation
    v0: frozenset
    v1: frozenset

    def v1_ordered(self) -> List[str]:
        return [g.name for g in self.algebra.generators if g.name in self.v1]

    def v0_ordered(self) -> List[str]:
        return [g.name for g in self.algebra.generators if g.name in self.v0]


def make_decomposition(algebra: AlgebraPresentation, v1) -> ObstructionDecomposition:
    """Build and validate the decomposition with the V1 generator names
    ``v1``; every other generator is in V0."""
    names = set(algebra.generator_names())
    v1_set = set(v1)
    unknown = v1_set - names
    if unknown:
        raise InvalidDecomposition(f"unknown generators in V1: {sorted(unknown)}")
    v0_set = names - v1_set
    for name in sorted(names):
        img = algebra.differential_image(name)
        for m in img.terms:
            for n in m.generator_names():
                if n not in v0_set:
                    raise InvalidDecomposition(
                        f"d({name}) uses {n}, which is tagged V1 (term {m})"
                    )
    return ObstructionDecomposition(algebra, frozenset(v0_set), frozenset(v1_set))


@dataclass
class ObstructionValue:
    """The per-generator obstruction classes of a pair of maps."""

    target: AlgebraPresentation
    classes: Dict[str, CohomologyClass]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.classes.values())

    def nonzero_generators(self) -> List[str]:
        return [w for w, c in self.classes.items() if not c.is_zero()]

    def __str__(self):
        rows = [f"  {w} -> {c}" for w, c in self.classes.items()]
        return "obstruction:\n" + "\n".join(rows)


def _obstruction_classes(
    f: Morphism, g: Morphism, bars: Mapping[str, Element], names: List[str]
) -> Dict[str, CohomologyClass]:
    """The classes [f(w) + H(alpha(w) - w - hat(w)) - g(w)] at ``names`` for
    ``H = Homotopy(build_cylinder(f.source), f, bars)``; unset bars are zero.

    Checks the two hypotheses of the lemma that the correction is
    decomposable and only involves the plain, barred and hatted copies of
    generators that carry a bar: the reach of w lies among those generators,
    and every term of d(w) has two or more factors.  Every factor of the
    correction belongs to a copy of a generator in the reach, and gamma
    never lowers a term's factor count; a linear term u of d(w) leaves the
    one-factor term bar(u), which nothing cancels.  So no series is
    expanded for the check, and H is applied to a correction only when a
    bar is nonzero on the reach of w (see ``Homotopy.correction_image``).
    """
    cylinder = build_cylinder(f.source)
    h = Homotopy(cylinder, f, bars)
    classes = {}
    for w in names:
        escaped = cylinder.reach(w).difference(bars)
        if escaped:
            raise LemmaViolation(
                f"correction of {w} escapes the copies of the generators with a bar (at {sorted(escaped)})"
            )
        for m in f.source.differential_image(w).terms:
            if m.factor_count() < 2:
                raise LemmaViolation(
                    f"correction of {w} has an indecomposable term: d({w}) has the linear term {m}"
                )
        rep = f.images[w] + h.correction_image(w) - g.images[w]
        classes[w] = CohomologyClass(f.target, f.source.degree_of(w), rep)
    return classes


def _check_maps(f: Morphism, g: Morphism, source: AlgebraPresentation):
    """f and g are chain maps out of ``source`` into one target, and both
    ends are graded; the one precondition check of every two-map entry."""
    for other in (f.source, g.source):
        if other != source:
            raise PreconditionViolated(f"maps must be defined on {source!r}, not on {other!r}")
    if f.target != g.target:
        raise PreconditionViolated("maps must share a target")
    require_graded(source, f.target)
    if not f.verified or not g.verified:
        raise PreconditionViolated("both maps must be chain maps")


def _v0_bars(
    f: Morphism, g: Morphism, h: Homotopy, decomposition: ObstructionDecomposition
) -> Dict[str, Element]:
    """H's bars on V0, once the preconditions of a homotopy on V0 hold: H
    lives on the decomposed algebra's cylinder, maps into the target of f
    and g, has zero bars on V1, and starts at f and ends at g on V0."""
    _check_maps(f, g, decomposition.algebra)
    if h.target != f.target:
        raise PreconditionViolated("maps and homotopy must share a target")
    if h.cylinder.base != decomposition.algebra:
        raise HomotopyEndpointMismatch("homotopy is not defined on the decomposed algebra")
    for w in decomposition.v1_ordered():
        if not h.bar_images[w].is_zero():
            raise PreconditionViolated(f"homotopy has a nonzero bar on V1 (at {w})")
    v0 = decomposition.v0_ordered()
    for name in v0:
        if h.start.images[name] != f.images[name]:
            raise HomotopyEndpointMismatch(f"homotopy does not start at f (at {name})")
    for name in v0:
        if h.end_image(name) != g.images[name]:
            raise HomotopyEndpointMismatch(f"homotopy does not end at g (at {name})")
    return {name: h.bar_images[name] for name in v0}


def compute_obstruction(
    f: Morphism,
    g: Morphism,
    h: Homotopy,
    decomposition: ObstructionDecomposition,
) -> ObstructionValue:
    """The obstruction to extending H to a homotopy from f to g.

    H is a homotopy on V0, given on the cylinder of the decomposed algebra:
    only its bars on V0 are read, and its bars on V1 must be zero.
    Preconditions checked: f and g are chain maps out of the decomposed
    algebra into a common target, H maps there too, has zero bars on V1,
    and starts at f and ends at g on the V0 generators.
    """
    bars = _v0_bars(f, g, h, decomposition)
    return ObstructionValue(f.target, _obstruction_classes(f, g, bars, decomposition.v1_ordered()))


def extend_to_homotopy(
    f: Morphism,
    g: Morphism,
    h: Homotopy,
    decomposition: ObstructionDecomposition,
) -> Homotopy:
    """Extend H over the whole algebra, or raise :class:`Obstructed`.

    The preconditions are those of :func:`compute_obstruction`.  When every
    obstruction class vanishes, the canonical coboundary witnesses become
    the bar images of the V1 generators; the resulting homotopy starts at f,
    has H's bars on V0, and its end map is g exactly.
    """
    bars = _v0_bars(f, g, h, decomposition)
    full, _, value = _extend_by_stages(f, g, [(1, decomposition.v1_ordered())], bars)
    if not value.is_zero():
        raise Obstructed(value)
    return full


def decide_homotopic_zero_restriction(
    f: Morphism, g: Morphism, decomposition: ObstructionDecomposition
) -> HomotopyDecision:
    """Complete homotopy decision when both maps kill the V0 generators.

    In that situation the obstruction does not depend on the choice of
    homotopy between the restrictions, so the zero homotopy decides: "yes"
    with the extended homotopy, or "no" with the obstruction as certificate.
    """
    _check_maps(f, g, decomposition.algebra)
    v0 = decomposition.v0_ordered()
    for name in v0:
        if not f.images[name].is_zero() or not g.images[name].is_zero():
            raise PreconditionViolated(
                f"both maps must vanish on V0 (generator {name})"
            )
    zero = {name: f.target.zero() for name in v0}  # the corrections may use V0
    full, _, value = _extend_by_stages(f, g, [(1, decomposition.v1_ordered())], zero)
    if value.is_zero():
        return HomotopyDecision("yes", homotopy=full, detail="zero-restriction decision")
    return HomotopyDecision(
        "no",
        certificate={"kind": "obstruction", "nonzero_at": value.nonzero_generators(), "obstruction": value},
        detail="nonzero obstruction with both maps vanishing on V0",
    )


# -- filtrations and the stage-wise decision ------------------------------------


@dataclass
class Filtration:
    """A stage assignment with differentials dropping strictly in stage."""

    algebra: AlgebraPresentation
    stages: Dict[str, int]

    @classmethod
    def by_degree(cls, algebra: AlgebraPresentation) -> "Filtration":
        return cls(algebra, {g.name: g.degree for g in algebra.generators})

    @classmethod
    def from_generator_stages(cls, algebra: AlgebraPresentation) -> "Filtration":
        stages = {}
        for g in algebra.generators:
            if g.stage is None:
                raise InvalidFiltration(f"generator {g.name} carries no stage tag")
            stages[g.name] = g.stage
        return cls(algebra, stages)

    def validate(self):
        for g in self.algebra.generators:
            if g.name not in self.stages:
                raise InvalidFiltration(f"no stage for generator {g.name}")
            _check_int(f"stage of {g.name}", self.stages[g.name])
        for g in self.algebra.generators:
            s = self.stages[g.name]
            if s < 0:
                raise InvalidFiltration(f"negative stage for {g.name}")
            img = self.algebra.differential_image(g.name)
            for m in img.terms:
                for n in m.generator_names():
                    if self.stages[n] >= s:
                        raise InvalidFiltration(
                            f"d({g.name}) uses {n} of stage >= {s}"
                        )
        return self

    def in_order(self) -> List[Tuple[int, List[str]]]:
        """``(stage, generator names)`` for each stage, lowest first."""
        return [
            (s, [g.name for g in self.algebra.generators if self.stages[g.name] == s])
            for s in sorted(set(self.stages.values()))
        ]


@dataclass
class NullhomotopyFailure:
    stage: int
    modified_map: Morphism  # homotopic to f, zero below the stage
    obstruction: ObstructionValue


@dataclass
class NullhomotopyResult:
    nullhomotopic: bool
    homotopy: Optional[Homotopy] = None
    failure: Optional[NullhomotopyFailure] = None


def _extend_by_stages(
    f: Morphism,
    g: Morphism,
    stages: Iterable[Tuple[int, List[str]]],
    bars: Mapping[str, Element],
) -> Tuple[Homotopy, Optional[int], ObstructionValue]:
    """Extend a homotopy from f towards g one stage at a time, using the
    canonical coboundary witnesses; stops at the first obstructed stage.

    ``stages`` lists ``(stage, generator names)`` in order, and ``bars`` are
    the starting bars, read by every stage; unset bars are zero.  Every
    stage is computed on the source's one cylinder.  Returns ``(homotopy,
    stage, value)`` for the last stage computed: when ``value`` is zero,
    every stage extended and the homotopy from f ends at g; otherwise
    ``value`` is the obstruction at ``stage`` and the homotopy carries the
    bars below it.
    """
    cylinder = build_cylinder(f.source)
    bars = dict(bars)
    stage, value = None, ObstructionValue(f.target, {})
    for stage, names in stages:
        value = ObstructionValue(f.target, _obstruction_classes(f, g, bars, names))
        if not value.is_zero():
            return Homotopy(cylinder, f, bars), stage, value
        for w in names:
            bars[w] = -value.classes[w].coboundary_witness()
    full = Homotopy(cylinder, f, bars)
    if full.end().images != g.images:
        raise PreconditionViolated("internal inconsistency: stage-wise homotopy end mismatch")
    return full, stage, value


def decide_nullhomotopic(f: Morphism, filtration: Filtration) -> NullhomotopyResult:
    """Decide whether f is homotopic to the zero map; sound and complete for
    finite presentations.

    Stage loop: keep bar images of a homotopy from f that ends at zero below
    the current stage; at each new stage compute the obstruction against the
    zero map.  A zero obstruction extends the bars; a nonzero one yields the
    certificate map f', the end of the homotopy with the bars so far: f' is
    homotopic to f, vanishes below the stage, and its per-generator classes
    [f'(w)] are nonzero for some w.
    """
    if filtration.algebra != f.source:
        raise InvalidFiltration("filtration belongs to a different presentation")
    filtration.validate()
    _check_maps(f, f, f.source)
    source = f.source
    zero = Morphism.zero_map(source, f.target)
    homotopy, stage, value = _extend_by_stages(f, zero, filtration.in_order(), {})
    if value.is_zero():
        return NullhomotopyResult(True, homotopy=homotopy)
    f_prime = homotopy.end()
    for name in source.generator_names():
        if filtration.stages[name] < stage and not f_prime.images[name].is_zero():
            raise PreconditionViolated(
                f"internal inconsistency: pushed map does not vanish below the stage (at {name})"
            )
    for w, c in value.classes.items():
        # the pushed map's value on w is literally the obstruction
        # representative computed against the partial homotopy
        if f_prime.images[w] != c.representative:
            raise PreconditionViolated("internal inconsistency: pushed map is not the obstruction")
    return NullhomotopyResult(False, failure=NullhomotopyFailure(stage, f_prime, value))


# -- the general two-map pipeline --------------------------------------------------


@dataclass
class HomotopyDecision:
    verdict: str  # "yes" | "no" | "undetermined"
    homotopy: Optional[Homotopy] = None
    certificate: Optional[dict] = None
    detail: str = ""

    @property
    def yes(self):
        return self.verdict == "yes"

    @property
    def no(self):
        return self.verdict == "no"


def _induced_maps_differ(f: Morphism, g: Morphism, bound: int):
    for n in range(0, bound + 1):
        mf = induced_map(f, n)
        mg = induced_map(g, n)
        if mf != mg:
            return n, mf, mg
    return None


def decide_homotopic(f: Morphism, g: Morphism) -> HomotopyDecision:
    """Three-step pipeline deciding homotopy of two chain maps.

    (a) compare induced cohomology maps degree by degree up to the top
    generator degree: any difference is a sound non-homotopy certificate;
    (b) if both maps kill a common valid V0, the obstruction with the zero
    homotopy decides completely;
    (c) otherwise search stage-wise for a homotopy with canonical witnesses.
    The search never reports a spurious "no": a nonzero obstruction at a
    later stage may be an artifact of earlier witness choices, so exhaustion
    returns "undetermined" with the stage reached.
    """
    _check_maps(f, g, f.source)
    source, target = f.source, f.target
    if f.images == g.images:
        return HomotopyDecision("yes", homotopy=Homotopy.constant(f), detail="equal maps")

    differ = _induced_maps_differ(f, g, source.max_generator_degree())
    if differ is not None:
        n, mf, mg = differ
        return HomotopyDecision(
            "no",
            certificate={
                "kind": "induced-map",
                "degree": n,
                "f_matrix": mf,
                "g_matrix": mg,
            },
            detail=f"induced cohomology maps differ in degree {n}",
        )

    # V0: the generators both maps kill, valid when every d lands there
    v1 = [
        n
        for n in source.generator_names()
        if not (f.images[n].is_zero() and g.images[n].is_zero())
    ]
    try:
        decomposition = make_decomposition(source, v1)
    except InvalidDecomposition:
        pass
    else:
        return decide_homotopic_zero_restriction(f, g, decomposition)

    stages = Filtration.by_degree(source).validate().in_order()
    full, stage, value = _extend_by_stages(f, g, stages, {})
    if not value.is_zero():
        return HomotopyDecision(
            "undetermined",
            certificate={"kind": "stage-obstructed", "stage": stage, "obstruction": value},
            detail=(
                f"stage {stage} obstructed for the canonical witness choices; "
                "later-stage obstructions depend on those choices, so this is not a refutation"
            ),
        )
    return HomotopyDecision("yes", homotopy=full, detail="stage-wise witness search")
