"""Obstruction values, extension, and the homotopy deciders."""

import re
from fractions import Fraction

import pytest

from dgalgebra import (
    AlgebraPresentation,
    DegreeMismatch,
    Filtration,
    Homotopy,
    HomotopyEndpointMismatch,
    InvalidDecomposition,
    InvalidFiltration,
    Morphism,
    Obstructed,
    PreconditionViolated,
    build_cylinder,
    compute_obstruction,
    decide_homotopic,
    decide_homotopic_zero_restriction,
    decide_nullhomotopic,
    extend_to_homotopy,
    make_decomposition,
)
from dgalgebra.classify import classify_homotopy_set
from dgalgebra.cylinder import CylinderAlgebra
from dgalgebra.errors import LemmaViolation
from dgalgebra.obstruction import _obstruction_classes
from dgalgebra.parser import parse_morphism, parse_presentation
from dgalgebra import corpus
from conftest import LINEAR_D
from oracles import nullhomotopy_by_bar_search


def v0_split(algebra):
    return make_decomposition(algebra, [n for n in algebra.generator_names() if n == "z"])


def case_one_member(ex52, lam2=1, lam3=2, nu2=3, nu3=5):
    g = ex52.namespace()
    correction = (
        Fraction(lam2) * g.x2**5 * g.y1 * g.y2
        + Fraction(lam3) * g.x1 * g.x2**4 * g.y1 * g.y3
        + Fraction(nu2) * g.x1**5 * g.x2 * g.y1 * g.y2
        + Fraction(nu3) * g.x1**6 * g.y1 * g.y3
    )
    images = {name: ex52.zero() for name in ("x1", "x2", "y1", "y2", "y3")}
    images["z"] = ex52.d(correction)
    return Morphism(ex52, ex52, images)


# -- decompositions --------------------------------------------------------------


def test_published_split_is_valid(ex52):
    decomposition = v0_split(ex52)
    assert set(decomposition.v0) == {"x1", "x2", "y1", "y2", "y3"}
    assert set(decomposition.v1) == {"z"}


def test_degree_decomposition_at_top(ex51):
    top = ex51.max_generator_degree()
    decomposition = make_decomposition(
        ex51, [n for n in ex51.generator_names() if ex51.degree_of(n) == top]
    )
    assert set(decomposition.v1) == {"z"}


def test_invalid_tagging_detected(ex51):
    with pytest.raises(InvalidDecomposition) as err:
        make_decomposition(ex51, ["y1", "x1"])
    assert "x1" in str(err.value)


# -- obstruction values ------------------------------------------------------------


def test_obstruction_with_vanishing_restrictions_is_difference(ex53):
    # both maps kill V0, so the class at z is [f(z) - g(z)]
    decomposition = v0_split(ex53)
    zero_images = {n: ex53.zero() for n in ex53.generator_names()}
    f_images = dict(zero_images)
    f_images["z"] = ex53.d(ex53.gen("y1") * ex53.gen("y2") * ex53.gen("x1") * ex53.gen("x2") ** 2)
    f = Morphism(ex53, ex53, f_images)
    g = Morphism(ex53, ex53, zero_images)
    value = compute_obstruction(f, g, Homotopy.constant(f), decomposition)
    assert value.classes["z"].representative == f_images["z"]
    assert value.is_zero()


def test_case_one_obstruction_vanishes(ex52):
    f = case_one_member(ex52)
    zero = Morphism.zero_map(ex52, ex52)
    decomposition = v0_split(ex52)
    value = compute_obstruction(f, zero, Homotopy.constant(f), decomposition)
    assert value.classes["z"].representative == f.images["z"]
    assert value.is_zero()


def test_constant_homotopy_gives_zero_obstruction(ex53):
    f = Morphism.identity(ex53)
    decomposition = v0_split(ex53)
    value = compute_obstruction(f, f, Homotopy.constant(f), decomposition)
    assert value.is_zero()
    assert value.classes["z"].representative.is_zero()


def test_obstruction_endpoint_precondition(ex51):
    f = Morphism.identity(ex51)
    zero = Morphism.zero_map(ex51, ex51)
    decomposition = v0_split(ex51)
    with pytest.raises(HomotopyEndpointMismatch, match="end at g"):
        compute_obstruction(f, zero, Homotopy.constant(f), decomposition)


def test_obstruction_additivity(ex53):
    # with both restrictions vanishing, the pairwise class is the difference
    # of the against-zero classes
    decomposition = v0_split(ex53)
    zero_images = {n: ex53.zero() for n in ex53.generator_names()}
    g = ex53.namespace()
    f1_images = dict(zero_images)
    f1_images["z"] = ex53.d(g.y1 * g.y2 * g.x1 * g.x2 ** 2)
    f2_images = dict(zero_images)
    f2_images["z"] = ex53.d(3 * g.y1 * g.y3 * g.x1 ** 2 * g.x2)
    f1 = Morphism(ex53, ex53, f1_images)
    f2 = Morphism(ex53, ex53, f2_images)
    zero = Morphism(ex53, ex53, zero_images)
    h = Homotopy.constant(zero)  # starts at each of f1, f2 and zero on V0
    pair = compute_obstruction(f1, f2, h, decomposition)
    against_zero_1 = compute_obstruction(f1, zero, h, decomposition)
    against_zero_2 = compute_obstruction(f2, zero, h, decomposition)
    want = (
        against_zero_1.classes["z"].representative
        - against_zero_2.classes["z"].representative
    )
    assert (
        pair.classes["z"].representative == want
    )


# -- extension ---------------------------------------------------------------------


def test_case_one_extension_roundtrip(ex52):
    f = case_one_member(ex52)
    zero = Morphism.zero_map(ex52, ex52)
    decomposition = v0_split(ex52)
    k = extend_to_homotopy(f, zero, Homotopy.constant(f), decomposition)
    assert k.start == f
    end = k.end()
    for name in ex52.generator_names():
        assert end.images[name].is_zero()
    # the bar image on z is a coboundary witness of f(z), up to sign
    assert ex52.d(k.bar_images["z"]) == -f.images["z"]


def test_extension_constant(ex53):
    f = Morphism.identity(ex53)
    decomposition = v0_split(ex53)
    k = extend_to_homotopy(f, f, Homotopy.constant(f), decomposition)
    assert all(x.is_zero() for x in k.bar_images.values())


def test_extension_obstructed_small():
    source = AlgebraPresentation.build([("w", 2)], label="free")
    target = AlgebraPresentation.build([("x", 2)], label="free2")
    decomposition = make_decomposition(source, ["w"])
    f = Morphism(source, target, {"w": target.gen("x")})
    g = Morphism.zero_map(source, target)
    with pytest.raises(Obstructed) as err:
        extend_to_homotopy(f, g, Homotopy.constant(f), decomposition)
    assert err.value.value.nonzero_generators() == ["w"]


# -- complete decision with vanishing restrictions -------------------------------------


def test_case_one_members_pairwise_homotopic(ex52):
    decomposition = v0_split(ex52)
    members = [
        case_one_member(ex52, 1, 2, 3, 5),
        case_one_member(ex52, 0, 0, 0, 0),
        case_one_member(ex52, -7, Fraction(1, 2), 0, 4),
    ]
    for a in members:
        for b in members:
            decision = decide_homotopic_zero_restriction(a, b, decomposition)
            assert decision.yes
            end = decision.homotopy.end()
            for name in ex52.generator_names():
                assert end.images[name] == b.images[name]


def test_zero_vs_zero(ex51):
    decomposition = v0_split(ex51)
    zero = Morphism.zero_map(ex51, ex51)
    decision = decide_homotopic_zero_restriction(zero, zero, decomposition)
    assert decision.yes


def test_essential_class_detected():
    source = AlgebraPresentation.build([("w", 2)], label="free")
    target = AlgebraPresentation.build([("x", 2)], label="free2")
    decomposition = make_decomposition(source, ["w"])
    f = Morphism(source, target, {"w": target.gen("x")})
    g = Morphism.zero_map(source, target)
    decision = decide_homotopic_zero_restriction(f, g, decomposition)
    assert decision.no and decision.certificate["kind"] == "obstruction"
    assert decision.certificate["obstruction"].nonzero_generators() == decision.certificate["nonzero_at"] == ["w"]


# -- dependence of the obstruction on the homotopy -----------------------------------


def homotopy_choice_instance():
    """Maps f = g whose obstruction against a nonconstant homotopy is nonzero.

    The target has a closed degree-3 generator s, and the homotopies from
    the restriction of f to itself can send the bar of a to any multiple of
    s; the correction term then contributes 2*mu*s*b, which is essential.
    """
    source = AlgebraPresentation.build(
        [("a", 4), ("w", 7)], lambda g: {"w": g.a**2}, label="src"
    )
    target = AlgebraPresentation.build(
        [("s", 3), ("b", 4), ("t", 7)], lambda g: {"t": g.b**2}, label="tgt"
    )
    f = Morphism(source, target, {"a": target.gen("b"), "w": target.gen("t")})
    return source, target, f


def test_nonzero_obstruction_for_homotopic_maps():
    source, target, f = homotopy_choice_instance()
    decomposition = make_decomposition(source, ["w"])
    mu = Fraction(1)
    h = Homotopy(build_cylinder(source), f, {"a": mu * target.gen("s")})
    # h really is a homotopy from f|V0 to f|V0: d(s) = 0
    assert h.end_image("a") == f.images["a"]
    value = compute_obstruction(f, f, h, decomposition)
    expected = 2 * mu * target.gen("s") * target.gen("b")
    assert value.classes["w"].representative == expected
    assert not value.is_zero()
    with pytest.raises(Obstructed):
        extend_to_homotopy(f, f, h, decomposition)
    # yet the maps are equal, hence homotopic
    assert decide_homotopic(f, f).yes


def test_zero_restriction_obstruction_is_homotopy_independent(ex52):
    # random cocycle bar images on V0 leave the classes untouched when both
    # maps vanish there
    decomposition = v0_split(ex52)
    f = case_one_member(ex52)
    zero = Morphism.zero_map(ex52, ex52)
    g = ex52.namespace()
    # cocycle bars: d is zero on x1, x2 copies of matching degree
    bars = {
        "y1": Fraction(5, 3) * g.x1 ** 4,
        "y3": -2 * g.x1 ** 2 * g.x2 ** 2,
    }
    h0 = Homotopy.constant(f)
    h1 = Homotopy(build_cylinder(ex52), f, bars)
    assert all(h1.end_image(n).is_zero() for n in decomposition.v0_ordered())
    v0 = compute_obstruction(f, zero, h0, decomposition)
    v1 = compute_obstruction(f, zero, h1, decomposition)
    assert v0.classes["z"].representative == v1.classes["z"].representative


# -- stage-wise nullhomotopy ------------------------------------------------------


def test_zero_map_nullhomotopic(ex51):
    zero = Morphism.zero_map(ex51, ex51)
    result = decide_nullhomotopic(zero, Filtration.by_degree(ex51))
    assert result.nullhomotopic
    assert all(x.is_zero() for x in result.homotopy.bar_images.values())


def test_identity_obstructed_at_first_cocycle_stage(ex51):
    iota = Morphism.identity(ex51)
    result = decide_nullhomotopic(iota, Filtration.by_degree(ex51))
    assert not result.nullhomotopic
    failure = result.failure
    assert failure.stage == 18
    assert failure.obstruction.nonzero_generators() == ["x1"]
    assert failure.obstruction.classes["x1"].representative == ex51.gen("x1")
    assert failure.modified_map.images["x1"] == ex51.gen("x1")


def test_case_one_nullhomotopic_with_witness(ex52):
    f = case_one_member(ex52)
    result = decide_nullhomotopic(f, Filtration.by_degree(ex52))
    assert result.nullhomotopic
    assert ex52.d(result.homotopy.bar_images["z"]) == -f.images["z"]


def test_filtration_independence(ex52):
    f = case_one_member(ex52)
    by_degree = decide_nullhomotopic(f, Filtration.by_degree(ex52))
    coarse = Filtration(
        ex52,
        {"x1": 0, "x2": 0, "y1": 1, "y2": 1, "y3": 1, "z": 2},
    )
    by_stages = decide_nullhomotopic(f, coarse)
    assert by_degree.nullhomotopic == by_stages.nullhomotopic == True

    iota = Morphism.identity(ex52)
    assert (
        decide_nullhomotopic(iota, Filtration.by_degree(ex52)).nullhomotopic
        == decide_nullhomotopic(iota, coarse).nullhomotopic
        == False
    )


def test_invalid_filtration_rejected(ex52):
    bad = Filtration(ex52, {"x1": 1, "x2": 0, "y1": 1, "y2": 1, "y3": 1, "z": 2})
    with pytest.raises(InvalidFiltration):
        decide_nullhomotopic(Morphism.zero_map(ex52, ex52), bad)


def test_a_stage_that_is_not_an_int_is_a_precondition_violation(free_even):
    zero = Morphism.zero_map(free_even, free_even)
    for bad in ("a", 1.0, True):
        with pytest.raises(PreconditionViolated, match=f"^stage of w must be an int, got {bad!r}$"):
            decide_nullhomotopic(zero, Filtration(free_even, {"w": bad}))


def test_nullhomotopy_matches_bar_search_oracle(ex52):
    filtration = Filtration.by_degree(ex52)
    for f in (
        Morphism.zero_map(ex52, ex52),
        case_one_member(ex52),
        Morphism.identity(ex52),
    ):
        verdict, _ = nullhomotopy_by_bar_search(f, filtration)
        assert decide_nullhomotopic(f, filtration).nullhomotopic == verdict


# -- the general pipeline -----------------------------------------------------------


def test_identity_vs_involution_detected_in_degree_twelve(ex53):
    iota = Morphism.identity(ex53)
    inv = parse_morphism(corpus.read("ex53_inv.map"), ex53, ex53).morphism
    decision = decide_homotopic(iota, inv)
    assert decision.no
    assert decision.certificate["kind"] == "induced-map"
    assert decision.certificate["degree"] == 12
    assert decision.certificate["f_matrix"] == ((Fraction(1),),)
    assert decision.certificate["g_matrix"] == ((Fraction(-1),),)


def test_map_homotopic_to_itself(ex52):
    f = Morphism.identity(ex52)
    assert decide_homotopic(f, f).yes


def test_case_two_member_homotopic_to_identity(ex52):
    g = ex52.namespace()
    correction = g.x2**5 * g.y1 * g.y2 - 4 * g.x1**6 * g.y1 * g.y3
    images = {n: ex52.gen(n) for n in ex52.generator_names()}
    images["z"] = g.z + ex52.d(correction)
    f = Morphism(ex52, ex52, images)
    assert f.verified
    decision = decide_homotopic(f, Morphism.identity(ex52))
    assert decision.yes
    end = decision.homotopy.end()
    assert end == Morphism.identity(ex52)


def test_undetermined_when_canonical_witnesses_miss():
    # f and g are homotopic, but only through a nonzero bar choice on the
    # low generator; the canonical zero-witness search cannot see it and the
    # pipeline must not claim a refutation
    source, target, f = homotopy_choice_instance()
    images = dict(f.images)
    images["w"] = f.images["w"] + target.gen("s") * target.gen("b")
    g = Morphism(source, target, images)
    assert g.verified
    decision = decide_homotopic(f, g)
    assert decision.verdict == "undetermined"
    assert decision.certificate["kind"] == "stage-obstructed"
    assert decision.certificate["stage"] == 7
    # the maps really are homotopic: bar(a) = s/2 works
    h = Homotopy(
        build_cylinder(source), f, {"a": Fraction(1, 2) * target.gen("s")}
    )
    end = h.end()
    assert end == g


def test_stage_ties_do_not_affect_verdicts():
    # two same-degree generators in one stage versus either singleton order
    source = AlgebraPresentation.build(
        [("p", 2), ("q", 2), ("r", 3)], lambda g: {"r": g.p * g.q}, label="tie"
    )
    target = AlgebraPresentation.build(
        [("x", 2), ("t", 3)], lambda g: {"t": g.x**2}, label="tie_target"
    )
    f = Morphism(source, target, {"p": target.gen("x"), "q": target.zero(), "r": target.zero()})
    assert f.verified
    joint = Filtration(source, {"p": 0, "q": 0, "r": 1})
    first = Filtration(source, {"p": 0, "q": 1, "r": 2})
    second = Filtration(source, {"p": 1, "q": 0, "r": 2})
    verdicts = {
        decide_nullhomotopic(f, flt).nullhomotopic for flt in (joint, first, second)
    }
    assert verdicts == {False}

    zero = Morphism.zero_map(source, target)
    verdicts = {
        decide_nullhomotopic(zero, flt).nullhomotopic
        for flt in (joint, first, second)
    }
    assert verdicts == {True}


def test_pipeline_complete_no_with_vanishing_core():
    # induced maps agree everywhere (the source class dies), yet the maps
    # differ by an essential class; the vanishing-core branch settles it
    source = AlgebraPresentation.build(
        [("u", 2), ("v", 3)], lambda g: {"v": g.u**2}, label="src"
    )
    target = AlgebraPresentation.build([("s", 3)], label="tgt")
    f = Morphism(source, target, {"v": target.gen("s")})
    g = Morphism.zero_map(source, target)
    assert f.verified
    from dgalgebra.cohomology import induced_map

    for n in range(0, 4):
        assert induced_map(f, n) == induced_map(g, n)
    decision = decide_homotopic(f, g)
    assert decision.no
    assert decision.certificate["kind"] == "obstruction"
    assert decision.certificate["nonzero_at"] == ["v"]


# -- one cylinder per source ----------------------------------------------------------


def test_stage_search_yes_builds_no_subalgebra(monkeypatch):
    # every obstruction entry point works on the source's one cylinder
    from conftest import load
    from dgalgebra import cli

    fresh = load("ex52.dga")
    assert decide_nullhomotopic(case_one_member(fresh), Filtration.by_degree(fresh)).nullhomotopic
    assert fresh._sub_cache == {}

    g = fresh.namespace()
    images = {n: fresh.gen(n) for n in fresh.generator_names()}
    images["z"] = g.z + fresh.d(g.x2**5 * g.y1 * g.y2)
    decision = decide_homotopic(Morphism(fresh, fresh, images), Morphism.identity(fresh))
    assert decision.yes and decision.detail == "stage-wise witness search"
    assert fresh._sub_cache == {}

    f, zero, split = case_one_member(fresh), Morphism.zero_map(fresh, fresh), v0_split(fresh)
    assert compute_obstruction(f, zero, Homotopy.constant(f), split).is_zero()
    assert extend_to_homotopy(f, zero, Homotopy.constant(f), split).end() == zero
    assert decide_homotopic_zero_restriction(f, zero, split).yes
    assert fresh._sub_cache == {}

    ex51 = load("ex51.dga")
    assert not decide_nullhomotopic(Morphism.identity(ex51), Filtration.by_degree(ex51)).nullhomotopic
    assert ex51._sub_cache == {}

    loaded = []
    load_valid = cli._load_valid_presentation
    monkeypatch.setattr(cli, "_load_valid_presentation", lambda path: loaded.append(load_valid(path)) or loaded[-1])
    v0 = "x1,x2,y1,y2,y3"
    assert cli.main(["obstruction", "ex53.dga", "ex53.dga", "ex53_id.map", "ex53_id.map", "--v0", v0]) == 0
    # the one file named as source and target is loaded once
    assert len(loaded) == 1 and all(a._sub_cache == {} for a in loaded)


def test_obstruction_checks_the_end_on_v0_only(ex53, monkeypatch):
    # the end map at z would evaluate H(alpha(z)), which the class at z
    # computes anyway
    f = Morphism.identity(ex53)
    decomposition = v0_split(ex53)
    asked = []
    end_image = Homotopy.end_image
    monkeypatch.setattr(Homotopy, "end_image", lambda h, name: asked.append(name) or end_image(h, name))
    monkeypatch.setattr(Homotopy, "end", lambda h: pytest.fail("end() evaluates every generator"))
    assert compute_obstruction(f, f, Homotopy.constant(f), decomposition).is_zero()
    assert asked == decomposition.v0_ordered()


def test_obstruction_reads_only_the_v0_bars(ex53, monkeypatch):
    # a bar for every generator would let a correction through that uses a
    # copy of a V1 generator
    from dgalgebra import obstruction

    seen = []
    classes = obstruction._obstruction_classes
    monkeypatch.setattr(
        obstruction,
        "_obstruction_classes",
        lambda f, g, bars, names: seen.append(sorted(bars)) or classes(f, g, bars, names),
    )
    f = Morphism.identity(ex53)
    decomposition = v0_split(ex53)
    compute_obstruction(f, f, Homotopy.constant(f), decomposition)
    extend_to_homotopy(f, f, Homotopy.constant(f), decomposition)
    assert seen == [sorted(decomposition.v0)] * 2


@pytest.mark.parametrize(
    "text, bars, w, message",
    [
        (corpus.read("ex53.dga"), ["x1"], "y1", "escapes"),
        (LINEAR_D, ["a"], "b", "indecomposable"),
    ],
    ids=["bar-missing-on-the-reach", "indecomposable-differential"],
)
def test_obstruction_scan_falls_back_and_raises(text, bars, w, message, monkeypatch):
    # y1 reaches x1 and x2 but only x1 has a bar; d(b) = a has one factor.
    # Either way the lemma's hypotheses fail, and no correction is expanded
    # to find that out.
    algebra = parse_presentation(text).presentation
    monkeypatch.setattr(CylinderAlgebra, "correction", lambda c, v: pytest.fail(f"expanded the correction of {v}"))
    f = Morphism.identity(algebra)
    with pytest.raises(LemmaViolation, match=message):
        _obstruction_classes(f, f, {n: algebra.zero() for n in bars}, [w])


def test_obstruction_rejects_a_nonzero_bar_on_v1(ex52):
    f = case_one_member(ex52)
    zero = Morphism.zero_map(ex52, ex52)
    full = decide_nullhomotopic(f, Filtration.by_degree(ex52)).homotopy
    assert not full.bar_images["z"].is_zero()
    for entry in (compute_obstruction, extend_to_homotopy):
        with pytest.raises(PreconditionViolated, match="nonzero bar on V1"):
            entry(f, zero, full, v0_split(ex52))


def test_obstruction_rejects_a_homotopy_on_another_cylinder(ex52):
    f = case_one_member(ex52)
    decomposition = v0_split(ex52)
    sub = ex52.subalgebra(decomposition.v0)
    on_sub = Homotopy(build_cylinder(sub), Morphism.zero_map(sub, ex52), {})
    with pytest.raises(HomotopyEndpointMismatch, match="decomposed algebra"):
        compute_obstruction(f, Morphism.zero_map(ex52, ex52), on_sub, decomposition)


def test_pushed_map_that_does_not_vanish_below_the_stage_is_caught(monkeypatch):
    # f(a) = x^2 bounds, so the bar of a is the witness -t and the pushed map
    # kills a; f(b) = s is essential, so stage 5 is obstructed
    source = AlgebraPresentation.build([("a", 4), ("b", 5)], label="src")
    target = AlgebraPresentation.build(
        [("x", 2), ("t", 3), ("s", 5)], lambda g: {"t": g.x**2}, label="tgt"
    )
    f = Morphism(source, target, {"a": target.gen("x") ** 2, "b": target.gen("s")})
    filtration = Filtration.by_degree(source)
    failure = decide_nullhomotopic(f, filtration).failure
    assert failure.stage == 5 and failure.modified_map.images["a"].is_zero()

    from dgalgebra.cohomology import CohomologyClass

    witness = CohomologyClass.coboundary_witness
    monkeypatch.setattr(
        CohomologyClass,
        "coboundary_witness",
        lambda self: None if witness(self) is None else 2 * witness(self),
    )
    with pytest.raises(PreconditionViolated, match="below the stage"):
        decide_nullhomotopic(f, filtration)


def misgraded_presentation():
    # parsed without complaint, although |u^3| = 6 and |d v| should be 4
    result = parse_presentation("algebra bad\ngenerator u : 2\ngenerator v : 3\nd v = u^3\n")
    assert not result.diagnostics
    return result.presentation


@pytest.mark.parametrize(
    "decide",
    [
        lambda f: decide_nullhomotopic(f, Filtration.by_degree(f.source)),
        lambda f: decide_homotopic(f, Morphism.zero_map(f.source, f.target)),
        lambda f: classify_homotopy_set(f.source, f.target),
        lambda f: compute_obstruction(
            f,
            f,
            Homotopy.constant(f),
            make_decomposition(f.source, ["v"]),
        ),
    ],
    ids=["decide_nullhomotopic", "decide_homotopic", "classify_homotopy_set", "compute_obstruction"],
)
def test_deciders_reject_a_misgraded_differential(decide):
    algebra = misgraded_presentation()
    f = Morphism.identity(algebra)
    assert f.verified
    with pytest.raises(DegreeMismatch, match=r"d\(v\)"):
        decide(f)


# one precondition violated at a time, on two_stage against free_even:
# (the argument replaced, its replacement, the error, its message)
VIOLATIONS = {
    "other-source": (
        "g",
        lambda a, b: Morphism.zero_map(b, a),
        PreconditionViolated,
        re.escape("must be defined on <two_stage: Lambda(u(2), v(3))>, not on <free_even: Lambda(w(2))>"),
    ),
    "other-target": ("g", lambda a, b: Morphism.zero_map(a, b), PreconditionViolated, "must share a target"),
    "not-a-chain-map": (
        "f",
        lambda a, b: Morphism(a, a, {"u": a.gen("u")}),  # d(f(v)) = 0, f(d v) = u^2
        PreconditionViolated,
        "must be chain maps",
    ),
    "homotopy-into-another-target": (
        "h",
        lambda a, b: Homotopy.constant(Morphism.zero_map(a, b)),
        PreconditionViolated,
        "maps and homotopy must share a target",
    ),
    "filtration-of-another-presentation": (
        "filtration",
        lambda a, b: Filtration.by_degree(b),
        InvalidFiltration,
        "different presentation",
    ),
}

TWO_MAP_ENTRIES = {
    "decide_homotopic": lambda f, g, h, split, filtration: decide_homotopic(f, g),
    "decide_nullhomotopic": lambda f, g, h, split, filtration: decide_nullhomotopic(f, filtration),
    "compute_obstruction": lambda f, g, h, split, filtration: compute_obstruction(f, g, h, split),
    "extend_to_homotopy": lambda f, g, h, split, filtration: extend_to_homotopy(f, g, h, split),
    "decide_homotopic_zero_restriction": lambda f, g, h, split, filtration: decide_homotopic_zero_restriction(
        f, g, split
    ),
}

MAPS = ["other-source", "other-target", "not-a-chain-map"]


@pytest.mark.parametrize(
    "entry, violation",
    [
        *[(e, v) for e in ("decide_homotopic", "decide_homotopic_zero_restriction") for v in MAPS],
        *[(e, v) for e in ("compute_obstruction", "extend_to_homotopy") for v in [*MAPS, "homotopy-into-another-target"]],
        *[("decide_nullhomotopic", v) for v in ("not-a-chain-map", "filtration-of-another-presentation")],
    ],
)
def test_every_two_map_entry_point_rejects_each_violated_precondition(entry, violation, two_stage, free_even):
    f = Morphism.identity(two_stage)
    args = {
        "f": f,
        "g": f,
        "h": Homotopy.constant(f),
        "split": make_decomposition(two_stage, ["v"]),
        "filtration": Filtration.by_degree(two_stage),
    }
    name, replacement, error, message = VIOLATIONS[violation]
    args[name] = replacement(two_stage, free_even)
    with pytest.raises(error, match=message):
        TWO_MAP_ENTRIES[entry](**args)
