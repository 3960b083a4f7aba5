"""Cylinder construction, the alpha map, end maps, homotopy extension."""

from fractions import Fraction

import pytest

from dgalgebra import (
    AlgebraPresentation,
    DegreeMismatch,
    Filtration,
    Homotopy,
    HomotopyEndpointMismatch,
    Morphism,
    PreconditionViolated,
    UnknownGenerator,
    build_cylinder,
    decide_homotopic,
    decide_nullhomotopic,
    extend_to_homotopy,
    make_decomposition,
)


def test_cylinder_generators_and_degrees():
    A = AlgebraPresentation.build([("x", 2)], label="poly2")
    cyl = build_cylinder(A)
    gens = {g.name: g.degree for g in cyl.total.generators}
    assert gens == {"x": 2, "x@bar": 1, "x@hat": 2}
    assert cyl.total.d(cyl.total.gen("x@bar")) == cyl.total.gen("x@hat")
    assert cyl.total.d(cyl.total.gen("x@hat")).is_zero()


def test_cylinder_d_squared(ex51):
    cyl = build_cylinder(ex51)
    assert len(cyl.total.generators) == 18
    for g in cyl.total.generators:
        img = cyl.total.differential_image(g.name)
        assert cyl.total.d(img).is_zero()


def test_alpha_on_cocycle_generator():
    A = AlgebraPresentation.build([("x", 4)])
    cyl = build_cylinder(A)
    assert cyl.alpha(cyl.total.gen("x")) == cyl.total.gen("x") + cyl.total.gen("x@hat")


def test_alpha_hand_expansion(two_stage):
    cyl = build_cylinder(two_stage)
    T = cyl.total
    got = cyl.alpha(T.gen("v"))
    expected = (
        T.gen("v")
        + T.gen("v@hat")
        + 2 * T.gen("u@bar") * T.gen("u")
        + T.gen("u@bar") * T.gen("u@hat")
    )
    assert got == expected


def test_alpha_correction_ideal_membership(ex52):
    # the correction for a top generator is decomposable, involves only the
    # lower subalgebra's copies, and every term has a barred factor and a
    # plain-or-hatted factor
    cyl = build_cylinder(ex52)
    xi = cyl.correction("z")
    assert not xi.is_zero()
    v0 = {"x1", "x2", "y1", "y2", "y3"}
    allowed = v0 | {f"{n}@bar" for n in v0} | {f"{n}@hat" for n in v0}
    for m in xi.terms:
        names = m.generator_names()
        assert m.factor_count() >= 2
        assert set(names) <= allowed
        assert any(n.endswith("@bar") for n in names)
        assert any(not n.endswith("@bar") for n in names)


def test_a_misgraded_base_has_no_cylinder():
    # |a*v| = 7, not |v| + 1 = 5, so the alpha series on v would never end
    A = AlgebraPresentation.build([("a", 3), ("v", 4)], lambda g: {"v": g.a * g.v})
    with pytest.raises(DegreeMismatch, match=r"d\(v\)"):
        build_cylinder(A)


@pytest.mark.parametrize(
    "entry",
    [
        lambda f: decide_homotopic(f, f),
        lambda f: decide_nullhomotopic(f, Filtration.by_degree(f.source)),
        Homotopy.constant,
    ],
    ids=["decide_homotopic", "decide_nullhomotopic", "constant"],
)
def test_a_degree_one_generator_is_named_at_every_homotopy_entry_point(entry):
    # the barred copy of t would have degree 0; the error names t, not an
    # internal cylinder generator
    A = AlgebraPresentation.build([("t", 1), ("x", 2)])
    with pytest.raises(PreconditionViolated, match=r"generator t has degree 1; cylinders need .* degree >= 2"):
        entry(Morphism.identity(A))


def test_a_degree_one_generator_still_gets_a_no_from_the_induced_maps():
    # the degree check is made where a cylinder is built, so step (a) of
    # decide_homotopic answers first; its "no" is sound for any DGA: on
    # Lambda(a), |a| = 1, the identity keeps the class of a and 0 kills it
    A = AlgebraPresentation.build([("a", 1)])
    decision = decide_homotopic(Morphism.identity(A), Morphism.zero_map(A, A))
    assert decision.no
    assert (decision.certificate["kind"], decision.certificate["degree"]) == ("induced-map", 1)


def test_reach_is_the_closure_of_the_differential_support():
    # d(c) names b, p and e but not a, which b and p reach; d(s) = t points
    # forward in generator order and d(t) points back at s
    A = AlgebraPresentation.build(
        [("a", 2), ("e", 2), ("b", 3), ("p", 3), ("c", 4), ("s", 5), ("t", 6)],
        lambda g: {"b": g.a**2, "p": g.a**2, "c": (g.b - g.p) * g.e, "s": g.t, "t": g.s * g.e},
    )
    cyl = build_cylinder(A)
    reach = {n: "".join(sorted(cyl.reach(n))) for n in A.generator_names()}
    assert reach == {"a": "", "e": "", "b": "a", "p": "a", "c": "abep", "s": "est", "t": "est"}
    with pytest.raises(UnknownGenerator):
        cyl.reach("a@bar")


def test_end_map_with_zero_bars_is_start(ex53):
    f = Morphism.identity(ex53)
    h = Homotopy(build_cylinder(ex53), f, {})
    assert h.end() == f


def test_published_case_one_nullhomotopy(ex52):
    # the zero-restriction family member with all four parameters set to one
    g = ex52.namespace()
    lam2, lam3, nu2, nu3 = Fraction(1), Fraction(2), Fraction(3), Fraction(5)
    correction = (
        lam2 * g.x2**5 * g.y1 * g.y2
        + lam3 * g.x1 * g.x2**4 * g.y1 * g.y3
        + nu2 * g.x1**5 * g.x2 * g.y1 * g.y2
        + nu3 * g.x1**6 * g.y1 * g.y3
    )
    images = {name: ex52.zero() for name in ("x1", "x2", "y1", "y2", "y3")}
    images["z"] = ex52.d(correction)
    f = Morphism(ex52, ex52, images)
    assert f.verified
    h = Homotopy(build_cylinder(ex52), f, {"z": -correction})
    end = h.end()
    for name in ex52.generator_names():
        assert end.images[name].is_zero()


def test_end_map_commutes_with_restriction(ex52):
    # alpha on the cylinder of a d-closed subalgebra agrees with alpha on
    # the full cylinder, so zero bars off the subalgebra extend a homotopy
    g = ex52.namespace()
    f = Morphism.identity(ex52)
    bars = {"y1": 2 * g.x1 ** 4, "x1": ex52.zero()}
    h = Homotopy(build_cylinder(ex52), f, bars)
    sub = ex52.subalgebra(["x1", "x2", "y1"])
    inclusion = Morphism(sub, ex52, {n: ex52.gen(n) for n in sub.generator_names()})
    restricted_end = Homotopy(build_cylinder(sub), inclusion, bars).end()
    full_end = h.end()
    for name in sub.generator_names():
        assert restricted_end.images[name] == full_end.images[name]


def test_extension_requires_start_agreement(two_stage):
    f = Morphism.identity(two_stage)
    u, v = two_stage.gen("u"), two_stage.gen("v")
    wrong_start = Morphism(two_stage, two_stage, {"u": 2 * u, "v": 4 * v})
    h = Homotopy(build_cylinder(two_stage), wrong_start, {})
    with pytest.raises(HomotopyEndpointMismatch, match="start at f"):
        extend_to_homotopy(f, f, h, make_decomposition(two_stage, ["v"]))


def test_gamma_nilpotence_exhaustive_small_cylinder(two_stage):
    # every cylinder monomial of degree <= 8: gamma dies within
    # (total degree of plain factors) + 1 applications
    from fractions import Fraction

    cyl = build_cylinder(two_stage)
    plain = set(two_stage.generator_names())
    checked = 0
    for degree in range(0, 9):
        for m in cyl.total.monomial_basis(degree):
            plain_degree = sum(
                two_stage.degree_of(n) * e for n, e in m.factors if n in plain
            )
            power = cyl.total.element({m: Fraction(1)})
            for _ in range(plain_degree + 1):
                power = cyl.gamma(power)
            assert power.is_zero(), str(m)
            checked += 1
    assert checked > 50
