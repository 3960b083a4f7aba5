"""Generator/monomial/element arithmetic and morphism plumbing."""

from fractions import Fraction

import pytest

from dgalgebra import (
    AlgebraPresentation,
    DgaError,
    Morphism,
    PreconditionViolated,
    PresentationMismatch,
    UnknownGenerator,
    compose,
    extend_derivation,
    normalize_monomial,
    validate_presentation,
)
from dgalgebra.parser import parse_morphism, parse_presentation
from dgalgebra import corpus


def test_odd_transposition_sign(ex51):
    sign, mono = normalize_monomial(ex51, [("y2", 1), ("y1", 1)])
    assert sign == -1
    assert mono.factors == (("y1", 1), ("y2", 1))


def test_odd_square_vanishes(ex51):
    sign, mono = normalize_monomial(ex51, [("y1", 1), ("y1", 1)])
    assert sign == 0 and mono is None


def test_even_generators_commute_freely(ex51):
    sign, mono = normalize_monomial(ex51, [("x2", 1), ("y1", 1), ("x1", 2)])
    assert sign == 1
    assert mono.factors == (("x1", 2), ("x2", 1), ("y1", 1))
    assert mono.degree == 2 * 18 + 22 + 75


def test_unknown_generator_rejected(ex51):
    with pytest.raises(UnknownGenerator):
        normalize_monomial(ex51, [("nope", 1)])


@pytest.mark.parametrize("k", [-1, 2.0])
def test_power_needs_a_non_negative_integer_exponent(ex51, k):
    with pytest.raises(PreconditionViolated):
        ex51.gen("x1") ** k


def test_power_by_squaring_equals_repeated_product(ex53):
    g = ex53.namespace()
    x = g.x1 + Fraction(-2, 3) * g.x2 + 1
    product = ex53.one()
    for k in range(12):
        assert x**k == product
        product = product * x
    # a large exponent costs about 2 * log2(k) products
    [(monomial, c)] = ((2 * g.x1) ** 1000000).terms.items()
    assert (c, monomial.degree) == (2**1000000, 1000000 * ex53.degree_of("x1"))


def test_monomials_of_degree_2_to_the_32_are_refused():
    """A monomial packs each exponent into a 32-bit field of its key; every
    path that would build one of degree 2**32 or more raises instead of
    carrying into the next field (x**(2**32) would read as u)."""
    algebra = AlgebraPresentation.build([("t", 1), ("x", 2), ("u", 2**31), ("w", 2**32)])
    g = algebra.namespace()
    sub = algebra.subalgebra(["w"])
    attempts = {
        "power": lambda: g.x ** 2**31,
        "carrying power": lambda: g.x ** 2**32,
        "product": lambda: g.u * g.u,
        "derivation": lambda: extend_derivation(algebra, {"t": g.u}, 2**31 - 1, g.t * g.u),
        "basis": lambda: algebra.monomial_basis(2**32),
        "normalize": lambda: normalize_monomial(algebra, [("x", 2**31)]),
        "re-index": lambda: algebra.element(sub.gen("w").terms),
    }
    for name, attempt in attempts.items():
        with pytest.raises(PreconditionViolated, match=r"below 2\*\*32"):
            attempt()
            pytest.fail(name)
    [(m, c)] = (g.x ** (2**31 - 1)).terms.items()
    assert (m.exponents, m.degree, c) == ((0, 2**31 - 1, 0, 0), 2**32 - 2, 1)


def test_published_quadratic_product(ex51):
    g = ex51.namespace()
    produced = (g.y1 * g.x2 - g.x1 * g.y2) * (g.y2 * g.x2 - g.x1 * g.y3)
    expected = g.y1 * g.y2 * g.x2**2 - g.y1 * g.y3 * g.x1 * g.x2 + g.y2 * g.y3 * g.x1**2
    assert produced == expected


def test_unit_law(ex51):
    g = ex51.namespace()
    a = g.y1 * g.x2 - 3 * g.x1 * g.y2
    assert ex51.one() * a == a
    assert a * ex51.one() == a


def test_presentation_mismatch(ex51, ex52):
    with pytest.raises(PresentationMismatch):
        ex51.gen("x1") * ex52.gen("x1")


def test_derivation_on_product_of_odds(ex52):
    g = ex52.namespace()
    d_y1y2 = ex52.d(g.y1 * g.y2)
    assert d_y1y2 == g.x1**3 * g.x2 * g.y2 - g.y1 * g.x1**2 * g.x2**2


def test_thirteenth_power_witness_identity(ex52):
    g = ex52.namespace()
    lhs = ex52.d(g.z * g.x2 - g.y1 * g.y2 * g.y3 * g.x1**3 - g.y1 * g.x1**12)
    assert lhs == g.x2**13


def test_derivations_kill_the_unit(ex51):
    assert ex51.d(ex51.one()).is_zero()
    assert ex51.d(ex51.scalar(Fraction(7, 3))).is_zero()


def test_extend_derivation_degree_check(two_stage):
    g = two_stage.namespace()
    with pytest.raises(DgaError):
        extend_derivation(two_stage, {"u": g.u}, 1, g.u)


def test_validate_corpus_presentations(ex51, ex52, ex53):
    for algebra in (ex51, ex52, ex53):
        assert validate_presentation(algebra).ok


def test_validate_accepts_free_polynomial_algebra():
    A = AlgebraPresentation.build([("x", 2)])
    assert validate_presentation(A).ok


def test_validate_flags_indecomposable_differential():
    A = AlgebraPresentation.build(
        [("u", 2), ("v", 3)], lambda g: {"v": g.u}
    )
    report = validate_presentation(A)
    assert not report.ok
    assert any(i.kind == "minimality" and i.generator == "v" for i in report.issues)


def test_validate_flags_low_degree():
    A = AlgebraPresentation.build([("t", 1)])
    report = validate_presentation(A)
    assert any(i.kind == "degree" for i in report.issues)


def test_validate_flags_broken_d_squared():
    A = AlgebraPresentation.unsealed([("u", 2), ("v", 3), ("w", 4)])
    A._set_differential("v", A.gen("u") ** 2)
    A._set_differential("w", A.gen("v") * A.gen("u"))
    A.seal()
    report = validate_presentation(A)
    assert any(i.kind == "d-squared" for i in report.issues)


def test_monomial_basis_published_lists(ex52, ex53):
    names_52 = {str(m) for m in ex52.monomial_basis(119)}
    assert names_52 == {
        "z",
        "x1^2*x2^7*y1",
        "x1^7*x2^3*y1",
        "x1^3*x2^6*y2",
        "x1^8*x2^2*y2",
        "x1^4*x2^5*y3",
        "x1^9*x2*y3",
    }
    names_53 = {str(m) for m in ex53.monomial_basis(119)}
    assert names_53 == {"z", "x1^3*x2^4*y1", "x1^4*x2^3*y2", "x1^5*x2^2*y3"}


def test_monomial_basis_degree_zero(ex51):
    basis = ex51.monomial_basis(0)
    assert len(basis) == 1 and basis[0].is_unit()


def test_monomial_basis_builds_only_the_degrees_asked():
    ex51 = parse_presentation(corpus.read("ex51.dga")).presentation  # fresh caches
    degrees = [g.degree for g in ex51.generators]
    for n in degrees:
        ex51.monomial_basis(n)
    assert sorted(ex51._basis_cache) == [0, *degrees]


def test_monomial_basis_of_many_generators_is_walked_without_recursion():
    algebra = AlgebraPresentation.build([(f"u{i}", 1) for i in range(1200)])
    basis = algebra.monomial_basis(1200)
    assert len(basis) == 1
    assert basis[0].exponents == (1,) * 1200 and basis[0].odd == (1 << 1200) - 1


def test_monomial_basis_spans_and_no_duplicates(ex52):
    basis = ex52.monomial_basis(86)
    assert len(set(basis)) == len(basis)
    g = ex52.namespace()
    x = g.y1 * g.x1 * g.x2 * Fraction(3, 2) + g.x2 ** 2 * g.x1 ** 2 * g.y1 * 0
    for m in x.terms:
        assert m in set(ex52.monomial_basis(m.degree))


def test_involution_is_chain_map(ex53):
    inv = parse_morphism(corpus.read("ex53_inv.map"), ex53, ex53).morphism
    assert inv.verified
    assert inv.apply(ex53.differential_image("z")) == ex53.d(inv.images["z"])


def test_identity_morphism(ex51):
    iota = Morphism.identity(ex51)
    assert iota.verified
    g = ex51.namespace()
    x = g.y1 * g.x2 - g.x1 * g.y2
    assert iota.apply(x) == x


def test_scaled_candidate_fails_chain_check(ex51):
    g = ex51.namespace()
    candidate = Morphism(
        ex51,
        ex51,
        {
            "x1": g.x1,
            "x2": g.x2,
            "y1": 2 * g.y1,
            "y2": g.y2,
            "y3": g.y3,
            "z": g.z,
        },
    )
    report = candidate.chain_report()
    failing = dict(report)
    assert "y1" in failing
    # residual d(f(y1)) - f(d(y1)) = (2 - 1) * x1^3 * x2
    assert failing["y1"] == ex51.d(2 * g.y1) - candidate.apply(ex51.differential_image("y1"))
    assert failing["y1"] == g.x1**3 * g.x2


def test_compose_applies_right_then_left(ex53):
    inv = parse_morphism(corpus.read("ex53_inv.map"), ex53, ex53).morphism
    square = compose(inv, inv)
    assert square == Morphism.identity(ex53)


def test_zero_map_is_chain_map(ex51, ex52):
    zero = Morphism.zero_map(ex51, ex52)
    assert zero.verified


def test_subalgebra_requires_d_closure(ex51):
    with pytest.raises(UnknownGenerator):
        ex51.subalgebra(["y1"])  # d(y1) needs x1, x2
    sub = ex51.subalgebra(["x1", "x2", "y1"])
    assert sub.generator_names() == ["x1", "x2", "y1"]
    assert validate_presentation(sub).ok


def test_canonical_form_idempotent(ex51):
    g = ex51.namespace()
    x = g.y1 * g.x2 - g.x1 * g.y2 + g.x1 * g.y2
    rebuilt = ex51.element(dict(x.terms))
    assert rebuilt == x
    assert rebuilt.terms == x.terms


def test_floats_are_rejected_at_every_scalar_entry_point(ex51):
    from dgalgebra.linalg import MultiplicativeSystem, RationalMatrix, row_space_basis, rref_solve
    from dgalgebra.symbolic import Poly, SymbolicElement

    t = Poly.variable("t")
    calls = [
        lambda: ex51.scalar(1.5),
        lambda: ex51.element({m: 0.5 for m in ex51.gen("x1").terms}),
        lambda: ex51.gen("x1") * 0.5,
        lambda: ex51.gen("x1") / 0.5,
        lambda: Poly.constant(0.1),
        lambda: Poly({(): 0.5}),
        lambda: t * 0.25,
        lambda: 0.25 * t,
        lambda: t.evaluate({"t": 0.5}),
        lambda: SymbolicElement.from_element(ex51.gen("x1")) * 0.5,
        lambda: RationalMatrix(1, 1, {(0, 0): 0.1}),
        lambda: RationalMatrix.from_rows([[1, 0.1]]),
        lambda: rref_solve(RationalMatrix.from_rows([[1]]), [0.1]),
        lambda: RationalMatrix.from_rows([[1]]).mat_vec([0.5]),
        lambda: row_space_basis([[1, 0.5]]),
        lambda: MultiplicativeSystem.make(["a"], [((2,), 0.25)]),
        lambda: MultiplicativeSystem.make(["a"], [((1,), 2)]).satisfied_by([2.0]),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize(
    "spec, field",
    [(("x", 2.0), "degree"), (("x", "2"), "degree"), (("x", True), "degree"),
     (("x", 2, 1.5), "weight"), (("x", 2, True), "weight"), (("x", 2, None, 1.5), "stage")],
)
def test_generator_fields_must_be_ints(spec, field):
    with pytest.raises(PreconditionViolated, match=f"generator x: {field} must be an int"):
        AlgebraPresentation.build([spec])


def test_integral_coefficients_are_ints(ex51):
    g = ex51.namespace()
    x = (g.x1 + Fraction(4, 2) * g.x2) / Fraction(1, 3)
    quotients = (x / 3, (x / 6) * 2, (x / 6) - Fraction(1, 2) * g.x1)  # integral Fractions become ints
    for y in (ex51.one(), g.x1, ex51.scalar(True), ex51.scalar(Fraction(6, 3)), x, x * x, ex51.d(x), *quotients):
        assert all(type(c) is int for c in y.terms.values())
    assert x / 6 == Fraction(1, 2) * g.x1 + g.x2
