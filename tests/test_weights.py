"""Weight gradings, scaling automorphisms, weight search, scaling families."""

from fractions import Fraction

import pytest

from dgalgebra import (
    AlgebraPresentation,
    Morphism,
    PreconditionViolated,
    WeightAssignment,
    WeightsMissing,
    ZeroLambda,
    cohomology_at_degree,
    compose,
    decide_homotopic,
    find_weight_assignment,
    induced_map,
    phi_lambda,
    validate_weights,
    verify_infinite_family,
    weight_split_cohomology,
)
from dgalgebra.weights import scaled_composite


def test_two_stage_weights_valid(two_stage):
    assignment = WeightAssignment.from_generators(two_stage)
    report = validate_weights(assignment)
    assert report.ok


def test_zero_differential_weight_equals_degree():
    A = AlgebraPresentation.build([("x", 2, 2), ("y", 4, 4)], label="flat")
    assert validate_weights(WeightAssignment.from_generators(A)).ok


def test_inhomogeneous_weights_reported(two_stage):
    bad = WeightAssignment(two_stage, {"u": 2, "v": 3})
    report = validate_weights(bad)
    assert not report.ok
    assert any(issue.generator == "v" for issue in report.issues)


@pytest.mark.parametrize(
    "weights, issue",
    [
        ({"u": Fraction(3, 2), "v": 3}, ("u", "weight Fraction(3, 2) is not an int")),
        ({"u": 1.5, "v": 3}, ("u", "weight 1.5 is not an int")),
        ({"u": True, "v": 2}, ("u", "weight True is not an int")),
        ({"u": "1", "v": 2}, ("u", "weight '1' is not an int")),
        ({"u": 1, "v": 2, "w": 1}, ("w", "not a generator")),
        ({"v": 2}, ("u", "no weight assigned")),
        ({"u": 0, "v": 0}, ("u", "weight 0 is not positive")),
    ],
    ids=["fraction", "float", "bool", "str", "not-a-generator", "missing", "zero"],
)
def test_validate_weights_reports_each_bad_weight_without_raising(two_stage, weights, issue):
    report = validate_weights(WeightAssignment(two_stage, weights))
    assert not report.ok
    assert (report.issues[0].generator, report.issues[0].detail) == issue


def test_phi_lambda_raises_weights_missing_with_the_report(two_stage):
    with pytest.raises(WeightsMissing, match="u: weight 1.5 is not an int"):
        phi_lambda(WeightAssignment(two_stage, {"u": 1.5, "v": 3}), 2)
    with pytest.raises(WeightsMissing, match="w: not a generator"):
        phi_lambda(WeightAssignment(two_stage, {"u": 1, "v": 2, "w": 1}), 2)


def test_weight_search_certifies_two_stage(two_stage):
    result = find_weight_assignment(two_stage)
    assert result.universal is True
    assert result.solution_dimension == 1
    cert = result.certificate
    assert cert["v"] == 2 * cert["u"]


def test_weight_search_rejects_corpus_examples(ex51, ex52, ex53):
    for algebra in (ex51, ex52, ex53):
        result = find_weight_assignment(algebra)
        assert result.conclusive
        assert result.universal is False
        assert result.solution_dimension == 0


@pytest.mark.parametrize("k", [2, 3])
def test_weight_walk_finds_every_weight_one_on_a_free_algebra(k):
    # d = 0 imposes no equation, so the solution space is all of Q^k and the
    # first positive combination walked is the sum of the basis vectors
    A = AlgebraPresentation.build([(f"x{i}", 2) for i in range(k)], label=f"free{k}")
    result = find_weight_assignment(A)
    assert result.solution_dimension == k
    assert result.certificate == {f"x{i}": 1 for i in range(k)}
    assert result.conclusive and result.universal is True
    assert validate_weights(WeightAssignment(A, result.certificate)).ok


def test_weight_walk_keeps_the_certificates_on_a_line(two_stage, free_even_weighted):
    # a one-dimensional solution space goes through the same walk as any other
    for algebra, certificate in ((two_stage, {"u": 1, "v": 2}), (free_even_weighted, {"x": 1})):
        result = find_weight_assignment(algebra)
        assert result.solution_dimension == 1
        assert result.certificate == certificate
        assert result.conclusive and result.universal is True


def test_phi_lambda_identity_at_one(two_stage):
    assignment = WeightAssignment.from_generators(two_stage)
    assert phi_lambda(assignment, 1) == Morphism.identity(two_stage)


def test_phi_lambda_rejects_zero(two_stage):
    assignment = WeightAssignment.from_generators(two_stage)
    with pytest.raises(ZeroLambda):
        phi_lambda(assignment, 0)


def test_phi_lambda_group_law_and_inverse(two_stage):
    assignment = WeightAssignment.from_generators(two_stage)
    lam, mu = Fraction(2), Fraction(-3, 2)
    left = compose(phi_lambda(assignment, lam), phi_lambda(assignment, mu))
    assert left == phi_lambda(assignment, lam * mu)
    inv = compose(phi_lambda(assignment, lam), phi_lambda(assignment, 1 / lam))
    assert inv == Morphism.identity(two_stage)
    assert phi_lambda(assignment, lam).verified


def test_phi_lambda_scales_weight_split_classes(two_stage):
    assignment = WeightAssignment.from_generators(two_stage)
    lam = Fraction(3)
    phi = phi_lambda(assignment, lam)
    for n in range(1, 9):
        split = weight_split_cohomology(two_stage, n)
        for i, reps in split.items():
            for rep in reps:
                image = phi.apply(rep)
                assert image == rep * lam ** (n + i)
    # and the full induced matrix in a degree with one class
    h2 = cohomology_at_degree(two_stage, 2)
    assert h2.dimension == 1
    assert induced_map(phi, 2) == ((lam**2,),)


def test_infinite_family_desk_scale(free_even, free_even_weighted):
    f = Morphism(free_even, free_even_weighted, {"w": free_even_weighted.gen("x")})
    report = verify_infinite_family(f, "target", Fraction(2), 5)
    assert len(report.pairs) == 15
    assert report.all_distinct
    assert report.stage == 2
    for p in report.pairs:
        assert p.scale_factor == Fraction(2) ** (2 * p.i) - Fraction(2) ** (2 * p.j)
        assert p.generator == "w"
        assert p.scale_weight == 2


def test_infinite_family_source_side(free_even_weighted):
    f = Morphism.identity(free_even_weighted)
    report = verify_infinite_family(f, "source", Fraction(2), 4)
    assert len(report.pairs) == 10
    assert report.all_distinct


def test_family_confirmed_by_independent_decider(free_even, free_even_weighted):
    f = Morphism(free_even, free_even_weighted, {"w": free_even_weighted.gen("x")})
    assignment = WeightAssignment.from_generators(free_even_weighted)
    h0 = scaled_composite(f, "target", assignment, Fraction(2), 0)
    h1 = scaled_composite(f, "target", assignment, Fraction(2), 1)
    decision = decide_homotopic(h0, h1)
    assert decision.no


def test_family_rejects_degenerate_lambda(free_even, free_even_weighted):
    f = Morphism(free_even, free_even_weighted, {"w": free_even_weighted.gen("x")})
    for bad in (0, 1, -1):
        with pytest.raises(PreconditionViolated):
            verify_infinite_family(f, "target", Fraction(bad), 3)


def test_family_rejects_nullhomotopic_map(free_even, free_even_weighted):
    zero = Morphism.zero_map(free_even, free_even_weighted)
    with pytest.raises(PreconditionViolated):
        verify_infinite_family(zero, "target", Fraction(2), 3)


def test_equal_power_composites_are_the_same_class(free_even, free_even_weighted):
    # i = j composites are literally equal, hence trivially homotopic
    f = Morphism(free_even, free_even_weighted, {"w": free_even_weighted.gen("x")})
    assignment = WeightAssignment.from_generators(free_even_weighted)
    h2a = scaled_composite(f, "target", assignment, Fraction(2), 2)
    h2b = scaled_composite(f, "target", assignment, Fraction(2), 2)
    assert h2a == h2b
    assert decide_homotopic(h2a, h2b).yes


def test_a_count_or_power_that_is_not_an_int_is_a_precondition_violation(free_even, free_even_weighted):
    f = Morphism(free_even, free_even_weighted, {"w": free_even_weighted.gen("x")})
    assignment = WeightAssignment.from_generators(free_even_weighted)
    for bad in (2.5, True, "2"):
        with pytest.raises(PreconditionViolated, match=f"^count must be an int, got {bad!r}$"):
            verify_infinite_family(f, "target", 2, bad)
        with pytest.raises(PreconditionViolated, match=f"^power must be an int, got {bad!r}$"):
            scaled_composite(f, "target", assignment, 2, bad)


def test_float_lambda_is_rejected(free_even, free_even_weighted):
    f = Morphism(free_even, free_even_weighted, {"w": free_even_weighted.gen("x")})
    assignment = WeightAssignment.from_generators(free_even_weighted)
    calls = [
        lambda: phi_lambda(assignment, 0.1),
        lambda: verify_infinite_family(f, "target", 0.1, 3),
        lambda: scaled_composite(f, "target", assignment, 0.5, 1),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
