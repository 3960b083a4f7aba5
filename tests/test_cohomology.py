"""Cohomology dimensions, witnesses, induced maps, weight splits."""

from fractions import Fraction

import pytest

from dgalgebra import (
    AlgebraPresentation,
    DegreeMismatch,
    Morphism,
    NotACocycle,
    PreconditionViolated,
    PresentationMismatch,
    WeightsMissing,
    build_cylinder,
    cohomology_at_degree,
    induced_map,
    is_coboundary,
    nilpotency_witness,
    weight_split_cohomology,
)
from dgalgebra import cohomology
from dgalgebra.cohomology import class_coordinates, differential_matrix, induced_map_is_isomorphism
from dgalgebra.parser import parse_morphism, parse_presentation
from dgalgebra import corpus
from oracles import class_coordinates_by_solve, dense_rank, dense_representatives


def poly_on_one_cocycle():
    return AlgebraPresentation.build([("x", 2)], label="poly2")


def test_zero_differential_square():
    A = poly_on_one_cocycle()
    result = cohomology_at_degree(A, 4)
    assert result.dimension == 1
    assert result.representatives == [A.gen("x") ** 2]


def test_killed_square(two_stage):
    result = cohomology_at_degree(two_stage, 4)
    assert result.dimension == 0


def test_ex53_degree_twelve(ex53):
    assert ex53.monomial_basis(11) == []
    result = cohomology_at_degree(ex53, 12)
    assert result.dimension == 1
    assert result.representatives == [ex53.gen("x2")]


def test_dimension_matches_rank_computation(ex52):
    # dim H^n = dim ker d_n - rank d_{n-1}, computed through a second path
    for n in (0, 8, 10, 33, 86, 119, 120):
        result = cohomology_at_degree(ex52, n)
        d_n = differential_matrix(ex52, n)
        d_lower = differential_matrix(ex52, n - 1)
        dim_n = len(ex52.monomial_basis(n))
        rank_n = dense_rank(d_n.dense_rows()) if dim_n else 0
        rank_lower = dense_rank(d_lower.dense_rows())
        assert result.dimension == (dim_n - rank_n) - rank_lower


def probe_shape():
    # degree-2 a, b, c, e; degree-3 x, y with d x = a*c, d y = b*c; degree-4 z
    # with d z = b*x - a*y
    return AlgebraPresentation.build(
        [("a", 2), ("b", 2), ("c", 2), ("e", 2), ("x", 3), ("y", 3), ("z", 4)],
        lambda g: {"x": g.a * g.c, "y": g.b * g.c, "z": g.b * g.x - g.a * g.y},
        label="probe",
    )


def test_deep_degrees_of_the_probe_shape_match_dense_oracles():
    # B^12 has 68 echelon rows, far more than the random presentations of
    # the property tests reach.
    A = probe_shape()
    assert len(cohomology_at_degree(A, 12)._boundaries[1]) == 68
    for n in range(13):
        reps = cohomology_at_degree(A, n).representatives
        assert reps == dense_representatives(A, n)
        boundary = A.d(A.element({m: k + 1 for k, m in enumerate(A.monomial_basis(n - 1)[:5])}))
        for coeffs in ([0] * len(reps), [1] * len(reps), [Fraction((-2) ** k, k + 1) for k in range(len(reps))]):
            x = sum((c * r for c, r in zip(coeffs, reps)), boundary)
            assert class_coordinates(A, x, n) == class_coordinates_by_solve(A, x, n)


def test_differential_matrix_is_assembled_once_per_degree(monkeypatch):
    A = parse_presentation(corpus.read("ex53.dga")).presentation
    assembled = []
    assemble = cohomology._assemble

    def counting(algebra, n):
        assembled.append(n)
        return assemble(algebra, n)

    monkeypatch.setattr(cohomology, "_assemble", counting)
    for n in range(15):
        cohomology_at_degree(A, n)
    for n in range(-1, 15):
        differential_matrix(A, n)
    assert sorted(assembled) == list(range(-1, 15))


def test_a_fresh_degree_costs_two_eliminations_and_no_reduction(monkeypatch):
    # one elimination for B^n, one for the kernel of d_n off the B^n pivots
    A = probe_shape()
    calls = {"rref": 0, "reduce_mod_rows": 0}

    def counting(name):
        fn = getattr(cohomology, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    for name in calls:
        monkeypatch.setattr(cohomology, name, counting(name))
    for n in range(2, 15):
        cohomology_at_degree(A, n)
        assert calls == {"rref": 2, "reduce_mod_rows": 0}, n
        calls.update(rref=0)


def test_differential_matrix_returns_a_fresh_copy(two_stage):
    first = differential_matrix(two_stage, 3)
    assert first.entries == {(0, 0): 1}
    first.lines[0][0] = Fraction(99)
    assert differential_matrix(two_stage, 3).entries == {(0, 0): 1}


def test_cached_echelon_rows_hold_ints_for_integral_entries():
    """B^4 is spanned by d(y) = 2ab + 3a^2 + 4b^2, whose reduced row over
    the basis (ab, a^2, b^2) is (1, 3/2, 2): an integral entry only after
    division by the pivot."""
    A = parse_presentation(
        "algebra ints\ngenerator a : 2\ngenerator b : 2\ngenerator y : 3\nd y = 2*a*b + 3*a^2 + 4*b^2\n"
    ).presentation
    h = cohomology_at_degree(A, 4)
    assert h._boundaries == ([{0: 1, 1: Fraction(3, 2), 2: 2}], [0])
    for rows, _ in (h._boundaries, h._rep_rows):
        values = [v for row in rows for v in row.values()]
        assert values and all(type(v) is (int if v.denominator == 1 else Fraction) for v in values)


def test_setting_a_differential_clears_derived_caches():
    A = AlgebraPresentation.unsealed([("u", 2), ("v", 3)])
    hash(A)
    assert cohomology_at_degree(A, 4).dimension == 1
    A.subalgebra(["u", "v"])
    build_cylinder(A)
    A._set_differential("v", A.gen("u") ** 2)
    A.seal()
    fresh = AlgebraPresentation.build([("u", 2), ("v", 3)], lambda g: {"v": g.u**2})
    assert cohomology_at_degree(fresh, 4).dimension == 0
    assert cohomology_at_degree(A, 4).dimension == 0
    assert differential_matrix(A, 3) == differential_matrix(fresh, 3)
    assert A == fresh and hash(A) == hash(fresh)
    assert A.subalgebra(["u", "v"]) == fresh
    assert build_cylinder(A).total == build_cylinder(fresh).total


def test_differential_leaving_its_degree_is_a_typed_error():
    # d v = u^3 has degree 6, not 4
    A = parse_presentation("generator u : 2\ngenerator v : 3\nd v = u^3\n").presentation
    for n in (3, 4, 5):
        with pytest.raises(DegreeMismatch):
            cohomology_at_degree(A, n)


def test_coboundary_witness_published_identity(ex52):
    g = ex52.namespace()
    witness = is_coboundary(ex52, g.x2**13)
    assert witness is not None
    assert ex52.d(witness) == g.x2**13
    identity_witness = g.z * g.x2 - g.y1 * g.y2 * g.y3 * g.x1**3 - g.y1 * g.x1**12
    assert ex52.d(witness - identity_witness).is_zero()


def test_coboundary_of_zero(ex51):
    assert is_coboundary(ex51, ex51.zero()) == ex51.zero()


def test_non_coboundary(ex53):
    assert is_coboundary(ex53, ex53.gen("x2")) is None


def test_coboundary_witness_is_rechecked(two_stage, monkeypatch):
    """A witness that does not bound is an internal error, also under -O."""
    solve = cohomology.rref_solve

    def wrong_particular(matrix, target):
        particular, kernel = solve(matrix, target)
        return [2 * c for c in particular], kernel

    monkeypatch.setattr(cohomology, "rref_solve", wrong_particular)
    g = two_stage.namespace()
    with pytest.raises(PreconditionViolated, match="internal inconsistency"):
        is_coboundary(two_stage, g.u**2)


def test_is_coboundary_requires_cocycle(two_stage):
    with pytest.raises(NotACocycle):
        is_coboundary(two_stage, two_stage.gen("v"))


def test_class_coordinates_rejects_wrong_degree(ex53):
    g = ex53.namespace()
    for x, n in ((g.x1, 12), (g.x1 + g.x2, 10)):
        with pytest.raises(NotACocycle):
            class_coordinates(ex53, x, n)


def test_class_coordinates_rejects_foreign_element(ex51, ex53):
    x1 = ex51.gen("x1")
    with pytest.raises(PresentationMismatch):
        class_coordinates(ex53, x1, x1.degree())


def test_induced_map_identity(ex53):
    iota = Morphism.identity(ex53)
    for n in (0, 10, 12, 22, 24):
        matrix = induced_map(iota, n)
        dim = cohomology_at_degree(ex53, n).dimension
        assert len(matrix) == dim
        for i, row in enumerate(matrix):
            assert list(row) == [Fraction(1) if j == i else Fraction(0) for j in range(dim)]


def test_involution_induces_minus_one_in_degree_twelve(ex53):
    inv = parse_morphism(corpus.read("ex53_inv.map"), ex53, ex53).morphism
    assert induced_map(inv, 12) == ((Fraction(-1),),)
    assert induced_map(inv, 10) == ((Fraction(1),),)


def test_weight_split_trivial_weights():
    A = AlgebraPresentation.build([("x", 2, 2)], label="wpoly")
    split = weight_split_cohomology(A, 4)
    assert set(split) == {0}
    assert split[0] == [A.gen("x") ** 2]


def test_weight_split_empty_when_no_cohomology(two_stage):
    assert weight_split_cohomology(two_stage, 3) == {}


def test_weight_split_dimensions_add(two_stage):
    for n in range(1, 9):
        split = weight_split_cohomology(two_stage, n)
        total = cohomology_at_degree(two_stage, n).dimension
        assert sum(len(reps) for reps in split.values()) == total
        for i, reps in split.items():
            for rep in reps:
                weights = {
                    sum(two_stage.generator(nm).weight * e for nm, e in m.factors)
                    for m in rep.terms
                }
                assert weights == {n + i}


def test_weight_split_rechecks_the_representatives(monkeypatch):
    A = AlgebraPresentation.build([("x", 2, 1), ("y", 2, 2)], label="w2")
    g = A.namespace()
    monkeypatch.setattr(cohomology_at_degree(A, 2), "representatives", [g.x + g.y])
    with pytest.raises(PreconditionViolated, match="internal inconsistency"):
        weight_split_cohomology(A, 2)


def test_weight_split_rejects_weight_inhomogeneous_differential():
    # d v = u^2 has weight 2, not the weight 5 of v, so the weights do not
    # split the cochain complex; a split would report a class H^4 lacks
    A = parse_presentation(
        "generator u : 2 weight 1\ngenerator v : 3 weight 5\nd v = u^2\n"
    ).presentation
    assert cohomology_at_degree(A, 4).dimension == 0
    with pytest.raises(WeightsMissing, match=r"term u\^2 of d\(v\) has weight 2, not the weight 5 of v"):
        weight_split_cohomology(A, 4)


def test_weight_split_requires_weights(ex51):
    with pytest.raises(WeightsMissing):
        weight_split_cohomology(ex51, 18)


def test_nilpotency_witness_published(ex52):
    result = nilpotency_witness(ex52, ex52.gen("x2"), 13)
    assert result is not None
    k, witness = result
    assert k == 13
    assert ex52.d(witness) == ex52.gen("x2") ** 13


def test_nilpotency_of_zero(ex51):
    k, witness = nilpotency_witness(ex51, ex51.zero(), 5)
    assert k == 1 and witness.is_zero()


def test_no_nilpotency_in_polynomial_algebra():
    A = poly_on_one_cocycle()
    assert nilpotency_witness(A, A.gen("x"), 6) is None


def test_coboundary_solve_matches_dense_oracle(ex52):
    # the degree-130 query against the degree-129 coboundary matrix, solved a
    # second way with plain dense elimination
    from dgalgebra.cohomology import class_coordinates, differential_matrix, induced_map_is_isomorphism
    from fractions import Fraction
    from oracles import dense_solve

    g = ex52.namespace()
    z13 = g.x2**13
    basis_130 = ex52.monomial_basis(130)
    index = {m: i for i, m in enumerate(basis_130)}
    rhs = [Fraction(0)] * len(basis_130)
    for m, c in z13.terms.items():
        rhs[index[m]] = c
    matrix = differential_matrix(ex52, 129)
    oracle_solution = dense_solve(matrix.dense_rows(), rhs)
    assert oracle_solution is not None
    lower = ex52.monomial_basis(129)
    oracle_witness = ex52.element(
        {m: c for m, c in zip(lower, oracle_solution) if c}
    )
    assert ex52.d(oracle_witness) == z13
    library_witness = is_coboundary(ex52, z13)
    # both are witnesses; they may differ by a cocycle only
    assert ex52.d(library_witness - oracle_witness).is_zero()


def test_homotopic_maps_induce_equal_matrices(ex52):
    # a certified homotopic pair induces identical matrices in every degree
    from dgalgebra import Morphism, decide_homotopic

    g = ex52.namespace()
    images = {n: ex52.gen(n) for n in ex52.generator_names()}
    images["z"] = g.z + ex52.d(5 * g.x2**5 * g.y1 * g.y2)
    f = Morphism(ex52, ex52, images)
    assert decide_homotopic(f, Morphism.identity(ex52)).yes
    iota = Morphism.identity(ex52)
    for n in range(0, ex52.max_generator_degree() + 1):
        assert induced_map(f, n) == induced_map(iota, n)


DEGREE_ENTRY_POINTS = {
    "cohomology_at_degree": lambda A, W, n: cohomology_at_degree(A, n),
    "class_coordinates": lambda A, W, n: class_coordinates(A, A.gen("x1"), n),
    "induced_map": lambda A, W, n: induced_map(Morphism.identity(A), n),
    "induced_map_is_isomorphism": lambda A, W, n: induced_map_is_isomorphism(Morphism.identity(A), n),
    "weight_split_cohomology": lambda A, W, n: weight_split_cohomology(W, n),
    "nilpotency_witness": lambda A, W, n: nilpotency_witness(A, A.gen("x1"), n),
    "monomial_basis": lambda A, W, n: A.monomial_basis(n),
    "differential_matrix": lambda A, W, n: differential_matrix(A, n),
}


@pytest.mark.parametrize("entry", DEGREE_ENTRY_POINTS)
def test_a_degree_that_is_not_an_int_is_a_precondition_violation(ex53, free_even_weighted, entry):
    call = DEGREE_ENTRY_POINTS[entry]
    call(ex53, free_even_weighted, 10)
    name = "k_max" if entry == "nilpotency_witness" else "n"
    for bad in (2.5, True, 10.0, "2"):
        with pytest.raises(PreconditionViolated, match=f"^{name} must be an int, got {bad!r}$"):
            call(ex53, free_even_weighted, bad)
    assert not [n for n in ex53._cohomology_cache if type(n) is not int]
