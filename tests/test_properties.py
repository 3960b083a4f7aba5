"""Randomised law checking across the whole stack.

The strategies build random *valid* minimal presentations (differentials are
random decomposable cocycles, so d*d = 0 holds by construction), random
elements, random homotopies, and random chain maps obtained as end maps of
homotopies.  Every test asserts an exact identity.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dgalgebra import (
    AlgebraPresentation,
    Homotopy,
    Morphism,
    build_cylinder,
    classify_homotopy_set,
    compose,
    compute_obstruction,
    decide_nullhomotopic,
    extend_to_homotopy,
    make_decomposition,
    solve_structured,
)
from dgalgebra import algebra as algebra_module
from dgalgebra import corpus
from dgalgebra.algebra import extend_derivation, normalize_monomial
from dgalgebra import classify as classify_module
from dgalgebra.classify import (
    ConstraintSystem,
    Equation,
    _linear_part_invertible,
    _normalize_poly,
    constraint_system,
    eliminate_defined_unknowns,
    generic_ansatz,
)
from dgalgebra.cohomology import (
    class_coordinates,
    cohomology_at_degree,
    differential_matrix,
    induced_map_is_isomorphism,
    weight_split_cohomology,
)
from dgalgebra.errors import LemmaViolation, NotACocycle, Obstructed, UnsupportedShape
from dgalgebra.linalg import rref_solve
from dgalgebra.obstruction import Filtration, _obstruction_classes
from dgalgebra.parser import parse_morphism, parse_presentation, print_morphism, print_presentation
from dgalgebra.symbolic import Poly
from conftest import LINEAR_D, load
from oracles import (
    ExponentTuples,
    alpha_by_series,
    basis_by_search,
    class_coordinates_by_solve,
    d_matrix_by_derivation,
    dense_representatives,
    derivative_by_leibniz,
    eliminate_by_restart,
    normalize_by_transpositions,
    nullhomotopy_by_bar_search,
    product_by_transpositions,
    substitute_by_expansion,
    weight_split_by_restriction,
)
from strategies import (
    algebra_with_elements,
    elements_of,
    linear_part_algebras,
    minimal_algebras,
    nonzero_rationals,
    points,
    polys,
    rationals,
    symbolic_elements_of,
    weighted_two_stage_algebras,
)


@given(algebra_with_elements(2))
@settings(max_examples=100)
def test_graded_commutativity(data):
    algebra, x, y = data
    for m1 in x.terms:
        for m2 in y.terms:
            a = algebra.element({m1: Fraction(1)})
            b = algebra.element({m2: Fraction(1)})
            sign = -1 if (m1.degree % 2) and (m2.degree % 2) else 1
            assert a * b == sign * (b * a)


@given(algebra_with_elements(1))
@settings(max_examples=60)
def test_odd_elements_square_to_zero(data):
    algebra, x = data
    odd = algebra.element(
        {m: c for m, c in x.terms.items() if m.degree % 2 == 1}
    )
    assert (odd * odd).is_zero()


@given(algebra_with_elements(1))
@settings(max_examples=60)
def test_canonical_form_idempotent(data):
    algebra, x = data
    rebuilt = algebra.element(dict(x.terms))
    assert rebuilt.terms == x.terms
    for m in x.terms:
        assert list(m.factors) == sorted(
            m.factors, key=lambda f: (algebra.degree_of(f[0]), f[0])
        )


@given(algebra_with_elements(2))
@settings(max_examples=100)
def test_differential_leibniz(data):
    algebra, x, y = data
    lhs = algebra.d(x * y)
    # sign by the degree of the left factor, term by term
    rhs = algebra.d(x) * y
    for m, c in x.terms.items():
        sign = -1 if m.degree % 2 else 1
        rhs = rhs + sign * algebra.element({m: c}) * algebra.d(y)
    assert lhs == rhs


@given(algebra_with_elements(1))
@settings(max_examples=100)
def test_d_squared_zero(data):
    algebra, x = data
    assert algebra.d(algebra.d(x)).is_zero()


@given(algebra_with_elements(1), st.data())
@settings(max_examples=60)
def test_general_derivation_leibniz(data, draw):
    algebra, x = data
    parity = draw.draw(st.integers(min_value=-1, max_value=2))
    images = {}
    for g in algebra.generators:
        # a random derivation image of the right degree (possibly zero)
        basis = algebra.monomial_basis(g.degree + parity)
        if basis:
            coeffs = draw.draw(
                st.lists(rationals, min_size=len(basis), max_size=len(basis))
            )
            images[g.name] = algebra.element(
                {m: c for m, c in zip(basis, coeffs) if c}
            )
    y = draw.draw(elements_of(algebra))
    theta = lambda e: extend_derivation(algebra, images, parity, e)
    lhs = theta(x * y)
    rhs = theta(x) * y
    for m, c in x.terms.items():
        sign = -1 if (parity % 2) and (m.degree % 2) else 1
        rhs = rhs + sign * algebra.element({m: c}) * theta(y)
    assert lhs == rhs


@given(minimal_algebras(), st.data())
@settings(max_examples=50)
def test_monomial_basis_spans_and_unique(algebra, draw):
    n = draw.draw(st.integers(min_value=0, max_value=9))
    basis = algebra.monomial_basis(n)
    assert len(set(basis)) == len(basis)
    for m in basis:
        assert m.degree == n
    x = draw.draw(elements_of(algebra, max_degree=9, homogeneous=True))
    index = set(algebra.monomial_basis(x.degree())) if not x.is_zero() else set()
    for m in x.terms:
        assert m in index


@given(minimal_algebras())
@settings(max_examples=60)
def test_d_matrices_and_representatives_match_the_oracles(algebra):
    """The cached term-kernel assembly and the sparse H^n path agree exactly
    with d applied per monomial and the dense reduction."""
    for n in range(algebra.max_generator_degree() + 4):
        assert differential_matrix(algebra, n) == d_matrix_by_derivation(algebra, n)
        assert cohomology_at_degree(algebra, n).representatives == dense_representatives(algebra, n)


ALGEBRAS = st.one_of(minimal_algebras(), weighted_two_stage_algebras())


@given(ALGEBRAS)
@settings(max_examples=60)
def test_representative_rows_are_reduced_echelon_cocycles_off_the_boundary_pivots(algebra):
    """The precondition ``class_coordinates`` and ``reduce_mod_rows`` rely
    on: ascending pivots, each row 1 at its own pivot and before it 0, and
    0 at every other representative pivot and every B^n pivot; each row
    is a cocycle."""
    for n in range(algebra.max_generator_degree() + 4):
        h = cohomology_at_degree(algebra, n)
        rows, pivots = h._rep_rows
        assert len(rows) == len(pivots) == h.dimension
        assert pivots == sorted(set(pivots))
        d_n = d_matrix_by_derivation(algebra, n)
        for row, p in zip(rows, pivots):
            assert min(row) == p and row[p] == 1
            assert not [q for q in pivots + h._boundaries[1] if q != p and row.get(q)]
            assert not any(d_n.mat_vec([row.get(j, 0) for j in range(d_n.cols)]))


def _draw_homogeneous(draw, algebra, n):
    basis = algebra.monomial_basis(n)
    coeffs = draw(st.lists(rationals, min_size=len(basis), max_size=len(basis)))
    return algebra.element({m: c for m, c in zip(basis, coeffs) if c})


@given(ALGEBRAS, st.data())
@settings(max_examples=80)
def test_class_coordinates_of_a_combination_of_representatives(algebra, data):
    """For x = sum c_i r_i + d(w), the coordinates are exactly c and agree
    with one solve of [representatives | d_{n-1}]."""
    n = data.draw(st.integers(min_value=1, max_value=algebra.max_generator_degree() + 3))
    reps = cohomology_at_degree(algebra, n).representatives
    coords = data.draw(st.lists(rationals, min_size=len(reps), max_size=len(reps)))
    x = algebra.d(_draw_homogeneous(data.draw, algebra, n - 1))
    for c, r in zip(coords, reps):
        x = x + c * r
    assert class_coordinates(algebra, x, n) == coords
    assert class_coordinates_by_solve(algebra, x, n) == coords


@given(ALGEBRAS, st.data())
@settings(max_examples=80)
def test_class_coordinates_match_the_solve_on_any_element(algebra, data):
    """A homogeneous element either gets the solve's coordinates or, when
    it is not a cocycle, raises NotACocycle."""
    n = data.draw(st.integers(min_value=1, max_value=algebra.max_generator_degree() + 3))
    y = _draw_homogeneous(data.draw, algebra, n)
    expected = class_coordinates_by_solve(algebra, y, n)
    assert (expected is None) == (not algebra.d(y).is_zero())
    if expected is None:
        with pytest.raises(NotACocycle):
            class_coordinates(algebra, y, n)
    else:
        assert class_coordinates(algebra, y, n) == expected


@given(weighted_two_stage_algebras())
@settings(max_examples=40)
def test_weight_split_matches_the_restricted_computation(algebra):
    for n in range(1, algebra.max_generator_degree() + 4):
        split = weight_split_cohomology(algebra, n)
        assert split == weight_split_by_restriction(algebra, n)
        assert list(split) == sorted(split)


# the corpus algebras have odd generators in front of generators with nonzero
# d, which random minimal presentations rarely produce
CORPUS = [load(name) for name in ("ex51.dga", "ex52.dga", "ex53.dga", "two_stage.dga")]


@given(st.one_of(minimal_algebras(), st.sampled_from(CORPUS)), st.data())
@settings(max_examples=80)
def test_symbolic_arithmetic_evaluates_to_element_arithmetic(algebra, draw):
    """Evaluating at a rational point commutes with +, *, ** and d."""
    x = draw.draw(symbolic_elements_of(algebra))
    y = draw.draw(symbolic_elements_of(algebra))
    k = draw.draw(st.integers(min_value=0, max_value=3))
    point = draw.draw(points())
    ex, ey = x.evaluate(point), y.evaluate(point)
    assert (x + y).evaluate(point) == ex + ey
    assert (x * y).evaluate(point) == ex * ey
    assert (x**k).evaluate(point) == ex**k
    assert x.d().evaluate(point) == algebra.d(ex)


@given(minimal_algebras(max_gens=3, max_degree=5), minimal_algebras(max_gens=3, max_degree=5), st.data())
@settings(max_examples=40)
def test_ansatz_apply_evaluates_to_morphism_apply(source, target, draw):
    ansatz = generic_ansatz(source, target)
    values = {u: draw.draw(rationals) for u in ansatz.unknowns}
    x = draw.draw(elements_of(source))
    assert ansatz.apply(x).evaluate(values) == ansatz.evaluate(values).apply(x)


def random_chain_map(draw, source, target):
    """A chain map as the end of a random homotopy from the zero map."""
    cyl = build_cylinder(source)
    bars = {}
    for g in source.generators:
        basis = target.monomial_basis(g.degree - 1)
        if basis:
            coeffs = draw.draw(
                st.lists(rationals, min_size=len(basis), max_size=len(basis))
            )
            bars[g.name] = target.element(
                {m: c for m, c in zip(basis, coeffs) if c}
            )
    h = Homotopy(cyl, Morphism.zero_map(source, target), bars)
    return h.end()


@given(minimal_algebras(max_gens=3, max_degree=6), minimal_algebras(max_gens=3, max_degree=6), st.data())
@settings(max_examples=60)
def test_morphism_multiplicative_and_chain(source, target, draw):
    f = random_chain_map(draw, source, target)
    assert f.verified
    x = draw.draw(elements_of(source, max_degree=8))
    y = draw.draw(elements_of(source, max_degree=8))
    assert f.apply(x * y) == f.apply(x) * f.apply(y)
    assert f.apply(source.d(x)) == target.d(f.apply(x))


def random_images(draw, source, target):
    """An algebra map with random images in the generators' degrees; a
    chain map only by chance."""
    images = {}
    for g in source.generators:
        basis = target.monomial_basis(g.degree)
        coeffs = draw.draw(st.lists(rationals, min_size=len(basis), max_size=len(basis)))
        images[g.name] = target.element({m: c for m, c in zip(basis, coeffs) if c})
    return Morphism(source, target, images)


@given(
    st.one_of(
        st.tuples(*[minimal_algebras(max_gens=3, max_degree=6)] * 3),
        st.sampled_from(CORPUS).map(lambda algebra: (algebra,) * 3),
    ),
    st.data(),
)
@settings(max_examples=40)
def test_only_composites_of_two_verified_chain_maps_start_verified(algebras, draw):
    """compose(f, g) of verified chain maps is verified without a check; a
    composite with a factor that is not a chain map is checked like any
    morphism.  Either way its verdict is the chain report of a freshly
    built equal morphism."""
    a, b, c = algebras
    f, g = random_chain_map(draw, b, c), random_chain_map(draw, a, b)
    wild_f, wild_g = random_images(draw, b, c), random_images(draw, a, b)
    identity = Morphism.identity(b)
    assert identity._chain_report == [] == Morphism(b, b, identity.images).chain_report()
    assert compose(f, g)._chain_report == []
    for left, right in [(f, g), (f, wild_g), (wild_f, g), (identity, wild_g), (wild_f, identity)]:
        product = compose(left, right)
        assert product.chain_report() == Morphism(product.source, product.target, product.images).chain_report()


@given(minimal_algebras(max_gens=3, max_degree=6), st.data())
@settings(max_examples=60)
def test_alpha_is_a_dg_algebra_map(algebra, draw):
    cyl = build_cylinder(algebra)
    x = draw.draw(elements_of(cyl.total, max_degree=8))
    y = draw.draw(elements_of(cyl.total, max_degree=8))
    assert cyl.alpha(x * y) == cyl.alpha(x) * cyl.alpha(y)
    assert cyl.total.d(cyl.alpha(x)) == cyl.alpha(cyl.total.d(x))


@given(minimal_algebras(max_gens=3, max_degree=6), st.data())
@settings(max_examples=60)
def test_cylinder_derivation_identities(algebra, draw):
    cyl = build_cylinder(algebra)
    x = draw.draw(elements_of(cyl.total, max_degree=8))
    assert cyl.i(cyl.i(x)).is_zero()
    gamma_direct = cyl.gamma(x)
    assert gamma_direct == cyl.total.d(cyl.i(x)) + cyl.i(cyl.total.d(x))
    assert cyl.total.d(gamma_direct) == cyl.gamma(cyl.total.d(x))


@given(minimal_algebras(max_gens=3, max_degree=6), st.data())
@settings(max_examples=60)
def test_gamma_locally_nilpotent(algebra, draw):
    cyl = build_cylinder(algebra)
    x = draw.draw(elements_of(cyl.total, max_degree=8, homogeneous=True))
    plain = set(algebra.generator_names())
    for m in x.terms:
        mono = cyl.total.element({m: Fraction(1)})
        plain_degree = sum(
            algebra.degree_of(n) * e for n, e in m.factors if n in plain
        )
        # gamma strictly lowers the total degree of plain factors
        power = mono
        for _ in range(plain_degree + 1):
            power = cyl.gamma(power)
        assert power.is_zero()


HALF_SQUARE = """algebra half_square
generator x : 2
generator y : 3
generator z : 5
d y = 1/2*x^2
d z = -2/3*x^3
"""


@pytest.mark.parametrize(
    "text",
    [corpus.read(n) for n in ("ex51.dga", "ex52.dga", "ex53.dga", "two_stage.dga")] + [HALF_SQUARE],
    ids=["ex51", "ex52", "ex53", "two_stage", "half_square"],
)
def test_alpha_generator_matches_the_series_oracle(text):
    algebra = parse_presentation(text).presentation
    cyl = build_cylinder(algebra)
    for g in cyl.total.generator_names():
        assert cyl._alpha_generator(g) == alpha_by_series(cyl, g)


@given(minimal_algebras(max_gens=4, max_degree=7))
@settings(max_examples=40)
def test_alpha_generator_matches_the_series_oracle_on_drawn_algebras(algebra):
    cyl = build_cylinder(algebra)
    for g in cyl.total.generator_names():
        assert cyl._alpha_generator(g) == alpha_by_series(cyl, g)


# d(c) names b, p and e but not a, which b and p reach
DEEP = """algebra deep
generator a : 2
generator e : 2
generator b : 3
generator p : 3
generator c : 4
d b = a^2
d p = a^2
d c = (b - p)*e
"""


def _homotopy_with_zero_bars(draw, algebra):
    """A homotopy from the identity whose bars are zero on a drawn set of
    generators (none, all or any) and one drawn monomial elsewhere."""
    names = algebra.generator_names()
    zero = draw.draw(st.one_of(st.just(set()), st.just(set(names)), st.sets(st.sampled_from(names))))
    bars = {}
    for g in algebra.generators:
        basis = algebra.monomial_basis(g.degree - 1)
        if basis and g.name not in zero:
            bars[g.name] = algebra.element({draw.draw(st.sampled_from(basis)): draw.draw(nonzero_rationals)})
    return Homotopy(build_cylinder(algebra), Morphism.identity(algebra), bars)


def _assert_images_match_the_series_oracle(h):
    """``end_image`` and ``correction_image`` are H applied to the series."""
    cyl, H = h.cylinder, h.as_morphism()
    for v in cyl.base.generator_names():
        series = alpha_by_series(cyl, v)
        assert h.end_image(v) == H.apply(series)
        assert h.correction_image(v) == H.apply(series - cyl.total.gen(v) - cyl.total.gen(cyl.hat_name[v]))


@pytest.mark.parametrize(
    "text",
    [corpus.read(n) for n in ("ex51.dga", "ex52.dga", "ex53.dga")] + [DEEP],
    ids=["ex51", "ex52", "ex53", "deep"],
)
@given(st.data())
@settings(max_examples=20, deadline=None)
def test_end_and_correction_images_match_the_series_oracle(text, draw):
    algebra = parse_presentation(text).presentation
    _assert_images_match_the_series_oracle(_homotopy_with_zero_bars(draw, algebra))


@given(minimal_algebras(max_gens=4, max_degree=7), st.data())
@settings(max_examples=40)
def test_end_and_correction_images_match_the_series_oracle_on_drawn_algebras(algebra, draw):
    _assert_images_match_the_series_oracle(_homotopy_with_zero_bars(draw, algebra))


@given(
    st.one_of(
        linear_part_algebras(),
        minimal_algebras(max_gens=4, max_degree=7),
        st.sampled_from(CORPUS[:3] + [parse_presentation(LINEAR_D).presentation]),
    ),
    st.data(),
)
@settings(max_examples=80)
def test_lemma_violation_is_raised_exactly_where_the_series_has_an_offending_term(algebra, draw):
    # _obstruction_classes, one generator w at a time with zero bars on drawn
    # keys: when the keys contain the reach of w, LemmaViolation is raised
    # exactly where the correction, expanded by the series oracle, has an
    # indecomposable term or a factor outside the copies of the keys; when
    # they do not, it is raised as an escape
    names = algebra.generator_names()
    cyl = build_cylinder(algebra)
    f = Morphism.identity(algebra)
    for w in names:
        keys = draw.draw(st.sets(st.sampled_from(names)))
        if draw.draw(st.booleans()):
            keys |= cyl.reach(w)
        try:
            _obstruction_classes(f, f, {n: algebra.zero() for n in keys}, [w])
        except LemmaViolation as exc:
            raised = str(exc)
        else:
            raised = None
        if not keys.issuperset(cyl.reach(w)):
            assert raised is not None and "escapes" in raised
            continue
        allowed = keys | {cyl.bar_name[n] for n in keys} | {cyl.hat_name[n] for n in keys}
        series = alpha_by_series(cyl, w) - cyl.total.gen(w) - cyl.total.gen(cyl.hat_name[w])
        offending = [
            m for m in series.terms if m.factor_count() < 2 or not allowed.issuperset(m.generator_names())
        ]
        assert (raised is not None) == bool(offending), (w, sorted(keys), raised, offending)


def _assert_exact(*elements):
    """Every coefficient is an int or a Fraction, never a float or a bool."""
    for x in elements:
        for c in x.terms.values():
            assert type(c) is int or isinstance(c, Fraction), (type(c), c)


@given(minimal_algebras(max_gens=3, max_degree=6), st.data())
@settings(max_examples=40)
def test_coefficients_are_ints_or_fractions(algebra, draw):
    x = draw.draw(elements_of(algebra, max_degree=8))
    y = draw.draw(elements_of(algebra, max_degree=8))
    cyl = build_cylinder(algebra)
    z = draw.draw(elements_of(cyl.total, max_degree=8))
    end = random_chain_map(draw, algebra, algebra)  # Homotopy.end()
    _assert_exact(x * y, algebra.d(x), x / 3, cyl.alpha(z), *end.images.values())

    used = {n for img in algebra.differential_images().values() for m in img.terms for n in m.generator_names()}
    v1 = [g.name for g in algebra.generators if g.name not in used]
    if v1:
        decomposition = make_decomposition(algebra, v1)
        f = Morphism(algebra, algebra, {w: random_cocycle(draw, algebra, algebra.degree_of(w)) for w in v1})
        zero = Morphism.zero_map(algebra, algebra)
        obstruction = compute_obstruction(f, zero, Homotopy.constant(zero), decomposition)
        _assert_exact(*(c.representative for c in obstruction.classes.values()))

    try:
        families = solve_structured(constraint_system(generic_ansatz(algebra, algebra)))
    except UnsupportedShape:
        families = []
    for family in families:
        member = family.member({p: draw.draw(rationals) for p in family.free})
        _assert_exact(*member.images.values())


def valid_split(draw, algebra):
    """A random valid generator split for the obstruction machinery."""
    core = set()
    for g in algebra.generators:
        for m in algebra.differential_image(g.name).terms:
            core.update(m.generator_names())
    optional = [g.name for g in algebra.generators if g.name not in core]
    assume(optional)
    chosen = draw.draw(
        st.lists(st.sampled_from(optional), unique=True, min_size=1)
    )
    v1 = set(chosen)
    assume(v1)
    return make_decomposition(algebra, v1)


@given(minimal_algebras(max_gens=4, max_degree=7), st.data())
@settings(max_examples=60)
def test_correction_term_ideal_membership(algebra, draw):
    decomposition = valid_split(draw, algebra)
    cyl = build_cylinder(algebra)
    for w in decomposition.v1_ordered():
        xi = cyl.correction(w)
        if xi.is_zero():
            continue
        v0 = set(decomposition.v0)
        allowed = v0 | {f"{n}@bar" for n in v0} | {f"{n}@hat" for n in v0}
        for m in xi.terms:
            names = m.generator_names()
            assert m.factor_count() >= 2
            assert set(names) <= allowed
            assert any(n.endswith("@bar") for n in names)
            assert any(n in v0 or n.endswith("@hat") for n in names)


def random_cocycle(draw, algebra, degree):
    basis = algebra.monomial_basis(degree)
    if not basis:
        return algebra.zero()
    matrix = differential_matrix(algebra, degree)
    _, kernel = rref_solve(matrix, [0] * matrix.rows)
    if not kernel:
        return algebra.zero()
    coeffs = draw.draw(st.lists(rationals, min_size=len(kernel), max_size=len(kernel)))
    terms = {}
    for c, vec in zip(coeffs, kernel):
        if not c:
            continue
        for m, v in zip(basis, vec):
            if v:
                terms[m] = terms.get(m, Fraction(0)) + c * v
    return algebra.element({m: c for m, c in terms.items() if c})


@given(minimal_algebras(max_gens=3, max_degree=6), minimal_algebras(max_gens=3, max_degree=6), st.data())
@settings(max_examples=50)
def test_obstruction_independent_of_homotopy_when_maps_vanish(source, target, draw):
    decomposition = valid_split(draw, source)
    images_f, images_g = {}, {}
    for w in decomposition.v1_ordered():
        images_f[w] = random_cocycle(draw, target, source.degree_of(w))
        images_g[w] = random_cocycle(draw, target, source.degree_of(w))
    f = Morphism(source, target, images_f)
    g = Morphism(source, target, images_g)
    assert f.verified and g.verified
    zero_full = Morphism.zero_map(source, target)
    plain = Homotopy.constant(zero_full)  # f and g vanish on V0, like zero
    v0 = decomposition.v0_ordered()
    bars = {v: random_cocycle(draw, target, source.degree_of(v) - 1) for v in v0}
    fancy = Homotopy(build_cylinder(source), zero_full, bars)
    # cocycle bars keep it a self-homotopy of 0 on V0
    assume(all(fancy.end_image(v).is_zero() for v in v0))
    base = compute_obstruction(f, g, plain, decomposition)
    other = compute_obstruction(f, g, fancy, decomposition)
    for w in decomposition.v1_ordered():
        assert base.classes[w].equals(other.classes[w])
    # additivity against the zero map, class by class
    f0 = compute_obstruction(f, zero_full, plain, decomposition)
    g0 = compute_obstruction(g, zero_full, plain, decomposition)
    for w in decomposition.v1_ordered():
        difference = (
            f0.classes[w].representative - g0.classes[w].representative
        )
        assert base.classes[w].representative == difference


@given(minimal_algebras(max_gens=3, max_degree=6), minimal_algebras(max_gens=3, max_degree=6), st.data())
@settings(max_examples=60)
def test_extension_roundtrip(source, target, draw):
    decomposition = valid_split(draw, source)
    images_f = {}
    for w in decomposition.v1_ordered():
        images_f[w] = random_cocycle(draw, target, source.degree_of(w))
    f = Morphism(source, target, images_f)
    # g differs from f by coboundaries, so the obstruction always vanishes
    images_g = dict(images_f)
    for w in decomposition.v1_ordered():
        basis = target.monomial_basis(source.degree_of(w) - 1)
        if basis:
            coeffs = draw.draw(st.lists(rationals, min_size=len(basis), max_size=len(basis)))
            adjust = target.element({m: c for m, c in zip(basis, coeffs) if c})
            images_g[w] = images_g[w] + target.d(adjust)
    g = Morphism(source, target, images_g)
    k = extend_to_homotopy(f, g, Homotopy.constant(f), decomposition)
    end = k.end()
    for name in source.generator_names():
        assert end.images[name] == g.images[name]


@given(minimal_algebras(max_gens=3, max_degree=6), minimal_algebras(max_gens=3, max_degree=6), st.data())
@settings(max_examples=40)
def test_nullhomotopy_filtration_independent(source, target, draw):
    f = random_chain_map(draw, source, target)
    by_degree = decide_nullhomotopic(f, Filtration.by_degree(source))
    degrees = sorted({g.degree for g in source.generators})
    rank = {d: i for i, d in enumerate(degrees)}
    bumps = draw.draw(
        st.lists(
            st.integers(min_value=0, max_value=2),
            min_size=len(degrees),
            max_size=len(degrees),
        )
    )
    # monotone in degree, hence valid: differentials only see lower degrees
    stage_of_degree = {}
    acc = 0
    for d, b in zip(degrees, bumps):
        acc += 1 + b
        stage_of_degree[d] = acc
    alt = Filtration(
        source, {g.name: stage_of_degree[g.degree] for g in source.generators}
    )
    by_alt = decide_nullhomotopic(f, alt)
    assert by_degree.nullhomotopic == by_alt.nullhomotopic


@given(minimal_algebras(max_gens=3, max_degree=8), minimal_algebras(max_gens=3, max_degree=8), st.data())
@settings(max_examples=60)
def test_nullhomotopy_matches_bar_search(source, target, draw):
    # a mix of built-to-be-nullhomotopic maps and cocycle-image maps
    if draw.draw(st.booleans()):
        f = random_chain_map(draw, source, target)
    else:
        try:
            decomposition = valid_split(draw, source)
        except Exception:
            f = Morphism.zero_map(source, target)
        else:
            images = {
                w: random_cocycle(draw, target, source.degree_of(w))
                for w in decomposition.v1_ordered()
            }
            f = Morphism(source, target, images)
    filtration = Filtration.by_degree(source)
    verdict, bars = nullhomotopy_by_bar_search(f, filtration)
    result = decide_nullhomotopic(f, filtration)
    assert result.nullhomotopic == verdict
    if verdict:
        end = result.homotopy.end()
        for name in source.generator_names():
            assert end.images[name].is_zero()


@given(minimal_algebras(max_gens=3, max_degree=6), st.data())
@settings(max_examples=40)
def test_reflexivity_and_extension_obstructed_consistency(algebra, draw):
    f = random_chain_map(draw, algebra, algebra)
    h = Homotopy.constant(f)
    assert h.end() == f
    # a constant homotopy extends over any valid split of the identity pair
    try:
        decomposition = valid_split(draw, algebra)
    except Exception:
        return
    try:
        k = extend_to_homotopy(f, f, h, decomposition)
        assert k.end() == f
    except Obstructed:
        raise AssertionError("constant homotopy must always extend")


@given(minimal_algebras(max_gens=3, max_degree=6), minimal_algebras(max_gens=3, max_degree=6), st.data())
@settings(max_examples=50)
def test_no_false_refutations(source, target, draw):
    # pairs built to be homotopic must never be refuted, whatever the
    # decider's internal witness choices do
    from dgalgebra import decide_homotopic

    f = random_chain_map(draw, source, target)
    cyl = build_cylinder(source)
    bars = {}
    for g in source.generators:
        basis = target.monomial_basis(g.degree - 1)
        if basis:
            coeffs = draw.draw(
                st.lists(rationals, min_size=len(basis), max_size=len(basis))
            )
            bars[g.name] = target.element({m: c for m, c in zip(basis, coeffs) if c})
    g_map = Homotopy(cyl, f, bars).end()
    decision = decide_homotopic(f, g_map)
    assert decision.verdict in ("yes", "undetermined")
    if decision.yes:
        end = decision.homotopy.end()
        for name in source.generator_names():
            assert end.images[name] == g_map.images[name]


@given(minimal_algebras(max_gens=3, max_degree=8), minimal_algebras(max_gens=3, max_degree=8), st.data())
@settings(max_examples=50)
def test_verdict_independent_of_stage_witness_choice(source, target, draw):
    # shifting each stage's bar image anywhere inside its solution space
    # leaves the nullhomotopy verdict unchanged (later obstructions move by
    # coboundaries only)
    if draw.draw(st.booleans()):
        f = random_chain_map(draw, source, target)
    else:
        try:
            decomposition = valid_split(draw, source)
        except Exception:
            f = Morphism.zero_map(source, target)
        else:
            images = {
                w: random_cocycle(draw, target, source.degree_of(w))
                for w in decomposition.v1_ordered()
            }
            f = Morphism(source, target, images)
    filtration = Filtration.by_degree(source)
    baseline, _ = nullhomotopy_by_bar_search(f, filtration)
    offsets = {}
    for g in source.generators:
        offsets[g.name] = draw.draw(
            st.lists(rationals, min_size=0, max_size=4)
        )
    shifted, bars = nullhomotopy_by_bar_search(f, filtration, offsets=offsets)
    assert shifted == baseline
    assert decide_nullhomotopic(f, filtration).nullhomotopic == baseline
    if shifted:
        # the shifted bars still assemble an exact nullhomotopy
        h = Homotopy(build_cylinder(source), f, bars)
        end = h.end()
        for name in source.generator_names():
            assert end.images[name].is_zero()


# -- the linear-part certificate against the cohomology scan --------------------


def _isomorphism_up_to_top(f):
    return all(induced_map_is_isomorphism(f, n) for n in range(f.source.max_generator_degree() + 1))


@given(st.one_of(minimal_algebras(), st.sampled_from(CORPUS[:3])), st.data())
@settings(max_examples=40)
def test_invertible_linear_part_implies_isomorphism_in_every_degree(algebra, draw):
    """A chain self-map with invertible Q(f) passes the full degree scan."""
    try:
        families = classify_homotopy_set(algebra, algebra).families
    except UnsupportedShape:
        assume(False)
    family = draw.draw(st.sampled_from(families))
    f = family.member({p: draw.draw(rationals) for p in family.free})
    assert f.verified
    if _linear_part_invertible(f):
        assert _isomorphism_up_to_top(f)
    identity = Morphism.identity(algebra)
    assert _linear_part_invertible(identity) and _isomorphism_up_to_top(identity)
    assert not _linear_part_invertible(Morphism.zero_map(algebra, algebra))


# -- the key kernel against the normaliser by transpositions ------------------


def _named(x):
    """The terms of ``x`` keyed by their ``(name, exponent)`` factors."""
    return {m.factors: c for m, c in x.terms.items()}


MINIMAL_OR_CORPUS = st.one_of(minimal_algebras(), st.sampled_from(CORPUS))


@given(MINIMAL_OR_CORPUS, st.data())
@settings(max_examples=100)
def test_products_match_the_transposition_normaliser(algebra, draw):
    x = draw.draw(elements_of(algebra))
    y = draw.draw(elements_of(algebra))
    assert _named(x * y) == product_by_transpositions(x, y)


@given(MINIMAL_OR_CORPUS, st.data())
@settings(max_examples=100)
def test_the_key_kernel_matches_the_exponent_tuple_oracle(algebra, draw):
    """Products, powers, d of random elements and the degree-n basis agree
    term by term with plain exponent-tuple arithmetic."""
    oracle = ExponentTuples(algebra)
    x, y = draw.draw(elements_of(algebra)), draw.draw(elements_of(algebra))
    k = draw.draw(st.integers(min_value=0, max_value=3))
    tx = oracle.tuples(x)
    assert _named(x * y) == oracle.named(oracle.mul(tx, oracle.tuples(y)))
    assert _named(x**k) == oracle.named(oracle.power(tx, k))
    images = {name: oracle.tuples(img) for name, img in algebra.differential_images().items()}
    assert _named(algebra.d(x)) == oracle.named(oracle.derive(images, 1, tx))
    n = draw.draw(st.integers(min_value=0, max_value=2 * algebra.max_generator_degree() + 2))
    assert [m.factors for m in algebra.monomial_basis(n)] == basis_by_search(algebra, n)


@given(MINIMAL_OR_CORPUS, st.data())
@settings(max_examples=100)
def test_normalize_monomial_matches_the_transposition_normaliser(algebra, draw):
    factor = st.tuples(st.sampled_from(algebra.generator_names()), st.integers(min_value=0, max_value=3))
    raw = draw.draw(st.lists(factor, max_size=6))
    sign, mono = normalize_monomial(algebra, raw)
    assert (sign, mono and mono.factors) == normalize_by_transpositions(algebra, raw)


@given(minimal_algebras(), st.integers(min_value=0, max_value=14))
@settings(max_examples=80)
def test_monomial_basis_is_the_sorted_search(algebra, n):
    assert [m.factors for m in algebra.monomial_basis(n)] == basis_by_search(algebra, n)


@given(st.sampled_from(CORPUS), st.integers(min_value=0, max_value=250))
@example(load("ex51.dga"), 197)  # sparse degrees of ex51, each built on an empty cache
@example(load("ex51.dga"), 83)
@settings(max_examples=40)
def test_corpus_monomial_basis_is_the_sorted_search(algebra, n):
    assert [m.factors for m in algebra.monomial_basis(n)] == basis_by_search(algebra, n)


# Degree sequences asked of a fresh presentation: a cold high degree first
# (every lower degree walked), descending, ascending (every lower degree
# cached), even degrees before odd ones (walked and cached lower degrees in
# one basis) and repeated (walks that outgrow the reachability table, with
# cache hits between them).
BASIS_QUERY_ORDERS = {
    "cold_high_first": lambda top: [top, *range(top)],
    "descending": lambda top: list(range(top, -1, -1)),
    "ascending": lambda top: list(range(top + 1)),
    "evens_then_odds": lambda top: [*range(0, top + 1, 2), *range(1, top + 1, 2)],
    "repeated": lambda top: [top // 2, top, top // 2, top // 2 + 1, 0, top],
}


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    st.sampled_from(sorted(BASIS_QUERY_ORDERS)),
    st.integers(min_value=0, max_value=12),
)
@example([2, 2], "descending", 4)  # g0*g1 walked, g0^2 sliced from degree 0
@settings(max_examples=120)
def test_monomial_basis_is_the_sorted_search_in_any_query_order(degrees, order, top):
    algebra = AlgebraPresentation.build([(f"g{i}", d) for i, d in enumerate(degrees)])
    expected = {}
    for n in BASIS_QUERY_ORDERS[order](top):
        if n not in expected:
            expected[n] = basis_by_search(algebra, n)
        basis = algebra.monomial_basis(n)
        assert [m.factors for m in basis] == expected[n], n
        for m in basis:
            assert m.odd == sum(1 << i for i, g in enumerate(algebra.generators) if g.is_odd and m.exponents[i])


@given(MINIMAL_OR_CORPUS, st.data())
@settings(max_examples=60)
def test_d_of_each_basis_monomial_matches_the_leibniz_rule(algebra, draw):
    n = draw.draw(st.integers(min_value=0, max_value=2 * algebra.max_generator_degree() + 2))
    images = algebra.differential_images()
    for m in algebra.monomial_basis(n):
        assert _named(algebra.d(algebra.element({m: 1}))) == derivative_by_leibniz(algebra, images, 1, m.factors)


@given(minimal_algebras(), st.data())
@settings(max_examples=100)
def test_derivations_match_the_leibniz_rule(algebra, draw):
    """Random images of every degree shift, so image terms may hold odd
    generators later than factors to the right of the one they replace."""
    parity = draw.draw(st.integers(min_value=-1, max_value=2))
    images = {}
    for g in algebra.generators:
        basis = algebra.monomial_basis(g.degree + parity)
        if basis:
            coeffs = draw.draw(st.lists(rationals, min_size=len(basis), max_size=len(basis)))
            images[g.name] = algebra.element({m: c for m, c in zip(basis, coeffs) if c})
    x = draw.draw(elements_of(algebra))
    for m in x.terms:
        got = extend_derivation(algebra, images, parity, algebra.element({m: 1}))
        assert _named(got) == derivative_by_leibniz(algebra, images, parity, m.factors)


def test_derivation_sign_past_later_odd_factors():
    """theta(u) = z with z after y in generator order: theta(u*y) = z*y = -y*z."""
    algebra = AlgebraPresentation.build([("u", 2), ("y", 3), ("z", 5)])
    g = algebra.namespace()
    images = {"u": g.z}
    got = extend_derivation(algebra, images, 3, g.u * g.y)
    assert got == -(g.y * g.z)
    assert _named(got) == derivative_by_leibniz(algebra, images, 3, (("u", 1), ("y", 1)))


@given(minimal_algebras(), st.data())
@settings(max_examples=60)
def test_transfers_keep_terms_and_printed_text(algebra, draw):
    """Subalgebra inclusions and the cylinder re-index monomials by name:
    the named terms, the printed text and d are unchanged by ``element``."""
    k = draw.draw(st.integers(min_value=1, max_value=len(algebra.generators)))
    sub = algebra.subalgebra(algebra.generator_names()[:k])  # d-closed by construction
    x = draw.draw(elements_of(sub))
    up = algebra.element(x.terms)
    assert (_named(up), str(up)) == (_named(x), str(x))
    assert sub.element(up.terms) == x
    assert algebra.d(up) == algebra.element(sub.d(x).terms)
    cyl = build_cylinder(algebra)
    y = draw.draw(elements_of(algebra))
    into = cyl.total.element(y.terms)
    assert (_named(into), str(into)) == (_named(y), str(y))
    assert cyl.total.d(into) == cyl.total.element(algebra.d(y).terms)


def test_a_kernel_with_one_sign_flipped_fails_the_oracles(monkeypatch, ex51):
    g = ex51.namespace()
    raw = [("y2", 1), ("y1", 1)]
    assert _named(g.y2 * g.y1) == product_by_transpositions(g.y2, g.y1)
    assert normalize_monomial(ex51, raw)[0] == normalize_by_transpositions(ex51, raw)[0]
    flips = algebra_module._sign_flips
    monkeypatch.setattr(algebra_module, "_sign_flips", lambda left, right: flips(left, right) + bool(left and right))
    assert _named(g.y2 * g.y1) != product_by_transpositions(g.y2, g.y1)
    assert normalize_monomial(ex51, raw)[0] != normalize_by_transpositions(ex51, raw)[0]


@given(st.one_of(minimal_algebras(), weighted_two_stage_algebras()))
@settings(max_examples=60)
def test_printed_presentation_parses_back(algebra):
    text = print_presentation(algebra)
    parsed = parse_presentation(text)
    assert parsed.ok, parsed.diagnostics
    assert parsed.presentation == algebra
    assert print_presentation(parsed.presentation) == text


@given(minimal_algebras(max_gens=3, max_degree=6), minimal_algebras(max_gens=3, max_degree=6), st.data())
@settings(max_examples=60)
def test_printed_morphism_parses_back(source, target, draw):
    f = random_chain_map(draw, source, target)
    text = print_morphism(f)
    parsed = parse_morphism(text, source, target)
    assert parsed.ok, parsed.diagnostics
    assert parsed.morphism == f
    assert print_morphism(parsed.morphism) == text


# -- substitution and elimination in the structured solver --------------------


@given(
    polys(),
    st.dictionaries(
        st.sampled_from(("s", "t", "u")),  # u occurs in no drawn polynomial
        st.one_of(polys(), st.integers(min_value=-3, max_value=3), rationals),
    ),
)
@settings(max_examples=200)
def test_substitute_matches_the_expansion_oracle(p, values):
    before = dict(p.terms)
    assert p.substitute(values) == substitute_by_expansion(p, values)
    assert p.terms == before


def _power_product(names):
    return tuple(sorted((n, names.count(n)) for n in set(names)))


@st.composite
def definition_chains(draw):
    """A system in which b0, b1, ... are defined one after another as
    monomials (possibly 1) in a0, a1 and the earlier b's, with relations
    among all of them, normalised as ``constraint_system`` leaves its
    equations and put in a shuffled order.  A relation ``x + b + M``, where
    ``b := r*M`` is a definition, defines ``x`` only once ``b`` is
    substituted."""
    names = ["a0", "a1"]
    definitions = []
    for k in range(draw(st.integers(min_value=1, max_value=5))):
        monomial = _power_product(draw(st.lists(st.sampled_from(names), max_size=3)))
        definitions.append((((f"b{k}", 1),), monomial))
        names.append(f"b{k}")
    found = [Poly({b: draw(nonzero_rationals), m: draw(nonzero_rationals)}) for b, m in definitions]
    monomials = st.lists(st.sampled_from(names), min_size=1, max_size=3).map(_power_product)
    relations = st.lists(st.tuples(monomials, nonzero_rationals), min_size=2, max_size=3).map(dict).map(Poly)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        b, m = draw(st.sampled_from(definitions))
        merging = Poly({((draw(st.sampled_from(names)), 1),): 1, b: draw(nonzero_rationals), m: 1})
        found.append(draw(st.one_of(st.just(merging), relations, polys(names=tuple(sorted(names)), max_terms=3))))
    found = [_normalize_poly(p) for p in found if p]
    return ConstraintSystem(None, [Equation(p, []) for p in draw(st.permutations(found))])


def _eliminate_counting_substitutions(system):
    """``eliminate_defined_unknowns(system)`` and its ``Poly.substitute``
    calls as (position of the equation it came from, substituted names),
    each checked to substitute only unknowns that occur; the results of
    ``substitute`` and ``_normalize_poly`` inherit the position of their
    input."""
    origin = {id(eq.poly): k for k, eq in enumerate(system.equations)}
    held, calls = [], []
    substitute, normalize = Poly.substitute, classify_module._normalize_poly

    def inherit(p, out):
        held.append(out)  # kept alive, so that no id is reused
        origin[id(out)] = origin.get(id(p))
        return out

    def counted(p, values):
        assert p.variables().issuperset(values)
        calls.append((origin.get(id(p)), tuple(sorted(values))))
        return inherit(p, substitute(p, values))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Poly, "substitute", counted)
        mp.setattr(classify_module, "_normalize_poly", lambda p: inherit(p, normalize(p)))
        return eliminate_defined_unknowns(system), calls


def _assert_elimination_matches_the_restart_scan(system):
    (records, reduced, linear), calls = _eliminate_counting_substitutions(system)
    want_records, want_reduced, want_linear = eliminate_by_restart(system)
    assert [(u, str(r)) for u, r in records] == [(u, str(r)) for u, r in want_records]
    assert [str(p) for p in reduced] == [str(p) for p in want_reduced]
    assert [str(p) for p in linear] == [str(p) for p in want_linear]
    # every call substitutes one record into an equation of the system that
    # contains it, and no record goes into the same equation twice
    assert all(k is not None and len(names) == 1 for k, names in calls)
    assert len(set(calls)) == len(calls)


@given(definition_chains())
@settings(max_examples=150)
def test_elimination_matches_the_restart_scan_on_definition_chains(system):
    _assert_elimination_matches_the_restart_scan(system)


@pytest.mark.parametrize("name", ["ex51.dga", "ex52.dga", "ex53.dga"])
def test_elimination_matches_the_restart_scan_on_the_corpus(name):
    algebra = load(name)
    _assert_elimination_matches_the_restart_scan(constraint_system(generic_ansatz(algebra, algebra)))
