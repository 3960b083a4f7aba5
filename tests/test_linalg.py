"""Exact linear algebra: RREF solving, Smith form, multiplicative systems."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgalgebra import (
    DimensionMismatch,
    MultiplicativeSystem,
    NonRationalRoot,
    RationalMatrix,
    UnsolvableSystem,
    rref_solve,
    smith_form,
    solve_multiplicative_system,
)
from dgalgebra import linalg
from dgalgebra.cohomology import cohomology_at_degree, differential_matrix
from dgalgebra.errors import PreconditionViolated
from dgalgebra.linalg import reduce_mod_rows, row_space_basis, rref
from dgalgebra.parser import parse_presentation
from oracles import (
    brute_multiplicative_solutions,
    dense_reduce_mod_rows,
    dense_row_space_basis,
    dense_rref_solve,
    dense_solve,
    int_det,
    mat_mul,
    reduce_by_scan,
)


def test_identity_solve():
    a = RationalMatrix.from_rows([[1, 0], [0, 1]])
    particular, kernel = rref_solve(a, [3, Fraction(-1, 2)])
    assert particular == [Fraction(3), Fraction(-1, 2)]
    assert kernel == []


def test_underdetermined_kernel():
    a = RationalMatrix.from_rows([[1, 1]])
    particular, kernel = rref_solve(a, [0])
    assert particular == [Fraction(0), Fraction(0)]
    assert kernel == [[Fraction(-1), Fraction(1)]]
    assert sum(kernel[0]) == 0


def test_inconsistent_system():
    a = RationalMatrix.from_rows([[1, 1], [1, 1]])
    particular, kernel = rref_solve(a, [1, 2])
    assert particular is None


def test_row_space_basis_rejects_ragged_rows():
    with pytest.raises(DimensionMismatch, match="ragged rows"):
        row_space_basis([[1], [0, 1]])
    with pytest.raises(DimensionMismatch, match="ragged rows"):
        RationalMatrix.from_rows([[1], [0, 1]])


def test_matrix_dimensions_are_non_negative_ints():
    with pytest.raises(DimensionMismatch):
        RationalMatrix(-1, 2)
    with pytest.raises(DimensionMismatch):
        RationalMatrix(2, -1)
    for bad in (2.0, True, "2", None):
        with pytest.raises(PreconditionViolated):
            RationalMatrix(bad, 2)
        with pytest.raises(PreconditionViolated):
            RationalMatrix(2, bad)
    assert RationalMatrix(0, 0).dense_rows() == []


def test_entries_is_a_read_only_fraction_view_of_the_lines():
    matrix = RationalMatrix(2, 3, {(0, 0): 2, (0, 2): 0, (1, 1): Fraction(4, 2), (1, 2): Fraction(1, 3)})
    assert matrix.lines == [{0: 2}, {1: 2, 2: Fraction(1, 3)}]
    assert [type(v) for line in matrix.lines for v in line.values()] == [int, int, Fraction]
    assert matrix.entries == {(0, 0): 2, (1, 1): 2, (1, 2): Fraction(1, 3)}
    assert all(type(v) is Fraction for v in matrix.entries.values())
    with pytest.raises(TypeError):
        matrix.entries[0, 1] = Fraction(5)
    with pytest.raises(TypeError):
        del matrix.entries[0, 0]
    assert RationalMatrix(2, 3, matrix.entries) == matrix
    reduced, pivots = rref(matrix)
    assert pivots == [0, 1]
    assert reduced.lines == [{0: 1}, {1: 1, 2: Fraction(1, 6)}]
    assert type(reduced.lines[1][1]) is int
    assert all(type(v) is Fraction for v in reduced.entries.values())


small_matrices = st.lists(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(small_matrices, st.data())
@settings(max_examples=150)
def test_rref_solve_against_dense_oracle(rows, data):
    n_rows, n_cols = len(rows), len(rows[0])
    b = data.draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=3),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    matrix = RationalMatrix.from_rows(rows)
    particular, kernel = rref_solve(matrix, b)
    oracle = dense_solve(rows, b)
    assert (particular is None) == (oracle is None)
    if particular is not None:
        assert matrix.mat_vec(particular) == [Fraction(v) for v in b]
    for vec in kernel:
        assert matrix.mat_vec(vec) == [Fraction(0)] * n_rows
    # kernel dimension is n_cols - rank
    from oracles import dense_rank

    assert len(kernel) == n_cols - dense_rank(rows)


# mostly zeros, so that zero rows, zero columns and rank deficiency are common
sparse_entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@st.composite
def shaped_systems(draw):
    """``(rows, n_cols, b, vec)`` for any shape up to 5 x 7, empty ones included."""
    n_rows = draw(st.integers(min_value=0, max_value=5))
    n_cols = draw(st.integers(min_value=0, max_value=7))
    rows = [draw(st.lists(sparse_entries, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    b = draw(st.lists(sparse_entries, min_size=n_rows, max_size=n_rows))
    vec = draw(st.lists(sparse_entries, min_size=n_cols, max_size=n_cols))
    return rows, n_cols, b, vec


def _stores_no_zero(matrix):
    return len(matrix.lines) == matrix.rows and all(all(line.values()) for line in matrix.lines)


@given(shaped_systems())
@settings(max_examples=300)
@example(([], 4, [], [Fraction(1)] * 4))
@example(([[]] * 3, 0, [Fraction(1), 0, 0], []))
@example(([[Fraction(0)] * 5] * 4, 5, [0] * 4, [Fraction(2)] * 5))
@example(([[Fraction(0)] * 5] * 4, 5, [0, 0, Fraction(1, 3), 0], [0] * 5))
def test_elimination_matches_dense_reference_exactly(system):
    rows, n_cols, b, vec = system
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    matrix = RationalMatrix(len(rows), n_cols, entries)
    assert rref_solve(matrix, b) == dense_rref_solve(rows, n_cols, b)
    assert matrix.dense_rows() == [[Fraction(v) for v in row] for row in rows]
    transposed = matrix.transpose()
    assert transposed.dense_rows() == [[row[j] for row in rows] for j in range(n_cols)]
    assert transposed.transpose() == matrix
    reduced_matrix, pivots = rref(matrix)
    assert (reduced_matrix.dense_rows()[: len(pivots)], pivots) == dense_row_space_basis(rows)
    assert not any(map(any, reduced_matrix.dense_rows()[len(pivots) :]))
    assert all(map(_stores_no_zero, (matrix, transposed, reduced_matrix)))

    basis, pivots = row_space_basis(rows)
    assert (basis, pivots) == dense_row_space_basis(rows)
    sparse_basis = [{j: v for j, v in enumerate(row) if v} for row in basis]
    reduced = reduce_mod_rows({j: v for j, v in enumerate(vec) if v}, sparse_basis, pivots)
    assert all(reduced.values())
    dense = [reduced.get(j, Fraction(0)) for j in range(n_cols)]
    assert dense == dense_reduce_mod_rows(vec, basis, pivots)


@st.composite
def reductions(draw):
    """``(rows, pivots, vec)``: the reduced echelon rows of up to 24 sparse
    rows over up to 40 columns, so that there are many pivots, and a sparse
    vector whose support lies off the pivots, among them, or partly in both."""
    n_cols = draw(st.integers(min_value=1, max_value=40))
    entry = st.sampled_from([Fraction(k, q) for k in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3)])
    sparse = draw(st.lists(st.dictionaries(st.integers(0, n_cols - 1), entry, min_size=1, max_size=4), max_size=24))
    basis, pivots = row_space_basis([[row.get(j, 0) for j in range(n_cols)] for row in sparse])
    free = [j for j in range(n_cols) if j not in set(pivots)]
    pool = draw(st.sampled_from([free, pivots, list(range(n_cols))]))
    support = draw(st.lists(st.sampled_from(pool), max_size=8, unique=True)) if pool else []
    vec = {j: draw(entry) for j in support}
    return [{j: v for j, v in enumerate(row) if v} for row in basis], pivots, vec


@given(reductions())
@settings(max_examples=200)
def test_support_driven_reduction_matches_the_every_row_scan(reduction):
    rows, pivots, vec = reduction
    reduced = reduce_mod_rows(vec, rows, pivots)
    assert list(reduced.items()) == list(reduce_by_scan(vec, rows, pivots).items())
    assert not any(p in reduced for p in pivots)


# entries up to 2^80 over denominators up to 10^6, so that one row mixes
# denominators and the integer rows inside the elimination need content removal
big_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)


@st.composite
def big_systems(draw):
    """``(rows, n_cols, b, vec)`` with large entries, plus duplicate rows,
    negated multiples (negative pivots) and zero rows."""
    n_cols = draw(st.integers(min_value=0, max_value=6))
    rows = [draw(st.lists(big_entries, min_size=n_cols, max_size=n_cols)) for _ in range(draw(st.integers(0, 4)))]
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if rows and draw(st.booleans()):
        factor = draw(st.builds(Fraction, st.integers(-(2**40), -1), st.integers(1, 10**6)))
        rows.append([factor * v for v in draw(st.sampled_from(rows))])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * n_cols)
    b = draw(st.lists(big_entries, min_size=len(rows), max_size=len(rows)))
    vec = draw(st.lists(big_entries, min_size=n_cols, max_size=n_cols))
    return rows, n_cols, b, vec


def _all_fractions(values):
    return all(type(v) is Fraction for v in values)


@given(big_systems())
@settings(max_examples=200)
def test_large_coefficient_elimination_matches_dense_reference(system):
    rows, n_cols, b, vec = system
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    matrix = RationalMatrix(len(rows), n_cols, entries)
    particular, kernel = rref_solve(matrix, b)
    assert (particular, kernel) == dense_rref_solve(rows, n_cols, b)
    assert _all_fractions(particular or []) and all(_all_fractions(k) for k in kernel)
    reduced_matrix, pivots = rref(matrix)
    assert _all_fractions(reduced_matrix.entries.values())
    assert all(reduced_matrix.get(i, p) == 1 for i, p in enumerate(pivots))

    basis, pivots = row_space_basis(rows)
    assert (basis, pivots) == dense_row_space_basis(rows)
    assert all(_all_fractions(row) for row in basis)
    sparse_basis = [{j: v for j, v in enumerate(row) if v} for row in basis]
    reduced = reduce_mod_rows({j: v for j, v in enumerate(vec) if v}, sparse_basis, pivots)
    assert all(reduced.values())
    assert [reduced.get(j, Fraction(0)) for j in range(n_cols)] == dense_reduce_mod_rows(vec, basis, pivots)


# four quadrics in four even generators forming a regular sequence, so the
# algebra is elliptic; the eliminations of its d-matrices see the coefficient
# growth of the coboundary-query benchmark
ELLIPTIC_QUADRICS = """algebra quadrics
generator a1 : 2
generator a2 : 2
generator a3 : 2
generator a4 : 2
generator y1 : 3
generator y2 : 3
generator y3 : 3
generator y4 : 3
d y1 = -a1^2 - 2*a1*a2 - 2*a1*a3 + 2*a1*a4 + a2^2 - 2*a2*a4 - a3^2 - 2*a3*a4 + a4^2
d y2 = a1*a3 + 2*a1*a4 - 2*a2^2 - a2*a3 - 2*a2*a4 - 2*a3^2 - a3*a4 - a4^2
d y3 = a1^2 + 2*a1*a2 + a1*a3 + 2*a2^2 - 2*a2*a3 - 2*a3^2 - a4^2
d y4 = 2*a1^2 - 2*a1*a2 + a1*a4 - 2*a2^2 + 2*a2*a3 + 2*a2*a4 + 2*a3^2 - 2*a3*a4 - 2*a4^2
"""


def test_elliptic_d_matrices_match_dense_reference():
    algebra = parse_presentation(ELLIPTIC_QUADRICS).presentation
    assert [cohomology_at_degree(algebra, n).dimension for n in range(11)] == [1, 0, 4, 0, 6, 0, 4, 0, 1, 0, 0]
    for n in range(3, 12):
        matrix = differential_matrix(algebra, n)
        rows = matrix.dense_rows()
        # a right-hand side in the column space, with entries of every size
        b = matrix.mat_vec([Fraction((-3) ** j, j + 1) for j in range(matrix.cols)])
        particular, kernel = rref_solve(matrix, b)
        assert (particular, kernel) == dense_rref_solve(rows, matrix.cols, b)
        assert particular is not None
        assert _all_fractions(particular) and all(_all_fractions(k) for k in kernel)


def _check_smith(m):
    u, d, v = smith_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(int_det(u)) == 1
    assert abs(int_det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    return diag


def test_smith_unimodular_two_by_two():
    diag = _check_smith([[6, -5], [5, -4]])
    assert diag == [1, 1]


def test_smith_zero_matrix():
    diag = _check_smith([[0, 0], [0, 0]])
    assert diag == [0, 0]


def test_smith_diag_2_3():
    diag = _check_smith([[2, 0], [0, 3]])
    assert diag == [1, 6]


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=150)
def test_smith_reconstruction_random(m):
    _check_smith(m)


def test_multiplicative_unique_solution():
    system = MultiplicativeSystem.make(
        ["a1", "a2"], [((6, -5), Fraction(1)), ((5, -4), Fraction(1))]
    )
    result = solve_multiplicative_system(system)
    assert result.is_finite
    assert result.solutions == [(Fraction(1), Fraction(1))]


def test_multiplicative_sign_pair():
    system = MultiplicativeSystem.make(
        ["a1", "a2"], [((7, -6), Fraction(1)), ((5, -4), Fraction(1))]
    )
    result = solve_multiplicative_system(system)
    assert result.is_finite
    assert result.solutions == [
        (Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(1)),
    ]


def test_multiplicative_single_unknown():
    system = MultiplicativeSystem.make(["a1"], [((1,), Fraction(2))])
    result = solve_multiplicative_system(system)
    assert result.solutions == [(Fraction(2),)]


def test_multiplicative_non_rational_root():
    system = MultiplicativeSystem.make(["x"], [((2,), Fraction(2))])
    with pytest.raises(NonRationalRoot):
        solve_multiplicative_system(system)


def test_multiplicative_sign_obstruction():
    system = MultiplicativeSystem.make(["x"], [((2,), Fraction(-1))])
    with pytest.raises(UnsolvableSystem):
        solve_multiplicative_system(system)


def test_multiplicative_free_direction():
    system = MultiplicativeSystem.make(["x", "y"], [((1, -1), Fraction(1))])
    result = solve_multiplicative_system(system)
    assert not result.is_finite
    assert result.free_directions
    # the reported particulars are genuine solutions
    for sol in result.solutions:
        assert system.satisfied_by(sol)
    # every free direction is a lattice kernel vector
    for direction in result.free_directions:
        for exps, _ in system.equations:
            assert sum(e * u for e, u in zip(exps, direction)) == 0


small_exponents = st.integers(min_value=-4, max_value=4)
small_constants = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(2), Fraction(4), Fraction(1, 2), Fraction(9, 4), Fraction(-8)]
)


@given(
    st.lists(
        st.tuples(st.tuples(small_exponents, small_exponents), small_constants),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=120)
def test_multiplicative_matches_bounded_search(equations):
    system = MultiplicativeSystem.make(["x", "y"], equations)
    brute = brute_multiplicative_solutions(list(equations), 2, bound=8)
    try:
        result = solve_multiplicative_system(system)
    except UnsolvableSystem:
        assert brute == []
        return
    if result.is_finite:
        in_bound = [
            s
            for s in result.solutions
            if all(abs(v.numerator) <= 8 and v.denominator <= 8 for v in s)
        ]
        assert sorted(in_bound) == brute
        for s in result.solutions:
            assert system.satisfied_by(s)
    else:
        # every brute solution must factor as particular * t**direction
        for s in result.solutions:
            assert system.satisfied_by(s)
        for b in brute:
            assert _in_family(system, result, b)


@st.composite
def sign_systems(draw):
    """Exponent matrices up to 4 x 4 with constants +-1: a pure sign problem."""
    k = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    return [
        (
            tuple(draw(st.lists(small_exponents, min_size=k, max_size=k))),
            draw(st.sampled_from([Fraction(1), Fraction(-1)])),
        )
        for _ in range(m)
    ]


@given(sign_systems())
@settings(max_examples=300)
def test_sign_solutions_match_enumeration(equations):
    k = len(equations[0][0])
    system = MultiplicativeSystem.make([f"x{i}" for i in range(k)], equations)
    brute = sorted(
        signs
        for signs in itertools.product((Fraction(-1), Fraction(1)), repeat=k)
        if system.satisfied_by(signs)
    )
    try:
        result = solve_multiplicative_system(system)
    except UnsolvableSystem:
        assert brute == []
        return
    assert result.solutions == brute
    assert brute


def _in_family(system, result, candidate):
    # verify the candidate satisfies the system (the family description is
    # sound if so, since the solution set is exactly the full solution set)
    return system.satisfied_by(candidate)


def test_smith_identity_failure_is_a_typed_error(monkeypatch):
    """A Smith form that fails its own re-check raises ``PreconditionViolated``,
    which the CLI maps to an exit code, not a bare ``ArithmeticError``."""
    monkeypatch.setattr(linalg, "_mat_mul_int", lambda a, b: [[7]])
    with pytest.raises(PreconditionViolated, match="internal inconsistency"):
        smith_form([[2, 0], [0, 3]])
