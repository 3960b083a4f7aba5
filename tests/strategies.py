"""Hypothesis strategies for random presentations, elements and morphisms."""

from fractions import Fraction

from hypothesis import strategies as st

from dgalgebra.algebra import AlgebraPresentation, validate_presentation
from dgalgebra.cohomology import differential_matrix
from dgalgebra.linalg import rref_solve
from dgalgebra.symbolic import Poly, SymbolicElement

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)
nonzero_rationals = rationals.filter(lambda q: q != 0)


def _random_minimal_algebra(draw, max_gens=4, max_degree=7):
    """A random valid minimal presentation.

    Generators are added in degree order and each differential image is a
    random cocycle among the decomposable monomials one degree up, which
    forces d*d = 0 and minimality by construction.
    """
    n = draw(st.integers(min_value=1, max_value=max_gens))
    degrees = sorted(
        draw(
            st.lists(
                st.integers(min_value=2, max_value=max_degree),
                min_size=n,
                max_size=n,
            )
        )
    )
    specs = [(f"g{i}", deg) for i, deg in enumerate(degrees)]
    algebra = AlgebraPresentation.unsealed(specs, label="random")
    for i, (name, deg) in enumerate(specs):
        if i == 0:
            continue
        sub = algebra.subalgebra([s[0] for s in specs[:i]])
        candidates = [
            m for m in sub.monomial_basis(deg + 1) if m.factor_count() >= 2
        ]
        if not candidates:
            continue
        matrix = differential_matrix(sub, deg + 1)
        basis = sub.monomial_basis(deg + 1)
        cols = {m: k for k, m in enumerate(basis)}
        from dgalgebra.linalg import RationalMatrix

        restricted = {
            (r, k): matrix.get(r, cols[m]) for r in range(matrix.rows) for k, m in enumerate(candidates)
        }
        restricted_matrix = RationalMatrix(matrix.rows, len(candidates), restricted)
        _, kernel = rref_solve(restricted_matrix, [0] * restricted_matrix.rows)
        if not kernel:
            continue
        coeffs = draw(
            st.lists(rationals, min_size=len(kernel), max_size=len(kernel))
        )
        terms = {}
        for c, vec in zip(coeffs, kernel):
            if not c:
                continue
            for m, v in zip(candidates, vec):
                if v:
                    terms[m] = terms.get(m, Fraction(0)) + c * v
        image = algebra.element(
            {m: c for m, c in terms.items() if c}
        )
        if not image.is_zero():
            algebra._set_differential(name, image)
    algebra.seal()
    assert validate_presentation(algebra).ok
    return algebra


@st.composite
def minimal_algebras(draw, max_gens=4, max_degree=7):
    return _random_minimal_algebra(draw, max_gens, max_degree)


@st.composite
def linear_part_algebras(draw):
    """A random presentation whose differential has linear parts.

    Pairs b_k, a_k with d(a_k) = 0 and d(b_k) = a_k + z_k, where z_k is a
    random combination of products of the closed generators a_j and c_i,
    hence a cocycle; then a generator e whose d(e) is a random cocycle of
    the algebra without e, drawn from the kernel of d, so that it may use
    the b_k and have linear terms.  d*d = 0 holds by construction.
    """
    n_closed = draw(st.integers(min_value=0, max_value=2))
    closed = [(f"c{i}", draw(st.integers(min_value=2, max_value=4))) for i in range(n_closed)]
    n_pairs = draw(st.integers(min_value=1, max_value=2))
    pairs = [draw(st.integers(min_value=2, max_value=5)) for _ in range(n_pairs)]
    closed += [(f"a{k}", m + 1) for k, m in enumerate(pairs)]
    specs = closed + [(f"b{k}", m) for k, m in enumerate(pairs)]
    base = AlgebraPresentation.unsealed(specs, label="linear_parts")
    closed_names = {name for name, _ in closed}
    for k, m in enumerate(pairs):
        products = [
            p
            for p in base.monomial_basis(m + 1)
            if p.factor_count() >= 2 and closed_names.issuperset(p.generator_names())
        ]
        coeffs = draw(st.lists(rationals, min_size=len(products), max_size=len(products)))
        base._set_differential(f"b{k}", base.gen(f"a{k}") + base.element(dict(zip(products, coeffs))))
    base.seal()
    top = draw(st.integers(min_value=3, max_value=8))
    _, kernel = rref_solve(differential_matrix(base, top + 1), [0] * len(base.monomial_basis(top + 2)))
    coeffs = draw(st.lists(rationals, min_size=len(kernel), max_size=len(kernel)))
    cocycle = {}
    for c, vec in zip(coeffs, kernel):
        for p, v in zip(base.monomial_basis(top + 1), vec):
            cocycle[p] = cocycle.get(p, 0) + c * v
    algebra = AlgebraPresentation.unsealed(specs + [("e", top)], label="linear_parts")
    for name in base.generator_names():
        algebra._set_differential(name, algebra.element(base.differential_image(name).terms))
    algebra._set_differential("e", algebra.element(cocycle))
    return algebra.seal()


@st.composite
def weighted_two_stage_algebras(draw, max_closed=3, max_top=2):
    """A random minimal presentation with positive weights in two stages.

    Stage 0 generators are closed.  Each stage 1 generator of degree k gets
    a random combination of the decomposable stage 0 monomials of degree
    k + 1 that share one weight, and takes that weight, so d is
    weight-homogeneous and d*d = 0 holds by construction.
    """
    closed = [
        (f"a{i}", draw(st.integers(min_value=2, max_value=5)), draw(st.integers(min_value=1, max_value=3)))
        for i in range(draw(st.integers(min_value=1, max_value=max_closed)))
    ]
    base = AlgebraPresentation.build(closed)

    def weight(m):
        return sum(base.generator(name).weight * e for name, e in m.factors)

    specs, images = list(closed), {}
    for i in range(draw(st.integers(min_value=1, max_value=max_top))):
        name, degree = f"b{i}", draw(st.integers(min_value=3, max_value=9))
        candidates = [m for m in base.monomial_basis(degree + 1) if m.factor_count() >= 2]
        if not candidates:
            specs.append((name, degree, draw(st.integers(min_value=1, max_value=3))))
            continue
        w = weight(draw(st.sampled_from(candidates)))
        block = [m for m in candidates if weight(m) == w]
        coeffs = draw(st.lists(rationals, min_size=len(block), max_size=len(block)))
        specs.append((name, degree, w))
        images[name] = {m: c for m, c in zip(block, coeffs) if c}
    algebra = AlgebraPresentation.unsealed(specs, label="weighted")
    for name, terms in images.items():
        algebra._set_differential(name, algebra.element(terms))
    algebra.seal()
    assert validate_presentation(algebra).ok
    return algebra


@st.composite
def elements_of(draw, algebra, max_degree=None, homogeneous=False):
    top = max_degree or (algebra.max_generator_degree() + 3)
    if homogeneous:
        degree = draw(st.integers(min_value=0, max_value=top))
        basis = algebra.monomial_basis(degree)
        if not basis:
            return algebra.zero()
        coeffs = draw(st.lists(rationals, min_size=len(basis), max_size=len(basis)))
        return algebra.element({m: c for m, c in zip(basis, coeffs) if c})
    terms = {}
    n_terms = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_terms):
        degree = draw(st.integers(min_value=0, max_value=top))
        basis = algebra.monomial_basis(degree)
        if not basis:
            continue
        idx = draw(st.integers(min_value=0, max_value=len(basis) - 1))
        c = draw(rationals)
        if c:
            m = basis[idx]
            terms[m] = terms.get(m, Fraction(0)) + c
    return algebra.element({m: c for m, c in terms.items() if c})


@st.composite
def algebra_with_elements(draw, n_elements=2, max_gens=4, max_degree=7):
    algebra = draw(minimal_algebras(max_gens, max_degree))
    elements = [draw(elements_of(algebra)) for _ in range(n_elements)]
    return (algebra, *elements)


UNKNOWNS = ("s", "t")


@st.composite
def polys(draw, names=UNKNOWNS, max_terms=3, max_exponent=2):
    """A polynomial over Q in ``names`` with at most ``max_terms`` terms."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = [draw(st.integers(min_value=0, max_value=max_exponent)) for _ in names]
        pp = tuple((n, e) for n, e in zip(names, exps) if e)
        terms[pp] = terms.get(pp, Fraction(0)) + draw(rationals)
    return Poly(terms)


@st.composite
def symbolic_elements_of(draw, algebra, max_terms=3, max_factors=3):
    """Random polynomial coefficients on products of random generators."""
    names = algebra.generator_names()
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        product = algebra.one()
        for name in draw(st.lists(st.sampled_from(names), max_size=max_factors)):
            product = product * algebra.gen(name)
        for m in product.terms:  # none when an odd generator repeats
            terms[m] = draw(polys())
    return SymbolicElement(algebra, terms)


def points(names=UNKNOWNS):
    """Rational values for the unknowns ``names``."""
    return st.fixed_dictionaries({n: rationals for n in names})


FORMAT_CHARACTERS = " \t\n#:=+-*^()/,>_@0123456789xyz²"  # "²" is not an ASCII digit


@st.composite
def mutated_corpus_files(draw, max_edits=6):
    """``(name, text)``: a bundled corpus file with format characters
    inserted at, and runs of up to three characters deleted from, random
    positions, half of them at the end of a line, where a token reader
    most often runs past its input."""
    from dgalgebra import corpus

    name = draw(st.sampled_from(corpus.names()))
    text = corpus.read(name)
    for _ in range(draw(st.integers(min_value=1, max_value=max_edits))):
        line_ends = [j for j, ch in enumerate(text) if ch == "\n"] + [len(text)]
        i = draw(st.integers(min_value=0, max_value=len(text)) | st.sampled_from(line_ends))
        if draw(st.booleans()):
            text = text[:i] + draw(st.sampled_from(FORMAT_CHARACTERS)) + text[i:]
        else:
            text = text[:i] + text[i + draw(st.integers(min_value=1, max_value=3)) :]
    return name, text
