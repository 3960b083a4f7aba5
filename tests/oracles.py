"""Independent reference implementations used to cross-check the library.

Deliberately naive: dense Gaussian elimination instead of the sparse RREF
path, and exhaustive search instead of the exponent-lattice solver.  These
never import from dgalgebra.linalg internals beyond the data they check.
"""

from fractions import Fraction
from itertools import product


def dense_solve(rows, b):
    """Solve A x = b by plain Gaussian elimination; returns a solution or None."""
    m = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, b)]
    n_rows = len(m)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * bb for a, bb in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n_rows):
        if m[i][n_cols]:
            return None
    solution = [Fraction(0)] * n_cols
    for i, c in enumerate(pivots):
        solution[c] = m[i][n_cols]
    return solution


def dense_rank(rows):
    if not rows:
        return 0
    m = [list(map(Fraction, row)) for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][c]
        m[rank] = [v / pv for v in m[rank]]
        for i in range(n_rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * bb for a, bb in zip(m[i], m[rank])]
        rank += 1
    return rank


def brute_multiplicative_solutions(equations, n_unknowns, bound=8):
    """All solutions with numerator and denominator bounded, by search.

    ``equations`` is a list of (exponent vector, Fraction constant).
    """
    values = []
    for p in range(-bound, bound + 1):
        for q in range(1, bound + 1):
            if p != 0:
                values.append(Fraction(p, q))
    values = sorted(set(values))
    out = []
    for combo in product(values, repeat=n_unknowns):
        ok = True
        for exps, const in equations:
            acc = Fraction(1)
            for v, e in zip(combo, exps):
                acc *= v**e
            if acc != const:
                ok = False
                break
        if ok:
            out.append(tuple(combo))
    return sorted(set(out))


def int_det(matrix):
    """Integer determinant by fraction-free expansion (small matrices)."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * int_det(minor)
    return total


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def nullhomotopy_by_bar_search(f, filtration, offsets=None):
    """Nullhomotopy decision by directly solving for bar images in stage
    order; linear in the current stage's bars once earlier stages are fixed.

    Independent of the obstruction-class machinery: no decompositions, no
    cohomology quotients, just cylinder evaluation plus one matrix solve per
    generator.  Returns (verdict, bars-or-None).

    ``offsets`` optionally maps generator names to coefficient lists; the
    chosen bar image is shifted inside its solution space by the listed
    kernel combination.  The later stages see a different but equally valid
    partial homotopy, and the verdict must not change; tests use this to
    probe homotopy-choice independence.
    """
    from fractions import Fraction as F

    from dgalgebra.algebra import Morphism
    from dgalgebra.cohomology import differential_matrix
    from dgalgebra.cylinder import build_cylinder
    from dgalgebra.linalg import rref_solve

    source, target = f.source, f.target
    offsets = offsets or {}
    bars = {}
    processed = []
    for s in sorted(set(filtration.stages.values())):
        names = [n for n in source.generator_names() if filtration.stages[n] == s]
        cyl = build_cylinder(source.subalgebra(processed + names))
        images = {n: f.images[n] for n in processed + names}
        for n in processed:
            images[cyl.bar_name[n]] = bars[n]
            images[cyl.hat_name[n]] = target.d(bars[n])
        for n in names:
            images.setdefault(cyl.bar_name[n], target.zero())
            images.setdefault(cyl.hat_name[n], target.zero())
        partial = Morphism(cyl.total, target, images)
        for n in names:
            xi = cyl.correction(n)
            rhs = -(f.images[n] + partial.apply(xi))
            degree = source.degree_of(n)
            basis = target.monomial_basis(degree)
            lower = target.monomial_basis(degree - 1)
            index = {m: i for i, m in enumerate(basis)}
            vec = [F(0)] * len(basis)
            for m, c in rhs.terms.items():
                vec[index[m]] = c
            matrix = differential_matrix(target, degree - 1)
            particular, kernel = rref_solve(matrix, vec)
            if particular is None:
                return False, None
            solution = list(particular)
            for c, direction in zip(offsets.get(n, ()), kernel):
                if c:
                    solution = [a + F(c) * b for a, b in zip(solution, direction)]
            bars[n] = target.element(
                {m: c for m, c in zip(lower, solution) if c}
            )
        processed.extend(names)
    return True, bars


def alpha_by_series(cylinder, name):
    """alpha(v) = sum gamma**n(v) / n! for the cylinder generator ``name``, by
    the recurrence ``term_n = gamma(term_(n-1)) / n`` over ``Element``
    division, summed until a term vanishes."""
    acc = term = cylinder.total.gen(name)
    n = 1
    while True:
        term = cylinder.gamma(term) / n
        if term.is_zero():
            return acc
        acc = acc + term
        n += 1


# -- the dense elimination the library used before sparse rows ------------------
#
# Reduced row echelon form is unique, so the library's sparse elimination must
# reproduce these answers exactly, not merely valid ones.


def dense_rref(rows):
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    if not rows:
        return rows, []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [v / pv for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def dense_rref_solve(rows, n_cols, b):
    """``(particular, kernel)`` of ``A x = b`` with free variables set to zero."""
    aug = [[Fraction(v) for v in row] + [Fraction(v)] for row, v in zip(rows, b)]
    reduced, pivots = dense_rref(aug)
    particular = [Fraction(0)] * n_cols
    for r, c in enumerate(pivots):
        if c == n_cols:
            particular = None
            break
        particular[c] = reduced[r][n_cols]
    pivot_cols = [c for c in pivots if c < n_cols]
    kernel = []
    for fc in (c for c in range(n_cols) if c not in pivot_cols):
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, c in enumerate(pivot_cols):
            vec[c] = -reduced[r][fc]
        kernel.append(vec)
    return particular, kernel


def dense_row_space_basis(rows):
    if not rows:
        return [], []
    reduced, pivots = dense_rref([[Fraction(v) for v in row] for row in rows])
    return reduced[: len(pivots)], pivots


def dense_reduce_mod_rows(vec, rows, pivots):
    v = [Fraction(x) for x in vec]
    for row, p in zip(rows, pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def reduce_by_scan(vec, rows, pivots):
    """``vec`` reduced modulo sparse reduced echelon rows by walking every
    row in pivot order and subtracting it wherever the running vector is
    nonzero at its pivot; a new sparse dict, in the key order that this
    sequence of in-place subtractions leaves."""
    v = dict(vec)
    for row, p in zip(rows, pivots):
        f = v.get(p)
        if f:
            for j, x in row.items():
                y = v.get(j, 0) - f * x
                if y:
                    v[j] = y
                else:
                    del v[j]
    return v


def d_matrix_by_derivation(algebra, n):
    """The degree-n d-matrix, one ``algebra.d`` call per basis monomial."""
    from dgalgebra.linalg import RationalMatrix

    src = algebra.monomial_basis(n)
    index = {m: i for i, m in enumerate(algebra.monomial_basis(n + 1))}
    entries = {}
    for j, m in enumerate(src):
        for mono, c in algebra.d(algebra.element({m: 1})).terms.items():
            entries[index[mono], j] = c
    return RationalMatrix(len(index), len(src), entries)


def _dense_block(algebra, n, allowed):
    """Dense d_n on the allowed monomials: columns of degree n, rows of
    degree n + 1."""
    rows = d_matrix_by_derivation(algebra, n).dense_rows()
    cols = [j for j, m in enumerate(algebra.monomial_basis(n)) if allowed(m)]
    targets = algebra.monomial_basis(n + 1)
    return [[row[j] for j in cols] for row, m in zip(rows, targets) if allowed(m)]


def dense_representatives(algebra, n, allowed=lambda m: True):
    """Canonical H^n representatives on dense vectors: the kernel of d_n
    reduced modulo the reduced row space of d_{n-1}^T, then put in reduced
    echelon form.  ``allowed`` restricts every degree to a sub-basis that d
    preserves."""
    basis = [m for m in algebra.monomial_basis(n) if allowed(m)]
    if not basis:
        return []
    d_n = _dense_block(algebra, n, allowed)
    _, kernel = dense_rref_solve(d_n, len(basis), [0] * len(d_n))
    d_lower = [list(col) for col in zip(*_dense_block(algebra, n - 1, allowed))]
    image, pivots = dense_row_space_basis(d_lower)
    reduced = [v for v in (dense_reduce_mod_rows(vec, image, pivots) for vec in kernel) if any(v)]
    rows, _ = dense_row_space_basis(reduced)
    return [algebra.element({m: c for m, c in zip(basis, row) if c}) for row in rows]


def weight_split_by_restriction(algebra, n):
    """H^n split by weight - n, computed separately on each weight's
    sub-basis of the cochain complex."""

    def weight(m):
        return sum(algebra.generator(name).weight * e for name, e in m.factors)

    out = {}
    for w in sorted({weight(m) for m in algebra.monomial_basis(n)}):
        reps = dense_representatives(algebra, n, lambda m: weight(m) == w)
        if reps:
            out[w - n] = reps
    return out


def class_coordinates_by_solve(algebra, x, n):
    """Coordinates of [x] over the library's H^n representatives from one
    dense solve of ``[representatives | d_{n-1}] c = x``; None when x is
    not a cocycle."""
    from dgalgebra.cohomology import cohomology_at_degree

    reps = cohomology_at_degree(algebra, n).representatives
    basis = algebra.monomial_basis(n)
    d_lower = _dense_block(algebra, n - 1, lambda m: True)
    columns = [[r.terms.get(m, Fraction(0)) for r in reps] for m in basis]
    rows = [rep_part + d_part for rep_part, d_part in zip(columns, d_lower)]
    solution = dense_solve(rows, [x.terms.get(m, Fraction(0)) for m in basis]) if rows else []
    return None if solution is None else solution[: len(reps)]


# -- monomials by name, without the library's monomial keys ---------------------
#
# A monomial here is a tuple of (generator name, exponent) pairs in the order
# (degree, name), the library's documented canonical order.


def _generator_key(algebra, name):
    return (algebra.degree_of(name), name)


def normalize_by_transpositions(algebra, raw_factors):
    """``(sign, factors)`` of a raw ``(name, exponent)`` list, or ``(0, None)``.

    The factors are spelled out one copy at a time and bubble-sorted by
    adjacent transpositions; swapping neighbours of degrees p and q
    multiplies by (-1)**(p*q).  Two equal odd neighbours make the product
    zero.
    """
    seq = [name for name, e in raw_factors for _ in range(e)]
    sign = 1
    for end in range(len(seq) - 1, 0, -1):
        for j in range(end):
            a, b = seq[j], seq[j + 1]
            if _generator_key(algebra, a) > _generator_key(algebra, b):
                seq[j], seq[j + 1] = b, a
                if algebra.degree_of(a) % 2 and algebra.degree_of(b) % 2:
                    sign = -sign
    factors = []
    for name in seq:
        if factors and factors[-1][0] == name:
            if algebra.degree_of(name) % 2:
                return 0, None
            factors[-1] = (name, factors[-1][1] + 1)
        else:
            factors.append((name, 1))
    return sign, tuple(factors)


def product_by_transpositions(x, y):
    """``x * y`` as ``{factors: coefficient}``, one normalisation per pair."""
    out = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            sign, factors = normalize_by_transpositions(x.algebra, m1.factors + m2.factors)
            if sign:
                out[factors] = out.get(factors, 0) + sign * c1 * c2
    return {f: c for f, c in out.items() if c}


def derivative_by_leibniz(algebra, images, parity, factors):
    """The derivation of the given parity with generator images ``images``
    (name -> element; missing names go to zero) on one monomial, as
    ``{factors: coefficient}``: it hits each copy of each factor in turn,
    with the sign (-1)**(parity * degree of the copies before it), and every
    term is normalised by transpositions."""
    seq = [name for name, e in factors for _ in range(e)]
    out = {}
    before = 0
    for j, name in enumerate(seq):
        image = images.get(name)
        for m, c in (image.terms.items() if image is not None else ()):
            raw = [(n, 1) for n in seq[:j]] + list(m.factors) + [(n, 1) for n in seq[j + 1 :]]
            sign, normal = normalize_by_transpositions(algebra, raw)
            if sign:
                out[normal] = out.get(normal, 0) + (-1) ** (parity * before % 2) * sign * c
        before += algebra.degree_of(name)
    return {f: c for f, c in out.items() if c}


def basis_by_search(algebra, n):
    """Every monomial of degree n, by search over all exponent vectors, in
    the documented order: at the first generator (in (degree, name) order)
    where two monomials differ, the smaller nonzero exponent comes first
    and a zero exponent comes last."""
    names = sorted(algebra.generator_names(), key=lambda name: _generator_key(algebra, name))
    degrees = [algebra.degree_of(name) for name in names]
    ranges = [range(2) if d % 2 else range(n // d + 1) for d in degrees]
    found = []
    for exps in product(*ranges):
        if sum(d * e for d, e in zip(degrees, exps)) == n:
            found.append(tuple((i, e) for i, e in enumerate(exps) if e))
    return [tuple((names[i], e) for i, e in pairs) for pairs in sorted(found)]


# -- substitution and elimination by expansion, without the library's kernel ------


def substitute_by_expansion(poly, values):
    """``poly`` with ``values`` (name -> Poly, int or Fraction) put in for its
    unknowns, one copy of one factor at a time: each partial product is a
    ``{name: exponent}`` dict with a coefficient."""
    from dgalgebra.symbolic import Poly

    out = {}
    for pp, c in poly.terms.items():
        partial = [({}, Fraction(c))]
        for name, e in pp:
            value = values.get(name, Poly.variable(name))
            value_terms = value.terms if isinstance(value, Poly) else {(): value}
            for _ in range(e):
                expanded = []
                for exps, c1 in partial:
                    for pp2, c2 in value_terms.items():
                        product = dict(exps)
                        for n, k in pp2:
                            product[n] = product.get(n, 0) + k
                        expanded.append((product, c1 * c2))
                partial = expanded
        for exps, c1 in partial:
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, 0) + c1
    return Poly(out)


def eliminate_by_restart(system):
    """The structured solver's elimination by a scan that starts over after
    every record: the first equation ``c*u + d*M = 0`` (``u`` a bare unknown
    absent from the monomial ``M``) defines ``u := -(d/c)*M``, which is
    substituted into every other equation.  Returns ``(records, reduced
    nonlinear polys, linear polys)`` as ``eliminate_defined_unknowns`` does."""
    from dgalgebra.classify import _normalize_poly
    from dgalgebra.symbolic import Poly

    all_polys = [eq.poly for eq in system.equations]
    work = [p for p in all_polys if p.max_term_degree() >= 2]
    linear = [p for p in all_polys if p.max_term_degree() <= 1 and not p.is_zero()]
    records = []
    changed = True
    while changed:
        changed = False
        for idx, p in enumerate(work):
            terms = sorted(p.terms.items())
            if len(terms) != 2:
                continue
            for (pp_a, c_a), (pp_b, c_b) in ((terms[0], terms[1]), (terms[1], terms[0])):
                if len(pp_a) == 1 and pp_a[0][1] == 1 and all(n != pp_a[0][0] for n, _ in pp_b):
                    u = pp_a[0][0]
                    replacement = Poly({pp_b: Fraction(-c_b, c_a)})
                    records.append((u, replacement))
                    substituted = (
                        _normalize_poly(substitute_by_expansion(q, {u: replacement}))
                        for k, q in enumerate(work)
                        if k != idx
                    )
                    work = [q for q in substituted if not q.is_zero()]
                    changed = True
                    break
            if changed:
                break
    reduced = []
    for p in work:
        if p.canonical() not in {q.canonical() for q in reduced}:
            reduced.append(p)
    linear += [p for p in reduced if p.max_term_degree() <= 1]
    return records, [p for p in reduced if p.max_term_degree() >= 2], linear


# -- the monomial kernel on exponent tuples, without the library's packed keys ---
#
# An element here is a dict {exponent tuple: coefficient} over the generators
# in (degree, name) order; a Koszul sign is the parity of the inversions
# between odd factors, counted on the tuples.


class ExponentTuples:
    """Products, powers and derivations of one presentation's elements on
    plain exponent tuples, read from and written back as factors."""

    def __init__(self, algebra):
        self.names = sorted(algebra.generator_names(), key=lambda name: _generator_key(algebra, name))
        self.degrees = [algebra.degree_of(name) for name in self.names]
        self.odd = [d % 2 == 1 for d in self.degrees]

    def tuples(self, x):
        """``{exponent tuple: coefficient}`` of an element."""
        out = {}
        for m, c in x.terms.items():
            exps = dict(m.factors)
            out[tuple(exps.get(name, 0) for name in self.names)] = c
        return out

    def named(self, terms):
        """``{factors: coefficient}`` of an exponent-tuple dict."""
        return {
            tuple((name, e) for name, e in zip(self.names, exps) if e): c for exps, c in terms.items() if c
        }

    def _inversions(self, left, right):
        """Pairs of an odd factor of ``left`` after an odd factor of ``right``."""
        return sum(
            1
            for i, a in enumerate(left)
            for j, b in enumerate(right)
            if i > j and a and b and self.odd[i] and self.odd[j]
        )

    def _degree(self, exps):
        return sum(d * e for d, e in zip(self.degrees, exps))

    def _times(self, left, right):
        """``(sign, tuple)`` of the product of two monomials; sign 0 when an
        odd generator would repeat."""
        exps = tuple(a + b for a, b in zip(left, right))
        if any(odd and e > 1 for odd, e in zip(self.odd, exps)):
            return 0, exps
        return (-1) ** (self._inversions(left, right) % 2), exps

    def mul(self, a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                sign, exps = self._times(e1, e2)
                if sign:
                    out[exps] = out.get(exps, 0) + sign * c1 * c2
        return {e: c for e, c in out.items() if c}

    def power(self, a, k):
        """``a**k`` by ``k`` products with the unit."""
        out = {(0,) * len(self.names): 1}
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def derive(self, images, parity, a):
        """The derivation of the given parity with generator images
        ``images`` (name -> exponent-tuple dict) on ``a``: it hits each copy
        of each factor in turn, with the sign (-1)**(parity * degree of the
        copies before it), and puts the image between the copies before
        and after it."""
        out = {}
        for exps, c in a.items():
            for i, name in enumerate(self.names):
                for copy in range(exps[i]):
                    before = exps[:i] + (copy,) + (0,) * (len(exps) - i - 1)
                    after = (0,) * i + (exps[i] - copy - 1,) + exps[i + 1 :]
                    for image, c2 in images.get(name, {}).items():
                        sign, head = self._times(before, image)
                        if not sign:
                            continue
                        sign2, whole = self._times(head, after)
                        if sign2:
                            shift = (-1) ** (parity * self._degree(before) % 2)
                            out[whole] = out.get(whole, 0) + shift * sign * sign2 * c * c2
        return {e: c for e, c in out.items() if c}
