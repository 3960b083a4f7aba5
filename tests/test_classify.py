"""Morphism enumeration, structured solving, homotopy classification."""

import re
from fractions import Fraction

import pytest

from dgalgebra import classify
from dgalgebra import (
    AlgebraPresentation,
    Morphism,
    PreconditionViolated,
    classify_homotopy_set,
    constraint_system,
    generic_ansatz,
    self_equivalence_group,
    solve_structured,
)
from dgalgebra.symbolic import Poly, SymbolicElement
from conftest import load


def row_lattice_hnf(rows):
    """Canonical Hermite normal form of an integer row lattice; two row sets
    span the same lattice exactly when their forms agree."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    n_cols = len(mat[0])
    r = 0
    for c in range(n_cols):
        while True:
            pivots = [i for i in range(r, len(mat)) if mat[i][c]]
            if not pivots:
                break
            i0 = min(pivots, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            clean = True
            for i in range(r + 1, len(mat)):
                if mat[i][c]:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    if mat[i][c]:
                        clean = False
            if clean:
                break
        if r < len(mat) and mat[r][c]:
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
            r += 1
            if r == len(mat):
                break
    return [row for row in mat[:r]]


def test_ansatz_counts(ex51, ex52):
    assert len(generic_ansatz(ex51, ex51).unknowns) == 6
    assert len(generic_ansatz(ex52, ex52).unknowns) == 12


def test_ansatz_empty_degree():
    source = AlgebraPresentation.build([("v", 3)], label="odd")
    target = AlgebraPresentation.build([("x", 2)], label="even")
    ansatz = generic_ansatz(source, target)
    assert ansatz.unknowns == []
    assert not ansatz.images["v"].terms


def test_constraint_equations_published_shape(ex51):
    ansatz = generic_ansatz(ex51, ex51)
    system = constraint_system(ansatz)
    a1 = ansatz.unknown_for("x1", ex51.monomial_basis(18)[0])
    a2 = ansatz.unknown_for("x2", ex51.monomial_basis(22)[0])
    b1 = ansatz.unknown_for("y1", ex51.monomial_basis(75)[0])
    b2 = ansatz.unknown_for("y2", ex51.monomial_basis(79)[0])
    b3 = ansatz.unknown_for("y3", ex51.monomial_basis(83)[0])
    c = ansatz.unknown_for("z", ex51.monomial_basis(197)[0])
    polys = {eq.poly.canonical() for eq in system.equations}

    def eq(*terms):
        p = Poly()
        for coeff, pows in terms:
            p = p + Poly({tuple(sorted(pows)): Fraction(coeff)})
        # normalized with positive leading coefficient, as the builder does
        from dgalgebra.classify import _normalize_poly

        return _normalize_poly(p).canonical()

    # defining equations from the odd generators
    assert eq((1, ((b1, 1),)), (-1, ((a1, 3), (a2, 1)))) in polys
    assert eq((1, ((b2, 1),)), (-1, ((a1, 2), (a2, 2)))) in polys
    assert eq((1, ((b3, 1),)), (-1, ((a1, 1), (a2, 3)))) in polys
    # top-generator equations
    assert eq((1, ((c, 1),)), (-1, ((a1, 11),))) in polys
    assert eq((1, ((c, 1),)), (-1, ((a2, 9),))) in polys
    assert eq((1, ((c, 1),)), (-1, ((b1, 1), (b2, 1), (a2, 2)))) in polys
    assert len(system.equations) == 8


def test_constraint_reduction_to_exponent_rows(ex51, ex52):
    # after eliminating the defined unknowns, the nonzero branch reduces to
    # an exponent lattice; compare the lattices with the published reductions
    def reduced_lattice(algebra, a1_name, a2_name):
        ansatz = generic_ansatz(algebra, algebra)
        system = constraint_system(ansatz)
        # substitute the defining equations by hand: the solver does this
        # internally; here we reduce the two pure-power equations directly
        from dgalgebra.classify import _normalize_poly

        rows = []
        for eq in system.equations:
            poly = eq.poly
            vars_ = poly.variables()
            if vars_ <= {a1_name, a2_name} and len(poly.terms) == 2:
                (pp1, c1), (pp2, c2) = sorted(poly.terms.items())
                def exp_of(pp, v):
                    return next((e for n, e in pp if n == v), 0)
                rows.append(
                    [
                        exp_of(pp1, a1_name) - exp_of(pp2, a1_name),
                        exp_of(pp1, a2_name) - exp_of(pp2, a2_name),
                    ]
                )
        return rows

    families = solve_structured(constraint_system(generic_ansatz(ex51, ex51)))
    assert len(families) == 2  # solving works before we inspect lattices

    # ex51: eliminating b's and c leaves the lattice of (6,-5) and (5,-4)
    ansatz = generic_ansatz(ex51, ex51)
    system = constraint_system(ansatz)
    from dgalgebra.classify import _normalize_poly

    # reproduce the solver's elimination to observe the reduced equations
    # (the published reduction): substitute b's and c and collect rows
    a1 = ansatz.unknown_for("x1", ex51.monomial_basis(18)[0])
    a2 = ansatz.unknown_for("x2", ex51.monomial_basis(22)[0])
    subs = {}
    for eq in system.equations:
        terms = sorted(eq.poly.terms.items())
        if len(terms) == 2:
            (ppa, ca), (ppb, cb) = terms
            for (pp_u, c_u), (pp_m, c_m) in ((terms[0], terms[1]), (terms[1], terms[0])):
                if len(pp_u) == 1 and pp_u[0][1] == 1 and pp_u[0][0] not in (a1, a2):
                    u = pp_u[0][0]
                    if u not in subs and all(n in (a1, a2) or n in subs for n, _ in pp_m):
                        rep = Poly({pp_m: Fraction(-c_m, c_u)})
                        subs[u] = rep.substitute(subs)
                        break
    rows = []
    for eq in system.equations:
        q = _normalize_poly(eq.poly.substitute(subs))
        if q.is_zero():
            continue
        terms = sorted(q.terms.items())
        assert len(terms) == 2
        (pp1, c1), (pp2, c2) = terms
        def exp_of(pp, v):
            return next((e for n, e in pp if n == v), 0)
        row = [exp_of(pp1, a1) - exp_of(pp2, a1), exp_of(pp1, a2) - exp_of(pp2, a2)]
        rows.append(row)
    assert row_lattice_hnf(rows) == row_lattice_hnf([[6, -5], [5, -4]])


def test_ex52_linear_constraints(ex52):
    ansatz = generic_ansatz(ex52, ex52)
    system = constraint_system(ansatz)
    linear = [eq.poly for eq in system.equations if eq.poly.max_term_degree() == 1]
    basis = ex52.monomial_basis(119)
    lam = [ansatz.unknown_for("z", m) for m in basis if str(m).endswith("7*y1") or "x2^6*y2" in str(m) or "x2^5*y3" in str(m)]
    nu = [ansatz.unknown_for("z", m) for m in basis if "x1^7" in str(m) or "x1^8" in str(m) or "x1^9" in str(m)]
    linear_vars = [sorted(p.variables()) for p in linear]
    assert sorted(lam) in linear_vars
    assert sorted(nu) in linear_vars
    for p in linear:
        const, coeffs = p.linear_parts()
        assert const == 0
        assert sorted(coeffs.values()) == [1, 1, 1]


def test_ex51_two_singleton_families(ex51):
    families = solve_structured(constraint_system(generic_ansatz(ex51, ex51)))
    assert len(families) == 2
    zero, one = families
    assert not zero.free and not one.free
    assert set(zero.fixed.values()) == {Fraction(0)}
    assert set(one.fixed.values()) == {Fraction(1)}
    assert one.representative() == Morphism.identity(ex51)


def test_ex52_two_families_with_four_parameters(ex52):
    families = solve_structured(constraint_system(generic_ansatz(ex52, ex52)))
    assert len(families) == 2
    for family in families:
        assert len(family.free) == 4
        assert len(family.dependent) == 2
    reps = [f.representative() for f in families]
    assert Morphism.zero_map(ex52, ex52) in reps
    assert Morphism.identity(ex52) in reps


def test_ex53_three_families(ex53):
    families = solve_structured(constraint_system(generic_ansatz(ex53, ex53)))
    assert len(families) == 3
    reps = [f.representative() for f in families]
    assert Morphism.zero_map(ex53, ex53) in reps
    assert Morphism.identity(ex53) in reps
    g = ex53.namespace()
    involution = Morphism(
        ex53,
        ex53,
        {"x1": g.x1, "x2": -g.x2, "y1": -g.y1, "y2": g.y2, "y3": -g.y3, "z": g.z},
    )
    assert involution in reps
    for family in families:
        assert len(family.free) == 2


def test_family_members_verify(ex52):
    families = solve_structured(constraint_system(generic_ansatz(ex52, ex52)))
    family = families[1]
    member = family.member({p: Fraction(i + 1, 2) for i, p in enumerate(family.free)})
    assert member.verified


def test_classification_counts(ex51, ex52, ex53):
    for algebra, expected in ((ex51, 2), (ex52, 2), (ex53, 3)):
        result = classify_homotopy_set(algebra, algebra)
        assert result.kind == "finite"
        assert result.class_count == expected


def test_classification_representatives(ex53):
    result = classify_homotopy_set(ex53, ex53)
    reps = [c.representative for c in result.classes]
    assert Morphism.zero_map(ex53, ex53) in reps
    assert Morphism.identity(ex53) in reps
    g = ex53.namespace()
    involution = Morphism(
        ex53,
        ex53,
        {"x1": g.x1, "x2": -g.x2, "y1": -g.y1, "y2": g.y2, "y3": -g.y3, "z": g.z},
    )
    assert involution in reps


@pytest.mark.parametrize(
    "verdict, family_indices, unresolved, kind, class_count, exit_code",
    [
        ("yes", [[0, 1]], [], "finite", 1, 0),
        ("undetermined", [[0], [1]], [(1, 0)], "incomplete", None, 5),
    ],
)
def test_placement_merges_on_yes_and_records_an_undetermined_pair(
    ex52, monkeypatch, verdict, family_indices, unresolved, kind, class_count, exit_code
):
    # ex52 has two families, so the one comparison is the second family's
    # representative against the first class's
    from dgalgebra.cli import main as cli_main
    from dgalgebra.obstruction import HomotopyDecision

    calls = []

    def decide(f, g):
        calls.append((f, g))
        return HomotopyDecision(verdict)

    monkeypatch.setattr(classify, "decide_homotopic", decide)
    result = classify_homotopy_set(ex52, ex52)
    reps = [family.representative() for family in result.families]
    assert calls == [(reps[1], reps[0])]
    assert [c.family_indices for c in result.classes] == family_indices
    assert result.unresolved_pairs == unresolved
    assert (result.kind, result.class_count) == (kind, class_count)
    assert cli_main(["classify", "ex52.dga", "ex52.dga"]) == exit_code


def test_classification_infinite_for_free_target(free_even):
    target = AlgebraPresentation.build([("x", 2)], label="free2")
    result = classify_homotopy_set(free_even, target)
    assert result.kind == "infinite"
    assert result.certificate is not None


def test_family_collapse_lets_unexpected_errors_through(two_stage, monkeypatch):
    """Only an invalid split means "could not decide"; a bug is not an answer."""

    def broken(*args, **kwargs):
        raise RuntimeError("bug in make_decomposition")

    monkeypatch.setattr(classify, "make_decomposition", broken)
    free = AlgebraPresentation.build([("w", 2)], label="free")
    with pytest.raises(RuntimeError, match="bug in make_decomposition"):
        classify_homotopy_set(free, two_stage)


def test_classification_invariant_under_generator_renaming(ex53):
    from dgalgebra.parser import parse_presentation, print_presentation

    # same presentation, different generator names (and hence a different
    # canonical order); class count must not change
    text = print_presentation(ex53)
    renamed = (
        text.replace("x1", "p1")
        .replace("x2", "q2")
        .replace("y1", "a1")
        .replace("y2", "b2")
        .replace("y3", "c3")
        .replace("z", "top")
    )
    other = parse_presentation(renamed).presentation
    assert other is not None
    result = classify_homotopy_set(other, other)
    assert result.kind == "finite" and result.class_count == 3


def test_self_equivalence_groups(ex51, ex52, ex53):
    for algebra, label in ((ex51, "trivial"), (ex52, "trivial"), (ex53, "Z2")):
        group = self_equivalence_group(algebra)
        assert group.label == label
        n = group.order
        identity = group.identity_index
        for i in range(n):
            assert group.table[(i, identity)] == i
            assert group.table[(identity, i)] == i
            assert any(group.table[(i, j)] == identity for j in range(n))
        # associativity on the (tiny) table
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert (
                        group.table[(group.table[(i, j)], k)]
                        == group.table[(i, group.table[(j, k)])]
                    )


def test_selfmaps_substitution_count_stays_under_its_ceiling(monkeypatch):
    # a deterministic count, no time: each record is substituted only into
    # the equations that contain it, and numeric values skip the polynomials
    # they do not touch
    calls = []
    for cls in (Poly, SymbolicElement):
        substitute = cls.substitute
        monkeypatch.setattr(
            cls, "substitute", lambda p, values, substitute=substitute: calls.append(p) or substitute(p, values)
        )
    for name in ("ex51.dga", "ex52.dga", "ex53.dga"):
        self_equivalence_group(load(name))
    assert len(calls) <= 217


def test_zero_ansatz_yields_empty_system():
    # a source generator with no degree-matched target monomials maps to 0
    # and contributes no unknowns and no equations
    source = AlgebraPresentation.build([("v", 3)], label="odd")
    target = AlgebraPresentation.build([("x", 2)], label="even")
    system = constraint_system(generic_ansatz(source, target))
    assert system.equations == []
    families = solve_structured(system)
    assert len(families) == 1
    assert families[0].representative() == Morphism.zero_map(source, target)


def test_unsupported_shape_reported():
    import pytest

    from dgalgebra import UnsupportedShape

    # self-maps of the two-stage algebra scale v by the square of u's factor:
    # a rational curve, not an affine family
    A = AlgebraPresentation.build([("u", 2), ("v", 3)], lambda g: {"v": g.u**2})
    with pytest.raises(UnsupportedShape):
        solve_structured(constraint_system(generic_ansatz(A, A)))


def test_family_z_image_matches_coboundary_form(ex52):
    # within each family the top-generator image is c*z plus an explicit
    # coboundary, identically in the four free parameters
    g = ex52.namespace()
    families = solve_structured(constraint_system(generic_ansatz(ex52, ex52)))
    basis = ex52.monomial_basis(119)
    order = [str(m) for m in basis]
    lam2 = f"z.{order.index('x1^3*x2^6*y2')}"
    lam3 = f"z.{order.index('x1^4*x2^5*y3')}"
    nu2 = f"z.{order.index('x1^8*x2^2*y2')}"
    nu3 = f"z.{order.index('x1^9*x2*y3')}"
    for family, c in zip(families, (0, 1)):
        for params in (
            {},
            {lam2: Fraction(1)},
            {lam2: Fraction(2), lam3: Fraction(-1), nu2: Fraction(5, 3), nu3: Fraction(7)},
        ):
            member = family.member(params)
            p = lambda name: Fraction(params.get(name, 0))
            correction = (
                p(lam2) * g.x2**5 * g.y1 * g.y2
                + p(lam3) * g.x1 * g.x2**4 * g.y1 * g.y3
                + p(nu2) * g.x1**5 * g.x2 * g.y1 * g.y2
                + p(nu3) * g.x1**6 * g.y1 * g.y3
            )
            assert member.images["z"] == c * g.z + ex52.d(correction)


def test_family_violating_an_equation_off_the_old_sample_points_is_rejected():
    # p(p - 1)(p + 3/2) vanishes at p = 0, 1 and -3/2 but not identically
    source = AlgebraPresentation.build([("a", 2)], label="free")
    target = AlgebraPresentation.build([("x", 2)], label="free2")
    system = constraint_system(generic_ansatz(source, target))
    assert system.equations == []
    p = Poly.variable("a.0")
    extra = p * (p - Poly.constant(1)) * (p + Poly.constant(Fraction(3, 2)))
    system.equations.append(classify.Equation(extra, []))
    family = classify.SolutionFamily(system.unknown_morphism, {}, ["a.0"], {})
    assert family.representative().verified
    with pytest.raises(PreconditionViolated, match="family violates"):
        classify._verify_family(system, family)


def test_member_and_assignment_reject_an_unknown_parameter(ex52):
    families = solve_structured(constraint_system(generic_ansatz(ex52, ex52)))
    family = families[1]
    typo = family.free[0] + "x"
    not_free = next(iter(family.dependent))
    for call in (family.member, family.assignment):
        for name in (typo, not_free):
            with pytest.raises(PreconditionViolated, match=re.escape(name)):
                call({name: Fraction(1)})
    assert family.member({family.free[0]: Fraction(0)}) == family.representative()


def test_member_and_assignment_reject_a_float_parameter(ex52):
    family = solve_structured(constraint_system(generic_ansatz(ex52, ex52)))[1]
    for call in (family.member, family.assignment):
        with pytest.raises(TypeError):
            call({family.free[0]: 0.1})


def test_equivalence_classes_skip_the_top_degree_scan():
    # an invertible linear part certifies each equivalence, so H^n is never
    # computed up to the top generator degree; fresh copies, because the
    # session fixtures share their cohomology caches with other tests
    for name, label in (("ex51.dga", "trivial"), ("ex52.dga", "trivial"), ("ex53.dga", "Z2")):
        algebra = load(name)
        assert self_equivalence_group(algebra).label == label
        assert max(algebra._cohomology_cache) < algebra.max_generator_degree()


def test_representative_is_built_and_chain_checked_once(ex51, monkeypatch):
    computed = []
    original = Morphism.chain_report

    def counting(self):
        if self._chain_report is None:
            computed.append(self)
        return original(self)

    monkeypatch.setattr(Morphism, "chain_report", counting)
    families = solve_structured(constraint_system(generic_ansatz(ex51, ex51)))
    for family in families:
        assert family.representative() is family.representative()
        assert family.representative().verified and family.representative().verified
        assert "_representative" not in repr(family)
    assert len(computed) == len(families)
