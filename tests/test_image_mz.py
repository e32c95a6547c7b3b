import itertools
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (
    diag_derivation,
    diag_x_derivation,
    multipolys,
    nonzero_rationals,
    rationals,
    scaled_to_ints,
    uni,
)
import dercert.image
from dercert import (
    CertifiedNonMember,
    CheckFailed,
    Derivation,
    FamilyDiagX,
    FirstOrderSolution,
    Member,
    MultiPoly,
    NotFoundUpTo,
    PlaneFamily,
    UnsupportedFamily,
    certified_nonmembership,
    decide_mz,
    decide_simple_family_a,
    image_membership,
    locally_finite_closed_form,
    parse_derivation,
    parse_poly,
    poly_to_str,
)
from dercert.image import DEFAULT_M_MIN
from dercert.linalg import solve_sparse

F = Fraction


def grlex_key(exps: tuple[int, ...]) -> tuple:
    # total degree first, ties broken from the highest-ranked variable down
    return (sum(exps), tuple(reversed(exps)))


def mk_b(a1, a0):
    return PlaneFamily(1, 1, a2=uni([]), a1=a1, a0=uni([a0]))


class TestMembership:
    def test_one_has_explicit_preimage(self):
        D = mk_b(uni([0, 1]), 1).to_derivation()
        result = image_membership(D, MultiPoly.constant(D.variables, 1), 3)
        assert isinstance(result, Member)
        assert result.preimage == parse_poly("y - 1/2*x^2", D.variables)

    def test_x_not_reachable_within_bound(self):
        D = mk_b(uni([0, 1]), 1).to_derivation()
        result = image_membership(D, MultiPoly.var(D.variables, "x"), 10)
        assert isinstance(result, NotFoundUpTo)
        assert result.bound == 10

    def test_zero_constant_term_family(self):
        D = mk_b(uni([0, 1]), 0).to_derivation()
        target = parse_poly("x*y", D.variables)
        result = image_membership(D, target, 2)
        assert isinstance(result, Member)
        assert result.preimage == parse_poly("1/2*x^2", D.variables)

    def test_diag_power_preimage(self):
        D = parse_derivation("deriv{y1: y1^2, y2: y2}")
        target = MultiPoly.var(D.variables, "y2", 5)
        result = image_membership(D, target, 5)
        assert isinstance(result, Member)
        assert result.preimage == MultiPoly.var(D.variables, "y2", 5).scale(F(1, 5))

    def test_member_soundness(self):
        D = mk_b(uni([0, 0, 3]), 1).to_derivation()
        target = MultiPoly.constant(D.variables, 1)
        result = image_membership(D, target, 4)
        assert isinstance(result, Member)
        assert D.apply(result.preimage) == target

    def test_monotone_in_bound(self):
        D = mk_b(uni([0, 1]), 1).to_derivation()
        target = MultiPoly.constant(D.variables, 1)
        first = image_membership(D, target, 3)
        assert isinstance(first, Member)
        for bound in (4, 6):
            again = image_membership(D, target, bound)
            assert isinstance(again, Member)
            assert again.kernel_dim >= first.kernel_dim

    @settings(max_examples=100, deadline=None)
    @given(multipolys(max_degree=3, max_terms=4))
    def test_planted_preimage_always_member(self, f):
        # anything of the form D(f) must be reachable at bound deg f
        D = mk_b(uni([0, 1]), 1).to_derivation()
        target = D.apply(f)
        bound = int(f.total_degree()) if not f.is_zero() else 0
        result = image_membership(D, target, bound)
        assert isinstance(result, Member)
        assert D.apply(result.preimage) == target

    def test_negative_bound_rejected(self):
        D = mk_b(uni([0, 1]), 1).to_derivation()
        with pytest.raises(ValueError):
            image_membership(D, MultiPoly.constant(D.variables, 1), -1)

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_basis_is_sorted_graded_lex(self, nvars):
        variables = tuple(f"v{i}" for i in range(nvars))
        for bound in range(13):
            every = [
                e
                for e in itertools.product(range(bound + 1), repeat=nvars)
                if sum(e) <= bound
            ]
            expected = sorted(every, key=grlex_key, reverse=True)
            width = bound.bit_length()
            basis, keys = dercert.image._basis(len(variables), bound, width)
            assert list(basis) == expected
            # decreasing packed keys are decreasing graded-lex
            assert list(keys) == [dercert.image._pack(e, width) for e in expected]
            assert list(keys) == sorted(set(keys), reverse=True)


# Canonical preimages and kernel dimensions pinned before the integer
# elimination replaced the Fraction one: (derivation, target, bound,
# printed preimage or None for NotFoundUpTo, kernel_dim).
PLANE_RATIONAL = parse_derivation("deriv{x: y, y: (1/2)*x*y + 1/3}")
DIAG_X = parse_derivation("deriv{x: 1, y1: (1/2 + x)*y1^2, y2: -3/4*x^2*y2}")
DIAG_X_FREE = parse_derivation("deriv{x: 1, y1: (1/2 + x)*y1^2, y2: 0}")
DIAG_3 = parse_derivation("deriv{y1: y1, y2: -y2, y3: 1/3*y3^2}")
DIAG_3_CONST = parse_derivation("deriv{y1: 2*y1^2, y2: -1/3*y2, y3: 5/2}")
GOLDEN = [
    (PLANE_RATIONAL, "1", 6, "-3/4*x^2 + 3*y", 1),
    (PLANE_RATIONAL, "x", 8, None, None),
    (
        PLANE_RATIONAL,
        "x^2*y^2 + y^3 + 5*x^2*y + 11/21*x*y - 2/21",
        9,
        "x*y^2 + 5/3*x^3 - 2/7*y",
        1,
    ),
    (
        PLANE_RATIONAL,
        "1/2*x^4*y - 3/4*x*y^3 + 3*x^2*y^2 + 1/3*x^3 - 1/2*y^2",
        10,
        "x^3*y - 1/2*y^3",
        1,
    ),
    (DIAG_X, "y1", 8, None, None),
    (
        DIAG_X,
        "x^4*y2^2 + x*y1^2*y2 - 3/4*x^2*y1*y2 - 4/3*x*y2^2 + 1/2*y1^2*y2",
        7,
        "-2/3*x^2*y2^2 + y1*y2",
        1,
    ),
    (
        DIAG_X_FREE,
        "2*x^2*y1^3*y2 + x*y1^3*y2 + 2/5*x*y2^2 + y1^2*y2",
        6,
        "1/5*x^2*y2^2 + x*y1^2*y2",
        7,
    ),
    (DIAG_X_FREE, "y2^3", 5, "x*y2^3", 6),
    (DIAG_3, "1/6*y3^3 - y1*y2^2", 6, "y1*y2^2 + 1/4*y3^2", 4),
    (DIAG_3, "y1*y2", 6, None, None),
    (
        DIAG_3,
        "-1*y2^2*y3^2 + 1/3*y1*y3^2 + 6*y2^2*y3 + y1*y3",
        5,
        "-3*y2^2*y3 + y1*y3",
        3,
    ),
    (DIAG_3_CONST, "y1", 7, None, None),
    (
        DIAG_3_CONST,
        "-1*y2^3*y3 - 7*y1^2*y3 + 5/2*y2^3 - 35/4*y1",
        6,
        "y2^3*y3 - 7/2*y1*y3",
        1,
    ),
]


class TestCanonicalPreimage:
    # each case's derivation is named "family", as the test ids spell it
    @pytest.mark.parametrize("family, target, bound, preimage, kernel_dim", GOLDEN)
    def test_golden(self, family, target, bound, preimage, kernel_dim):
        D = family
        result = image_membership(D, parse_poly(target, D.variables), bound)
        if preimage is None:
            assert result == NotFoundUpTo(bound=bound)
        else:
            assert isinstance(result, Member)
            assert poly_to_str(result.preimage) == preimage
            assert result.kernel_dim == kernel_dim


    def test_wrong_solver_answer_is_caught(self, monkeypatch):
        real = dercert.image.solve_sparse

        def off_by_one(rows, rhs, ncols):
            solution = real(rows, rhs, ncols)
            solution.particular[0] += 1
            return solution

        monkeypatch.setattr(dercert.image, "solve_sparse", off_by_one)
        D = PLANE_RATIONAL
        with pytest.raises(CheckFailed):
            image_membership(D, MultiPoly.constant(D.variables, 1), 6)
        assert not issubclass(CheckFailed, ValueError)


IMAGE_NAMES = ("x", "y", "z", "w")
non_integral = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(
    lambda q: q.denominator > 1
)


def polys_in(variables, max_degree, max_terms, coefficients=non_integral):
    # a monomial is a multiset of at most max_degree variable indices
    n = len(variables)
    monomials = st.lists(st.integers(0, n - 1), max_size=max_degree).map(
        lambda idx: tuple(idx.count(i) for i in range(n))
    )
    return st.lists(st.tuples(monomials, coefficients), max_size=max_terms).map(
        lambda terms: MultiPoly(variables, terms)
    )


@st.composite
def packed_cases(draw):
    """(D, target, bound): members, other targets, and targets past every column."""
    variables = IMAGE_NAMES[: draw(st.integers(1, 4))]
    D = Derivation(variables, tuple(draw(polys_in(variables, 3, 3)) for _ in variables))
    deg_d = max((sum(m) for image in D.images for m in image.numerators), default=0)
    bound = draw(st.integers(0, {1: 9, 2: 6, 3: 4, 4: 3}[len(variables)]))
    member = D.apply(draw(polys_in(variables, bound, 4)))
    kind = draw(st.sampled_from(["member", "other", "beyond", "top-field"]))
    if kind == "member":
        return D, member, bound
    if kind == "other":
        return D, draw(polys_in(variables, bound + deg_d, 4, rationals)), bound
    v = draw(st.sampled_from(variables))
    if kind == "beyond":  # an exponent past bound + deg D, which no column reaches
        return D, member + MultiPoly.var(variables, v, bound + deg_d + draw(st.integers(1, 3))), bound
    # an exponent of 2^k - 1, k the field width: the largest value a field holds
    k = max(bound, bound + deg_d - 1, 1).bit_length()
    return D, member + MultiPoly.var(variables, v, 2**k - 1), bound


def reference_membership(D, target, bound):
    """(preimage, kernel_dim) or None, from the columns D(x^e) that D.apply builds."""
    basis = sorted(
        (e for e in itertools.product(range(bound + 1), repeat=len(D.variables)) if sum(e) <= bound),
        key=grlex_key,
        reverse=True,
    )
    columns = [D.apply(MultiPoly(D.variables, [(e, 1)])).terms for e in basis]
    monomials = {m for column in columns for m in column} | set(target.terms)
    dense = [[col.get(m, 0) for col in columns] for m in monomials]
    dense, rhs = scaled_to_ints(dense, [target.terms.get(m, 0) for m in monomials])
    rows = [{j: v for j, v in enumerate(row) if v} for row in dense]
    solution = solve_sparse(rows, rhs, len(basis))
    if solution is None:
        return None
    preimage = MultiPoly(D.variables, [(e, c) for e, c in zip(basis, solution.particular) if c])
    return preimage, len(basis) - solution.rank


class TestPackedAssembly:
    @settings(max_examples=120, deadline=None)
    @given(packed_cases())
    def test_matches_columns_built_by_apply(self, case):
        D, target, bound = case
        with mock.patch.object(dercert.image, "_basis", wraps=dercert.image._basis) as basis:
            result = image_membership(D, target, bound)
        # every field holds the largest total degree of a monomial the
        # assembly forms: x^(e - 1_v) times a term of D(v), a basis
        # monomial or a target monomial; a quadratic plane family with
        # a2 != 0 is decided by the y-degree descent and assembles nothing
        if basis.call_args is not None:
            ((_, _, width), _) = basis.call_args
            formed = [bound + sum(m) - 1 for image in D.images for m in image.numerators]
            assert 2**width > max([bound, *formed, *map(sum, target.numerators)])
        expected = reference_membership(D, target, bound)
        if expected is None:
            assert result == NotFoundUpTo(bound=bound)
        else:
            assert isinstance(result, Member)
            assert (result.preimage, result.kernel_dim) == expected

    @pytest.mark.parametrize(
        "derivation, target, bound, preimage, kernel_dim",
        [
            # y1 and y2 shift by zero; e1 - e2 cancels on the kernel y1^a*y2^a
            ("deriv{y1: y1, y2: -y2}", "y1", 4, "y1", 3),
            ("deriv{y1: y1, y2: -y2}", "y1*y2", 4, None, None),
            # a shift shared by both variables whose sum e1 + e2 never cancels
            ("deriv{x: x, y: y}", "x*y", 3, "1/2*x*y", 1),
            # the shared zero shift beside the single shift of y^2 in D(x)
            ("deriv{x: x + y^2, y: y}", "x*y", 3, "1/2*x*y - 1/6*y^3", 1),
            ("deriv{x: x + y^2, y: y}", "2*x^2 + 2*x*y^2", 3, "x^2", 1),
            ("deriv{x: x + y^2, y: y}", "3*x^2 + y^2", 3, None, None),
        ],
    )
    def test_shared_shifts(self, derivation, target, bound, preimage, kernel_dim):
        D = parse_derivation(derivation)
        target = parse_poly(target, D.variables)
        result = image_membership(D, target, bound)
        if preimage is None:
            assert result == NotFoundUpTo(bound=bound)
            assert reference_membership(D, target, bound) is None
        else:
            preimage = parse_poly(preimage, D.variables)
            assert result == Member(preimage=preimage, kernel_dim=kernel_dim, bound=bound)
            assert reference_membership(D, target, bound) == (preimage, kernel_dim)

    def test_full_fields(self):
        # bound 7 and deg D 0 give 3-bit fields; x^7 fills its exponent and degree fields
        D = parse_derivation("deriv{x: 1/2, y: 0}")
        target = parse_poly("7/2*x^6", D.variables)
        result = image_membership(D, target, 7)
        assert result == Member(preimage=parse_poly("x^7", D.variables), kernel_dim=8, bound=7)
        assert (result.preimage, result.kernel_dim) == reference_membership(D, target, 7)
        assert image_membership(D, parse_poly("x^7", D.variables), 7) == NotFoundUpTo(bound=7)


@st.composite
def quadratic_plane_cases(draw):
    """(D, target, bound) for y*dx + (a2*y^2 + a1*y + a0)*dy with a2 != 0."""
    a2 = draw(st.lists(rationals, min_size=1, max_size=3).map(uni).filter(lambda p: not p.is_zero()))
    a1 = draw(st.lists(rationals, max_size=2).map(uni))
    a0 = draw(st.lists(rationals, max_size=2).map(uni))
    plane = PlaneFamily(1, 1, a2=a2, a1=a1, a0=a0).to_derivation()
    # the second variable may be named y1: it is the same family
    variables = ("x", draw(st.sampled_from(["y", "y1"])))
    D = Derivation(variables, tuple(MultiPoly(variables, image.terms) for image in plane.images))
    g = draw(multipolys(variables, max_degree=3, max_terms=4))
    bound = draw(st.integers(0, max(g.total_degree(), 0) + 2))
    target = D.apply(g)
    if draw(st.booleans()):
        target = target + draw(multipolys(variables, max_degree=4, max_terms=2))
    return D, target, bound


def refuse_sparse(rows, rhs, ncols):
    raise RuntimeError("solve_sparse reached")


class TestDescent:
    @settings(max_examples=150, deadline=None)
    @given(quadratic_plane_cases())
    def test_matches_the_reference_solve(self, case):
        D, target, bound = case
        result = image_membership(D, target, bound)
        expected = reference_membership(D, target, bound)
        if expected is None:
            assert result == NotFoundUpTo(bound=bound)
        else:
            assert isinstance(result, Member)
            assert (result.preimage, result.kernel_dim) == expected
            assert result.kernel_dim == 1

    def test_never_assembles_a_system(self, monkeypatch):
        monkeypatch.setattr(dercert.image, "solve_sparse", refuse_sparse)
        D = parse_derivation("deriv{x: y, y: (x + 1)*y^2 + x}")
        g = parse_poly("x*y - 1/3*x^2 + 1/2*y^2", D.variables)
        assert image_membership(D, D.apply(g), 5) == Member(preimage=g, kernel_dim=1, bound=5)
        assert image_membership(D, D.apply(g), 1) == NotFoundUpTo(bound=1)
        assert image_membership(D, parse_poly("y^2", D.variables), 6) == NotFoundUpTo(bound=6)

    @pytest.mark.parametrize(
        "derivation",
        [
            "deriv{x: y, y: x*y + 1}",  # plane-linear
            "deriv{x: y, y: x*y + x}",  # a2 = 0 with a nonconstant a0
            "deriv{x: y^2, y: x*y^3 + y^2 + 1}",  # alpha = beta = 2
            "deriv{y1: y1, y2: -y2}",
        ],
    )
    def test_other_families_solve_the_system(self, monkeypatch, derivation):
        monkeypatch.setattr(dercert.image, "solve_sparse", refuse_sparse)
        D = parse_derivation(derivation)
        with pytest.raises(RuntimeError, match="solve_sparse reached"):
            image_membership(D, MultiPoly.constant(D.variables, 1), 3)

    def test_wrong_first_order_answer_is_caught(self, monkeypatch):
        real = dercert.image.solve_first_order

        def off_by_one(a, g, k=1):
            solution = real(a, g, k)
            return FirstOrderSolution(solution.c + MultiPoly.constant(solution.c.variables, 1), [])

        monkeypatch.setattr(dercert.image, "solve_first_order", off_by_one)
        # a0 = 0 leaves the y^0 equation nothing to refute
        D = parse_derivation("deriv{x: y, y: 3*y^2 + x*y}")
        target = D.apply(parse_poly("x^2*y + 2/3*y^2 - x", D.variables))
        with pytest.raises(CheckFailed):
            image_membership(D, target, 4)


@st.composite
def kept_cases(draw):
    """(D, target, bound) on derivations that keep the degree of some y_i.

    FamilyDiag with k_i in 0..3, FamilyDiagX with zero and nonconstant
    gamma_i, and D(y_i) = y_i * h_i(the other variables), which keeps y_i
    when no other image holds it.
    """
    kind = draw(st.sampled_from(["diag", "diag-x", "product"]))
    n = draw(st.integers(2, 3) if kind != "diag-x" else st.integers(1, 2))
    ks = draw(st.lists(st.integers(0 if kind == "diag" else 1, 3), min_size=n, max_size=n))
    if kind == "diag":
        gammas = draw(st.lists(rationals.filter(bool), min_size=n, max_size=n))
        D = diag_derivation(gammas, ks)
    elif kind == "diag-x":
        gammas = draw(st.lists(st.lists(rationals, max_size=3).map(uni), min_size=n, max_size=n))
        D = diag_x_derivation(gammas, ks)
    else:
        variables = tuple(f"y{i + 1}" for i in range(n))
        images = []
        for v in variables:
            others = tuple(w for w in variables if w != v)
            h = draw(polys_in(others, 2, 2, rationals)).with_variables(variables)
            images.append(MultiPoly.var(variables, v) * h)
        D = Derivation(variables, tuple(images))
    bound = draw(st.integers(0, 6 if len(D.variables) == 2 else 4))
    # several terms of g fall in several blocks of the kept exponents
    member = D.apply(draw(polys_in(D.variables, bound, 4, rationals)))
    target = draw(st.sampled_from(["member", "zero", "no-column", "other"]))
    if target == "member":
        return D, member, bound
    if target == "zero":
        return D, MultiPoly.zero(D.variables), bound
    if target == "no-column":  # a kept exponent above the bound, which no column has
        v = draw(st.sampled_from(D.variables))
        return D, member + MultiPoly.var(D.variables, v, bound + draw(st.integers(1, 2))), bound
    return D, draw(polys_in(D.variables, bound + 3, 4, rationals)), bound


def recorded_solves(monkeypatch):
    """The (rows, rhs, ncols) of every solve_sparse call image makes from now on."""
    calls = []
    real = dercert.image.solve_sparse

    def record(rows, rhs, ncols):
        calls.append((rows, rhs, ncols))
        return real(rows, rhs, ncols)

    monkeypatch.setattr(dercert.image, "solve_sparse", record)
    return calls


class TestKeptBlocks:
    @settings(max_examples=200, deadline=None)
    @given(kept_cases())
    def test_matches_the_reference_solve(self, case):
        D, target, bound = case
        result = image_membership(D, target, bound)
        expected = reference_membership(D, target, bound)
        if expected is None:
            assert result == NotFoundUpTo(bound=bound)
        else:
            assert isinstance(result, Member)
            assert (result.preimage, result.kernel_dim) == expected

    def test_non_member_solves_its_block_alone(self, monkeypatch):
        calls = recorded_solves(monkeypatch)
        D = parse_derivation("deriv{y1: 2*y1^2, y2: 3*y2, y3: -y3}")
        # y2 and y3 are kept; the block y2^5*y3^0 holds y1^a*y2^5 for a <= 6
        result = image_membership(D, parse_poly("y1*y2^5", D.variables), 11)
        assert result == NotFoundUpTo(bound=11)
        assert [ncols for _, _, ncols in calls] == [7]

    def test_member_adds_the_rank_of_the_other_blocks(self, monkeypatch):
        calls = recorded_solves(monkeypatch)
        D = parse_derivation("deriv{y1: 2*y1^2, y2: 3*y2, y3: -y3}")
        g = parse_poly("y1*y2 + y3^2 - y1^2*y3", D.variables)
        result = image_membership(D, D.apply(g), 11)
        assert result == Member(preimage=g, kernel_dim=3, bound=11)
        assert len(calls) == 2 and sum(ncols for _, _, ncols in calls) == 364
        # the second system is homogeneous
        assert not any(calls[1][1])

    def test_plane_family_solves_one_system(self, monkeypatch):
        calls = recorded_solves(monkeypatch)
        D = parse_derivation("deriv{x: y, y: x*y + 1}")
        image_membership(D, MultiPoly.constant(D.variables, 1), 10)
        assert [(len(rows), ncols) for rows, _, ncols in calls] == [(75, 66)]


class TestCertified:
    def test_plane_linear_x(self):
        D = mk_b(uni([0, 1]), 1).to_derivation()
        cert = certified_nonmembership(D, MultiPoly.var(D.variables, "x"))
        assert isinstance(cert, CertifiedNonMember)
        assert cert.theorem == "P2.2"

    def test_diag_x_high_power(self):
        D = parse_derivation("deriv{x: 1, y1: y1^2}")
        cert = certified_nonmembership(D, MultiPoly.var(D.variables, "y1"))
        assert isinstance(cert, CertifiedNonMember)
        assert cert.theorem == "T5.1"

    def test_diag_mixed_power_product(self):
        D = parse_derivation("deriv{y1: y1^2, y2: y2}")
        target = MultiPoly.var(D.variables, "y1") * MultiPoly.var(D.variables, "y2", 7)
        cert = certified_nonmembership(D, target)
        assert isinstance(cert, CertifiedNonMember)
        assert image_membership(D, target, 8) == NotFoundUpTo(bound=8)
        assert cert.theorem == "T5.3" and cert.m_used == 7

    def test_member_gets_no_certificate(self):
        D = mk_b(uni([0, 1]), 1).to_derivation()
        assert certified_nonmembership(D, MultiPoly.constant(D.variables, 1)) is None

    def test_certificates_hold_at_growing_bounds(self):
        D = parse_derivation("deriv{x: 1, y1: x*y1}")
        target = MultiPoly.var(D.variables, "y1")
        cert = certified_nonmembership(D, target)
        assert isinstance(cert, CertifiedNonMember)
        for bound in (4, 8, 12):
            assert isinstance(image_membership(D, target, bound), NotFoundUpTo)


class TestCertifiedMultiples:
    """Im D is a Q-subspace, so each pattern covers every nonzero multiple."""

    @pytest.mark.parametrize(
        "derivation, target, theorem",
        [
            ("deriv{x: y, y: x*y + 1}", "-x", "P2.2"),
            ("deriv{x: y, y: x*y + 1}", "2*x", "P2.2"),
            ("deriv{x: 1, y1: x*y1, y2: y2^2}", "-3/2*y2", "T5.1"),
            ("deriv{x: 1, y: x*y}", "2*y", "T5.1"),
            ("deriv{y1: y1^2, y2: y2}", "-1/3*y1*y2^7", "T5.3"),
        ],
    )
    def test_multiples_are_certified(self, derivation, target, theorem):
        D = parse_derivation(derivation)
        cert = certified_nonmembership(D, parse_poly(target, D.variables))
        assert isinstance(cert, CertifiedNonMember)
        assert cert.theorem == theorem
        assert cert.target == parse_poly(target, D.variables)

    @pytest.mark.parametrize("target", ["x + 1", "x^2", "0"])
    def test_other_targets_are_not(self, target):
        D = parse_derivation("deriv{x: y, y: x*y + 1}")
        assert certified_nonmembership(D, parse_poly(target, D.variables)) is None


# polynomials over ("x",) on which zero, constant and nonconstant come up often
few_shapes = st.sampled_from([uni([]), uni([2]), uni([-1, 3])]) | st.lists(rationals, max_size=3).map(uni)


@st.composite
def pattern_cases(draw):
    """(kind, parameters, D) on the plane-linear, translation-diagonal and diagonal families."""
    kind = draw(st.sampled_from(["plane-linear", "translation-diagonal", "diagonal"]))
    if kind == "plane-linear":
        a1 = draw(few_shapes)
        a0 = draw(st.sampled_from([F(0), F(1), F(-3, 2)]))
        return kind, (a1, a0), PlaneFamily(1, 1, a2=uni([]), a1=a1, a0=uni([a0])).to_derivation()
    if kind == "translation-diagonal":
        n = draw(st.integers(1, 2))
        gammas = draw(st.lists(few_shapes, min_size=n, max_size=n))
        ks = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        return kind, (gammas, ks), diag_x_derivation(gammas, ks)
    n = draw(st.integers(2, 3))
    gammas = draw(st.lists(rationals.filter(bool), min_size=n, max_size=n))
    ks = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return kind, (gammas, ks), diag_derivation(gammas, ks)


def proven_nonmember(kind, parameters, exps):
    """(theorem, claim, m_used) when P2.2, T5.1 or T5.3 puts c*x^exps outside Im D, c != 0."""
    support = {v: e for v, e in enumerate(exps) if e}
    coordinate = next(iter(support)) if list(support.values()) == [1] else None
    if kind == "plane-linear":
        # y*dx + (a1*y + a0)*dy with a0 in Q* and deg a1 >= 1: x is no image
        a1, a0 = parameters
        if coordinate == 0 and a0 != 0 and a1.total_degree() >= 1:
            return "P2.2", "x-outside-image", None
        return None
    gammas, ks = parameters
    if kind == "translation-diagonal":
        # dx + sum gamma_i(x)*y_i^k_i*d_i over x, y_1, ...; a zero gamma_i
        # makes y_i a constant of D, whatever k_i is
        live = [i for i, g in enumerate(gammas) if not g.is_zero()]
        i = None if coordinate is None else coordinate - 1
        if i not in live:
            return None
        if ks[i] > 1:
            return "T5.1", "high-power-coordinate", None
        if all(ks[j] == 1 for j in live) and gammas[i].total_degree() >= 1:
            return "T5.1", "nonconstant-coefficient", None
        return None
    # sum gamma_i*y_i^k_i*d_i with every gamma_i != 0
    if coordinate is not None and ks[coordinate] > 1 and 0 in ks:
        return "T5.3", "high-power-coordinate", None
    if len(support) == 2 and 0 not in ks:
        for i, j in itertools.permutations(support):
            if support[i] == 1 and ks[i] > 1 and support[j] >= DEFAULT_M_MIN:
                return "T5.3", "mixed-power-product", support[j]
    return None


def probe_exponents(nvars):
    """Every coordinate, and y_i^a*y_j^m for a in {1, 2} and m around DEFAULT_M_MIN."""
    units = [tuple(int(v == w) for w in range(nvars)) for v in range(nvars)]
    products = [
        tuple(a if w == i else m if w == j else 0 for w in range(nvars))
        for i, j in itertools.permutations(range(nvars), 2)
        for a in (1, 2)
        for m in (DEFAULT_M_MIN - 1, DEFAULT_M_MIN, DEFAULT_M_MIN + 2)
    ]
    return units + products


class TestCertifiedAgainstTheorems:
    """The certificate table accepts exactly what P2.2, T5.1 and T5.3 state."""

    @settings(max_examples=120, deadline=None)
    @given(
        pattern_cases(),
        nonzero_rationals,
        st.lists(st.integers(0, 3), min_size=4, max_size=4),
    )
    def test_certifies_exactly_the_theorems_targets(self, case, c, other):
        kind, parameters, D = case
        n = len(D.variables)
        for exps in [*probe_exponents(n), tuple(other[:n])]:
            target = MultiPoly(D.variables, {exps: c})
            expected = proven_nonmember(kind, parameters, exps)
            cert = certified_nonmembership(D, target)
            if expected is None:
                assert cert is None
            else:
                assert cert == CertifiedNonMember(*expected[:2], target, m_used=expected[2])

    @settings(max_examples=150, deadline=None)
    @given(pattern_cases())
    def test_mz_evidence_is_the_first_proven_target(self, case):
        # the first in the order: each variable, then y_i*y_j^DEFAULT_M_MIN by
        # i, then j; probe_exponents lists them in that order
        kind, parameters, D = case
        verdict = decide_mz(D)
        if not isinstance(verdict.evidence, CertifiedNonMember):
            assert verdict.mz is True
            return
        proven = (
            (exps, found)
            for exps in probe_exponents(len(D.variables))
            if (found := proven_nonmember(kind, parameters, exps))
        )
        exps, (tag, claim, m_used) = next(proven)
        target = MultiPoly(D.variables, {exps: 1})
        assert verdict.mz is False
        assert verdict.evidence == CertifiedNonMember(tag, claim, target, m_used)


class TestDecideMz:
    def test_locally_finite_diag_x(self):
        verdict = decide_mz(parse_derivation("deriv{x: 1, y1: y1, y2: 2*y2}"))
        assert verdict.mz is True and verdict.theorem == "T5.1"

    def test_nonconstant_gamma(self):
        verdict = decide_mz(parse_derivation("deriv{x: 1, y1: x*y1}"))
        assert verdict.mz is False
        assert isinstance(verdict.evidence, CertifiedNonMember)

    def test_diag_linear(self):
        assert decide_mz(parse_derivation("deriv{y1: 2*y1, y2: 3*y2}")).mz is True

    def test_zero_a0_image_is_principal_ideal(self):
        verdict = decide_mz(mk_b(uni([0, 1]), 0).to_derivation())
        assert verdict.mz is True
        assert verdict.evidence == ("image-is-ideal", "y")

    def test_simple_plane_family_not_mz(self):
        verdict = decide_mz(mk_b(uni([0, 1]), 1).to_derivation())
        assert verdict.mz is False and verdict.theorem == "C2.3"

    def test_quadratic_plane_family_refused(self):
        D = PlaneFamily(1, 1, a2=uni([0, 1]), a1=uni([]), a0=uni([1])).to_derivation()
        with pytest.raises(UnsupportedFamily):
            decide_mz(D)

    def test_nonconstant_a0_refused(self):
        D = PlaneFamily(1, 1, a2=uni([]), a1=uni([0, 1]), a0=uni([0, 1])).to_derivation()
        with pytest.raises(UnsupportedFamily):
            decide_mz(D)

    def test_linear_family_grid_matches_simplicity(self):
        # mz is the exact negation of simplicity when a0 is constant
        shapes = [uni([]), uni([1]), uni([0, 1]), uni([0, 0, 1]), uni([0, 0, 3])]
        for a1 in shapes:
            for a0 in (F(0), F(1), F(2)):
                fam = PlaneFamily(1, 1, a2=uni([]), a1=a1, a0=uni([a0]))
                verdict = decide_mz(fam.to_derivation())
                simple = decide_simple_family_a(fam).simple
                assert verdict.mz == (not simple)

    def test_diag_x_grid_matches_local_finiteness(self):
        shapes = [uni([]), uni([1]), uni([0, 1])]
        for g in shapes:
            for k in (1, 2):
                if g.is_zero() and k != 1:
                    continue
                fam = FamilyDiagX(gammas=(g,), ks=(k,))
                D = diag_x_derivation((g,), (k,))
                assert decide_mz(D).mz == locally_finite_closed_form(fam)

