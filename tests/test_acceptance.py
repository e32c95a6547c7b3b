"""Acceptance suite: one test per criterion, one printed verdict line each.

Every check is exact (rational arithmetic end to end); there are no
numeric tolerances anywhere.  Randomized criteria use fixed seeds so the
suite is reproducible.
"""

import random
from fractions import Fraction

from conftest import locally_finite_probe, uni
from dercert import (
    CertifiedNonMember,
    DarbouxPair,
    FamilyDiag,
    FamilyDiagX,
    Member,
    MultiPoly,
    NotFoundUpTo,
    PlaneFamily,
    SearchBounds,
    conjecture_necessary,
    conjecture_scan,
    condition3_solve,
    darboux_search_power_family,
    decide_mz,
    decide_simple_family_a,
    divide_exact,
    image_membership,
    locally_finite_closed_form,
    parse_poly,
    poly_to_str,
    rational_roots,
    verify_darboux,
    verify_stable_ideal,
)
from dercert.linalg import solve_sparse

F = Fraction
XY = ("x", "y")


def poly(src, variables=XY):
    return parse_poly(src, variables)


def report(num: int, name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures[:10])


def test_criterion_1_quadratic_family_grid():
    failures = []
    simple_a2 = [
        uni([0, 1]),
        uni([0, 1]).scale(2),
        poly("x + 1", ("x",)).restrict("x"),
        uni([0, 0, 1]),
        poly("x^3 - x", ("x",)).restrict("x"),
    ]
    bounds = SearchBounds(n_max=3, d0_deg_max=3, cx_deg_max=4)
    for a2 in simple_a2:
        for a0 in (F(1), F(2), F(-3)):
            fam = PlaneFamily(1, 1, a2=a2, a1=uni([]), a0=uni([a0]))
            verdict = decide_simple_family_a(fam)
            if not verdict.simple:
                failures.append(f"a2={a2!r} a0={a0} expected simple")
                continue
            outcome = darboux_search_power_family(fam, bounds)
            if outcome.status == "found":
                failures.append(f"a2={a2!r} a0={a0} search found a Darboux polynomial")
            elif outcome.status == "undecided-residual":
                print(
                    f"[acceptance] criterion 1 note: undecided residual at a2={a2!r} a0={a0}"
                )
    for a2_const in (F(0), F(1), F(5)):
        for a0 in (F(1), F(2), F(-3)):
            fam = PlaneFamily(
                1, 1, a2=uni([a2_const]), a1=uni([]), a0=uni([a0])
            )
            verdict = decide_simple_family_a(fam)
            if verdict.simple:
                failures.append(f"a2={a2_const} a0={a0} expected non-simple")
                continue
            if not verify_stable_ideal(fam.to_derivation(), verdict.certificate.generators):
                failures.append(f"a2={a2_const} a0={a0} witness failed verification")
    report(1, "quadratic family grid", failures)


def _random_instances(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        l = F(rng.choice([s for s in range(-10, 11) if s]), rng.randint(1, 10))
        deg = rng.randint(1, 3)
        coeffs = [F(rng.randint(-5, 5)) for _ in range(deg)]
        lead = F(rng.choice([s for s in range(-5, 6) if s]))
        a1 = uni(coeffs + [lead])
        a0 = F(rng.choice([s for s in range(-6, 7) if s]), rng.randint(1, 4))
        yield l, a1, a0


def test_criterion_2_planted_l_instances():
    failures = []
    for idx, (l, a1, a0) in enumerate(_random_instances(seed=1202, count=100)):
        a2 = a1.scale(l) - uni([l * l * a0])
        solutions = condition3_solve(a2, a1, a0, 1)
        if l not in solutions:
            failures.append(f"instance {idx}: l={l} not recovered")
            continue
        fam = PlaneFamily(1, 1, a2=a2, a1=a1, a0=uni([a0]))
        verdict = decide_simple_family_a(fam)
        if verdict.simple:
            failures.append(f"instance {idx}: expected non-simple")
            continue
        witness = verdict.certificate.generators[0]
        expected = poly("y") + MultiPoly.constant(XY, 1 / verdict.certificate.l_value)
        if witness != expected:
            failures.append(f"instance {idx}: witness is not y + 1/l")
            continue
        D = fam.to_derivation()
        if divide_exact(D.apply(witness), witness) is None:
            failures.append(f"instance {idx}: witness fails exact division")
    fam = PlaneFamily(
        1, 1, a2=poly("x - 1", ("x",)).restrict("x"), a1=uni([0, 1]), a0=uni([1])
    )
    pair = verify_darboux(fam.to_derivation(), poly("y + 1"))
    if not isinstance(pair, DarbouxPair) or pair.cofactor != poly("(x - 1)*y + 1"):
        failures.append("specific instance (x-1, x, 1) has the wrong cofactor")
    report(2, "planted condition-3 instances", failures)


def _pairs_for_audit():
    """Darboux pairs over families inside the structure hypotheses (a1 != 0)."""
    collected = []
    fixed = [
        PlaneFamily(1, 1, a2=poly("x - 1", ("x",)).restrict("x"), a1=uni([0, 1]), a0=uni([1])),
        PlaneFamily(1, 1, a2=poly("2*x - 4", ("x",)).restrict("x"), a1=uni([0, 1]), a0=uni([1])),
    ]
    for fam in fixed:
        outcome = darboux_search_power_family(fam, SearchBounds(2, 2, 3))
        for pair in outcome.pairs:
            collected.append((fam, pair))
    for l, a1, a0 in _random_instances(seed=331, count=20):
        a2 = a1.scale(l) - uni([l * l * a0])
        if a2.total_degree() < 1:
            continue
        fam = PlaneFamily(1, 1, a2=a2, a1=a1, a0=uni([a0]))
        witness = poly("y") + MultiPoly.constant(XY, 1 / l)
        pair = verify_darboux(fam.to_derivation(), witness)
        if isinstance(pair, DarbouxPair):
            collected.append((fam, pair))
            squared = verify_darboux(fam.to_derivation(), witness * witness)
            if isinstance(squared, DarbouxPair):
                collected.append((fam, squared))
    return collected


def test_criterion_3_cofactor_structure_audit():
    failures = []
    pairs = _pairs_for_audit()
    if len(pairs) < 10:
        failures.append("too few Darboux pairs collected for the audit")
    for fam, pair in pairs:
        if fam.to_derivation().apply(pair.F) != pair.cofactor * pair.F:
            failures.append(f"D(F) != cofactor * F for F={poly_to_str(pair.F)}")
            continue
        if pair.cofactor.degree_in("y") > 1:
            failures.append(f"cofactor y-degree exceeds 1 for F={poly_to_str(pair.F)}")
            continue
        n = pair.F.degree_in("y")
        c_n = pair.F.coeffs_in("y")[n].restrict("x")
        d1 = pair.cofactor.coeffs_in("y").get(1, MultiPoly.zero(XY)).restrict("x")
        if n < 1 or d1 != fam.a2.scale(n):
            failures.append(f"d1 != n*a2 for F={poly_to_str(pair.F)}")
        if not c_n.is_constant() or c_n.is_zero():
            failures.append(f"leading coefficient not in Q* for F={poly_to_str(pair.F)}")
    report(3, "cofactor structure audit", failures)


def test_criterion_4_linear_family_images():
    failures = []
    fam = PlaneFamily(1, 1, a2=uni([]), a1=uni([0, 1]), a0=uni([1]))
    D = fam.to_derivation()
    member = image_membership(D, MultiPoly.constant(XY, 1), 3)
    if not isinstance(member, Member) or member.preimage != poly("y - 1/2*x^2"):
        failures.append("preimage of 1 is not exactly y - x^2/2")
    if not isinstance(image_membership(D, poly("x"), 12), NotFoundUpTo):
        failures.append("x unexpectedly reachable at bound 12")
    if decide_mz(D).mz is not False:
        failures.append("simple linear family must not have an MZ image")

    fam_const = PlaneFamily(1, 1, a2=uni([]), a1=uni([1]), a0=uni([1]))
    if decide_mz(fam_const.to_derivation()).mz is not True:
        failures.append("constant-coefficient family must have an MZ image")
    if locally_finite_closed_form(fam_const) is not True:
        failures.append("constant-coefficient family must be locally finite")

    fam_zero = PlaneFamily(1, 1, a2=uni([]), a1=uni([0, 1]), a0=uni([0]))
    D0 = fam_zero.to_derivation()
    member_xy = image_membership(D0, poly("x*y"), 2)
    if not isinstance(member_xy, Member) or member_xy.preimage != poly("1/2*x^2"):
        failures.append("preimage of x*y is not exactly x^2/2")
    if decide_mz(D0).mz is not True:
        failures.append("a0 = 0 family must have an MZ image")
    report(4, "linear family images", failures)


def _diag_x_cells():
    gammas = [uni([]), uni([1]), uni([2]), uni([0, 1]), uni([0, 0, 1])]
    ks = [1, 2, 3]
    singles = [(g, k) for g in gammas for k in ks]
    cells = [((g,), (k,)) for g, k in singles]
    for i in range(15):
        g1, k1 = singles[i]
        g2, k2 = singles[(2 * i + 3) % 15]
        cells.append(((g1, g2), (k1, k2)))
    return cells


def test_criterion_5_translation_diagonal_grid():
    failures = []
    cells = _diag_x_cells()
    if len(cells) != 30:
        failures.append("expected 30 grid cells")
    for gammas, ks in cells:
        fam = FamilyDiagX(gammas=gammas, ks=ks)
        D = fam.to_derivation()
        expected = all(
            g.is_zero() or (k == 1 and g.is_constant()) for g, k in zip(gammas, ks)
        )
        loc_fin = locally_finite_closed_form(fam)
        verdict = decide_mz(D)
        label = f"gammas={[poly_to_str(g) for g in gammas]} ks={list(ks)}"
        if loc_fin != expected:
            failures.append(f"{label}: closed form disagrees")
            continue
        if verdict.mz != expected:
            failures.append(f"{label}: mz verdict disagrees")
            continue
        if loc_fin and not locally_finite_probe(D, cutoff_deg=8, max_iter=12).bounded:
            failures.append(f"{label}: probe contradicts the closed form")
            continue
        if not verdict.mz:
            evidence = verdict.evidence
            if not isinstance(evidence, CertifiedNonMember):
                failures.append(f"{label}: missing certified target")
                continue
            if not isinstance(image_membership(D, evidence.target, 8), NotFoundUpTo):
                failures.append(f"{label}: certified target reachable at bound 8")
    report(5, "translation-diagonal grid", failures)


def test_criterion_6_diagonal_grid():
    failures = []
    gammas = [F(1), F(2), F(-1, 2)]
    for g1 in gammas:
        for g2 in gammas:
            for k1 in range(4):
                for k2 in range(4):
                    fam = FamilyDiag(gammas=(g1, g2), ks=(k1, k2))
                    verdict = decide_mz(fam.to_derivation())
                    if verdict.mz != (max(k1, k2) <= 1):
                        failures.append(f"g=({g1},{g2}) k=({k1},{k2}) wrong verdict")
    fam = FamilyDiag(gammas=(F(1), F(1)), ks=(2, 1))
    D = fam.to_derivation()
    v = D.variables
    member = image_membership(D, MultiPoly.var(v, "y2", 5), 5)
    if not isinstance(member, Member) or member.preimage != MultiPoly.var(v, "y2", 5).scale(
        F(1, 5)
    ):
        failures.append("preimage of y2^5 is not exactly y2^5/5")
    mixed = MultiPoly.var(v, "y1") * MultiPoly.var(v, "y2", 5)
    if not isinstance(image_membership(D, mixed, 8), NotFoundUpTo):
        failures.append("y1*y2^5 unexpectedly reachable at bound 8")
    from dercert import certified_nonmembership

    cert = certified_nonmembership(D, mixed)
    if not isinstance(cert, CertifiedNonMember) or cert.theorem != "T5.3":
        failures.append("y1*y2^5 lacks the diagonal certificate")
    report(6, "diagonal grid", failures)


def test_criterion_7_power_family_checks():
    failures = []
    failing = [
        PlaneFamily(alpha=2, beta=2, a2=uni([0, 1]), a1=uni([]), a0=uni([0, 1])),
        PlaneFamily(alpha=2, beta=2, a2=uni([]), a1=uni([]), a0=uni([1])),
        PlaneFamily(
            alpha=2,
            beta=2,
            a2=poly("x + 1", ("x",)).restrict("x"),
            a1=uni([0, 1]),
            a0=uni([1]),
        ),
    ]
    for fam in failing:
        check = conjecture_necessary(fam)
        if check.passed:
            failures.append(f"{fam} expected to fail the necessary conditions")
            continue
        if not verify_stable_ideal(fam.to_derivation(), check.witness.generators):
            failures.append(f"{fam} witness failed verification")
    third = conjecture_necessary(failing[2])
    if third.witness.l_value != 1:
        failures.append("condition-3 failure should report l0 = 1")
    rows = conjecture_scan(
        2,
        [(uni([0, 1]), uni([]), uni([1]))],
        SearchBounds(n_max=2, d0_deg_max=2, cx_deg_max=3),
    )
    if rows[0].necessary != "pass" or rows[0].darboux_status != "none-up-to-bounds":
        failures.append("pass case did not scan to none-up-to-bounds")
    report(7, "power family checks", failures)


def test_criterion_8_algebra_substrate():
    failures = []
    rng = random.Random(808)

    def rand_multi(variables=XY, deg=4):
        terms = []
        for _ in range(rng.randint(0, 5)):
            e1 = rng.randint(0, deg)
            e2 = rng.randint(0, deg - e1)
            terms.append(((e1, e2), F(rng.randint(-6, 6), rng.randint(1, 4))))
        return MultiPoly(variables, terms)

    for _ in range(200):
        a, b, c = rand_multi(), rand_multi(), rand_multi()
        if (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
            failures.append("ring axiom failure")
            break
    for _ in range(200):
        q, g = rand_multi(), rand_multi()
        if g.is_zero():
            continue
        if divide_exact(q * g, g) != q:
            failures.append("divexact failure")
            break
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        rhs = [rng.randint(-4, 4) for _ in rows]
        sol = solve_sparse([{j: a for j, a in enumerate(row) if a} for row in rows], rhs, n)
        if sol is None:
            continue
        if any(sum(a * x for a, x in zip(row, sol.particular)) != b for row, b in zip(rows, rhs)):
            failures.append("linear solver failure")
            break
    for _ in range(200):
        r1 = F(rng.randint(-6, 6), rng.randint(1, 4))
        r2 = F(rng.randint(-6, 6), rng.randint(1, 4))
        p = uni([-r1, 1]) * uni([-r2, 1])
        roots = rational_roots(p)
        if r1 not in roots or r2 not in roots:
            failures.append("rational root recovery failure")
            break
    for _ in range(200):
        p = rand_multi(deg=8)
        if parse_poly(poly_to_str(p), p.variables) != p:
            failures.append("print/parse round-trip failure")
            break
    report(8, "algebra substrate", failures)
