"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "[criterion N] PASS/FAIL" line and enforces
its stated time budget.  This file sorts first so the timed criteria
run against a cold shared cache.

Criterion 9 part (a) certifies the A4 quartic x^4 + 8x + 12 irreducible
by the degree-set sieve and uses x^4 + 1 as the control the sieve must
refuse: its Galois group is the Klein four group, so its factorization
degrees modulo every prime are those of the reducible x^4 - 10x^2 + 16.
See test_criterion_09_galois_engine.
"""
import time

from heckemod._primes import primes_up_to
from heckemod.galois import (
    CLAIM_FULL_SYMMETRIC,
    Certificate,
    NotFound,
    RULE_DEGREE_SET_SIEVE,
    _qualifying_ell,
    certify_full_symmetric,
    certify_poly,
    deduce,
)
from heckemod.gfpoly import divide_exact, roots
from heckemod.hecke import dim_cusp, hecke_matrix
from heckemod.modfactor import (
    charpoly_mod,
    congruence_class_invariance,
    serre_eigenvalue_set,
    small_ell_rule,
    table_rows,
)
from heckemod.traceformula import trace

TABLE_5 = {
    (11, 0): (2,),
    (11, 2): (2,),
    (2, 0): (1, 4),
    (2, 2): (2, 3),
    (3, 0): (2, 3),
    (3, 2): (1, 4),
    (19, 0): (0,),
    (19, 2): (0,),
}

TABLE_7 = {
    (29, 0): (2,),
    (29, 2): (2,),
    (29, 4): (2,),
    (2, 0): (4, 5),
    (2, 2): (1, 3),
    (2, 4): (6, 2),
    (3, 0): (0, 1, 0, 6),
    (3, 2): (0, 3, 0, 4),
    (3, 4): (5, 0, 2, 0),
    (11, 0): (1, 3),
    (11, 2): (4, 5),
    (11, 4): (6, 2),
    (5, 0): (0, 3, 0, 4),
    (5, 2): (0, 1, 0, 6),
    (5, 4): (2, 0, 5, 0),
    (13, 0): (0,),
    (13, 2): (0,),
    (13, 4): (0,),
}

TABLE_13 = {
    0: (2, 12, 9, 4, 1, 11, 5, 11, 1, 4, 9, 12, 2, 8),
    2: (4, 11, 5, 8, 2, 9, 10, 9, 2, 8, 5, 11, 4, 3),
    4: (8, 6, 8, 9, 10, 3, 4, 5, 7, 5, 4, 3, 10, 9),
    6: (5, 3, 12, 3, 5, 7, 6, 8, 10, 1, 10, 8, 6, 7),
    8: (1, 10, 6, 11, 6, 10, 1, 12, 3, 7, 2, 7, 3, 12),
    10: (11, 2, 7, 12, 9, 12, 7, 2, 11, 6, 1, 4, 1, 6),
}


def roots_in_serre_set(ell, p, k):
    """Whether every root of T_p mod ell at weight k lies in {p^m + p^n mod ell}."""
    allowed = serre_eigenvalue_set(p, ell)
    return all(r in allowed for r in roots(charpoly_mod(p, k, ell), ell))


def report(num, ok, detail):
    print("[criterion %d] %s: %s" % (num, "PASS" if ok else "FAIL", detail))


def test_criterion_01_table_mod5():
    start = time.perf_counter()
    cells = table_rows(5)
    ok = len(cells) == 8 and all(
        cell.one_period() == TABLE_5[(cell.p, cell.kclass)]
        and cell.period == len(cell.one_period())
        for cell in cells
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(1, ok, "mod-5 table, 8 cells over two periods, %.1fs" % elapsed)
    assert ok


def test_criterion_02_table_mod7():
    start = time.perf_counter()
    cells = table_rows(7)
    ok = len(cells) == 18 and all(
        cell.one_period() == TABLE_7[(cell.p, cell.kclass)]
        and cell.period == len(cell.one_period())
        for cell in cells
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300
    report(2, ok, "mod-7 table, 18 cells over two periods, %.1fs" % elapsed)
    assert ok


def test_criterion_03_table_mod13():
    start = time.perf_counter()
    cells = table_rows(13)
    ok = len(cells) == 6 and all(
        cell.period == 14
        and cell.one_period() == TABLE_13[cell.kclass]
        for cell in cells
    )
    full_elapsed = time.perf_counter() - start
    ok = ok and full_elapsed < 1800

    start = time.perf_counter()
    quick = table_rows(13, single_period=True)
    ok = ok and all(
        cell.period is None
        and cell.terms[:14] == TABLE_13[cell.kclass]
        for cell in quick
    )
    single_elapsed = time.perf_counter() - start
    ok = ok and single_elapsed < 300
    report(
        3,
        ok,
        "mod-13 table, 6 rows, two periods %.1fs, single period %.1fs"
        % (full_elapsed, single_elapsed),
    )
    assert ok


def test_criterion_04_closed_forms():
    start = time.perf_counter()
    checked = 0
    ok = True
    for ell, ps in ((2, (3, 5, 7, 11, 13)), (3, (2, 5, 7, 11, 13))):
        for p in ps:
            for k in range(2, 61, 2):
                ok = ok and charpoly_mod(p, k, ell) == small_ell_rule(
                    p, k, ell
                )
                checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(4, ok, "mod-2/mod-3 closed forms, %d cases, %.1fs" % (checked, elapsed))
    assert ok


def trace_of_matrix(matrix):
    return sum(matrix[i][i] for i in range(len(matrix)))


def test_criterion_05_trace_formula_oracle():
    start = time.perf_counter()
    ok = True
    checked = 0
    for n in list(range(1, 11)) + [12, 18, 25]:
        for k in range(12, 41, 2):
            ok = ok and trace(n, k) == trace_of_matrix(hecke_matrix(n, k))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(5, ok, "trace formula vs matrices, %d cases, %.1fs" % (checked, elapsed))
    assert ok


def test_criterion_06_divisibility():
    start = time.perf_counter()
    checked = 0
    for p in (2, 3, 5, 7, 11):
        for ell in (5, 7, 13):
            if p == ell:
                continue
            for k in range(12, 121, 2):
                # raises InexactDivision unless T_p(k) divides T_p(k + ell - 1) mod ell
                divide_exact(charpoly_mod(p, k + ell - 1, ell), charpoly_mod(p, k, ell), ell)
                checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 13 * 55 and elapsed < 120
    report(6, ok, "weight-shift divisibility, %d quotients, %.1fs" % (checked, elapsed))
    assert ok


def test_criterion_07_congruence_classes():
    start = time.perf_counter()
    ok = True
    checked = 0
    for p, q, ell in ((2, 7, 5), (3, 13, 5), (2, 23, 7), (3, 17, 7)):
        for k in range(2, 61, 2):
            ok = ok and congruence_class_invariance(p, q, ell, k)
            checked += 1
    elapsed = time.perf_counter() - start
    report(7, ok, "congruence-class invariance, %d cases, %.1fs" % (checked, elapsed))
    assert ok


def test_criterion_08_root_classification():
    start = time.perf_counter()
    ok = True
    checked = 0
    for ell in (3, 5, 7):
        for p in (2, 3, 5, 7, 11, 13):
            if p == ell:
                continue
            for k in range(2, 61, 2):
                ok = ok and roots_in_serre_set(ell, p, k)
                checked += 1
    elapsed = time.perf_counter() - start
    report(8, ok, "eigenvalue classification, %d cases, %.1fs" % (checked, elapsed))
    assert ok


def test_criterion_09_galois_engine(shared_cache):
    """Certification engine on two quartics and on the weight slice k <= 48.

    Part (a) requires a DegreeSetSieve irreducibility certificate for
    x^4 + 8x + 12.  Its discriminant is 576^2 and its resolvent cubic
    x^3 - 48x - 64 has no rational root, so its Galois group is A4.  A4
    has no 4-cycle, so no single reduction proves it irreducible, but its
    cycle types 3+1 and 2+2 have the disjoint proper subset sums {1, 3}
    and {2}, which empties the sieve.  Since A4 is not S4, it is never
    full-symmetric.

    x^4 + 1 is the soundness control.  It factors modulo every prime, and
    its factorization degree multisets are always among {1,1,1,1} and
    {2,2}, exactly the degree data of the reducible x^4 - 10x^2 + 16.
    Degree information alone cannot separate the two, so the sieve must
    leave degree 2 surviving and return NotFound.
    """
    start = time.perf_counter()
    a4_quartic = (12, 8, 0, 0, 1)
    x4_plus_1 = (1, 0, 0, 0, 1)

    res_a = next(certify_poly(a4_quartic, bound=500))
    ok_a = (
        isinstance(res_a, Certificate)
        and res_a.rule == RULE_DEGREE_SET_SIEVE
        and all(e["partition"] != [4] for e in res_a.evidence)
    )
    print("  (a) x^4+8x+12 sieve certificate:", "yes" if ok_a else "no")

    res_a4_full = tuple(certify_poly(a4_quartic, bound=500))[1]
    ok_a4_full = isinstance(res_a4_full, NotFound)
    print("  (a) x^4+8x+12 never full-symmetric:", ok_a4_full)

    res_control = next(certify_poly(x4_plus_1, bound=500))
    ok_control = isinstance(res_control, NotFound) and "[2]" in res_control.reason
    print("  (a) x^4+1 refused by the sieve:", ok_control)

    res_never = tuple(certify_poly(x4_plus_1, bound=500))[1]
    ok_never = isinstance(res_never, NotFound)
    print("  (a) x^4+1 never full-symmetric:", ok_never)

    ok_b = True
    for k in range(12, 49, 2):
        if dim_cusp(k) == 0:
            continue  # no operator to certify at this weight
        cert = certify_full_symmetric(2, k, bound=200, cache=shared_cache)
        ok_b = ok_b and isinstance(cert, Certificate) and cert.unconditional
    print("  (b) T_2 full-symmetric, even 12 <= k <= 48:", ok_b)

    units = [r for r in range(1, 35) if r % 5 and r % 7]
    qualifying = [r for r in units if _qualifying_ell(r) is not None]
    ok_c = len(units) == 24 and len(qualifying) == 20
    print("  (c) qualifying residue density: %d/%d" % (len(qualifying), len(units)))

    elapsed = time.perf_counter() - start
    ok = ok_a and ok_a4_full and ok_control and ok_never and ok_b and ok_c
    ok = ok and elapsed < 120
    report(9, ok, "certification engine, %.1fs" % elapsed)
    assert ok


def test_criterion_10_deduction_end_to_end(shared_cache):
    start = time.perf_counter()
    qualifying = [p for p in primes_up_to(99) if _qualifying_ell(p) is not None]
    ok = len(qualifying) == 22 and not {29, 41, 71} & set(qualifying)
    for p in qualifying:
        res = deduce(p, 24, cache=shared_cache)
        cert = res.target
        good = (
            res.unconditional
            and isinstance(cert, Certificate)
            and cert.claim == CLAIM_FULL_SYMMETRIC
        )
        row = next(e for e in cert.evidence if e.get("kind") == "table-row")
        direct = roots(charpoly_mod(row["class_prime"], 24, row["ell"]), row["ell"])
        ok = ok and good and sorted(row["first_terms"]) == sorted(direct)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(
        10,
        ok,
        "deductions at weight 24 for %d primes below 100, %.1fs"
        % (len(qualifying), elapsed),
    )
    assert ok
