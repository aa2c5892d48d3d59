import random
from collections import Counter
from fractions import Fraction

import pytest

from heckemod import _kron, _krylov, hecke, qseries, traceformula
from heckemod._primes import poly_str
from heckemod.errors import InsufficientPrecision, SpanViolation
from heckemod.gfpoly import reduce_mod
from heckemod.hecke import (
    basis_expansions,
    berkowitz_charpoly,
    charpoly,
    dim_cusp,
    hecke_action,
    hecke_matrix,
    hessenberg_charpoly,
    monomial_basis,
)
from heckemod.modfactor import DEFAULT_MAX_WEIGHT, ROW_PRIMES, charpoly_mod, table_rows


def evaluate(f, x):
    """f(x) by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def trace_of_matrix(matrix):
    return sum(matrix[i][i] for i in range(len(matrix)))


def dim_oracle(k):
    count = 0
    for a in range(1, 40):
        for b in range(0, 120):
            for c in (0, 1):
                if 12 * a + 4 * b + 6 * c == k:
                    count += 1
    return count


def test_dim_cusp_against_triple_loop():
    for k in range(-4, 401):
        expected = 0 if k < 12 or k % 2 else dim_oracle(k)
        assert dim_cusp(k) == expected
    assert dim_cusp(12) == 1
    assert dim_cusp(24) == 2
    assert dim_cusp(26) == 1
    assert dim_cusp(48) == 4
    assert dim_cusp(14) == 0


def test_dim_cusp_closed_form_counts_the_monomial_basis():
    for k in range(-30, 3001):
        assert dim_cusp(k) == (0 if k % 2 else len(monomial_basis(k))), k


def test_monomial_basis_examples():
    assert monomial_basis(12) == [(1, 0, 0)]
    assert monomial_basis(24) == [(1, 3, 0), (2, 0, 0)]
    assert monomial_basis(26) == [(1, 2, 1)]
    assert monomial_basis(10) == []
    with pytest.raises(ValueError):
        monomial_basis(13)


def test_monomial_basis_weights_and_leading_powers():
    for k in range(12, 200, 2):
        triples = monomial_basis(k)
        assert len(triples) == dim_cusp(k)
        assert [a for a, _, _ in triples] == list(range(1, len(triples) + 1))
        for a, b, c in triples:
            assert 12 * a + 4 * b + 6 * c == k
            assert b >= 0 and c in (0, 1)


def test_basis_expansions_are_triangular():
    for k in (12, 24, 36, 48):
        exps = basis_expansions(k, dim_cusp(k) + 3)
        for i, f in enumerate(exps):
            assert all(f.coeffs[m] == 0 for m in range(i + 1))
            assert f.coeffs[i + 1] == 1


def test_weight_12_matrix_and_charpoly():
    assert hecke_matrix(2, 12) == ((-24,),)
    assert charpoly(2, 12) == (24, 1)
    assert poly_str(charpoly(2, 12)) == "x + 24"
    assert charpoly(3, 12) == (-252, 1)
    assert charpoly(2, 10) == (1,)


def test_weight_24_charpoly_against_trace_formula():
    # independent oracle: on a 2-dimensional space the charpoly is
    # x^2 - tr(T_2) x + det, and T_2^2 = T_4 + 2^23 T_1 turns det into
    # trace-formula data only
    tr = traceformula.trace(2, 24)
    tr_sq = traceformula.trace(4, 24) + 2 ** 23 * 2
    det = (tr * tr - tr_sq) // 2
    assert charpoly(2, 24) == (det, -tr, 1)
    assert charpoly(2, 24) == (-20468736, -1080, 1)


def naive_det(matrix):
    # fraction-based Gaussian elimination
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    assert det.denominator == 1
    return int(det)


def test_berkowitz_against_evaluated_determinants():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        f = berkowitz_charpoly(a)
        assert len(f) == n + 1 and f[-1] == 1
        for x0 in range(-3, 4):
            shifted = [
                [x0 * (i == j) - a[i][j] for j in range(n)] for i in range(n)
            ]
            assert evaluate(f, x0) == naive_det(shifted)
    assert berkowitz_charpoly(()) == (1,)


def test_hecke_one_is_identity():
    for k in (12, 24, 36):
        d = dim_cusp(k)
        m = hecke_matrix(1, k)
        assert m == tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n))
        for i in range(n)
    )


def test_hecke_composition_laws():
    # coprime indices multiply
    k = 36
    m2, m3, m6 = hecke_matrix(2, k), hecke_matrix(3, k), hecke_matrix(6, k)
    assert matmul(m2, m3) == m6
    assert matmul(m2, m3) == matmul(m3, m2)
    # T_p^2 = T_{p^2} + p^(k-1) T_1
    k = 24
    m2, m4 = hecke_matrix(2, k), hecke_matrix(4, k)
    d = dim_cusp(k)
    expected = tuple(
        tuple(m4[i][j] + (2 ** (k - 1)) * (i == j) for j in range(d)) for i in range(d)
    )
    assert matmul(m2, m2) == expected


def test_hecke_composition_laws_on_the_direct_path(monkeypatch):
    monkeypatch.setattr(hecke, "KRYLOV_FROM", float("inf"))  # T_3, T_4 and T_6 from their images
    test_hecke_composition_laws()


def krylov_results(monkeypatch) -> list:
    """What each Krylov solve returns, from now on."""
    results, real = [], _krylov.from_t2

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(_krylov, "from_t2", spy)
    return results


def test_krylov_and_direct_matrices_agree(monkeypatch):
    cases = [(n, k) for n in (3, 4, 6, 9, 29) for k in (24, 36, 60, 96, 120)]
    cases += [(97, k) for k in (24, 36, 60, 84)]
    direct = {}
    monkeypatch.setattr(hecke, "_SHARED", {})
    monkeypatch.setattr(hecke, "KRYLOV_FROM", float("inf"))
    for n, k in cases:
        direct[n, k] = hecke_matrix(n, k)
    monkeypatch.setattr(hecke, "_SHARED", {})  # the two paths share no factor table
    monkeypatch.setattr(hecke, "KRYLOV_FROM", 0)
    results = krylov_results(monkeypatch)
    for n, k in cases:
        assert hecke_matrix(n, k) == direct[n, k], (n, k)
    assert len(results) == len(cases) and None not in results


def test_krylov_matrix_reduced_is_the_kernel_matrix(monkeypatch):
    results = krylov_results(monkeypatch)
    exact = hecke_matrix(997, 120)
    assert results == [exact]
    ell = 1000003
    assert hecke_matrix(997, 120, ell) == tuple(tuple(x % ell for x in row) for row in exact)


def test_singular_krylov_matrix_falls_back_to_the_direct_path(monkeypatch):
    monkeypatch.setattr(hecke, "_SHARED", {})
    monkeypatch.setattr(hecke, "KRYLOV_FROM", float("inf"))
    direct = hecke_matrix(29, 96)
    monkeypatch.setattr(hecke, "KRYLOV_FROM", 0)
    real = hecke._direct_matrix

    def scalar_t2(n, k, table, modulus=None):  # 2 I: every Krylov row is a multiple of e_0
        if n == 2:
            return tuple(tuple(2 * (i == j) for j in range(dim_cusp(k))) for i in range(dim_cusp(k)))
        return real(n, k, table, modulus)

    monkeypatch.setattr(hecke, "_direct_matrix", scalar_t2)
    results = krylov_results(monkeypatch)
    assert hecke_matrix(29, 96) == direct
    assert results == [None]


def test_trace_of_matrix():
    assert trace_of_matrix(((1, 5), (7, 11))) == 12
    assert trace_of_matrix(()) == 0
    assert trace_of_matrix(hecke_matrix(2, 24)) == 1080
    assert trace_of_matrix(hecke_matrix(2, 10)) == 0


def test_hecke_action_requires_precision():
    f = qseries.delta(10).coeffs
    with pytest.raises(InsufficientPrecision):
        hecke_action(f, 3, 12, 5)  # needs 3*4+1 = 13 coefficients
    ok = hecke_action(qseries.delta(13).coeffs, 3, 12, 5)
    assert ok.coeffs[1] == 252
    with pytest.raises(ValueError):
        hecke_action(f, 0, 12, 2)


def test_kernel_mod_ell_fixed_large_case():
    # p = 29 at k = 200 is the largest Hecke matrix of the mod-7 table
    assert charpoly(29, 200, 7) == tuple(c % 7 for c in charpoly(29, 200))
    # at k = 84, T_97 reads 15 of the 680 slots of each basis product;
    # mod 2^31 - 1 a slot holds 680 (2^31 - 2)^2 and takes 9 bytes
    exact = charpoly(97, 84)
    for ell in (7, 1000003, 2**31 - 1):
        assert charpoly(97, 84, ell) == tuple(c % ell for c in exact)


def test_kernel_mod_ell_matches_reduced_integer_charpoly():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=50, deadline=None, database=None)
    @hypothesis.given(
        p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
        k=st.integers(6, 60).map(lambda h: 2 * h),
        ell=st.sampled_from([2, 3, 5, 7, 11, 13, 1000003]),
    )
    def check(p, k, ell):
        hypothesis.assume(ell != p)
        assert charpoly(p, k, ell) == reduce_mod(charpoly(p, k), ell)
        prec = p * dim_cusp(k) + 1
        exact = basis_expansions(k, prec)
        assert basis_expansions(k, prec, ell) == [
            qseries.QExpansion(tuple(c % ell for c in f.coeffs)) for f in exact
        ]

    check()


WIDE_ELLS = (2, 3, 13, 1000003, 2**61 - 1)


def _pivot_free(rng, n, ell):
    # every third column is already zero below the subdiagonal, and every
    # fifth subdiagonal entry is zero, so steps skip or swap rows
    a = [[rng.randrange(ell) for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            if j % 3 == 0 and i > j + 1 or j % 5 == 1 and i == j + 1:
                a[i][j] = 0
    return a


MATRIX_KINDS = {
    # all ell - 1: rank one, so every step after the first finds no pivot
    "all-top": lambda rng, n, ell: [[ell - 1] * n for _ in range(n)],
    "dense": lambda rng, n, ell: [[rng.randrange(ell) for _ in range(n)] for _ in range(n)],
    "near-top": lambda rng, n, ell: [[ell - 1 - rng.randrange(2) for _ in range(n)] for _ in range(n)],
    "signed": lambda rng, n, ell: [[rng.randint(-3 * ell, 3 * ell) for _ in range(n)] for _ in range(n)],
    "pivot-free": _pivot_free,
}


def list_hessenberg(matrix, ell):
    """Coefficients of det(xI - A) over F_ell by list-based Hessenberg reduction.

    The reference the packed hessenberg_charpoly is checked against:
    every entry is reduced after every operation, so no bound is involved.
    """
    n = len(matrix)
    h = [[x % ell for x in row] for row in matrix]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        h[m], h[pivot] = h[pivot], h[m]
        for row in h:
            row[m], row[pivot] = row[pivot], row[m]
        inv = pow(h[m][m - 1], -1, ell)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % ell
            if u:  # row i -= u row m, then column m += u column i
                h[i] = [(x - u * y) % ell for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % ell
    p = [[1]]
    for m in range(n):
        nxt, t = [0] + p[m], 1
        for i in range(m, -1, -1):
            for j, x in enumerate(p[i]):
                nxt[j] -= h[i][m] * t * x
            t = t * h[i][i - 1] % ell if i else 0
            if not t:
                break
        p.append([x % ell for x in nxt])
    return tuple(p[n])


def test_hessenberg_matches_berkowitz_mod_ell():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(
        data=st.data(),
        n=st.integers(0, 10),
        ell=st.sampled_from([2, 3, 5, 7, 13]),
    )
    def check(data, n, ell):
        # at least half the entries are zero, so columns without a
        # pivot below the subdiagonal come up often
        nonzero = data.draw(st.lists(st.integers(-99, 99), max_size=n * n // 2))
        places = data.draw(st.permutations(range(n * n)))
        flat = [0] * (n * n)
        for place, x in zip(places, nonzero):
            flat[place] = x
        a = [flat[i * n : (i + 1) * n] for i in range(n)]
        expected = tuple(c % ell for c in berkowitz_charpoly(a))
        assert hessenberg_charpoly(a, ell) == expected

    check()

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        n=st.integers(0, 40),
        ell=st.sampled_from(WIDE_ELLS),
        kind=st.sampled_from(sorted(MATRIX_KINDS)),
        seed=st.integers(0, 2**32),
    )
    def check_large(n, ell, kind, seed):
        a = MATRIX_KINDS[kind](random.Random(seed), n, ell)
        assert hessenberg_charpoly(a, ell) == list_hessenberg(a, ell)

    check_large()
    # the largest size of every kind, whatever hypothesis draws: with slots
    # sized for ell^2 alone, each kind but all-top fails here for ell >= 13
    for ell in WIDE_ELLS:
        for kind, make in sorted(MATRIX_KINDS.items()):
            a = make(random.Random(ell), 40, ell)
            assert hessenberg_charpoly(a, ell) == list_hessenberg(a, ell), (ell, kind)
    with pytest.raises(ValueError):
        charpoly(2, 24, 4)  # the field algorithm needs a prime modulus


def test_shared_table_results_do_not_depend_on_call_order(monkeypatch):
    monkeypatch.setattr(hecke, "_SHARED", {})
    before = charpoly(2, 370, 13)
    prec = hecke._SHARED[13].prec
    charpoly(29, 200, 13)
    assert hecke._SHARED[13].prec > prec
    assert charpoly(2, 370, 13) == before


def test_factor_tables_are_sized_to_the_request(monkeypatch):
    monkeypatch.setattr(hecke, "_SHARED", {})
    fresh = table_rows(5)
    hecke._SHARED.clear()
    charpoly_mod(1999, 120, 5)  # a table of 1999 dim S_120 + 1 = 19,991 coefficients
    longest = []
    real_mul = qseries.mul

    def mul(a, b, modulus=None):
        longest.append(max(a.prec, b.prec))
        return real_mul(a, b, modulus)

    monkeypatch.setattr(qseries, "mul", mul)
    assert table_rows(5) == fresh
    # the walk's longest request is T_19 at the top weight
    top = max(ROW_PRIMES[5]) * dim_cusp(DEFAULT_MAX_WEIGHT[5]) + 1
    assert longest and max(longest) <= 4 * top


def test_factor_tables_make_no_more_products_than_one_growing_table(monkeypatch):
    real_mul = qseries.mul
    # one table per ell, doubled on demand; each walk reads its flag from
    # one table of p dim(top) + 1 coefficients
    for ell, products in ((5, 22), (13, 36)):
        monkeypatch.setattr(hecke, "_SHARED", {})
        calls = []
        monkeypatch.setattr(qseries, "mul", lambda *args: calls.append(args) or real_mul(*args))
        table_rows(ell)
        assert len(calls) == products, ell


def test_a_factor_that_is_one_is_never_multiplied(monkeypatch):
    # E4 = 1 mod 5, so mod 5 every tail is 1 or E6
    real_mul = qseries.mul

    def products(every_product: bool) -> tuple:
        """(cells of table_rows(5), the qseries.mul operand pairs it made)."""
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hecke, "_SHARED", {})
            mp.setattr(qseries, "mul", lambda f, g, m=None: calls.append((f, g)) or real_mul(f, g, m))
            if every_product:
                mp.setattr(hecke._Factors, "_mul", lambda table, f, g: qseries.mul(f, g, table.modulus))
            return table_rows(5), calls

    def is_one(f):
        return f.coeffs[0] == 1 and not any(f.coeffs[1:])

    cells, made = products(False)
    every, calls = products(True)
    assert every == cells
    # of the 28 products, the 6 with an operand of 1 are left out
    assert (len(calls), sum(is_one(f) or is_one(g) for f, g in calls)) == (28, 6)
    assert len(made) == 22 and not any(is_one(f) or is_one(g) for f, g in made)


def split_products(run) -> tuple:
    """(products made as two half-width products, all products) while run() runs."""
    unpacks, paths = [0], []
    real_unpack, real_product = _kron._unpack_signed, qseries.product

    def unpack(*args):
        unpacks[0] += 1
        return real_unpack(*args)

    def product(*args):
        before = unpacks[0]
        out = real_product(*args)
        paths.append(unpacks[0] - before)  # one unpack per product made
        return out

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_kron, "_unpack_signed", unpack)
        monkeypatch.setattr(qseries, "product", product)
        run()
    return paths.count(2), len(paths)


def test_only_large_products_are_split(monkeypatch):
    def direct():  # the Krylov path reads no products of this size
        monkeypatch.setattr(hecke, "KRYLOV_FROM", float("inf"))
        charpoly(97, 60)

    monkeypatch.setattr(hecke, "_SHARED", {})
    split, total = split_products(direct)
    assert split > 0 and total > 0
    monkeypatch.setattr(hecke, "_SHARED", {})
    split, total = split_products(lambda: (table_rows(5), table_rows(13)))
    assert total > 0 and split <= 8


def test_mod_ell_kernel_reduces_and_packs_each_value_once(monkeypatch):
    monkeypatch.setattr(hecke, "_SHARED", {})
    depth, actions, reduced, built = [0], [0], [], Counter()
    real_action, real_reduce = hecke.hecke_action, qseries.reduce

    def action(*args):
        actions[0] += 1
        depth[0] += 1
        try:
            return real_action(*args)
        finally:
            depth[0] -= 1

    def reduce(*args):
        if depth[0]:
            reduced.append(args)
        return real_reduce(*args)

    monkeypatch.setattr(hecke, "hecke_action", action)
    monkeypatch.setattr(qseries, "reduce", reduce)
    for name in ("_delta", "_tail"):

        def build(table, *key, name=name, real=getattr(hecke._Factors, name)):
            built[table, name, key] += 1
            return real(table, *key)

        monkeypatch.setattr(hecke._Factors, name, build)
    table_rows(5)
    assert actions[0] > 0 and reduced == []
    # each power is built once per table, then read from its packed form
    assert built and set(built.values()) == {1}


@pytest.mark.parametrize("modulus", [None, 13])
@pytest.mark.parametrize("slot", ["lead", "below"])
def test_basis_element_without_its_lead_raises(monkeypatch, modulus, slot):
    monkeypatch.setattr(hecke, "_SHARED", {})
    real_read = hecke._Factors.read

    def read(table, a, b, c, top, exponents=None):
        f = real_read(table, a, b, c, top, exponents)
        if a == 2:  # basis element 1 leads with q^2
            f[2 if slot == "lead" else 1] += 1
        return f

    monkeypatch.setattr(hecke._Factors, "read", read)
    with pytest.raises(SpanViolation, match="basis element 1 at k=24 does not lead with q\\^2"):
        hecke_matrix(2, 24, modulus)


def test_mod_ell_matrices_are_the_integer_matrices_reduced():
    for p in (2, 3, 5, 11, 19, 29):
        for k in range(12, 97, 2):
            exact = hecke_matrix(p, k)
            for ell in (5, 7, 13, 1000003):
                if ell != p:
                    reduced = tuple(tuple(x % ell for x in row) for row in exact)
                    assert hecke_matrix(p, k, ell) == reduced, (p, k, ell)


def test_a_flag_of_one_weight_is_the_hecke_matrix(monkeypatch):
    for n, k, ell in ((2, 24, 5), (3, 96, 7), (29, 200, 7), (2, 370, 13)):
        monkeypatch.setattr(hecke, "_SHARED", {})
        assert hecke.flag_matrix(n, [k] * dim_cusp(k), ell) == hecke_matrix(n, k, ell), (n, k, ell)
    assert hecke.flag_matrix(2, [], 5) == ()


def test_weighted_reads_keep_only_the_current_matrix():
    hecke._weighted_reads.cache_clear()
    table_rows(5)
    info = hecke._weighted_reads.cache_info()
    # the reads do not depend on the weight, so a flag matrix misses on its first
    # column only, though it applies T_p at each g's own weight: 8 cells, with
    # 9 columns in a cell of class 0 mod 4 (top 108) and 8 in one of class 2 (top 110)
    assert (info.currsize, info.hits, info.misses) == (1, 4 * 9 + 4 * 8 - 8, 8)
    # a matrix at one weight hits on every column after the first
    hecke._weighted_reads.cache_clear()
    hecke_matrix(11, 108, 5)
    info = hecke._weighted_reads.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, dim_cusp(108) - 1, 1)


def test_integer_results_do_not_depend_on_call_order_or_table_size(monkeypatch):
    # T_2 at k = 120, T_29 from T_2 at k = 96, T_3 at k = 240 from its images, T_2 at k = 24
    cases = [(2, 120), (29, 96), (3, 240), (2, 24)]
    fresh = {}
    for n, k in cases:
        monkeypatch.setattr(hecke, "_SHARED", {})
        fresh[n, k] = hecke_matrix(n, k)
    monkeypatch.setattr(hecke, "_SHARED", {})
    expansions = basis_expansions(36, 600)
    monkeypatch.setattr(hecke, "_SHARED", {})
    precs = []
    for case in [(2, 120), (29, 96), (3, 240), (2, 120), None, (2, 24), (29, 96)]:
        if case is None:
            assert basis_expansions(36, 600) == expansions
        else:
            assert hecke_matrix(*case) == fresh[case], case
        precs.append(hecke._SHARED[None].prec)
    # the table doubles as requests outgrow it, then gives way to T_2 at k = 24 past 4 * 128
    assert precs == [21, 42, 84, 84, 600, 5, 30]


def test_a_weight_range_of_integer_t2_reads_one_table(monkeypatch):
    real_mul = qseries.mul
    for shared, products in ((False, 868), (True, 114)):
        monkeypatch.setattr(hecke, "_SHARED", {})
        calls = []
        monkeypatch.setattr(qseries, "mul", lambda *args: calls.append(args) or real_mul(*args))
        for k in range(120, 229, 4):
            if not shared:
                hecke._SHARED.clear()
            charpoly(2, k)
        assert len(calls) == products, shared


def test_dot_product_past_the_table_raises():
    table = hecke._Factors(10, None)
    assert table.read(1, 0, 0, 9, [0, 9]) == {0: 0, 9: qseries.delta(10).coeffs[9]}
    with pytest.raises(InsufficientPrecision):
        table.read(1, 0, 0, 10, [10])
    with pytest.raises(InsufficientPrecision):
        hecke._Factors(10, 7).read(1, 0, 0, 10)
