import os
import threading

import pytest

from heckemod import hecke, modfactor
from heckemod.cli import main
from heckemod.errors import (
    EigenvalueViolation,
    Lemma1Violation,
    PeriodNotFound,
)
from heckemod.gfpoly import divide_exact, mul, roots
from heckemod.hecke import dim_cusp
from heckemod.modfactor import (
    charpoly_mod,
    congruence_class_invariance,
    first_weight_in_class,
    root_sequence,
    serre_eigenvalue_set,
    small_ell_rule,
    table_rows,
)

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


def test_charpoly_mod_basics():
    assert charpoly_mod(2, 12, 5) == (4, 1)
    assert charpoly_mod(2, 10, 5) == (1,)
    with pytest.raises(ValueError):
        charpoly_mod(5, 12, 5)
    with pytest.raises(ValueError):
        charpoly_mod(4, 12, 5)
    with pytest.raises(ValueError):
        charpoly_mod(2, 13, 5)
    with pytest.raises(ValueError):
        charpoly_mod(2, 12, 6)


def lemma1_quotient(p, ell, k):
    """T_p(k + ell - 1) / T_p(k) in F_ell[x]; raises InexactDivision if Lemma 1 fails."""
    return divide_exact(charpoly_mod(p, k + ell - 1, ell), charpoly_mod(p, k, ell), ell)


def test_lemma1_quotients():
    assert lemma1_quotient(2, 5, 12) == (1,)
    assert lemma1_quotient(2, 5, 20) == (1, 1)  # new root 4
    for k in range(12, 42, 2):
        q = lemma1_quotient(2, 5, k)
        assert len(q) - 1 == dim_cusp(k + 4) - dim_cusp(k)


def test_first_weight_in_class():
    assert first_weight_in_class(0, 5) == 12
    assert first_weight_in_class(2, 5) == 14
    assert first_weight_in_class(4, 7) == 16
    assert first_weight_in_class(0, 13) == 12
    assert first_weight_in_class(10, 13) == 22
    assert first_weight_in_class(24, 5) == 12
    with pytest.raises(ValueError):
        first_weight_in_class(1, 5)


def test_root_sequence_mod5():
    seq = root_sequence(2, 5, 0)
    assert seq.period == 2
    assert seq.one_period() == (1, 4)
    assert seq.terms[:6] == (1, 4, 1, 4, 1, 4)
    assert seq.term_weights[:3] == (12, 24, 36)
    assert seq.first_terms(7) == (1, 4, 1, 4, 1, 4, 1)

    swapped = root_sequence(2, 5, 2)
    assert swapped.one_period() == (2, 3)

    # max_weight alone bounds the walk: 100 terms, more than 4 (ell^2 - 1)
    assert root_sequence(2, 5, 0, max_weight=1200).period == 2


def test_root_sequence_mod7():
    seq = root_sequence(3, 7, 0)
    assert seq.period == 4
    assert seq.one_period() == (0, 1, 0, 6)


def test_root_sequence_accumulates_exact_root_multisets():
    # in every table cell mod 5, 7 and 13, the first dim(k) terms are
    # exactly the roots of T_p mod ell at each weight k the walk visits,
    # found by factoring the whole polynomial; the walk factors none
    for ell in (5, 7, 13):
        for seq in table_rows(ell):
            k0 = first_weight_in_class(seq.kclass, ell)
            for k in range(k0, seq.max_weight + 1, ell - 1):
                direct = roots(charpoly_mod(seq.p, k, ell), ell)
                assert tuple(sorted(seq.terms[: dim_cusp(k)])) == direct, (seq.p, ell, seq.kclass, k)


def test_root_sequence_short_window():
    seq = root_sequence(2, 5, 0, max_weight=30, require_two_periods=False)
    assert seq.period is None
    assert seq.terms == (1, 4)
    assert seq.one_period() == (1, 4)
    with pytest.raises(ValueError):
        seq.first_terms(3)
    # a window shorter than the default one need not show two periods
    with pytest.raises(ValueError, match="up to weight 20 .*--single-period") as info:
        root_sequence(2, 5, 0, max_weight=20)
    assert not isinstance(info.value, PeriodNotFound)
    with pytest.raises(ValueError):
        root_sequence(2, 11, 0)


def test_table_rows_mod5():
    cells = table_rows(5)
    assert len(cells) == 8
    for cell in cells:
        assert cell.one_period() == TABLE_5[(cell.p, cell.kclass)]
        assert cell.period == len(cell.one_period())
        assert cell.ell == 5


def plant_matrix(monkeypatch, p, entries):
    """Plant entries {(row, column): value} in the flag matrix of T_p."""
    real = modfactor.flag_matrix

    def planted(n, weights, modulus):
        matrix = [list(row) for row in real(n, weights, modulus)]
        if n == p:
            for (i, j), value in entries.items():
                matrix[i][j] = value
        return matrix

    monkeypatch.setattr(modfactor, "flag_matrix", planted)


def plant_trace(monkeypatch, p, k, offset):
    """Move the trace formula's trace of T_p at weight k by `offset`."""
    real = modfactor.traces

    def planted(n, weights):
        out = real(n, weights)
        if n == p:
            out[k] += offset
        return out

    monkeypatch.setattr(modfactor, "traces", planted)


def test_a_walk_makes_one_flag_matrix_and_one_charpoly(monkeypatch):
    calls = []
    for name in ("flag_matrix", "charpoly"):
        real = getattr(modfactor, name)
        monkeypatch.setattr(modfactor, name, lambda *args, real=real: calls.append(args) or real(*args))
    seq = root_sequence(2, 13, 0)
    # g_j = delta^j enters at weight 12 j, and no weight's polynomial is computed
    assert seq.term_weights == tuple(range(12, 361, 12))
    assert calls == [(2, list(seq.term_weights), 13)]


def test_the_trace_formula_pins_every_term_on_its_own():
    # For p = 2 Serre's set mod 5 is all of F_5, so only the trace check
    # can catch a wrong term; it must catch each at the weight it enters.
    seq = root_sequence(2, 5, 0)
    assert len(seq.terms) == 9 and serre_eigenvalue_set(2, 5) == frozenset(range(5))
    for j, (term, k) in enumerate(zip(seq.terms, seq.term_weights)):
        for planted in set(range(5)) - {term}:
            with pytest.MonkeyPatch.context() as mp:
                plant_matrix(mp, 2, {(j, j): planted})
                with pytest.raises(Lemma1Violation) as info:
                    root_sequence(2, 5, 0)
            assert str(info.value) == (
                "T_2 at weight %d mod 5 has trace %d, but the walk's first %d terms sum to %d"
                % (k, sum(seq.terms[: j + 1]) % 5, j + 1, (sum(seq.terms[:j]) + planted) % 5)
            ), (j, planted)


def test_the_walk_reads_no_weights_polynomial(monkeypatch, capsys):
    assert main(["table", "--ell", "5"]) == 0
    clean = capsys.readouterr()
    # x^2 + 2 has no root mod 5
    monkeypatch.setattr(modfactor, "charpoly", lambda p, k, modulus=None: (2, 0, 1))
    assert main(["table", "--ell", "5"]) == 0
    assert capsys.readouterr() == clean


def test_nesting_violation_detected(monkeypatch):
    # T_2 g_1 with a coordinate on g_2: the form of weight 12 would not span a
    # T_2-stable line inside weight 24, which Lemma 1 guarantees
    plant_matrix(monkeypatch, 2, {(1, 0): 1})
    with pytest.raises(Lemma1Violation):
        root_sequence(2, 5, 0)


# root_sequence(p, 5, 0, max_weight=24): g_1 enters at 12 and g_2 at 24, terms 1, 4 for p = 2
@pytest.mark.parametrize(
    "plant, error, message",
    [
        # 11 = 1 mod 5 allows only the root 1 + 1 = 2
        (lambda mp: plant_matrix(mp, 11, {(0, 0): 3}), EigenvalueViolation,
         "T_11 at weight 12 mod 5 has root 3 outside {p^m + p^n mod 5} = {2}"),
        (lambda mp: plant_matrix(mp, 2, {(1, 0): 3}), Lemma1Violation,
         "T_2 g_1 at weight 12 has coordinate 3 on g_2 of weight 24 mod 5"),
        (lambda mp: plant_trace(mp, 2, 20, 1), Lemma1Violation,
         "T_2 at weight 20 mod 5 has trace 2, but the walk's first 1 terms sum to 1"),
    ],
    ids=("root-outside-serre-set", "off-the-flag", "trace"),
)
def test_violation_messages(monkeypatch, plant, error, message):
    plant(monkeypatch)
    p = 11 if error is EigenvalueViolation else 2
    with pytest.raises(error) as info:
        root_sequence(p, 5, 0, max_weight=24, require_two_periods=False)
    assert type(info.value) is error
    assert str(info.value) == message


def lead_off(monkeypatch):
    """Plant a wrong q^2 coefficient in every read of delta^2 E4^b E6^c."""
    real_read = hecke._Factors.read

    def read(table, a, b, c, top, exponents=None):
        f = real_read(table, a, b, c, top, exponents)
        if a == 2:
            f[2] += 1
        return f

    monkeypatch.setattr(hecke, "_SHARED", {})
    monkeypatch.setattr(hecke._Factors, "read", read)


# Each kind of failure a walk raises, through `table --ell 5`, whose first
# cell is T_11 on class 0 mod 4: g_1, g_2, ... enter at 12, 24, 36, ...,
# and every term is 2.  The eigenvalue failure is
# test_cli.py::test_eigenvalue_failure_exits_3.
@pytest.mark.parametrize(
    "plant, message",
    [
        (lambda mp: plant_matrix(mp, 11, {(2, 1): 4}),
         "T_11 g_2 at weight 24 has coordinate 4 on g_3 of weight 36 mod 5"),
        (lambda mp: plant_trace(mp, 11, 12, 1),
         "T_11 at weight 12 mod 5 has trace 3, but the walk's first 1 terms sum to 2"),
        (lead_off, "basis element 1 at k=24 does not lead with q^2"),
        (lambda mp: mp.setattr(modfactor, "minimal_period", lambda terms: None),
         "no period for p=11 ell=5 class 0 up to weight 110 (9 terms)"),
    ],
    ids=("lemma1-flag", "lemma1-trace", "span", "period"),
)
def test_a_failing_walk_exits_3(monkeypatch, capsys, plant, message):
    plant(monkeypatch)
    assert main(["table", "--ell", "5"]) == 3
    assert capsys.readouterr() == ("", "falsification: %s\n" % message)


def cpus(monkeypatch, count):
    """Report `count` usable CPUs to anything that asks the os module."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("ell", [5, 7, 13])
def test_cells_do_not_depend_on_the_number_of_workers(monkeypatch, ell):
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    cpus(monkeypatch, 1)
    one = table_rows(ell)
    assert one == [
        root_sequence(p, ell, kclass)
        for p in modfactor.ROW_PRIMES.get(ell, (2,))
        for kclass in modfactor.KCLASSES[ell]
    ]
    for count in (2, 3):
        cpus(monkeypatch, count)
        assert table_rows(ell) == one, count
    assert forks == []
    assert_no_child_left()


def test_small_walks_and_threaded_callers_run_in_this_process(monkeypatch):
    def fork():
        raise AssertionError("forked")

    cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    assert len(table_rows(5, 40, single_period=True)) == 8
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert len(table_rows(5, single_period=True)) == 8
        assert len(table_rows(5)) == 8
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()


def plant_cell(monkeypatch, cells):
    """Plant {(p, first weight of the flag): {(row, column): value}} in flag matrices."""
    real = modfactor.flag_matrix

    def planted(n, weights, modulus):
        matrix = [list(row) for row in real(n, weights, modulus)]
        for (i, j), value in cells.get((n, weights[0]), {}).items():
            matrix[i][j] = value
        return matrix

    monkeypatch.setattr(modfactor, "flag_matrix", planted)


# The cells of `table --ell 5`, in order: (11, 0), (11, 2), (2, 0), (2, 2), ...
# Class 0 mod 4 starts its flag at weight 12, class 2 at weight 18, and g_2
# enters at 24 and 30.  The ids keep the names of the days when class 0 was
# walked in the parent and class 2 in a forked child; a table is now walked in
# one process, cell by cell, and stops at the earliest failing cell.
PLANTS = {
    # 11 = 1 mod 5 allows only the root 2
    "child-eigenvalue": ({(11, 18): {(0, 0): 3}}, (11, 2)),
    "child-lemma1": ({(2, 18): {(1, 0): 1}}, (2, 2)),
    "parent-lemma1": ({(2, 12): {(1, 0): 1}}, (2, 0)),
    "earliest-in-child": ({(11, 18): {(0, 0): 3}, (2, 12): {(1, 0): 1}}, (11, 2)),
    "earliest-in-parent": ({(11, 12): {(0, 0): 3}, (2, 18): {(1, 0): 1}}, (11, 0)),
}
MESSAGES = {
    (11, 2): (EigenvalueViolation, "T_11 at weight 18 mod 5 has root 3 outside {p^m + p^n mod 5} = {2}"),
    (11, 0): (EigenvalueViolation, "T_11 at weight 12 mod 5 has root 3 outside {p^m + p^n mod 5} = {2}"),
    (2, 2): (Lemma1Violation, "T_2 g_1 at weight 18 has coordinate 1 on g_2 of weight 30 mod 5"),
    (2, 0): (Lemma1Violation, "T_2 g_1 at weight 12 has coordinate 1 on g_2 of weight 24 mod 5"),
}


@pytest.mark.parametrize("plants", PLANTS.values(), ids=PLANTS)
def test_a_failing_cell_fails_as_with_one_worker(monkeypatch, capsys, plants):
    cells, (p, kclass) = plants
    plant_cell(monkeypatch, cells)
    error, message = MESSAGES[(p, kclass)]
    # the earliest failing cell fails on its own as it fails the table
    with pytest.raises(error) as info:
        root_sequence(p, 5, kclass)
    assert str(info.value) == message
    runs = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        runs.append((main(["table", "--ell", "5"]), *capsys.readouterr()))
    assert runs[0] == runs[1] == (3, "", "falsification: %s\n" % message)
    assert_no_child_left()


def test_an_interrupted_walk_kills_its_children(monkeypatch):
    real = modfactor.flag_matrix
    walked = []

    def interrupted(n, weights, modulus):
        walked.append((n, weights[0]))
        if (n, weights[0]) == (2, 18):
            raise KeyboardInterrupt
        return real(n, weights, modulus)

    cpus(monkeypatch, 2)
    monkeypatch.setattr(modfactor, "flag_matrix", interrupted)
    with pytest.raises(KeyboardInterrupt):
        table_rows(5)
    # the interrupt ends the walk at the fourth cell, (2, 2), and leaves no process behind
    assert walked == [(11, 12), (11, 18), (2, 12), (2, 18)]
    assert_no_child_left()


def test_quotient_sequence_reassembles():
    running = charpoly_mod(2, 12, 5)
    for k in range(12, 57, 4):
        q = lemma1_quotient(2, 5, k)
        assert len(q) - 1 == dim_cusp(k + 4) - dim_cusp(k)
        running = mul(running, q, 5)
        assert running == charpoly_mod(2, k + 4, 5)


def test_small_ell_closed_forms():
    for p in (3, 5, 7):
        for k in range(12, 42, 2):
            assert small_ell_rule(p, k, 2) == charpoly_mod(p, k, 2)
    for p in (2, 5, 7, 13):
        for k in range(12, 42, 2):
            assert small_ell_rule(p, k, 3) == charpoly_mod(p, k, 3)
    assert small_ell_rule(3, 24, 2) == (0, 0, 1)
    assert small_ell_rule(7, 24, 3) == mul((1, 1), (1, 1), 3)  # (x - 2)^2 mod 3
    with pytest.raises(ValueError):
        small_ell_rule(2, 24, 5)
    with pytest.raises(ValueError):
        small_ell_rule(3, 24, 3)


def test_congruence_class_invariance():
    for k in range(12, 38, 2):
        assert congruence_class_invariance(2, 7, 5, k)
    with pytest.raises(ValueError):
        congruence_class_invariance(2, 3, 5, 12)
    with pytest.raises(ValueError):
        congruence_class_invariance(2, 13, 11, 12)


def test_serre_eigenvalue_sets():
    assert serre_eigenvalue_set(2, 7) == frozenset({1, 2, 3, 4, 5, 6})
    # brute force the definition for (3, 5)
    powers = [pow(3, m, 5) for m in range(4)]
    brute = {(a + b) % 5 for a in powers for b in powers}
    assert serre_eigenvalue_set(3, 5) == frozenset(brute)


def test_serre_classification_sample():
    for k in range(12, 42, 2):
        for ell, p in ((7, 2), (5, 3)):
            allowed = serre_eigenvalue_set(p, ell)
            assert set(roots(charpoly_mod(p, k, ell), ell)) <= allowed
