import os
import threading

import pytest

from heckemod import _forked, modfactor
from heckemod.cli import main
from heckemod.errors import (
    EigenvalueViolation,
    Lemma1Violation,
    PeriodNotFound,
    SplittingViolation,
)
from heckemod.gfpoly import divide_exact, mul, roots
from heckemod.hecke import dim_cusp
from heckemod.modfactor import (
    FORK_FROM_WEIGHT,
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
    # in every table cell mod 5 and mod 13, the first dim(k) terms are
    # exactly the roots of T_p mod ell at each weight k the walk visits,
    # found by factoring the whole polynomial, which the walk does not
    for ell in (5, 13):
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
    with pytest.raises(PeriodNotFound):
        root_sequence(2, 5, 0, max_weight=20)
    with pytest.raises(ValueError):
        root_sequence(2, 11, 0)


def test_table_rows_mod5():
    cells = table_rows(5)
    assert len(cells) == 8
    for cell in cells:
        assert cell.one_period() == TABLE_5[(cell.p, cell.kclass)]
        assert cell.period == len(cell.one_period())
        assert cell.ell == 5


def poison(monkeypatch, key, poly):
    """Plant a wrong polynomial for one (p, k) in the kernel modfactor calls."""
    real = modfactor.charpoly

    def planted(p, k, modulus=None):
        if (p, k) == key:
            return poly
        return real(p, k, modulus)

    monkeypatch.setattr(modfactor, "charpoly", planted)


def test_splitting_violation_detected(monkeypatch):
    # (x - 1)(x^2 + 2): weight 20's x - 1 divides it, but x^2 + 2 has no
    # roots mod 5, and the dimension at 24 is 2
    poison(monkeypatch, (2, 24), mul((4, 1), (2, 0, 1), 5))
    with pytest.raises(SplittingViolation):
        root_sequence(2, 5, 0)


def test_nesting_violation_detected(monkeypatch):
    # root 2 at weight 16 would drop the root 1 seen at weight 12: the
    # walk's exact division by weight 12's x - 1 is the Lemma 1 check
    poison(monkeypatch, (2, 16), (-2, 1))
    with pytest.raises(Lemma1Violation):
        root_sequence(2, 5, 0)


@pytest.mark.parametrize(
    "key, poly, error, message",
    [
        ((2, 16), (2, 0, 1), Lemma1Violation,
         "T_2 at weight 12 does not divide weight 16 mod 5 (remainder 3)"),
        ((2, 16), (-2, 1), Lemma1Violation,
         "T_2 at weight 12 does not divide weight 16 mod 5 (remainder 4)"),
        # (x - 1)(x^2 + 2): the previous root 1 divides, the quotient does not split
        ((2, 24), mul((4, 1), (2, 0, 1), 5), SplittingViolation,
         "T_2 at weight 24 mod 5 has 1 roots in F_5, dimension is 2"),
        # 11 = 1 mod 5 allows only the root 1 + 1 = 2; x - 3 divides and splits
        ((11, 12), (-3, 1), EigenvalueViolation,
         "T_11 at weight 12 mod 5 has root 3 outside {p^m + p^n mod 5} = {2}"),
    ],
    ids=("no-root", "lost-root", "quotient-does-not-split", "root-outside-serre-set"),
)
def test_violation_messages(monkeypatch, key, poly, error, message):
    poison(monkeypatch, key, poly)
    with pytest.raises(error) as info:
        root_sequence(key[0], 5, 0)
    assert type(info.value) is error
    assert str(info.value) == message


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


def workers(monkeypatch, count):
    """Make table_rows see `count` usable CPUs."""
    monkeypatch.setattr(_forked, "_usable_cpus", lambda: count)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("ell", [5, 7, 13])
def test_cells_do_not_depend_on_the_number_of_workers(monkeypatch, ell):
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    workers(monkeypatch, 1)
    one = table_rows(ell)
    assert forks == []
    for count in (2, 3):
        workers(monkeypatch, count)
        assert table_rows(ell) == one, count
        assert len(forks) == count - 1
        forks.clear()
        assert_no_child_left()


def test_jobs_are_shared_by_cost_and_run_costliest_first():
    costs = [p + 20 for p in modfactor.ROW_PRIMES[7] for _ in modfactor.KCLASSES[7]]
    groups = _forked._groups(costs, 2)
    assert sorted(sum(groups, [])) == list(range(18))
    for group in groups:
        assert [costs[i] for i in group] == sorted((costs[i] for i in group), reverse=True)
    loads = [sum(costs[i] for i in group) for group in groups]
    assert abs(loads[0] - loads[1]) <= max(costs)


def test_small_walks_and_threaded_callers_run_in_this_process(monkeypatch):
    def fork():
        raise AssertionError("forked")

    workers(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    assert len(table_rows(5, FORK_FROM_WEIGHT - 2, single_period=True)) == 8
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert len(table_rows(5, FORK_FROM_WEIGHT, single_period=True)) == 8
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()


def test_cells_no_child_sends_are_walked_in_this_process(monkeypatch):
    workers(monkeypatch, 1)
    one = table_rows(5)
    workers(monkeypatch, 2)
    parent, real_run_group = os.getpid(), _forked._run_group

    def dying(job, group):
        if os.getpid() != parent:
            os._exit(1)  # a child that dies before it sends
        return real_run_group(job, group)

    with monkeypatch.context() as mp:
        mp.setattr(_forked, "_run_group", dying)
        assert table_rows(5) == one
    assert_no_child_left()

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert table_rows(5) == one


# With two workers mod 5, the cells of class 0 mod 4 (cells 0, 2, 4, 6) run
# in this process and those of class 2 (cells 1, 3, 5, 7) in the child.
PLANTS = {
    "child-eigenvalue": {(11, 18): (-3, 1)},  # 11 = 1 mod 5 allows only the root 2
    "child-lemma1": {(2, 22): (2, 0, 1)},  # x^2 + 2 has no root mod 5
    "parent-lemma1": {(2, 16): (2, 0, 1)},
    "earliest-in-child": {(11, 18): (-3, 1), (2, 16): (2, 0, 1)},  # cell 1 before cell 2
    "earliest-in-parent": {(11, 12): (-3, 1), (2, 22): (2, 0, 1)},  # cell 0 before cell 3
}


@pytest.mark.parametrize("plants", PLANTS.values(), ids=PLANTS)
def test_a_failing_cell_fails_as_with_one_worker(monkeypatch, capsys, plants):
    costs = [p + 20 for p in modfactor.ROW_PRIMES[5] for _ in modfactor.KCLASSES[5]]
    assert _forked._groups(costs, 2)[1] == [7, 1, 5, 3]
    real = modfactor.charpoly
    monkeypatch.setattr(modfactor, "charpoly", lambda p, k, m=None: plants.get((p, k)) or real(p, k, m))
    runs = []
    for count in (1, 2):
        workers(monkeypatch, count)
        code = main(["table", "--ell", "5"])
        runs.append((code, *capsys.readouterr()))
        assert_no_child_left()
    assert runs[0] == runs[1]
    assert runs[0][:2] == (3, "") and runs[0][2].startswith("falsification: T_")


def test_an_interrupted_walk_kills_its_children(monkeypatch):
    parent, real = os.getpid(), modfactor.charpoly

    def interrupted(p, k, m=None):
        if os.getpid() == parent and (p, k) == (2, 60):
            raise KeyboardInterrupt
        return real(p, k, m)

    workers(monkeypatch, 2)
    monkeypatch.setattr(modfactor, "charpoly", interrupted)
    with pytest.raises(KeyboardInterrupt):
        table_rows(5)
    assert_no_child_left()
