import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest

from heckemod.cache import CharpolyCache, record_line
from heckemod.cli import main
from heckemod.errors import ComputationError
from heckemod.hecke import charpoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    return list(csv.reader(io.StringIO(out)))


def test_charpoly_text_examples(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--prime", "2", "--weight", "12")
    assert code == 0 and out == "x + 24\n"

    code, out, _ = run_cli(capsys, "charpoly", "--prime", "2", "--weight", "24", "--ell", "5")
    assert code == 0 and out == "(x + 1)(x + 4) over F_5\n"

    code, out, _ = run_cli(capsys, "charpoly", "--prime", "2", "--weight", "10")
    assert code == 0 and out == "1 (dim 0)\n"


def test_charpoly_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "charpoly", "--prime", "2", "--weight", "24", "--ell", "5", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["p"] == 2 and obj["k"] == 24 and obj["dim"] == 2
    assert obj["coeffs"] == ["-20468736", "-1080", "1"]
    assert all(isinstance(c, str) for c in obj["coeffs"])
    assert obj["ell"] == 5 and obj["unit"] == 1
    assert [f["coeffs"] for f in obj["factors"]] == [[1, 1], [4, 1]]
    # keys come out sorted
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_charpoly_csv_fixed_columns(capsys):
    _, plain, _ = run_cli(capsys, "charpoly", "--prime", "2", "--weight", "12", "--format", "csv")
    _, modded, _ = run_cli(
        capsys, "charpoly", "--prime", "2", "--weight", "12", "--ell", "7", "--format", "csv"
    )
    rows_a, rows_b = parse_csv(plain), parse_csv(modded)
    assert rows_a[0] == ["p", "k", "dim", "coeffs", "ell", "factors"]
    assert len(rows_a[1]) == len(rows_b[1]) == 6
    assert rows_a[1][:4] == ["2", "12", "1", "24;1"]
    assert rows_b[1][4] == "7"


def test_charpoly_prints_coefficients_past_the_int_string_limit(capsys, monkeypatch):
    # T_2 at weight 600 has such coefficients; a planted cache skips the computation
    big = 10**5000 + 7
    text = "1" + "0" * 4999 + "7"
    monkeypatch.setattr(CharpolyCache, "charpoly", lambda self, p, k: (-big, big, 1))
    args = ["charpoly", "--prime", "2", "--weight", "600"]
    assert run_cli(capsys, *args) == (0, "x^2 + %sx - %s\n" % (text, text), "")
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0 and json.loads(out)["coeffs"] == ["-" + text, text, "1"]
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0 and parse_csv(out)[1][3] == "-%s;%s;1" % (text, text)


def test_trace_outputs(capsys):
    code, out, _ = run_cli(capsys, "trace", "--n", "2", "--weight", "12")
    assert code == 0 and out == "-24\n"
    code, out, _ = run_cli(capsys, "trace", "--n", "2", "--weight", "12", "--format", "json")
    assert json.loads(out) == {"n": 2, "k": 12, "trace": "-24"}
    code, out, _ = run_cli(capsys, "trace", "--n", "2", "--weight", "12", "--format", "csv")
    assert parse_csv(out) == [["n", "k", "trace"], ["2", "12", "-24"]]


def test_table_text_mod5(capsys):
    code, out, _ = run_cli(capsys, "table", "--ell", "5")
    assert code == 0
    assert "p = 11 (class 1): (2) | (2)" in out
    assert "p = 2 (class 2): (1, 4) | (2, 3)" in out
    assert "p = 3 (class 3): (2, 3) | (1, 4)" in out
    assert "p = 19 (class 4): (0) | (0)" in out


def test_table_json_and_csv_mod5(capsys):
    code, out, _ = run_cli(capsys, "table", "--ell", "5", "--format", "json")
    obj = json.loads(out)
    assert obj["ell"] == 5 and len(obj["cells"]) == 8
    cell = next(c for c in obj["cells"] if c["p"] == 2 and c["kclass"] == 0)
    assert cell["terms"] == [1, 4] and cell["period"] == 2

    code, out, _ = run_cli(capsys, "table", "--ell", "5", "--format", "csv")
    rows = parse_csv(out)
    assert rows[0] == ["ell", "p", "p_class", "kclass", "period", "max_weight", "terms"]
    assert len(rows) == 9 and all(len(r) == 7 for r in rows)
    assert ["5", "2", "2", "0", "2", "110", "1;4"] in rows


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_table_mod7_full_output(capsys, fmt):
    # T_29 mod 7 runs to dimension 17, the longest walks of any table
    with open(os.path.join(DATA, "table_ell7." + fmt), encoding="ascii", newline="") as fh:
        expected = fh.read()
    assert run_cli(capsys, "table", "--ell", "7", "--format", fmt) == (0, expected, "")


@pytest.mark.parametrize("ell", [5, 7, 13])
def test_table_output_does_not_depend_on_the_number_of_workers(monkeypatch, capsys, ell):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    for fmt in ("text", "json", "csv"):
        runs = []
        for count in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            runs.append(run_cli(capsys, "table", "--ell", str(ell), "--format", fmt))
        assert runs[0][0] == 0 and runs[0] == runs[1] == runs[2], fmt


def test_period_output(capsys):
    code, out, _ = run_cli(capsys, "period", "--prime", "2", "--ell", "5", "--kclass", "0")
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(
        capsys, "period", "--prime", "2", "--ell", "5", "--kclass", "0", "--format", "json"
    )
    obj = json.loads(out)
    assert obj["period"] == 2 and obj["terms"][:4] == [1, 4, 1, 4]


def test_period_not_found_is_exit_3(monkeypatch, capsys):
    from heckemod import modfactor

    # the default window, or a longer one, must show two periods
    monkeypatch.setattr(modfactor, "minimal_period", lambda terms: None)
    for window, message in (((), "110 (9 terms)"), (("--max-weight", "400"), "400 (33 terms)")):
        code, out, err = run_cli(capsys, "period", "--prime", "2", "--ell", "5", "--kclass", "0", *window)
        assert (code, out) == (3, "")
        assert err == "falsification: no period for p=2 ell=5 class 0 up to weight %s\n" % message


@pytest.mark.parametrize(
    "command, message",
    [
        (("table", "--ell", "5"), "no period for p=11 ell=5 class 0 up to weight 20 (1 terms)"),
        (("period", "--prime", "2", "--ell", "5", "--kclass", "0"),
         "no period for p=2 ell=5 class 0 up to weight 20 (1 terms)"),
    ],
    ids=("table", "period"),
)
def test_a_short_window_without_a_period_is_a_usage_error(capsys, command, message):
    # a window shorter than the default one cannot contradict the published tables
    code, out, err = run_cli(capsys, *command, "--max-weight", "20")
    assert (code, out) == (1, "")
    assert err == "error: %s; pass --single-period, or walk to the default weight 110\n" % message


@pytest.mark.parametrize(
    "command", [("table", "--ell", "5"), ("period", "--prime", "2", "--ell", "5", "--kclass", "0")]
)
@pytest.mark.parametrize("single", [(), ("--single-period",)])
@pytest.mark.parametrize("max_weight", ["4", "-10"])
def test_window_below_the_first_weight_is_a_usage_error(capsys, command, single, max_weight):
    # a window with no weight of the class checks nothing, so it falsifies nothing
    code, out, err = run_cli(capsys, *command, "--max-weight", max_weight, *single)
    assert (code, out) == (1, "")
    assert "falsification" not in err
    assert "class 0 mod 4 up to weight %s: the class starts at weight 12" % max_weight in err


def test_certify_output(capsys):
    code, out, _ = run_cli(capsys, "certify", "--prime", "2", "--weight", "24")
    assert code == 0
    assert "irreducible: yes (rule IrreducibleModEll)" in out
    assert "full symmetric group: yes (rule JordanCriterion)" in out

    code, out, _ = run_cli(
        capsys, "certify", "--prime", "2", "--weight", "24", "--format", "json"
    )
    obj = json.loads(out)
    assert obj["irreducible"]["found"] and obj["full_symmetric"]["found"]
    assert obj["irreducible"]["rule"] == "IrreducibleModEll"

    code, out, _ = run_cli(
        capsys, "certify", "--prime", "2", "--weight", "24", "--format", "csv"
    )
    rows = parse_csv(out)
    assert rows[0] == ["p", "k", "claim", "found", "rule", "reason"]
    assert len(rows) == 3 and all(len(r) == 6 for r in rows[1:])


def test_deduce_output(capsys):
    code, out, _ = run_cli(capsys, "deduce", "--target-prime", "3", "--weight", "24")
    assert code == 0
    assert "irreducible with full symmetric Galois group" in out
    assert "rule Theorem1, unconditional" in out
    assert "first terms (2, 3)" in out

    code, out, _ = run_cli(
        capsys, "deduce", "--target-prime", "3", "--weight", "24", "--format", "json"
    )
    obj = json.loads(out)
    assert obj["unconditional"] is True
    assert obj["target"]["rule"] == "Theorem1"

    code, out, _ = run_cli(
        capsys, "deduce", "--target-prime", "29", "--weight", "24", "--format", "csv"
    )
    rows = parse_csv(out)
    assert rows[1][4] == "false"  # no deduction for 29 = +-1 mod 5 and 7
    assert len(rows[1]) == 7


def test_cache_round_trip_byte_identical(tmp_path, capsys):
    d = str(tmp_path / "cache")
    args = ["charpoly", "--prime", "2", "--weight", "24", "--cache-dir", d]
    _, out1, _ = run_cli(capsys, *args)
    blob1 = (tmp_path / "cache" / "p2.jsonl").read_bytes()
    _, out2, _ = run_cli(capsys, *args)  # cache hit, no new append
    assert (tmp_path / "cache" / "p2.jsonl").read_bytes() == blob1

    (tmp_path / "cache" / "p2.jsonl").unlink()
    _, out3, _ = run_cli(capsys, *args)
    assert (tmp_path / "cache" / "p2.jsonl").read_bytes() == blob1
    assert out1 == out2 == out3


def test_torn_cache_line_is_recomputed(tmp_path, capsys):
    d = tmp_path / "cache"
    for k in ("24", "36"):
        run_cli(capsys, "charpoly", "--prime", "2", "--weight", k, "--cache-dir", str(d))
    path = d / "p2.jsonl"
    torn = path.read_bytes()[:-20]  # a crash in the middle of the last append
    path.write_bytes(torn)

    code, out, err = run_cli(
        capsys, "certify", "--prime", "2", "--weight", "36", "--cache-dir", str(d)
    )
    assert (code, err) == (0, "")
    assert out == (
        "T_2 at weight 36, degree 3\n"
        "irreducible: yes (rule IrreducibleModEll)\n"
        "full symmetric group: yes (rule JordanCriterion)\n"
    )
    # the recomputed record starts on its own line after the torn one
    assert path.read_bytes() == torn + b"\n" + record_line(2, 36, charpoly(2, 36)).encode()
    assert CharpolyCache(str(d)).get(2, 36) == charpoly(2, 36)


@pytest.mark.parametrize(
    "record",
    [
        '{"coeffs": ["5", "1"], "k": 24, "p": 2}\n',
        # right degree, but the x coefficient is not -trace(T_2) = -1080
        '{"coeffs": ["-20468736", "-1081", "1"], "k": 24, "p": 2}\n',
        # right trace, but c_1^2 - 2 c_0 is not trace(T_4) + 2^23 * 2
        '{"coeffs": ["-20468737", "-1080", "1"], "k": 24, "p": 2}\n',
    ],
    ids=["wrong-degree", "wrong-trace", "wrong-trace-of-square"],
)
def test_wrong_degree_cache_record_is_recomputed(tmp_path, capsys, record):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "p2.jsonl").write_text(record)

    code, out, _ = run_cli(
        capsys, "charpoly", "--prime", "2", "--weight", "24", "--ell", "5", "--cache-dir", str(bad)
    )
    assert code == 0 and out == "(x + 1)(x + 4) over F_5\n"
    assert (bad / "p2.jsonl").read_text() == record + record_line(2, 24, charpoly(2, 24))

    (bad / "p2.jsonl").write_text(record)
    args = ["deduce", "--target-prime", "3", "--weight", "24", "--format", "json"]
    code, out, _ = run_cli(capsys, *args, "--cache-dir", str(bad))
    _, clean, _ = run_cli(capsys, *args, "--cache-dir", str(tmp_path / "clean"))
    assert code == 0 and out == clean
    anchor = json.loads(out)["anchor_irreducible"]
    assert anchor["degree"] == 2
    assert anchor["evidence"] == [{"ell": 23, "kind": "cycle-type", "partition": [2]}]


def test_cache_record_with_a_wrong_low_coefficient_is_recomputed(tmp_path, capsys):
    # degree 4: both trace checks pass with the constant term raised by 1
    right = charpoly(2, 48)
    record = record_line(2, 48, (right[0] + 1,) + right[1:])
    (tmp_path / "p2.jsonl").write_text(record)

    args = ["charpoly", "--prime", "2", "--weight", "48", "--ell", "5"]
    code, out, _ = run_cli(capsys, *args, "--cache-dir", str(tmp_path))
    assert code == 0 and out == "(x + 1)^2(x + 4)^2 over F_5\n"
    assert (tmp_path / "p2.jsonl").read_text() == record + record_line(2, 48, charpoly(2, 48))


def test_unusable_cache_dir_exits_2(tmp_path, capsys):
    not_a_dir = tmp_path / "F"
    not_a_dir.write_text("")
    code, out, err = run_cli(
        capsys, "charpoly", "--prime", "2", "--weight", "24", "--cache-dir", str(not_a_dir)
    )
    assert code == 2 and out == ""
    assert err.startswith("computation error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_table_and_period_leave_the_cache_alone(tmp_path, capsys):
    d = tmp_path / "cache"
    table = ["table", "--ell", "5", "--max-weight", "60", "--single-period"]
    code, _, _ = run_cli(capsys, *table, "--cache-dir", str(d))
    assert code == 0
    code, out, _ = run_cli(
        capsys, "period", "--prime", "2", "--ell", "5", "--kclass", "0", "--cache-dir", str(d)
    )
    assert code == 0 and out == "2\n"
    assert not list(tmp_path.glob("**/p*.jsonl"))


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "charpoly", "--prime", "4", "--weight", "12")
    assert code == 1 and "not prime" in err
    code, _, err = run_cli(capsys, "charpoly", "--prime", "2", "--weight", "13")
    assert code == 1 and "even" in err
    code, _, err = run_cli(capsys, "charpoly", "--prime", "5", "--weight", "12", "--ell", "5")
    assert code == 1 and "distinct" in err
    code, _, err = run_cli(capsys, "table", "--ell", "11")
    assert code == 1

    with pytest.raises(SystemExit) as exc:
        main(["charpoly", "--prime", "2"])  # missing --weight
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 1


# each command's own options; every command also takes the common three
OWN_OPTIONS = {
    "charpoly": "--prime --weight --ell",
    "table": "--ell --max-weight --single-period",
    "trace": "--n --weight",
    "period": "--prime --ell --kclass --max-weight --single-period",
    "certify": "--prime --weight --bound",
    "deduce": "--target-prime --weight --anchor --bound",
}
COMMON = {"format": "text", "cache_dir": None, "seed": 0}


@pytest.mark.parametrize(
    "argv, options",
    [
        ("trace --n 2 --weight 24", dict(COMMON, n=2, weight=24)),
        ("charpoly --prime 2 --weight 24", dict(COMMON, prime=2, weight=24, ell=None)),
        ("table --ell 5", dict(COMMON, ell=5, max_weight=None, single_period=False)),
        ("certify --prime 2 --weight 24", dict(COMMON, prime=2, weight=24, bound=200)),
        ("deduce --target-prime 3 --weight 24",
         dict(COMMON, target_prime=3, weight=24, anchor=2, bound=200)),
        # --name=value, any order, unique prefixes, the last repeat wins
        ("trace --weight=24 --format=json --n=2", dict(COMMON, n=2, weight=24, format="json")),
        ("trace --weig 24 --n 3 --f csv --n 2 --cache-dir=d --se 7",
         dict(n=2, weight=24, format="csv", cache_dir="d", seed=7)),
        ("table --single --ell 13 --max-weight -10",
         dict(COMMON, ell=13, max_weight=-10, single_period=True)),
        ("period --prime 2 --ell 5 --kclass 0 --single-period --seed=-3",
         dict(COMMON, prime=2, ell=5, kclass=0, max_weight=None, single_period=True, seed=-3)),
    ],
)
def test_parse_args_reads_options_after_the_command(argv, options):
    from heckemod import cli

    func, args = cli.parse_args(argv.split())
    assert func is cli.COMMANDS[argv.split()[0]][0]
    assert {name: getattr(args, name) for name in options} == options
    assert {"--" + name.replace("_", "-") for name in vars(args)} == set(
        OWN_OPTIONS[argv.split()[0]].split() + ["--format", "--cache-dir", "--seed"]
    )


@pytest.mark.parametrize(
    "argv, error",
    [
        ("", "the following arguments are required: command"),
        ("nosuchcommand", "argument command: invalid choice: 'nosuchcommand'"),
        # the common options follow the command
        ("--format json trace --n 2 --weight 24", "argument command: invalid choice: '--format'"),
        ("table --s --ell 5", "ambiguous option: --s could match --single-period, --seed"),
        ("trace --n 2 --weight 24 --bogus 1", "unrecognized arguments: --bogus"),
        ("trace 5 --n 2 --weight 24", "unrecognized arguments: 5"),
        ("trace --n 2 --weight", "argument --weight: expected one argument"),
        ("trace --n --weight 24", "argument --n: expected one argument"),
        ("trace --n x --weight 24", "argument --n: invalid int value: 'x'"),
        ("trace --n= --weight 24", "argument --n: invalid int value: ''"),
        ("trace --n 2 --weight 24 --format xml", "argument --format: invalid choice: 'xml'"),
        ("table --ell 5 --single-period=yes", "argument --single-period: ignored explicit argument 'yes'"),
        ("charpoly --prime 2", "the following arguments are required: --weight"),
        ("deduce --bound 7", "the following arguments are required: --target-prime, --weight"),
    ],
)
def test_parse_errors_print_usage_and_exit_1(capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    usage, message = err.splitlines()
    words = argv.split()
    prog = "heckemod " + words[0] if words and words[0] in OWN_OPTIONS else "heckemod"
    assert out == "" and usage.startswith("usage: " + prog)
    assert message.startswith("%s: error: %s" % (prog, error))


@pytest.mark.parametrize("command", sorted(OWN_OPTIONS))
@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_lists_every_option_and_exits_0(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: heckemod %s " % command)
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("  --")}
    assert listed == set(OWN_OPTIONS[command].split() + ["--format", "--cache-dir", "--seed"])


def test_help_without_a_command_lists_every_command(capsys):
    for argv in (["-h"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        listed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
        assert err == "" and listed == set(OWN_OPTIONS)


def test_charpoly_mod_a_61_bit_prime_is_quick_and_larger_ell_is_refused(capsys):
    ell = 2**61 - 1
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "charpoly", "--prime", "2", "--weight", "24", "--ell", str(ell))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.endswith("over F_%d\n" % ell)
    # past the deterministic range of the primality test there is no answer
    code, out, err = run_cli(
        capsys, "charpoly", "--prime", "2", "--weight", "24", "--ell", "3317044064679887385961981"
    )
    assert code == 1 and out == "" and "too large" in err


def test_computation_errors_exit_2(capsys, monkeypatch):
    def boom(self, p, k):
        raise ComputationError("planted")

    monkeypatch.setattr("heckemod.cache.CharpolyCache.charpoly", boom)
    code, _, err = run_cli(capsys, "charpoly", "--prime", "2", "--weight", "12")
    assert code == 2 and "planted" in err


def plant_off_span(monkeypatch):
    """Give every Hecke image the constant term 1, which no cusp form has."""
    from heckemod import hecke

    monkeypatch.setattr(hecke, "_SHARED", {})
    real = hecke.hecke_action

    def off_span(f, n, k, out_prec, modulus=None):
        image = real(f, n, k, out_prec, modulus)
        return type(image)((1,) + image.coeffs[1:])

    monkeypatch.setattr(hecke, "hecke_action", off_span)


def test_span_failure_exits_3(capsys, monkeypatch):
    plant_off_span(monkeypatch)
    code, out, err = run_cli(capsys, "charpoly", "--prime", "2", "--weight", "24")
    assert code == 3 and out == ""
    assert "falsification" in err and "not in the span" in err
    assert "Traceback" not in err


def test_span_failure_mod_ell_exits_3(capsys, monkeypatch):
    plant_off_span(monkeypatch)
    code, out, err = run_cli(capsys, "table", "--ell", "5")
    assert code == 3 and out == ""
    assert "falsification" in err and "not in the span" in err
    assert "Traceback" not in err


def test_basis_lead_failure_mod_ell_exits_3(capsys, monkeypatch):
    from heckemod import hecke

    real = hecke._Factors.read

    def wrong_lead(table, a, b, c, top, exponents=None):
        f = real(table, a, b, c, top, exponents)
        f[a] += 1  # basis element a - 1 leads with q^a; now with 2 q^a
        return f

    monkeypatch.setattr(hecke, "_SHARED", {})
    monkeypatch.setattr(hecke._Factors, "read", wrong_lead)
    code, out, err = run_cli(capsys, "table", "--ell", "5")
    assert code == 3 and out == ""
    assert "falsification" in err and "does not lead with q^1" in err
    assert "Traceback" not in err


def test_krylov_trace_failure_exits_3(capsys, monkeypatch):
    from heckemod import hecke

    real = hecke._Factors.read

    def a29_off_by_one(table, a, b, c, top, exponents=None):
        f = real(table, a, b, c, top, exponents)
        if exponents == (29,) and a == 1:  # a_29 of basis element 0, read for T_29 from T_2
            f[29] += 1
        return f

    monkeypatch.setattr(hecke, "_SHARED", {})
    monkeypatch.setattr(hecke._Factors, "read", a29_off_by_one)
    code, out, err = run_cli(capsys, "charpoly", "--prime", "29", "--weight", "96")
    # w + e_0 gives K^-1 (W + K) = T_29 + I: integral, only the trace is off by d = 8
    assert code == 3 and out == ""
    assert "falsification" in err and "T_29 from T_2 at k=96 has trace" in err
    assert "Traceback" not in err


def test_krylov_non_integral_failure_exits_3(capsys, monkeypatch):
    from heckemod import hecke

    real = hecke._direct_matrix

    def t2_off_by_one(n, k, table, modulus=None):
        m = real(n, k, table, modulus)
        return ((m[0][0] + (n == 2),) + m[0][1:],) + m[1:]

    # an integral change to a_29 alone keeps T_29 integral (see the hecke docstring);
    # a T_2 that is no Hecke matrix does not
    monkeypatch.setattr(hecke, "_SHARED", {})
    monkeypatch.setattr(hecke, "_direct_matrix", t2_off_by_one)
    code, out, err = run_cli(capsys, "charpoly", "--prime", "29", "--weight", "96")
    assert code == 3 and out == ""
    assert "falsification" in err and "T_29 from T_2 at k=96 is not integral" in err
    assert "Traceback" not in err


def test_eigenvalue_failure_exits_3(capsys, monkeypatch):
    from heckemod import modfactor

    real = modfactor.flag_matrix

    def planted(n, weights, modulus):
        # 11 = 1 mod 5 allows only the root 2; plant 3 as the term of g_1, of weight 12
        matrix = [list(row) for row in real(n, weights, modulus)]
        if (n, weights[0], modulus) == (11, 12, 5):
            matrix[0][0] = 3
        return matrix

    monkeypatch.setattr(modfactor, "flag_matrix", planted)
    code, out, err = run_cli(capsys, "table", "--ell", "5")
    assert (code, out) == (3, "")
    assert err == "falsification: T_11 at weight 12 mod 5 has root 3 outside {p^m + p^n mod 5} = {2}\n"


def test_closed_form_failure_exits_3(capsys, monkeypatch):
    # T_3 mod 2 at weight 24 must be x^2; plant x^2 + x + 1
    monkeypatch.setattr(CharpolyCache, "charpoly", lambda self, p, k: (1, 1, 1))
    code, out, err = run_cli(capsys, "charpoly", "--prime", "3", "--weight", "24", "--ell", "2")
    assert (code, out) == (3, "")
    assert err.startswith("falsification: ") and "closed form" in err
    assert "Traceback" not in err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "heckemod", "charpoly", "--prime", "2", "--weight", "12"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "x + 24\n"


def test_cold_cli_import_loads_neither_dataclasses_nor_inspect():
    def modules(code):
        listing = "import sys\n%s\nprint('\\n'.join(sys.modules))" % code
        proc = subprocess.run([sys.executable, "-c", listing], capture_output=True, text=True, check=True)
        return set(proc.stdout.split())

    added = modules("import heckemod.cli") - modules("pass")
    assert "heckemod.cli" in added
    for name in ("dataclasses", "inspect", "fractions", "decimal", "json", "csv"):
        assert name not in added, name
    # bench/tracing.py rebinds names only in the modules this import loads
    package = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "heckemod")
    own = {"heckemod." + f[:-3] for f in os.listdir(package) if f.endswith(".py")}
    assert own - {"heckemod.__init__", "heckemod.__main__"} <= added

    # a trace runs without fractions or json
    added = modules(
        "import io, contextlib\n"
        "from heckemod.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert main(['trace', '--n', '2809', '--weight', '72']) == 0\n"
        "assert out.getvalue().strip().lstrip('-').isdigit()"
    ) - modules("pass")
    assert "fractions" not in added and "json" not in added


# the 40 public names of `heckemod`
PUBLIC_NAMES = """
    CharpolyCache Certificate ComputationError CycleType EigenvalueViolation
    FactorMultiset FalsificationError InsufficientPrecision
    Lemma1Violation NonIntegralTrace NotFound PeriodNotFound QExpansion
    SpanViolation SquarefreeFailure certify
    certify_full_symmetric certify_irreducible charpoly charpoly_mod
    congruence_class_invariance corollary_conclusion cycle_type deduce delta
    dim_cusp eisenstein4 eisenstein6 factor hecke_matrix
    monomial_basis poly_str reduce_mod root_sequence roots
    serre_eigenvalue_set small_ell_rule table_rows theorem1_conclusion trace
""".split()


def test_package_reads_each_public_name_from_its_module():
    import heckemod

    assert len(PUBLIC_NAMES) == 40 and sorted(heckemod.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        obj = getattr(heckemod, name)
        assert obj.__module__.startswith("heckemod.")
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(PUBLIC_NAMES) <= set(dir(heckemod))
    with pytest.raises(AttributeError):
        heckemod.no_such_name


@pytest.mark.parametrize(
    "argv, runs, skips",
    [
        ("trace --n 2 --weight 24", {"traceformula"},
         {"cache", "galois", "gfpoly", "hecke", "modfactor", "qseries"}),
        ("charpoly --prime 2 --weight 24", {"cache", "hecke"}, {"galois", "gfpoly", "modfactor", "_krylov"}),
        ("table --ell 5", {"modfactor", "traceformula"}, {"cache", "galois", "gfpoly", "_krylov"}),
        ("period --prime 2 --ell 13 --kclass 0", {"modfactor"}, {"cache", "galois", "gfpoly"}),
        ("certify --prime 2 --weight 24", {"galois", "cache"}, {"modfactor"}),
        ("charpoly --prime 29 --weight 96", {"hecke", "_krylov"}, {"galois", "gfpoly", "modfactor"}),
        ("deduce --target-prime 3 --weight 24", {"galois", "modfactor", "traceformula"}, {"_krylov"}),
    ],
)
def test_a_cold_command_runs_only_the_modules_it_calls(argv, runs, skips):
    # a lazy submodule is registered but has not run until its type is ModuleType
    script = """
import contextlib, io, json, sys, types
sys.path.insert(0, %r)
from heckemod.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(%r)
ran = [n.partition(".")[2] for n, m in sys.modules.items() if n.startswith("heckemod.") and type(m) is types.ModuleType]
print(json.dumps([code, ran, "argparse" in sys.modules]))
""" % (os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"), argv.split())
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, ran, argparse_loaded = json.loads(proc.stdout)
    assert code == 0 and not argparse_loaded
    assert runs <= set(ran) and not skips & set(ran), ran


def test_benchmark_tracer_wraps_every_target_and_keeps_table_output(capsys):
    # bench/tracing.py rebinds module attributes, so it runs in a fresh process
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = """
import contextlib, io, json, sys
sys.path[:0] = [%r, %r]
import tracing
from heckemod import cli
tracer = tracing.Tracer()
missing = tracing.install(tracer)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["table", "--ell", "5", "--single-period"])
table_calls = dict(tracer.calls)
# certify and trace call into modules the table never ran
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["certify", "--prime", "2", "--weight", "24"]) == 0
    assert cli.main(["trace", "--n", "2", "--weight", "24"]) == 0
print(json.dumps([sorted(missing), code, out.getvalue(), table_calls, dict(tracer.calls)]))
""" % (os.path.join(root, "src"), os.path.join(root, "bench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    missing, code, traced, calls, later_calls = json.loads(proc.stdout)
    assert missing == []
    assert (code, traced) == run_cli(capsys, "table", "--ell", "5", "--single-period")[:2]
    # the table runs through the spans whose self time the benchmark reports
    for span in ("qseries.mul", "hecke.hecke_action", "modfactor.root_sequence"):
        assert calls.get(span, 0) > 0, span
    # a walk reads its terms off the flag, so no weight's own matrix or polynomial
    for span in ("hecke.hecke_matrix", "hecke.charpoly", "modfactor.charpoly_mod"):
        assert calls.get(span, 0) == 0, span
    for span in ("hecke.hecke_matrix", "hecke.charpoly", "galois.cycle_type", "cache.get", "traceformula.trace"):
        assert later_calls.get(span, 0) > 0, span
