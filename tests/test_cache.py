import json

import pytest

from heckemod import cache as cache_module
from heckemod import hecke
from heckemod.cache import CharpolyCache, _parse_record, record_line
from heckemod.hecke import charpoly


def test_record_line_is_canonical():
    line = record_line(2, 12, (24, 1))
    assert line == '{"coeffs": ["24", "1"], "k": 12, "p": 2}\n'
    rec = json.loads(line)
    assert [int(c) for c in rec["coeffs"]] == [24, 1]
    records = [
        (2, 24, charpoly(2, 24)),
        (3, 24, charpoly(3, 24)),
        (97, 60, (0, -1, 10**30, 1)),
    ]
    for p, k, f in records:
        rec = {"coeffs": [str(c) for c in f], "k": k, "p": p}
        assert record_line(p, k, f) == json.dumps(rec, sort_keys=True) + "\n"


def test_parse_record_reads_the_canonical_line_only():
    f = charpoly(2, 24)
    line = record_line(2, 24, f)[:-1]
    assert _parse_record(line, 2) == ((2, 24), f)
    assert _parse_record(line, 3) is None
    rec = {"coeffs": [str(c) for c in f], "k": 24, "p": 2}
    rejected = [
        json.dumps(rec, sort_keys=True, separators=(",", ":")),
        json.dumps(rec, sort_keys=True, indent=1).replace("\n", ""),
        " " + line,
        line + " ",
        line + "\r",
        json.dumps({"p": 2, "k": 24, "coeffs": rec["coeffs"]}),
        line.replace('"k": 24', '"k": 24.0'),
        line.replace('"k": 24', '"k": -24'),
        line.replace('"k": 24', '"k": "24"'),
        line.replace('"1"]', '"01"]'),
        line.replace('"1"]', '1]'),
        line.replace('"-1080"', '"-1080.0"'),
        line.replace('"1"]', '"\u0661"]'),  # ARABIC-INDIC DIGIT ONE, which int() accepts
    ]
    for variant in rejected:
        # each one is valid JSON
        assert variant != line and json.loads(variant)
        assert _parse_record(variant, 2) is None, variant


@pytest.mark.parametrize("sign", [1, -1])
def test_records_past_the_int_string_limit(sign):
    big = sign * (10**5000 + 7)
    f = (big, -big, 1)  # degree dim S_24
    line = record_line(2, 24, f)
    text = ("-" if sign < 0 else "") + "1" + "0" * 4999 + "7"
    neg = ("-" if sign > 0 else "") + "1" + "0" * 4999 + "7"
    assert line == '{"coeffs": ["%s", "%s", "1"], "k": 24, "p": 2}\n' % (text, neg)
    assert _parse_record(line[:-1], 2) == ((2, 24), f)


def test_memory_cache_round_trip():
    cache = CharpolyCache()
    assert cache.get(2, 12) is None
    f = cache.charpoly(2, 12)
    assert f == (24, 1)
    assert cache.get(2, 12) is f


def test_disk_cache_persists_and_reloads(tmp_path):
    d = str(tmp_path / "cache")
    cache = CharpolyCache(d)
    cache.charpoly(2, 12)
    cache.charpoly(2, 16)
    path = tmp_path / "cache" / "p2.jsonl"
    first = path.read_bytes()
    assert first.count(b"\n") == 2

    # a fresh instance reads records instead of recomputing
    reload = CharpolyCache(d)
    assert reload.get(2, 16) == (-216, 1)

    # re-putting known keys must not append duplicates
    reload.put(2, 12, (24, 1))
    reload.charpoly(2, 16)
    assert path.read_bytes() == first


def test_disk_records_are_byte_identical_across_runs(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for directory in (a, b):
        cache = CharpolyCache(directory)
        for k in (12, 24, 30):
            cache.charpoly(3, k)
    pa = (tmp_path / "a" / "p3.jsonl").read_bytes()
    pb = (tmp_path / "b" / "p3.jsonl").read_bytes()
    assert pa == pb


def test_files_split_by_prime(tmp_path):
    d = str(tmp_path)
    cache = CharpolyCache(d)
    cache.charpoly(2, 12)
    cache.charpoly(3, 12)
    assert (tmp_path / "p2.jsonl").exists()
    assert (tmp_path / "p3.jsonl").exists()


def test_records_are_trace_checked_only_when_read(tmp_path, monkeypatch):
    path = tmp_path / "p2.jsonl"
    path.write_text("".join(record_line(2, k, charpoly(2, k)) for k in range(24, 80, 2)))
    real = cache_module.trace
    calls = []

    def counted(p, k):
        calls.append((p, k))
        return real(p, k)

    kernel_calls = []

    def kernel(p, k, modulus=None):
        kernel_calls.append((p, k, modulus))
        return charpoly(p, k, modulus)

    monkeypatch.setattr(cache_module, "trace", counted)
    monkeypatch.setattr(cache_module, "charpoly", kernel)
    cache = CharpolyCache(str(tmp_path))
    # a T_2 record keeps both checks though 2 >= RECOMPUTE_FROM dim^4 at k = 48
    assert cache.charpoly(2, 48) == charpoly(2, 48)
    assert cache.charpoly(2, 48) == charpoly(2, 48)
    assert calls == [(2, 48), (4, 48)]
    assert kernel_calls == [(2, 48, cache_module.KERNEL_CHECK_PRIME)]
    assert path.read_text().count("\n") == 28


def test_a_planted_huge_weight_is_rejected_without_listing_its_basis(tmp_path, monkeypatch):
    # dim_cusp is closed form, so the degree check costs the same at any k
    def listing(k):
        raise AssertionError("monomial_basis(%d) was called" % k)

    monkeypatch.setattr(hecke, "monomial_basis", listing)
    line = '{"coeffs": ["1"], "k": 1000000, "p": 2}'
    assert _parse_record(line, 2) is None
    (tmp_path / "p2.jsonl").write_text(line + "\n")
    cache = CharpolyCache(str(tmp_path))
    assert cache.get(2, 1000000) is None
    assert cache._mem == {}


def test_get_parses_only_the_lines_of_its_weight(tmp_path, monkeypatch):
    # 29 records of p = 2 and a torn tail; the later line for k = 48 fails its trace check
    path = tmp_path / "p2.jsonl"
    good = record_line(2, 48, charpoly(2, 48))
    wrong = record_line(2, 48, (1, 1, 1, 1))
    others = [record_line(2, k, (0,) * hecke.dim_cusp(k) + (1,))
              for k in range(50, 104, 2)]
    path.write_text(good + "".join(others) + wrong + good[:20])
    real = cache_module._parse_record
    parsed = []

    def counted(line, p):
        parsed.append(line)
        return real(line, p)

    monkeypatch.setattr(cache_module, "_parse_record", counted)
    cache = CharpolyCache(str(tmp_path))
    assert cache.get(2, 48) == charpoly(2, 48)
    assert parsed == [wrong[:-1], good[:-1]]
    assert cache.get(2, 48) == charpoly(2, 48) and len(parsed) == 2
    # the torn tail still gets its fresh line before the next record
    cache.charpoly(2, 12)
    assert path.read_text().endswith(good[:20] + "\n" + record_line(2, 12, charpoly(2, 12)))


@pytest.mark.parametrize("p", [11, 13])
@pytest.mark.parametrize("wrong", [-3, 0])  # c_(d-2), which the T_(p^2) trace sees, and c_0
def test_planted_records_are_rejected_on_both_sides_of_the_crossover(tmp_path, monkeypatch, p, wrong):
    k = 120  # d = 10, so RECOMPUTE_FROM d^4 lies between 11 and 13
    past = p >= cache_module.RECOMPUTE_FROM * hecke.dim_cusp(k) ** 4
    assert past == (p == 13)
    good = charpoly(p, k)
    bad = list(good)
    bad[wrong] += 1
    path = tmp_path / ("p%d.jsonl" % p)
    path.write_text(record_line(p, k, tuple(bad)))
    events = []

    def spy(name, real):
        def call(*args):
            events.append((name,) + (args if name == "charpoly" else ()))
            return real(*args)

        return call

    for name in ("_agrees_with_traces", "_agrees_with_kernel", "charpoly"):
        monkeypatch.setattr(cache_module, name, spy(name, getattr(cache_module, name)))
    assert CharpolyCache(str(tmp_path)).charpoly(p, k) == good
    assert path.read_text() == record_line(p, k, tuple(bad)) + record_line(p, k, good)
    fill = ("charpoly", p, k)
    if past:  # compared with a fresh exact charpoly, which the fill then writes
        assert events == [fill]
    elif wrong == -3:
        assert events == [("_agrees_with_traces",), fill]
    else:  # c_0 passes the traces and fails the kernel
        kernel = ("charpoly", p, k, cache_module.KERNEL_CHECK_PRIME)
        assert events == [("_agrees_with_traces",), ("_agrees_with_kernel",), kernel, fill]
    # the good record appended last passes whichever check its side runs
    assert CharpolyCache(str(tmp_path)).get(p, k) == good
