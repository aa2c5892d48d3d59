import json

from heckemod import cache as cache_module
from heckemod.cache import CharpolyCache, record_line
from heckemod.hecke import IntPoly, charpoly


def test_record_line_is_canonical():
    line = record_line(2, 12, IntPoly((24, 1)))
    assert line == '{"coeffs": ["24", "1"], "k": 12, "p": 2}\n'
    rec = json.loads(line)
    assert [int(c) for c in rec["coeffs"]] == [24, 1]


def test_memory_cache_round_trip():
    cache = CharpolyCache()
    assert cache.get(2, 12) is None
    f = cache.charpoly(2, 12)
    assert f.coeffs == (24, 1)
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
    assert reload.get(2, 16).coeffs == (-216, 1)

    # re-putting known keys must not append duplicates
    reload.put(2, 12, IntPoly((24, 1)))
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
    assert cache.charpoly(2, 48) == charpoly(2, 48)
    assert cache.charpoly(2, 48) == charpoly(2, 48)
    assert calls == [(2, 48), (4, 48)]
    assert kernel_calls == [(2, 48, cache_module.KERNEL_CHECK_PRIME)]
    assert path.read_text().count("\n") == 28
