import random
from math import isqrt

import pytest

from heckemod import _kron
from heckemod._kron import _pack_signed, _unpack_signed, pack, product, unpack, unpack_mod, width

# machine words (8, 64 bits) and widths that are not (24, 40, 72)
WIDTHS = (8, 24, 40, 64, 72)


def test_packed_slots_round_trip_and_multiply():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        data=st.data(),
        w=st.sampled_from(WIDTHS),
        n=st.integers(1, 40),
        ell=st.sampled_from((2, 13, 1000003, 2**61 - 1)),
    )
    def check(data, w, n, ell):
        half = 1 << w - 1

        def draw(low, high):
            return data.draw(st.lists(st.integers(low, high), min_size=n, max_size=n))

        # round trips: every slot value, unsigned and signed
        xs = draw(0, 2 * half - 1)
        assert list(unpack(pack(xs, w), n, w)) == xs
        assert unpack_mod(pack(xs, w), n, w, ell) == [x % ell for x in xs]
        ss = draw(1 - half, half - 1)
        assert _unpack_signed(_pack_signed(ss, w), n, w) == ss

        # one product is the schoolbook convolution cut to n slots, while
        # every slot of it stays below 2^w (below 2^(w - 1) in size, signed)
        top = isqrt((2 * half - 1) // n)
        xs, ys = draw(0, top), draw(0, top)
        want = [sum(xs[i] * ys[t - i] for i in range(t + 1)) for t in range(n)]
        assert list(unpack(pack(xs, w) * pack(ys, w), n, w)) == want
        assert unpack_mod(pack(xs, w) * pack(ys, w), n, w, ell) == [c % ell for c in want]
        top = isqrt((half - 1) // n)
        xs, ys = draw(-top, top), draw(-top, top)
        want = [sum(xs[i] * ys[t - i] for i in range(t + 1)) for t in range(n)]
        assert _unpack_signed(_pack_signed(xs, w) * _pack_signed(ys, w), n, w) == want

        # width holds its bound in whole bytes
        bound = n * top * top
        assert width(bound) % 8 == 0 and bound < 1 << width(bound)

    check()


def schoolbook(x, y, n):
    return [sum(x[i] * y[t - i] for i in range(t + 1) if i < len(x) and t - i < len(y)) for t in range(n)]


@pytest.fixture(params=["one product", "two half-width products"])
def path(request, monkeypatch):
    """Forces `product` down one path whatever the operands' size."""
    monkeypatch.setattr(_kron, "SPLIT_BITS", 1 << 62 if request.param == "one product" else 0)


def assert_products(x, y):
    n = min(len(x), len(y))
    want = schoolbook(x, y, n)
    assert product(x, y, n) == want
    assert product(x, x, n) == schoolbook(x, x, n)
    for ell in (2, 5, 7, 13):  # operands reduced mod ell, as the mod-ell callers pass them
        xr, yr = [c % ell for c in x], [c % ell for c in y]
        assert [c % ell for c in product(xr, yr, n)] == [c % ell for c in want]
        assert [c % ell for c in product(xr, xr, n)] == [c % ell for c in schoolbook(x, x, n)]


def test_both_product_paths_match_schoolbook(path):
    rng = random.Random(25)
    for n in (1, 2, 3, 4, 7, 16, 33, 80):
        for bits in (0, 1, 8, 64, 256):
            x = [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]
            y = [rng.randint(-(1 << bits), 1 << bits) for _ in range(rng.randint(1, 90))]
            assert_products(x, y)  # y is as long as x, shorter or longer
            assert_products(x, x[: rng.randint(1, n)])


def test_both_product_paths_with_zero_operands(path):
    rng = random.Random(3)
    for n in (1, 2, 3, 17, 80):
        zero, big = [0] * n, [rng.randint(-(1 << 256), 1 << 256) for _ in range(n)]
        assert_products(zero, zero)
        assert_products(zero, big)
        assert_products(big, zero)


@pytest.mark.parametrize("forced", [False, True])
def test_products_at_the_slot_bound_above_the_cutoff(monkeypatch, forced):
    # |x_i| = |y_j| = 2^m - 1 with constant signs makes the q^(n-1)
    # coefficient exactly n (2^m - 1)^2, the bound the slots are sized from
    if forced:  # small sizes too
        monkeypatch.setattr(_kron, "SPLIT_BITS", 0)
    sizes = [(m, n) for m in (1, 8, 31, 32, 64) for n in (1, 2, 3, 7, 16)] if forced else []
    for m, n in sizes + [(64, 64), (64, 81), (256, 16), (256, 17), (256, 80)]:
        top = (1 << m) - 1
        assert n * width(2 * n * top * top) >= _kron.SPLIT_BITS
        for signs in ((1,), (-1,), (1, -1)):
            x = [signs[i % len(signs)] * top for i in range(n)]
            for sign in (1, -1):
                y = [sign * top] * n
                assert product(x, y, n) == schoolbook(x, y, n)
                assert product(x, x, n) == schoolbook(x, x, n)
