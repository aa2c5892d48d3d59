from math import isqrt

import pytest

from heckemod._kron import pack, pack_signed, unpack, unpack_mod, unpack_signed, width

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
        assert unpack_signed(pack_signed(ss, w), n, w) == ss

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
        assert unpack_signed(pack_signed(xs, w) * pack_signed(ys, w), n, w) == want

        # width holds its bound in whole bytes
        bound = n * top * top
        assert width(bound) % 8 == 0 and bound < 1 << width(bound)

    check()
