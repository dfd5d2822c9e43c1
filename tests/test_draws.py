"""The theta-identities suite draws each check's points in one generator
call: the same points, bit for bit, as one draw at a time, and the
generator left in the same state."""

import numpy as np
import pytest

from wkit.suites import _safe_point, _safe_points, _theta_rows, _uniform


def same_state(a, b):
    """The next draws of two generators agree."""
    return a.random() == b.random() and a.integers(5) == b.integers(5)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize("k", [1, 2, 5, 20])
def test_safe_points_equal_one_draw_at_a_time(seed, k):
    one, batch = np.random.default_rng((seed, 1)), np.random.default_rng((seed, 1))
    want = [_safe_point(one) for _ in range(k)]
    got = _safe_points(batch, k)
    assert got.dtype == complex and got.tolist() == want
    assert same_state(one, batch)
    # a radius range of its own, and a leading draw per point (theta-inversion)
    want = [_safe_point(one, 0.5, 2.0) for _ in range(k)]
    assert _safe_points(batch, k, 0.5, 2.0).tolist() == want
    want = [(one.uniform(0.3, 0.8), _safe_point(one)) for _ in range(k)]
    a, z = _safe_points(batch, k, lead=[(0.3, 0.8)])
    assert list(zip(a.tolist(), z.tolist())) == want
    assert same_state(one, batch)


def test_uniform_columns_equal_interleaved_uniform_draws():
    one, batch = np.random.default_rng(3), np.random.default_rng(3)
    want = [complex(one.uniform(0.7, 1.3), one.uniform(-0.1, 0.1)) for _ in range(10)]
    re, im = _uniform(batch, 10, (0.7, 1.3), (-0.1, 0.1))
    assert (re + 1j * im).tolist() == want  # as the tau-U check forms its points
    assert same_state(one, batch)


def theta_rows_one_draw_at_a_time(rng, N, k):
    """The series-vs-product draw as six generator calls per row."""
    chars = [0.0, 0.5, -0.5, 1.0 / N, -1.0 / N]
    rows = []
    for _ in range(k):
        g1, g2 = chars[rng.integers(5)], chars[rng.integers(5)]
        xi = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 3.0))
        rows.append((g1, g2, xi, tau))
    return rows


def same_position(a, b):
    """Two PCG64 generators at the same point of their stream, with the same
    32-bit half pending if one is (with none pending, numpy keeps a stale
    half it never reads, which may differ)."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return (sa["state"] == sb["state"] and sa["has_uint32"] == sb["has_uint32"]
            and (not sa["has_uint32"] or sa["uinteger"] == sb["uinteger"]))


@pytest.mark.parametrize("N,seed", [(2, 0), (3, 1), (4, 9), (5, 20)])
def test_theta_rows_equal_the_six_call_loop(N, seed):
    # one draw of five words a row, decoded as numpy draws them, gives the
    # numbers of six generator calls a row and leaves the generator where
    # they leave it, on 200 seeds from `seed` on
    for s in range(seed, seed + 200):
        one, batch = np.random.default_rng((s, 1)), np.random.default_rng((s, 1))
        want = theta_rows_one_draw_at_a_time(one, N, 100)
        got = _theta_rows(batch, N, 100)
        assert list(zip(*(v.tolist() for v in got))) == want, s
        assert same_position(one, batch) and same_state(one, batch), s


PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's 128-bit PCG multiplier


def word_after(rng, k, word):
    """Set rng's PCG64 state so that its k-th next 64-bit word (from 0) is
    `word`; the word is rotr(hi ^ lo, hi >> 58) of the state that step
    reaches, so a state with hi ^ lo = rotl(word, hi >> 58) gives it."""
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    hi = 0x0123456789ABCDEF
    r = hi >> 58
    lo = hi ^ (((word << r) | (word >> (64 - r))) & (2**64 - 1))
    before = ((((hi << 64) | lo) - inc) * pow(PCG64_MULT, -1, 2**128)) % 2**128
    rng.bit_generator.state = {**state, "state": {"state": before, "inc": inc}, "has_uint32": 0}
    rng.bit_generator.advance(-k)


@pytest.mark.parametrize("row,word", [(0, 0x9E3779B900000000), (0, 0x000000009E3779B9), (7, 0x0000000012345678),
                                      (99, 0xDEADBEEF00000000), (99, 0)])
def test_theta_rows_draw_a_zero_half_again(row, word):
    # Lemire's method for integers(5) redraws a 32-bit half x when
    # (5 x) mod 2^32 < (2^32 - 5) mod 5 = 1, that is when x = 0; the redraw
    # moves every later number, and the batch must still equal the loop
    one, batch = np.random.default_rng(3), np.random.default_rng(3)
    for rng in (one, batch):
        word_after(rng, 5 * row, word)
    peek = np.random.default_rng(3)
    peek.bit_generator.state = one.bit_generator.state
    assert int(peek.bit_generator.random_raw(5 * row + 1)[-1]) == word
    want = theta_rows_one_draw_at_a_time(one, 4, 100)
    got = _theta_rows(batch, 4, 100)
    assert list(zip(*(v.tolist() for v in got))) == want
    assert same_position(one, batch) and same_state(one, batch)


def test_theta_rows_with_a_half_pending_equal_the_loop():
    # a generator with a 32-bit half pending, or another bit generator, is
    # drawn call by call
    for make in (lambda: np.random.default_rng(11), lambda: np.random.Generator(np.random.Philox(11))):
        one, batch = make(), make()
        one.integers(5), batch.integers(5)
        want = theta_rows_one_draw_at_a_time(one, 3, 20)
        got = _theta_rows(batch, 3, 20)
        assert list(zip(*(v.tolist() for v in got))) == want
        assert same_state(one, batch)
