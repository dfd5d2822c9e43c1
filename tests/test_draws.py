"""The theta-identities suite draws each check's points in one generator
call: the safe points and uniform columns are, bit for bit, those of one
draw at a time, and the generator is left in the same state."""

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


@pytest.mark.parametrize("N,seed", [(2, 0), (3, 1), (4, 9), (5, 20)])
def test_theta_rows_repeat_and_fall_in_their_ranges(N, seed):
    # the same seed gives the same rows; the characteristics are the five
    # values 0, +-1/2, +-1/N, and xi and tau fall within their ranges
    g1, g2, xi, tau = _theta_rows(np.random.default_rng((seed, 1)), N, 500)
    again = _theta_rows(np.random.default_rng((seed, 1)), N, 500)
    assert all(np.array_equal(a, b) for a, b in zip((g1, g2, xi, tau), again))
    assert g1.shape == g2.shape == xi.shape == tau.shape == (500,)
    chars = {0.0, 0.5, -0.5, 1.0 / N, -1.0 / N}
    for g in (g1, g2):
        assert set(g.tolist()) == chars  # every value appears in 500 rows
    assert ((-1 <= xi.real) & (xi.real < 1) & (-0.2 <= xi.imag) & (xi.imag < 0.2)).all()
    assert ((-0.5 <= tau.real) & (tau.real < 0.5) & (0.3 <= tau.imag) & (tau.imag < 3.0)).all()
