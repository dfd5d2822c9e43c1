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


@pytest.mark.parametrize("N,seed", [(2, 0), (3, 1), (4, 9), (5, 20)])
def test_theta_rows_equal_the_six_call_loop(N, seed):
    one, batch = np.random.default_rng((seed, 1)), np.random.default_rng((seed, 1))
    want = theta_rows_one_draw_at_a_time(one, N, 100)
    got = _theta_rows(batch, N, 100)
    assert list(zip(*(v.tolist() for v in got))) == want
    assert same_state(one, batch)
