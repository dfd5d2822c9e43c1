"""Scalar layer: q-products, thetas, ladders, critical structure functions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkit import (
    BranchDomainViolation,
    EllipticParams,
    F_a,
    I_series,
    NoSolution,
    OutsideConvergenceAnnulus,
    TruncationPolicy,
    U,
    Y_FF,
    Y_kkprime_cr,
    Y_mn,
    Y_mn_forms,
    ZeroArgument,
    f_cr_modes,
    f_cr_series,
    kappa_inv,
    pochhammer,
    resolve_abelian_branch,
    resolve_surface,
    tau_N,
    theta_big,
    theta_char_product,
    theta_char_sums,
)
from wkit.errors import ModulusOutOfRange, PoleHit, TruncationBudgetExceeded
from wkit.params import centred_ladder
from wkit.qseries import _e_sums
from wkit.suites import abelianity_check, run_check

POL = TruncationPolicy()
DEEP = TruncationPolicy(tail_eps=1e-16, max_terms=2048)


# ---------------------------------------------------------------------------
# pochhammer / theta_big
# ---------------------------------------------------------------------------

def poch_log_oracle(z, p, nmax=2000):
    """Independent log-space summation of log(1 - z p^n)."""
    acc = 0.0
    for n in range(nmax):
        t = z * p**n
        if abs(t) < 1e-18:
            break
        acc += cmath.log(1 - t)
    return cmath.exp(acc)


def test_pochhammer_trivial():
    assert pochhammer(0.0, [0.5], POL) == 1.0
    assert pochhammer(1.0, [0.3], POL) == 0.0


def test_pochhammer_against_log_oracle():
    got = pochhammer(0.5, [0.1], TruncationPolicy(tail_eps=1e-18, max_terms=4096))
    want = poch_log_oracle(0.5, 0.1)
    assert abs(got - want) < 1e-12


def test_pochhammer_double_modulus_refinement():
    coarse = pochhammer(0.4 + 0.1j, [0.3, 0.2], POL)
    fine = pochhammer(0.4 + 0.1j, [0.3, 0.2], DEEP)
    assert abs(coarse - fine) < 1e-12


def test_pochhammer_modulus_range():
    with pytest.raises(ModulusOutOfRange):
        pochhammer(0.5, [1.0], POL)


def test_theta_big_zero_at_one():
    assert theta_big(1.0, 0.3, POL) == 0.0
    with pytest.raises(ZeroArgument):
        theta_big(0.0, 0.3, POL)


def test_theta_big_quasi_periodicity():
    p, z = 0.2, 0.7 + 0.1j
    lhs = theta_big(p * z, p, POL) + theta_big(z, p, POL) / z
    assert abs(lhs) < 1e-12 * (1 + abs(theta_big(z, p, POL)))


def test_theta_big_refinement():
    v1 = theta_big(0.3, 0.1, POL)
    v2 = theta_big(0.3, 0.1, DEEP)
    assert abs(v1 - v2) < 1e-13


# ---------------------------------------------------------------------------
# theta with characteristics
# ---------------------------------------------------------------------------

def theta_char(g1, g2, xi, tau):
    """One theta[g1,g2](xi, tau) from the library's lattice sum."""
    return complex(theta_char_sums(g1, g2, xi, tau, POL)[0])


def test_theta_char_odd_vanishes_at_origin():
    assert abs(theta_char(0.5, 0.5, 0.0, 1j)) < 1e-12


def test_theta_char_integer_shift():
    # [g1+1, g2] with lambda2 = 0 leaves the value unchanged
    v1 = theta_char(0.25 + 1, 0.5, 0.3 + 0.1j, 0.2 + 1.1j)
    v2 = theta_char(0.25, 0.5, 0.3 + 0.1j, 0.2 + 1.1j)
    assert abs(v1 - v2) < 1e-12 * (1 + abs(v2))


@given(
    g1=st.sampled_from([0.0, 0.5, -0.5, 1 / 3, -1 / 3, 0.25]),
    g2=st.sampled_from([0.0, 0.5, -0.5, 1 / 3, -1 / 3, 0.25]),
    xr=st.floats(-1, 1),
    xi=st.floats(-0.2, 0.2),
    ti=st.floats(0.3, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_theta_series_vs_product(g1, g2, xr, xi, ti):
    xi_c = complex(xr, xi)
    tau = complex(0.1, ti)
    a = theta_char(g1, g2, xi_c, tau)
    b = theta_char_product(g1, g2, xi_c, tau, POL)
    assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_theta_shift_exchange_arbitrary_lambda():
    g1, g2, tau = 0.37, -0.21, 0.25 + 1.3j
    xi = 0.4 + 0.05j
    l1, l2 = 0.62, -0.41
    lhs = theta_char(g1, g2, xi + l1 * tau + l2, tau)
    rhs = cmath.exp(-1j * cmath.pi * l1**2 * tau
                    - 2j * cmath.pi * l1 * (xi + g2 + l2)) \
        * theta_char(g1 + l1, g2 + l2, xi, tau)
    assert abs(lhs - rhs) < 1e-11 * (1 + abs(lhs))


# ---------------------------------------------------------------------------
# tau_N / U / kappa
# ---------------------------------------------------------------------------

@pytest.fixture
def pr2():
    return EllipticParams(N=2, q=0.5, s=math.sqrt(0.3))


@pytest.fixture
def pr3():
    return EllipticParams(N=3, q=0.5, s=math.sqrt(0.3))


def test_tau_N_at_one(pr3):
    assert abs(tau_N(1.0, pr3, POL) - 1) < 1e-14


def test_tau_N_periodic_and_inverse():
    pr = EllipticParams(N=3, q=0.5, s=0.5)
    z = 0.8
    assert abs(tau_N(pr.q**3 * z, pr, POL) / tau_N(z, pr, POL) - 1) < 1e-10
    z = 0.7 + 0.2j
    assert abs(tau_N(z, pr, POL) * tau_N(1 / z, pr, POL) - 1) < 1e-10


def test_U_symmetry_and_periodicity(pr3):
    z = 1.3 + 0.1j
    u = U(z, pr3, POL)
    assert abs(u - U(1 / z, pr3, POL)) < 1e-12 * abs(u)
    assert abs(U(pr3.q**3 * z, pr3, POL) - u) < 1e-10 * abs(u)


def test_U_product_identity():
    pr = EllipticParams(N=3, q=0.4, s=0.5)
    x = 1.3
    prod = np.prod([U(pr.q**i * x, pr, POL) for i in range(1, 4)])
    assert abs(prod - 1) < 1e-10


def test_U_equals_tau_product_on_safe_domain(pr3):
    z = 1.1 + 0.2j
    q12 = cmath.sqrt(pr3.q)
    assert abs(U(z, pr3, POL) - tau_N(q12 * z, pr3, POL) * tau_N(q12 / z, pr3, POL)) \
        < 1e-11 * abs(U(z, pr3, POL))


def test_kappa_inv_at_one(pr2):
    assert abs(kappa_inv(1.0, pr2, POL) - 1) < 1e-14


def test_kappa_inv_inversion(pr2):
    z2 = 1.3 + 0.4j
    assert abs(kappa_inv(z2, pr2, POL) * kappa_inv(1 / z2, pr2, POL) - 1) < 1e-12


def test_kappa_inv_refinement(pr2):
    z2 = 0.9 + 0.3j
    assert abs(kappa_inv(z2, pr2, POL) - kappa_inv(z2, pr2, DEEP)) < 1e-10


# ---------------------------------------------------------------------------
# Ladders and exchange functions
# ---------------------------------------------------------------------------

def test_F_ladder_basics(pr2):
    x = 1.2 + 0.1j
    s = pr2.s
    assert F_a(x, 0, s, pr2, POL) == 1
    assert abs(F_a(x, 1, s, pr2, POL) - U(x, pr2, POL)) < 1e-14
    assert abs(F_a(x, -1, s, pr2, POL) * U(x / s, pr2, POL) - 1) < 1e-12


def test_Y_mn_equals_one_for_m_equal_n():
    surf = resolve_surface(2, 2, 0.5, 0.0, 2)
    assert abs(Y_mn(1.3 + 0.2j, 2, 2, surf.params, POL) - 1) < 1e-12


@pytest.mark.parametrize("m,n", [(m, n) for m in range(-3, 4) for n in range(-3, 4)
                                 if (m, n) != (0, 0)])
def test_Y_mn_two_forms_agree_on_surface(m, n):
    q, N = 0.55, 2
    surf = resolve_surface(m, n, q, 0.0, N)
    f1, f2, diff = Y_mn_forms(1.15 + 0.2j, m, n, surf.params, POL)
    assert diff <= 1e-10 * (1 + abs(f2))


def test_Y_mn_inversion():
    surf = resolve_surface(2, -3, 0.55, 0.0, 2)
    x = 1.2 + 0.3j
    prod = Y_mn(x, 2, -3, surf.params, POL) * Y_mn(1 / x, 2, -3, surf.params, POL)
    assert abs(prod - 1) < 1e-10


def test_Y_FF_inversion_and_snapshots():
    pr = EllipticParams(N=2, q=0.5, s=0.5, c=0.3)
    x = 1.2 + 0.1j
    assert abs(Y_FF(x, pr, POL) * Y_FF(1 / x, pr, POL) - 1) < 1e-10
    # frozen regression values (computed at doubled truncation depth)
    assert abs(Y_FF(1.2 + 0j, pr, POL) - (-20.997405864907986)) < 1e-9
    pr3 = EllipticParams(N=3, q=0.6, s=0.5, c=-0.7)
    want = complex(1.0197120698106465, 1.0827225306898511)
    assert abs(Y_FF(0.9 + 0.2j, pr3, POL) - want) < 1e-10
    # c = 0 collapses numerator onto denominator
    pr0 = EllipticParams(N=2, q=0.5, s=0.5, c=0.0)
    assert abs(Y_FF(1.2, pr0, POL) - 1) < 1e-14


def test_Y_FF_half_integer_c_coincidence():
    # c = -1/2 makes q^{2+2c} = q = q^{-2c}: the ratio degenerates to four thetas
    pr = EllipticParams(N=2, q=0.5, s=0.5, c=-0.5)
    x = 1.3 + 0.1j
    q, P = pr.q, pr.q**4
    num = theta_big(1 / x**2, P, POL) * theta_big(q**2 / x**2, P, POL) \
        * theta_big(q * x**2, P, POL) ** 2
    den = theta_big(x**2, P, POL) * theta_big(q**2 * x**2, P, POL) \
        * theta_big(q / x**2, P, POL) ** 2
    assert abs(Y_FF(x, pr, POL) - num / den) < 1e-12 * abs(num / den)


def test_Y_kkprime_critical_and_trivial():
    pr = EllipticParams(N=3, q=0.55, s=0.5, c=-3.0)
    assert abs(Y_kkprime_cr(1.2 + 0.1j, 2, 3, pr, POL) - 1) < 1e-10
    pr0 = EllipticParams(N=3, q=0.55, s=0.5, c=0.0)
    assert Y_kkprime_cr(1.2 + 0.1j, 2, 2, pr0, POL) == 1.0
    prc = EllipticParams(N=3, q=0.55, s=0.5, c=0.7)
    want = U(1.2, prc, POL) / U(prc.q ** (-0.7) * 1.2, prc, POL)
    assert abs(Y_kkprime_cr(1.2, 1, 1, prc, POL) - want) < 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# Critical-level structure functions
# ---------------------------------------------------------------------------

def test_I_antisymmetry_and_value_at_one():
    pr = EllipticParams(N=2, q=0.6, s=0.5)
    assert I_series(1.0, pr, POL) == 0
    x = 0.8 + 0.1j
    assert abs(I_series(x, pr, POL) + I_series(1 / x, pr, POL)) < 1e-12


def test_I_refinement():
    pr = EllipticParams(N=2, q=0.6, s=0.5)
    assert abs(I_series(0.8, pr, POL) - I_series(0.8, pr, DEEP)) < 1e-13


def test_f_cr_series_basics():
    pr = EllipticParams(N=2, q=0.6, s=0.5)
    assert abs(f_cr_series(1.0, 1, 1, pr, POL)) < 1e-14
    x = 1.25 + 0.1j
    assert abs(f_cr_series(x, 1, 1, pr, POL) + f_cr_series(1 / x, 1, 1, pr, POL)) < 1e-10


def test_f_cr_series_vs_modes():
    for (N, q, k, kp, x) in [(2, 0.55, 1, 1, 1.3), (3, 0.6, 2, 1, 1.2 + 0.1j),
                             (3, 0.6, 2, 2, 0.85), (4, 0.5, 3, 2, 1.1 + 0.2j)]:
        pr = EllipticParams(N=N, q=q, s=0.5)
        a = f_cr_series(x, k, kp, pr, POL)
        b = f_cr_modes(x, k, kp, pr, POL)
        assert abs(a - b) < 1e-8, (N, k, kp, abs(a - b))


@pytest.mark.parametrize("fn", [Y_kkprime_cr, f_cr_series, f_cr_modes])
@pytest.mark.parametrize("level", [0, 3, -2])
def test_fusion_levels_outside_1_to_N_are_refused(fn, level):
    # no fused block exists for k or k' outside 1..N (here N = 2): the
    # fused ratio and both forms of its c-derivative refuse them alike,
    # for one point and for an array of points
    pr = EllipticParams(N=2, q=0.55, s=0.5)
    for k, kp in ((level, 1), (1, level)):
        for x in (1.1, np.array([1.1, 1.2])):
            with pytest.raises(ValueError, match=rf"need 1 <= k, k' <= N, got k={k}, k'={kp}, N=2$"):
                fn(x, k, kp, pr, POL)


def test_f_cr_modes_vanishes_when_max_is_N():
    pr = EllipticParams(N=2, q=0.55, s=0.5)
    assert f_cr_modes(1.3, 2, 1, pr, POL) == 0
    assert abs(f_cr_series(1.3, 2, 1, pr, POL)) < 1e-10


def test_f_cr_modes_near_the_annulus_edge():
    # near the annulus edge at q = 0.8 the modes decay slowly, but the
    # resummed e-sums converge like the I-kernel: a longer budget does not
    # change them, and they agree with f_cr_series
    pr = EllipticParams(N=3, q=0.8, s=0.5)
    for x, k, kp in [(1.22, 1, 1), (0.81 + 0.05j, 2, 2), (1.2 - 0.2j, 1, 2)]:
        got = f_cr_modes(x, k, kp, pr, POL)
        long_loop = f_cr_modes(x, k, kp, pr, TruncationPolicy(max_terms=20000))
        assert abs(got - long_loop) < 1e-13 * (1 + abs(long_loop))
        assert abs(got - f_cr_series(x, k, kp, pr, POL)) < 1e-10 * (1 + abs(got))
    # at q = 0.9 the chain of c = q^4 needs more than 64 weights: still raises
    with pytest.raises(TruncationBudgetExceeded):
        f_cr_modes(1.1, 1, 1, EllipticParams(N=2, q=0.9, s=0.5), TruncationPolicy(max_terms=64))


def test_f_cr_modes_annulus_enforced():
    pr = EllipticParams(N=2, q=0.55, s=0.5)
    with pytest.raises(OutsideConvergenceAnnulus):
        f_cr_modes(2.5, 1, 1, pr, POL)


# The three functions as scalar loops over their terms: reference oracles
# for the array forms, which sum the same series as e-sums of one kernel.

def I_series_loop(x, params, policy):
    """I(x), summing e(x^2 Q^l) - e(Q^l / x^2) term by term until
    |Q^l| (|x^2| + |x^-2|) < tail_eps."""
    if x == 0:
        raise ZeroArgument("I(0) undefined")
    u = x * x
    if abs(u - 1) < 1e-12:
        return 0.0 + 0j
    Q = params.q ** (2 * params.N)
    acc, lat = 0.0 + 0j, 1.0 + 0j
    for _ in range(policy.max_terms):
        a, b = u * lat, lat / u
        if abs(1 - a) < 1e-14 or abs(1 - b) < 1e-14:
            raise PoleHit(f"I(x) pole: x^2 collides with q^(2Nl) lattice at x = {x}")
        acc += a / (1 - a) - b / (1 - b)
        lat *= Q
        if abs(lat) * (abs(u) + abs(1 / u)) < policy.tail_eps:
            break
    else:
        raise TruncationBudgetExceeded("I(x) lattice sum did not converge")
    return acc - (1 + u) / (2 * (1 - u))


def f_cr_series_loop(x, k, kprime, params, policy):
    """f_cr from one scalar I call per ladder point."""
    q, acc = params.q, 0.0 + 0j
    for ti in centred_ladder(k):
        for tj in centred_ladder(kprime):
            d = ti - tj
            acc += (2 * I_series_loop(q**d * x, params, policy) - I_series_loop(q ** (d + 1) * x, params, policy)
                    - I_series_loop(q ** (d - 1) * x, params, policy))
    return 2 * cmath.log(q) * acc


def f_cr_modes_loop(x, k, kprime, params, policy):
    """f_cr from its modes r = 1, 2, ...: the geometric tail g^r / (1/q - q)
    of A_r summed in closed form, the rest B_r = A_r - g^r / (1/q - q) term
    by term, and past max_terms B_r's four geometric series up to a factor
    1 + O(c^r) in closed form."""
    if x == 0:
        raise ZeroArgument("f_cr_modes(0) undefined")
    q, N = params.q, params.N
    if not (abs(q) < abs(x) < 1 / abs(q)):
        raise OutsideConvergenceAnnulus(
            f"|x| = {abs(x):.6g} outside (|q|, 1/|q|) = ({abs(q):.6g}, {1/abs(q):.6g})")
    M, mn = max(k, kprime), min(k, kprime)
    u = x * x
    if M == N or abs(u - 1) < 1e-12:
        return 0.0 + 0j
    qi, g = 1 / q - q, q ** (M - mn)
    if abs(1 - g * u) < 1e-14:
        raise PoleHit(f"f_cr_modes pole of S(g): x^2 = q^(min-max-2Nl) at x = {x}")
    if abs(1 - g / u) < 1e-14:
        raise PoleHit(f"f_cr_modes pole of S(g): x^2 = q^(max-min+2Nl) at x = {x}")
    a, b, c = q ** (2 * (N - M)), q ** (2 * mn), q ** (2 * N)
    acc, up, um = 0.0 + 0j, 1.0 + 0j, 1.0 + 0j
    for r in range(1, policy.max_terms):
        up *= u
        um /= u
        term = g**r * (c**r + (a * b) ** r - a**r - b**r) / ((1 - c**r) * qi) * (up - um)
        acc += term
        if abs(term) < policy.tail_eps and r > 4:
            break
    else:
        R = policy.max_terms
        if not abs(c**R) < policy.tail_eps:
            raise TruncationBudgetExceeded("f_cr_modes remainder did not converge")
        for rho, sign in ((c, 1), (a * b, 1), (a, -1), (b, -1)):
            w, v = g * rho * u, g * rho / u
            acc += sign * (w**R / (1 - w) - v**R / (1 - v)) / qi
    tail = (g * u / (1 - g * u) - (g / u) / (1 - g / u)) / qi
    return -2 * (q - 1 / q) * cmath.log(q) * (acc + tail)


def oracle_cases():
    """(name, array form, oracle, pr) for I and a few (k, k') of both f_cr."""
    for N in (2, 3, 4, 5):
        for q in (0.5, 0.8, 0.9, 0.5 + 0.1j, 0.3 - 0.2j):
            pr = EllipticParams(N=N, q=q, s=0.5)
            yield "I", lambda x, pr=pr: I_series(x, pr, POL), lambda x, pr=pr: I_series_loop(x, pr, POL), pr
            for k, kp in sorted({(1, 1), (1, N), (N - 1, 1), (2, N - 1), (N, N)}):
                yield (f"f_cr_series({k},{kp})", lambda x, k=k, kp=kp, pr=pr: f_cr_series(x, k, kp, pr, POL),
                       lambda x, k=k, kp=kp, pr=pr: f_cr_series_loop(x, k, kp, pr, POL), pr)
                yield (f"f_cr_modes({k},{kp})", lambda x, k=k, kp=kp, pr=pr: f_cr_modes(x, k, kp, pr, POL),
                       lambda x, k=k, kp=kp, pr=pr: f_cr_modes_loop(x, k, kp, pr, POL), pr)


def annulus_points(q, rng):
    """Two points at each of six radii across |q| < |x| < 1/|q|, two of them
    within 1e-3 of its edges, at random phases."""
    lo, hi = abs(q), 1 / abs(q)
    radii = np.repeat(np.concatenate([[lo + 5e-4, hi - 5e-4], np.linspace(lo, hi, 6)[1:-1]]), 2)
    return radii * np.exp(1j * rng.uniform(-math.pi, math.pi, radii.size))


def test_critical_forms_equal_their_scalar_loops():
    # one array call per form against the loop at each point: within 1e-12
    # of 1 + |f| (the loops add their terms in another order and round
    # Python's complex arithmetic, not numpy's)
    rng = np.random.default_rng(28)
    worst = 0.0
    for name, form, loop, pr in oracle_cases():
        xs = annulus_points(pr.q, rng)
        want = [loop(complex(x)) for x in xs]
        got = form(xs).tolist()
        worst = max(worst, max(abs(g - w) / (1 + abs(w)) for g, w in zip(got, want)))
        assert worst <= 1e-12, (name, pr.N, pr.q, worst)


def test_critical_forms_raise_as_their_scalar_loops():
    # each case raises in the loop; the array form raises the same type with
    # the same message, called alone or before another point in one batch.
    # Only x itself is a pole of f_cr_series here: at another ladder point
    # q^d x the message names that point, which numpy's complex product can
    # round in its last digit otherwise than CPython's
    short = TruncationPolicy(max_terms=64)
    cases = []
    for N, q in [(2, 0.6), (3, 0.8), (4, 0.5 + 0.1j)]:
        pr = EllipticParams(N=N, q=q, s=0.5)
        for x in (0j, q**N, q ** (-N), q ** (2 * N), q ** (3 * N)):  # x = 0, then x^2 on the Q-lattice
            cases.append((lambda x, pr=pr: I_series(x, pr, POL), lambda x, pr=pr: I_series_loop(x, pr, POL), x))
            # k = k' = 1: the first ladder point that meets the pole is x itself
            cases.append((lambda x, pr=pr: f_cr_series(x, 1, 1, pr, POL),
                          lambda x, pr=pr: f_cr_series_loop(x, 1, 1, pr, POL), x))
        for k, kp in [(1, 1), (1, N - 1)]:
            M, mn = max(k, kp), min(k, kp)
            # x = 0, outside the annulus on both sides, x^2 = q^(min-max) and q^(max-min)
            for x in (0j, 2.5 + 0j, 0.99 * q, 1.01 / q, q ** ((mn - M) / 2), q ** ((M - mn) / 2)):
                cases.append((lambda x, k=k, kp=kp, pr=pr: f_cr_modes(x, k, kp, pr, POL),
                              lambda x, k=k, kp=kp, pr=pr: f_cr_modes_loop(x, k, kp, pr, POL), x))
    pr = EllipticParams(N=2, q=0.9, s=0.5)  # the chain of q^4 needs more than 64 weights
    # the last: x^2 = Q^64, a pole just past the budget, which raises first
    for x in (1.1 + 0j, 0.95 - 0.3j, 0.9 ** 128 + 0j):
        cases += [(lambda x: I_series(x, pr, short), lambda x: I_series_loop(x, pr, short), x),
                  (lambda x: f_cr_series(x, 2, 1, pr, short), lambda x: f_cr_series_loop(x, 2, 1, pr, short), x),
                  (lambda x: f_cr_modes(x, 1, 1, pr, short), lambda x: f_cr_modes_loop(x, 1, 1, pr, short), x)]
    seen = set()
    for form, loop, x in cases:
        want = outcome(loop, complex(x))
        if not isinstance(want, tuple):
            continue  # x = 1 (q^0) for k = k'
        seen.add(want[0])
        assert outcome(form, complex(x)) == want, (x, want)
        assert outcome(form, np.array([x, 1.05 + 0.02j])) == want, (x, want)
    assert seen == {"ZeroArgument", "PoleHit", "OutsideConvergenceAnnulus", "TruncationBudgetExceeded"}


def test_f_cr_modes_names_the_pole_it_hit():
    # the two wings of S(g) at x^2 = q^(min-max) and x^2 = q^(max-min), alone
    # and after a regular point; and in the kernel, each (w, wing) its own name
    pr = EllipticParams(N=3, q=0.8, s=0.5)
    for x, pole in [(0.8 ** -0.5, "q^(min-max-2Nl)"), (0.8 ** 0.5, "q^(max-min+2Nl)")]:
        want = ("PoleHit", f"f_cr_modes pole of S(g): x^2 = {pole} at x = {complex(x)}")
        assert outcome(lambda x: f_cr_modes(x, 1, 2, pr, POL), x) == want
        assert outcome(lambda x: f_cr_modes(x, 2, 1, pr, POL), np.array([1.05 + 0.02j, x])) == want
    poles = [("u of 0.5", "1/u of 0.5"), ("u of 0.3", "1/u of 0.3")]
    for u, name in [(2.0, "u of 0.5"), (0.5, "1/u of 0.5"), (1 / 0.3, "u of 0.3"), (0.3, "1/u of 0.3")]:
        x = np.array([1.1, math.sqrt(u)], dtype=complex)
        with pytest.raises(PoleHit, match=f"^{name} at x = "):
            _e_sums([0.5, 0.3], x, 0.01, POL, poles, "budget")


def outcome(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# Abelianity branches
# ---------------------------------------------------------------------------

def test_abel4_worked_instance():
    # n = 3, m = -3, N = 2: c = N/3, s = q^{-N/3}, s* = q^{-2N/3}
    params = resolve_abelian_branch("abel4", 2, 0.6, -3, 3)
    assert abs(params.c - 2 / 3) < 1e-14
    assert abs(params.s - 0.6 ** (-2 / 3)) < 1e-14
    assert abs(params.s_star - 0.6 ** (-4 / 3)) < 1e-12
    grid = np.geomspace(0.5, 2.0, 200)
    rep = run_check(abelianity_check("abel4", 2, 0.6, -3, 3, grid))
    assert rep.passed and rep.residual < 1e-9


def test_abel1_instance_and_control():
    grid = np.geomspace(0.5, 2.0, 120)
    rep = run_check(abelianity_check("abel1", 2, 0.6, 2, -3, grid, lam=-1))
    assert rep.passed
    params = resolve_abelian_branch("abel1", 2, 0.6, 2, -3, lam=-1)
    pert = EllipticParams(2, 0.6, params.s * 1.01, params.c)
    dev = max(abs(Y_mn(x, 2, -3, pert, POL) - 1) for x in grid[:40])
    assert dev > 1e-3


def test_abelianity_nan_sample_fails(monkeypatch):
    # one NaN among 50 grid samples must fail the check, not be dropped by max()
    import wkit.suites as suites

    grid = np.geomspace(0.5, 2.0, 50)
    real_Y = suites.Y_mn_grid

    def Y_with_nan(xs, *args):
        ys = real_Y(xs, *args)
        ys[17] = complex(math.nan, 0.0)
        return ys

    monkeypatch.setattr(suites, "Y_mn_grid", Y_with_nan)
    rep = run_check(abelianity_check("abel4", 2, 0.6, -3, 3, grid))
    assert math.isnan(rep.residual) and not rep.passed


def test_branch_domain_violations():
    with pytest.raises(BranchDomainViolation):
        resolve_abelian_branch("abel1", 2, 0.6, 1, -3, lam=1)  # |m| = 1
    with pytest.raises(BranchDomainViolation):
        resolve_abelian_branch("abel1", 2, 0.6, 2, -3, lam=1)  # lam' = 0
    with pytest.raises(BranchDomainViolation):
        resolve_abelian_branch("abel4", 2, 0.6, -2, 2)  # n even
    with pytest.raises(BranchDomainViolation):
        resolve_abelian_branch("abel2", 2, 0.6, 3, 2)  # |n| != 1


def test_surface_resolution_errors():
    with pytest.raises(NoSolution):
        resolve_surface(0, 0, 0.6, 0.0, 2)
    surf = resolve_surface(1, -1, 0.6, 0.0, 3)
    assert abs(surf.params.c - (-3)) < 1e-14  # unique resolution, any q
    surf = resolve_surface(2, -1, 0.6, 0.0, 2)
    assert not surf.params.is_elliptic  # |p| = q^{-4} > 1 blocks R-matrix work
    assert abs(surf.params.s - 0.6 ** (-2)) < 1e-12
    surf = resolve_surface(-1, -1, 0.6, 0.0, 2)
    assert surf.params.is_elliptic and abs(surf.params.s - 0.6) < 1e-14


# ---------------------------------------------------------------------------
# Randomized invariants
# ---------------------------------------------------------------------------

@given(r=st.floats(0.75, 1.35), phi=st.floats(-1.2, 1.2),
       q=st.floats(0.35, 0.7))
@settings(max_examples=40, deadline=None)
def test_U_inversion_symmetry_property(r, phi, q):
    pr = EllipticParams(N=3, q=q, s=0.5)
    z = complex(r * math.cos(phi), r * math.sin(phi))
    try:
        u = U(z, pr, POL)
        inv = U(1 / z, pr, POL)
    except Exception:
        return  # pole rings are legitimate rejections
    assert abs(u - inv) <= 1e-10 * (1 + abs(u))


@given(N=st.integers(2, 5), q=st.sampled_from([0.55, 0.8, 0.5 + 0.1j, 0.6 - 0.2j]), c=st.sampled_from([0, 0.25]),
       a=st.sampled_from([-2, -1, 1, 3]), mn=st.sampled_from([(1, 1), (2, -1), (-1, -1), (3, 2), (-2, 3)]),
       points=st.lists(st.tuples(st.floats(math.log(0.3), math.log(3.0)), st.floats(-math.pi, math.pi)),
                       min_size=2, max_size=8))
@settings(max_examples=300, deadline=None)
def test_scalars_do_not_depend_on_the_batch(N, q, c, a, mn, points):
    # U, F_a, Y_mn and theta_big at one nome at each point of a batch equal
    # their one-point calls (==), whatever other points share the batch: a
    # suite's checks share one U call of the runner, and theta_big takes
    # (p; p) as one more point of its product.  |x| in [0.3, 3]; a draw
    # whose point alone meets a pole is a legitimate rejection
    pr = EllipticParams(N, q, cmath.sqrt(0.3), c)
    xs = np.array([cmath.rect(math.exp(r), phi) for r, phi in points])
    for fn, args in ((U, (pr,)), (F_a, (a, pr.s, pr)), (Y_mn, (*mn, pr)), (theta_big, (pr.p,))):
        try:
            alone = [fn(x, *args, POL) for x in xs.tolist()]
        except PoleHit:
            continue
        assert fn(xs, *args, POL).tolist() == alone, fn.__name__


@given(r=st.floats(0.8, 1.3), phi=st.floats(0.2, 1.2), q=st.floats(0.4, 0.65),
       c=st.floats(-1.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_Y_FF_inversion_property(r, phi, q, c):
    pr = EllipticParams(N=2, q=q, s=0.5, c=c)
    x = complex(r * math.cos(phi), r * math.sin(phi))
    try:
        prod = Y_FF(x, pr, POL) * Y_FF(1 / x, pr, POL)
    except Exception:
        return
    assert abs(prod - 1) <= 1e-10


@given(r=st.floats(0.7, 1.4), phi=st.floats(0.15, 1.3), q=st.floats(0.4, 0.7))
@settings(max_examples=40, deadline=None)
def test_I_antisymmetry_property(r, phi, q):
    pr = EllipticParams(N=2, q=q, s=0.5)
    x = complex(r * math.cos(phi), r * math.sin(phi))
    try:
        s_ = I_series(x, pr, POL) + I_series(1 / x, pr, POL)
    except Exception:
        return
    assert abs(s_) <= 1e-11
