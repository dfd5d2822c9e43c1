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
from wkit.errors import ModulusOutOfRange, TruncationBudgetExceeded
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


def test_f_cr_modes_vanishes_when_max_is_N():
    pr = EllipticParams(N=2, q=0.55, s=0.5)
    assert f_cr_modes(1.3, 2, 1, pr, POL) == 0
    assert abs(f_cr_series(1.3, 2, 1, pr, POL)) < 1e-10


def test_f_cr_modes_remainder_past_the_budget():
    # near the annulus edge at q = 0.8 the remainder needs more than 512
    # terms; past them it is summed in closed form
    pr = EllipticParams(N=3, q=0.8, s=0.5)
    for x, k, kp in [(1.22, 1, 1), (0.81 + 0.05j, 2, 2), (1.2 - 0.2j, 1, 2)]:
        got = f_cr_modes(x, k, kp, pr, POL)
        long_loop = f_cr_modes(x, k, kp, pr, TruncationPolicy(max_terms=20000))
        assert abs(got - long_loop) < 1e-13 * (1 + abs(long_loop))
        assert abs(got - f_cr_series(x, k, kp, pr, POL)) < 1e-10 * (1 + abs(got))
    # at q = 0.9 the neglected c^64 = q^256 is not below tail_eps: still raises
    with pytest.raises(TruncationBudgetExceeded):
        f_cr_modes(1.1, 1, 1, EllipticParams(N=2, q=0.9, s=0.5), TruncationPolicy(max_terms=64))


def test_f_cr_modes_annulus_enforced():
    pr = EllipticParams(N=2, q=0.55, s=0.5)
    with pytest.raises(OutsideConvergenceAnnulus):
        f_cr_modes(2.5, 1, 1, pr, POL)


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
