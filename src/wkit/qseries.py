"""Scalar special functions: q-Pochhammer products, Jacobi theta functions,
and the structure-function ladders built on them.

Conventions used throughout:

  (z; p_1,...,p_m)_inf = prod_{n_i >= 0} (1 - z p_1^{n_1} ... p_m^{n_m})
  Theta_p(z)           = (z; p) (p/z; p) (p; p)
  theta[g1,g2](xi,tau) = sum_m exp(i pi (m+g1)^2 tau + 2 i pi (m+g1)(xi+g2))

  tau_N(z) = z^{2/N-2} Theta_{q^{2N}}(q z^2) / Theta_{q^{2N}}(q z^{-2})
  U(z)     = q^{2/N-2} Theta(q^2 z^2) Theta(q^2 z^{-2})
                      / (Theta(z^2) Theta(z^{-2}))      [Theta = Theta_{q^{2N}}]

U(z) equals tau_N(q^{1/2} z) tau_N(q^{1/2}/z) wherever the principal
branches compose cleanly; the closed form above involves only even powers
of z and is therefore branch-free, which is why it is the one implemented.

The exchange-function ladder F_a(x) multiplies U along powers of a stored
root value s (the designated value of -p^{1/2}); U is even in its argument,
so every scalar here is insensitive to the sign convention chosen for s.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import (
    BranchDomainViolation,
    ModulusOutOfRange,
    NonconvergentTau,
    OutsideConvergenceAnnulus,
    PoleHit,
    TruncationBudgetExceeded,
    ZeroArgument,
)
from .params import DEFAULT_POLICY, EllipticParams, TruncationPolicy, centred_ladder
from .reports import Stopwatch, worst

_TWO_I_PI = 2j * cmath.pi
_POLE_EPS = 1e-14


# ---------------------------------------------------------------------------
# q-Pochhammer and Jacobi theta layer
# ---------------------------------------------------------------------------

def pochhammer(z: complex, moduli, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Truncated multi-index product (z; p_1,...,p_m)_inf.

    Includes every lattice point whose weight |p_1^{n_1}...p_m^{n_m}|
    is at least tail_eps / (|z| + 1); smaller weights change the product
    by less than the tail tolerance.
    """
    moduli = [complex(p) for p in moduli]
    for p in moduli:
        if abs(p) >= 1 - 1e-6:
            raise ModulusOutOfRange(f"|modulus| = {abs(p):.8g} too close to 1")
    if z == 0:
        return 1.0 + 0j
    thresh = policy.tail_eps / (abs(z) + 1.0)
    val = 1.0 + 0j

    def descend(depth: int, lattice: complex):
        nonlocal val
        if depth == len(moduli):
            val *= 1 - z * lattice
            return
        p = moduli[depth]
        cur = lattice
        for n in range(policy.max_terms):
            if abs(cur) < thresh:
                return
            descend(depth + 1, cur)
            cur = cur * p
        if abs(cur) >= thresh:
            raise TruncationBudgetExceeded(
                f"pochhammer index {depth} needs more than {policy.max_terms} factors"
            )

    descend(0, 1.0 + 0j)
    return val


def theta_big(z: complex, p: complex, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Jacobi Theta_p(z) = (z;p) (p/z;p) (p;p)."""
    if z == 0:
        raise ZeroArgument("Theta_p(0) undefined")
    return (
        pochhammer(z, [p], policy)
        * pochhammer(p / z, [p], policy)
        * pochhammer(p, [p], policy)
    )


def theta_char_series(g1, g2, xi: complex, tau: complex,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """theta[g1,g2](xi, tau) by direct lattice summation.

    The sum is taken outward from the Gaussian peak m ~ -g1 until two
    consecutive rings fall below the tail tolerance on both wings.
    """
    g1 = float(g1)
    g2 = float(g2)
    if tau.imag < 1e-6:
        raise NonconvergentTau(f"Im tau = {tau.imag:.3g} < 1e-6")

    def term(m: int) -> complex:
        a = m + g1
        return cmath.exp(1j * cmath.pi * a * a * tau + _TWO_I_PI * a * (xi + g2))

    mc = int(round(-g1))
    acc = term(mc)
    small_rings = 0
    for w in range(1, policy.max_terms):
        ring = term(mc - w) + term(mc + w)
        acc += ring
        if abs(ring) < policy.tail_eps * (1 + abs(acc)):
            small_rings += 1
            if small_rings >= 2:
                return acc
        else:
            small_rings = 0
    raise TruncationBudgetExceeded("theta series did not meet tail bound")


def theta_char_product(g1, g2, xi: complex, tau: complex,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """theta[g1,g2](xi, tau) through the triple-product form.

    With p = e^{2 i pi tau} and z = e^{i pi xi}:
        (-1)^{2 g1 g2} p^{g1^2/2} z^{2 g1} Theta_p(-e^{2 i pi g2} p^{g1+1/2} z^2).
    All fractional powers are taken as exponentials of the additive
    variables, which keeps the two forms equal for every branch of xi.
    """
    g1 = float(g1)
    g2 = float(g2)
    if tau.imag < 1e-6:
        raise NonconvergentTau(f"Im tau = {tau.imag:.3g} < 1e-6")
    p = cmath.exp(_TWO_I_PI * tau)
    phase = cmath.exp(1j * cmath.pi * 2 * g1 * g2)
    ppow = cmath.exp(1j * cmath.pi * tau * g1 * g1)
    zpow = cmath.exp(_TWO_I_PI * g1 * xi)
    arg = -cmath.exp(_TWO_I_PI * g2) * cmath.exp(_TWO_I_PI * tau * (g1 + 0.5)) * cmath.exp(_TWO_I_PI * xi)
    return phase * ppow * zpow * theta_big(arg, p, policy)


# ---------------------------------------------------------------------------
# tau_N / U / kappa layer
# ---------------------------------------------------------------------------

def tau_N(z: complex, params: EllipticParams,
          policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """tau_N(z) = z^{2/N-2} Theta_{q^{2N}}(q z^2) / Theta_{q^{2N}}(q z^{-2}).

    Principal branch for the fractional power; q^N-periodic and satisfies
    tau_N(1/z) = 1/tau_N(z) on the principal-branch-safe domain.
    """
    if z == 0:
        raise ZeroArgument("tau_N(0) undefined")
    q, N = params.q, params.N
    P = q ** (2 * N)
    den = theta_big(q / (z * z), P, policy)
    if abs(den) < _POLE_EPS:
        raise PoleHit(f"tau_N denominator theta ~ 0 at z = {z}")
    num = theta_big(q * z * z, P, policy)
    return z ** (2.0 / N - 2.0) * num / den


def U(z: complex, params: EllipticParams,
      policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The unitarity scalar U(z); independent of p and c, even in z <-> 1/z."""
    if z == 0:
        raise ZeroArgument("U(0) undefined")
    q, N = params.q, params.N
    P = q ** (2 * N)
    z2 = z * z
    d1 = theta_big(z2, P, policy)
    d2 = theta_big(1 / z2, P, policy)
    if abs(d1) < _POLE_EPS or abs(d2) < _POLE_EPS:
        raise PoleHit(f"U(z) pole at z = {z}")
    num = theta_big(q * q * z2, P, policy) * theta_big(q * q / z2, P, policy)
    return q ** (2.0 / N - 2.0) * num / (d1 * d2)


def kappa_inv(z2: complex, params: EllipticParams,
              policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Normalization 1/kappa(z^2): ratio of eight double-modulus products."""
    q, p, N = params.q, params.p, params.N
    if abs(p) >= 1 - 1e-6 or abs(q ** (2 * N)) >= 1 - 1e-6:
        raise ModulusOutOfRange("kappa needs |p| < 1 and |q^(2N)| < 1")
    P = q ** (2 * N)
    mod = [p, P]
    num = (
        pochhammer(P / z2, mod, policy)
        * pochhammer(q * q * z2, mod, policy)
        * pochhammer(p / z2, mod, policy)
        * pochhammer(p * P / (q * q) * z2, mod, policy)
    )
    den = (
        pochhammer(P * z2, mod, policy)
        * pochhammer(q * q / z2, mod, policy)
        * pochhammer(p * z2, mod, policy)
        * pochhammer(p * P / (q * q) / z2, mod, policy)
    )
    if abs(den) < _POLE_EPS * (1 + abs(num)):
        raise PoleHit(f"kappa denominator ~ 0 at z2 = {z2}")
    return num / den


# ---------------------------------------------------------------------------
# Exchange-function ladders
# ---------------------------------------------------------------------------

def F_a(x: complex, a: int, s_val: complex, params: EllipticParams,
        policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Ladder F_a(x): product of U along powers of the root value s_val.

    F_a(x) = prod_{l=0}^{a-1} U(s_val^l x)          for a > 0
           = 1                                       for a = 0
           = prod_{l=1}^{|a|} U(s_val^{-l} x)^{-1}   for a < 0
    """
    if x == 0:
        raise ZeroArgument("F_a(0) undefined")
    val = 1.0 + 0j
    if a > 0:
        for l in range(a):
            val *= U(s_val**l * x, params, policy)
    elif a < 0:
        for l in range(1, -a + 1):
            val /= U(s_val ** (-l) * x, params, policy)
    return val


def Y_mn_forms(x: complex, m: int, n: int, params: EllipticParams,
               policy: TruncationPolicy = DEFAULT_POLICY):
    """Both written forms of the quadratic exchange function Y_{m,n}(x).

    form1 = F*_n(x) F_m(s*^n x) / (F*_n(s*^{-n} x) F_m(x))
    form2 = F*_n(x) F*_{-n}(x) / (F_m(x) F_{-m}(x))  = Y_mn(x)

    The two coincide exactly on the surface s^m s*^n = q^{-N}; the returned
    triple (form1, form2, |form1-form2|) makes the agreement checkable.
    """
    s, ss = params.s, params.s_star
    Fn = F_a(x, n, ss, params, policy)
    Fm = F_a(x, m, s, params, policy)
    f1 = (Fn * F_a(ss**n * x, m, s, params, policy)
          / (F_a(ss ** (-n) * x, n, ss, params, policy) * Fm))
    f2 = _Y_mn(x, m, n, Fn, Fm, params, policy)
    return f1, f2, abs(f1 - f2)


def Y_mn(x: complex, m: int, n: int, params: EllipticParams,
         policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Quadratic exchange function Y_{m,n}(x), second (ladder-ratio) form."""
    return _Y_mn(x, m, n, F_a(x, n, params.s_star, params, policy),
                 F_a(x, m, params.s, params, policy), params, policy)


def _Y_mn(x, m, n, Fn, Fm, params, policy) -> complex:
    """Y_mn(x) given Fn = F*_n(x) and Fm = F_m(x)."""
    return (Fn * F_a(x, -n, params.s_star, params, policy)
            / (Fm * F_a(x, -m, params.s, params, policy)))


def Y_FF(x: complex, params: EllipticParams,
         policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Closed eight-theta form of the unitary-gauge exchange function
    for the (m, n) = (2, -1) surface.  Theta = Theta_{q^{2N}} throughout."""
    if x == 0:
        raise ZeroArgument("Y_FF(0) undefined")
    q, N, c = params.q, params.N, params.c
    P = q ** (2 * N)
    x2 = x * x
    qc2 = cmath.exp(2 * c * cmath.log(q))  # q^(2c), principal

    def th(v):
        return theta_big(v, P, policy)

    num = th(1 / x2) * th(q * q / x2) * th(q * q * qc2 * x2) * th(x2 / qc2)
    den = th(x2) * th(q * q * x2) * th(1 / (qc2 * x2)) * th(q * q * qc2 / x2)
    if abs(den) < _POLE_EPS * (1 + abs(num)):
        raise PoleHit(f"Y_FF pole at x = {x}")
    return num / den


def Y_kkprime_cr(x: complex, k: int, kprime: int, params: EllipticParams,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Fused exchange ratio prod_{i,j} U(q^{i-j} x) / U(q^{i-j-c} x) over the
    centred half-integer ladders of sizes k and k'.  Equals 1 at c = -N."""
    N = params.N
    if not (1 <= k <= N and 1 <= kprime <= N):
        raise ValueError(f"need 1 <= k, k' <= N, got k={k}, k'={kprime}, N={N}")
    q, c = params.q, params.c
    val = 1.0 + 0j
    for ti in centred_ladder(k):
        for tj in centred_ladder(kprime):
            d = ti - tj
            val *= U(q**d * x, params, policy) / U(q ** (d - c) * x, params, policy)
    return val


# ---------------------------------------------------------------------------
# Critical-level Poisson structure functions
# ---------------------------------------------------------------------------

def I_series(x: complex, params: EllipticParams,
             policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The antisymmetric kernel I(x) of the critical Poisson bracket:

        I(x) = sum_{l>=0} e(x^2 q^{2Nl}) - e(x^2)/2 - (x <-> 1/x),
        e(v) = v / (1 - v).

    At x^2 = 1 the two wings collide on the same simple pole; the value is
    fixed to 0 (the principal value forced by I(1/x) = -I(x)).
    """
    if x == 0:
        raise ZeroArgument("I(0) undefined")
    u = x * x
    if abs(u - 1) < 1e-12:
        return 0.0 + 0j
    q, N = params.q, params.N
    Q = q ** (2 * N)
    acc = 0.0 + 0j
    lat = 1.0 + 0j
    for _ in range(policy.max_terms):
        a = u * lat
        b = lat / u
        if abs(1 - a) < _POLE_EPS or abs(1 - b) < _POLE_EPS:
            raise PoleHit(f"I(x) pole: x^2 collides with q^(2Nl) lattice at x = {x}")
        term = a / (1 - a) - b / (1 - b)
        acc += term
        lat *= Q
        if abs(lat) * (abs(u) + abs(1 / u)) < policy.tail_eps:
            break
    else:
        raise TruncationBudgetExceeded("I(x) lattice sum did not converge")
    # split-off half term: (e(u) - e(1/u))/2 = (1+u)/(2(1-u))
    return acc - (1 + u) / (2 * (1 - u))


def f_cr_series(x: complex, k: int, kprime: int, params: EllipticParams,
                policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Critical Poisson structure function from the I-kernel:

        f_cr(x) = 2 ln q * sum_{i,j} (2 I(q^{i-j} x) - I(q^{i-j+1} x)
                                      - I(q^{i-j-1} x))

    over the centred half-integer ladders.  The overall sign is fixed so
    that f_cr equals d/dc of the fused exchange ratio at c = -N; the mode
    expansion f_cr_modes is the independent cross-check.
    """
    q = params.q
    lnq = cmath.log(q)
    acc = 0.0 + 0j
    for ti in centred_ladder(k):
        for tj in centred_ladder(kprime):
            d = ti - tj
            acc += (
                2 * I_series(q**d * x, params, policy)
                - I_series(q ** (d + 1) * x, params, policy)
                - I_series(q ** (d - 1) * x, params, policy)
            )
    return 2 * lnq * acc


def f_cr_modes(x: complex, k: int, kprime: int, params: EllipticParams,
               policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Critical Poisson structure function from its mode expansion

        f_cr(x) = -2 (q - 1/q) ln q * sum_{r in Z} A_r x^{2r},
        A_r = [(N-max(k,k')) r]_q [min(k,k') r]_q / [N r]_q,

    with [n]_q = (q^n - q^{-n})/(q - q^{-1}) and A_0 = 0.  The coefficients
    tend to a geometric tail A_r ~ q^{(max-min) r} / (1/q - q), so the
    symmetric sum is evaluated with that tail resummed in closed form;
    the remainder converges absolutely on the annulus |q| < |x| < 1/|q|.
    """
    if x == 0:
        raise ZeroArgument("f_cr_modes(0) undefined")
    q, N = params.q, params.N
    if not (abs(q) < abs(x) < 1 / abs(q)):
        raise OutsideConvergenceAnnulus(
            f"|x| = {abs(x):.6g} outside (|q|, 1/|q|) = ({abs(q):.6g}, {1/abs(q):.6g})"
        )
    M, mn = max(k, kprime), min(k, kprime)
    if M == N:
        return 0.0 + 0j  # [(N-max) r]_q = [0]_q = 0 for every mode
    u = x * x
    if abs(u - 1) < 1e-12:
        return 0.0 + 0j
    qi = 1 / q - q
    lnq = cmath.log(q)
    g = q ** (M - mn)  # geometric tail ratio of A_r
    if abs(1 - g * u) < _POLE_EPS or abs(1 - g / u) < _POLE_EPS:
        raise PoleHit(f"f_cr_modes pole: x^2 = q^(min-max) at x = {x}")
    # remainder coefficients B_r = A_r - g^r/(1/q - q) in the cancellation-free
    # form  B_r = g^r (c^r + (ab)^r - a^r - b^r) / ((1 - c^r)(1/q - q)):
    # a subtraction of two O(1) quantities here would feed roundoff into the
    # growing x^{-2r} wing and destroy the sum away from |x| = 1
    a = q ** (2 * (N - M))
    b = q ** (2 * mn)
    cq = q ** (2 * N)
    acc = 0.0 + 0j
    up, um = 1.0 + 0j, 1.0 + 0j
    for r in range(1, policy.max_terms):
        up *= u
        um /= u
        B = g**r * (cq**r + (a * b) ** r - a**r - b**r) / ((1 - cq**r) * qi)
        term = B * (up - um)
        acc += term
        if abs(term) < policy.tail_eps and r > 4:
            break
    else:
        raise TruncationBudgetExceeded("f_cr_modes remainder did not converge")
    tail = (g * u / (1 - g * u) - (g / u) / (1 - g / u)) / qi
    return -2 * (q - 1 / q) * lnq * (acc + tail)


# ---------------------------------------------------------------------------
# Abelianity branches
# ---------------------------------------------------------------------------

def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x).limit_denominator(10**6)


def resolve_abelian_branch(branch: str, N: int, q: complex, m: int, n: int,
                           lam=None) -> EllipticParams:
    """Resolve (s, s*, c) for one abelianity branch.

    branch abel1: |m|,|n| > 1, lam integer != 0 with lam' = 1 - lam != 0:
        c = N (lam' m - lam n)/(n m),  s = q^{-N lam/m},  s* = q^{-N lam'/n}.
    branch abel2: |n| = 1: c = N n (1 - lam (m+n)), s = q^{-N lam},
        s* = q^{-N n (1 - lam m)}; lam in Z/2 or Z/u, u | m or u | m+n.
    branch abel3: |m| = 1: mirror of abel2 with lam playing lam'.
    branch abel4: m + n = 0, n > 0 odd: c = N/n,
        s = q^{-N(n-1)/(2n)},  s* = q^{-N(n+1)/(2n)}  (lam unused).

    Every branch lands on the surface s^m s*^n = q^{-N}; the returned
    parameter bundle stores s and c (s* follows from them).
    """

    def qpow(e) -> complex:
        return cmath.exp(complex(e) * cmath.log(q))

    def need_lam(divides=(), names=""):
        """lam as a Fraction; its denominator must divide 2 or one of `divides`."""
        if lam is None:
            raise BranchDomainViolation(f"{branch} needs a lam value")
        lam_f = _as_fraction(lam)
        dens = {1, 2}.union(*(_divisors(abs(v)) for v in divides))
        if divides and lam_f.denominator not in dens:
            raise BranchDomainViolation(
                f"{branch} lam denominator {lam_f.denominator} must divide 2, {names}")
        return lam_f

    if branch == "abel1":
        if abs(m) <= 1 or abs(n) <= 1:
            raise BranchDomainViolation("abel1 needs |m| > 1 and |n| > 1")
        lam = need_lam()
        lamp = 1 - lam
        if lam.denominator != 1 or lam == 0 or lamp == 0:
            raise BranchDomainViolation("abel1 needs nonzero integers lam, 1-lam")
        c = Fraction(N) * (lamp * m - lam * n) / (n * m)
        s = qpow(Fraction(-N) * lam / m)
    elif branch == "abel2":
        if abs(n) != 1:
            raise BranchDomainViolation("abel2 needs |n| = 1")
        lam = need_lam((m, m + n), "m, or m+n")
        c = Fraction(N * n) * (1 - lam * (m + n))
        s = qpow(-N * lam)
    elif branch == "abel3":
        if abs(m) != 1:
            raise BranchDomainViolation("abel3 needs |m| = 1")
        lam = need_lam((n, n + m), "n, or n+m")
        c = Fraction(N * m) * (lam * (n + m) - 1)
        s = qpow(Fraction(-N * m) * (1 - lam * n))
    elif branch == "abel4":
        if m != -n or n <= 0 or n % 2 == 0:
            raise BranchDomainViolation("abel4 needs m = -n with n > 0 odd")
        c = Fraction(N, n)
        s = qpow(Fraction(-N * (n - 1), 2 * n))
    else:
        raise BranchDomainViolation(f"unknown branch {branch!r}")
    return EllipticParams(N=N, q=q, s=s, c=complex(c))


def _divisors(v: int):
    return {d for d in range(1, abs(v) + 1) if v % d == 0} if v else set()


def abelianity_check(branch: str, N: int, q: complex, m: int, n: int,
                     x_grid, lam=None, tolerance: float = 1e-9,
                     policy: TruncationPolicy = DEFAULT_POLICY):
    """Resolve the branch and measure max |Y_{m,n}(x) - 1| over the grid."""
    clock = Stopwatch()
    x_grid = list(x_grid)
    params = resolve_abelian_branch(branch, N, q, m, n, lam)
    surf = abs(params.s**m * params.s_star**n - q ** (-N))
    dev = worst(abs(Y_mn(x, m, n, params, policy) - 1) for x in x_grid)
    return clock.report(
        suite="abelianity",
        check=f"{branch}(m={m},n={n})",
        identity="Y_{m,n}(x) = 1 on the abelianity surface",
        inputs={"N": N, "q": q, "m": m, "n": n, "lam": None if lam is None else str(lam),
                "c": params.c, "surface_residual": surf, "grid_points": len(x_grid)},
        residual=dev,
        tolerance=tolerance,
    )
