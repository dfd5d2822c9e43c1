"""The q-series kernel: the one product `pochhammer2`, with one nome or one
per point, within rounding of the factor-by-factor walk and as accurate
against a 40-digit mpmath oracle; each formula on arrays equal to its
scalar form and as accurate against 40 digits; batched characteristic thetas
against the defining series summed ring by ring and against 40 digits on
both branches; kappa_inv against 40 digits; the same exceptions; bounded
caches; the theta-identities checks fail on perturbed values."""

import cmath
import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wkit.qseries as qs
import wkit.suites as suites
from wkit import (
    EllipticParams,
    F_a,
    TruncationPolicy,
    RMatrixFactory,
    U,
    Y_FF,
    Y_kkprime_cr,
    Y_mn,
    Y_mn_forms,
    Y_mn_grid,
    kappa_inv,
    pochhammer,
    resolve_abelian_branch,
    tau_N,
    theta_big,
    theta_char_product,
    theta_char_sums,
)
from wkit.errors import ModulusOutOfRange, NonconvergentTau, PoleHit, TruncationBudgetExceeded
from wkit.params import centred_ladder

POL = TruncationPolicy()
SHORT = TruncationPolicy(tail_eps=1e-12, max_terms=64)


def recursive_pochhammer(z, moduli, policy):
    """The factor-by-factor product: every lattice weight built by repeated
    multiplication, walked depth-first, stopped at the first weight below
    tail_eps / (|z| + 1)."""
    moduli = [complex(p) for p in moduli]
    for p in moduli:
        if abs(p) >= 1 - 1e-6:
            raise ModulusOutOfRange(f"|modulus| = {abs(p):.8g} too close to 1")
    if z == 0:
        return 1.0 + 0j
    thresh = policy.tail_eps / (abs(z) + 1.0)
    val = 1.0 + 0j

    def descend(depth, lattice):
        nonlocal val
        if depth == len(moduli):
            val *= 1 - z * lattice
            return
        cur = lattice
        for _ in range(policy.max_terms):
            if abs(cur) < thresh:
                return
            descend(depth + 1, cur)
            cur = cur * moduli[depth]
        if abs(cur) >= thresh:
            raise TruncationBudgetExceeded(
                f"pochhammer index {depth} needs more than {policy.max_terms} factors")

    descend(0, 1.0 + 0j)
    return val


def theta_char_series(g1, g2, xi, tau, policy):
    """theta[g1,g2](xi, tau) by the defining series, summed outward from the
    Gaussian peak m ~ -g1 until two consecutive rings fall below the tail
    tolerance on both wings."""
    g1, g2 = float(g1), float(g2)
    if tau.imag < 1e-6:
        raise NonconvergentTau(f"Im tau = {tau.imag:.3g} < 1e-6")

    def term(m):
        a = m + g1
        return cmath.exp(1j * cmath.pi * a * a * tau + 2j * cmath.pi * a * (xi + g2))

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


def outcome(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc).__name__, str(exc)


def same(a, b):
    """== for values (NaN matching NaN), equality for exception outcomes."""
    if isinstance(a, complex) and isinstance(b, complex):
        return a == b or (cmath.isnan(a) and cmath.isnan(b))
    return a == b


def close(a, b, rel=1e-13):
    """Values within a relative bound (NaN matching NaN), equality for
    exception outcomes."""
    if isinstance(a, complex) and isinstance(b, complex):
        return abs(a - b) <= rel * abs(b) or (cmath.isnan(a) and cmath.isnan(b))
    return a == b


def test_pochhammer_equals_recursive_product():
    rnd = random.Random(11)
    raised = 0
    for _ in range(1500):
        p1 = cmath.rect(rnd.choice([0.05, 0.4, 0.8, 0.97]) * rnd.random(),
                        rnd.choice([0.0, rnd.uniform(-3, 3)]))
        p2 = cmath.rect(0.9 * rnd.random(), rnd.uniform(-1, 1))
        moduli = [p1] if rnd.random() < 0.6 else [p1, p2]
        z = cmath.rect(10 ** rnd.uniform(-2, 2), rnd.uniform(-3.2, 3.2))  # |z| both sides of 1
        pol = rnd.choice([POL, SHORT])
        want = outcome(recursive_pochhammer, z, moduli, pol)
        raised += isinstance(want, tuple)
        # numpy's rounding (worst seen 1.5e-14)
        assert close(outcome(pochhammer, z, moduli, pol), want), (z, moduli, pol)
    assert raised > 20  # the budget paths were exercised


def test_pochhammer_real_arguments_and_limits():
    for z, moduli in [(0.0, [0.5]), (1.0, [0.3]), (0.5, [0.1]), (-2.0, [0.6, 0.2]),
                      (0.4 + 0.1j, [0.3, 0.2]), (3.0, [0.5 - 0.5j])]:
        assert close(pochhammer(z, moduli, POL), recursive_pochhammer(z, moduli, POL))
    with pytest.raises(TruncationBudgetExceeded, match="index 0 needs more than 64"):
        pochhammer(0.5, [0.95], SHORT)
    with pytest.raises(TruncationBudgetExceeded, match="index 1 needs more than 64"):
        pochhammer(0.5, [0.5, 0.95], SHORT)
    with pytest.raises(TruncationBudgetExceeded):
        pochhammer(complex(math.inf, 0.0), [0.5], POL)
    assert cmath.isnan(pochhammer(complex(math.nan, 0.0), [0.5], POL))
    with pytest.raises(ModulusOutOfRange):
        pochhammer(0.5, [math.nan], POL)
    with pytest.raises(ValueError):
        pochhammer(0.5, [0.1, 0.2, 0.3], POL)


def walk_rows(zs, moduli, policy):
    """A run of single factor-by-factor walks: every value, or the first
    exception (a NaN z gives NaN without a walk of every factor)."""
    return outcome(lambda: [complex(math.nan, math.nan) if z != z else
                            recursive_pochhammer(z, moduli, policy) for z in zs])


def close_rows(a, b):
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return a == b


def test_pochhammer2_rows_equal_recursive_product():
    # batches whose points need different depths, so a run of single calls
    # would cut the cached lattice deeper part way through; with no lattice
    # cached or one cut for the first point only, and with p1 given once per
    # point (chains formed per call).  Under SHORT, p = 0.63 needs more than 64
    # factors from |z| ~ 6 on and p = 0.61 from |z| ~ 54 on.  Values agree
    # with the walk to rounding (worst seen 2.6e-14), exceptions exactly.
    rnd = random.Random(12)
    raised = 0
    for _ in range(300):
        p1 = rnd.choice([0.63, cmath.rect(0.8 * rnd.random(), rnd.uniform(-3, 3))])
        p2 = rnd.choice([0.61, cmath.rect(0.9 * rnd.random(), rnd.uniform(-1, 1))])
        pol = rnd.choice([POL, SHORT])
        zs = [rnd.choice([0j, complex(math.nan, 0.0)]) if rnd.random() < 0.15 else
              cmath.rect(10 ** rnd.uniform(-2, 2), rnd.uniform(-3.2, 3.2))
              for _ in range(rnd.randint(1, 9))]
        want = walk_rows(zs, [p1, p2], pol)
        raised += isinstance(want, tuple)
        qs._LATTICES.clear()
        if rnd.random() < 0.5:
            outcome(pochhammer, zs[0], [p1, p2], pol)
        got = outcome(lambda: qs.pochhammer2(zs, p1, p2, pol).tolist())
        assert close_rows(got, want), (zs, p1, p2, pol)
        got = outcome(lambda: qs.pochhammer2(zs, [p1] * len(zs), p2, pol).tolist())
        assert close_rows(got, want), (zs, p1, p2, pol)
    assert raised > 20


def test_pochhammer2_raises_as_the_first_failing_point():
    index0 = ("TruncationBudgetExceeded", "pochhammer index 0 needs more than 64 factors")
    index1 = ("TruncationBudgetExceeded", "pochhammer index 1 needs more than 64 factors")
    # |z| = 80 fails the first row (p2 = 0.61), |z| = 10 the p1 = 0.63 chain;
    # the batch raises what its first failing point raises, with no lattice
    # cached or with one already cut
    for warm in (False, True):
        for zs, want in [([10.0, 80.0], index0), ([80.0, 10.0], index1),
                         ([0j, complex(math.nan, 0.0), 2.0, 80.0], index1)]:
            qs._LATTICES.clear()
            if warm:  # a lattice cut for |z| = 40, stored before it raises
                assert outcome(pochhammer, 40.0, [0.63, 0.61], SHORT) == index0
            assert outcome(qs.pochhammer2, zs, 0.63, 0.61, SHORT) == want
            assert walk_rows(zs, [0.63, 0.61], SHORT) == want
    # the modulus check comes first, even for points that need no factor
    assert outcome(qs.pochhammer2, [0j, complex(math.nan, 0.0)], 0.5, 1.0, POL)[0] == "ModulusOutOfRange"
    got = qs.pochhammer2([0j, complex(math.nan, 0.0), 0.5], 0.5, 0.3, POL)
    assert got[0] == 1 and cmath.isnan(got[1]) and close(got[2], recursive_pochhammer(0.5, [0.5, 0.3], POL))
    assert qs.pochhammer2([], 0.5, 0.3, POL).size == 0


@pytest.mark.parametrize("path", ["fixed nome", "per-point nome", "two moduli", "per-point two moduli"])
def test_pochhammer2_point_equals_itself_in_any_batch(path):
    # bit for bit: a point's value alone equals its value in batches of 2,
    # 3, 8 and 33 at every offset.  numpy reduces a one-lane product with
    # another complex multiply than two or more lanes, so a one-point call
    # must not run on one lane; the sizes cover partial SIMD widths.
    rng = np.random.default_rng(8)
    zs = 10 ** rng.uniform(-1.5, 1.5, 40) * np.exp(1j * rng.uniform(-3, 3, 40))
    nomes = 0.7 * rng.random(40) * np.exp(1j * rng.uniform(-3, 3, 40))
    p1 = {"fixed nome": 0.63 + 0.1j, "two moduli": 0.5}.get(path)
    p2 = 0.3 - 0.2j if "two moduli" in path else 0

    def product(lo, hi):
        return qs.pochhammer2(zs[lo:hi], nomes[lo:hi] if p1 is None else p1, p2, POL)

    alone = [product(i, i + 1)[0] for i in range(zs.size)]
    for size in (2, 3, 8, 33):
        for lo in range(zs.size - size + 1):
            assert product(lo, lo + size).tolist() == alone[lo:lo + size], (size, lo)


def test_kappa_inv_point_equals_itself_in_any_batch():
    # bit for bit: a point's 1/kappa alone equals its value in batches of 2,
    # 3 and 30 at every offset.  Its numerator and denominator are each a
    # product of four pochhammer2 rows, and numpy reduces a one-lane product
    # with another complex multiply than two or more lanes.
    pr = EllipticParams(3, 0.55, cmath.sqrt(0.6))
    rng = np.random.default_rng(24)
    xi = rng.uniform(-1, 1, 30) + 1j * rng.uniform(-0.15, 0.15, 30)
    z2 = np.exp(2j * np.pi * xi)
    alone = [kappa_inv(z2[i:i + 1], pr, POL)[0] for i in range(z2.size)]
    assert [complex(kappa_inv(complex(z), pr, POL)) for z in z2] == alone
    for size in (2, 3, 30):
        for lo in range(z2.size - size + 1):
            assert kappa_inv(z2[lo:lo + size], pr, POL).tolist() == alone[lo:lo + size], (size, lo)


def mp_pochhammer2(mp, z, p1, p2):
    """(z; p1, p2)_inf at the working precision, every factor whose weight
    is at least 1e-25 / (|z| + 1): the tail changes the product by less
    than 1e-24."""
    z, p1, p2 = mp.mpc(z), mp.mpc(p1), mp.mpc(p2)
    bound = mp.mpf(10) ** -25 / (abs(z) + 1)
    val, row = mp.mpc(1), mp.mpc(1)
    while abs(row) > bound:
        w = row
        while abs(w) > bound:
            val *= 1 - z * w
            w *= p2
        row *= p1
    return val


def test_pochhammer2_matches_mpmath():
    # the contract of the array product: as accurate against 40 digits as
    # the factor walk (which the split-real kernel it replaced equalled bit
    # for bit), on the suites' ranges: |p| up to 0.8, P = q^(2N) with q in
    # 0.4-0.8 and N = 2-4, |z| from 0.01 to 100, six points per call
    mp = pytest.importorskip("mpmath")
    rnd = random.Random(31)
    walk_err = batch_err = 0.0
    with mp.workdps(40):
        for _ in range(10):
            p1 = cmath.rect(rnd.uniform(0.05, 0.8), rnd.choice([0.0, rnd.uniform(-3.2, 3.2)]))
            P = rnd.uniform(0.4, 0.8) ** (2 * rnd.choice([2, 3, 4]))
            zs = [cmath.rect(10 ** rnd.uniform(-2, 2), rnd.uniform(-3.2, 3.2)) for _ in range(6)]
            for z, got in zip(zs, qs.pochhammer2(zs, p1, P, POL).tolist()):
                want = mp_pochhammer2(mp, z, p1, P)
                walk_err = max(walk_err, float(abs(recursive_pochhammer(z, [p1, P], POL) - want) / abs(want)))
                batch_err = max(batch_err, float(abs(got - want) / abs(want)))
    assert walk_err <= 1e-13
    assert batch_err <= 2 * walk_err + 1e-14, (batch_err, walk_err)


def kappa_inv_by_single_calls(z2, params, policy):
    q, p, N = params.q, params.p, params.N
    P = q ** (2 * N)
    mod = [p, P]
    num = (pochhammer(P / z2, mod, policy) * pochhammer(q * q * z2, mod, policy)
           * pochhammer(p / z2, mod, policy) * pochhammer(p * P / (q * q) * z2, mod, policy))
    den = (pochhammer(P * z2, mod, policy) * pochhammer(q * q / z2, mod, policy)
           * pochhammer(p * z2, mod, policy) * pochhammer(p * P / (q * q) / z2, mod, policy))
    return num / den


def rhat_by_single_calls(fac, xi):
    """Rhat(xi) with each Pochhammer product of its prefactor a call of its own."""
    q, p, P, pol = fac.params.q, fac.params.p, fac._P, fac.policy
    z2 = cmath.exp(2j * cmath.pi * xi)
    mod = [p, P]
    num = (pochhammer(P / (q * q) * z2, [P], pol) * fac._pp_P * pochhammer(P / z2, mod, pol)
           * pochhammer(q * q * z2, mod, pol) * pochhammer(p / z2, mod, pol)
           * pochhammer(p * P / (q * q) * z2, mod, pol))
    den = 1.0 + 0j
    for f in [pochhammer(p * q * q / z2, mod, pol), theta_big(z2, P, pol), pochhammer(P * z2, mod, pol),
              pochhammer(p * z2, mod, pol), pochhammer(p * P / (q * q) / z2, mod, pol)]:
        den *= f
    ratios, theta_den = fac._thetas(np.array(xi))
    q_pow = q ** (1.0 / fac.N - 1.0)
    return fac._w_sum(q_pow * num / den * (fac._theta_A_zeta / theta_den), ratios, fac._coef_G)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_builds_equal_single_call_products(N):
    # one batched product per build: kappa_inv and Rhat agree with the same
    # expressions with every product a single call, to rounding
    rnd = random.Random(N)
    for _ in range(20):
        pr = EllipticParams(N, cmath.rect(rnd.uniform(0.4, 0.7), rnd.choice([0.0, 0.2])),
                            cmath.sqrt(cmath.rect(rnd.uniform(0.2, 0.7), rnd.uniform(-0.5, 0.5))))
        xi = complex(rnd.uniform(-1, 1), rnd.uniform(-0.15, 0.15))
        z2 = cmath.exp(2j * cmath.pi * xi)
        assert close(outcome(kappa_inv, z2, pr, POL), outcome(kappa_inv_by_single_calls, z2, pr, POL), 1e-14)
        fac = RMatrixFactory(pr)
        assert fac._children is None
        want = rhat_by_single_calls(fac, xi)
        assert np.abs(fac.build([xi], hat=True)[0] - want).max() <= 1e-14 * np.abs(want).max()


PARAMS = [
    EllipticParams(2, 0.6, 0.5),
    EllipticParams(3, 0.8, cmath.sqrt(0.3), 0.4),
    EllipticParams(3, cmath.rect(0.55, 0.2), 0.6 + 0.1j, -0.7),
]


def grids():
    real = np.geomspace(0.55, 1.9, 40)  # U has poles at x = 1 and (N = 2, s = 0.5) at s x = 1
    rng = np.random.default_rng(5)
    return [real, real * np.exp(1j * rng.uniform(-1.2, 1.2, real.size))]


def nome_of(pr, x):
    """A nome that varies from point to point, for theta_big with one nome per point."""
    return pr.p * (0.6 + 0.4 * np.cos(3 * np.abs(x)))


def grid_forms(pr):
    """(name, form on an array of x, scalar form f(x)): each formula called
    once with an array and once per point with a scalar."""
    forms = {
        "theta_big": lambda x: theta_big(x, pr.p, POL),
        "theta_big per-point nome": lambda x: theta_big(x, nome_of(pr, x), POL),
        "U": lambda x: U(x, pr, POL),
        "tau_N": lambda x: tau_N(x, pr, POL),
        "F_2": lambda x: F_a(x, 2, pr.s, pr, POL),
        "F*_-3": lambda x: F_a(x, -3, pr.s_star, pr, POL),
        "Y_2,-3 form 1": lambda x: Y_mn_forms(x, 2, -3, pr, POL)[0],
        "Y_2,-3 form 2": lambda x: Y_mn_forms(x, 2, -3, pr, POL)[1],
        "Y_FF": lambda x: Y_FF(x, pr.with_c(0.25), POL),
    }
    return [(name, f, f) for name, f in forms.items()] + [
        ("Y_2,-3", lambda xs: Y_mn_grid(xs, 2, -3, pr, POL), lambda x: Y_mn(x, 2, -3, pr, POL))]


def rel_err(got, want):
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


@pytest.mark.parametrize("pr", PARAMS, ids=["N2", "N3-q0.8", "N3-complex-q"])
def test_grid_forms_equal_scalar_forms(pr):
    # a scalar call runs the same array body on a one-point array
    for xs in grids():
        for name, grid_form, scalar_form in grid_forms(pr):
            got = grid_form(xs)
            assert got.shape == xs.shape and got.dtype == complex, name
            assert got.tolist() == [scalar_form(complex(x)) for x in xs], name
    # the triple-product theta on the theta-identities suite's draws, one
    # call for all rows (each row with its own nome e^{2 i pi tau}); a
    # scalar call takes the one-nome path, which rounds otherwise
    g1s, g2s, xis, taus = map(np.array, zip(*theta_identities_rows()))
    got = theta_char_product(g1s, g2s, xis, taus, POL).tolist()
    assert rel_err(got, [theta_char_product(*row, POL) for row in theta_identities_rows()]) <= 1e-12


@pytest.mark.parametrize("branch,m,n,lam", [("abel1", 2, -3, -1), ("abel2", 3, 1, 2),
                                            ("abel3", 1, 3, 2), ("abel4", -3, 3, None)])
def test_grid_Y_equals_scalar_on_abelianity_branches(branch, m, n, lam):
    params = resolve_abelian_branch(branch, 3, 0.8, m, n, lam)
    xs = np.geomspace(0.5, 2.0, 60)
    assert Y_mn_grid(xs, m, n, params).tolist() == [Y_mn(x, m, n, params) for x in xs]


def test_grid_forms_raise_as_the_scalar_loop():
    pr = PARAMS[0]
    U_form = next(form for name, form, _ in grid_forms(pr) if name == "U")
    xs = np.linspace(0.5, 1.5, 5)  # contains x = 1
    cases = [
        (lambda x: theta_big(x, 0.95, SHORT), xs),  # the 0.95 chain needs more than 64 factors
        (lambda x: theta_big(x, 1.0, POL), xs),  # ModulusOutOfRange
        (U_form, xs),  # PoleHit at x = 1
        (lambda x: Y_mn(x, 2, -3, pr), xs),
        # one nome per point: 0.97 needs more than 64 factors at the second
        # point, before the third point's modulus is out of range (which the
        # array product raises first)
        (lambda x: theta_big(x, np.where(x == 1.3, 0.97, np.where(x == 0.9, 1 - 1e-7, 0.5)), SHORT),
         np.array([0.7, 1.3, 0.9])),
        (lambda x: theta_big(x, np.where(x == 0.9, 1 - 1e-7, 0.5), SHORT), np.array([0.7, 1.3, 0.9])),
        (lambda x: theta_big(x, np.where(x == 1.3, 0.95, 0.5), SHORT), np.array([0.7, 1.3, 0.9])),
    ]
    for form, points in cases:
        want = outcome(lambda: [form(complex(x)) for x in points])
        assert isinstance(want, tuple)
        assert outcome(form, points) == want
    assert outcome(cases[4][0], cases[4][1])[0] == "TruncationBudgetExceeded"
    assert outcome(cases[5][0], cases[5][1])[0] == "ModulusOutOfRange"
    with pytest.raises(PoleHit, match=r"z = \(1\+0j\)"):
        U_form(xs)
    # a NaN point is NaN on both paths; the other points keep their values
    odd = np.array([0.7, complex(math.nan, 0.0), 1.3])
    for name, form, scalar_form in (f for f in grid_forms(pr) if f[0] in ("theta_big", "U")):
        got = form(odd).tolist()
        assert cmath.isnan(got[1]), name
        assert rel_err([got[0], got[2]], [scalar_form(0.7 + 0j), scalar_form(1.3 + 0j)]) <= 1e-12


@pytest.mark.parametrize("pr", PARAMS, ids=["N2", "N3-q0.8", "N3-complex-q"])
def test_scalar_call_is_the_one_point_array_call(pr):
    # a scalar runs the array body on a one-point array and comes back as a
    # Python complex, equal to that array's one value
    x = 0.83 + 0.21j
    forms = [(name, f) for name, f, _ in grid_forms(pr) if name != "Y_2,-3"] + [
        ("Y_2,-3", lambda x: Y_mn(x, 2, -3, pr, POL)),
        ("theta_char_product", lambda x: theta_char_product(0.5, 1 / 3, x, 0.1 + 0.7j, POL)),
    ]
    critical = [
        ("I_series", lambda x: qs.I_series(x, pr, POL)),
        ("f_cr_series", lambda x: qs.f_cr_series(x, 2, 1, pr, POL)),
        ("f_cr_modes", lambda x: qs.f_cr_modes(x, 1, 1, pr, POL)),
    ]
    for name, f in forms + critical:
        got, want = f(x), f(np.array([x]))
        assert type(got) is complex and want.shape == (1,), name
        assert got == want[0], name
    # the critical-level forms give a point its scalar value in any batch
    rng = np.random.default_rng(3)
    xs = np.geomspace(0.9 * abs(pr.q) ** -1, 1.1 * abs(pr.q), 9) * np.exp(1j * rng.uniform(-3, 3, 9))
    for name, f in critical:
        scalar = [f(complex(v)) for v in xs]
        assert f(xs).tolist() == scalar, name
        assert f(xs[::-1]).tolist() == scalar[::-1], name
        assert f(xs[4:6]).tolist() == scalar[4:6], name
    for moduli in ([pr.p], [pr.p, pr.q ** (2 * pr.N)]):
        got = pochhammer(x, moduli, POL)
        assert type(got) is complex
        assert got == qs.pochhammer2(np.array([x]), moduli[0], moduli[1] if len(moduli) == 2 else 0, POL)[0]
    f1, f2, diff = Y_mn_forms(x, 2, -3, pr, POL)
    assert type(f1) is complex and type(f2) is complex
    assert (f1, f2, diff) == tuple(v[0] for v in Y_mn_forms(np.array([x]), 2, -3, pr, POL))


def Y_kkprime_cr_loop(x, k, kprime, params, policy):
    """The fused exchange ratio as a loop of scalar U calls over the pairs."""
    q, c = params.q, params.c
    val = 1.0 + 0j
    for ti in centred_ladder(k):
        for tj in centred_ladder(kprime):
            d = ti - tj
            val *= U(q**d * x, params, policy) / U(q ** (d - c) * x, params, policy)
    return val


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_Y_kkprime_cr_equals_the_loop(N):
    # one stacked U call against the loop, near the critical level (where
    # critical-poisson takes its central differences) and away from it
    rnd = random.Random(N)
    for c in (-N + 1e-5, -N - 1e-5, 0.25):
        pr = EllipticParams(N, rnd.uniform(0.5, 0.8), cmath.sqrt(0.3), c)
        x = cmath.rect(rnd.uniform(0.8, 1.25), rnd.uniform(-0.4, 0.4))
        for k in range(1, N + 1):
            for kprime in range(1, N + 1):
                want = Y_kkprime_cr_loop(x, k, kprime, pr, POL)
                got = Y_kkprime_cr(x, k, kprime, pr, POL)
                assert type(got) is complex
                assert abs(got - want) <= 1e-13 * abs(want), (N, c, k, kprime)


def test_Y_kkprime_cr_raises_the_first_pole_of_the_loop():
    # k = k' = 2 at x = q, c = 1 - N: the first pair's denominator point is
    # q^N (z^2 = q^(2N), a pole of U), and the second pair's numerator point
    # is 1, also a pole; the loop meets q^N first
    N = 3
    pr = EllipticParams(N, 0.55, cmath.sqrt(0.3), 1 - N)
    want = outcome(Y_kkprime_cr_loop, pr.q, 2, 2, pr, POL)
    assert want[0] == "PoleHit" and "(1+0j)" not in want[1]
    assert outcome(Y_kkprime_cr, pr.q, 2, 2, pr, POL) == want
    with pytest.raises(PoleHit, match=r"U\(z\) pole at z = \(0\.16637"):
        Y_kkprime_cr(pr.q, 2, 2, pr, POL)


def test_per_point_nomes_match_mpmath():
    # the one-modulus product with one nome per point, on the theta-identities
    # suite's nomes: e^{2 i pi tau} for Im tau 0.3-3, |Re tau| <= 0.5, and a^2
    # for a in [0.3, 0.8]; theta_big's three rows z, p/z and p at |z| from
    # 0.5 to 2.  As accurate against 40 digits as the factor walk: the worst
    # error measured on these draws is 1.2e-15, for the walk and the batch
    mp = pytest.importorskip("mpmath")
    rnd = random.Random(53)
    nomes = [cmath.exp(2j * math.pi * complex(rnd.uniform(-0.5, 0.5), rnd.uniform(0.3, 3.0))) for _ in range(20)]
    nomes += [rnd.uniform(0.3, 0.8) ** 2 for _ in range(20)]
    zs = [cmath.rect(rnd.uniform(0.5, 2.0), rnd.uniform(-math.pi, math.pi)) for _ in nomes]
    rows = [(z, p) for z, p in zip(zs, nomes)] + [(p / z, p) for z, p in zip(zs, nomes)] + [(p, p) for p in nomes]
    got = qs.pochhammer2([z for z, _ in rows], [p for _, p in rows], 0, POL).tolist()
    walk_err = batch_err = 0.0
    with mp.workdps(40):
        for (z, p), v in zip(rows, got):
            want = mp_pochhammer2(mp, z, p, 0)
            walk_err = max(walk_err, float(abs(recursive_pochhammer(z, [p], POL) - want) / abs(want)))
            batch_err = max(batch_err, float(abs(v - want) / abs(want)))
    assert walk_err <= 1e-13
    assert batch_err <= 2 * walk_err + 1e-14, (batch_err, walk_err)


class MpOracle:
    """U, F_a and Y_mn of one parameter set at 40 digits, from the same
    formulas, every product taken until its factors are within 1e-45 of 1;
    U is memoised, as the forms share their ladders."""

    def __init__(self, mp, pr):
        self.mp, self.N = mp, pr.N
        self.q = mp.mpc(pr.q)
        self.P = self.q ** (2 * pr.N)
        self.pp = self.poch(self.P)
        self.memo = {}

    def poch(self, z):
        val, w, bound = self.mp.mpc(1), self.mp.mpc(1), self.mp.mpf(10) ** -45 / (abs(z) + 1)
        while abs(w) > bound:
            val *= 1 - z * w
            w *= self.P
        return val

    def theta(self, z):
        return self.poch(z) * self.poch(self.P / z) * self.pp

    def U(self, z):
        key = (z.real, z.imag)
        if key not in self.memo:
            z2, q2 = z * z, self.q * self.q
            self.memo[key] = (self.q ** self.mp.mpf(2.0 / self.N - 2.0) * self.theta(q2 * z2)
                              * self.theta(q2 / z2) / (self.theta(z2) * self.theta(1 / z2)))
        return self.memo[key]

    def F(self, x, a, s):
        s, val = self.mp.mpc(s), self.mp.mpc(1)
        for l in range(a):
            val *= self.U(s**l * x)
        for l in range(1, -a + 1):
            val /= self.U(s ** (-l) * x)
        return val

    def Y(self, x, m, n, pr):
        return (self.F(x, n, pr.s_star) * self.F(x, -n, pr.s_star)
                / (self.F(x, m, pr.s) * self.F(x, -m, pr.s)))


@pytest.mark.parametrize("pr", PARAMS, ids=["N2", "N3-q0.8", "N3-complex-q"])
def test_grid_forms_match_mpmath(pr):
    # the contract of the grid forms: as accurate as the scalar forms against
    # 40 digits, on every tenth point of the grids (worst scalar error seen:
    # 1.83e-12, Y_2,-3 at N = 3, q = 0.8; worst grid/scalar ratio: 1.6)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        oracle = MpOracle(mp, pr)
        exact = {"U": oracle.U, "F_2": lambda x: oracle.F(x, 2, pr.s),
                 "F*_-3": lambda x: oracle.F(x, -3, pr.s_star),
                 "Y_2,-3": lambda x: oracle.Y(x, 2, -3, pr)}
        for xs in grids():
            xs = xs[::10]
            for name, grid_form, scalar_form in (f for f in grid_forms(pr) if f[0] in exact):
                want = [exact[name](mp.mpc(complex(x))) for x in xs]
                scalar = float(rel_err([mp.mpc(scalar_form(complex(x))) for x in xs], want))
                grid = float(rel_err([mp.mpc(v) for v in grid_form(xs).tolist()], want))
                assert scalar <= 1e-11, name
                assert grid <= 2 * scalar + 1e-14, (name, grid, scalar)


CHARS = [0.0, 0.5, -0.5, 1 / 3, 2 / 3, 0.25, 1.5, 0.5 + 2 / 3]


@given(
    chars=st.lists(st.tuples(st.sampled_from(CHARS), st.sampled_from(CHARS), st.floats(-1, 1),
                             st.floats(-0.6, 0.6), st.floats(-0.6, 0.6), st.floats(0.05, 1.5)),
                   min_size=1, max_size=10),
    per_row=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_theta_char_sums_match_series_and_product(chars, per_row):
    # one call for the whole set, with one tau (the first row's) or one per
    # row, each row on whichever of tau and -1/tau it runs on; errors are
    # measured against sum_m |term_m| of the defining series, the scale its
    # own rounding works at (a value near a zero of theta cancels, whichever
    # way it is computed)
    g1s, g2s, xr, xi, tr, ti = zip(*chars)
    xis = [complex(a, b) for a, b in zip(xr, xi)]
    taus = [complex(a, b) for a, b in zip(tr, ti)] if per_row else [complex(tr[0], ti[0])] * len(chars)
    got = theta_char_sums(g1s, g2s, xis, taus if per_row else taus[0], POL)
    assert got.shape == (len(chars),)
    for g1, g2, x, tau, v in zip(g1s, g2s, xis, taus, got.tolist()):
        scale = theta_char_series(g1, 0.0, 1j * x.imag, 1j * tau.imag, POL).real
        assert abs(v - theta_char_series(g1, g2, x, tau, POL)) <= 1e-13 * scale
        assert abs(v - theta_char_product(g1, g2, x, tau, POL)) <= 1e-13 * scale


def test_theta_char_sums_one_point_for_all_characteristics():
    tau = 0.1 + 0.4j
    got = theta_char_sums([0.5, 0.25], [0.5, 1 / 3], 0.3 - 0.1j, tau, POL)
    want = [theta_char_series(g1, g2, 0.3 - 0.1j, tau, POL) for g1, g2 in [(0.5, 0.5), (0.25, 1 / 3)]]
    assert np.allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("tau,policy", [
    (1 + 1e-5j, POL),         # the defining series needs about 1,000 rings
    (1 + 0.002j, SHORT),      # about 80 rings, against a budget of 64
    (0.5 + 1e-4j, SHORT),     # -1/tau has Im 4e-4: the modular image is slow too
])
def test_theta_char_sums_raise_past_the_budget(tau, policy):
    with pytest.raises(TruncationBudgetExceeded, match="theta series did not meet tail bound"):
        theta_char_sums([0.5, 0.0], [0.5, 1 / 3], 0.1 + 0.05j, tau, policy)
    with pytest.raises(TruncationBudgetExceeded):  # the ring-by-ring series agrees
        theta_char_series(0.5, 0.5, 0.1 + 0.05j, tau, policy)
    with pytest.raises(NonconvergentTau):
        theta_char_sums([0.5], [0.5], 0.1, complex(tau.real, 1e-7), policy)
    with pytest.raises(TruncationBudgetExceeded):  # a NaN point never meets the tail rule
        theta_char_sums([0.5], [0.5], complex(math.nan, 0.0), 0.2 + 0.5j, POL)


def test_theta_char_sums_mixed_tau_equal_one_tau_calls():
    # rows on the defining series (|tau| >= 1) and on the modular image
    # (|tau| < 1) in one call: each row == the call with only its tau,
    # which is how an R-matrix build calls it
    rng = np.random.default_rng(29)
    taus = [0.3 + 1.1j, -0.2 + 0.5j]
    rows = [(rng.choice(CHARS), rng.choice(CHARS), complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3)),
             taus[i % 2]) for i in range(12)]
    g1s, g2s, xis, row_taus = (np.array(v) for v in zip(*rows))
    got = theta_char_sums(g1s, g2s, xis, row_taus, POL)
    for tau in taus:
        on = row_taus == tau
        assert got[on].tolist() == theta_char_sums(g1s[on], g2s[on], xis[on], tau, POL).tolist()


def test_theta_char_sums_raise_on_any_nonconvergent_row():
    for row in range(3):
        taus = [0.2 + 1.1j, 0.3 + 0.4j, -0.1 + 2.0j]
        taus[row] = complex(taus[row].real, 1e-7)
        with pytest.raises(NonconvergentTau, match="Im tau = 1e-07"):
            theta_char_sums([0.5, 0.0, 0.25], [0.5, 1 / 3, 0.0], 0.1 + 0.05j, taus, POL)


def mp_theta_char(mp, g1, g2, xi, tau):
    """theta[g1,g2](xi, tau) at the working precision: the defining series
    summed outward from its largest term until a pair of terms is below
    1e-45 (1 + |sum|)."""
    g1, u, tau = mp.mpf(g1), mp.mpc(xi) + mp.mpf(g2), mp.mpc(tau)
    centre = int(mp.nint(-u.imag / tau.imag - g1))

    def term(m):
        return mp.exp(1j * mp.pi * tau * (m + g1) ** 2 + 2j * mp.pi * (m + g1) * u)

    acc, k = term(centre), 1
    while True:
        a, b = term(centre + k), term(centre - k)
        acc += a + b
        if k > 3 and max(abs(a), abs(b)) < mp.mpf(10) ** -45 * (1 + abs(acc)):
            return acc
        k += 1


def rmatrix_theta_rows():
    """(g1s, g2s, xis, tau) of the lattice sum of R-matrix builds at
    q = 0.55, p in {0.3, 0.6, 0.8}, N = 2-4, two points xi each: W's N^2
    rows (1/2 + a/N, 1/2 + b/N) at xi + zeta/N and the prefactor's
    (1/2, 1/2) at xi + zeta.  Re xi in [-1, 1] covers the continuation
    xi -> xi + 1 the builds take."""
    rnd = random.Random(41)
    for N in (2, 3, 4):
        for p in (0.3, 0.6, 0.8):
            pr = EllipticParams(N, 0.55, cmath.sqrt(p))
            g1s = [0.5 + a / N for a in range(N) for _ in range(N)] + [0.5]
            g2s = [0.5 + b / N for _ in range(N) for b in range(N)] + [0.5]
            for _ in range(2):
                xi = complex(rnd.uniform(-1, 1), rnd.uniform(-0.2, 0.2))
                yield g1s, g2s, [xi + pr.zeta / N] * (N * N) + [xi + pr.zeta], pr.tau


def theta_identities_rows():
    """(g1, g2, xi, tau) drawn as the theta-identities suite draws them."""
    rnd = random.Random(43)
    for _ in range(120):
        N = rnd.choice([2, 3, 4])
        chars = [0.0, 0.5, -0.5, 1.0 / N, -1.0 / N]
        yield (rnd.choice(chars), rnd.choice(chars),
               complex(rnd.uniform(-1, 1), rnd.uniform(-0.2, 0.2)),
               complex(rnd.uniform(-0.5, 0.5), rnd.uniform(0.3, 3.0)))


def theta_char_error(mp, g1s, g2s, xis, tau):
    """Worst |theta_char_sums - 40-digit value| / (1 + |value|) of one call."""
    got = theta_char_sums(g1s, g2s, xis, tau, POL).tolist()
    with mp.workdps(40):
        return max(float(abs(v - w) / (1 + abs(w))) for v, w in zip(
            got, (mp_theta_char(mp, *row, tau) for row in zip(g1s, g2s, xis))))


def test_theta_char_sums_match_mpmath_on_rmatrix_rows():
    # every R-matrix row has |tau| < 1, so this is the modular-image branch;
    # worst error measured: 1.0e-15 on these draws, 1.1e-14 on 27 others
    # (N = 3, p = 0.8, Re xi = 0.96, where the image's exponents are of
    # order 100 and their rounding alone is about 1e-14)
    mp = pytest.importorskip("mpmath")
    rows = list(rmatrix_theta_rows())
    assert all(abs(tau) < 1 for *_, tau in rows)
    assert max(theta_char_error(mp, *row) for row in rows) <= 2 * 1.1e-14 + 1e-14


def test_theta_char_sums_match_mpmath_on_theta_identities_range():
    # Im tau 0.3-3, |Re tau| <= 0.5: most rows have |tau| >= 1 and sum the
    # defining series, the rest take the modular image; worst error
    # measured: 2.2e-16 on the series rows (92 of 120), 1.9e-16 on the others
    mp = pytest.importorskip("mpmath")
    rows = list(theta_identities_rows())
    series = [abs(tau) >= 1 for *_, tau in rows]
    assert sum(series) > len(rows) / 2 and not all(series)
    for g1, g2, xi, tau in rows:
        assert theta_char_error(mp, [g1], [g2], [xi], tau) <= 2 * 2.2e-16 + 1e-14


def mp_kappa_inv(mp, z2, params):
    """1/kappa(z^2) from its eight two-modulus products at the working precision."""
    q, p, P = params.q, params.p, params.q ** (2 * params.N)
    num = [P / z2, q * q * z2, p / z2, p * P / (q * q) * z2]
    den = [P * z2, q * q / z2, p * z2, p * P / (q * q) / z2]
    return (mp.fprod(mp_pochhammer2(mp, x, p, P) for x in num)
            / mp.fprod(mp_pochhammer2(mp, x, p, P) for x in den))


def test_kappa_inv_matches_mpmath():
    # N = 2-4, p in {0.3, 0.6}, q in [0.4, 0.7], z^2 for z in the suites'
    # sampling wedge (0.7 <= |z| <= 1.4); worst relative error measured:
    # 9.0e-15 on these draws, 1.0e-14 on 24 others
    mp = pytest.importorskip("mpmath")
    rnd = random.Random(47)
    worst = 0.0
    with mp.workdps(40):
        for N in (2, 3, 4):
            for p in (0.3, 0.6):
                for _ in range(2):
                    pr = EllipticParams(N, rnd.uniform(0.4, 0.7), cmath.sqrt(p))
                    z = cmath.rect(rnd.uniform(0.7, 1.4), rnd.uniform(-0.45, 0.45) * math.pi)
                    want = mp_kappa_inv(mp, z * z, pr)
                    worst = max(worst, float(abs(kappa_inv(z * z, pr, POL) - want) / abs(want)))
    assert worst <= 2 * 1.0e-14 + 1e-14, worst


def perturbed(fn, k):
    """fn with its values off by the relative 1e-8 Re(args[k]), which varies
    from point to point (a constant factor cancels in the U and tau_N
    ratios); Y_mn_forms has its first form perturbed and the difference
    taken again."""
    def wrapper(*args, **kwargs):
        got, factor = fn(*args, **kwargs), 1 + 1e-8 * np.real(args[k])
        if isinstance(got, tuple):
            return got[0] * factor, got[1], abs(got[0] * factor - got[1])
        return got * factor
    return wrapper


@pytest.mark.parametrize("check,name,k", [
    ("series-vs-product", "theta_char_product", 2), ("theta-inversion", "theta_big", 0),
    ("theta-product-N", "theta_big", 0), ("theta-product-N", "pochhammer2", 0),
    ("tau-U-identities", "tau_N", 0), ("tau-U-identities", "U", 0),
    ("Y-two-forms", "Y_mn_forms", 0), ("Y-unitary-inversion", "Y_FF", 0)])
def test_theta_identities_fail_on_perturbed_values(monkeypatch, check, name, k):
    ctx = suites.SuiteContext(params=EllipticParams(3, 0.8, cmath.sqrt(0.3)), seed=1)

    def report():
        return next(r for r in suites.suite_theta_identities(ctx) if r.check == check)

    assert report().passed
    monkeypatch.setattr(suites, name, perturbed(getattr(suites, name), k))
    assert not report().passed


def test_theta_identities_cache_only_fixed_nomes():
    # the suite's scattered nomes run on per-call chains; the lattice and
    # (p; p) caches keep only q^(2N) (with p2 = 0, as every one-modulus
    # product)
    pr = EllipticParams(3, 0.8, cmath.sqrt(0.3))
    qs._LATTICES.clear()
    qs._PP.clear()
    for seed in (1, 2):
        suites.suite_theta_identities(suites.SuiteContext(params=pr, seed=seed))
    assert {(p1, p2) for p1, p2, _ in qs._LATTICES} == {(complex(pr.q ** (2 * pr.N)), 0j)}
    assert {p for p, _ in qs._PP} == {complex(pr.q ** (2 * pr.N))}


def test_series_vs_product_checks_theta_char_sums(monkeypatch):
    # the theta-identities suite must check the lattice sum the R-matrix
    # builds run: a relative error of 1e-8 in it fails the 1e-10 tolerance
    ctx = suites.SuiteContext(params=EllipticParams(2, 0.55, cmath.sqrt(0.3)))

    def series_vs_product():
        return next(r for r in suites.suite_theta_identities(ctx)
                    if r.check == "series-vs-product")

    assert series_vs_product().passed
    exact = suites.theta_char_sums
    monkeypatch.setattr(suites, "theta_char_sums", lambda *a: exact(*a) * (1 + 1e-8))
    assert not series_vs_product().passed


def test_kernel_caches_stay_bounded():
    rng = np.random.default_rng(17)
    for i, a in enumerate(rng.uniform(0.05, 0.9, 1000)):
        theta_big(0.7 + 0.2j, a * a, POL)
        if i % 10 == 0:
            pochhammer(0.3, [a, 0.2], POL)
    assert 0 < len(qs._PP) <= qs._CACHE_LIMIT
    # one-modulus array products keep a lattice per nome, bounded apart;
    # a lattice past the size bound is formed per call and not kept
    for a in rng.uniform(0.05, 0.9, 100):
        theta_big(np.array([0.7 + 0.2j, 1.1]), a * a, POL)
    assert 0 < len(qs._LATTICES) <= qs._LATTICE_LIMIT
    qs._LATTICES.clear()
    big = qs.pochhammer2([0.3], 0.92, 0.91, POL)[0]  # about 88,000 weights
    assert not qs._LATTICES and big == qs.pochhammer2([0.3], 0.92, 0.91, POL)[0]
    # values computed after the caches were cleared still match
    assert close(theta_big(0.7 + 0.2j, 0.36, POL), recursive_pochhammer(0.7 + 0.2j, [0.36], POL)
                 * recursive_pochhammer(0.36 / (0.7 + 0.2j), [0.36], POL)
                 * recursive_pochhammer(0.36, [0.36], POL))


def test_kernel_caches_under_concurrent_callers():
    # more threads than cores share the caches while they are cleared and
    # regrown, and run array evaluations side by side; every value must
    # still equal the single-threaded one
    rng = np.random.default_rng(23)
    nomes = [complex(a) for a in rng.uniform(0.05, 0.8, 3 * qs._CACHE_LIMIT)]
    pairs = [(a, 0.3 * b) for a, b in zip(nomes[:40], nomes[40:80])]
    z = 0.8 + 0.3j
    want = [theta_big(z, p, POL) for p in nomes], [pochhammer(z, list(m), POL) for m in pairs]
    zs, ps = np.array([z, 1 / z, 2 * z]), np.array(nomes[:3])
    want_arrays = theta_big(zs, ps, POL).tolist(), U(zs, EllipticParams(3, 0.8, 0.5), POL).tolist()
    got, errors = {}, []

    def work(i):
        try:
            order = list(range(len(nomes)))
            random.Random(i).shuffle(order)
            thetas = {j: theta_big(z, nomes[j], POL) for j in order}
            got[i] = [thetas[j] for j in range(len(nomes))], [pochhammer(z, list(m), POL) for m in pairs]
            # array evaluations, each thread with its own batch state
            assert (theta_big(zs, ps, POL).tolist(), U(zs, EllipticParams(3, 0.8, 0.5), POL).tolist()) == want_arrays
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(got) == 4 and all(v == want for v in got.values())
    assert len(qs._PP) <= qs._CACHE_LIMIT
