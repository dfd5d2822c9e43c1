"""R-matrix layer: Weyl pair, builders, and the full property sheet."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wkit.qseries as qs
import wkit.rmatrix as rmatrix
from wkit import EllipticParams, RMatrixFactory, TruncationPolicy, ZnMatrices, xi_of
from wkit.errors import ModulusOutOfRange, PoleHit
from wkit.qseries import U, tau_N
from wkit.rmatrix import factory
from wkit.suites import (
    check_antisymmetry,
    check_crossing,
    check_kernel,
    check_quasi_periodicity_M,
    check_regularity,
    check_unitarity,
    check_yang_baxter,
    run_check,
    zn_symmetry_residual,
)
from wkit.tensor import antisymmetrizer_basis, fused_R, permutation_operator

POL = TruncationPolicy()


def params(N=2, q=0.5, p=0.3, c=0.0):
    return EllipticParams(N=N, q=q, s=cmath.sqrt(p), c=c)


def m21(mat, N):
    """M_21: the two-space matrix M_12 with its spaces exchanged."""
    return mat.reshape((N,) * 4).transpose(1, 0, 3, 2).reshape(N * N, N * N)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_weyl_pair(N):
    zn = ZnMatrices(N)
    E = np.eye(N)
    assert np.allclose(np.linalg.matrix_power(zn.h, N), E)
    assert np.allclose(np.linalg.matrix_power(zn.g, N), E)
    # Weyl pair: with g = diag(omega^i) and h_{ij} = delta_{i+1,j} the
    # exchange factor sits as h g = omega g h
    assert np.linalg.norm(zn.h @ zn.g - zn.omega * zn.g @ zn.h) < 1e-14
    assert abs(abs(np.linalg.det(zn.GH)) - 1) < 1e-12
    ghN = np.linalg.matrix_power(zn.GH, N)
    assert np.linalg.norm(ghN - ghN[0, 0] * E) < 1e-12  # GH^N proportional to 1


@pytest.mark.parametrize("N,count", [(2, 8), (3, 27)])
def test_zn_sparsity_pattern(N, count):
    fac = RMatrixFactory(params(N=N), POL)
    M = fac.build([xi_of(1.1 + 0.2j)], hat=False)[0]
    assert zn_symmetry_residual(M, N) < 1e-12
    nonzero = int(np.sum(np.abs(M) > 1e-12 * np.abs(M).max()))
    assert nonzero == count


@pytest.mark.parametrize("N", [2, 3, 4])
def test_regularity(N):
    rep = run_check(check_regularity(RMatrixFactory(params(N=N), POL)))
    assert rep.passed and rep.residual < 1e-9


@pytest.mark.parametrize("N", [2, 3])
def test_unitarity_and_ybe(N):
    fac = RMatrixFactory(params(N=N), POL)
    assert run_check(check_unitarity(1.2 + 0.1j, fac)).residual < 1e-9
    assert run_check(check_yang_baxter(1.2 + 0.1j, 0.8 - 0.05j, fac)).residual < 1e-9
    assert run_check(check_yang_baxter(1.2 + 0.1j, 0.8 - 0.05j, fac, hat=True)).residual < 1e-9


@pytest.mark.parametrize("N", [2, 3, 4])
def test_crossing_both_forms(N):
    assert run_check(check_crossing(1.1 + 0.2j, RMatrixFactory(params(N=N), POL))).residual < 1e-9


@pytest.mark.parametrize("N", [2, 3, 4])
def test_antisymmetry_via_continuation(N):
    assert run_check(check_antisymmetry(1.1 + 0.2j, RMatrixFactory(params(N=N), POL))).residual < 1e-9


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("a", [-3, -2, -1, 0, 1, 2, 3])
def test_quasi_periodicity_all_steps(N, a):
    rep = run_check(check_quasi_periodicity_M(1.1 + 0.1j, a, RMatrixFactory(params(N=N), POL)))
    assert rep.residual < 1e-9, (N, a, rep.residual)
    if a == 0:
        assert rep.residual < 1e-14


def test_quasi_periodicity_starred():
    # the p* matrix with the s* ladder: the plain check at (N, q, s*)
    pr = params(N=2, c=0.4)
    starred = RMatrixFactory(EllipticParams(pr.N, pr.q, pr.s_star, 0.0), POL)
    rep = run_check(check_quasi_periodicity_M(1.1 + 0.1j, 1, starred))
    assert rep.residual < 1e-9


def test_quasi_periodicity_iterated_oracle():
    # a = -2 must equal two iterations of the single-step relation
    pr = params(N=2)
    fac = RMatrixFactory(pr, POL)
    x = 1.15 + 0.1j
    xi = xi_of(x)
    E = np.eye(2)
    M1 = fac.zn.M_power(1)
    step = fac.s_shift
    one = np.kron(M1, E) @ fac.build([xi], hat=True)[0]
    from wkit.qseries import F_a
    scal1 = F_a(x, 1, pr.s, pr, POL)
    two_lhs = np.kron(M1, E) @ np.kron(M1, E) @ fac.build([xi], hat=True)[0]
    scal2 = scal1 * F_a(cmath.exp(1j * cmath.pi * (xi + step)), 1, pr.s, pr, POL)
    two_rhs = scal2 * fac.build([xi + 2 * step], hat=True)[0] @ np.kron(M1 @ M1, E)
    assert np.linalg.norm(two_lhs - two_rhs) / np.linalg.norm(two_rhs) < 1e-10
    rep = run_check(check_quasi_periodicity_M(x, -2, fac))
    assert rep.residual < 1e-9


@pytest.mark.parametrize("N", [2, 3, 4])
def test_kernel_dimension_and_projector(N):
    fac = RMatrixFactory(params(N=N), POL)
    rep = run_check(check_kernel(fac))
    assert rep.inputs["dim"] == N * (N - 1) // 2
    assert rep.residual < 1e-8
    # explicit subspace comparison with A_2
    from wkit.rmatrix import kernel_projector
    dim, proj = kernel_projector(fac)
    V = antisymmetrizer_basis(2, N)
    A2 = V @ V.T
    assert np.linalg.norm(proj - A2) < 1e-8


def test_rhat_equals_tau_times_R():
    for N in (2, 3):
        pr = params(N=N)
        fac = RMatrixFactory(pr, POL)
        z = 1.15 + 0.12j
        lhs = fac.build([xi_of(z)], hat=True)[0]
        rhs = tau_N(cmath.sqrt(pr.q) / z, pr, POL) * fac.build([xi_of(z)], hat=False)[0]
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-12


def test_rhat_unitarity_scalar():
    pr = params(N=3)
    fac = RMatrixFactory(pr, POL)
    z = 1.2 + 0.1j
    Rh = fac.build([xi_of(z)], hat=True)[0]
    Rh21 = m21(fac.build([xi_of(1 / z)], hat=True)[0], 3)
    uval = U(z, pr, POL)
    assert np.linalg.norm(Rh @ Rh21 - uval * np.eye(9)) < 1e-9 * abs(uval)


def test_truncation_refinement():
    pr = params(N=2)
    coarse = RMatrixFactory(pr, TruncationPolicy(tail_eps=1e-16, max_terms=512))
    fine = RMatrixFactory(pr, TruncationPolicy(tail_eps=1e-16, max_terms=2048))
    z = 1.2 + 0.15j
    a = coarse.build([xi_of(z)], hat=False)[0]
    b = fine.build([xi_of(z)], hat=False)[0]
    assert np.abs(a - b).max() < 1e-12


def test_pole_and_modulus_errors():
    pr = params(N=2)
    fac = RMatrixFactory(pr, POL)
    with pytest.raises(PoleHit):
        fac.build([xi_of(1.0)], hat=True)[0]  # Theta(z^2) zero at z = 1
    with pytest.raises(ModulusOutOfRange):
        RMatrixFactory(EllipticParams(N=2, q=0.5, s=1.2), POL)  # |p| > 1


def test_degenerate_nome_limit():
    # p = q^N at N = 2 degenerates the characteristics parametrization; the
    # factory must return the analytic limit, consistent with nearby nomes
    q = 0.6
    fac0 = RMatrixFactory(EllipticParams(N=2, q=q, s=q), POL)
    assert fac0._children is not None
    near = RMatrixFactory(EllipticParams(N=2, q=q, s=q * math.sqrt(1 + 1e-7)), POL)
    z = 1.1 + 0.15j
    a = fac0.build([xi_of(z)], hat=True)[0]
    b = near.build([xi_of(z)], hat=True)[0]
    assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-5
    # regularity survives the limit
    assert np.linalg.norm(fac0.build([xi_of(1.0)], hat=False)[0] - permutation_operator((1, 0), 2)) < 1e-9


@pytest.mark.parametrize("hat", [False, True])
def test_degenerate_nome_build_is_the_mean_of_the_children(hat):
    # on p = q^N at N = 2 the one build takes the limit itself, before it
    # chunks: 17 points (two chunks) equal the mean of the two child
    # factories' builds bit for bit
    q = 0.6
    fac = RMatrixFactory(EllipticParams(N=2, q=q, s=q), POL)
    a, b = fac._children
    xis = [xi_of(cmath.rect(1.1, 0.08 * i - 0.6)) for i in range(17)]
    got = fac.build(xis, hat)
    assert got.shape == (17, 4, 4)
    assert np.array_equal(got, (a.build(xis, hat) + b.build(xis, hat)) / 2)


def test_factory_has_one_build_entry():
    # R and Rhat come from `build` only; the other public names are the
    # two spectral shifts
    public = {name for name in dir(RMatrixFactory) if not name.startswith("_")}
    assert public == {"build", "s_shift", "s_star_shift"}


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("p", [0.8, 0.85])
def test_large_nome_is_not_degenerate(N, p):
    # at q = 0.55 every W denominator is below 1e-8 here (down to 5e-13),
    # but zeta lies off the lattice Z + tau Z, so none of them vanishes
    fac = RMatrixFactory(params(N=N, q=0.55, p=p), POL)
    assert fac._children is None
    z, w = 1.2 + 0.1j, 0.85 + 0.03j
    assert run_check(check_unitarity(z, fac)).passed
    assert run_check(check_yang_baxter(z, w, fac)).passed
    assert run_check(check_yang_baxter(z, w, fac, hat=True)).passed


@pytest.mark.parametrize("pr", [params(N=2), params(N=3), EllipticParams(N=2, q=0.6, s=0.6)],
                         ids=["N2", "N3", "N2-degenerate-p=q^2"])
def test_shared_factory_matches_fresh(pr):
    # a factory is a pure function of (params, policy): checks run one after
    # another on a shared factory give exactly the residuals of fresh ones
    shared = RMatrixFactory(pr, POL)
    z, w, x = 1.2 + 0.1j, 0.8 - 0.05j, 1.1 + 0.1j
    checks = [
        check_regularity,
        lambda f: check_unitarity(z, f),
        lambda f: check_yang_baxter(z, w, f),
        lambda f: check_yang_baxter(z, w, f, hat=True),
        lambda f: check_crossing(z, f),
        lambda f: check_antisymmetry(z, f),
        lambda f: check_quasi_periodicity_M(x, 1, f),
        # the p* matrix with the s* ladder, on the factory of (N, q, s*)
        lambda f: check_quasi_periodicity_M(x, 1, RMatrixFactory(
            EllipticParams(f.N, f.params.q, f.params.s_star, 0.0), POL)),
        check_kernel,
    ]
    for check in checks:
        assert run_check(check(shared)).residual == run_check(check(RMatrixFactory(pr, POL))).residual
    for k, kp in ((1, 1), (2, 1), (2, 2)):
        fresh = fused_R(z, k, kp, RMatrixFactory(pr, POL))
        assert np.array_equal(fused_R(z, k, kp, shared).data, fresh.data)


@pytest.mark.parametrize("N", [2, 3])
def test_quasi_periodicity_literal_form(N):
    # Rhat(xi + tau + 1) = (GH x 1)^{-1} Rhat_21(1/z)^{-1} (GH x 1):
    # the conjugated-inverse statement, independent of the unitarity route
    pr = params(N=N)
    fac = RMatrixFactory(pr, POL)
    z = 1.15 + 0.12j
    xi = xi_of(z)
    E = np.eye(N)
    lhs = fac.build([xi + fac.s_shift], hat=True)[0]
    R21inv = np.linalg.inv(m21(fac.build([xi_of(1 / z)], hat=True)[0], N))
    GH = fac.zn.GH
    rhs = np.kron(np.linalg.inv(GH), E) @ R21inv @ np.kron(GH, E)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-9


def I_alpha(zn: ZnMatrices, a1: int, a2: int) -> np.ndarray:
    """I_(a1,a2) = g^a2 h^a1, formed densely."""
    return np.linalg.matrix_power(zn.g, a2) @ np.linalg.matrix_power(zn.h, a1)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_w_sum_from_its_nonzeros_matches_dense_sum(N):
    # the index form against sum_alpha w_alpha I_alpha (x) I_alpha^{-1}
    # built densely and conjugated by g^{1/2} (x) g^{1/2}
    fac = RMatrixFactory(params(N=N), POL)
    zn = fac.zn
    rng = np.random.default_rng(N)
    w = rng.normal(size=N * N) + 1j * rng.normal(size=N * N)
    pref = 0.7 - 0.2j
    dense = pref * sum(w[a1 * N + a2] * np.kron(I_alpha(zn, a1, a2), np.linalg.inv(I_alpha(zn, a1, a2)))
                       for a1 in range(N) for a2 in range(N))
    G = np.kron(zn.g_half, zn.g_half)
    want = G @ dense @ np.linalg.inv(G)
    got = fac._w_sum(pref, w, fac._coef_G)
    assert np.abs(got - want).max() < 1e-14 * np.abs(want).max()
    assert np.count_nonzero(got) == N ** 3


def test_rhat_independent_of_cache_history():
    # a cached lattice is cut at the smallest threshold asked for, so the
    # same points built in another order, from empty caches, must give the
    # same matrices
    pr = params(N=3, q=0.55, p=0.6)
    xis = [xi_of(cmath.rect(r, phi)) for r, phi in
           [(0.3, 0.4), (3.0, -0.2), (1.1, 0.1), (0.6, -1.0), (1.9, 2.0), (0.95, 0.3)]]
    runs = []
    for order in (xis, xis[::-1]):
        qs._LATTICES.clear()
        fac = RMatrixFactory(pr, POL)
        built = {xi: fac.build([xi], hat=True)[0] for xi in order}
        runs.append([built[xi] for xi in xis])
    warm = RMatrixFactory(pr, POL)
    runs.append([warm.build([xi], hat=True)[0] for xi in xis])
    for a, b, c in zip(*runs):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_crossing_at_its_tightest_known_point():
    # the point where crossing came closest to its tolerance at N = 3,
    # p = 0.6: 6.7e-10 against 1e-9 while the thetas were summed on the
    # defining series, whose terms there are 10^4 times the g2 = 1/2
    # values; on the modular image it is about 1.4e-13
    fac = RMatrixFactory(EllipticParams(N=3, q=0.55, s=cmath.sqrt(0.6)), POL)
    rep = run_check(check_crossing(complex(0.7226266178849174, 0.013155398121855143), fac))
    assert rep.passed and rep.tolerance == 1e-9
    assert rep.residual < 1e-11


# ---------------------------------------------------------------------------
# Batched builds
# ---------------------------------------------------------------------------

def mp_rhat(mp, pr, xi):
    """Rhat(xi) at the working precision from its defining form
    tau_N(q^{1/2}/z) R(z), each product and characteristic theta computed
    independently: q^{1/N-1} Theta_P(q^2/z^2) / Theta_P(z^2) kappa^{-1}(z^2)
    theta_A(zeta) / theta_A(xi + zeta) times the conjugated W sum, with the
    fractional powers taken on the additive variables."""
    from test_kernel import mp_kappa_inv, mp_pochhammer2, mp_theta_char

    N, zn = pr.N, ZnMatrices(pr.N)
    zeta, tau, xi = mp.mpc(pr.zeta), mp.mpc(pr.tau), mp.mpc(xi)
    z2, P = mp.exp(2j * mp.pi * xi), mp.mpc(pr.q) ** (2 * N)

    def theta_P(x):
        return mp.fprod(mp_pochhammer2(mp, y, P, 0) for y in (x, P / x, P))

    pref = (mp.exp(1j * mp.pi * zeta * (mp.mpf(1) / N - 1)) * theta_P(pr.q ** 2 / z2) / theta_P(z2)
            * mp_kappa_inv(mp, z2, pr)
            * mp_theta_char(mp, 0.5, 0.5, zeta, tau) / mp_theta_char(mp, 0.5, 0.5, xi + zeta, tau))
    G = np.kron(zn.g_half, zn.g_half)
    out = mp.matrix(N * N, N * N)
    for a1 in range(N):
        for a2 in range(N):
            g1, g2 = 0.5 + a1 / N, 0.5 + a2 / N
            w = (mp_theta_char(mp, g1, g2, xi + zeta / N, tau)
                 / (N * mp_theta_char(mp, g1, g2, zeta / N, tau)))
            I = I_alpha(zn, a1, a2)
            term = G @ np.kron(I, np.linalg.inv(I)) @ np.linalg.inv(G)
            for r, c in zip(*np.nonzero(np.abs(term) > 1e-12)):
                out[int(r), int(c)] += pref * w * mp.mpc(complex(term[r, c]))
    return np.array(out.tolist(), dtype=complex)


@pytest.mark.parametrize("pr", [EllipticParams(2, 0.6, 0.6), params(N=3, q=0.55, p=0.6),
                                EllipticParams(4, 0.5 + 0.1j, cmath.sqrt(0.4))],
                         ids=["N2-child-nome-limit", "N3", "N4-complex-q"])
def test_rhat_batch_matches_mpmath(pr):
    # one mixed batch per factory: points across the sampling wedge, the
    # continuation xi + 1 (-z) and a step by s on the theta lattice; every
    # entry within 1e-12 of the largest against 40 digits (worst measured
    # 1.0e-14, at N = 4).  At p = q^2, N = 2, the build is the mean over the
    # two child nomes, and so is the oracle.
    mp = pytest.importorskip("mpmath")
    fac = RMatrixFactory(pr, POL)
    assert (fac._children is not None) == (pr.N == 2)
    xis = [xi_of(1.2 + 0.3j), xi_of(0.75 - 0.4j) + 1, xi_of(1.1 + 0.05j) + fac.s_shift, xi_of(0.9j + 0.5)]
    got = fac.build(xis, hat=True)
    assert got.shape == (4, pr.N ** 2, pr.N ** 2)
    with mp.workdps(40):
        for xi, mat in zip(xis, got):
            want = (np.mean([mp_rhat(mp, child.params, xi) for child in fac._children], axis=0)
                    if fac._children else mp_rhat(mp, pr, xi))
            assert np.abs(mat - want).max() <= 1e-12 * np.abs(want).max(), xi


@pytest.mark.parametrize("N", [2, 3, 4])
def test_batch_equals_one_point_builds(N):
    # each point of a batch is what a one-point build gives, bit for bit,
    # for R and Rhat alike
    fac = RMatrixFactory(params(N=N, q=0.55, p=0.6), POL)
    xis = [xi_of(cmath.rect(r, phi)) for r, phi in [(0.8, 0.3), (1.3, -1.0), (1.05, 0.9), (0.7, -0.2)]]
    for hat in (False, True):
        for xi, mat in zip(xis, fac.build(xis, hat)):
            assert np.array_equal(mat, fac.build([xi], hat)[0])
        assert fac.build([], hat).shape == (0, N * N, N * N)


@given(N=st.integers(2, 8), hat=st.booleans(), child=st.booleans(),
       points=st.lists(st.tuples(st.floats(math.log(0.1), math.log(10.0)), st.floats(0.05, 1.4), st.booleans()),
                       min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_build_values_do_not_depend_on_the_batch(N, hat, child, points):
    # build(xs, hat)[i] is build([xs[i]], hat)[0] bit for bit, for R and
    # Rhat at N = 2-8 with |z| in [0.1, 10], off the positive real axis,
    # where the poles of q and p real lie; at N = 2, p = q^2 the build is
    # the mean of the two child nomes' builds
    fac = factory(EllipticParams(2, 0.6, 0.6) if child and N == 2 else params(N=N, q=0.55, p=0.6), POL)
    xis = [xi_of(cmath.rect(math.exp(r), -phi if flip else phi)) for r, phi, flip in points]
    for xi, mat in zip(xis, fac.build(xis, hat)):
        assert np.array_equal(mat, fac.build([xi], hat)[0]), xi


@pytest.mark.parametrize("pole,message", [(0.0, "Rhat pole at xi = 0j"), (None, "prefactor theta zero")])
def test_batch_with_a_pole_raises_as_the_point_alone(pole, message):
    # Theta_P(z^2) vanishes at z = 1 (a pole of Rhat only); theta_A(xi + zeta)
    # vanishes at xi = -zeta (of R and Rhat): one such point anywhere in a
    # batch raises what it raises alone
    fac = RMatrixFactory(params(N=3), POL)
    bad = -fac.zeta if pole is None else pole
    good = [xi_of(1.2 + 0.1j), xi_of(0.8 - 0.3j)]
    for hat in (True, False) if pole is None else (True,):
        with pytest.raises(PoleHit, match=message) as alone:
            fac.build([bad], hat)
        for at in range(3):
            with pytest.raises(PoleHit) as batched:
                fac.build(good[:at] + [bad] + good[at:], hat)
            assert str(batched.value) == str(alone.value)
    assert fac.build([0.0], hat=False).shape == (1, 9, 9)  # z = 1 is regular for R


# ---------------------------------------------------------------------------
# The factory cache and the build chunks
# ---------------------------------------------------------------------------

def test_factory_cache_one_per_params_and_policy(monkeypatch):
    monkeypatch.setattr(rmatrix, "_FACTORIES", {})
    fac = factory(params(N=3), POL)
    assert factory(params(N=3)) is fac  # an equal key: the default policy is POL
    other = factory(params(N=3), TruncationPolicy(max_terms=1024))
    assert other is not fac and other.policy.max_terms == 1024
    for i in range(2 * rmatrix._FACTORY_LIMIT):
        factory(params(N=2, p=0.1 + 0.01 * i), POL)
        assert len(rmatrix._FACTORIES) <= rmatrix._FACTORY_LIMIT


@pytest.mark.parametrize("pr", [params(N=3, q=0.55, p=0.6), EllipticParams(2, 0.6, 0.6)],
                         ids=["N3", "N2-child-nome-limit"])
def test_cached_factory_builds_equal_fresh(monkeypatch, pr):
    monkeypatch.setattr(rmatrix, "_FACTORIES", {})
    xis = [xi_of(1.2 + 0.3j), xi_of(0.75 - 0.4j) + 1, xi_of(0.9j + 0.5)]
    factory(pr, POL).build(xis[:1], hat=True)  # a cached factory that has built before
    cached, fresh = factory(pr, POL), RMatrixFactory(pr, POL)
    for hat in (False, True):
        assert np.array_equal(cached.build(xis, hat), fresh.build(xis, hat))


def _want(n, seed):
    rng = np.random.default_rng(seed)
    return [xi_of(cmath.rect(r, phi)) for r, phi in zip(rng.uniform(0.7, 1.4, n), rng.uniform(-1.4, 1.4, n))]


@pytest.mark.parametrize("N,n,chunks", [(3, 75, [75]), (3, 810, [809, 1]), (8, 40, [16, 16, 8])])
def test_build_chunks_hold_at_most_chunk_entries(monkeypatch, N, n, chunks):
    # a chunk holds at most 2^16 output entries of N^2 x N^2: a 75-point want
    # at N = 3 is one chunk, whose products are one pochhammer2 call per
    # modulus pair and whose thetas are one lattice sum, and a chunk at N = 8
    # is 16 points
    fac = RMatrixFactory(params(N=N, q=0.55, p=0.6), POL)
    kernel, sums, products, points = rmatrix.pochhammer2, rmatrix.theta_char_sums, [], []

    def counted_products(zs, *args):  # a row per argument of each point
        products.append(zs.shape[-1])
        return kernel(zs, *args)

    def counted_sums(g1, g2, xi, *args):  # a row per characteristic of each point
        points.append(xi.shape[0])
        return sums(g1, g2, xi, *args)

    monkeypatch.setattr(rmatrix, "pochhammer2", counted_products)
    monkeypatch.setattr(rmatrix, "theta_char_sums", counted_sums)
    assert fac.build(_want(n, n), hat=True).shape == (n, N * N, N * N)
    assert products == [c for c in chunks for _ in range(2)]
    assert points == chunks


@pytest.mark.parametrize("n", [1, 16, 17, 40])
def test_chunked_build_equals_one_call(monkeypatch, n):
    # chunks of 16 points give the stack of one call over all n, bit for bit
    fac = RMatrixFactory(params(N=3, q=0.55, p=0.6), POL)
    xis = _want(n, n)
    whole = [fac.build(xis, hat=False), fac.build(xis, hat=True)]
    monkeypatch.setattr(rmatrix, "_CHUNK", 16 * 81)
    for got, want in zip([fac.build(xis, hat=False), fac.build(xis, hat=True)], whole):
        assert got.shape == want.shape == (n, 9, 9)
        assert np.array_equal(got, want)


def test_chunked_build_raises_as_one_call(monkeypatch):
    # a pole in a later chunk raises the message of the first pole of all
    fac = RMatrixFactory(params(N=3), POL)
    xis = [xi_of(cmath.rect(1.1, 0.05 * i)) for i in range(40)]
    xis[20], xis[33] = 0.0, -fac.zeta
    with pytest.raises(PoleHit) as whole:
        fac.build(xis, hat=True)
    monkeypatch.setattr(rmatrix, "_CHUNK", 16 * 81)
    with pytest.raises(PoleHit) as chunked:
        fac.build(xis, hat=True)
    assert str(chunked.value) == str(whole.value) == "Rhat pole at xi = 0j"
