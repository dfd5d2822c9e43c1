"""Named verification suites runnable from the CLI.

Each suite is a function (SuiteContext) -> list[CheckReport].  Suites draw
their sample points from a seeded generator, resample on PoleHit or
OutsideConvergenceAnnulus (up to five times per check), and never mutate
shared state, so they can run concurrently; the CLI sorts reports
canonically before emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutsideConvergenceAnnulus, PoleHit
from .params import DEFAULT_POLICY, EllipticParams, TruncationPolicy, xi_of
from .qseries import (
    I_series,
    U,
    Y_FF,
    Y_kkprime_cr,
    Y_mn,
    Y_mn_forms,
    Y_mn_grid,
    abelianity_check,
    pochhammer,
    resolve_abelian_branch,
    tau_N,
    theta_big,
    theta_char_product,
    theta_char_sums,
)
from .reports import CheckReport, Stopwatch, worst
from .rmatrix import (
    RMatrixFactory,
    check_antisymmetry,
    check_crossing,
    check_kernel,
    check_quasi_periodicity_M,
    check_regularity,
    check_unitarity,
    check_yang_baxter,
    crossing_unitarity_residual,
    zn_symmetry_residual,
)
from .tensor import (
    LabeledTensor,
    antisymmetrizer,
    apply_gates,
    check_fusion_identities,
    check_M_derivative,
    compose,
    fused_R,
    permutation_operator,
)
from .wgen import (
    EvalRep,
    SurfaceSpec,
    alpha_identity_check,
    check_trace_MA,
    critical_poisson_check,
    exchange_residual_tL,
    exchange_residual_tt,
    n0_check,
    qdet_extract,
    qdet_tqdet_check,
    resolve_surface,
)


@dataclass
class SuiteContext:
    params: EllipticParams
    policy: TruncationPolicy = DEFAULT_POLICY
    seed: int = 7
    tolerances: dict = field(default_factory=dict)
    grid: np.ndarray = field(default_factory=lambda: np.geomspace(0.5, 2.0, 200))

    def tol(self, suite: str, default: float) -> float:
        return float(self.tolerances.get(suite, default))

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, salt))


def _safe_point(rng, lo=0.7, hi=1.4):
    """Random point in the principal-branch-safe wedge |arg z| < 0.45 pi."""
    r = rng.uniform(lo, hi)
    phi = rng.uniform(-0.45 * np.pi, 0.45 * np.pi)
    return complex(r * np.cos(phi), r * np.sin(phi))


def _unit_point(rng):
    """Evaluation point for the quantum space: on the unit circle, in the
    safe wedge, off accidental pole alignments."""
    phi = rng.uniform(-0.4 * np.pi, 0.4 * np.pi)
    return complex(np.cos(phi), np.sin(phi))


def _with_resample(fn, rng, radii=(0.7, 1.4)):
    """Call fn(point), resampling the point on PoleHit or
    OutsideConvergenceAnnulus up to five times; |point| is drawn from the
    range `radii`."""
    for _ in range(5):
        try:
            return fn(_safe_point(rng, *radii))
        except (PoleHit, OutsideConvergenceAnnulus):
            continue
    return fn(_safe_point(rng, *radii))  # last try propagates


# ---------------------------------------------------------------------------

def suite_theta_identities(ctx: SuiteContext) -> list[CheckReport]:
    tol = ctx.tol("theta-identities", 1e-10)
    pol = ctx.policy
    out = []
    clock = Stopwatch()

    rng = ctx.rng(1)
    chars = [0.0, 0.5, -0.5, 1.0 / ctx.params.N, -1.0 / ctx.params.N]
    points = []  # (g1, g2, xi, tau)
    for _ in range(100):
        g1, g2 = rng.choice(chars), rng.choice(chars)
        xi = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 3.0))
        points.append((g1, g2, xi, tau))
    g1s, g2s, xis, taus = zip(*points)
    sums = theta_char_sums(g1s, g2s, xis, taus, pol).tolist()
    resids = [abs(a - theta_char_product(*pt, pol)) / (1 + abs(a))
              for a, pt in zip(sums, points)]
    out.append(clock.report(
        suite="theta-identities", check="series-vs-product",
        identity="theta[g1,g2](xi,tau): lattice sum = triple-product form",
        inputs={"points": 100, "seed": ctx.seed}, residual=worst(resids), tolerance=tol))

    rng = ctx.rng(2)
    clock = Stopwatch()
    resids = []
    for _ in range(20):
        a = rng.uniform(0.3, 0.8)
        z = _safe_point(rng)
        p = a * a
        th = lambda v: theta_big(v, p, pol)
        resids.append(abs(th(p * z) + th(z) / z) / (1 + abs(th(z))))
        resids.append(abs(th(a * z) - th(a / z)) / (1 + abs(th(a * z))))
    out.append(clock.report(
        suite="theta-identities", check="theta-inversion",
        identity="Theta_{a^2}(a^2 z) = -Theta_{a^2}(z)/z and Theta_{a^2}(a z) = Theta_{a^2}(a/z)",
        inputs={"points": 20, "seed": ctx.seed},
        residual=worst(resids), tolerance=tol))

    rng = ctx.rng(3)
    clock = Stopwatch()
    resids = []
    for N in (2, 3, 4):
        for _ in range(5):
            a = rng.uniform(0.4, 0.8)
            z = _safe_point(rng)
            lhs = np.prod([theta_big(a ** (2 * i) * z, a ** (2 * N), pol)
                           for i in range(N)])
            rhs = (pochhammer(a ** (2 * N), [a ** (2 * N)], pol) ** N
                   / pochhammer(a * a, [a * a], pol) * theta_big(z, a * a, pol))
            resids.append(abs(lhs - rhs) / (1 + abs(rhs)))
    out.append(clock.report(
        suite="theta-identities", check="theta-product-N",
        identity="prod_i Theta_{a^{2N}}(a^{2i} z) = ((a^{2N};a^{2N})^N/(a^2;a^2)) Theta_{a^2}(z)",
        inputs={"N": [2, 3, 4], "seed": ctx.seed}, residual=worst(resids), tolerance=tol))

    rng = ctx.rng(4)
    clock = Stopwatch()
    pr = ctx.params
    resids = []
    for _ in range(10):
        z = complex(rng.uniform(0.7, 1.3), rng.uniform(-0.1, 0.1))
        q = pr.q
        resids += [
            abs(tau_N(q**pr.N * z, pr, pol) / tau_N(z, pr, pol) - 1),
            abs(tau_N(z, pr, pol) * tau_N(1 / z, pr, pol) - 1),
            abs(U(z, pr, pol) - U(1 / z, pr, pol)) / abs(U(z, pr, pol)),
            abs(U(q**pr.N * z, pr, pol) - U(z, pr, pol)) / abs(U(z, pr, pol)),
            abs(np.prod([U(q**i * z, pr, pol) for i in range(1, pr.N + 1)]) - 1),
        ]
    out.append(clock.report(
        suite="theta-identities", check="tau-U-identities",
        identity="tau_N periodicity/inversion; U evenness, q^N-periodicity, prod_i U(q^i x) = 1",
        inputs={"N": pr.N, "q": pr.q, "seed": ctx.seed}, residual=worst(resids), tolerance=tol))

    rng = ctx.rng(5)
    clock = Stopwatch()
    resids = []
    for m, n in [(1, 1), (2, -1), (-1, -1), (3, 2), (-2, 3)]:
        surf = resolve_surface(m, n, pr.q, 0.0, pr.N) if m + n != 0 else \
            resolve_surface(m, n, pr.q, None, pr.N)
        for _ in range(4):
            x = _safe_point(rng)
            f1, f2, diff = Y_mn_forms(x, m, n, surf.params, pol)
            resids.append(diff / (1 + abs(f2)))
    out.append(clock.report(
        suite="theta-identities", check="Y-two-forms",
        identity="both ladder forms of Y_{m,n}(x) agree on the surface",
        inputs={"N": pr.N, "q": pr.q, "seed": ctx.seed}, residual=worst(resids), tolerance=tol))

    rng = ctx.rng(6)
    clock = Stopwatch()
    prc = pr.with_c(0.25)
    resids = []
    for _ in range(10):
        x = _safe_point(rng)
        resids.append(abs(Y_FF(x, prc, pol) * Y_FF(1 / x, prc, pol) - 1))
    out.append(clock.report(
        suite="theta-identities", check="Y-unitary-inversion",
        identity="Y_{2,-1}(x) Y_{2,-1}(1/x) = 1 (eight-theta closed form)",
        inputs={"N": pr.N, "q": pr.q, "c": 0.25}, residual=worst(resids), tolerance=tol))
    return out


def suite_rmatrix_properties(ctx: SuiteContext) -> list[CheckReport]:
    tol = ctx.tol("rmatrix-properties", 1e-9)
    out = []
    pr = ctx.params.require_elliptic()
    fac = RMatrixFactory(pr, ctx.policy)
    out.append(check_regularity(fac, tol))
    rng = ctx.rng(10)
    for _ in range(5):
        out.append(_with_resample(lambda z: check_unitarity(z, fac, tol), rng))
        out.append(_with_resample(
            lambda z: check_yang_baxter(z, _safe_point(rng), fac, tol), rng))
        out.append(_with_resample(
            lambda z: check_yang_baxter(z, _safe_point(rng), fac, tol, hat=True), rng))
        out.append(_with_resample(lambda z: check_crossing(z, fac, tol), rng))
        out.append(_with_resample(lambda z: check_antisymmetry(z, fac, tol), rng))
    for a in (-2, -1, 0, 1, 2):
        out.append(_with_resample(
            lambda x, a=a: check_quasi_periodicity_M(x, a, fac, tol), rng))
    out.append(check_kernel(fac, ctx.tol("rmatrix-properties", 1e-8)))

    clock = Stopwatch()
    z = _safe_point(rng)
    res = zn_symmetry_residual(fac.r_matrix_xi(xi_of(z)), pr.N)
    out.append(clock.report(
        suite="rmatrix-properties", check="zn-sparsity",
        identity="entry ((i,j),(k,l)) of R vanishes unless i+j = k+l mod N",
        inputs={"N": pr.N, "q": pr.q, "p": pr.p, "z": z},
        residual=res, tolerance=1e-12))

    # test-power control: a deliberately broken Yang-Baxter triple.  The
    # normalized Rhat is used because the unitary-gauge R varies too
    # slowly with its argument for a 1% shift to register reliably;
    # sensitivity still varies over the domain, so take the worst
    # violation over several sampled pairs.
    clock = Stopwatch()
    ctrl = []
    for _ in range(5):
        z, w = _safe_point(rng), _safe_point(rng)
        A12 = fac.rhat_tensor(xi_of(z), (1, 2))
        A13 = fac.rhat_tensor(xi_of(w * 1.01), (1, 3))
        A23 = fac.rhat_tensor(xi_of(w / z), (2, 3))
        B13 = fac.rhat_tensor(xi_of(w), (1, 3))
        lhs = compose([A12, A13, A23], (1, 2, 3))
        rhs = compose([A23, B13, A12], (1, 2, 3))
        ctrl.append((lhs - rhs).norm() / rhs.norm())
    out.append(clock.control(
        "rmatrix-properties", "control-perturbed-ybe",
        "perturbing one argument by 1% must break Yang-Baxter (> 1e-3)",
        {"N": pr.N}, worst(ctrl), 1e-3))

    # crossing-unitarity control: shift the q^N pairing by 1%
    clock = Stopwatch()
    ctrl = []
    for _ in range(5):
        z = _safe_point(rng)
        ctrl.append(crossing_unitarity_residual(
            fac.rhat_matrix_xi(xi_of(z)),
            fac.rhat_matrix_xi(xi_of(pr.q**pr.N * z * 1.01)), fac))
    out.append(clock.control(
        "rmatrix-properties", "control-perturbed-crossing",
        "perturbing the q^N pairing by 1% must break crossing-unitarity (> 1e-3)",
        {"N": pr.N}, worst(ctrl), 1e-3))
    return out


def suite_fusion_identities(ctx: SuiteContext) -> list[CheckReport]:
    tol = ctx.tol("fusion-identities", 1e-8)
    out = []
    pr = ctx.params.require_elliptic()
    fac = RMatrixFactory(pr, ctx.policy)
    rng = ctx.rng(20)

    # the basis V of im A_k: V^T V = 1, (i i+1) V = -V for every adjacent
    # swap, and C(N,k) columns, the dimension of the antisymmetric
    # subspace; together they give V V^T = A_k
    clock = Stopwatch()
    resids = []
    swap = permutation_operator((1, 0), pr.N)
    for k in range(1, pr.N + 1):
        A = antisymmetrizer(k, pr.N)
        V = A.basis
        resids.append(np.abs(V.T @ V - np.eye(A.rank)).max())
        block = V.reshape((pr.N,) * k + (-1,))
        for i in range(k - 1):
            gate = LabeledTensor.from_matrix(swap, (i, i + 1), pr.N)
            resids.append(np.abs(apply_gates([gate], range(k), block) + block).max())
        resids.append(0.0 if A.rank == math.comb(pr.N, k) else 1.0)
    out.append(clock.report(
        suite="fusion-identities", check="antisymmetrizer-projectors",
        identity="V^T V = 1, (i i+1) V = -V and C(N,k) columns, so V V^T = A_k",
        inputs={"N": pr.N}, residual=worst(resids), tolerance=1e-12))

    for k in range(2, pr.N + 1):
        # pair block capped so the fused product stays within the dense budget
        kp = k
        while kp > 1 and pr.N ** (k + kp) > 4096:
            kp -= 1
        out.extend(_with_resample(
            lambda x, k=k, kp=kp: check_fusion_identities(
                k, fac, x, kprime=kp, tolerance=tol), rng))

    clock = Stopwatch()
    resids = []
    for k in range(1, min(pr.N, 2) + 1):
        for kp in range(1, min(pr.N, 2) + 1):
            x = _safe_point(rng)
            RR = fused_R(x, k, kp, fac)
            RRN = fused_R(pr.q**pr.N * x, k, kp, fac)
            rows = RR.labels[:k]
            lhs = RR.partial_transpose(rows).inv()
            rhs = RRN.inv().partial_transpose(rows)
            resids.append((lhs - rhs).norm() / lhs.norm())
    out.append(clock.report(
        suite="fusion-identities", check="fused-crossing-unitarity",
        identity="(fused R^T)^{-1} = (fused R(q^N x)^{-1})^T, T on the k row spaces",
        inputs={"N": pr.N, "q": pr.q, "p": pr.p},
        residual=worst(resids), tolerance=tol))

    for k in range(1, min(pr.N, 2) + 1):
        for kp in range(1, min(pr.N, 2) + 1):
            out.append(_with_resample(
                lambda x, k=k, kp=kp: check_M_derivative(
                    x, k, kp, fac, tolerance=ctx.tol("fusion-identities", 1e-5)), rng))
    return out


_THEOREM1_SURFACES = [(-1, -1), (-2, 1)]


def suite_theorem1_exchange(ctx: SuiteContext) -> list[CheckReport]:
    tol = ctx.tol("theorem1-exchange", 1e-8)
    out = []
    pr = ctx.params
    rng = ctx.rng(30)
    for (m, n) in _THEOREM1_SURFACES:
        surf = resolve_surface(m, n, pr.q, 0.0, pr.N)
        if not surf.params.is_elliptic:
            continue
        rep = EvalRep(RMatrixFactory(surf.params, ctx.policy), _unit_point(rng))
        for k in range(1, pr.N + 1):
            for _ in range(3):
                z, w = _safe_point(rng), _safe_point(rng)
                out.append(exchange_residual_tL(k, z, w, surf, rep, tol))
        # k = N commutes without any surface condition: perturb s and retest
        pert = SurfaceSpec(m=m, n=n, params=EllipticParams(
            pr.N, pr.q, surf.params.s * 1.02, 0.0))
        rep_p = EvalRep(RMatrixFactory(pert.params, ctx.policy), 1.0)
        r = exchange_residual_tL(pr.N, _safe_point(rng), _safe_point(rng), pert, rep_p, tol)
        r.check = f"tL-offsurface(k={pr.N},m={m},n={n})"
        out.append(r)

    # control: surviving non-central generator off-surface must violate;
    # sensitivity varies over the domain, so take the worst of five pairs
    ctrl_m, ctrl_n, ctrl_k = ((-1, -1, 1) if pr.N == 2 else (-pr.N + 1, -1, 1))
    surf = resolve_surface(ctrl_m, ctrl_n, pr.q, 0.0, pr.N)
    pert = SurfaceSpec(m=ctrl_m, n=ctrl_n, params=EllipticParams(
        pr.N, pr.q, surf.params.s * 1.02, 0.0))
    rep_p = EvalRep(RMatrixFactory(pert.params, ctx.policy), 1.0)
    clock = Stopwatch()
    ctrl = [exchange_residual_tL(ctrl_k, _safe_point(rng), _safe_point(rng), pert, rep_p,
                                 tol).residual for _ in range(5)]
    out.append(clock.control(
        "theorem1-exchange", "control-offsurface",
        "2% off-surface perturbation must break the exchange (> 1e-3)",
        {"N": pr.N, "m": ctrl_m, "n": ctrl_n, "k": ctrl_k}, worst(ctrl), 1e-3))
    return out


def suite_corollary2_exchange(ctx: SuiteContext) -> list[CheckReport]:
    tol = ctx.tol("corollary2-exchange", 1e-8)
    out = []
    pr = ctx.params
    rng = ctx.rng(40)
    facs = {}  # one factory per surface point
    for (m, n) in _THEOREM1_SURFACES:
        surf = resolve_surface(m, n, pr.q, 0.0, pr.N)
        if not surf.params.is_elliptic:
            continue
        facs[m, n] = RMatrixFactory(surf.params, ctx.policy)
        rep = EvalRep(facs[m, n], _unit_point(rng))
        for k in range(1, pr.N + 1):
            for kp in range(k, pr.N + 1):
                z, w = _safe_point(rng), _safe_point(rng)
                out.append(exchange_residual_tt(k, kp, z, w, surf, rep, tol))

    # prefactor consistency at k = k' = 1: the product must be the single Y
    clock = Stopwatch()
    surf = resolve_surface(*_THEOREM1_SURFACES[0], pr.q, 0.0, pr.N)
    fac = facs.get(_THEOREM1_SURFACES[0]) or RMatrixFactory(surf.params, ctx.policy)
    rep = EvalRep(fac, 1.0)
    z, w = _safe_point(rng), _safe_point(rng)

    def pref_check(z):
        r = exchange_residual_tt(1, 1, z, w, surf, rep, tol)
        y_direct = Y_mn(z / w, surf.m, surf.n, surf.params, ctx.policy)
        return clock.report(
            suite="corollary2-exchange", check="prefactor-consistency",
            identity="(k,k') = (1,1) exchange prefactor equals Y_{m,n}(z/w)",
            inputs={"N": pr.N, "m": surf.m, "n": surf.n, "z": z, "w": w},
            residual=abs(r.inputs["prefactor"] - y_direct) / (1 + abs(y_direct)),
            tolerance=ctx.tol("corollary2-exchange", 1e-10))

    out.append(_with_resample(pref_check, rng))
    return out


def suite_qdet(ctx: SuiteContext) -> list[CheckReport]:
    tol = ctx.tol("qdet", 1e-8)
    out = []
    pr = ctx.params
    rng = ctx.rng(50)
    surf = resolve_surface(-1, -1, pr.q, 0.0, pr.N)
    rep = EvalRep(RMatrixFactory(surf.params, ctx.policy), _unit_point(rng))
    z = _safe_point(rng)
    _, rep1 = qdet_extract(z, rep, tol)
    out.append(rep1)
    out.append(qdet_tqdet_check(z, surf, rep, tol))
    for m in range(1, pr.N + 1):
        out.append(check_trace_MA(pr.N, m, ctx.tol("qdet", 1e-10)))
    return out


def suite_n0(ctx: SuiteContext) -> list[CheckReport]:
    tol = ctx.tol("n0", 1e-10)
    out = []
    N = ctx.params.N
    for m in range(1, N + 1):
        for k in range(1, N + 1):
            out.append(n0_check(k, m, N, tol))
    out.append(n0_check(2, 2, 4, tol))
    out.append(n0_check(2, 1, 3, tol))
    return out


def suite_abelianity(ctx: SuiteContext) -> list[CheckReport]:
    tol = ctx.tol("abelianity", 1e-9)
    out = []
    pr = ctx.params
    q, N = pr.q, pr.N
    pol = ctx.policy
    grid = ctx.grid
    out.append(abelianity_check("abel1", N, q, 2, -3, grid, lam=-1, tolerance=tol, policy=pol))
    out.append(abelianity_check("abel2", N, q, 3, 1, grid, lam=2, tolerance=tol, policy=pol))
    out.append(abelianity_check("abel3", N, q, 1, 3, grid, lam=2, tolerance=tol, policy=pol))
    out.append(abelianity_check("abel4", N, q, -3, 3, grid, tolerance=tol, policy=pol))

    # control: 1% perturbation of s must leave the abelian locus
    clock = Stopwatch()
    params = resolve_abelian_branch("abel4", N, q, -3, 3)
    pert = EllipticParams(N, q, params.s * 1.01, params.c)
    dev = worst(abs(y - 1) for y in Y_mn_grid(grid[:50], -3, 3, pert, pol).tolist())
    out.append(clock.control(
        "abelianity", "control-perturbed", "1% s-perturbation must give max |Y - 1| > 1e-3",
        {"N": N, "q": q}, dev, 1e-3))
    return out


def suite_critical_poisson(ctx: SuiteContext) -> list[CheckReport]:
    tol = ctx.tol("critical-poisson", 1e-6)
    out = []
    pr = ctx.params
    pol = ctx.policy
    rng = ctx.rng(60)

    clock = Stopwatch()
    resids = []
    for k in range(1, pr.N + 1):
        for kp in range(1, pr.N + 1):
            x = _safe_point(rng)
            resids.append(abs(Y_kkprime_cr(x, k, kp, pr.with_c(-pr.N), pol) - 1))
    out.append(clock.report(
        suite="critical-poisson", check="fusion-ratio-critical",
        identity="fused exchange ratio equals 1 at c = -N",
        inputs={"N": pr.N, "q": pr.q}, residual=worst(resids),
        tolerance=ctx.tol("critical-poisson", 1e-10)))

    pairs = [(k, kp) for k in range(1, pr.N + 1) for kp in range(k, pr.N + 1)]
    pts_per_pair = max(1, 12 // len(pairs))
    # f_cr_modes converges on |q| < |x| < 1/|q| only
    radii = (max(0.7, abs(pr.q)), min(1.4, 1 / abs(pr.q)))
    for (k, kp) in pairs:
        for _ in range(pts_per_pair):
            out.append(_with_resample(
                lambda x, k=k, kp=kp: critical_poisson_check(
                    k, kp, x, pr, tolerance=tol, policy=pol), rng, radii))

    clock = Stopwatch()
    resids = []
    for _ in range(10):
        x = _safe_point(rng)
        resids.append(abs(I_series(x, pr, pol) + I_series(1 / x, pr, pol)))
    resids.append(abs(I_series(1.0, pr, pol)))
    out.append(clock.report(
        suite="critical-poisson", check="I-antisymmetry",
        identity="I(x) + I(1/x) = 0 and I(1) = 0",
        inputs={"N": pr.N, "q": pr.q}, residual=worst(resids),
        tolerance=ctx.tol("critical-poisson", 1e-10)))
    return out


def suite_alpha_identity(ctx: SuiteContext) -> list[CheckReport]:
    return [alpha_identity_check()]


SUITES = {
    "theta-identities": suite_theta_identities,
    "rmatrix-properties": suite_rmatrix_properties,
    "fusion-identities": suite_fusion_identities,
    "theorem1-exchange": suite_theorem1_exchange,
    "corollary2-exchange": suite_corollary2_exchange,
    "qdet": suite_qdet,
    "n0": suite_n0,
    "abelianity": suite_abelianity,
    "critical-poisson": suite_critical_poisson,
    "alpha-identity": suite_alpha_identity,
}
