"""The checks layer: every CheckReport is built here.

The layers below only build: `qseries` the scalars, `rmatrix` the
R-matrices, `tensor` the products on labeled spaces and `wgen` the
generators.  A check function here takes what they build, measures one
identity and returns its report; a suite is a function
(SuiteContext) -> list[CheckReport] that runs a named set of checks.
Suites draw their sample points from a seeded generator, resample on
PoleHit or OutsideConvergenceAnnulus (up to five times per check), and
share only the process-wide caches of values that never change (factories,
lattices), so they can run concurrently; the CLI sorts reports canonically
before emission.

The suites that build R-matrices (rmatrix-properties, theorem1-exchange,
corollary2-exchange and qdet) run in three steps, by `_draw_build_check`:

- Draw: the suite's body draws the points of every check, with the same
  generator calls in the same order as checks run one by one, and adds
  each check with its wants, the builds and prefactors it needs.
- Build: the wants of one build (R or Rhat of one factory) or prefactor
  (U, F_a or Y_mn at one parameter point) are evaluated in one call over
  the points of all checks.  R(1) of `check_regularity` and Rhat(q) of
  `check_kernel` stay one-point builds.
- Check: each check computes its report from its slices.  A check
  function takes them as its optional `built`, and computes them itself
  without it.

If any of that raises an error a suite reports, the body runs again from
a fresh generator with one check per batch: each check builds its own
wants when it is added, inside `_with_resample`, so draws, resamples and
error messages are those of checks run one by one.  As in
`qseries._on_grid`, no check is written twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations

import numpy as np

from .errors import (
    ChargeViolation,
    OutsideConvergenceAnnulus,
    PoleHit,
    TruncationBudgetExceeded,
    WkitError,
)
from .params import DEFAULT_POLICY, EllipticParams, TruncationPolicy, centred_ladder, xi_of
from .qseries import (
    F_a,
    I_series,
    U,
    Y_FF,
    Y_kkprime_cr,
    Y_mn,
    Y_mn_forms,
    Y_mn_grid,
    f_cr_modes,
    f_cr_series,
    pochhammer2,
    resolve_abelian_branch,
    tau_N,
    theta_big,
    theta_char_product,
    theta_char_sums,
)
from .reports import CheckReport, Stopwatch, worst
from .rmatrix import (
    RMatrixFactory,
    ZnMatrices,
    crossing_unitarity_residual,
    factory,
    kernel_projector,
    zn_symmetry_residual,
)
from .tensor import (
    LabeledTensor,
    _inversions,
    _projector_residual,
    antisym_trace,
    antisymmetrizer,
    col_labels,
    compose,
    frobenius,
    fused_gates,
    fused_R,
    monodromy_M,
    permutation_operator,
    row_labels,
)
from .wgen import (
    EvalRep,
    SurfaceSpec,
    _qdet_matrices,
    _qdet_points,
    _scalar_residual,
    alpha_fraction,
    build_t,
    lax_points,
    resolve_surface,
    survives_selection_rule,
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


def _uniform(rng, k: int, *ranges):
    """For each (lo, hi) of ranges, k uniform draws in one generator call:
    those of rng.uniform(lo, hi) called for each range in turn at each of
    k points, bit for bit (lo + (hi - lo) u is numpy's own formula)."""
    u = rng.random((k, len(ranges)))
    return [lo + (hi - lo) * u[:, i] for i, (lo, hi) in enumerate(ranges)]


def _safe_points(rng, k, lo=0.7, hi=1.4, lead=()):
    """k points of `_safe_point`, drawn in one generator call; each point
    first draws one uniform per (lo, hi) of lead, returned before them."""
    *first, r, phi = _uniform(rng, k, *lead, (lo, hi), (-0.45 * np.pi, 0.45 * np.pi))
    z = r * np.cos(phi) + 1j * (r * np.sin(phi))
    return (*first, z) if lead else z


def _theta_rows(rng, N: int, k: int):
    """k rows (g1, g2, xi, tau) of series-vs-product, as four arrays: each
    row draws its two characteristics from 0, +-1/2, +-1/N, then Re xi,
    Im xi, Re tau and Im tau in one generator call.  The characteristics
    are two scalar draws: integers(5, size=2) gives the same two but costs
    four times as long."""
    chars = [0.0, 0.5, -0.5, 1.0 / N, -1.0 / N]
    g, u = [], np.empty((k, 4))
    for row in u:
        g += (chars[rng.integers(5)], chars[rng.integers(5)])  # rng.choice(chars), without its overhead
        rng.random(out=row)
    lo, hi = np.array([-1.0, -0.2, -0.5, 0.3]), np.array([1.0, 0.2, 0.5, 3.0])
    re_xi, im_xi, re_tau, im_tau = (lo + (hi - lo) * u).T  # rng.uniform's formula, draw for draw
    return np.array(g[::2]), np.array(g[1::2]), re_xi + 1j * im_xi, re_tau + 1j * im_tau


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


# The errors that send a batched pass to the replay: those a suite reports
_REPLAYED = (WkitError, np.linalg.LinAlgError, ArithmeticError)


def _now(wants) -> list:
    """fn(xs, *args) for each want (fn, xs, *args), one call each, in order."""
    return [fn(np.asarray(xs, dtype=complex), *args) for fn, xs, *args in wants]


class _Pass:
    """The checks of one run of a suite body.  `add(check, wants)` takes a
    check, called as check(built=[the value of each want]) or as check() to
    compute them itself, and its wants, each (fn, xs, *args) for the value
    fn(xs, *args).  A batched pass queues the check, and `run` calls each
    (fn, args) once on the concatenated points of all its wants, in the order
    they were added, then runs the checks in order on their slices.  A pass
    of one check per batch runs the check at once."""

    def __init__(self, batched: bool):
        self.batched = batched
        self.reports = []
        self._points = {}  # (fn, args) -> the point arrays of its wants
        self._checks = []  # (check, a ((fn, args), start, stop) slice per want)

    def add(self, check, wants=()):
        if not self.batched:
            self.reports.append(check())
            return
        slices = []
        for fn, xs, *args in wants:
            key = (fn, tuple(args))
            parts = self._points.setdefault(key, [])
            start = sum(map(len, parts))
            parts.append(np.asarray(xs, dtype=complex))
            slices.append((key, start, start + len(parts[-1])))
        self._checks.append((check, slices))

    def run(self) -> list[CheckReport]:
        values = {key: key[0](np.concatenate(parts), *key[1]) for key, parts in self._points.items()}
        return [check(built=[values[key][a:b] for key, a, b in slices]) if slices else check()
                for check, slices in self._checks]


def _draw_build_check(ctx: SuiteContext, salt: int, body) -> list[CheckReport]:
    """The reports of body(ctx, ctx.rng(salt), checks), which draws its
    points and adds its checks to the pass `checks`: batched, or, if that
    raises an error a suite reports, one check per batch."""
    try:
        checks = _Pass(batched=True)
        body(ctx, ctx.rng(salt), checks)
        return checks.run()
    except _REPLAYED:
        checks = _Pass(batched=False)
        body(ctx, ctx.rng(salt), checks)
        return checks.reports


def suite_theta_identities(ctx: SuiteContext) -> list[CheckReport]:
    tol = ctx.tol("theta-identities", 1e-10)
    pol = ctx.policy
    out = []
    clock = Stopwatch()

    rng = ctx.rng(1)
    g1s, g2s, xis, taus = _theta_rows(rng, ctx.params.N, 100)
    sums = theta_char_sums(g1s, g2s, xis, taus, pol)
    resids = abs(sums - theta_char_product(g1s, g2s, xis, taus, pol)) / (1 + abs(sums))
    out.append(clock.report(
        suite="theta-identities", check="series-vs-product",
        identity="theta[g1,g2](xi,tau): lattice sum = triple-product form",
        inputs={"points": 100, "seed": ctx.seed}, residual=worst(resids.tolist()), tolerance=tol))

    rng = ctx.rng(2)
    clock = Stopwatch()
    a, z = _safe_points(rng, 20, lead=[(0.3, 0.8)])
    p = a * a
    th_pz, th_z, th_az, th_a_z = theta_big(np.array([p * z, z, a * z, a / z]), p, pol)
    resids = np.concatenate([abs(th_pz + th_z / z) / (1 + abs(th_z)),
                             abs(th_az - th_a_z) / (1 + abs(th_az))])
    out.append(clock.report(
        suite="theta-identities", check="theta-inversion",
        identity="Theta_{a^2}(a^2 z) = -Theta_{a^2}(z)/z and Theta_{a^2}(a z) = Theta_{a^2}(a/z)",
        inputs={"points": 20, "seed": ctx.seed},
        residual=worst(resids.tolist()), tolerance=tol))

    rng = ctx.rng(3)
    clock = Stopwatch()
    rows, zs, nomes = [], [], []  # per N, its first row: N rows of Theta_{a^{2N}}, one of Theta_{a^2}
    for N in (2, 3, 4):
        a, z = _safe_points(rng, 5, lead=[(0.4, 0.8)])
        rows.append((N, len(zs)))
        zs += [a ** (2 * i) * z for i in range(N)] + [z]
        nomes += [a ** (2 * N)] * N + [a * a]
    nomes = np.array(nomes)
    th = theta_big(np.array(zs), nomes, pol)
    pp = pochhammer2(nomes, nomes, 0, pol)  # (p; p)_inf of every row's nome
    resids = []
    for N, i in rows:
        rhs = pp[i] ** N / pp[i + N] * th[i + N]
        resids += (abs(th[i:i + N].prod(axis=0) - rhs) / (1 + abs(rhs))).tolist()
    out.append(clock.report(
        suite="theta-identities", check="theta-product-N",
        identity="prod_i Theta_{a^{2N}}(a^{2i} z) = ((a^{2N};a^{2N})^N/(a^2;a^2)) Theta_{a^2}(z)",
        inputs={"N": [2, 3, 4], "seed": ctx.seed}, residual=worst(resids), tolerance=tol))

    rng = ctx.rng(4)
    clock = Stopwatch()
    pr = ctx.params
    q, N = pr.q, pr.N
    re, im = _uniform(rng, 10, (0.7, 1.3), (-0.1, 0.1))
    z = re + 1j * im
    t_qz, t_z, t_inv = tau_N(np.array([q**N * z, z, 1 / z]), pr, pol)
    u_z, u_inv, *u_qz = U(np.array([z, 1 / z] + [q**i * z for i in range(1, N + 1)]), pr, pol)
    resids = np.concatenate([abs(t_qz / t_z - 1), abs(t_z * t_inv - 1), abs(u_z - u_inv) / abs(u_z),
                             abs(u_qz[-1] - u_z) / abs(u_z), abs(np.prod(u_qz, axis=0) - 1)])
    out.append(clock.report(
        suite="theta-identities", check="tau-U-identities",
        identity="tau_N periodicity/inversion; U evenness, q^N-periodicity, prod_i U(q^i x) = 1",
        inputs={"N": pr.N, "q": pr.q, "seed": ctx.seed}, residual=worst(resids.tolist()), tolerance=tol))

    rng = ctx.rng(5)
    clock = Stopwatch()
    resids = []
    for m, n in [(1, 1), (2, -1), (-1, -1), (3, 2), (-2, 3)]:
        surf = resolve_surface(m, n, pr.q, 0.0, pr.N)
        x = _safe_points(rng, 4)
        f1, f2, diff = Y_mn_forms(x, m, n, surf.params, pol)
        resids += (diff / (1 + abs(f2))).tolist()
    out.append(clock.report(
        suite="theta-identities", check="Y-two-forms",
        identity="both ladder forms of Y_{m,n}(x) agree on the surface",
        inputs={"N": pr.N, "q": pr.q, "seed": ctx.seed}, residual=worst(resids), tolerance=tol))

    rng = ctx.rng(6)
    clock = Stopwatch()
    prc = pr.with_c(0.25)
    x = _safe_points(rng, 10)
    y, y_inv = Y_FF(np.array([x, 1 / x]), prc, pol)
    out.append(clock.report(
        suite="theta-identities", check="Y-unitary-inversion",
        identity="Y_{2,-1}(x) Y_{2,-1}(1/x) = 1 (eight-theta closed form)",
        inputs={"N": pr.N, "q": pr.q, "c": 0.25}, residual=worst(abs(y * y_inv - 1).tolist()), tolerance=tol))
    return out


def _inputs(fac: RMatrixFactory, **extra) -> dict:
    return {"N": fac.N, "q": fac.params.q, "p": fac.params.p, **extra}


def _on(mat: np.ndarray, labels, fac: RMatrixFactory) -> LabeledTensor:
    """`mat` as the graded operator on `labels`, or NaN in every block if an
    entry breaks the Z_N charge: each rmatrix-properties check that takes it
    then fails by itself, and zn-sparsity reports how far the build is off."""
    try:
        return LabeledTensor.from_matrix(mat, labels, fac.N)
    except ChargeViolation:
        return LabeledTensor.from_matrix(np.full_like(mat, np.nan), labels, fac.N)


def check_regularity(fac: RMatrixFactory, tolerance=1e-9):
    """R(1) = P, the flip of the two spaces."""
    clock = Stopwatch()
    R1 = fac.build([xi_of(1.0)], hat=False)[0]
    res = np.linalg.norm(R1 - permutation_operator((1, 0), fac.N)) / np.linalg.norm(R1)
    return clock.report("rmatrix-properties", "regularity", "R(1) = P", _inputs(fac), res,
                        tolerance)


def _unitarity_wants(z: complex, fac: RMatrixFactory) -> list:
    pair = [xi_of(z), xi_of(1 / z)]
    return [(fac.build, pair, False), (U, [z], fac.params, fac.policy), (fac.build, pair, True)]


def check_unitarity(z: complex, fac: RMatrixFactory, tolerance=1e-9, built=None):
    """R_12(z) R_21(1/z) = 1, and Rhat_12(z) Rhat_21(1/z) = U(z).

    `built` holds the value of each of `_unitarity_wants`, computed here if
    not given; so does every check's `built`, of its own wants."""
    clock = Stopwatch()
    N = fac.N
    R, u, Rhat = built or _now(_unitarity_wants(z, fac))
    resids = []
    for (R12, R21), scal in ((R, 1.0), (Rhat, u[0])):
        # R21 acts on the spaces (2, 1): swap its two indices to act on (1, 2)
        RR21 = R12 @ R21.reshape(N, N, N, N).transpose(1, 0, 3, 2).reshape(N * N, N * N)
        resids.append(np.linalg.norm(RR21 - scal * np.eye(N * N)) / np.linalg.norm(RR21))
    return clock.report("rmatrix-properties", "unitarity",
                        "R12(z) R21(1/z) = 1; Rhat pair gives U(z)",
                        _inputs(fac, z=z), worst(resids), tolerance)


def _yang_baxter_wants(z: complex, w: complex, fac: RMatrixFactory, hat: bool) -> list:
    return [(fac.build, [xi_of(z), xi_of(w), xi_of(w / z)], hat)]


def check_yang_baxter(z: complex, w: complex, fac: RMatrixFactory, tolerance=1e-9,
                      hat: bool = False, built=None):
    """R12(z) R13(w) R23(w/z) = R23(w/z) R13(w) R12(z) on three spaces."""
    clock = Stopwatch()
    mats, = built or _now(_yang_baxter_wants(z, w, fac, hat))
    A12, A13, A23 = (_on(mat, labels, fac) for mat, labels in zip(mats, ((1, 2), (1, 3), (2, 3))))
    lhs = compose([A12, A13, A23], (1, 2, 3))
    rhs = compose([A23, A13, A12], (1, 2, 3))
    res = (lhs - rhs).norm() / lhs.norm()
    return clock.report("rmatrix-properties", "yang-baxter" + ("-hat" if hat else ""),
                        "R12(z) R13(w) R23(w/z) = R23(w/z) R13(w) R12(z)",
                        _inputs(fac, z=z, w=w), res, tolerance)


def _crossing_wants(z: complex, fac: RMatrixFactory) -> list:
    qN = fac.params.q ** fac.N
    return [(fac.build, [xi_of(z), xi_of(1 / (z * qN)), xi_of(qN * z)], False),
            (fac.build, [xi_of(z), xi_of(qN * z)], True)]


def check_crossing(z: complex, fac: RMatrixFactory, tolerance=1e-9, built=None):
    """Crossing symmetry R12(z)^{t2} R21(1/(z q^N))^{t2} = 1 and the
    crossing-unitarity consequence (R^{t2})^{-1} = (R(q^N z)^{-1})^{t2},
    the latter verified for both R and Rhat."""
    clock = Stopwatch()
    (R, R21, RN), hats = built or _now(_crossing_wants(z, fac))
    R, RN, hats = _on(R, (1, 2), fac), _on(RN, (1, 2), fac), [_on(m, (1, 2), fac) for m in hats]
    Rt = R.partial_transpose(2)
    R21t = _on(R21, (2, 1), fac).partial_transpose(2)
    res1 = (Rt @ R21t).norm(minus=1.0) / Rt.norm()
    resids = [res1, crossing_unitarity_residual(R, RN), crossing_unitarity_residual(*hats)]
    return clock.report(
        "rmatrix-properties", "crossing",
        "R^{t2}(z) R21^{t2}(1/(z q^N)) = 1 and (R^{t2})^{-1} = (R(q^N z)^{-1})^{t2}",
        _inputs(fac, z=z), worst(resids), tolerance)


def _antisymmetry_wants(z: complex, fac: RMatrixFactory) -> list:
    xi = xi_of(z)
    return [(fac.build, [xi + 1, xi], False)]


def check_antisymmetry(z: complex, fac: RMatrixFactory, tolerance=1e-9, built=None):
    """R(-z) = omega (g^{-1} (x) 1) R(z) (g (x) 1), with -z reached by the
    continuation xi -> xi + 1 (principal-branch evaluation of -z realizes
    the identity only up to an N-th root of unity)."""
    clock = Stopwatch()
    E = np.eye(fac.N)
    (lhs, R), = built or _now(_antisymmetry_wants(z, fac))
    g = fac.zn.g
    rhs = fac.zn.omega * np.kron(np.linalg.inv(g), E) @ R @ np.kron(g, E)
    res = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
    return clock.report("rmatrix-properties", "antisymmetry",
                        "R(-z) = omega (g^{-1} x 1) R(z) (g x 1)  [-z via xi+1]",
                        _inputs(fac, z=z), res, tolerance)


def _quasi_periodicity_wants(x: complex, a: int, fac: RMatrixFactory) -> list:
    xi = xi_of(x)
    return [(fac.build, [xi, xi + a * fac.s_shift], True),
            (F_a, [x], a, fac.params.s, fac.params, fac.policy)]


def check_quasi_periodicity_M(x: complex, a: int, fac: RMatrixFactory, tolerance=1e-9,
                              built=None):
    """Twist relation M_a Rhat(x) = F_a(x) Rhat(s^a x) M_a with M_a = GH^{-a}.

    The step x -> s x by the designated root value is taken on the theta
    lattice (xi -> xi + tau + 1); a = 1 is the quasi-periodicity property
    itself, a = 0 is trivial, other a iterate it.  The p* matrix with the
    s* ladder is the same check on the factory of EllipticParams(N, q, s*).
    """
    clock = Stopwatch()
    E = np.eye(fac.N)
    Ma = fac.zn.M_power(a)
    (R, Ra), scal = built or _now(_quasi_periodicity_wants(x, a, fac))
    lhs = np.kron(Ma, E) @ R
    rhs = scal[0] * Ra @ np.kron(Ma, E)
    res = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
    return clock.report("rmatrix-properties", f"quasi-periodicity(a={a})",
                        "M_a Rhat(x) = F_a(x) Rhat(s^a x) M_a   [s-step on the theta lattice]",
                        _inputs(fac, x=x, a=a), res, tolerance)


def check_kernel(fac: RMatrixFactory, tolerance=1e-8):
    """dim ker Rhat(q) = N(N-1)/2 and the kernel projector is A_2."""
    clock = Stopwatch()
    N = fac.N
    dim, proj = kernel_projector(fac)
    expected = N * (N - 1) // 2
    A2 = antisymmetrizer(2, N).matrix
    res = np.linalg.norm(proj - A2) if dim == expected else 1.0
    return clock.report("rmatrix-properties", "kernel",
                        "ker Rhat(q) = im A_2 (dimension N(N-1)/2)",
                        _inputs(fac, dim=dim, expected_dim=expected), res, tolerance)


def _zn_sparsity_wants(z: complex, fac: RMatrixFactory) -> list:
    return [(fac.build, [xi_of(z)], False)]


def _zn_sparsity(z: complex, fac: RMatrixFactory, built=None):
    clock = Stopwatch()
    (R,), = built or _now(_zn_sparsity_wants(z, fac))
    return clock.report(
        suite="rmatrix-properties", check="zn-sparsity",
        identity="entry ((i,j),(k,l)) of R vanishes unless i+j = k+l mod N",
        inputs=_inputs(fac, z=z), residual=zn_symmetry_residual(R, fac.N), tolerance=1e-12)


def _ybe_control_wants(pairs, fac: RMatrixFactory) -> list:
    return [(fac.build, [xi_of(z), xi_of(w * 1.01), xi_of(w / z), xi_of(w)], True) for z, w in pairs]


def _ybe_control(pairs, fac: RMatrixFactory, built=None):
    """Test-power control: a deliberately broken Yang-Baxter triple.  The
    normalized Rhat is used because the unitary-gauge R varies too
    slowly with its argument for a 1% shift to register reliably;
    sensitivity still varies over the domain, so take the worst
    violation over several sampled pairs."""
    clock = Stopwatch()
    ctrl = []
    for mats in built or _now(_ybe_control_wants(pairs, fac)):
        A12, A13, A23, B13 = (_on(mat, labels, fac) for mat, labels in zip(
            mats, ((1, 2), (1, 3), (2, 3), (1, 3))))
        lhs = compose([A12, A13, A23], (1, 2, 3))
        rhs = compose([A23, B13, A12], (1, 2, 3))
        ctrl.append((lhs - rhs).norm() / rhs.norm())
    return clock.control(
        "rmatrix-properties", "control-perturbed-ybe",
        "perturbing one argument by 1% must break Yang-Baxter (> 1e-3)",
        {"N": fac.N}, worst(ctrl), 1e-3)


def _crossing_control_wants(zs, fac: RMatrixFactory) -> list:
    qN = fac.params.q ** fac.N
    return [(fac.build, [xi_of(z), xi_of(qN * z * 1.01)], True) for z in zs]


def _crossing_control(zs, fac: RMatrixFactory, built=None):
    """Crossing-unitarity control: shift the q^N pairing by 1%."""
    clock = Stopwatch()
    ctrl = [crossing_unitarity_residual(*(_on(m, (1, 2), fac) for m in pair))
            for pair in built or _now(_crossing_control_wants(zs, fac))]
    return clock.control(
        "rmatrix-properties", "control-perturbed-crossing",
        "perturbing the q^N pairing by 1% must break crossing-unitarity (> 1e-3)",
        {"N": fac.N}, worst(ctrl), 1e-3)


def suite_rmatrix_properties(ctx: SuiteContext) -> list[CheckReport]:
    return _draw_build_check(ctx, 10, _rmatrix_properties)


def _rmatrix_properties(ctx: SuiteContext, rng, checks: _Pass):
    tol = ctx.tol("rmatrix-properties", 1e-9)
    fac = factory(ctx.params.require_elliptic(), ctx.policy)
    checks.add(partial(check_regularity, fac, tol))

    def yang_baxter(z, hat):
        w = _safe_point(rng)
        checks.add(partial(check_yang_baxter, z, w, fac, tol, hat), _yang_baxter_wants(z, w, fac, hat))

    for _ in range(5):
        _with_resample(lambda z: checks.add(partial(check_unitarity, z, fac, tol),
                                         _unitarity_wants(z, fac)), rng)
        _with_resample(lambda z: yang_baxter(z, False), rng)
        _with_resample(lambda z: yang_baxter(z, True), rng)
        _with_resample(lambda z: checks.add(partial(check_crossing, z, fac, tol),
                                         _crossing_wants(z, fac)), rng)
        _with_resample(lambda z: checks.add(partial(check_antisymmetry, z, fac, tol),
                                         _antisymmetry_wants(z, fac)), rng)
    for a in (-2, -1, 0, 1, 2):
        _with_resample(lambda x, a=a: checks.add(partial(check_quasi_periodicity_M, x, a, fac, tol),
                                              _quasi_periodicity_wants(x, a, fac)), rng)
    checks.add(partial(check_kernel, fac, ctx.tol("rmatrix-properties", 1e-8)))
    z = _safe_point(rng)
    checks.add(partial(_zn_sparsity, z, fac), _zn_sparsity_wants(z, fac))
    pairs = [(_safe_point(rng), _safe_point(rng)) for _ in range(5)]
    checks.add(partial(_ybe_control, pairs, fac), _ybe_control_wants(pairs, fac))
    zs = [_safe_point(rng) for _ in range(5)]
    checks.add(partial(_crossing_control, zs, fac), _crossing_control_wants(zs, fac))


def check_fusion_identities(k: int, fac, x: complex, kprime: int | None = None,
                            tolerance: float = 1e-8):
    """Residuals of the one-sided projector identities X A = A X A for the
    R-hat chain, its t0-transposed-inverse chain, its inverse chain, and the
    fused block product with the row and column antisymmetrizers.  Each X is
    a list of gates applied to im A only (see `_projector_residual`); the
    inverse fused block is the reversed list of inverse gates, checked while
    N^(k+k') <= 1536."""
    if kprime is None:
        kprime = k
    N, params = fac.N, fac.params
    if not (2 <= k <= N):
        raise ValueError(f"need 2 <= k <= N, got k={k}")
    zeta = params.zeta
    xi_x = xi_of(x)
    inputs = {"N": N, "k": k, "kprime": kprime, "x": x, "q": params.q, "p": params.p}
    reports = []

    def report(name, identity, gates, a_labels, rest):
        clock = Stopwatch()
        res = _projector_residual(gates, a_labels, rest)
        reports.append(clock.report("fusion-identities", name, identity, inputs, res,
                                    tolerance))

    # chains on aux spaces 1..k against a common space 0: the descending
    # ladder x q^{1-i} and the ascending one x q^{i-1}, from one build
    aux = tuple(range(1, k + 1))
    steps = np.arange(k) * zeta
    mats = fac.build(np.concatenate((xi_x - steps, xi_x + steps)), hat=True)

    def on_aux(ms):
        return [LabeledTensor.from_matrix(m, (i, "0"), N) for i, m in zip(aux, ms)]

    down, up = on_aux(mats[:k]), on_aux(mats[k:])
    chains = (
        ("chain", "Rhat_{1,0}(x)...Rhat_{k,0}(x q^{1-k}) A_k = A_k (...) A_k", down),
        # (R1^-1)^t0 ... (Rk^-1)^t0 = (Rk^-1 ... R1^-1)^t0, and transposing
        # space 0 commutes with A_k (x) 1 and keeps the Frobenius norm, so
        # the reversed untransposed chain has the same residual
        ("chain_t0_inv", "(Rhat^{-1})^{t0} descending-argument chain, one-sided projector",
         [g.inv() for g in reversed(down)]),
        ("chain_inv", "Rhat^{-1}_{1,0}(x)...Rhat^{-1}_{k,0}(x q^{k-1}) A_k = A_k (...) A_k",
         [g.inv() for g in up]),
    )
    for name, identity, gates in chains:
        report(name, identity, gates, aux, ("0",))

    gates = fused_gates(x, k, kprime, fac)
    rows, cols = row_labels(k), col_labels(kprime)
    report("fused_rows", "fused R block with row antisymmetrizer", gates, rows, cols)
    report("fused_cols", "fused R block with column antisymmetrizer", gates, cols, rows)
    if N ** (k + kprime) <= 1536:  # the budget of the former dense inversion
        inv_gates = [g.inv() for g in reversed(gates)]
        report("fused_inv_rows", "inverse fused R block with row antisymmetrizer",
               inv_gates, rows, cols)
        report("fused_inv_cols", "inverse fused R block with column antisymmetrizer",
               inv_gates, cols, rows)
    return reports


def check_M_derivative(x: complex, k: int, kprime: int, fac, tolerance: float = 1e-5):
    """Derivative of M(x) in the central charge at c = -N.

    The derivative is the Richardson extrapolation (4 D(step) - D(2 step)) / 3
    of two central differences D, as in `critical_poisson_check`: dM/dc = 0,
    so a plain central difference reads its O(step^2) error, which at
    complex q reaches the tolerance.  Both dM/dc = 0 and M|_{c=-N} = identity
    are asserted; the second enters the returned inputs so a wrong critical
    value cannot silently pass."""
    clock = Stopwatch()
    N, step = fac.N, 1e-4
    Ms = monodromy_M(x, k, kprime, fac, [-N, -N + step, -N - step, -N + 2 * step, -N - 2 * step])
    Mc = next(Ms)
    scale = max(Mc.norm(), 1e-300)
    ident_res = Mc.norm(minus=1.0) / scale
    # 4 D(step) - D(2 step) as a weighted sum of the M at c = -N +- step and
    # -N +- 2 step, added one M at a time so that no two are held at once
    total = np.zeros_like(Mc.data)
    for w in (2 / step, -2 / step, -1 / (4 * step), 1 / (4 * step)):
        total += w * next(Ms).data
    deriv = frobenius(total) / 3 / scale
    return clock.report(
        "fusion-identities", f"M_derivative(k={k},k'={kprime})",
        "d/dc M(x) = 0 and M(x) = 1 at the critical level c = -N",
        {"N": N, "k": k, "kprime": kprime, "x": x, "q": fac.params.q,
         "p": fac.params.p, "step": step, "identity_residual": ident_res},
        worst((deriv, ident_res)), tolerance)


def suite_fusion_identities(ctx: SuiteContext) -> list[CheckReport]:
    tol = ctx.tol("fusion-identities", 1e-8)
    out = []
    pr = ctx.params.require_elliptic()
    fac = factory(pr, ctx.policy)
    rng = ctx.rng(20)

    # the basis V of im A_k: V^T V = 1, (i i+1) V = -V for every adjacent
    # swap, and C(N,k) columns, the dimension of the antisymmetric
    # subspace; together they give V V^T = A_k
    clock = Stopwatch()
    resids = []
    for k in range(1, pr.N + 1):
        A = antisymmetrizer(k, pr.N)
        V = A.basis
        resids.append(np.abs(V.T @ V - np.eye(A.rank)).max())
        block = V.reshape((pr.N,) * k + (-1,))
        resids.extend(np.abs(np.swapaxes(block, i, i + 1) + block).max() for i in range(k - 1))
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


def _lax_want(rep: EvalRep, xis) -> tuple:
    """The want of rep's Lax factors L = Rhat(xi - xi_a) at the additive
    points xis, as a build of rep's factory: so every rep of one factory
    shares one build."""
    return rep.factory.build, np.asarray(xis, dtype=complex) - rep.xi_a, True


def _tL_wants(k: int, z: complex, w: complex, surface: SurfaceSpec, rep: EvalRep) -> list:
    """The factors of t^{(k)}(z) and L(w), and the ladders F_{-m} and F*_n
    at the points z_i/w, z_i = q^{e_i} z, of the prefactor."""
    p = surface.params
    x = np.array([p.q ** e * z / w for e in centred_ladder(k)])
    return [_lax_want(rep, np.append(lax_points(k, z, surface, rep), xi_of(w))),
            (F_a, x, -surface.m, p.s, p, rep.policy), (F_a, x, surface.n, p.s_star, p, rep.policy)]


def exchange_residual_tL(k: int, z: complex, w: complex, surface: SurfaceSpec,
                         rep: EvalRep, tolerance: float = 1e-8, built=None) -> CheckReport:
    """Residual of t^{(k)}(z) L(w) = [prod_i F_{-m}/F*_n](z_i/w) L(w) t^{(k)}(z),
    as matrices on (one fresh auxiliary space) x (quantum space).

    When the selection rule says t^{(k)} vanishes identically, the verified
    statement is the vanishing itself (residual = |t|); the exchange then
    holds trivially on both sides.
    """
    clock = Stopwatch()
    N = rep.N
    lax, f_m, f_n = built or _now(_tL_wants(k, z, w, surface, rep))
    t_gen = build_t(k, z, surface, rep, lax[:-1])
    t_norm = float(np.linalg.norm(t_gen))
    pref = complex(np.prod(f_m / f_n))
    vanishing = not survives_selection_rule(k, surface.m, surface.n, N)
    if vanishing:
        res = t_norm
    else:
        # t^(k) need not conserve the charge, so 1 (x) t is a dense N^2 x N^2 matrix
        Lw, t = lax[-1], np.kron(np.eye(N), t_gen)
        res = np.linalg.norm(t @ Lw - pref * Lw @ t) / max(np.linalg.norm(Lw) * t_norm, 1e-300)
    return clock.report(
        suite="theorem1-exchange", check=f"tL(k={k},m={surface.m},n={surface.n})",
        identity=("t^{(k)} = 0 (twist charge (m+n)k != 0 mod N), exchange trivial"
                  if vanishing else
                  "t(z) L(w) = prod_i [F_{-m}/F*_n](z_i/w) L(w) t(z) on the surface"),
        inputs={"N": N, "q": rep.params.q, "k": k, "m": surface.m, "n": surface.n,
                "z": z, "w": w, "s": surface.params.s, "prefactor": pref,
                "t_norm": t_norm, "t_scalar_residual": _scalar_residual(t_gen),
                "structurally_vanishing": vanishing},
        residual=res, tolerance=tolerance,
    )


def _tt_wants(k: int, kprime: int, z: complex, w: complex, surface: SurfaceSpec,
              rep: EvalRep) -> list:
    p = surface.params
    x = np.array([p.q ** (ei - ej) * z / w for ei in centred_ladder(k) for ej in centred_ladder(kprime)])
    return [_lax_want(rep, np.concatenate((lax_points(k, z, surface, rep),
                                           lax_points(kprime, w, surface, rep)))),
            (Y_mn, x, surface.m, surface.n, p, rep.policy)]


def exchange_residual_tt(k: int, kprime: int, z: complex, w: complex,
                         surface: SurfaceSpec, rep: EvalRep,
                         tolerance: float = 1e-8, built=None) -> CheckReport:
    """Residual of the quadratic exchange
    t^{(k)}(z) t^{(k')}(w) = prod_{i,j} Y_{m,n}(q^{i-j} z/w) t^{(k')}(w) t^{(k)}(z).

    Vanishing factors (selection rule) make the relation trivial; the
    reported residual is then the norm of the factor that must vanish."""
    clock = Stopwatch()
    p = surface.params
    lax, ys = built or _now(_tt_wants(k, kprime, z, w, surface, rep))
    tk = build_t(k, z, surface, rep, lax[:2 * k])
    tkp = build_t(kprime, w, surface, rep, lax[2 * k:])
    pref = complex(np.prod(ys))
    van_k = not survives_selection_rule(k, surface.m, surface.n, rep.N)
    van_kp = not survives_selection_rule(kprime, surface.m, surface.n, rep.N)
    if van_k or van_kp:
        res = worst((np.linalg.norm(tk) if van_k else 0.0,
                     np.linalg.norm(tkp) if van_kp else 0.0))
    else:
        lhs = tk @ tkp
        rhs = pref * (tkp @ tk)
        res = np.linalg.norm(lhs - rhs) / max(
            np.linalg.norm(tk) * np.linalg.norm(tkp), 1e-300)
    return clock.report(
        suite="corollary2-exchange", check=f"tt(k={k},k'={kprime},m={surface.m},n={surface.n})",
        identity=("a factor of the quadratic exchange vanishes by the twist "
                  "charge rule" if (van_k or van_kp) else
                  "t_k(z) t_k'(w) = prod Y_{m,n}(q^{i-j} z/w) t_k'(w) t_k(z)"),
        inputs={"N": rep.N, "q": p.q, "k": k, "kprime": kprime, "m": surface.m,
                "n": surface.n, "z": z, "w": w, "prefactor": pref,
                "t_scalar_residual": max(_scalar_residual(tk), _scalar_residual(tkp)),
                "structurally_vanishing": bool(van_k or van_kp)},
        residual=res, tolerance=tolerance,
    )


_THEOREM1_SURFACES = [(-1, -1), (-2, 1)]


def _offsurface(surf: SurfaceSpec, ctx: SuiteContext):
    """`surf` with s moved 2% off the surface, and the evaluation
    representation at a = 1 there."""
    p = surf.params
    pert = SurfaceSpec(m=surf.m, n=surf.n, params=EllipticParams(p.N, p.q, p.s * 1.02, 0.0))
    return pert, EvalRep(factory(pert.params, ctx.policy), 1.0)


def _tL_offsurface(z: complex, w: complex, pert: SurfaceSpec, rep: EvalRep, tolerance: float,
                   built=None) -> CheckReport:
    """`exchange_residual_tL` at k = N, 2% off the surface: t^{(N)} commutes
    without any surface condition."""
    r = exchange_residual_tL(rep.N, z, w, pert, rep, tolerance, built)
    r.check = f"tL-offsurface(k={rep.N},m={pert.m},n={pert.n})"
    return r


def _tL_control(k: int, pairs, pert: SurfaceSpec, rep: EvalRep, tolerance: float,
                built=None) -> CheckReport:
    """Control: a surviving non-central generator off the surface must
    violate the exchange; sensitivity varies over the domain, so take the
    worst of the pairs."""
    clock = Stopwatch()
    ctrl = [exchange_residual_tL(k, z, w, pert, rep, tolerance,
                                 built and built[3 * i:3 * i + 3]).residual  # three wants a pair
            for i, (z, w) in enumerate(pairs)]
    return clock.control(
        "theorem1-exchange", "control-offsurface",
        "2% off-surface perturbation must break the exchange (> 1e-3)",
        {"N": rep.N, "m": pert.m, "n": pert.n, "k": k}, worst(ctrl), 1e-3)


def suite_theorem1_exchange(ctx: SuiteContext) -> list[CheckReport]:
    return _draw_build_check(ctx, 30, _theorem1_exchange)


def _theorem1_exchange(ctx: SuiteContext, rng, checks: _Pass):
    tol = ctx.tol("theorem1-exchange", 1e-8)
    pr = ctx.params
    for (m, n) in _THEOREM1_SURFACES:
        surf = resolve_surface(m, n, pr.q, 0.0, pr.N)
        if not surf.params.is_elliptic:
            continue
        rep = EvalRep(factory(surf.params, ctx.policy), _unit_point(rng))
        for k in range(1, pr.N + 1):
            for _ in range(3):
                z, w = _safe_point(rng), _safe_point(rng)
                checks.add(partial(exchange_residual_tL, k, z, w, surf, rep, tol),
                        _tL_wants(k, z, w, surf, rep))
        pert, rep_p = _offsurface(surf, ctx)
        z, w = _safe_point(rng), _safe_point(rng)
        checks.add(partial(_tL_offsurface, z, w, pert, rep_p, tol), _tL_wants(pr.N, z, w, pert, rep_p))

    ctrl_m, ctrl_n, ctrl_k = ((-1, -1, 1) if pr.N == 2 else (-pr.N + 1, -1, 1))
    pert, rep_p = _offsurface(resolve_surface(ctrl_m, ctrl_n, pr.q, 0.0, pr.N), ctx)
    pairs = [(_safe_point(rng), _safe_point(rng)) for _ in range(5)]
    checks.add(partial(_tL_control, ctrl_k, pairs, pert, rep_p, tol),
            [want for z, w in pairs for want in _tL_wants(ctrl_k, z, w, pert, rep_p)])


def _prefactor_consistency(z: complex, w: complex, surf: SurfaceSpec, rep: EvalRep,
                           tol_tt: float, tolerance: float, built=None) -> CheckReport:
    """At k = k' = 1 the exchange prefactor must be the single Y_{m,n}(z/w)."""
    clock = Stopwatch()
    *tt, (y_direct,) = built or _now(_prefactor_consistency_wants(z, w, surf, rep))
    r = exchange_residual_tt(1, 1, z, w, surf, rep, tol_tt, tt)
    return clock.report(
        suite="corollary2-exchange", check="prefactor-consistency",
        identity="(k,k') = (1,1) exchange prefactor equals Y_{m,n}(z/w)",
        inputs={"N": rep.N, "m": surf.m, "n": surf.n, "z": z, "w": w},
        residual=abs(r.inputs["prefactor"] - y_direct) / (1 + abs(y_direct)),
        tolerance=tolerance)


def _prefactor_consistency_wants(z: complex, w: complex, surf: SurfaceSpec, rep: EvalRep) -> list:
    return _tt_wants(1, 1, z, w, surf, rep) + [(Y_mn, [z / w], surf.m, surf.n, surf.params, rep.policy)]


def suite_corollary2_exchange(ctx: SuiteContext) -> list[CheckReport]:
    return _draw_build_check(ctx, 40, _corollary2_exchange)


def _corollary2_exchange(ctx: SuiteContext, rng, checks: _Pass):
    tol = ctx.tol("corollary2-exchange", 1e-8)
    pr = ctx.params
    for (m, n) in _THEOREM1_SURFACES:
        surf = resolve_surface(m, n, pr.q, 0.0, pr.N)
        if not surf.params.is_elliptic:
            continue
        rep = EvalRep(factory(surf.params, ctx.policy), _unit_point(rng))
        for k in range(1, pr.N + 1):
            for kp in range(k, pr.N + 1):
                z, w = _safe_point(rng), _safe_point(rng)
                checks.add(partial(exchange_residual_tt, k, kp, z, w, surf, rep, tol),
                        _tt_wants(k, kp, z, w, surf, rep))

    surf = resolve_surface(*_THEOREM1_SURFACES[0], pr.q, 0.0, pr.N)
    rep = EvalRep(factory(surf.params, ctx.policy), 1.0)
    _, w = _safe_point(rng), _safe_point(rng)  # the check draws its own z
    _with_resample(lambda z: checks.add(
        partial(_prefactor_consistency, z, w, surf, rep, tol, ctx.tol("corollary2-exchange", 1e-10)),
        _prefactor_consistency_wants(z, w, surf, rep)), rng)


def qdet_extract(z: complex, rep: EvalRep, tolerance: float = 1e-8, built=None):
    """Extract qdet(z) and report how close it is to a scalar on the
    quantum space (centrality in the evaluation representation)."""
    clock = Stopwatch()
    N = rep.N
    lax, = built or _now(_qdet_extract_wants(z, rep))
    qd, = _qdet_matrices([xi_of(z)], rep, lax)
    scal = complex(np.trace(qd) / N)
    return scal, clock.report(
        suite="qdet", check="qdet-centrality",
        identity="L_1(z)...L_N(z q^{1-N}) A_N = A_N qdet(z) with qdet scalar",
        inputs={"N": N, "q": rep.params.q, "p": rep.params.p, "z": z,
                "qdet": scal},
        residual=_scalar_residual(qd), tolerance=tolerance,
    )


def _qdet_extract_wants(z: complex, rep: EvalRep) -> list:
    return [_lax_want(rep, _qdet_points([xi_of(z)], rep))]


def _sigma_tops(z: complex, surface: SurfaceSpec, rep: EvalRep):
    """The two candidate shifts sigma of `qdet_tqdet_check`, by name and
    exponent, and the points sigma z, s*^n sigma z of each, in turn."""
    N = rep.N
    sigmas = (("q^{(N-1)/2}", (N - 1) / 2.0), ("q^{N-1}", float(N - 1)))
    star_step = surface.n * rep.factory.s_star_shift
    tops = [xi_of(z) + sig_exp * rep.params.zeta for _, sig_exp in sigmas]
    return sigmas, [v for top in tops for v in (top, top + star_step)]


def _tqdet_wants(z: complex, surface: SurfaceSpec, rep: EvalRep) -> list:
    return [_lax_want(rep, lax_points(rep.N, z, surface, rep)),
            _lax_want(rep, _qdet_points(_sigma_tops(z, surface, rep)[1], rep))]


def qdet_tqdet_check(z: complex, surface: SurfaceSpec, rep: EvalRep,
                     tolerance: float = 1e-8, built=None) -> CheckReport:
    """t^{(N)}(z) = det(M) det(Mt) qdet(s*^n sigma z) / qdet(sigma z).

    The grid of t^{(N)} determines sigma only up to the quasi-periodicity
    of qdet, so both candidate shifts sigma = q^{(N-1)/2} and q^{N-1} are
    tried; the report carries each residual and asserts the better one.
    """
    clock = Stopwatch()
    N = rep.N
    zn = rep.factory.zn
    lax_t, lax_q = built or _now(_tqdet_wants(z, surface, rep))
    t_val = complex(np.trace(build_t(N, z, surface, rep, lax_t)) / N)
    detM = complex(np.linalg.det(zn.M_power(surface.m)))
    detMt = complex(np.linalg.det(zn.M_power(surface.n)))
    sigmas, tops = _sigma_tops(z, surface, rep)
    qdets = [complex(np.trace(qd) / N) for qd in  # qdet(sigma z), qdet(s*^n sigma z) per sigma
             _qdet_matrices(tops, rep, lax_q)]
    results = {name: abs(t_val - detM * detMt * num / den) / max(abs(t_val), 1e-300)
               for (name, _), den, num in zip(sigmas, qdets[::2], qdets[1::2])}
    best = min(results, key=results.get)
    return clock.report(
        suite="qdet", check="t-qdet",
        identity="t^{(N)}(z) = det(M) det(Mt) qdet(s*^n sigma z)/qdet(sigma z)",
        inputs={"N": N, "q": rep.params.q, "m": surface.m, "n": surface.n, "z": z,
                "selected_sigma": best,
                "residuals": {k: float(v) for k, v in results.items()}},
        residual=results[best], tolerance=tolerance,
    )


def check_trace_MA(N: int, m: int, tolerance: float = 1e-10) -> CheckReport:
    """tr_{1..N}( MM A_N ) = det(M)."""
    clock = Stopwatch()
    M = ZnMatrices(N).M_power(m)
    lhs = complex(antisym_trace(N, lefts=[M] * N)[0, 0])
    det = complex(np.linalg.det(M))
    res = abs(lhs - det) / max(abs(det), 1e-300)
    return clock.report(
        suite="qdet", check=f"trace-MA(m={m})",
        identity="tr(M^{xN} A_N) = det(M)",
        inputs={"N": N, "m": m, "det": det},
        residual=res, tolerance=tolerance,
    )


def suite_qdet(ctx: SuiteContext) -> list[CheckReport]:
    return _draw_build_check(ctx, 50, _qdet)


def _qdet(ctx: SuiteContext, rng, checks: _Pass):
    tol = ctx.tol("qdet", 1e-8)
    pr = ctx.params
    surf = resolve_surface(-1, -1, pr.q, 0.0, pr.N)
    rep = EvalRep(factory(surf.params, ctx.policy), _unit_point(rng))
    z = _safe_point(rng)
    checks.add(lambda built=None: qdet_extract(z, rep, tol, built)[1], _qdet_extract_wants(z, rep))
    checks.add(partial(qdet_tqdet_check, z, surf, rep, tol), _tqdet_wants(z, surf, rep))
    for m in range(1, pr.N + 1):
        checks.add(partial(check_trace_MA, pr.N, m, ctx.tol("qdet", 1e-10)))


def n0_check(k: int, m: int, N: int, tolerance: float = 1e-10) -> CheckReport:
    """t_{m,0}^{(k)} = tr(MM A_k) equals the k-th elementary symmetric
    polynomial of the eigenvalues of M = GH^{-m}; it vanishes unless
    m k = 0 mod N."""
    clock = Stopwatch()
    M = ZnMatrices(N).M_power(m)
    val = complex(antisym_trace(N, lefts=[M] * k)[0, 0])
    eigs = np.linalg.eigvals(M)
    coeffs = np.poly(eigs)  # monic char poly: e_k = (-1)^k coeffs[k]
    ek = complex((-1) ** k * coeffs[k])
    res = abs(val - ek)
    vanishes = not survives_selection_rule(k, m, 0, N)
    if vanishes:
        res = worst((res, abs(val)))  # must also be zero outright
    return clock.report(
        suite="n0", check=f"n0(N={N},k={k},m={m})",
        identity="tr(M^{xk} A_k) = e_k(eig M); zero unless m k = 0 mod N",
        inputs={"N": N, "k": k, "m": m, "value": val, "e_k": ek,
                "must_vanish": vanishes},
        residual=res, tolerance=tolerance,
    )


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


def abelianity_check(branch: str, N: int, q: complex, m: int, n: int,
                     x_grid, lam=None, tolerance: float = 1e-9,
                     policy: TruncationPolicy = DEFAULT_POLICY):
    """Resolve the branch and measure max |Y_{m,n}(x) - 1| over the grid.

    A grid point on a pole fails this branch alone: the report has
    residual NaN and the PoleHit's type and message in `error`/`message`."""
    clock = Stopwatch()
    x_grid = list(x_grid)
    params = resolve_abelian_branch(branch, N, q, m, n, lam)
    surf = abs(params.s**m * params.s_star**n - q ** (-N))
    failure = {}
    try:
        dev = worst(abs(y - 1) for y in Y_mn_grid(x_grid, m, n, params, policy).tolist())
    except PoleHit as exc:
        failure = {"error": type(exc).__name__, "message": str(exc)}
        dev = math.nan
    return clock.report(
        suite="abelianity",
        check=f"{branch}(m={m},n={n})",
        identity="Y_{m,n}(x) = 1 on the abelianity surface",
        inputs={"N": N, "q": q, "m": m, "n": n, "lam": None if lam is None else str(lam),
                "c": params.c, "surface_residual": surf, "grid_points": len(x_grid), **failure},
        residual=dev,
        tolerance=tolerance,
    )


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


def critical_poisson_check(k: int, kprime: int, x: complex, params: EllipticParams,
                           tolerance: float = 1e-6,
                           policy: TruncationPolicy = DEFAULT_POLICY) -> CheckReport:
    """Three-way comparison at the critical level c = -N: the central
    difference of the fused exchange ratio in c, the I-kernel series, and
    the mode expansion must agree pairwise.

    The derivative uses Richardson extrapolation of two central
    differences (O(step^4)); plain central differences lose too much
    accuracy when x sits near a pole ring of the structure function.

    A TruncationBudgetExceeded fails this point alone: the report has
    residual NaN, None for the values not reached, and the error's type
    and message in `error`/`message`."""
    clock = Stopwatch()
    N, step = params.N, 2e-5

    def central(eps):
        return (Y_kkprime_cr(x, k, kprime, params.with_c(-N + eps), policy)
                - Y_kkprime_cr(x, k, kprime, params.with_c(-N - eps), policy)) / (2 * eps)

    values = {"derivative": None, "series": None, "modes": None}
    failure = {}
    try:
        values["derivative"] = d = (4 * central(step / 2) - central(step)) / 3
        values["series"] = fs = f_cr_series(x, k, kprime, params, policy)
        values["modes"] = fm = f_cr_modes(x, k, kprime, params, policy)
        res = worst((abs(d - fs), abs(d - fm), abs(fs - fm)))
    except TruncationBudgetExceeded as exc:
        failure = {"error": type(exc).__name__, "message": str(exc)}
        res = math.nan
    return clock.report(
        suite="critical-poisson", check=f"f_cr(k={k},k'={kprime})",
        identity="d/dc fused ratio at c=-N equals both closed forms of f_cr",
        inputs={"N": N, "q": params.q, "k": k, "kprime": kprime, "x": x,
                **values, "step": step, **failure},
        residual=res, tolerance=tolerance,
    )


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


def alpha_identity_check() -> CheckReport:
    """Exhaustive exact-rational sweep of the reordering identity

        sum_{a<b} alpha_{j_sig(a) j_sig(b)} + sum_a (2a/N)(j_sig(a) - j_a)
            = -inv(sigma) + sum_{a<b} alpha_{j_a j_b}

    over all permutations sigma in S_k, k <= 4, and ascending tuples of
    distinct indices j_1 < ... < j_k from {1..N}, N <= 4 (the identity
    is about reordering a set of k distinct indices)."""
    clock = Stopwatch()
    k_max = N_max = 4
    violations = 0
    cases = 0
    for N in range(2, N_max + 1):
        for k in range(1, min(k_max, N) + 1):
            for js in combinations(range(1, N + 1), k):
                base = sum(alpha_fraction(js[a], js[b], N)
                           for a in range(k) for b in range(a + 1, k))
                for sigma in permutations(range(k)):
                    lhs = sum(alpha_fraction(js[sigma[a]], js[sigma[b]], N)
                              for a in range(k) for b in range(a + 1, k))
                    lhs += sum(Fraction(2 * (a + 1), N) * (js[sigma[a]] - js[a])
                               for a in range(k))
                    rhs = -_inversions(sigma) + base
                    cases += 1
                    if lhs != rhs:
                        violations += 1
    return clock.report(
        suite="alpha-identity", check=f"alpha-identity(k<={k_max},N<={N_max})",
        identity="reordering identity for the gradation-twist exponents (exact rational)",
        inputs={"k_max": k_max, "N_max": N_max, "cases": cases},
        residual=float(violations), tolerance=0.0,
    )


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
