"""The checks layer: every CheckReport is made here.

The layers below only build: `qseries` the scalars, `rmatrix` the
R-matrices, `tensor` the products on labeled spaces and `wgen` the
generators.  A check function here takes what they build and returns one
`Check` (`reports`): the suite, name, identity and sampled inputs of one
identity, its wants, each (fn, xs, *args) for a build or prefactor it
needs, the body that measures the identity on their values, and its
tolerance or control threshold.  `run_check` runs one check on its own.

A suite is a function (SuiteContext) -> list[CheckReport].  It runs its
body once: the body draws its points from seeded generators and adds its
checks to one runner, `_Checks`, which measures them in one pass:

- Draw: the body draws the first point of every check and queues it.
- Build: the wants of one build (R or Rhat of one factory) or prefactor
  (U, F_a or Y_mn at one parameter point; the U values of every fused
  exchange ratio of critical-poisson) are evaluated in one call over the
  points of all checks.  If that call raises an error a report names
  (`errors.REPORTED`), each check that wants it evaluates its wants alone.
- Check: each check's body runs on its values, in the order added.

A check that still raises such an error fails alone: its report has
residual NaN and the error's type and message in `error`/`message`.  The
checks added by one `_Checks.resampled` call that raise PoleHit or
OutsideConvergenceAnnulus are made again together, once per point drawn
after the body's last draw, so no other check's point or value moves.
An error raised outside every check (while drawing, or resolving a
surface) propagates, and `wkit check` writes it as the suite's one
`suite-error` report.

Suites share only the process-wide caches of values that never change
(factories, lattices), so they can run concurrently; the CLI sorts reports
canonically before emission.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, wraps
from itertools import combinations, permutations

import numpy as np

from .errors import REPORTED, OutsideConvergenceAnnulus, PoleHit
from .params import DEFAULT_POLICY, EllipticParams, TruncationPolicy, _charges, centred_ladder, xi_of
from .qseries import (
    F_a,
    I_series,
    U,
    Y_FF,
    Y_mn,
    Y_mn_grid,
    _forms,
    _forms_ladders,
    _fused_points,
    _fused_ratio,
    _ladders,
    f_cr_modes,
    f_cr_series,
    pochhammer2,
    resolve_abelian_branch,
    tau_N,
    theta_big,
    theta_char_product,
    theta_char_sums,
)
from .reports import Check, CheckReport, worst
from .rmatrix import RMatrixFactory, ZnMatrices, factory, kernel_projector
from .tensor import (
    LabeledTensor,
    _guard,
    _projector_residual,
    antisym_trace,
    antisymmetrizer_basis,
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
    """One point of `_safe_points`."""
    return complex(_safe_points(rng, 1, lo, hi)[0])


def _uniform(rng, k: int, *ranges):
    """For each (lo, hi) of ranges, k uniform draws in one generator call:
    those of rng.uniform(lo, hi) called for each range in turn at each of
    k points, bit for bit (lo + (hi - lo) u is numpy's own formula)."""
    u = rng.random((k, len(ranges)))
    return [lo + (hi - lo) * u[:, i] for i, (lo, hi) in enumerate(ranges)]


def _safe_points(rng, k, lo=0.7, hi=1.4, lead=()):
    """k random points in the principal-branch-safe wedge |arg z| < 0.45 pi,
    |z| in [lo, hi), drawn in one generator call; each point first draws
    one uniform per (lo, hi) of lead, returned before them."""
    *first, r, phi = _uniform(rng, k, *lead, (lo, hi), (-0.45 * np.pi, 0.45 * np.pi))
    z = r * np.cos(phi) + 1j * (r * np.sin(phi))
    return (*first, z) if lead else z


def _theta_rows(rng, N: int, k: int):
    """k rows (g1, g2, xi, tau) of series-vs-product, as four arrays: the
    two characteristics of each row from 0, +-1/2, +-1/N in one draw, then
    Re xi, Im xi, Re tau and Im tau in another."""
    g1, g2 = np.array([0.0, 0.5, -0.5, 1.0 / N, -1.0 / N])[rng.integers(5, size=(2, k))]
    re_xi, im_xi, re_tau, im_tau = _uniform(rng, k, (-1.0, 1.0), (-0.2, 0.2), (-0.5, 0.5), (0.3, 3.0))
    return g1, g2, re_xi + 1j * im_xi, re_tau + 1j * im_tau


def _unit_point(rng):
    """Evaluation point for the quantum space: on the unit circle, in the
    safe wedge, off accidental pole alignments."""
    phi = rng.uniform(-0.4 * np.pi, 0.4 * np.pi)
    return complex(np.cos(phi), np.sin(phi))


# The errors on which a drawn point is drawn again
_RESAMPLED = (PoleHit, OutsideConvergenceAnnulus)


def _with_resample(fn, rng, radii=(0.7, 1.4)):
    """fn(point) at the first of up to five points drawn from rng, |point|
    in the range `radii`, where it raises neither PoleHit nor
    OutsideConvergenceAnnulus; the fifth point's error propagates."""
    for _ in range(4):
        try:
            return fn(_safe_point(rng, *radii))
        except _RESAMPLED:
            continue
    return fn(_safe_point(rng, *radii))  # last try propagates


def _attempt(check: Check, values=None) -> tuple:
    """(the report of check, None), its body run on `values`, or if None on
    its wants evaluated one call each; or (its failing report, the error) if
    it raises an error a report names."""
    try:
        if values is None:
            values = [fn(np.asarray(xs, dtype=complex), *args) for fn, xs, *args in check.wants]
        return check.report(check.body(*values)), None
    except REPORTED as exc:
        return check.failed(exc), exc


def run_check(check: Check) -> CheckReport:
    """The report of one check run on its own: its failing report if it
    raises an error a report names."""
    return _attempt(check)[0]


def _redraw(make, left, rng, radii) -> dict:
    """{i: the report of check i of make(point)} for each index i of left:
    make is called once per point drawn by `_with_resample`, and each check
    keeps its report at the first point where it raises neither PoleHit
    nor OutsideConvergenceAnnulus, or its failing report at the last."""
    reports = {}

    def attempt(point):
        nonlocal left
        made = make(point)
        tried = {i: _attempt(made[i] if isinstance(made, list) else made) for i in left}
        reports.update((i, report) for i, (report, _) in tried.items())
        left = [i for i, (_, exc) in tried.items() if isinstance(exc, _RESAMPLED)]
        if left:
            raise tried[left[0]][1]

    with contextlib.suppress(*_RESAMPLED):
        _with_resample(attempt, rng, radii)
    return reports


class _Checks:
    """The checks a suite body adds, measured by `reports` in one pass and
    reported in the order added."""

    def __init__(self):
        self._queue = []   # per check: (check, ((make, rng, radii), i) or None, a ((fn, args), start, stop) per want)
        self._points = {}  # (fn, args) -> the point arrays of its wants

    def add(self, check: Check, redraw=None):
        slices = []
        for fn, xs, *args in check.wants:
            key = (fn, tuple(args))
            parts = self._points.setdefault(key, [])
            start = sum(map(len, parts))
            parts.append(np.asarray(xs, dtype=complex))
            slices.append((key, start, start + len(parts[-1])))
        self._queue.append((check, redraw, slices))

    def resampled(self, make, rng, radii=(0.7, 1.4)):
        """Add the check or list of checks make(point), the point drawn from
        rng with |point| in the range `radii`.  Those of them that raise
        PoleHit or OutsideConvergenceAnnulus are made again together by
        `_redraw`, after the body's last draw."""
        made = make(_safe_point(rng, *radii))
        redraw = (make, rng, radii)
        for i, check in enumerate(made if isinstance(made, list) else [made]):
            self.add(check, (redraw, i))

    def reports(self) -> list[CheckReport]:
        """Each (fn, args) of the wants called once, on the concatenated
        points of all of them in the order added, then each body run on its
        slices, then each list made again whose checks raised; each check is
        released once reported."""
        values = {}
        for key, parts in self._points.items():
            with contextlib.suppress(*REPORTED):  # then each check that wants it evaluates its wants alone
                values[key] = key[0](np.concatenate(parts), *key[1])
        out, redraws = [], {}  # id of a list to make again -> (its (make, rng, radii), {i: index in out})
        for n, (check, redraw, slices) in enumerate(self._queue):
            self._queue[n] = None
            batched = all(key in values for key, _, _ in slices)
            report, exc = _attempt(check, [values[key][a:b] for key, a, b in slices] if batched else None)
            if redraw and isinstance(exc, _RESAMPLED):
                group, i = redraw
                redraws.setdefault(id(group), (group, {}))[1][i] = len(out)
            out.append(report)
        for (make, rng, radii), at in redraws.values():
            for i, report in _redraw(make, list(at), rng, radii).items():
                out[at[i]] = report
        return out


def _suite(body):
    """The suite that runs body(ctx, checks) once, which draws its points
    and adds its checks to the runner `checks`, and gives their reports."""

    @wraps(body)
    def suite(ctx: SuiteContext) -> list[CheckReport]:
        checks = _Checks()
        body(ctx, checks)
        return checks.reports()

    return suite


def _series_vs_product(ctx: SuiteContext, tol: float) -> Check:
    g1s, g2s, xis, taus = _theta_rows(ctx.rng(1), ctx.params.N, 100)

    def body():
        sums = theta_char_sums(g1s, g2s, xis, taus, ctx.policy)
        resids = abs(sums - theta_char_product(g1s, g2s, xis, taus, ctx.policy)) / (1 + abs(sums))
        return worst(resids.tolist())

    return Check("theta-identities", "series-vs-product",
                 "theta[g1,g2](xi,tau): lattice sum = triple-product form",
                 {"points": 100, "seed": ctx.seed}, body, tol)


def _theta_inversion(ctx: SuiteContext, tol: float) -> Check:
    a, z = _safe_points(ctx.rng(2), 20, lead=[(0.3, 0.8)])

    def body():
        p = a * a
        th_pz, th_z, th_az, th_a_z = theta_big(np.array([p * z, z, a * z, a / z]), p, ctx.policy)
        resids = np.concatenate([abs(th_pz + th_z / z) / (1 + abs(th_z)),
                                 abs(th_az - th_a_z) / (1 + abs(th_az))])
        return worst(resids.tolist())

    return Check("theta-identities", "theta-inversion",
                 "Theta_{a^2}(a^2 z) = -Theta_{a^2}(z)/z and Theta_{a^2}(a z) = Theta_{a^2}(a/z)",
                 {"points": 20, "seed": ctx.seed}, body, tol)


def _theta_product_N(ctx: SuiteContext, tol: float) -> Check:
    rng = ctx.rng(3)
    draws = {N: _safe_points(rng, 5, lead=[(0.4, 0.8)]) for N in (2, 3, 4)}

    def body():
        rows, zs, nomes = [], [], []  # per N, its first row: N rows of Theta_{a^{2N}}, one of Theta_{a^2}
        for N, (a, z) in draws.items():
            rows.append((N, len(zs)))
            zs += [a ** (2 * i) * z for i in range(N)] + [z]
            nomes += [a ** (2 * N)] * N + [a * a]
        nomes = np.array(nomes)
        th = theta_big(np.array(zs), nomes, ctx.policy)
        pp = pochhammer2(nomes, nomes, 0, ctx.policy)  # (p; p)_inf of every row's nome
        resids = []
        for N, i in rows:
            rhs = pp[i] ** N / pp[i + N] * th[i + N]
            resids += (abs(th[i:i + N].prod(axis=0) - rhs) / (1 + abs(rhs))).tolist()
        return worst(resids)

    return Check("theta-identities", "theta-product-N",
                 "prod_i Theta_{a^{2N}}(a^{2i} z) = ((a^{2N};a^{2N})^N/(a^2;a^2)) Theta_{a^2}(z)",
                 {"N": [2, 3, 4], "seed": ctx.seed}, body, tol)


def _tau_U_identities(ctx: SuiteContext, tol: float) -> Check:
    pr = ctx.params
    q, N = pr.q, pr.N
    re, im = _uniform(ctx.rng(4), 10, (0.7, 1.3), (-0.1, 0.1))
    z = re + 1j * im

    def body():
        t_qz, t_z, t_inv = tau_N(np.array([q**N * z, z, 1 / z]), pr, ctx.policy)
        u_z, u_inv, *u_qz = U(np.array([z, 1 / z] + [q**i * z for i in range(1, N + 1)]), pr, ctx.policy)
        resids = np.concatenate([abs(t_qz / t_z - 1), abs(t_z * t_inv - 1), abs(u_z - u_inv) / abs(u_z),
                                 abs(u_qz[-1] - u_z) / abs(u_z), abs(np.prod(u_qz, axis=0) - 1)])
        return worst(resids.tolist())

    return Check("theta-identities", "tau-U-identities",
                 "tau_N periodicity/inversion; U evenness, q^N-periodicity, prod_i U(q^i x) = 1",
                 {"N": pr.N, "q": pr.q, "seed": ctx.seed}, body, tol)


def _Y_two_forms(ctx: SuiteContext, tol: float) -> Check:
    pr, rng = ctx.params, ctx.rng(5)
    draws = [(m, n, _safe_points(rng, 4)) for m, n in [(1, 1), (2, -1), (-1, -1), (3, 2), (-2, 3)]]

    def body():
        surfaces = [resolve_surface(m, n, pr.q, 0.0, pr.N).params for m, n, _ in draws]
        ladders = [lad for (m, n, x), spr in zip(draws, surfaces) for lad in _forms_ladders(x, m, n, spr)]
        with np.errstate(all="ignore"):  # the six ladders of every surface by one U call: U needs q and N alone
            values = _ladders(ladders, surfaces[0], ctx.policy)
            forms = [_forms(*values[i:i + 6]) for i in range(0, len(values), 6)]
        return worst([r for f1, f2, diff in forms for r in (diff / (1 + abs(f2))).tolist()])

    return Check("theta-identities", "Y-two-forms",
                 "both ladder forms of Y_{m,n}(x) agree on the surface",
                 {"N": pr.N, "q": pr.q, "seed": ctx.seed}, body, tol)


def _Y_unitary_inversion(ctx: SuiteContext, tol: float) -> Check:
    pr = ctx.params
    x = _safe_points(ctx.rng(6), 10)

    def body():
        y, y_inv = Y_FF(np.array([x, 1 / x]), pr.with_c(0.25), ctx.policy)
        return worst(abs(y * y_inv - 1).tolist())

    return Check("theta-identities", "Y-unitary-inversion",
                 "Y_{2,-1}(x) Y_{2,-1}(1/x) = 1 (eight-theta closed form)",
                 {"N": pr.N, "q": pr.q, "c": 0.25}, body, tol)


@_suite
def suite_theta_identities(ctx: SuiteContext, checks: _Checks):
    tol = ctx.tol("theta-identities", 1e-10)
    for check in (_series_vs_product, _theta_inversion, _theta_product_N, _tau_U_identities,
                  _Y_two_forms, _Y_unitary_inversion):
        checks.add(check(ctx, tol))


def zn_symmetry_residual(mat: np.ndarray, N: int) -> float:
    """Largest forbidden entry relative to the largest entry: entry
    ((i,j),(k,l)) must vanish unless i + j = k + l mod N."""
    scale = np.abs(mat).max()
    charge = _charges(N, 2)
    largest = np.abs(mat[charge[:, None] != charge[None, :]]).max()
    return largest / scale if scale > 0 else 0.0


def crossing_unitarity_residual(A: LabeledTensor, B: LabeledTensor) -> float:
    """Relative distance between (A^{t2})^{-1} and (B^{-1})^{t2}, for A and B
    on the spaces (1, 2)."""
    lhs = A.partial_transpose(2).inv()
    rhs = B.inv().partial_transpose(2)
    return (lhs - rhs).norm() / lhs.norm()


def _swap_spaces(m: np.ndarray) -> np.ndarray:
    """m, an operator on the spaces (2, 1), as a matrix on (1, 2): its two
    indices swapped in rows and columns."""
    N = math.isqrt(len(m))
    return m.reshape(N, N, N, N).transpose(1, 0, 3, 2).reshape(m.shape)


def _inputs(fac: RMatrixFactory, **extra) -> dict:
    return {"N": fac.N, "q": fac.params.q, "p": fac.params.p, **extra}


def check_regularity(fac: RMatrixFactory, tolerance=1e-9) -> Check:
    """R(1) = P, the flip of the two spaces."""

    def body():
        R1 = fac.build([xi_of(1.0)], hat=False)[0]
        return np.linalg.norm(R1 - permutation_operator((1, 0), fac.N)) / np.linalg.norm(R1)

    return Check("rmatrix-properties", "regularity", "R(1) = P", _inputs(fac), body, tolerance)


def check_unitarity(z: complex, fac: RMatrixFactory, tolerance=1e-9) -> Check:
    """R_12(z) R_21(1/z) = 1, and Rhat_12(z) Rhat_21(1/z) = U(z)."""
    pair = [xi_of(z), xi_of(1 / z)]

    def body(R, u, Rhat):
        resids = []
        for (R12, R21), scal in ((R, 1.0), (Rhat, u[0])):
            RR21 = R12 @ _swap_spaces(R21)
            resids.append(np.linalg.norm(RR21 - scal * np.eye(len(RR21))) / np.linalg.norm(RR21))
        return worst(resids)

    return Check("rmatrix-properties", "unitarity", "R12(z) R21(1/z) = 1; Rhat pair gives U(z)",
                 _inputs(fac, z=z), body, tolerance,
                 [(fac.build, pair, False), (U, [z], fac.params, fac.policy), (fac.build, pair, True)])


def check_yang_baxter(z: complex, w: complex, fac: RMatrixFactory, tolerance=1e-9,
                      hat: bool = False) -> Check:
    """R12(z) R13(w) R23(w/z) = R23(w/z) R13(w) R12(z) on three spaces."""

    def body(mats):
        A12, A13, A23 = (LabeledTensor.from_matrix(mat, labels, fac.N)
                         for mat, labels in zip(mats, ((1, 2), (1, 3), (2, 3))))
        lhs = compose([A12, A13, A23], (1, 2, 3))
        rhs = compose([A23, A13, A12], (1, 2, 3))
        return (lhs - rhs).norm() / lhs.norm()

    return Check("rmatrix-properties", "yang-baxter" + ("-hat" if hat else ""),
                 "R12(z) R13(w) R23(w/z) = R23(w/z) R13(w) R12(z)",
                 _inputs(fac, z=z, w=w), body, tolerance,
                 [(fac.build, [xi_of(z), xi_of(w), xi_of(w / z)], hat)])


def check_crossing(z: complex, fac: RMatrixFactory, tolerance=1e-9) -> Check:
    """Crossing symmetry R12(z)^{t2} R21(1/(z q^N))^{t2} = 1 and the
    crossing-unitarity consequence (R^{t2})^{-1} = (R(q^N z)^{-1})^{t2},
    the latter verified for both R and Rhat."""
    qN = fac.params.q ** fac.N

    def body(mats, hats):
        R, R21, RN = (LabeledTensor.from_matrix(m, (1, 2), fac.N)
                      for m in (mats[0], _swap_spaces(mats[1]), mats[2]))
        Rt = R.partial_transpose(2)
        res1 = (Rt @ R21.partial_transpose(2)).norm(minus=1.0) / Rt.norm()
        hat, hat_N = (LabeledTensor.from_matrix(m, (1, 2), fac.N) for m in hats)
        return worst([res1, crossing_unitarity_residual(R, RN), crossing_unitarity_residual(hat, hat_N)])

    return Check("rmatrix-properties", "crossing",
                 "R^{t2}(z) R21^{t2}(1/(z q^N)) = 1 and (R^{t2})^{-1} = (R(q^N z)^{-1})^{t2}",
                 _inputs(fac, z=z), body, tolerance,
                 [(fac.build, [xi_of(z), xi_of(1 / (z * qN)), xi_of(qN * z)], False),
                  (fac.build, [xi_of(z), xi_of(qN * z)], True)])


def check_antisymmetry(z: complex, fac: RMatrixFactory, tolerance=1e-9) -> Check:
    """R(-z) = omega (g^{-1} (x) 1) R(z) (g (x) 1), with -z reached by the
    continuation xi -> xi + 1 (principal-branch evaluation of -z realizes
    the identity only up to an N-th root of unity)."""
    xi = xi_of(z)

    def body(mats):
        lhs, R = mats
        E, g = np.eye(fac.N), fac.zn.g
        rhs = fac.zn.omega * np.kron(np.linalg.inv(g), E) @ R @ np.kron(g, E)
        return np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)

    return Check("rmatrix-properties", "antisymmetry",
                 "R(-z) = omega (g^{-1} x 1) R(z) (g x 1)  [-z via xi+1]",
                 _inputs(fac, z=z), body, tolerance, [(fac.build, [xi + 1, xi], False)])


def check_quasi_periodicity_M(x: complex, a: int, fac: RMatrixFactory, tolerance=1e-9) -> Check:
    """Twist relation M_a Rhat(x) = F_a(x) Rhat(s^a x) M_a with M_a = GH^{-a}.

    The step x -> s x by the designated root value is taken on the theta
    lattice (xi -> xi + tau + 1); a = 1 is the quasi-periodicity property
    itself, a = 0 is trivial, other a iterate it.  The p* matrix with the
    s* ladder is the same check on the factory of EllipticParams(N, q, s*).
    """
    xi = xi_of(x)

    def body(mats, scal):
        R, Ra = mats
        E, Ma = np.eye(fac.N), fac.zn.M_power(a)
        lhs = np.kron(Ma, E) @ R
        rhs = scal[0] * Ra @ np.kron(Ma, E)
        return np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)

    return Check("rmatrix-properties", f"quasi-periodicity(a={a})",
                 "M_a Rhat(x) = F_a(x) Rhat(s^a x) M_a   [s-step on the theta lattice]",
                 _inputs(fac, x=x, a=a), body, tolerance,
                 [(fac.build, [xi, xi + a * fac.s_shift], True),
                  (F_a, [x], a, fac.params.s, fac.params, fac.policy)])


def check_kernel(fac: RMatrixFactory, tolerance=1e-8) -> Check:
    """dim ker Rhat(q) = N(N-1)/2 and the kernel projector is A_2."""

    def body():
        N = fac.N
        dim, proj = kernel_projector(fac)
        info = {"dim": dim, "expected_dim": N * (N - 1) // 2}
        if dim != info["expected_dim"]:
            return 1.0, info
        V = antisymmetrizer_basis(2, N)
        _guard(N**4, f"{N * N} x {N * N} operator")
        return np.linalg.norm(proj - V @ V.T), info

    return Check("rmatrix-properties", "kernel", "ker Rhat(q) = im A_2 (dimension N(N-1)/2)",
                 _inputs(fac), body, tolerance)


def _zn_sparsity(z: complex, fac: RMatrixFactory) -> Check:
    return Check("rmatrix-properties", "zn-sparsity",
                 "entry ((i,j),(k,l)) of R vanishes unless i+j = k+l mod N",
                 _inputs(fac, z=z), lambda mats: zn_symmetry_residual(mats[0], fac.N), 1e-12,
                 [(fac.build, [xi_of(z)], False)])


def _ybe_control(pairs, fac: RMatrixFactory) -> Check:
    """Test-power control: a deliberately broken Yang-Baxter triple.  The
    normalized Rhat is used because the unitary-gauge R varies too
    slowly with its argument for a 1% shift to register reliably;
    sensitivity still varies over the domain, so take the worst
    violation over several sampled pairs."""

    def body(*builds):
        ctrl = []
        for mats in builds:
            A12, A13, A23, B13 = (LabeledTensor.from_matrix(mat, labels, fac.N) for mat, labels in zip(
                mats, ((1, 2), (1, 3), (2, 3), (1, 3))))
            lhs = compose([A12, A13, A23], (1, 2, 3))
            rhs = compose([A23, B13, A12], (1, 2, 3))
            ctrl.append((lhs - rhs).norm() / rhs.norm())
        return worst(ctrl)

    return Check("rmatrix-properties", "control-perturbed-ybe",
                 "perturbing one argument by 1% must break Yang-Baxter (> 1e-3)", {"N": fac.N}, body,
                 wants=[(fac.build, [xi_of(z), xi_of(w * 1.01), xi_of(w / z), xi_of(w)], True)
                        for z, w in pairs], threshold=1e-3)


def _crossing_control(zs, fac: RMatrixFactory) -> Check:
    """Crossing-unitarity control: shift the q^N pairing by 1%."""
    qN = fac.params.q ** fac.N

    def body(*builds):
        return worst([crossing_unitarity_residual(*(LabeledTensor.from_matrix(m, (1, 2), fac.N) for m in pair))
                      for pair in builds])

    return Check("rmatrix-properties", "control-perturbed-crossing",
                 "perturbing the q^N pairing by 1% must break crossing-unitarity (> 1e-3)",
                 {"N": fac.N}, body, wants=[(fac.build, [xi_of(z), xi_of(qN * z * 1.01)], True) for z in zs],
                 threshold=1e-3)


@_suite
def suite_rmatrix_properties(ctx: SuiteContext, checks: _Checks):
    tol = ctx.tol("rmatrix-properties", 1e-9)
    fac = factory(ctx.params.require_elliptic(), ctx.policy)
    rng = ctx.rng(10)
    checks.add(check_regularity(fac, tol))
    for _ in range(5):
        checks.resampled(lambda z: check_unitarity(z, fac, tol), rng)
        checks.resampled(lambda z: check_yang_baxter(z, _safe_point(rng), fac, tol), rng)
        checks.resampled(lambda z: check_yang_baxter(z, _safe_point(rng), fac, tol, hat=True), rng)
        checks.resampled(lambda z: check_crossing(z, fac, tol), rng)
        checks.resampled(lambda z: check_antisymmetry(z, fac, tol), rng)
    for a in (-2, -1, 0, 1, 2):
        checks.resampled(lambda x, a=a: check_quasi_periodicity_M(x, a, fac, tol), rng)
    checks.add(check_kernel(fac, ctx.tol("rmatrix-properties", 1e-8)))
    checks.add(_zn_sparsity(_safe_point(rng), fac))
    checks.add(_ybe_control([(_safe_point(rng), _safe_point(rng)) for _ in range(5)], fac))
    checks.add(_crossing_control([_safe_point(rng) for _ in range(5)], fac))


def check_fusion_identities(k: int, fac, x: complex, kprime: int | None = None,
                            tolerance: float = 1e-8) -> list[Check]:
    """The one-sided projector identities X A = A X A, one check each, for
    the R-hat chain, its t0-transposed-inverse chain, its inverse chain, and
    the fused block product with the row and column antisymmetrizers.  Each
    X is a list of gates applied to im A only (see `_projector_residual`);
    the inverse fused block is the reversed list of inverse gates, checked
    while N^(k+k') <= 1536.  The checks share the one build of both chains
    and the fused gates, each made when a check first needs it, so an error
    in one residual fails that check alone."""
    if kprime is None:
        kprime = k
    N, params = fac.N, fac.params
    if not (2 <= k <= N):
        raise ValueError(f"need 2 <= k <= N, got k={k}")
    inputs = {"N": N, "k": k, "kprime": kprime, "x": x, "q": params.q, "p": params.p}
    aux = tuple(range(1, k + 1))

    @cache
    def chains():
        # chains on aux spaces 1..k against a common space 0: the descending
        # ladder x q^{1-i} and the ascending one x q^{i-1}, from one build
        steps = np.arange(k) * params.zeta
        mats = fac.build(np.concatenate((xi_of(x) - steps, xi_of(x) + steps)), hat=True)
        return [[LabeledTensor.from_matrix(m, (i, "0"), N) for i, m in zip(aux, ms)]
                for ms in (mats[:k], mats[k:])]

    gates = cache(lambda: fused_gates(x, k, kprime, fac))
    inv_gates = cache(lambda: [g.inv() for g in reversed(gates())])
    rows, cols = row_labels(k), col_labels(kprime)

    def check(name, identity, make_gates, a_labels, rest):
        return Check("fusion-identities", name, identity, inputs,
                     lambda: _projector_residual(make_gates(), a_labels, rest), tolerance)

    out = [
        check("chain", "Rhat_{1,0}(x)...Rhat_{k,0}(x q^{1-k}) A_k = A_k (...) A_k",
              lambda: chains()[0], aux, ("0",)),
        # (R1^-1)^t0 ... (Rk^-1)^t0 = (Rk^-1 ... R1^-1)^t0, and transposing
        # space 0 commutes with A_k (x) 1 and keeps the Frobenius norm, so
        # the reversed untransposed chain has the same residual
        check("chain_t0_inv", "(Rhat^{-1})^{t0} descending-argument chain, one-sided projector",
              lambda: [g.inv() for g in reversed(chains()[0])], aux, ("0",)),
        check("chain_inv", "Rhat^{-1}_{1,0}(x)...Rhat^{-1}_{k,0}(x q^{k-1}) A_k = A_k (...) A_k",
              lambda: [g.inv() for g in chains()[1]], aux, ("0",)),
        check("fused_rows", "fused R block with row antisymmetrizer", gates, rows, cols),
        check("fused_cols", "fused R block with column antisymmetrizer", gates, cols, rows),
    ]
    if N ** (k + kprime) <= 1536:  # the budget of the former dense inversion
        out += [check("fused_inv_rows", "inverse fused R block with row antisymmetrizer",
                      inv_gates, rows, cols),
                check("fused_inv_cols", "inverse fused R block with column antisymmetrizer",
                      inv_gates, cols, rows)]
    return out


def check_M_derivative(x: complex, k: int, kprime: int, fac, tolerance: float = 1e-5) -> Check:
    """Derivative of M(x) in the central charge at c = -N.

    The derivative is the Richardson extrapolation (4 D(step) - D(2 step)) / 3
    of two central differences D, as in `critical_poisson_check`: dM/dc = 0,
    so a plain central difference reads its O(step^2) error, which at
    complex q reaches the tolerance.  Both dM/dc = 0 and M|_{c=-N} = identity
    are asserted; the second enters the computed inputs so a wrong critical
    value cannot silently pass."""
    N, step = fac.N, 1e-4

    def body():
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
        return worst((deriv, ident_res)), {"identity_residual": ident_res}

    return Check("fusion-identities", f"M_derivative(k={k},k'={kprime})",
                 "d/dc M(x) = 0 and M(x) = 1 at the critical level c = -N",
                 {"N": N, "k": k, "kprime": kprime, "x": x, "q": fac.params.q,
                  "p": fac.params.p, "step": step}, body, tolerance)


def _antisymmetrizer_projectors(N: int) -> Check:
    """The basis V of im A_k, scattered from the table of `antisymmetrizer`:
    V^T V = 1, (i i+1) V = -V for every adjacent swap, and C(N,k) columns,
    the dimension of the antisymmetric subspace; together they give
    V V^T = A_k."""

    def body():
        resids = []
        for k in range(1, N + 1):
            V = antisymmetrizer_basis(k, N)
            resids.append(np.abs(V.T @ V - np.eye(V.shape[1])).max())
            block = V.reshape((N,) * k + (-1,))
            resids.extend(np.abs(np.swapaxes(block, i, i + 1) + block).max() for i in range(k - 1))
            resids.append(0.0 if V.shape[1] == math.comb(N, k) else 1.0)
        return worst(resids)

    return Check("fusion-identities", "antisymmetrizer-projectors",
                 "V^T V = 1, (i i+1) V = -V and C(N,k) columns, so V V^T = A_k",
                 {"N": N}, body, 1e-12)


def _fused_crossing_unitarity(k: int, kprime: int, x: complex, fac, tolerance: float) -> Check:
    """(fused R^T)^{-1} = (fused R(q^N x)^{-1})^T for the (k, k') block at x."""
    pr = fac.params

    def body():
        RR = fused_R(x, k, kprime, fac)
        RRN = fused_R(pr.q**pr.N * x, k, kprime, fac)
        rows = RR.labels[:k]
        lhs = RR.partial_transpose(rows).inv()
        rhs = RRN.inv().partial_transpose(rows)
        return (lhs - rhs).norm() / lhs.norm()

    return Check("fusion-identities", f"fused-crossing-unitarity(k={k},k'={kprime})",
                 "(fused R^T)^{-1} = (fused R(q^N x)^{-1})^T, T on the k row spaces",
                 {"N": pr.N, "k": k, "kprime": kprime, "x": x, "q": pr.q, "p": pr.p}, body, tolerance)


@_suite
def suite_fusion_identities(ctx: SuiteContext, checks: _Checks):
    tol = ctx.tol("fusion-identities", 1e-8)
    pr = ctx.params.require_elliptic()
    fac = factory(pr, ctx.policy)
    rng = ctx.rng(20)
    checks.add(_antisymmetrizer_projectors(pr.N))
    for k in range(2, pr.N + 1):
        # k' capped so that N^(k+k') <= 4096, a cap left from the dense fused
        # product: none is formed now, so it only bounds the projector residuals
        kp = k
        while kp > 1 and pr.N ** (k + kp) > 4096:
            kp -= 1
        checks.resampled(lambda x, k=k, kp=kp: check_fusion_identities(k, fac, x, kprime=kp, tolerance=tol), rng)
    ks = range(1, min(pr.N, 2) + 1)
    for k, kp, x in [(k, kp, _safe_point(rng)) for k in ks for kp in ks]:
        checks.add(_fused_crossing_unitarity(k, kp, x, fac, tol))
    for k in ks:
        for kp in ks:
            checks.resampled(lambda x, k=k, kp=kp: check_M_derivative(
                x, k, kp, fac, tolerance=ctx.tol("fusion-identities", 1e-5)), rng)


def _lax_want(rep: EvalRep, xis) -> tuple:
    """The want of rep's Lax factors L = Rhat(xi - xi_a) at the additive
    points xis, as a build of rep's factory: so every rep of one factory
    shares one build."""
    return rep.factory.build, np.asarray(xis, dtype=complex) - rep.xi_a, True


def exchange_residual_tL(k: int, z: complex, w: complex, surface: SurfaceSpec,
                         rep: EvalRep, tolerance: float = 1e-8) -> Check:
    """Residual of t^{(k)}(z) L(w) = [prod_i F_{-m}/F*_n](z_i/w) L(w) t^{(k)}(z),
    as matrices on (one fresh auxiliary space) x (quantum space).  Its wants
    are the factors of t^{(k)}(z) and L(w), and the ladders F_{-m} and F*_n
    at the points z_i/w, z_i = q^{e_i} z, of the prefactor.

    When the selection rule says t^{(k)} vanishes identically, the verified
    statement is the vanishing itself (residual = |t|); the exchange then
    holds trivially on both sides.
    """
    N, p = rep.N, surface.params
    x = np.array([p.q ** e * z / w for e in centred_ladder(k)])
    vanishing = not survives_selection_rule(k, surface.m, surface.n, N)

    def body(lax, f_m, f_n):
        t_gen = build_t(k, z, surface, rep, lax[:-1])
        t_norm = float(np.linalg.norm(t_gen))
        pref = complex(np.prod(f_m / f_n))
        if vanishing:
            res = t_norm
        else:
            # t^(k) need not conserve the charge, so 1 (x) t is a dense N^2 x N^2 matrix
            Lw, t = lax[-1], np.kron(np.eye(N), t_gen)
            res = np.linalg.norm(t @ Lw - pref * Lw @ t) / max(np.linalg.norm(Lw) * t_norm, 1e-300)
        return res, {"prefactor": pref, "t_norm": t_norm, "t_scalar_residual": _scalar_residual(t_gen),
                     "structurally_vanishing": vanishing}

    return Check(
        "theorem1-exchange", f"tL(k={k},m={surface.m},n={surface.n})",
        ("t^{(k)} = 0 (twist charge (m+n)k != 0 mod N), exchange trivial" if vanishing else
         "t(z) L(w) = prod_i [F_{-m}/F*_n](z_i/w) L(w) t(z) on the surface"),
        {"N": N, "q": rep.params.q, "k": k, "m": surface.m, "n": surface.n, "z": z, "w": w, "s": p.s},
        body, tolerance,
        [_lax_want(rep, np.append(lax_points(k, z, surface, rep), xi_of(w))),
         (F_a, x, -surface.m, p.s, p, rep.policy), (F_a, x, surface.n, p.s_star, p, rep.policy)])


def exchange_residual_tt(k: int, kprime: int, z: complex, w: complex,
                         surface: SurfaceSpec, rep: EvalRep, tolerance: float = 1e-8) -> Check:
    """Residual of the quadratic exchange
    t^{(k)}(z) t^{(k')}(w) = prod_{i,j} Y_{m,n}(q^{i-j} z/w) t^{(k')}(w) t^{(k)}(z).

    Vanishing factors (selection rule) make the relation trivial; the
    reported residual is then the norm of the factor that must vanish."""
    p = surface.params
    x = np.array([p.q ** (ei - ej) * z / w for ei in centred_ladder(k) for ej in centred_ladder(kprime)])
    van_k = not survives_selection_rule(k, surface.m, surface.n, rep.N)
    van_kp = not survives_selection_rule(kprime, surface.m, surface.n, rep.N)

    def body(lax, ys):
        tk = build_t(k, z, surface, rep, lax[:2 * k])
        tkp = build_t(kprime, w, surface, rep, lax[2 * k:])
        pref = complex(np.prod(ys))
        if van_k or van_kp:
            res = worst((np.linalg.norm(tk) if van_k else 0.0,
                         np.linalg.norm(tkp) if van_kp else 0.0))
        else:
            lhs = tk @ tkp
            rhs = pref * (tkp @ tk)
            res = np.linalg.norm(lhs - rhs) / max(
                np.linalg.norm(tk) * np.linalg.norm(tkp), 1e-300)
        return res, {"prefactor": pref,
                     "t_scalar_residual": max(_scalar_residual(tk), _scalar_residual(tkp)),
                     "structurally_vanishing": bool(van_k or van_kp)}

    return Check(
        "corollary2-exchange", f"tt(k={k},k'={kprime},m={surface.m},n={surface.n})",
        ("a factor of the quadratic exchange vanishes by the twist "
         "charge rule" if (van_k or van_kp) else
         "t_k(z) t_k'(w) = prod Y_{m,n}(q^{i-j} z/w) t_k'(w) t_k(z)"),
        {"N": rep.N, "q": p.q, "k": k, "kprime": kprime, "m": surface.m,
         "n": surface.n, "z": z, "w": w}, body, tolerance,
        [_lax_want(rep, np.concatenate((lax_points(k, z, surface, rep), lax_points(kprime, w, surface, rep)))),
         (Y_mn, x, surface.m, surface.n, p, rep.policy)])


_THEOREM1_SURFACES = [(-1, -1), (-2, 1)]


def _offsurface(surf: SurfaceSpec, ctx: SuiteContext):
    """`surf` with s moved 2% off the surface, and the evaluation
    representation at a = 1 there."""
    p = surf.params
    pert = SurfaceSpec(m=surf.m, n=surf.n, params=EllipticParams(p.N, p.q, p.s * 1.02, 0.0))
    return pert, EvalRep(factory(pert.params, ctx.policy), 1.0)


def _tL_offsurface(z: complex, w: complex, pert: SurfaceSpec, rep: EvalRep, tolerance: float) -> Check:
    """`exchange_residual_tL` at k = N, 2% off the surface: t^{(N)} commutes
    without any surface condition."""
    check = exchange_residual_tL(rep.N, z, w, pert, rep, tolerance)
    check.name = f"tL-offsurface(k={rep.N},m={pert.m},n={pert.n})"
    return check


def _tL_control(k: int, pairs, pert: SurfaceSpec, rep: EvalRep, tolerance: float) -> Check:
    """Control: a surviving non-central generator off the surface must
    violate the exchange; sensitivity varies over the domain, so take the
    worst of the pairs."""
    parts = [exchange_residual_tL(k, z, w, pert, rep, tolerance) for z, w in pairs]

    def body(*values):  # three wants a pair
        return worst(float(part.body(*values[3 * i:3 * i + 3])[0]) for i, part in enumerate(parts))

    return Check("theorem1-exchange", "control-offsurface",
                 "2% off-surface perturbation must break the exchange (> 1e-3)",
                 {"N": rep.N, "m": pert.m, "n": pert.n, "k": k}, body,
                 wants=[want for part in parts for want in part.wants], threshold=1e-3)


@_suite
def suite_theorem1_exchange(ctx: SuiteContext, checks: _Checks):
    tol = ctx.tol("theorem1-exchange", 1e-8)
    pr = ctx.params
    rng = ctx.rng(30)
    for (m, n) in _THEOREM1_SURFACES:
        surf = resolve_surface(m, n, pr.q, 0.0, pr.N)
        if not surf.params.is_elliptic:
            continue
        rep = EvalRep(factory(surf.params, ctx.policy), _unit_point(rng))
        for k in range(1, pr.N + 1):
            for _ in range(3):
                checks.add(exchange_residual_tL(k, _safe_point(rng), _safe_point(rng), surf, rep, tol))
        pert, rep_p = _offsurface(surf, ctx)
        checks.add(_tL_offsurface(_safe_point(rng), _safe_point(rng), pert, rep_p, tol))

    ctrl_m, ctrl_n, ctrl_k = ((-1, -1, 1) if pr.N == 2 else (-pr.N + 1, -1, 1))
    pert, rep_p = _offsurface(resolve_surface(ctrl_m, ctrl_n, pr.q, 0.0, pr.N), ctx)
    pairs = [(_safe_point(rng), _safe_point(rng)) for _ in range(5)]
    checks.add(_tL_control(ctrl_k, pairs, pert, rep_p, tol))


def _prefactor_consistency(z: complex, w: complex, surf: SurfaceSpec, rep: EvalRep,
                           tol_tt: float, tolerance: float) -> Check:
    """At k = k' = 1 the exchange prefactor must be the single Y_{m,n}(z/w)."""
    tt = exchange_residual_tt(1, 1, z, w, surf, rep, tol_tt)

    def body(*values):
        *tt_values, (y_direct,) = values
        pref = tt.body(*tt_values)[1]["prefactor"]
        return abs(pref - y_direct) / (1 + abs(y_direct))

    return Check("corollary2-exchange", "prefactor-consistency",
                 "(k,k') = (1,1) exchange prefactor equals Y_{m,n}(z/w)",
                 {"N": rep.N, "m": surf.m, "n": surf.n, "z": z, "w": w}, body, tolerance,
                 tt.wants + [(Y_mn, [z / w], surf.m, surf.n, surf.params, rep.policy)])


@_suite
def suite_corollary2_exchange(ctx: SuiteContext, checks: _Checks):
    tol = ctx.tol("corollary2-exchange", 1e-8)
    pr = ctx.params
    rng = ctx.rng(40)
    for (m, n) in _THEOREM1_SURFACES:
        surf = resolve_surface(m, n, pr.q, 0.0, pr.N)
        if not surf.params.is_elliptic:
            continue
        rep = EvalRep(factory(surf.params, ctx.policy), _unit_point(rng))
        for k in range(1, pr.N + 1):
            for kp in range(k, pr.N + 1):
                checks.add(exchange_residual_tt(k, kp, _safe_point(rng), _safe_point(rng), surf, rep, tol))

    surf = resolve_surface(*_THEOREM1_SURFACES[0], pr.q, 0.0, pr.N)
    rep = EvalRep(factory(surf.params, ctx.policy), 1.0)
    _, w = _safe_point(rng), _safe_point(rng)  # the check draws its own z
    checks.resampled(lambda z: _prefactor_consistency(
        z, w, surf, rep, tol, ctx.tol("corollary2-exchange", 1e-10)), rng)


def qdet_extract(z: complex, rep: EvalRep, tolerance: float = 1e-8) -> Check:
    """Extract qdet(z), the report's computed `qdet`, and report how close
    it is to a scalar on the quantum space (centrality in the evaluation
    representation)."""

    def body(lax):
        qd, = _qdet_matrices([xi_of(z)], rep, lax)
        return _scalar_residual(qd), {"qdet": complex(np.trace(qd) / rep.N)}

    return Check("qdet", "qdet-centrality",
                 "L_1(z)...L_N(z q^{1-N}) A_N = A_N qdet(z) with qdet scalar",
                 {"N": rep.N, "q": rep.params.q, "p": rep.params.p, "z": z}, body, tolerance,
                 [_lax_want(rep, _qdet_points([xi_of(z)], rep))])


def _sigma_tops(z: complex, surface: SurfaceSpec, rep: EvalRep):
    """The two candidate shifts sigma of `qdet_tqdet_check`, by name and
    exponent, and the points sigma z, s*^n sigma z of each, in turn."""
    N = rep.N
    sigmas = (("q^{(N-1)/2}", (N - 1) / 2.0), ("q^{N-1}", float(N - 1)))
    star_step = surface.n * rep.factory.s_star_shift
    tops = [xi_of(z) + sig_exp * rep.params.zeta for _, sig_exp in sigmas]
    return sigmas, [v for top in tops for v in (top, top + star_step)]


def qdet_tqdet_check(z: complex, surface: SurfaceSpec, rep: EvalRep,
                     tolerance: float = 1e-8) -> Check:
    """t^{(N)}(z) = det(M) det(Mt) qdet(s*^n sigma z) / qdet(sigma z).

    The grid of t^{(N)} determines sigma only up to the quasi-periodicity
    of qdet, so both candidate shifts sigma = q^{(N-1)/2} and q^{N-1} are
    tried; the report carries each residual and asserts the better one.
    """
    N = rep.N
    sigmas, tops = _sigma_tops(z, surface, rep)

    def body(lax_t, lax_q):
        zn = rep.factory.zn
        t_val = complex(np.trace(build_t(N, z, surface, rep, lax_t)) / N)
        detM = complex(np.linalg.det(zn.M_power(surface.m)))
        detMt = complex(np.linalg.det(zn.M_power(surface.n)))
        qdets = [complex(np.trace(qd) / N) for qd in  # qdet(sigma z), qdet(s*^n sigma z) per sigma
                 _qdet_matrices(tops, rep, lax_q)]
        results = {name: abs(t_val - detM * detMt * num / den) / max(abs(t_val), 1e-300)
                   for (name, _), den, num in zip(sigmas, qdets[::2], qdets[1::2])}
        best = min(results, key=results.get)
        return results[best], {"selected_sigma": best,
                               "residuals": {k: float(v) for k, v in results.items()}}

    return Check("qdet", "t-qdet",
                 "t^{(N)}(z) = det(M) det(Mt) qdet(s*^n sigma z)/qdet(sigma z)",
                 {"N": N, "q": rep.params.q, "m": surface.m, "n": surface.n, "z": z}, body, tolerance,
                 [_lax_want(rep, lax_points(N, z, surface, rep)), _lax_want(rep, _qdet_points(tops, rep))])


def check_trace_MA(N: int, m: int, tolerance: float = 1e-10) -> Check:
    """tr_{1..N}( MM A_N ) = det(M)."""

    def body():
        M = ZnMatrices(N).M_power(m)
        lhs = complex(antisym_trace(N, lefts=[M] * N)[0, 0])
        det = complex(np.linalg.det(M))
        return abs(lhs - det) / max(abs(det), 1e-300), {"det": det}

    return Check("qdet", f"trace-MA(m={m})", "tr(M^{xN} A_N) = det(M)", {"N": N, "m": m},
                 body, tolerance)


@_suite
def suite_qdet(ctx: SuiteContext, checks: _Checks):
    tol = ctx.tol("qdet", 1e-8)
    pr = ctx.params
    rng = ctx.rng(50)
    surf = resolve_surface(-1, -1, pr.q, 0.0, pr.N)
    rep = EvalRep(factory(surf.params, ctx.policy), _unit_point(rng))
    z = _safe_point(rng)
    checks.add(qdet_extract(z, rep, tol))
    checks.add(qdet_tqdet_check(z, surf, rep, tol))
    for m in range(1, pr.N + 1):
        checks.add(check_trace_MA(pr.N, m, ctx.tol("qdet", 1e-10)))


def n0_check(k: int, m: int, N: int, tolerance: float = 1e-10) -> Check:
    """t_{m,0}^{(k)} = tr(MM A_k) equals the k-th elementary symmetric
    polynomial of the eigenvalues of M = GH^{-m}; it vanishes unless
    m k = 0 mod N."""

    def body():
        M = ZnMatrices(N).M_power(m)
        val = complex(antisym_trace(N, lefts=[M] * k)[0, 0])
        coeffs = np.poly(np.linalg.eigvals(M))  # monic char poly: e_k = (-1)^k coeffs[k]
        ek = complex((-1) ** k * coeffs[k])
        res = abs(val - ek)
        vanishes = not survives_selection_rule(k, m, 0, N)
        if vanishes:
            res = worst((res, abs(val)))  # must also be zero outright
        return res, {"value": val, "e_k": ek, "must_vanish": vanishes}

    return Check("n0", f"n0(N={N},k={k},m={m})",
                 "tr(M^{xk} A_k) = e_k(eig M); zero unless m k = 0 mod N",
                 {"N": N, "k": k, "m": m}, body, tolerance)


@_suite
def suite_n0(ctx: SuiteContext, checks: _Checks):
    tol = ctx.tol("n0", 1e-10)
    N = ctx.params.N
    for m in range(1, N + 1):
        for k in range(1, N + 1):
            checks.add(n0_check(k, m, N, tol))
    checks.add(n0_check(2, 2, 4, tol))
    checks.add(n0_check(2, 1, 3, tol))


def abelianity_check(branch: str, N: int, q: complex, m: int, n: int,
                     x_grid, lam=None, tolerance: float = 1e-9,
                     policy: TruncationPolicy = DEFAULT_POLICY) -> Check:
    """Resolve the branch and measure max |Y_{m,n}(x) - 1| over the grid.
    A grid point on a pole fails this branch alone, as any check's error."""
    x_grid = list(x_grid)
    params = resolve_abelian_branch(branch, N, q, m, n, lam)
    surf = abs(params.s**m * params.s_star**n - q ** (-N))
    return Check("abelianity", f"{branch}(m={m},n={n})", "Y_{m,n}(x) = 1 on the abelianity surface",
                 {"N": N, "q": q, "m": m, "n": n, "lam": None if lam is None else str(lam),
                  "c": params.c, "surface_residual": surf, "grid_points": len(x_grid)},
                 lambda: worst(abs(y - 1) for y in Y_mn_grid(x_grid, m, n, params, policy).tolist()),
                 tolerance)


def _abelianity_control(N: int, q: complex, grid, policy: TruncationPolicy) -> Check:
    """Control: a 1% perturbation of s must leave the abelian locus."""

    def body():
        params = resolve_abelian_branch("abel4", N, q, -3, 3)
        pert = EllipticParams(N, q, params.s * 1.01, params.c)
        return worst(abs(y - 1) for y in Y_mn_grid(grid[:50], -3, 3, pert, policy).tolist())

    return Check("abelianity", "control-perturbed", "1% s-perturbation must give max |Y - 1| > 1e-3",
                 {"N": N, "q": q}, body, threshold=1e-3)


@_suite
def suite_abelianity(ctx: SuiteContext, checks: _Checks):
    tol = ctx.tol("abelianity", 1e-9)
    q, N, pol, grid = ctx.params.q, ctx.params.N, ctx.policy, ctx.grid
    checks.add(abelianity_check("abel1", N, q, 2, -3, grid, lam=-1, tolerance=tol, policy=pol))
    checks.add(abelianity_check("abel2", N, q, 3, 1, grid, lam=2, tolerance=tol, policy=pol))
    checks.add(abelianity_check("abel3", N, q, 1, 3, grid, lam=2, tolerance=tol, policy=pol))
    checks.add(abelianity_check("abel4", N, q, -3, 3, grid, tolerance=tol, policy=pol))
    checks.add(_abelianity_control(N, q, grid, pol))


def critical_poisson_check(k: int, kprime: int, x: complex, params: EllipticParams,
                           tolerance: float = 1e-6,
                           policy: TruncationPolicy = DEFAULT_POLICY) -> Check:
    """Three-way comparison at the critical level c = -N: the central
    difference of the fused exchange ratio in c, the I-kernel series, and
    the mode expansion must agree pairwise; all three are computed inputs.

    The derivative uses Richardson extrapolation of two central
    differences (O(step^4)); plain central differences lose too much
    accuracy when x sits near a pole ring of the structure function."""
    N, step = params.N, 2e-5
    # the ratio at c = -N +- step/2 and -N +- step, its U values a want each
    points = [_fused_points(x, k, kprime, params.with_c(-N + e)) for e in (step / 2, -step / 2, step, -step)]

    def body(*us):
        y = [_fused_ratio(p, u) for p, u in zip(points, us)]
        half, full = ((y[i] - y[i + 1]) / (2 * e) for i, e in ((0, step / 2), (2, step)))
        d = (4 * half - full) / 3
        fs = f_cr_series(x, k, kprime, params, policy)
        fm = f_cr_modes(x, k, kprime, params, policy)
        return worst((abs(d - fs), abs(d - fm), abs(fs - fm))), {"derivative": d, "series": fs, "modes": fm}

    return Check("critical-poisson", f"f_cr(k={k},k'={kprime})",
                 "d/dc fused ratio at c=-N equals both closed forms of f_cr",
                 {"N": N, "q": params.q, "k": k, "kprime": kprime, "x": x, "step": step}, body, tolerance,
                 [(U, p.ravel(), params, policy) for p in points])


def _fusion_ratio_critical(pr: EllipticParams, xs, policy: TruncationPolicy, tolerance: float) -> Check:
    """The fused exchange ratio at c = -N, one x of xs per (k, k')."""
    kks = [(k, kp) for k in range(1, pr.N + 1) for kp in range(1, pr.N + 1)]
    points = [_fused_points(x, k, kp, pr.with_c(-pr.N)) for (k, kp), x in zip(kks, xs)]
    return Check("critical-poisson", "fusion-ratio-critical", "fused exchange ratio equals 1 at c = -N",
                 {"N": pr.N, "q": pr.q}, lambda *us: worst([abs(_fused_ratio(p, u) - 1) for p, u in zip(points, us)]),
                 tolerance, [(U, p.ravel(), pr, policy) for p in points])


def _I_antisymmetry(pr: EllipticParams, xs, policy: TruncationPolicy, tolerance: float) -> Check:
    """I(x) + I(1/x) at each x of xs, and I(1), from one I_series call over
    x_0, 1/x_0, x_1, 1/x_1, ..., 1."""

    def body():
        x = np.array(xs)
        vals = I_series(np.append(np.stack([x, 1 / x], axis=1), 1.0), pr, policy)
        return worst(abs(vals[:-1:2] + vals[1::2]).tolist() + [abs(vals[-1])])

    return Check("critical-poisson", "I-antisymmetry", "I(x) + I(1/x) = 0 and I(1) = 0",
                 {"N": pr.N, "q": pr.q}, body, tolerance)


@_suite
def suite_critical_poisson(ctx: SuiteContext, checks: _Checks):
    tol = ctx.tol("critical-poisson", 1e-6)
    pr, pol = ctx.params, ctx.policy
    rng = ctx.rng(60)
    xs = [_safe_point(rng) for _ in range(pr.N * pr.N)]
    checks.add(_fusion_ratio_critical(pr, xs, pol, ctx.tol("critical-poisson", 1e-10)))

    pairs = [(k, kp) for k in range(1, pr.N + 1) for kp in range(k, pr.N + 1)]
    pts_per_pair = max(1, 12 // len(pairs))
    # f_cr_modes converges on |q| < |x| < 1/|q| only
    radii = (max(0.7, abs(pr.q)), min(1.4, 1 / abs(pr.q)))
    for (k, kp) in pairs:
        for _ in range(pts_per_pair):
            checks.resampled(lambda x, k=k, kp=kp: critical_poisson_check(
                k, kp, x, pr, tolerance=tol, policy=pol), rng, radii)

    xs = [_safe_point(rng) for _ in range(10)]
    checks.add(_I_antisymmetry(pr, xs, pol, ctx.tol("critical-poisson", 1e-10)))


def alpha_identity_check() -> Check:
    """Exhaustive exact-rational sweep of the reordering identity

        sum_{a<b} alpha_{j_sig(a) j_sig(b)} + sum_a (2a/N)(j_sig(a) - j_a)
            = -inv(sigma) + sum_{a<b} alpha_{j_a j_b}

    over all permutations sigma in S_k, k <= 4, and ascending tuples of
    distinct indices j_1 < ... < j_k from {1..N}, N <= 4 (the identity
    is about reordering a set of k distinct indices)."""
    k_max = N_max = 4

    def body():
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
                        rhs = base - sum(sigma[a] > sigma[b] for a in range(k) for b in range(a + 1, k))
                        cases += 1
                        if lhs != rhs:
                            violations += 1
        return float(violations), {"cases": cases}

    return Check("alpha-identity", f"alpha-identity(k<={k_max},N<={N_max})",
                 "reordering identity for the gradation-twist exponents (exact rational)",
                 {"k_max": k_max, "N_max": N_max}, body, 0.0)


@_suite
def suite_alpha_identity(ctx: SuiteContext, checks: _Checks):
    checks.add(alpha_identity_check())


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
