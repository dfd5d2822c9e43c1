"""Acceptance gate: one test per criterion, at the stated tolerances.

Every test prints a single summary line (visible with `pytest -s`), checks
each numeric criterion at its tolerance, and enforces the runtime budget.
Run the module with

    pytest tests/test_acceptance.py -v -s
"""

import cmath
import json
import math
import subprocess
import sys
import time

import numpy as np

from wkit import (
    EllipticParams,
    EvalRep,
    TruncationPolicy,
    Y_mn,
    pochhammer,
    resolve_abelian_branch,
    resolve_surface,
    theta_big,
    theta_char_product,
    theta_char_sums,
)
from wkit.qseries import Y_kkprime_cr
from wkit.rmatrix import RMatrixFactory
from wkit.suites import (
    SuiteContext,
    _safe_point,
    abelianity_check,
    alpha_identity_check,
    check_antisymmetry,
    check_crossing,
    check_fusion_identities,
    check_kernel,
    check_M_derivative,
    check_quasi_periodicity_M,
    check_regularity,
    check_trace_MA,
    check_unitarity,
    check_yang_baxter,
    critical_poisson_check,
    exchange_residual_tL,
    exchange_residual_tt,
    qdet_extract,
    qdet_tqdet_check,
    run_check,
    suite_rmatrix_properties,
)
from wkit.tensor import antisymmetrizer_basis, fused_R, row_labels
from wkit.wgen import SurfaceSpec

POL = TruncationPolicy()


def report(num, name, worst, tol, t0, extra=""):
    dt = time.perf_counter() - t0
    status = "PASS" if worst <= tol else "FAIL"
    print(f"[criterion {num:>2}] {name}: {status} "
          f"(worst {worst:.3e} vs {tol:.0e}, {dt:.1f} s{', ' + extra if extra else ''})")
    return dt


def params_for(N, q=0.5, p=0.3):
    return EllipticParams(N=N, q=q, s=cmath.sqrt(p))


def residual(check):
    """The residual of one check run on its own, which must not fail by an
    error (max() would drop the NaN of its failing report)."""
    r = run_check(check)
    assert "error" not in r.inputs, (r.check, r.inputs)
    return r.residual


def test_criterion_1_theta_layer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    chars = [0.0, 0.5, -0.5, 1 / 2, 1 / 3, -1 / 3, 1 / 4]
    for _ in range(100):
        g1, g2 = rng.choice(chars), rng.choice(chars)
        xi = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 3))
        a = complex(theta_char_sums(g1, g2, xi, tau, POL)[0])
        b = theta_char_product(g1, g2, xi, tau, POL)
        worst = max(worst, abs(a - b) / (1 + abs(a)))
    for _ in range(30):  # quasi-periodicity / inversion identities
        aa = rng.uniform(0.3, 0.8)
        z = complex(rng.uniform(0.7, 1.3), rng.uniform(-0.3, 0.3))
        p = aa * aa
        th = lambda v: theta_big(v, p, POL)
        worst = max(worst, abs(th(p * z) + th(z) / z) / (1 + abs(th(z))))
        worst = max(worst, abs(th(aa * z) - th(aa / z)) / (1 + abs(th(aa * z))))
    for N in (2, 3, 4):
        for _ in range(8):
            aa = rng.uniform(0.4, 0.75)
            z = complex(rng.uniform(0.7, 1.3), rng.uniform(-0.3, 0.3))
            lhs = np.prod([theta_big(aa ** (2 * i) * z, aa ** (2 * N), POL)
                           for i in range(N)])
            rhs = (pochhammer(aa ** (2 * N), [aa ** (2 * N)], POL) ** N
                   / pochhammer(aa * aa, [aa * aa], POL)
                   * theta_big(z, aa * aa, POL))
            worst = max(worst, abs(lhs - rhs) / (1 + abs(rhs)))
    dt = report(1, "theta layer", worst, 1e-10, t0)
    assert worst <= 1e-10
    assert dt < 10


def test_criterion_2_rmatrix_layer():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(202)
    for N in (2, 3, 4):
        fac = RMatrixFactory(params_for(N), POL)
        worst = max(worst, residual(check_regularity(fac)))
        worst = max(worst, residual(check_kernel(fac, tolerance=1e-8)))
        for _ in range(20):
            z, w = _safe_point(rng), _safe_point(rng)
            worst = max(worst, residual(check_unitarity(z, fac)))
            worst = max(worst, residual(check_yang_baxter(z, w, fac)))
            worst = max(worst, residual(check_yang_baxter(z, w, fac, hat=True)))
            worst = max(worst, residual(check_crossing(z, fac)))
            worst = max(worst, residual(check_antisymmetry(z, fac)))
        for a in (-2, 1, 2):
            worst = max(worst, residual(check_quasi_periodicity_M(
                1.1 + 0.1j, a, fac)))
    # test-power control through the suite (max violation over pairs)
    ctx = SuiteContext(params=params_for(2), seed=202)
    ctrl = [r for r in suite_rmatrix_properties(ctx) if r.check == "control-perturbed-ybe"]
    control_ok = ctrl and ctrl[0].passed
    dt = report(2, "R-matrix layer", worst, 1e-9, t0,
                extra=f"control fired: {control_ok}")
    assert worst <= 1e-9
    assert control_ok
    assert dt < 60


def test_criterion_3_fusion_layer():
    t0 = time.perf_counter()
    worst = 0.0
    rank_exact = True
    for N in (2, 3):
        pr = params_for(N)
        fac = RMatrixFactory(pr, POL)
        for k in range(1, N + 1):
            V = antisymmetrizer_basis(k, N)
            evals = np.linalg.eigvalsh(V @ V.T)
            rank_exact &= int(np.sum(evals > 0.5)) == math.comb(N, k)
        for k in range(2, N + 1):
            for check in check_fusion_identities(k, fac, 1.2 + 0.1j):
                worst = max(worst, residual(check))
        for k in range(1, min(N, 2) + 1):
            for kp in range(1, min(N, 2) + 1):
                x = 1.25 + 0.15j
                RR = fused_R(x, k, kp, fac)
                RRN = fused_R(pr.q**N * x, k, kp, fac)
                rows = row_labels(k)
                lhs = RR.partial_transpose(rows).inv()
                rhs = RRN.inv().partial_transpose(rows)
                worst = max(worst, (lhs - rhs).norm() / lhs.norm())
    dt = report(3, "fusion layer", worst, 1e-8, t0,
                extra=f"ranks exact: {rank_exact}")
    assert rank_exact
    assert worst <= 1e-8
    assert dt < 120


_SURFACES = [(-1, -1), (-2, 1)]


def test_criterion_4_theorem1():
    t0 = time.perf_counter()
    q = 0.6
    worst = 0.0
    rng = np.random.default_rng(404)
    for N in (2, 3):
        for (m, n) in _SURFACES:
            surf = resolve_surface(m, n, q, 0.0, N)
            rep = EvalRep(RMatrixFactory(surf.params, POL), 1.0)
            for k in range(1, N + 1):
                z, w = _safe_point(rng), _safe_point(rng)
                worst = max(worst, residual(exchange_residual_tL(k, z, w, surf, rep)))
            # k = N commutes even off the surface
            pert = SurfaceSpec(m, n, EllipticParams(N, q, surf.params.s * 1.02, 0.0))
            rep_p = EvalRep(RMatrixFactory(pert.params, POL), 1.0)
            worst = max(worst, residual(exchange_residual_tL(
                N, _safe_point(rng), _safe_point(rng), pert, rep_p)))
    # off-surface control on a surviving non-central generator
    surf = resolve_surface(-1, -1, q, 0.0, 2)
    pert = SurfaceSpec(-1, -1, EllipticParams(2, q, surf.params.s * 1.02, 0.0))
    ctrl = residual(exchange_residual_tL(1, 1.2 + 0.1j, 0.85 + 0.03j, pert,
                                          EvalRep(RMatrixFactory(pert.params, POL), 1.0)))
    dt = report(4, "Theorem 1 exchange", worst, 1e-8, t0,
                extra=f"off-surface control {ctrl:.2e} > 1e-3: {ctrl > 1e-3}")
    assert worst <= 1e-8
    assert ctrl > 1e-3
    assert dt < 120


def test_criterion_5_corollary2():
    t0 = time.perf_counter()
    q = 0.6
    worst = 0.0
    rng = np.random.default_rng(505)
    for N in (2, 3):
        for (m, n) in _SURFACES:
            surf = resolve_surface(m, n, q, 0.0, N)
            rep = EvalRep(RMatrixFactory(surf.params, POL), 1.0)
            for k in range(1, N + 1):
                for kp in range(k, N + 1):
                    z, w = _safe_point(rng), _safe_point(rng)
                    worst = max(worst, residual(exchange_residual_tt(
                        k, kp, z, w, surf, rep)))
    # (1,1)-prefactor equals the scalar-layer Y function
    surf = resolve_surface(-1, -1, q, 0.0, 2)
    rep = EvalRep(RMatrixFactory(surf.params, POL), 1.0)
    z, w = 1.2 + 0.1j, 0.9 + 0.05j
    r = run_check(exchange_residual_tt(1, 1, z, w, surf, rep))
    pref_dev = abs(r.inputs["prefactor"] - Y_mn(z / w, -1, -1, surf.params, POL))
    dt = report(5, "Corollary 2 exchange", worst, 1e-8, t0,
                extra=f"(1,1) prefactor dev {pref_dev:.2e}")
    assert worst <= 1e-8
    assert pref_dev <= 1e-10
    assert dt < 120


def test_criterion_6_qdet():
    t0 = time.perf_counter()
    q = 0.6
    worst = 0.0
    trace_worst = 0.0
    for N in (2, 3):
        surf = resolve_surface(-1, -1, q, 0.0, N)
        rep = EvalRep(RMatrixFactory(surf.params, POL), 1.0)
        worst = max(worst, residual(qdet_extract(1.2 + 0.1j, rep)))
        worst = max(worst, residual(qdet_tqdet_check(1.2 + 0.1j, surf, rep)))
        for m in range(1, N + 1):
            trace_worst = max(trace_worst, residual(check_trace_MA(N, m)))
    dt = report(6, "quantum determinant", max(worst, trace_worst), 1e-8, t0,
                extra=f"trace identity worst {trace_worst:.2e}")
    assert worst <= 1e-8
    assert trace_worst <= 1e-10
    assert dt < 60


def test_criterion_7_abelianity():
    t0 = time.perf_counter()
    q, N = 0.6, 2
    grid = np.geomspace(0.5, 2.0, 200)
    worst = 0.0
    for branch, m, n, lam in [("abel1", 2, -3, -1), ("abel2", 3, 1, 2),
                              ("abel3", 1, 3, 2), ("abel4", -3, 3, None)]:
        worst = max(worst, residual(abelianity_check(branch, N, q, m, n, grid, lam=lam, policy=POL)))
    pr = resolve_abelian_branch("abel4", N, q, -3, 3)
    pert = EllipticParams(N, q, pr.s * 1.01, pr.c)
    ctrl = max(abs(Y_mn(x, -3, 3, pert, POL) - 1) for x in grid[:60])
    dt = report(7, "abelianity branches", worst, 1e-9, t0,
                extra=f"1% control {ctrl:.2e} > 1e-3: {ctrl > 1e-3}")
    assert worst <= 1e-9
    assert ctrl > 1e-3
    assert dt < 60


def test_criterion_8_critical_level():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    worst_threeway = 0.0
    worst_deriv = 0.0
    rng = np.random.default_rng(808)
    # fused ratio pinned to 1 at c = -N
    for N, q in ((2, 0.55), (3, 0.6)):
        pr = EllipticParams(N=N, q=q, s=0.5, c=-float(N))
        for k in range(1, N + 1):
            for kp in range(1, N + 1):
                x = _safe_point(rng)
                worst_ratio = max(worst_ratio, abs(
                    Y_kkprime_cr(x, k, kp, pr, POL) - 1))
    # monodromy derivative at the critical level, N = 2, k,k' <= 2
    fac2 = RMatrixFactory(params_for(2, q=0.55), POL)
    for k in (1, 2):
        for kp in (1, 2):
            worst_deriv = max(worst_deriv, residual(check_M_derivative(1.3 + 0.1j, k, kp, fac2)))
    # three-way f_cr agreement on 50 annulus points
    pts = 0
    specs = [(2, 0.55, 1, 1), (2, 0.55, 1, 2), (3, 0.6, 1, 1), (3, 0.6, 2, 1),
             (3, 0.6, 2, 2)]
    while pts < 50:
        N, q, k, kp = specs[pts % len(specs)]
        pr = EllipticParams(N=N, q=q, s=0.5)
        r = run_check(critical_poisson_check(k, kp, _safe_point(rng), pr, policy=POL))
        if r.inputs.get("error") in ("PoleHit", "OutsideConvergenceAnnulus"):
            continue
        assert "error" not in r.inputs, r.inputs
        worst_threeway = max(worst_threeway, r.residual)
        pts += 1
    worst = max(worst_ratio, worst_threeway)
    dt = report(8, "critical level", worst, 1e-6, t0,
                extra=(f"ratio {worst_ratio:.1e} <= 1e-10, dM/dc {worst_deriv:.1e}"
                       f" <= 1e-5, f_cr {worst_threeway:.1e} <= 1e-6 on 50 pts"))
    assert worst_ratio <= 1e-10
    assert worst_deriv <= 1e-5
    assert worst_threeway <= 1e-6
    assert dt < 120


def test_criterion_9_alpha_identity():
    t0 = time.perf_counter()
    r = run_check(alpha_identity_check())
    dt = report(9, "index-reordering identity", r.residual, 0.0, t0,
                extra=f"{r.inputs['cases']} exact-rational cases")
    assert r.residual == 0.0
    assert dt < 30


def test_criterion_10_cli_contract(tmp_path):
    t0 = time.perf_counter()
    base = [sys.executable, "-m", "wkit"]
    cfg = {"params": {"N": 2, "q": 0.55, "p": 0.3},
           "suites": ["theta-identities", "abelianity", "n0"], "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    texts = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        res = subprocess.run(base + ["check", "--config", str(cfg_path),
                                     "--out", str(out)],
                             capture_output=True, text=True)
        assert res.returncode == 0
        texts.append(out.read_bytes())
    deterministic = texts[0] == texts[1]

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc2 = subprocess.run(base + ["check", "--config", str(bad)],
                         capture_output=True, text=True).returncode
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps({**cfg, "tolerances": {"n0": 1e-30}}))
    rc1 = subprocess.run(base + ["check", "--config", str(strict)],
                         capture_output=True, text=True).returncode
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({**cfg, "mystery": 1}))
    rc2b = subprocess.run(base + ["check", "--config", str(unknown)],
                          capture_output=True, text=True).returncode

    ok = deterministic and rc2 == 2 and rc1 == 1 and rc2b == 2
    report(10, "CLI contract", 0.0 if ok else 1.0, 0.5, t0,
           extra=f"deterministic: {deterministic}, exits: {rc2}/{rc1}/{rc2b}")
    assert deterministic
    assert rc2 == 2 and rc1 == 1 and rc2b == 2
