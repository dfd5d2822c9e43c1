"""Deformed-W generators in the evaluation representation.

The abstract Lax matrix is realized as L(z) = Rhat(z/a) acting from one
auxiliary space into a fixed N-dimensional quantum space (label "0"), at
central charge c = 0 where the starred and unstarred R-matrices agree.
The spin-(k+1) generator is the trace

    t^{(k)}(z) = tr_{1..k}( MM  prod_{i=k..1} L_i(s*^n z_i)
                            MMt prod_{i=1..k} L_i(z_i)^{-1}  A_k ),

with z_i = q^{i-1-(k-1)/2} z, MM / MMt products of per-space twists
M = GH^{-m}, Mt = GH^{-n}, and A_k the antisymmetrizer.  Every trace
against A_k here (t^{(k)}, the quantum determinant, the twist traces of
`trace-MA` and n0) is `tensor.antisym_trace`: the factors are applied to
the basis of im A_k, and no operator on all the spaces is formed.

Multiplications by the designated root value s* are performed on the
theta lattice (xi -> xi + tau* + 1), the continuation on which the
quasi-periodicity twist relations hold exactly for every N.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from .errors import NoSolution, SingularLax, TruncationBudgetExceeded
from .params import DEFAULT_POLICY, EllipticParams, TruncationPolicy, centred_ladder, xi_of
from .qseries import F_a, Y_kkprime_cr, Y_mn, f_cr_modes, f_cr_series
from .reports import CheckReport, Stopwatch, worst
from .rmatrix import RMatrixFactory, ZnMatrices
from .tensor import LabeledTensor, _inversions, antisym_trace, compose

QUANTUM = "0"


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceSpec:
    """A surface s^m (s*)^n = q^{-N} with a concrete parameter resolution."""

    m: int
    n: int
    params: EllipticParams

    @property
    def residual(self) -> float:
        p = self.params
        return abs(p.s**self.m * p.s_star**self.n - p.q ** (-p.N))


def resolve_surface(m: int, n: int, q: complex, c: complex, N: int) -> SurfaceSpec:
    """Solve s^{m+n} = q^{-N+cn} for the designated root value s.

    For m + n = 0 the surface fixes the central charge instead:
    q^{cm} = q^{-N}, i.e. c = -N/m regardless of q and p, and s stays
    free and is set to q.  m = n = 0 has no surface.
    """
    if m == 0 and n == 0:
        raise NoSolution("surface undefined for (m, n) = (0, 0)")
    if m + n == 0:
        params = EllipticParams(N=N, q=q, s=complex(q), c=-N / m)
    else:
        rhs = cmath.exp((-N + complex(c) * n) * cmath.log(q))
        s = cmath.exp(cmath.log(rhs) / (m + n))
        params = EllipticParams(N=N, q=q, s=s, c=c)
    spec = SurfaceSpec(m=m, n=n, params=params)
    if spec.residual > 1e-12:
        raise NoSolution(f"surface residual {spec.residual:.3g} after resolution")
    return spec


# ---------------------------------------------------------------------------
# Evaluation representation
# ---------------------------------------------------------------------------

class EvalRep:
    """L(z) = Rhat(z/a) from an auxiliary space into the quantum space,
    built by the RMatrixFactory of its surface point."""

    def __init__(self, fac: RMatrixFactory, a: complex):
        if abs(fac.params.c) > 1e-12:
            raise ValueError("the evaluation representation exists at c = 0 only")
        self.factory = fac
        self.params = fac.params
        self.policy = fac.policy
        self.a = complex(a)
        self.xi_a = xi_of(self.a)

    @property
    def N(self) -> int:
        return self.params.N

    def L(self, xi: complex, aux_label) -> LabeledTensor:
        """Lax factor at additive spectral point xi, on (aux, quantum)."""
        return self.factory.rhat_tensor(xi - self.xi_a, (aux_label, QUANTUM))

    def L_inv(self, xi: complex, aux_label) -> LabeledTensor:
        t = self.L(xi, aux_label)
        if t.cond() > 1e10:
            raise SingularLax(f"L at xi = {xi} has condition number {t.cond():.3g}")
        return t.inv()


def _on_each(M: np.ndarray, k: int) -> list:
    """M as a one-space gate on each of the spaces 1..k."""
    return [LabeledTensor.from_matrix(M, (i,), M.shape[0]) for i in range(1, k + 1)]


def build_Q(k: int, z: complex, surface: SurfaceSpec, rep: EvalRep) -> list:
    """The factors of the untraced operator Q_{1..k}(z) (everything of
    t^{(k)} before multiplying by A_k and tracing), leftmost first; the
    product itself is never formed."""
    zn = rep.factory.zn
    xi_z = xi_of(z)
    ladder = [xi_z + e * rep.params.zeta for e in centred_ladder(k)]
    star_step = surface.n * rep.factory.s_star_shift  # lattice realization of (s*)^n
    return (_on_each(zn.M_power(surface.m), k)
            + [rep.L(ladder[i - 1] + star_step, i) for i in range(k, 0, -1)]
            + _on_each(zn.M_power(surface.n), k)
            + [rep.L_inv(ladder[i - 1], i) for i in range(1, k + 1)])


def build_t(k: int, z: complex, surface: SurfaceSpec, rep: EvalRep) -> np.ndarray:
    """t^{(k)}(z): an N x N matrix on the quantum space."""
    if not 1 <= k <= rep.N:
        raise ValueError(f"need 1 <= k <= N, got k = {k}")
    surface.params.require_elliptic()
    return antisym_trace(build_Q(k, z, surface, rep), k, rest=(QUANTUM,))


# ---------------------------------------------------------------------------
# Exchange checks
# ---------------------------------------------------------------------------

def _exchange_prefactor_tL(k: int, z: complex, w: complex, surface: SurfaceSpec,
                           policy: TruncationPolicy) -> complex:
    """prod_i F_{-m}(z_i/w) / F*_n(z_i/w) with z_i = q^{e_i} z."""
    p = surface.params
    pref = 1.0 + 0j
    for e in centred_ladder(k):
        x = p.q ** e * z / w
        pref *= F_a(x, -surface.m, p.s, p, policy) / F_a(x, surface.n, p.s_star, p, policy)
    return pref


def _scalar_residual(t: np.ndarray) -> float:
    """||t - (tr t / N) 1|| / ||t||, 0 for t = 0: how far t is from a scalar."""
    norm = np.linalg.norm(t)
    return float(np.linalg.norm(t - np.trace(t) / len(t) * np.eye(len(t))) / norm) if norm else 0.0


def survives_selection_rule(k: int, m: int, n: int, N: int) -> bool:
    """t^{(k)}_{m,n} is nonzero in the evaluation representation only when
    (m + n) k = 0 mod N: the per-space twist MM MMt = GH^{-(m+n)} carries a
    cyclic-shift charge that the auxiliary trace must close (for n = 0 this
    is the classical vanishing rule of the symmetric-polynomial case)."""
    return ((m + n) * k) % N == 0


def exchange_residual_tL(k: int, z: complex, w: complex, surface: SurfaceSpec,
                         rep: EvalRep, tolerance: float = 1e-8) -> CheckReport:
    """Residual of t^{(k)}(z) L(w) = [prod_i F_{-m}/F*_n](z_i/w) L(w) t^{(k)}(z),
    as matrices on (one fresh auxiliary space) x (quantum space).

    When the selection rule says t^{(k)} vanishes identically, the verified
    statement is the vanishing itself (residual = |t|); the exchange then
    holds trivially on both sides.
    """
    clock = Stopwatch()
    N = rep.N
    t_gen = build_t(k, z, surface, rep)
    t_norm = float(np.linalg.norm(t_gen))
    pref = _exchange_prefactor_tL(k, z, w, surface, rep.policy)
    vanishing = not survives_selection_rule(k, surface.m, surface.n, N)
    if vanishing:
        res = t_norm
    else:
        Lw = rep.L(xi_of(w), "b")
        t = LabeledTensor.from_matrix(t_gen, (QUANTUM,), N)
        lhs = compose([t, Lw], ("b", QUANTUM))
        rhs = pref * compose([Lw, t], ("b", QUANTUM))
        res = (lhs - rhs).norm() / max(Lw.norm() * t_norm, 1e-300)
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


def exchange_residual_tt(k: int, kprime: int, z: complex, w: complex,
                         surface: SurfaceSpec, rep: EvalRep,
                         tolerance: float = 1e-8) -> CheckReport:
    """Residual of the quadratic exchange
    t^{(k)}(z) t^{(k')}(w) = prod_{i,j} Y_{m,n}(q^{i-j} z/w) t^{(k')}(w) t^{(k)}(z).

    Vanishing factors (selection rule) make the relation trivial; the
    reported residual is then the norm of the factor that must vanish."""
    clock = Stopwatch()
    p = surface.params
    tk = build_t(k, z, surface, rep)
    tkp = build_t(kprime, w, surface, rep)
    pref = 1.0 + 0j
    for ei in centred_ladder(k):
        for ej in centred_ladder(kprime):
            pref *= Y_mn(p.q ** (ei - ej) * z / w, surface.m, surface.n, p, rep.policy)
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


# ---------------------------------------------------------------------------
# Quantum determinant
# ---------------------------------------------------------------------------

def _qdet_matrix(xi_top: complex, rep: EvalRep) -> np.ndarray:
    """Quantum-space matrix of qdet from
    L_1(y) L_2(y/q) ... L_N(y q^{1-N}) A_N = A_N qdet(y), y = e^{i pi xi_top}.

    A_N = psi psi^T for the one basis vector psi of im A_N, so qdet is
    (psi^T (x) 1) L_1 ... L_N (psi (x) 1) = tr_{1..N}(L_1 ... L_N A_N)."""
    N = rep.N
    gates = [rep.L(xi_top - (i - 1) * rep.params.zeta, i) for i in range(1, N + 1)]
    return antisym_trace(gates, N, rest=(QUANTUM,))


def qdet_extract(z: complex, rep: EvalRep, tolerance: float = 1e-8):
    """Extract qdet(z) and report how close it is to a scalar on the
    quantum space (centrality in the evaluation representation)."""
    clock = Stopwatch()
    N = rep.N
    qd = _qdet_matrix(xi_of(z), rep)
    scal = complex(np.trace(qd) / N)
    return scal, clock.report(
        suite="qdet", check="qdet-centrality",
        identity="L_1(z)...L_N(z q^{1-N}) A_N = A_N qdet(z) with qdet scalar",
        inputs={"N": N, "q": rep.params.q, "p": rep.params.p, "z": z,
                "qdet": scal},
        residual=_scalar_residual(qd), tolerance=tolerance,
    )


def qdet_tqdet_check(z: complex, surface: SurfaceSpec, rep: EvalRep,
                     tolerance: float = 1e-8) -> CheckReport:
    """t^{(N)}(z) = det(M) det(Mt) qdet(s*^n sigma z) / qdet(sigma z).

    The grid of t^{(N)} determines sigma only up to the quasi-periodicity
    of qdet, so both candidate shifts sigma = q^{(N-1)/2} and q^{N-1} are
    tried; the report carries each residual and asserts the better one.
    """
    clock = Stopwatch()
    N = rep.N
    zn = rep.factory.zn
    t_val = complex(np.trace(build_t(N, z, surface, rep)) / N)
    detM = complex(np.linalg.det(zn.M_power(surface.m)))
    detMt = complex(np.linalg.det(zn.M_power(surface.n)))
    star_step = surface.n * rep.factory.s_star_shift
    results = {}
    for name, sig_exp in (("q^{(N-1)/2}", (N - 1) / 2.0), ("q^{N-1}", float(N - 1))):
        xi_sig = xi_of(z) + sig_exp * rep.params.zeta
        den = complex(np.trace(_qdet_matrix(xi_sig, rep)) / N)
        num = complex(np.trace(_qdet_matrix(xi_sig + star_step, rep)) / N)
        pred = detM * detMt * num / den
        results[name] = abs(t_val - pred) / max(abs(t_val), 1e-300)
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
    lhs = complex(antisym_trace(_on_each(M, N), N)[0, 0])
    det = complex(np.linalg.det(M))
    res = abs(lhs - det) / max(abs(det), 1e-300)
    return clock.report(
        suite="qdet", check=f"trace-MA(m={m})",
        identity="tr(M^{xN} A_N) = det(M)",
        inputs={"N": N, "m": m, "det": det},
        residual=res, tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# n = 0 degeneration: symmetric polynomials of the twist
# ---------------------------------------------------------------------------

def n0_check(k: int, m: int, N: int, tolerance: float = 1e-10) -> CheckReport:
    """t_{m,0}^{(k)} = tr(MM A_k) equals the k-th elementary symmetric
    polynomial of the eigenvalues of M = GH^{-m}; it vanishes unless
    m k = 0 mod N."""
    clock = Stopwatch()
    M = ZnMatrices(N).M_power(m)
    val = complex(antisym_trace(_on_each(M, k), k)[0, 0])
    eigs = np.linalg.eigvals(M)
    coeffs = np.poly(eigs)  # monic char poly: e_k = (-1)^k coeffs[k]
    ek = complex((-1) ** k * coeffs[k])
    res = abs(val - ek)
    vanishes = (m * k) % N != 0
    if vanishes:
        res = worst((res, abs(val)))  # must also be zero outright
    return clock.report(
        suite="n0", check=f"n0(N={N},k={k},m={m})",
        identity="tr(M^{xk} A_k) = e_k(eig M); zero unless m k = 0 mod N",
        inputs={"N": N, "k": k, "m": m, "value": val, "e_k": ek,
                "must_vanish": vanishes},
        residual=res, tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Critical-level Poisson structure
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Gradation-twist bookkeeping
# ---------------------------------------------------------------------------

def alpha_fraction(i: int, j: int, N: int) -> Fraction:
    """alpha_{ij} = 1/2 + (i-j)/N for i < j, antisymmetric, 0 on diagonal."""
    if i == j:
        return Fraction(0)
    if i < j:
        return Fraction(1, 2) + Fraction(i - j, N)
    return -alpha_fraction(j, i, N)


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
