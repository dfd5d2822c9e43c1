"""Deformed-W generators in the evaluation representation.

The abstract Lax matrix is realized as L(z) = Rhat(z/a) acting from one
auxiliary space into a fixed N-dimensional quantum space (label "0"), at
central charge c = 0 where the starred and unstarred R-matrices agree.
The spin-(k+1) generator is the trace

    t^{(k)}(z) = tr_{1..k}( MM  prod_{i=k..1} L_i(s*^n z_i)
                            MMt prod_{i=1..k} L_i(z_i)^{-1}  A_k ),

with z_i = q^{i-1-(k-1)/2} z, MM / MMt products of per-space twists
M = GH^{-m}, Mt = GH^{-n}, and A_k the antisymmetrizer.  Every trace
against A_k (t^{(k)} and the quantum determinant here, the twist traces
of the `qdet` and `n0` suites) is `tensor.antisym_trace`: the factors are
applied to the basis of im A_k, and no operator on all the spaces is
formed.

Multiplications by the designated root value s* are performed on the
theta lattice (xi -> xi + tau* + 1), the continuation on which the
quasi-periodicity twist relations hold exactly for every N.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NoSolution, SingularLax
from .params import EllipticParams, TruncationPolicy, centred_ladder, xi_of
from .qseries import F_a
from .rmatrix import RMatrixFactory
from .tensor import LabeledTensor, antisym_trace

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

