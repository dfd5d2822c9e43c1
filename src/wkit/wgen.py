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
of the `qdet` and `n0` suites) is `tensor.antisym_trace` of per-space
factor stacks (`build_Q`), run on Lambda^k; no operator on all the spaces
is formed.

The 2k Lax factors of t^{(k)}(z) come from one build of Rhat by the
rep's factory (`RMatrixFactory.build` at `lax_points` less xi_a), and the
k inverted ones are checked and inverted as one stack; the quantum
determinant builds the N factors of every point it is asked for
(`_qdet_points`) in one call.  A caller that needs more Lax matrices at
the same time (L(w) beside t^{(k)}(z), the factors of two generators, or
every generator of a suite) builds them all in one call and passes each
its slice: `build_t(..., lax=)` and `_qdet_matrices(..., lax=)`.

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
from .params import EllipticParams, centred_ladder, xi_of
from .rmatrix import RMatrixFactory
from .tensor import antisym_trace

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
    built by the RMatrixFactory of its surface point: at additive points
    xis, L is `factory.build(xis - xi_a, hat=True)`."""

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


def lax_points(k: int, z: complex, surface: SurfaceSpec, rep: EvalRep) -> np.ndarray:
    """The 2k additive points of the Lax factors of Q_{1..k}(z), in the
    order `build_Q` takes them: L_k ... L_1 on the ladder moved by (s*)^n
    (realized on the theta lattice), then L_1 ... L_k on the ladder."""
    ladder = xi_of(z) + np.array(centred_ladder(k)) * rep.params.zeta
    return np.concatenate((ladder[::-1] + surface.n * rep.factory.s_star_shift, ladder))


def build_Q(k: int, z: complex, surface: SurfaceSpec, rep: EvalRep, lax=None):
    """The untraced operator Q_{1..k}(z) (t^{(k)} before A_k and the trace)
    as the two stacks of `antisym_trace`, l_j = (M (x) 1) L_j(s*^n z_j) and
    r_j = (Mt (x) 1) L_j(z_j)^{-1}: a twist on space j commutes with every
    L_i, i != j.  `lax` is the stack of Lax factors at `lax_points`, built
    here in one call if not given; the k inverted ones are checked and
    inverted as one stack."""
    xis = lax_points(k, z, surface, rep)
    mats = rep.factory.build(xis - rep.xi_a, hat=True) if lax is None else lax
    conds = np.linalg.cond(mats[k:])
    bad = np.flatnonzero(conds > 1e10)
    if bad.size:
        raise SingularLax(f"L at xi = {complex(xis[k + bad[0]])} has condition number "
                          f"{conds[bad[0]]:.3g}")
    N, zn = rep.N, rep.factory.zn

    def twisted(M, stack):  # (M (x) 1) @ each matrix of stack
        return (M @ stack.reshape(k, N, -1)).reshape(stack.shape)

    return (twisted(zn.M_power(surface.m), mats[k - 1::-1]),
            twisted(zn.M_power(surface.n), np.linalg.inv(mats[k:])))


def build_t(k: int, z: complex, surface: SurfaceSpec, rep: EvalRep, lax=None) -> np.ndarray:
    """t^{(k)}(z): an N x N matrix on the quantum space (`lax` as in `build_Q`)."""
    if not 1 <= k <= rep.N:
        raise ValueError(f"need 1 <= k <= N, got k = {k}")
    surface.params.require_elliptic()
    return antisym_trace(rep.N, *build_Q(k, z, surface, rep, lax))


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

def _qdet_points(xi_tops, rep: EvalRep) -> np.ndarray:
    """The additive points y, y/q, ..., y q^{1-N} of the Lax factors of
    qdet at each y = e^{i pi xi_top} of xi_tops, point after point."""
    N = rep.N
    return (np.asarray(xi_tops, dtype=complex)[:, None] - np.arange(N) * rep.params.zeta).ravel()


def _qdet_matrices(xi_tops, rep: EvalRep, lax=None) -> list:
    """Quantum-space matrix of qdet at each y = e^{i pi xi_top} of xi_tops,
    from L_1(y) L_2(y/q) ... L_N(y q^{1-N}) A_N = A_N qdet(y).  `lax` is the
    stack of Lax factors at `_qdet_points`, every factor of every point
    built here in one call if not given.

    A_N = psi psi^T for the one basis vector psi of im A_N, so qdet is
    (psi^T (x) 1) L_1 ... L_N (psi (x) 1) = tr_{1..N}(L_1 ... L_N A_N)."""
    N = rep.N
    mats = rep.factory.build(_qdet_points(xi_tops, rep) - rep.xi_a, hat=True) if lax is None else lax
    return [antisym_trace(N, rights=ms) for ms in mats.reshape(-1, N, N * N, N * N)]


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

