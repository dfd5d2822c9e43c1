"""Construction of the Z_N elliptic R-matrix and its gauge variants.

The matrix acts on two N-dimensional spaces and is assembled from the
Weyl pair (g, h), theta functions with rational characteristics, and the
normalization kappa:

    Z(z)  = z^{2/N-2} kappa(z^2)^{-1} [theta_A(zeta) / theta_A(xi+zeta)]
            * sum_{a1,a2} W_{(a1,a2)}(xi) I_{(a1,a2)} (x) I_{(a1,a2)}^{-1}
    R(z)  = (g^{1/2} (x) g^{1/2}) Z(z) (g^{1/2} (x) g^{1/2})^{-1}
    Rhat(z) = tau_N(q^{1/2}/z) R(z)

with z = e^{i pi xi}, q = e^{i pi zeta}, p = e^{2 i pi tau},
theta_A = theta[1/2,1/2], W the ratio of shifted characteristics thetas,
and I_{(a1,a2)} = g^{a2} h^{a1}.

Each I_alpha (x) I_alpha^{-1} is monomial, with entries only at rows
(i, j) and columns (i + a1, j - a1), so the sum over alpha is nonzero
only on the N^3 entries that conserve the Z_N charge i + j mod N.  A
build evaluates the N^2 thetas of W and the prefactor's theta_A(xi + zeta)
in one lattice sum (`theta_char_sums`), and forms the sum as one
(N^3 x N^2) coefficient matrix times the N^2 theta ratios, scattered into
the N^2 x N^2 result; for R and Rhat the g^{1/2} (x) g^{1/2} conjugation
is folded into that matrix.

Internally every builder takes the additive variable xi, so a caller can
reach analytic-continuation points (xi + 1 for -z, xi + tau + 1 for a
step by the designated root s) that the principal branch of log cannot
see.  Rhat is assembled with the tau_N factor cancelled against kappa at
the product level, which keeps it finite at points like z = q where
tau_N has a zero against a kappa pole (needed for the kernel projector).
"""

from __future__ import annotations

import cmath
import functools

import numpy as np

from .errors import ModulusOutOfRange, PoleHit
from .params import DEFAULT_POLICY, EllipticParams, TruncationPolicy, xi_of
from .qseries import _pp, kappa_inv, pochhammer, pochhammer2, theta_big, theta_char_sums
from .tensor import LabeledTensor

_POLE_REL = 1e-12


class ZnMatrices:
    """The finite Weyl pair of Z_N: g = diag(omega^j), h the cyclic shift,
    the half-power g^{1/2} = diag(e^{i pi j/N}), and GH = g^{1/2} h g^{1/2}."""

    def __init__(self, N: int):
        self.N = N
        om = np.exp(2j * np.pi / N)
        self.omega = om
        self.g = np.diag([om**j for j in range(1, N + 1)])
        self.h = np.roll(np.eye(N, dtype=complex), 1, axis=1)  # h[i, i+1 mod N] = 1
        self.g_half = np.diag([np.exp(1j * np.pi * j / N) for j in range(1, N + 1)])
        self.GH = self.g_half @ self.h @ self.g_half
        self.GH_inv = np.linalg.inv(self.GH)

    def I_alpha(self, a1: int, a2: int) -> np.ndarray:
        return np.linalg.matrix_power(self.g, a2) @ np.linalg.matrix_power(self.h, a1)

    def M_power(self, m: int) -> np.ndarray:
        """Twist matrix M = GH^{-m}."""
        base = self.GH_inv if m >= 0 else self.GH
        return np.linalg.matrix_power(base, abs(m))


def _nome_limit(build):
    """On a degenerate nome, evaluate `build` as the mean of its values on
    the two nearby child factories."""

    @functools.wraps(build)
    def limited(self, xi: complex) -> np.ndarray:
        if self._children is None:
            return build(self, xi)
        return (build(self._children[0], xi) + build(self._children[1], xi)) / 2

    return limited


class RMatrixFactory:
    """Builds Z / R / Rhat at given spectral points for one parameter set.

    Caches only z-independent quantities: the Weyl matrices; the N^2 + 1
    theta characteristics, W's N^2 then theta_A's, with their offsets
    zeta/N and zeta; theta_A(zeta) and N times the N^2 denominators
    theta[1/2 + a1/N, 1/2 + a2/N](zeta/N); the positions of W's N^3
    nonzero entries, which conserve the Z_N charge i + j mod N; the
    (N^3 x N^2) coefficient matrices of I_alpha (x) I_alpha^{-1} at those
    positions, bare for Z and conjugated by g^{1/2} (x) g^{1/2} for R and
    Rhat; and P = q^{2N}, (P; P)_inf and q^{1/N-1} for Rhat.  Every build
    is a pure function of xi, so one factory serves every check at its
    parameter point.  The builds are `z_matrix_xi`, `r_matrix_xi`,
    `rhat_matrix_xi` and `rhat_tensor`.
    """

    def __init__(self, params: EllipticParams, policy: TruncationPolicy | None = None):
        params.require_elliptic()
        self.params = params
        self.policy = policy or DEFAULT_POLICY
        N, q = params.N, params.q
        if abs(q ** (2 * N)) >= 1 - 1e-6:
            raise ModulusOutOfRange("|q^(2N)| too close to 1")
        self.N = N
        self.zn = ZnMatrices(N)
        self.zeta = params.zeta
        self.tau = params.tau
        a = np.arange(N)
        self._g1 = np.append(0.5 + np.repeat(a, N) / N, 0.5)
        self._g2 = np.append(0.5 + np.tile(a, N) / N, 0.5)
        self._offsets = np.append(np.full(N * N, self.zeta / N), self.zeta)
        dens = theta_char_sums(self._g1, self._g2, self._offsets, self.tau, self.policy)
        self._theta_A_zeta = complex(dens[-1])
        self._w_dens = N * dens[:-1]
        # theta_alpha(zeta/N) vanishes for some alpha exactly when zeta lies
        # on the lattice Z + tau Z (e.g. p = q^2 at N = 2, forced by the
        # (-1,-1) surface), and theta_A(zeta) vanishes with it: the matrix
        # has a finite limit there.  Evaluate it as the symmetric average of
        # two nearby nomes p(1 +- 1e-5), accurate to O(1e-10); they lie about
        # 1e-6 off the lattice, so they are never degenerate themselves.
        n = round(self.zeta.imag / self.tau.imag)
        m = round((self.zeta - n * self.tau).real)
        self._children = None
        if abs(self.zeta - m - n * self.tau) < 1e-8:
            self._children = [
                RMatrixFactory(EllipticParams(N, q, params.s * cmath.sqrt(1 + sgn * 1e-5), 0.0),
                               self.policy)
                for sgn in (+1, -1)
            ]
        # I_alpha (x) I_alpha^{-1} has entries only at rows (i, j) and
        # columns (i + a1, j - a1), where the charge i + j mod N is
        # conserved; there it is omega^(a2 (i - j + a1))
        charge = np.add.outer(a, a).ravel() % N
        self._w_at = np.flatnonzero(charge[:, None] == charge[None, :])
        rows, cols = np.divmod(self._w_at, N * N)
        i, j = np.divmod(rows, N)
        a1 = (cols // N - i) % N
        coef = np.zeros((N ** 3, N, N), dtype=complex)  # (entry, a1, a2)
        coef[np.arange(N ** 3), a1] = np.exp(2j * np.pi / N * (np.outer(i - j + a1, a) % N))
        self._coef = coef.reshape(N ** 3, N * N)
        G = np.kron(np.diag(self.zn.g_half), np.diag(self.zn.g_half))
        self._coef_G = self._coef * (G[rows] / G[cols])[:, None]
        self._P = q ** (2 * N)
        self._pp_P = _pp(complex(self._P), self.policy)
        self._q_pow = q ** (1.0 / N - 1.0)

    # -- spectral-variable helpers -------------------------------------------

    @property
    def s_shift(self) -> complex:
        """Additive shift realizing one multiplication by the designated
        root value s = "-p^{1/2}" on the theta lattice: xi -> xi + tau + 1."""
        return self.tau + 1

    @property
    def s_star_shift(self) -> complex:
        return self.params.tau_star + 1

    # -- core sums ------------------------------------------------------------

    def _thetas(self, xi: complex):
        """W's N^2 theta ratios theta_alpha(xi + zeta/N) / (N theta_alpha(zeta/N))
        and the prefactor theta_A(zeta) / theta_A(xi + zeta), by one lattice sum."""
        nums = theta_char_sums(self._g1, self._g2, xi + self._offsets, self.tau, self.policy)
        den = complex(nums[-1])
        if abs(den) < _POLE_REL * (1 + abs(self._theta_A_zeta)):
            raise PoleHit(f"prefactor theta zero at xi = {xi}")
        return nums[:-1] / self._w_dens, self._theta_A_zeta / den

    def _w_sum(self, pref: complex, ratios: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """pref * sum_alpha ratios[alpha] (I_alpha (x) I_alpha^{-1}), each
        term as `coef` holds it, from W's N^3 nonzero entries."""
        N2 = self.N * self.N
        out = np.zeros(N2 * N2, dtype=complex)
        out[self._w_at] = pref * (coef @ ratios)
        return out.reshape(N2, N2)

    def _z_or_r(self, xi: complex, coef: np.ndarray) -> np.ndarray:
        pref = (cmath.exp(1j * cmath.pi * xi * (2.0 / self.N - 2.0))
                * kappa_inv(cmath.exp(2j * cmath.pi * xi), self.params, self.policy))
        ratios, theta_ratio = self._thetas(xi)
        return self._w_sum(pref * theta_ratio, ratios, coef)

    # -- builders ---------------------------------------------------------------

    @_nome_limit
    def z_matrix_xi(self, xi: complex) -> np.ndarray:
        return self._z_or_r(xi, self._coef)

    @_nome_limit
    def r_matrix_xi(self, xi: complex) -> np.ndarray:
        return self._z_or_r(xi, self._coef_G)

    @_nome_limit
    def rhat_matrix_xi(self, xi: complex) -> np.ndarray:
        """Rhat with the tau_N x kappa cancellation done analytically.

        tau_N(q^{1/2}/z) z^{2/N-2} kappa^{-1}(z^2) collapses to
        q^{1/N-1} times a ratio of Pochhammer products in which the
        common factor (q^2 z^{-2}; q^{2N}) has been cancelled, so points
        like z = q (tau_N zero against kappa pole) evaluate directly.
        """
        q, p, P = self.params.q, self.params.p, self._P
        pol = self.policy
        z2 = cmath.exp(2j * cmath.pi * xi)
        num = pochhammer(P / (q * q) * z2, [P], pol) * self._pp_P
        v = pochhammer2(
            [P / z2, q * q * z2, p / z2, p * P / (q * q) * z2,       # numerator
             p * q * q / z2, P * z2, p * z2, p * P / (q * q) / z2],  # denominator
            p, P, pol).tolist()
        num = num * v[0] * v[1] * v[2] * v[3]
        den = 1.0 + 0j
        for f in [v[4], theta_big(z2, P, pol), v[5], v[6], v[7]]:
            if abs(f) < _POLE_REL:
                raise PoleHit(f"Rhat pole at xi = {xi}")
            den *= f
        ratios, theta_ratio = self._thetas(xi)
        return self._w_sum(self._q_pow * num / den * theta_ratio, ratios, self._coef_G)

    def rhat_tensor(self, xi: complex, labels) -> LabeledTensor:
        return LabeledTensor.from_matrix(self.rhat_matrix_xi(xi), labels, self.N)


def zn_symmetry_residual(mat: np.ndarray, N: int) -> float:
    """Largest forbidden entry relative to the largest entry: entry
    ((i,j),(k,l)) must vanish unless i + j = k + l mod N."""
    scale = np.abs(mat).max()
    charge = np.add.outer(np.arange(N), np.arange(N)).ravel() % N
    forbidden = charge[:, None] != charge[None, :]
    largest = np.abs(mat[forbidden]).max()
    return largest / scale if scale > 0 else 0.0


def crossing_unitarity_residual(A: np.ndarray, B: np.ndarray, fac: RMatrixFactory) -> float:
    """Relative distance between (A^{t2})^{-1} and (B^{-1})^{t2}."""
    lhs = LabeledTensor.from_matrix(A, (1, 2), fac.N).partial_transpose(2).inv()
    rhs = LabeledTensor.from_matrix(B, (1, 2), fac.N).inv().partial_transpose(2)
    return (lhs - rhs).norm() / lhs.norm()


def kernel_projector(fac: RMatrixFactory):
    """Kernel of Rhat(q), the singular values below 1e-8 of the largest:
    returns (dimension, projector matrix)."""
    Rq = fac.rhat_matrix_xi(xi_of(fac.params.q))
    u, s, vh = np.linalg.svd(Rq)
    mask = s < 1e-8 * s[0]
    V = vh.conj().T[:, mask]
    return int(mask.sum()), V @ V.conj().T
