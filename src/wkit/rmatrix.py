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
only on the N^3 entries that conserve the Z_N charge i + j mod N.

There is one build, for n spectral points at once, and each of its steps
is one array call over every point: Rhat's one-modulus products
(P/q^2 z^2; P) and Theta_P(z^2), P = q^{2N}, in one `pochhammer2` call;
its eight two-modulus products in another (`kappa_inv` on the array for
R); the N^2 thetas of W and the prefactor's theta_A(xi + zeta) in one
lattice sum (`theta_char_sums`); and the sums as the (N^3 x N^2)
coefficient matrix times each point's N^2 theta ratios, scattered into
the (n, N^2, N^2) result.  For R and Rhat the g^{1/2} (x) g^{1/2}
conjugation is folded into that matrix.  It is
`RMatrixFactory.build(xis, hat)`, and every R and Rhat of the package
comes from it; a one-point caller takes `build([xi], hat)[0]`.  Every
value is a function of its own point: the products multiply lane by lane,
each point's ratios meet the matrix as a one-row product of their own (a
GEMM over the points rounds by their count), and each lattice sum has a
window of its own, so build(xis, hat)[i] is build([xis[i]], hat)[0] bit
for bit.  A build runs those steps on chunks of at most 2^16 output
entries (1 MB), 809 points at N = 3, 256 at N = 4 and 16 at N = 8, so a
caller that asks for all its points at once holds the temporaries of one
chunk besides the (n, N^2, N^2) result; the chunk changes no value, and
`pochhammer2` bounds its own factors, whatever the chunk.

A factory depends only on (params, policy): `factory(params, policy)`
returns the one of this process, kept in a bounded cache.

The build takes the additive variable xi, so a caller can reach
analytic-continuation points (xi + 1 for -z, xi + tau + 1 for a step by
the designated root s) that the principal branch of log cannot see.
Rhat is assembled with the tau_N factor cancelled against kappa at the
product level, which keeps it finite at points like z = q where tau_N
has a zero against a kappa pole (needed for the kernel projector).
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import ModulusOutOfRange, PoleHit
from .params import DEFAULT_POLICY, EllipticParams, TruncationPolicy, _charges, _store, xi_of
from .qseries import kappa_inv, pochhammer2, theta_char_sums

_POLE_REL = 1e-12
_CHUNK = 2 ** 16     # output entries of a build evaluated at once: 809 points at N = 3, 16 at N = 8
_FACTORY_LIMIT = 16  # factories kept
_FACTORIES = {}      # (params, policy) -> RMatrixFactory


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

    def M_power(self, m: int) -> np.ndarray:
        """Twist matrix M = GH^{-m}."""
        base = self.GH_inv if m >= 0 else self.GH
        return np.linalg.matrix_power(base, abs(m))


class RMatrixFactory:
    """Builds R / Rhat at given spectral points for one parameter set.

    Caches only z-independent quantities: the Weyl matrices; the N^2 + 1
    theta characteristics, W's N^2 then theta_A's, with their offsets
    zeta/N and zeta; theta_A(zeta) and N times the N^2 denominators
    theta[1/2 + a1/N, 1/2 + a2/N](zeta/N); the positions of W's N^3
    nonzero entries, which conserve the Z_N charge i + j mod N; the
    (N^3 x N^2) coefficient matrix of I_alpha (x) I_alpha^{-1} at those
    positions, conjugated by g^{1/2} (x) g^{1/2}; and P = q^{2N},
    (P; P)_inf, q^{1/N-1} (P; P)_inf and the coefficients of the Pochhammer
    arguments c z^2 and c / z^2 for Rhat.  Every build is a pure function
    of xi, so one factory serves every check at its parameter point.  The
    one build is `build(xis, hat)`, the (n, N^2, N^2) stack of R or Rhat
    at n points.
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
        charge = _charges(N, 2)
        self._w_at = np.flatnonzero(charge[:, None] == charge[None, :])
        rows, cols = np.divmod(self._w_at, N * N)
        i, j = np.divmod(rows, N)
        a1 = (cols // N - i) % N
        coef = np.zeros((N ** 3, N, N), dtype=complex)  # (entry, a1, a2)
        coef[np.arange(N ** 3), a1] = np.exp(2j * np.pi / N * (np.outer(i - j + a1, a) % N))
        G = np.kron(np.diag(self.zn.g_half), np.diag(self.zn.g_half))
        self._coef_G = coef.reshape(N ** 3, N * N) * (G[rows] / G[cols])[:, None]
        # Rhat's Pochhammer arguments are c z^2 or c / z^2.  `build` orders
        # them (P/q^2 z^2; P), (z^2; P), (P/z^2; P), then the four numerator
        # and the four denominator arguments of (.; p, P)
        P, p, qq = q ** (2 * N), params.p, q * q
        self._P = P
        self._pp_P = complex(pochhammer2([P], P, 0, self.policy)[0])  # (P; P)_inf
        self._up = np.array([P / qq, 1.0, qq, p * P / qq, P, p])
        self._down = np.array([P, P, p, p * qq, p * P / qq])
        self._q_pow_pp = q ** (1.0 / N - 1.0) * self._pp_P
        self._theta_A_floor = _POLE_REL * (1 + abs(self._theta_A_zeta))

    # -- spectral-variable helpers -------------------------------------------

    @property
    def s_shift(self) -> complex:
        """Additive shift realizing one multiplication by the designated
        root value s = "-p^{1/2}" on the theta lattice: xi -> xi + tau + 1."""
        return self.tau + 1

    @property
    def s_star_shift(self) -> complex:
        return self.params.tau_star + 1

    # -- core sums and the build ---------------------------------------------

    def _thetas(self, xi: np.ndarray):
        """W's N^2 theta ratios theta_alpha(xi + zeta/N) / (N theta_alpha(zeta/N)),
        shape xi.shape + (N^2,), and the prefactor's theta_A(xi + zeta), at
        the points of xi by one lattice sum."""
        nums = theta_char_sums(self._g1, self._g2, xi.reshape(-1, 1) + self._offsets, self.tau, self.policy)
        nums = nums.reshape(xi.shape + self._g1.shape)
        return nums[..., :-1] / self._w_dens, nums[..., -1]

    def _w_sum(self, pref, ratios: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """pref * sum_alpha ratios[..., alpha] (I_alpha (x) I_alpha^{-1}), each
        term as `coef` holds it, from W's N^3 nonzero entries: one N^2 x N^2
        matrix per point of pref."""
        N2 = self.N * self.N
        out = np.zeros(ratios.shape[:-1] + (N2 * N2,), dtype=complex)
        # a one-row product per point: a GEMM over the points rounds by their count
        rows = np.matmul(ratios[..., None, :], coef.T)[..., 0, :]
        out[..., self._w_at] = np.asarray(pref)[..., None] * rows
        return out.reshape(ratios.shape[:-1] + (N2, N2))

    def build(self, xis, hat: bool) -> np.ndarray:
        """The (n, N^2, N^2) stack of R (hat false) or Rhat at the n points
        xis, each step one array call over every point of a chunk of at
        most _CHUNK output entries (one point at least), the chunks in
        order; each point's value is that of a build of it alone.  Rhat
        with the tau_N x kappa cancellation done analytically.
        On a degenerate nome it is the mean of the two child factories'
        builds.  Raises PoleHit if any point is a pole, with the message of
        the first such point."""
        if self._children is not None:
            return (self._children[0].build(xis, hat) + self._children[1].build(xis, hat)) / 2
        xi = np.asarray(xis, dtype=complex).ravel()
        chunk = max(_CHUNK // self.N ** 4, 1)
        if xi.size > chunk:
            return np.concatenate([self.build(xi[i:i + chunk], hat)
                                   for i in range(0, xi.size, chunk)])
        z2 = np.exp(2j * np.pi * xi)
        if hat:
            # tau_N(q^{1/2}/z) z^{2/N-2} kappa^{-1}(z^2) collapses to q^{1/N-1}
            # times a ratio of Pochhammer products in which the common factor
            # (q^2 z^{-2}; q^{2N}) has been cancelled, so points like z = q
            # (tau_N zero against kappa pole) evaluate directly
            up, down = np.multiply.outer(self._up, z2), np.divide.outer(self._down, z2)
            args = np.concatenate((up[:2], down[:1], up[2:4], down[1:3], up[4:], down[3:]))
            one = pochhammer2(args[:3], self._P, 0, self.policy)
            two = pochhammer2(args[3:], self.params.p, self._P, self.policy)
            den = np.concatenate((two[4:], one[1:2] * one[2:3] * self._pp_P))  # Theta_P(z^2) last
            poles = (abs(den) < _POLE_REL).any(axis=0)
            # lane by lane, as in a batch of any size (a one-lane prod rounds otherwise)
            pref = self._q_pow_pp * one[0] * (two[0] * two[1] * two[2] * two[3])
        else:
            pref = (np.exp(1j * np.pi * xi * (2.0 / self.N - 2.0))
                    * kappa_inv(z2, self.params, self.policy))
            poles = False
        ratios, theta_den = self._thetas(xi)
        bad = poles | (abs(theta_den) < self._theta_A_floor)
        if bad.any():
            i = int(bad.argmax())
            raise PoleHit(f"Rhat pole at xi = {complex(xi[i])}" if hat and poles[i] else
                          f"prefactor theta zero at xi = {complex(xi[i])}")
        if hat:  # after the pole check, so an exact zero raises rather than divides
            pref = pref / (den[0] * den[1] * den[2] * den[3] * den[4])
        return self._w_sum(pref * (self._theta_A_zeta / theta_den), ratios, self._coef_G)


def factory(params: EllipticParams, policy: TruncationPolicy | None = None) -> RMatrixFactory:
    """The RMatrixFactory of (params, policy), built on the first call in
    this process and kept: its builds equal a fresh factory's bit for bit."""
    key = (params, policy or DEFAULT_POLICY)
    fac = _FACTORIES.get(key)
    if fac is None:
        fac = _store(_FACTORIES, key, RMatrixFactory(*key), _FACTORY_LIMIT)
    return fac


def kernel_projector(fac: RMatrixFactory):
    """Kernel of Rhat(q), the singular values below 1e-8 of the largest:
    returns (dimension, projector matrix)."""
    Rq = fac.build([xi_of(fac.params.q)], hat=True)[0]
    u, s, vh = np.linalg.svd(Rq)
    mask = s < 1e-8 * s[0]
    V = vh.conj().T[:, mask]
    return int(mask.sum()), V @ V.conj().T
