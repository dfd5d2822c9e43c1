"""Parameter bundles shared by every layer of the toolkit.

EllipticParams carries (N, q, s, c) and everything derived from them:
the elliptic nome p = s^2, the shifted nome p* = p q^{-2c}, the shifted
root value s* = s q^{-c}, and the multiplicative-to-additive bridge
(zeta, tau) with q = e^{i pi zeta}, p = e^{2 i pi tau}.

The value s plays the role of the designated square root written
"-p^{1/2}" in the structure-function ladders.  It is stored once,
resolved by the surface / abelianity solvers, and never recomputed from
p, so no sign ambiguity can creep into downstream formulas.
"""

from __future__ import annotations

import cmath
import contextlib
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ModulusOutOfRange

_I_PI = 1j * cmath.pi
_CACHE_LIMIT = 128  # entries of a cache kept by `_store` unless it names its own bound
_STORE_LOCK = threading.Lock()


def _freeze(value):
    """Make every ndarray in value read-only, through tuples and lists."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for v in value:
            _freeze(v)


def _store(cache: dict, key, value, limit: int = _CACHE_LIMIT):
    """Put value under key, its arrays made read-only, and return it.  Every
    process-wide cache of the toolkit is filled here: an entry is replaced,
    never changed in place, so its arrays are shared read-only, and a cache
    that reaches its bound is emptied first (under a lock, so concurrent
    callers keep the bound)."""
    _freeze(value)
    with _STORE_LOCK:
        if len(cache) >= limit:
            cache.clear()
        cache[key] = value
    return value


@dataclass(frozen=True)
class TruncationPolicy:
    """Tail-tolerance control for all infinite series and products.

    tail_eps: stop once the next term/factor deviates from the neutral
    element by less than this.  max_terms: hard cap per summation index;
    hitting it before the tail bound raises TruncationBudgetExceeded.
    """

    tail_eps: float = 1e-16
    max_terms: int = 512

    def __post_init__(self):
        if not (0 < self.tail_eps <= 1e-8):
            raise ValueError(f"tail_eps must lie in (0, 1e-8], got {self.tail_eps}")
        if self.max_terms < 64:
            raise ValueError(f"max_terms must be >= 64, got {self.max_terms}")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class EllipticParams:
    """Parameter point (N, q, s, c) with derived quantities.

    N: rank, >= 2.  q: deformation parameter, 0 < |q| < 1.  s: designated
    value of -p^{1/2} (so p = s^2).  c: central charge (real in all tests);
    s* = s q^{-c} and p* = s*^2 must be finite and nonzero.

    Scalar structure functions need only q and the s-ladder, so |p| >= 1 is
    allowed there; R-matrix construction additionally requires |p| < 1 and
    checks it at build time.
    """

    N: int
    q: complex
    s: complex
    c: complex = 0.0

    p: complex = field(init=False)
    p_star: complex = field(init=False)
    s_star: complex = field(init=False)
    zeta: complex = field(init=False)

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        q, s, c = complex(self.q), complex(self.s), complex(self.c)
        for name, v in (("q", q), ("s", s), ("c", c)):
            if not cmath.isfinite(v):  # abs(nan) >= 1 is False
                raise ValueError(f"{name} must be finite, got {v}")
        if q == 0 or abs(q) >= 1:
            raise ValueError(f"q must satisfy 0 < |q| < 1, got {q}")
        if abs(q ** (2 * self.N) - 1) <= 1e-6:
            raise ValueError("q^(2N) is too close to 1 (root-of-unity degeneracy)")
        if s == 0:
            raise ValueError("s must be nonzero")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "c", c)
        s_star = p_star = cmath.inf
        with contextlib.suppress(OverflowError):
            s_star = s * q ** (-c)
            p_star = s_star**2
        if not (cmath.isfinite(p_star) and p_star):
            raise ValueError(f"s* = s q^(-c) and s*^2 must be finite and nonzero, got s* = {s_star}")
        object.__setattr__(self, "p", s * s)
        object.__setattr__(self, "s_star", s_star)
        object.__setattr__(self, "p_star", p_star)
        object.__setattr__(self, "zeta", cmath.log(q) / _I_PI)

    @property
    def tau(self) -> complex:
        """Additive nome of p: p = e^{2 i pi tau}, principal branch."""
        return cmath.log(self.p) / (2 * _I_PI)

    @property
    def tau_star(self) -> complex:
        """Additive nome of p* = p q^{-2c}."""
        return cmath.log(self.p_star) / (2 * _I_PI)

    @property
    def is_elliptic(self) -> bool:
        """|p| < 1, as any R-matrix construction needs."""
        return abs(self.p) < 1 - 1e-9

    def require_elliptic(self):
        """Raise unless `is_elliptic`."""
        if not self.is_elliptic:
            raise ModulusOutOfRange(
                f"|p| = {abs(self.p):.6g} >= 1: parameters unusable for R-matrix work"
            )
        return self

    def with_c(self, c: complex) -> "EllipticParams":
        """Same (N, q, s) at a different central charge."""
        return EllipticParams(self.N, self.q, self.s, c)


def xi_of(z: complex) -> complex:
    """Principal additive spectral variable: z = e^{i pi xi}."""
    if z == 0:
        raise ZeroDivisionError("xi_of(0) undefined")
    return cmath.log(z) / _I_PI


def centred_ladder(k: int) -> list:
    """The centred half-integer ladder (1-k)/2, (3-k)/2, ..., (k-1)/2."""
    return [(2 * i - k - 1) / 2.0 for i in range(1, k + 1)]


def _charges(N: int, m: int) -> np.ndarray:
    """The Z_N charge sum_i x_i mod N of every index tuple x of m spaces, in
    row-major order: the charge Rhat conserves on its two spaces, and the
    one the tensor layer's charge sectors hold."""
    return np.indices((N,) * m).reshape(m, N**m).sum(axis=0) % N
