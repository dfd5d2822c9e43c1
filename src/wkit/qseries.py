"""Scalar special functions: q-Pochhammer products, Jacobi theta functions,
and the structure-function ladders built on them.

Conventions used throughout:

  (z; p_1,...,p_m)_inf = prod_{n_i >= 0} (1 - z p_1^{n_1} ... p_m^{n_m})
  Theta_p(z)           = (z; p) (p/z; p) (p; p)
  theta[g1,g2](xi,tau) = sum_m exp(i pi (m+g1)^2 tau + 2 i pi (m+g1)(xi+g2))

  tau_N(z) = z^{2/N-2} Theta_{q^{2N}}(q z^2) / Theta_{q^{2N}}(q z^{-2})
  U(z)     = q^{2/N-2} Theta(q^2 z^2) Theta(q^2 z^{-2})
                      / (Theta(z^2) Theta(z^{-2}))      [Theta = Theta_{q^{2N}}]

U(z) equals tau_N(q^{1/2} z) tau_N(q^{1/2}/z) wherever the principal
branches compose cleanly; the closed form above involves only even powers
of z and is therefore branch-free, which is why it is the one implemented.

The exchange-function ladder F_a(x) multiplies U along powers of a stored
root value s (the designated value of -p^{1/2}); U is even in its argument,
so every scalar here is insensitive to the sign convention chosen for s.

Every q-Pochhammer product is a call of `pochhammer2`, the one product
kernel, and every sum of e(v) = v / (1 - v) along a chain a call of
`_e_sums`, the one e-sum kernel; np.cumprod forms their chains.  Every
formula, without exception, has one body, which runs on arrays; a scalar
argument is a one-point array, and a scalar call returns a Python scalar.

Characteristic thetas are summed only by `theta_char_sums`, a batch with
one tau for all rows or one per row; `theta_char_product` is the
triple-product form the theta-identities suite checks it against.
"""

from __future__ import annotations

import cmath
import math
import threading
from fractions import Fraction

import numpy as np

from .errors import (
    BranchDomainViolation,
    ModulusOutOfRange,
    NonconvergentTau,
    OutsideConvergenceAnnulus,
    PoleHit,
    TruncationBudgetExceeded,
    WkitError,
    ZeroArgument,
)
from .params import DEFAULT_POLICY, EllipticParams, TruncationPolicy, centred_ladder

_TWO_I_PI = 2j * cmath.pi
_POLE_EPS = 1e-14


# ---------------------------------------------------------------------------
# q-Pochhammer and Jacobi theta layer
# ---------------------------------------------------------------------------
#
# Every product runs over chains of its moduli.  The chain of a modulus p
# is 1, p, p*p, ..., formed by np.cumprod in `_powers`, the one place a
# chain is formed.  A product takes the factors 1 - z w whose weight |w| is at
# least tail_eps / (|z| + 1), and raises TruncationBudgetExceeded when a
# summation index would need more than max_terms of them.
# `pochhammer2` is the one product, in numpy complex arithmetic.  p1 is one
# value, with the cached lattice of the two chains, or one per point, with
# chains formed per call; with p2 = 0 (chain 1, 0) it is (z; p1)_inf.  The
# factors are a (lattice, points) array, and the product over its leading
# axis multiplies them in lattice order, one elementwise multiply across
# the points per weight.  Each point's factors below its own threshold are
# set to 1, so its value does not depend on the batch it is in, nor on how
# deep the cached lattice was cut.  numpy reduces a one-point product with
# another complex multiply than two or more points, so a one-point call runs
# on two copies of its point.  Only lattices of at most _LATTICE_SIZE
# weights are kept.
# Each formula below (theta_big, U, tau_N, F_a, Y_mn, Y_FF, ...) has one
# body, which runs on arrays: it stacks the arguments of each formula it
# calls into one array call, down to one `pochhammer2` call.  Its first
# line hands a call from outside to `_on_grid`, which makes a scalar a
# one-point array and runs the body once, point by point where that raises.
# A cache entry is replaced, never changed in place, and every cache is
# cleared when it reaches its bound.

_CACHE_LIMIT = 128   # (p;p)_inf values kept
_LATTICE_LIMIT = 32      # lattices kept
_LATTICE_SIZE = 2 ** 15  # weights of the largest lattice kept, 24 bytes each

_PP = {}        # (p, policy) -> (p; p)_inf
_LATTICES = {}  # (p1, p2, max_terms) -> a fixed-p1 lattice of pochhammer2
_STORE_LOCK = threading.Lock()


def _store(cache: dict, key, value, limit: int = _CACHE_LIMIT):
    """Put value under key, emptying a full cache first (under a lock, so
    concurrent callers keep the bound)."""
    with _STORE_LOCK:
        if len(cache) >= limit:
            cache.clear()
        cache[key] = value
    return value


def _check_modulus(p):
    """Raise if |p| is not below 1 - 1e-6 (NaN fails too); an array p
    raises for its first such entry."""
    if isinstance(p, np.ndarray):
        bad = np.flatnonzero(~(np.abs(p) < 1 - 1e-6))
        p = p.flat[bad[0]] if bad.size else 0j
    if not abs(p) < 1 - 1e-6:
        raise ModulusOutOfRange(f"|modulus| = {abs(p):.8g} too close to 1")


def _powers(p: np.ndarray, t, T: int):
    """The chains 1, p, p*p, ... of the moduli p along a new leading axis,
    by np.cumprod, and |p^T| (-1 for chains that end before T), against
    which a point whose threshold is at most that needs more than T factors.
    The chains hold T + 1 entries, or two past the last power any threshold
    of t takes: |p^k| < t from k = log t / log|p| on, and with
    |p| < 1 - 1e-6 the rounding of the products cannot delay that a step.
    A zero p gives 1, 0, 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        need = float(np.max(np.where(p == 0, 0.0, np.log(t) / np.log(np.abs(p))), initial=0.0))
    n = min(int(need) + 3, T + 1) if need < T else T + 1
    chains = np.ones((n,) + p.shape, dtype=complex)
    np.cumprod(np.broadcast_to(p, (n - 1,) + p.shape), axis=0, out=chains[1:])
    return chains, (np.abs(chains[T]) if n > T else -1.0)


def _weights(p1: np.ndarray, p2: complex, t, low: float, T: int):
    """The weights p1^i p2^j in (i, j) order along the leading axis, from
    the chains of `_powers` for the thresholds t (the p2 row cut below low,
    the least of them), with |p2^T| and |p1^T|."""
    row, over1 = _powers(np.array(p2), low, T)
    row = row[np.abs(row) >= low]
    head, over0 = _powers(p1, t, T)
    if row.size > 1:
        head = (head[:, None] * row.reshape(row.shape + (1,) * p1.ndim)).reshape((-1,) + p1.shape)
    return head, over1, over0


def pochhammer2(zs, p1, p2: complex, policy: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """(z; p1, p2)_inf for every z of zs, as a complex array; (z; p1, 0)_inf
    is (z; p1)_inf.  p1 is one value or one per z.  Raises what the first z
    to fail would raise in a call of its own; with one p1 per z, a modulus
    out of range anywhere raises first."""
    p2, T = complex(p2), policy.max_terms
    z = np.asarray(zs, dtype=complex)
    per_point = isinstance(p1, (list, tuple, np.ndarray))
    p1 = np.broadcast_to(np.asarray(p1, dtype=complex), z.shape) if per_point else complex(p1)
    _check_modulus(p1)
    _check_modulus(p2)
    size = np.abs(z)
    thresh = policy.tail_eps / (size + 1.0)
    live = size > 0  # a zero z gives 1, a NaN z NaN
    every = live.all()
    t = thresh.ravel() if every else thresh[live]
    n = t.size
    if not n:
        return np.where(z == 0, 1.0 + 0j, complex(math.nan, math.nan))
    zl = z.ravel() if every else z[live]
    if per_point:
        p1 = p1.ravel() if every else p1[live]
    if n == 1:  # two copies of the one point: a one-lane product rounds otherwise
        zl, t = np.repeat(zl, 2), np.repeat(t, 2)
        p1 = np.repeat(p1, 2) if per_point else p1
    low = float(t.min())
    if per_point:
        lat, over1, over0 = _weights(p1, p2, t, low, T)
        mag, head = np.abs(lat), 0
    else:
        lat, mag, _, over1, over0 = _lattice(p1, p2, low, T)
        head = int(np.argmin(mag >= t.max()))  # the weights before it are above every threshold
        lat, mag = lat[:, None], mag[head:, None]
    over = np.maximum(over1, over0) if per_point else max(over1, over0)
    if per_point or low <= over:  # the first failing z raises; index 1 is checked first
        fails = t <= over
        if fails.any():
            index = 1 if t[fails.argmax()] <= over1 else 0
            raise TruncationBudgetExceeded(f"pochhammer index {index} needs more than {T} factors")
    f = np.multiply(lat, zl, out=lat if per_point else None)  # in place where lat is this call's own
    np.subtract(1, f, out=f)
    np.copyto(f[head:], 1, where=mag < t)  # below each point's own threshold
    v = f.prod(axis=0)[:n]
    if every:
        return v.reshape(z.shape)
    out = np.where(z == 0, 1.0 + 0j, complex(math.nan, math.nan))
    out[live] = v
    return out


def _lattice(p1: complex, p2: complex, low: float, T: int):
    """The cached lattice of (p1, p2, T) that covers `low`: the weights
    p1^i p2^j of magnitude >= low in (i, j) order, their magnitudes, the
    `low` it was cut at, and |p2^T| and |p1^T| (-1 for a chain that ends
    before T), against which a z whose threshold is at most one needs more
    than T factors along the first row (index 1) or down the p1 chain
    (index 0).  A lattice cut lower holds more weights, each below every
    threshold that uses it, so a product's value does not depend on it."""
    key = (p1, p2, T)
    lattice = _LATTICES.get(key)
    if lattice is not None and lattice[2] <= low:
        return lattice
    lat, over1, over0 = _weights(np.array(p1), p2, low, low, T)
    mag = np.abs(lat)
    keep = mag >= low
    lat, mag = lat[keep], mag[keep]
    lat.flags.writeable = mag.flags.writeable = False
    lattice = (lat, mag, low, float(over1), float(over0))
    return _store(_LATTICES, key, lattice, _LATTICE_LIMIT) if lat.size <= _LATTICE_SIZE else lattice


def _pp(p: complex, policy: TruncationPolicy) -> complex:
    """(p; p)_inf, cached per (p, policy)."""
    val = _PP.get((p, policy))
    if val is None:
        val = _store(_PP, (p, policy), complex(pochhammer2([p], p, 0, policy)[0]))
    return val


def pochhammer(z: complex, moduli, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Truncated product (z; p)_inf or (z; p1, p2)_inf.

    Includes every lattice point whose weight |p_1^{n_1} p_2^{n_2}| is at
    least tail_eps / (|z| + 1); smaller weights change the product by less
    than the tail tolerance.
    """
    if len(moduli) not in (1, 2):
        raise ValueError(f"pochhammer takes one or two moduli, got {len(moduli)}")
    return complex(pochhammer2([z], moduli[0], moduli[1] if len(moduli) == 2 else 0, policy)[0])


# ---------------------------------------------------------------------------
# Formulas on arrays
# ---------------------------------------------------------------------------

class _Batch(threading.local):
    active = False  # an array evaluation is running on this thread


_BATCH = _Batch()


def _on_grid(fn, *args):
    """fn(*args) once, its array arguments broadcast together, flattened and
    made complex, and each result (one, or a tuple) reshaped to their shape;
    a 0-d argument is a one-point array, and gives Python scalars.  The
    formulas fn calls meanwhile run on arrays directly.  If that raises, fn
    runs on each point's one-point arrays in turn, which raises the first
    failing point's exception.  Each formula's first line sends a call from
    outside such an evaluation here, its point arguments as arrays."""
    shape = np.broadcast_shapes(*(a.shape for a in args if isinstance(a, np.ndarray)))
    flat = [np.broadcast_to(np.asarray(a, dtype=complex), shape).ravel() if isinstance(a, np.ndarray) else a
            for a in args]
    size = math.prod(shape)

    def run(args, n):
        got = fn(*args)
        return [v if np.shape(v) == (n,) else np.full(n, v) for v in (got if isinstance(got, tuple) else (got,))]

    _BATCH.active = True
    try:
        with np.errstate(all="ignore"):
            try:
                outs = run(flat, size)
            except (WkitError, ArithmeticError):
                if size == 1:
                    raise
                points = [run([a[i:i + 1] if isinstance(a, np.ndarray) else a for a in flat], 1)
                          for i in range(size)]
                outs = [np.concatenate(v) for v in zip(*points)]
    finally:
        _BATCH.active = False
    outs = [v.reshape(shape) if shape else v.item() for v in outs]
    return tuple(outs) if len(outs) > 1 else outs[0]


def _each(fn, args, arg, policy) -> list:
    """[fn(v, arg, policy) for v in args], by one call of fn on their
    concatenation."""
    return list(fn(np.concatenate(args), arg, policy).reshape(len(args), -1)) if args else []


def _at(x: np.ndarray, mask: np.ndarray) -> complex:
    """The first point of x where mask holds."""
    return complex(x[mask.argmax()])


def theta_big(z: complex, p: complex, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Jacobi Theta_p(z) = (z;p) (p/z;p) (p;p).  z and p are each one value
    or an array (a nome per point); one `pochhammer2` call, which takes
    (p;p) too when p is an array."""
    if not _BATCH.active:
        return _on_grid(theta_big, np.asarray(z), p, policy)
    if (z == 0).any():
        raise ZeroArgument("Theta_p(0) undefined")
    if isinstance(p, np.ndarray):
        z, p = np.broadcast_arrays(z, p)
        a, b, c = pochhammer2(np.array([z, p / z, p]), np.array([p, p, p]), 0, policy)
        return a * b * c
    a, b = pochhammer2(np.array([z, p / z]), complex(p), 0, policy)
    return a * b * _pp(complex(p), policy)


def _lattice_sums(alpha, beta, tau, policy: TruncationPolicy) -> np.ndarray:
    """sum_m exp(i pi tau[k] (m + alpha[k])^2 + 2 i pi (m + alpha[k]) beta[k])
    for each row k, alpha possibly complex, in one window.

    With x = m + Re alpha, log|term| is the parabola
    -pi Im tau (x - x0)^2 + h with x0 = -(Re tau Im alpha + Im beta) / Im tau.
    The window starts at half-width sqrt((ln(1/tail_eps) + h) / (pi Im tau))
    + 3 around each x0, with the largest h and the smallest Im tau of the
    rows, and doubles until the two outermost terms on each wing of every
    sum are below tail_eps (1 + |sum|); past max_terms it raises.
    """
    y = alpha.imag
    peak = -(tau.real * y + beta.imag) / tau.imag
    height = math.pi * tau.imag * (peak * peak + y * y) - 2 * math.pi * y * beta.real
    spread = max(math.log(1 / policy.tail_eps) + float(height.max(initial=0)), 0.0)
    half = math.sqrt(spread / (math.pi * tau.imag.min(initial=math.inf))) + 3
    W = int(half) if half < policy.max_terms else policy.max_terms  # NaN too
    centre = (np.rint(peak - alpha.real) + alpha)[:, None]
    quad = (1j * cmath.pi * tau)[:, None]  # == Python's product: 1j*pi has a zero part
    arg = _TWO_I_PI * beta[:, None]
    while True:
        a = centre + np.arange(-W, W + 1)
        with np.errstate(all="ignore"):  # an overflowing sum fails the tail rule
            terms = np.exp(quad * (a * a) + arg * a)
            acc = terms.sum(axis=1)
            edge = np.abs(terms[:, [0, 1, -2, -1]]).max(axis=1, initial=0)
        if (edge < policy.tail_eps * (1 + np.abs(acc))).all():
            return acc
        if W >= policy.max_terms:
            raise TruncationBudgetExceeded("theta series did not meet tail bound")
        W = min(2 * W, policy.max_terms)


def _image_sums(g1, u, tau, policy: TruncationPolicy) -> np.ndarray:
    """The rows of `theta_char_sums` on the modular image -1/tau, u = xi + g2.
    (-i tau)^{1/2} and -1/tau are formed per row in Python complex
    arithmetic, the rounding of a one-tau call."""
    taus = tau.tolist()
    root = np.array([cmath.sqrt(-1j * t) for t in taus])
    dual = np.array([-1 / t for t in taus])
    return np.exp(_TWO_I_PI * g1 * u) / root * _lattice_sums(u, -g1 + 0j, dual, policy)


def theta_char_sums(g1s, g2s, xi, tau, policy: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """theta[g1s[k], g2s[k]](xi[k], tau[k]) for every k, by lattice sums.

    g1s, g2s and xi broadcast together, and the result is flat, one value
    per row; tau is one value or one per row.  Rows with
    |tau| >= 1 sum the defining series in one window; the other rows sum
    the series of the modular image (Poisson summation over m),

        theta[g1,g2](xi, tau) = (-i tau)^{-1/2} e^{2 i pi g1 u}
            sum_n exp(-i pi (n + u)^2 / tau - 2 i pi (n + u) g1),  u = xi + g2,

    whose nome Im(-1/tau) = Im tau / |tau|^2 is the larger one, in a second
    window.  That also avoids the cancellation of the defining series at
    small Im tau: at p = 0.6 its terms are 10^4 times a g2 = 1/2 value.
    """
    arrays = (np.asarray(g1s, dtype=float), np.asarray(xi, dtype=complex) + np.asarray(g2s, dtype=float),
              np.asarray(tau, dtype=complex))
    shape = np.broadcast(*arrays).shape  # np.broadcast_arrays is slow on a one-value tau
    g1, u = (np.full(shape, v).ravel() for v in arrays[:2])
    tau = arrays[2].reshape(1) if arrays[2].ndim == 0 else np.full(shape, arrays[2]).ravel()
    low = tau.imag < 1e-6
    if low.any():
        raise NonconvergentTau(f"Im tau = {tau.imag[low].min():.3g} < 1e-6")
    if tau.size == 1:  # one tau: every row on the same side, (-i tau)^{1/2} formed once
        if abs(tau[0]) >= 1:
            return _lattice_sums(g1.astype(complex), u, tau, policy)
        return _image_sums(g1, u, tau, policy)
    series = np.abs(tau) >= 1
    image = ~series
    out = np.empty(u.shape, dtype=complex)
    if series.any():  # summing no rows still costs about 40 us, an eighth of an N = 3 build
        out[series] = _lattice_sums(g1[series].astype(complex), u[series], tau[series], policy)
    if image.any():
        out[image] = _image_sums(g1[image], u[image], tau[image], policy)
    return out


def theta_char_product(g1, g2, xi: complex, tau: complex,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """theta[g1,g2](xi, tau) through the triple-product form.

    With p = e^{2 i pi tau} and z = e^{i pi xi}:
        (-1)^{2 g1 g2} p^{g1^2/2} z^{2 g1} Theta_p(-e^{2 i pi g2} p^{g1+1/2} z^2).
    All fractional powers are taken as exponentials of the additive
    variables, which keeps the two forms equal for every branch of xi.
    """
    if not _BATCH.active:
        return _on_grid(theta_char_product, g1, g2, np.asarray(xi), tau, policy)
    if np.any(tau.imag < 1e-6):
        raise NonconvergentTau(f"Im tau = {np.min(tau.imag):.3g} < 1e-6")
    p = np.exp(_TWO_I_PI * tau)
    phase = np.exp(1j * cmath.pi * 2 * g1 * g2)
    ppow = np.exp(1j * cmath.pi * tau * g1 * g1)
    zpow = np.exp(_TWO_I_PI * g1 * xi)
    arg = -np.exp(_TWO_I_PI * g2) * np.exp(_TWO_I_PI * tau * (g1 + 0.5)) * np.exp(_TWO_I_PI * xi)
    return phase * ppow * zpow * theta_big(arg, p, policy)


# ---------------------------------------------------------------------------
# tau_N / U / kappa layer
# ---------------------------------------------------------------------------

def tau_N(z: complex, params: EllipticParams,
          policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """tau_N(z) = z^{2/N-2} Theta_{q^{2N}}(q z^2) / Theta_{q^{2N}}(q z^{-2}).

    Principal branch for the fractional power; q^N-periodic and satisfies
    tau_N(1/z) = 1/tau_N(z) on the principal-branch-safe domain.
    """
    if not _BATCH.active:
        return _on_grid(tau_N, np.asarray(z), params, policy)
    if (z == 0).any():
        raise ZeroArgument("tau_N(0) undefined")
    q, N = params.q, params.N
    P = q ** (2 * N)
    den, num = _each(theta_big, [q / (z * z), q * z * z], P, policy)
    pole = abs(den) < _POLE_EPS
    if pole.any():
        raise PoleHit(f"tau_N denominator theta ~ 0 at z = {_at(z, pole)}")
    return z ** (2.0 / N - 2.0) * num / den


def U(z: complex, params: EllipticParams,
      policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The unitarity scalar U(z); independent of p and c, even in z <-> 1/z."""
    if not _BATCH.active:
        return _on_grid(U, np.asarray(z), params, policy)
    if (z == 0).any():
        raise ZeroArgument("U(0) undefined")
    q, N = params.q, params.N
    P = q ** (2 * N)
    z2 = z * z
    d1, d2, n1, n2 = _each(theta_big, [z2, 1 / z2, q * q * z2, q * q / z2], P, policy)
    pole = (abs(d1) < _POLE_EPS) | (abs(d2) < _POLE_EPS)
    if pole.any():
        raise PoleHit(f"U(z) pole at z = {_at(z, pole)}")
    return q ** (2.0 / N - 2.0) * (n1 * n2) / (d1 * d2)


def kappa_inv(z2: complex, params: EllipticParams,
              policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Normalization 1/kappa(z^2): ratio of eight double-modulus products.
    z2 is one value or an array, whose products are one `pochhammer2` call;
    an array raises for its first pole."""
    q, p, N = params.q, params.p, params.N
    if abs(p) >= 1 - 1e-6 or abs(q ** (2 * N)) >= 1 - 1e-6:
        raise ModulusOutOfRange("kappa needs |p| < 1 and |q^(2N)| < 1")
    P, qq = q ** (2 * N), q * q
    up = np.multiply.outer([qq, p * P / qq, P, p], z2)       # c z^2
    down = np.divide.outer([P, p, qq, p * P / qq], z2)       # c / z^2
    v = pochhammer2(np.concatenate((down[:2], up, down[2:])), p, P, policy).reshape(8, -1)
    # lane by lane, as in a batch of any size (a one-lane prod rounds otherwise)
    num, den = v[0] * v[1] * v[2] * v[3], v[4] * v[5] * v[6] * v[7]
    pole = abs(den) < _POLE_EPS * (1 + abs(num))
    if np.any(pole):
        raise PoleHit(f"kappa denominator ~ 0 at z2 = {complex(np.ravel(z2)[pole.argmax()])}")
    return (num / den).reshape(np.shape(z2))[()]


# ---------------------------------------------------------------------------
# Exchange-function ladders
# ---------------------------------------------------------------------------

def F_a(x: complex, a: int, s_val: complex, params: EllipticParams,
        policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Ladder F_a(x): product of U along powers of the root value s_val.

    F_a(x) = prod_{l=0}^{a-1} U(s_val^l x)          for a > 0
           = 1                                       for a = 0
           = prod_{l=1}^{|a|} U(s_val^{-l} x)^{-1}   for a < 0
    """
    if not _BATCH.active:
        return _on_grid(F_a, np.asarray(x), a, s_val, params, policy)
    return _ladders([(x, a, s_val)], params, policy)[0]


def _ladders(ladders, params: EllipticParams, policy: TruncationPolicy) -> list:
    """F_a(x) for each (x, a, s_val) of ladders, with one U call over every
    ladder point."""
    points, out = [], []
    for x, a, s_val in ladders:
        if (x == 0).any():
            raise ZeroArgument("F_a(0) undefined")
        points += [s_val**l * x for l in (range(a) if a > 0 else range(-1, a - 1, -1))]
    us = iter(_each(U, points, params, policy))
    for _, a, _ in ladders:
        val = 1.0 + 0j
        for _ in range(abs(a)):
            val = val * next(us) if a > 0 else val / next(us)
        out.append(val)
    return out


def Y_mn_forms(x: complex, m: int, n: int, params: EllipticParams,
               policy: TruncationPolicy = DEFAULT_POLICY):
    """Both written forms of the quadratic exchange function Y_{m,n}(x).

    form1 = F*_n(x) F_m(s*^n x) / (F*_n(s*^{-n} x) F_m(x))
    form2 = F*_n(x) F*_{-n}(x) / (F_m(x) F_{-m}(x))  = Y_mn(x)

    The two coincide exactly on the surface s^m s*^n = q^{-N}; the returned
    triple (form1, form2, |form1-form2|) makes the agreement checkable.
    """
    if not _BATCH.active:
        return _on_grid(Y_mn_forms, np.asarray(x), m, n, params, policy)
    s, ss = params.s, params.s_star
    Fn, Fm, Fm_up, Fn_down, Fn_inv, Fm_inv = _ladders(
        [(x, n, ss), (x, m, s), (ss**n * x, m, s), (ss ** (-n) * x, n, ss), (x, -n, ss), (x, -m, s)],
        params, policy)
    f1 = Fn * Fm_up / (Fn_down * Fm)
    f2 = Fn * Fn_inv / (Fm * Fm_inv)
    return f1, f2, abs(f1 - f2)


def Y_mn(x: complex, m: int, n: int, params: EllipticParams,
         policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Quadratic exchange function Y_{m,n}(x), second (ladder-ratio) form."""
    if not _BATCH.active:
        return _on_grid(Y_mn, np.asarray(x), m, n, params, policy)
    s, ss = params.s, params.s_star
    Fn, Fm, Fn_inv, Fm_inv = _ladders([(x, n, ss), (x, m, s), (x, -n, ss), (x, -m, s)], params, policy)
    return Fn * Fn_inv / (Fm * Fm_inv)


def Y_mn_grid(xs, m: int, n: int, params: EllipticParams,
              policy: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Y_mn(x, m, n, params, policy) at every point of xs, as a complex
    array, 32 points at a time: a point stacks 16 (|m| + |n|) products,
    and its value does not depend on the batch it is in.  Larger chunks
    pay less call overhead but hold more memory: the abelianity sweep of
    800 points at q = 0.8, N = 3 adds 1.1 MB to the peak RSS at 16 points,
    2.9 MB at 32 and 11.5 MB at 128."""
    x = np.asarray(xs, dtype=complex)
    return np.concatenate([Y_mn(x.ravel()[i:i + 32], m, n, params, policy)
                           for i in range(0, x.size, 32)] or [x]).reshape(x.shape)


def Y_FF(x: complex, params: EllipticParams,
         policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Closed eight-theta form of the unitary-gauge exchange function
    for the (m, n) = (2, -1) surface.  Theta = Theta_{q^{2N}} throughout."""
    if not _BATCH.active:
        return _on_grid(Y_FF, np.asarray(x), params, policy)
    if (x == 0).any():
        raise ZeroArgument("Y_FF(0) undefined")
    q, N, c = params.q, params.N, params.c
    P = q ** (2 * N)
    x2 = x * x
    qc2 = cmath.exp(2 * c * cmath.log(q))  # q^(2c), principal
    th = _each(theta_big, [1 / x2, q * q / x2, q * q * qc2 * x2, x2 / qc2,
                           x2, q * q * x2, 1 / (qc2 * x2), q * q * qc2 / x2], P, policy)
    num = th[0] * th[1] * th[2] * th[3]
    den = th[4] * th[5] * th[6] * th[7]
    pole = abs(den) < _POLE_EPS * (1 + abs(num))
    if pole.any():
        raise PoleHit(f"Y_FF pole at x = {_at(x, pole)}")
    return num / den


def Y_kkprime_cr(x: complex, k: int, kprime: int, params: EllipticParams,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Fused exchange ratio prod_{i,j} U(q^{i-j} x) / U(q^{i-j-c} x) over the
    centred half-integer ladders of sizes k and k'.  Equals 1 at c = -N."""
    N = params.N
    if not (1 <= k <= N and 1 <= kprime <= N):
        raise ValueError(f"need 1 <= k, k' <= N, got k={k}, k'={kprime}, N={N}")
    q, c = params.q, params.c
    # one U call over the pairs, numerator then denominator, so the first pole
    # raised is the first in the loop over i and j; a pair of equal points
    # (c = 0) is 1 exactly, not a division's rounding
    points = np.array([(q**d * x, q ** (d - c) * x) for d in (ti - tj for ti in centred_ladder(k)
                                                             for tj in centred_ladder(kprime))])
    u = U(points.ravel(), params, policy).reshape(-1, 2)
    return complex(np.prod(np.where(points[:, 0] == points[:, 1], 1, u[:, 0] / u[:, 1])))


# ---------------------------------------------------------------------------
# Critical-level Poisson structure functions
# ---------------------------------------------------------------------------

def _e_sums(ws, x: np.ndarray, Q: complex, policy: TruncationPolicy, pole: str, budget: str) -> np.ndarray:
    """S(w; u) = sum_{l>=0} [e(w Q^l u) - e(w Q^l / u)], e(v) = v / (1 - v), at
    u = x^2, a row per w of ws, a column per point of x.  It takes the weights
    Q^l of `_powers` with |w Q^l| >= tail_eps / (|u| + |1/u|), none at u within
    1e-12 of 1 (both callers give 0 there), and adds its terms by np.cumsum,
    which rounds the same in every batch, as a sum does not.  The first point
    to fail raises PoleHit("<pole> at x = ...") if one of its first max_terms
    terms is within _POLE_EPS of a pole of e, else, if it needs more terms,
    TruncationBudgetExceeded(budget)."""
    u = x * x
    w = np.array(ws, dtype=complex)[:, None]
    t = policy.tail_eps / (abs(u) + abs(1 / u)) / abs(w)  # (w, point): the least |Q^l| taken
    t[:, abs(u - 1) < 1e-12] = math.inf
    chain, over = _powers(np.array(Q), t, policy.max_terms)
    take = abs(chain)[:, None, None] >= t
    wQ = chain[:, None, None] * w
    a, b = wQ * u, wQ / u
    near = take & ((abs(1 - a) < _POLE_EPS) | (abs(1 - b) < _POLE_EPS))
    poles = near[:policy.max_terms].any(axis=(0, 1))
    fails = poles | (t <= over).any(axis=0)
    if fails.any():
        if poles[fails.argmax()]:
            raise PoleHit(f"{pole} at x = {_at(x, fails)}")
        raise TruncationBudgetExceeded(budget)
    return np.cumsum(np.where(take, a / (1 - a) - b / (1 - b), 0), axis=0)[-1]


def I_series(x: complex, params: EllipticParams,
             policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The antisymmetric kernel I(x) of the critical Poisson bracket:

        I(x) = sum_{l>=0} e(x^2 q^{2Nl}) - e(x^2)/2 - (x <-> 1/x)
             = S(1; x^2) - (1 + x^2) / (2 (1 - x^2))

    with S of `_e_sums` over Q = q^{2N}.  At x^2 = 1 the two wings collide on
    one simple pole, and I = 0, the principal value that I(1/x) = -I(x) forces.
    """
    if not _BATCH.active:
        return _on_grid(I_series, np.asarray(x), params, policy)
    if (x == 0).any():
        raise ZeroArgument("I(0) undefined")
    u = x * x
    S = _e_sums([1], x, params.q ** (2 * params.N), policy,
                "I(x) pole: x^2 collides with q^(2Nl) lattice", "I(x) lattice sum did not converge")
    return np.where(abs(u - 1) < 1e-12, 0, S[0] - (1 + u) / (2 * (1 - u)))


def f_cr_series(x: complex, k: int, kprime: int, params: EllipticParams,
                policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Critical Poisson structure function from the I-kernel:

        f_cr(x) = 2 ln q * sum_{i,j} (2 I(q^d x) - I(q^{d+1} x) - I(q^{d-1} x))

    with d = i - j over the centred half-integer ladders, by one `I_series`
    call.  Its sign makes f_cr equal d/dc of the fused exchange ratio at
    c = -N; the mode expansion f_cr_modes is the independent cross-check.
    """
    if not _BATCH.active:
        return _on_grid(f_cr_series, np.asarray(x), k, kprime, params, policy)
    ds = [ti - tj for ti in centred_ladder(k) for tj in centred_ladder(kprime)]
    shifts = np.array([params.q ** e for d in ds for e in (d, d + 1, d - 1)])
    vals = I_series((shifts[:, None] * x).ravel(), params, policy).reshape(len(ds), 3, -1)
    return 2 * cmath.log(params.q) * np.cumsum(2 * vals[:, 0] - vals[:, 1] - vals[:, 2], axis=0)[-1]


def f_cr_modes(x: complex, k: int, kprime: int, params: EllipticParams,
               policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Critical Poisson structure function from its mode expansion

        f_cr(x) = -2 (q - 1/q) ln q * sum_{r in Z} A_r x^{2r},
        A_r = [(N-max) r]_q [min r]_q / [N r]_q
            = g^r (1 - a^r) (1 - b^r) / ((1 - c^r) (1/q - q)),

    max and min of k and k', [n]_q = (q^n - q^{-n})/(q - q^{-1}), A_0 = 0,
    A_{-r} = -A_r, g = q^{max-min}, a = q^{2(N-max)}, b = q^{2 min} and
    c = q^{2N}.  With 1/(1 - c^r) = sum_l c^{lr} and sum_{r>=1} v^r = e(v),
    the modes sum exactly to f_cr(x) = 2 ln q [S(g) + S(gab) - S(ga) - S(gb)],
    with S the e-sums of `_e_sums` at u = x^2.

    The mode sum converges on |q| < |x| < 1/|q| only; outside that annulus
    this raises OutsideConvergenceAnnulus.  At x^2 = 1 the value is 0.
    """
    if not _BATCH.active:
        return _on_grid(f_cr_modes, np.asarray(x), k, kprime, params, policy)
    if (x == 0).any():
        raise ZeroArgument("f_cr_modes(0) undefined")
    q, N = params.q, params.N
    outside = ~((abs(q) < abs(x)) & (abs(x) < 1 / abs(q)))
    if outside.any():
        raise OutsideConvergenceAnnulus(f"|x| = {abs(_at(x, outside)):.6g} outside (|q|, 1/|q|) = "
                                        f"({abs(q):.6g}, {1/abs(q):.6g})")
    M, mn = max(k, kprime), min(k, kprime)
    if M == N:
        return np.zeros(x.shape, dtype=complex)  # [(N-max) r]_q = [0]_q = 0 for every mode
    g, a, b = q ** (M - mn), q ** (2 * (N - M)), q ** (2 * mn)
    S = _e_sums([g, g * a * b, g * a, g * b], x, q ** (2 * N), policy,
                "f_cr_modes pole: x^2 = q^(min-max)", "f_cr_modes remainder did not converge")
    return 2 * cmath.log(q) * (S[0] + S[1] - S[2] - S[3])


# ---------------------------------------------------------------------------
# Abelianity branches
# ---------------------------------------------------------------------------

def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x).limit_denominator(10**6)


def resolve_abelian_branch(branch: str, N: int, q: complex, m: int, n: int,
                           lam=None) -> EllipticParams:
    """Resolve (s, s*, c) for one abelianity branch.

    branch abel1: |m|,|n| > 1, lam integer != 0 with lam' = 1 - lam != 0:
        c = N (lam' m - lam n)/(n m),  s = q^{-N lam/m},  s* = q^{-N lam'/n}.
    branch abel2: |n| = 1: c = N n (1 - lam (m+n)), s = q^{-N lam},
        s* = q^{-N n (1 - lam m)}; lam in Z/2 or Z/u, u | m or u | m+n.
    branch abel3: |m| = 1: mirror of abel2 with lam playing lam'.
    branch abel4: m + n = 0, n > 0 odd: c = N/n,
        s = q^{-N(n-1)/(2n)},  s* = q^{-N(n+1)/(2n)}  (lam unused).

    Every branch lands on the surface s^m s*^n = q^{-N}; the returned
    parameter bundle stores s and c (s* follows from them).
    """

    def qpow(e) -> complex:
        return cmath.exp(complex(e) * cmath.log(q))

    def need_lam(divides=(), names=""):
        """lam as a Fraction; its denominator must divide 2 or one of `divides`."""
        if lam is None:
            raise BranchDomainViolation(f"{branch} needs a lam value")
        lam_f = _as_fraction(lam)
        dens = {1, 2}.union(*(_divisors(abs(v)) for v in divides))
        if divides and lam_f.denominator not in dens:
            raise BranchDomainViolation(
                f"{branch} lam denominator {lam_f.denominator} must divide 2, {names}")
        return lam_f

    if branch == "abel1":
        if abs(m) <= 1 or abs(n) <= 1:
            raise BranchDomainViolation("abel1 needs |m| > 1 and |n| > 1")
        lam = need_lam()
        lamp = 1 - lam
        if lam.denominator != 1 or lam == 0 or lamp == 0:
            raise BranchDomainViolation("abel1 needs nonzero integers lam, 1-lam")
        c = Fraction(N) * (lamp * m - lam * n) / (n * m)
        s = qpow(Fraction(-N) * lam / m)
    elif branch == "abel2":
        if abs(n) != 1:
            raise BranchDomainViolation("abel2 needs |n| = 1")
        lam = need_lam((m, m + n), "m, or m+n")
        c = Fraction(N * n) * (1 - lam * (m + n))
        s = qpow(-N * lam)
    elif branch == "abel3":
        if abs(m) != 1:
            raise BranchDomainViolation("abel3 needs |m| = 1")
        lam = need_lam((n, n + m), "n, or n+m")
        c = Fraction(N * m) * (lam * (n + m) - 1)
        s = qpow(Fraction(-N * m) * (1 - lam * n))
    elif branch == "abel4":
        if m != -n or n <= 0 or n % 2 == 0:
            raise BranchDomainViolation("abel4 needs m = -n with n > 0 odd")
        c = Fraction(N, n)
        s = qpow(Fraction(-N * (n - 1), 2 * n))
    else:
        raise BranchDomainViolation(f"unknown branch {branch!r}")
    return EllipticParams(N=N, q=q, s=s, c=complex(c))


def _divisors(v: int):
    return {d for d in range(1, abs(v) + 1) if v % d == 0} if v else set()

