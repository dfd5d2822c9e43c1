"""Dense labeled tensor-space engine.

A LabeledTensor is a dense complex operator on an ordered list of labeled
N-dimensional spaces.  `@` and `-` combine operators on the same set of
spaces, reordering the right operand to the left one's order; `compose`
multiplies factors on different spaces, such as the two-space R-factors,
into one dense operator.  Partial transposes over named spaces act on one
operator.

The antisymmetrizer A_k is held only as the orthonormal basis V of its
image, A_k = V V^T with C(N,k) columns.  `antisym_trace`, the one trace
against A_k, runs on Lambda^k, the antisymmetric auxiliary space of the
fusion procedure (Kulish, Reshetikhin, Sklyanin, Lett. Math. Phys. 5
(1981) 393), and never on the N^k rows of V.

The projector residuals ||X A - A X A|| of the fusion identities use the
Z_N grading of Belavin's R-matrix: Rhat conserves the charge x_a + x_b
mod N, so only N^3 of its N^4 entries are nonzero.  `_projector_residual`
checks that every gate conserves the one charge sum_i x_i mod N (refusing
a gate that breaks it), holds the columns v_c (x) e_j of one total charge
on the N^(n-1) rows of their sector, and applies each two-space gate there
as one gather and one batched matmul of N x N blocks.

Every dense allocation goes through one guard: it may hold at most
WKIT_MAX_DIM^2 entries, so a D x D operator needs D <= WKIT_MAX_DIM.

All operations allocate fresh results; nothing here mutates shared state.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import ChargeViolation, DimensionGuardExceeded, LabelMismatch
from .params import _charges, centred_ladder, xi_of
from .qseries import _store

_DEFAULT_MAX_DIM = 10_000
_BASES = {}  # (k, N) -> the read-only basis V of im A_k
_STEPS = {}  # (j, N) -> the read-only step B_j from V_{j-1} (x) 1 to V_j


def _max_dim() -> int:
    return int(os.environ.get("WKIT_MAX_DIM", _DEFAULT_MAX_DIM))


def _guard(entries: int, what: str):
    """Refuse to allocate `what`, an array of `entries` entries, beyond
    WKIT_MAX_DIM^2."""
    m = _max_dim()
    if entries > m * m:
        raise DimensionGuardExceeded(
            f"{what} of {entries} entries exceeds guard {m}^2 = {m * m} "
            f"(override with WKIT_MAX_DIM)"
        )


@dataclass(frozen=True)
class LabeledTensor:
    """Dense operator on ordered labeled spaces, each of dimension N."""

    labels: tuple
    N: int
    data: np.ndarray  # shape (N^k, N^k)

    def __post_init__(self):
        k = len(self.labels)
        if len(set(self.labels)) != k:
            raise LabelMismatch(f"duplicate labels in {self.labels}")
        if self.data.shape != (self.N**k, self.N**k):
            raise LabelMismatch(
                f"data shape {self.data.shape} does not match {k} spaces of dim {self.N}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix, labels, N: int) -> "LabeledTensor":
        return cls(tuple(labels), N, np.asarray(matrix, dtype=complex))

    # -- label plumbing -----------------------------------------------------

    def reorder(self, new_labels) -> "LabeledTensor":
        """Same operator with spaces listed in a different order."""
        new_labels = tuple(new_labels)
        if set(new_labels) != set(self.labels):
            raise LabelMismatch(f"cannot reorder {self.labels} as {new_labels}")
        if new_labels == self.labels:
            return self
        k = len(self.labels)
        perm = [self.labels.index(l) for l in new_labels]
        t = self.data.reshape([self.N] * (2 * k))
        t = t.transpose(perm + [k + p for p in perm])
        return LabeledTensor(new_labels, self.N, t.reshape(self.data.shape))

    # -- algebra ------------------------------------------------------------

    def _same_spaces(self, other: "LabeledTensor") -> np.ndarray:
        """other's data with its spaces in self's order."""
        if self.N != other.N or set(self.labels) != set(other.labels):
            raise LabelMismatch(
                f"operands on {self.labels} (N={self.N}) and {other.labels} "
                f"(N={other.N}) act on different spaces; multiply them with "
                f"tensor.compose")
        return other.reorder(self.labels).data

    def __matmul__(self, other: "LabeledTensor") -> "LabeledTensor":
        return LabeledTensor(self.labels, self.N, self.data @ self._same_spaces(other))

    def __sub__(self, other: "LabeledTensor") -> "LabeledTensor":
        return LabeledTensor(self.labels, self.N, self.data - self._same_spaces(other))

    def __mul__(self, scalar) -> "LabeledTensor":
        return LabeledTensor(self.labels, self.N, self.data * complex(scalar))

    __rmul__ = __mul__

    def inv(self) -> "LabeledTensor":
        return LabeledTensor(self.labels, self.N, np.linalg.inv(self.data))

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    # -- contractions -------------------------------------------------------

    def partial_transpose(self, labels) -> "LabeledTensor":
        """Transpose on the named space(s), identity on the rest."""
        if not isinstance(labels, (list, tuple)):
            labels = (labels,)
        for l in labels:
            if l not in self.labels:
                raise LabelMismatch(f"label {l!r} not present in {self.labels}")
        k = len(self.labels)
        t = self.data.reshape([self.N] * (2 * k))
        axes = list(range(2 * k))
        for l in labels:
            i = self.labels.index(l)
            axes[i], axes[k + i] = axes[k + i], axes[i]
        t = t.transpose(axes)
        return LabeledTensor(self.labels, self.N, t.reshape(self.data.shape))


# ---------------------------------------------------------------------------
# Antisymmetrizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Antisymmetrizer:
    """Projector A_k onto the fully antisymmetric subspace of (C^N)^{x k},
    held as the orthonormal basis of its image: a real (N^k, C(N,k))
    array V with A_k = V V^T."""

    k: int
    N: int
    basis: np.ndarray

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The dense N^k x N^k projector V V^T."""
        D = self.N**self.k
        _guard(D * D, f"{D} x {D} operator")
        return self.basis @ self.basis.T


def _inversions(perm) -> int:
    return sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])


def permutation_operator(perm, N: int) -> np.ndarray:
    """Operator permuting k tensor factors: factor j of the output is
    factor perm[j] of the input."""
    k = len(perm)
    dims = [N] * k
    size = N**k
    _guard(size * size, f"{size} x {size} operator")
    src = np.arange(size)
    multi = np.array(np.unravel_index(src, dims))  # (k, size)
    dst = np.ravel_multi_index([multi[p] for p in perm], dims)
    P = np.zeros((size, size))
    P[dst, src] = 1.0
    return P


def antisymmetrizer(k: int, N: int) -> Antisymmetrizer:
    """A_k = (1/k!) sum_{sigma in S_k} sign(sigma) P_sigma by the basis of
    its image: for each j_1 < ... < j_k the column
    (1/sqrt(k!)) sum_sigma sign(sigma) e_{j_sigma(1)} (x) ... (x) e_{j_sigma(k)},
    built from index arithmetic, cached read-only per (k, N).  A_1 = identity."""
    if not 1 <= k <= N:
        raise ValueError(f"antisymmetrizer needs 1 <= k <= N, got k={k}, N={N}")
    _guard(N**k * math.comb(N, k), "antisymmetrizer basis")
    V = _BASES.get((k, N))
    if V is None:
        combos = list(combinations(range(N), k))
        norm = math.sqrt(math.factorial(k))
        perms = [(perm, (-1 if _inversions(perm) % 2 else 1) / norm) for perm in permutations(range(k))]
        V = np.zeros((N**k, len(combos)))
        for c, js in enumerate(combos):
            for perm, entry in perms:
                V[np.ravel_multi_index([js[p] for p in perm], (N,) * k), c] = entry
        V.flags.writeable = False
        V = _store(_BASES, (k, N), V)
    return Antisymmetrizer(k, N, V)


def _basis_step(j: int, N: int) -> np.ndarray:
    """B_j = (V_{j-1} (x) 1)^T V_j for the bases V of `antisymmetrizer` and
    V_0 = 1, so V_j = (V_{j-1} (x) 1) B_j: column g_1 < ... < g_j holds
    (-1)^(j-i) / sqrt(j) in row (g without g_i, g_i), i = 1..j.  Built from
    index arithmetic, cached read-only per (j, N)."""
    a, c = math.comb(N, j - 1), math.comb(N, j)
    _guard(a * N * c, "antisymmetrizer step")
    B = _STEPS.get((j, N))
    if B is None:
        rows = {g: r for r, g in enumerate(combinations(range(N), j - 1))}
        B = np.zeros((a * N, c))
        for col, g in enumerate(combinations(range(N), j)):
            for i in range(j):
                B[rows[g[:i] + g[i + 1:]] * N + g[i], col] = (-1) ** (j - 1 - i) / math.sqrt(j)
        B.flags.writeable = False
        B = _store(_STEPS, (j, N), B)
    return B


def antisym_trace(N: int, lefts=None, rights=None) -> np.ndarray:
    """tr_{1..k}(X_k A_k), a D x D matrix on the rest spaces, for
    X_j = l_j (X_{j-1} (x) 1_j) r_j and X_0 = 1: lefts[j-1] = l_j and
    rights[j-1] = r_j act on space j (x) rest, and a missing stack is 1.

    C_j = V_j^T X_j V_j = B_j^T l_j (C_{j-1} (x) 1_j) r_j B_j (`_basis_step`),
    since l_j and r_j commute with V_{j-1}^T, and the trace is
    tr_{Lambda^k} C_k.  Each step is reshapes and stacked matmuls, and the
    largest array of every step passes the entry guard before any runs."""
    k, d = next((len(s), s[0].shape[-1]) for s in (lefts, rights) if s is not None)
    D, ones = d // N, [np.eye(d)] * k
    for j in range(1, k + 1):  # the blocks of B^T l, r B and their products
        a, c = math.comb(N, j - 1), math.comb(N, j)
        _guard(N * max(a, c) * c * D * D, f"Lambda^{j} step")
    C = np.eye(D, dtype=complex)
    for l, r, j in zip(ones if lefts is None else lefts, ones if rights is None else rights,
                       range(1, k + 1)):
        B = _basis_step(j, N)
        a, c = B.shape[0] // N, B.shape[1]
        B = B.reshape(a, N, c)  # (alpha in Lambda^{j-1}, x on space j, g in Lambda^j)
        # B^T l and r B, one block per x: rows (g, rho) and columns (alpha, rho'),
        # and rows (alpha, rho') and columns (g, sigma)
        Bl = np.matmul(B.transpose(0, 2, 1), l.reshape(N, -1))  # (alpha, g, rho, x, rho')
        Bl = Bl.reshape(a, c, D, N, D).transpose(3, 1, 2, 0, 4).reshape(N, c * D, a * D)
        rB = np.matmul(r.reshape(N, D, N, D).transpose(0, 1, 3, 2).reshape(N, D * D, N),
                       B.transpose(1, 0, 2).reshape(N, a * c))  # (x, rho', sigma, alpha, g)
        rB = rB.reshape(N, D, D, a, c).transpose(0, 3, 1, 4, 2).reshape(N, a * D, c * D)
        C = np.matmul(Bl, np.matmul(C, rB)).sum(axis=0)
    return np.trace(C.reshape(c, D, c, D), axis1=0, axis2=2)


def compose(gates, labels) -> LabeledTensor:
    """gates[0] @ gates[1] @ ... as a dense operator on `labels`, each gate
    acting on some of those spaces.  The gates are applied to the identity
    block, the last first and one tensordot each, so no gate is widened to
    all the spaces."""
    labels = tuple(labels)
    N, n = gates[0].N, len(labels)
    D = N**n
    _guard(D * D, f"{D} x {D} operator")
    block = np.eye(D, dtype=complex).reshape((N,) * n + (D,))
    for gate in reversed(gates):
        if not set(gate.labels) <= set(labels):
            raise LabelMismatch(f"gate on {gate.labels} outside the spaces {labels}")
        m = len(gate.labels)
        axes = [labels.index(l) for l in gate.labels]
        out = np.tensordot(gate.data.reshape((N,) * (2 * m)), block,
                           axes=(list(range(m, 2 * m)), axes))
        block = np.moveaxis(out, list(range(m)), axes)
    return LabeledTensor(labels, N, block.reshape(D, D))


# ---------------------------------------------------------------------------
# Fused R-products
# ---------------------------------------------------------------------------

def row_labels(k: int):
    return tuple(("r", i) for i in range(1, k + 1))


def col_labels(k: int):
    return tuple(("c", j) for j in range(1, k + 1))


def _fused_factors(x: complex, k: int, kprime: int, fac, c_shifts) -> list:
    """The R-hat factors of `fused_R` at each shift of c_shifts, leftmost
    first: one list per shift, every factor of every shift from one build."""
    rows, cols = row_labels(k), col_labels(kprime)
    zeta = fac.params.zeta
    e, e_col = centred_ladder(k), centred_ladder(kprime)
    order = [(i, j) for j in range(kprime) for i in reversed(range(k))]
    xi_x = xi_of(x) + np.asarray(c_shifts, dtype=complex) * zeta
    steps = np.array([e[i] - e_col[j] for i, j in order]) * zeta
    mats = fac.rhat_matrices(np.add.outer(xi_x, steps).ravel())
    labels = [(rows[i], cols[j]) for i, j in order]
    return [[LabeledTensor.from_matrix(m, l, fac.N) for m, l in zip(mats[s:s + len(order)], labels)]
            for s in range(0, len(mats), len(order))]


def fused_gates(x: complex, k: int, kprime: int, fac, c_shift: complex = 0.0) -> list:
    """The R-hat factors of `fused_R`, leftmost first."""
    return _fused_factors(x, k, kprime, fac, [c_shift])[0]


def fused_R(x: complex, k: int, kprime: int, fac, c_shift: complex = 0.0) -> LabeledTensor:
    """Ordered fused product of R-hat factors from the RMatrixFactory `fac`
    coupling the k row spaces to the k' column spaces:

        prod_{j=1..k'} [ prod_{i=k..1} Rhat_{r_i, c_j}(q^{e_i - e_j'} x) ]

    with e_i, e_j' the centred half-integer ladders and the j = 1 block
    leftmost.  `c_shift` multiplies the argument by q^{c_shift} through the
    additive spectral variable (used for the critical-level sweeps).
    """
    return compose(fused_gates(x, k, kprime, fac, c_shift), row_labels(k) + col_labels(kprime))


_BLOCK_ENTRIES = 2**20  # entries of one block of sector columns in _projector_residual (16 MB)


def _require_conserved(gates):
    """Raise ChargeViolation unless every nonzero entry of every gate joins
    two states of its spaces with the same charge (`_charges`): Rhat and its
    inverse conserve x_a + x_b, a diagonal one-space gate x_a.  The sector
    kernel never drops an entry."""
    for g in gates:
        ch = _charges(g.N, len(g.labels))
        if g.data[ch[:, None] != ch[None, :]].any():
            raise ChargeViolation(f"gate on {g.labels} does not conserve the Z_{g.N} "
                                  f"charge sum_i x_i mod {g.N}")


def _gate_step(gate: LabeledTensor, labels, digits: np.ndarray):
    """One gate as a step on the rows of the charge sectors.  `digits`
    holds, in the rows' current order, the index of each row on each space
    of `labels` in the sector Q = 0; in the sector Q the index on the last
    space is shifted by Q, and every other index is the same.

    Returns (perm, op): gather the rows by `perm` (None: keep them), then
    multiply by op(Q).  A one-space gate is diagonal, so op(Q) is a factor
    per row.  For a two-space gate `perm` puts the rows in (pair charge c,
    index x_a on the gate's first space, orbit) order, where an orbit fixes
    every index but the pair's, and op(Q)[c] is the N x N block of the gate
    at pair charge c; the batched matmul op(Q) @ rows leaves the rows in
    that order.  So each two-space gate is one gather and one matmul."""
    N, last = gate.N, len(labels) - 1
    x = np.arange(N)
    pos = [labels.index(l) for l in gate.labels]
    shift = int(pos[0] == last)  # x_a moves by Q
    if len(pos) == 1:
        d = np.diagonal(gate.data)
        return None, lambda Q: d[(digits[pos[0]] + shift * Q) % N][:, None]
    pa, pb = pos
    c = (digits[pa] + digits[pb]) % N
    # within a sector the last of the other spaces is fixed by the rest, so
    # the orbits of one pair charge are ranked by the remaining indices
    others = [p for p in range(last + 1) if p not in pos][:-1]
    orbit = np.ravel_multi_index(digits[others], (N,) * len(others)) if others else 0
    cs = x if last > 1 else x[:1]  # the pair charges in the sector Q = 0 (0 alone if n = 2)
    order = (c * N + digits[pa]) * N ** len(others) + orbit
    perm = np.empty_like(order)
    perm[order] = np.arange(len(order))
    xb = (x[:, None] - x) % N  # the partner of x_a at pair charge c
    B = gate.data.reshape((N,) * 4)[x[None, :, None], xb[:, :, None], x[None, None, :], xb[:, None, :]]
    touches = int(last in pos)  # the pair charge of every row moves by Q
    return perm, lambda Q: B[np.ix_((cs + touches * Q) % N, (x + shift * Q) % N,
                                    (x + shift * Q) % N)]


def _charge_sectors(gates, a_labels, rest):
    """Yield (Y, rows, cols): Y = X (V (x) 1) for X = prod(gates) on the
    columns `cols` of V (x) 1 (column c * N^len(rest) + j is v_c (x) e_j) and
    the full rows `rows` (indices in N^n over the spaces a_labels + rest),
    the rest of those columns being 0.

    Every gate conserves the Z_N charge (`_require_conserved`), so each
    column stays in the sector of its total charge Q, the N^(n-1) rows whose
    index sum is Q mod N.  The columns of one Q are held on those rows
    only, a block of at most _BLOCK_ENTRIES entries at a time, and the gates
    act inside the sector (`_gate_step`); the row orders of the gates are
    computed once, for Q = 0, and serve every sector.  Y's rows come back in
    increasing order of `rows`, which is the order of the first n - 1
    indices, the last being fixed by Q."""
    N, labels = gates[0].N, tuple(a_labels) + tuple(rest)
    n, k = len(labels), len(a_labels)
    for g in gates:
        if not set(g.labels) <= set(labels):
            raise LabelMismatch(f"gate on {g.labels} outside the spaces {labels}")
        if len(g.labels) > 2:
            raise LabelMismatch(f"gate on {g.labels}: the sector kernel takes one or two spaces")
    _require_conserved(gates)
    V = antisymmetrizer(k, N).basis
    cz, az = np.nonzero(V.T)  # the k! nonzeros of each column of V
    az = az.reshape(V.shape[1], -1)
    vals = V[az, cz.reshape(az.shape)]
    D = N ** len(rest)
    col_charge = (_charges(N, k)[az[:, 0]][:, None] + _charges(N, n - k)) % N
    R, width = N ** (n - 1), max(1, _BLOCK_ENTRIES // N ** (n - 1))
    # the index table of the sector's rows and one block of its columns
    _guard(R * max(n, min(width, np.bincount(col_charge.ravel()).max())), "sector block")
    last = -_charges(N, n - 1) % N  # the last index in the sector Q = 0
    digits, steps = np.vstack((np.indices((N,) * (n - 1)).reshape(n - 1, R), last)), []
    for g in reversed(gates):
        steps.append(_gate_step(g, labels, digits))
        if steps[-1][0] is not None:
            digits = digits[:, steps[-1][0]]
    back = np.empty(R, dtype=np.intp)
    back[np.ravel_multi_index(digits[:-1], (N,) * (n - 1))] = np.arange(R)
    for Q in range(N):
        cq, jq = np.nonzero(col_charge == Q)
        for s in range(0, len(cq), width):
            c, j = cq[s:s + width], jq[s:s + width]
            Y = np.zeros((R, len(c)), dtype=complex)
            Y[(az[c] * D + j[:, None]) // N, np.arange(len(c))[:, None]] = vals[c]
            for perm, op in steps:
                if perm is None:
                    Y *= op(Q)
                else:
                    blocks = op(Q)
                    Y = np.matmul(blocks, Y[perm].reshape(len(blocks), N, -1)).reshape(R, -1)
            Y = Y[back]
            yield Y, np.arange(R) * N + (last + Q) % N, c * D + j


def _projector_residual(gates, a_labels, rest) -> float:
    """||X A - A X A|| / ||X A|| for X = prod(gates) and A = A_k (x) 1, A_k
    on the spaces `a_labels` and the identity on `rest`.

    With A_k = V V^T (V the basis of `antisymmetrizer`), (1 - A) X A = (1 - A) Y
    (V (x) 1)^T for Y = X (V (x) 1), and multiplying by the co-isometry
    (V (x) 1)^T on the right keeps the Frobenius norm; so this is
    ||(1 - A) Y|| / ||Y||.  Y is computed one Z_N charge sector at a time by
    `_charge_sectors`, and X is never formed.  A_k conserves the charge too,
    so (1 - A) Y is taken inside each sector: with the rows in increasing
    order and at least one space in `rest`, the rows of Y.reshape(N^k, -1)
    are the index on the spaces of A_k.  A_1 = 1, so on one space the
    residual is 0 by construction; a gate that is not finite gives NaN."""
    if not all(np.isfinite(g.data).all() for g in gates):
        return math.nan
    if len(a_labels) == 1:
        return 0.0
    N, k = gates[0].N, len(a_labels)
    V = antisymmetrizer(k, N).basis
    num = den = 0.0
    for Y, rows, _ in _charge_sectors(gates, a_labels, rest):
        Ya, Va = (Y.reshape(N**k, -1), V) if rest else (Y, V[rows])
        num += np.linalg.norm(Va @ (Va.T @ Ya) - Ya) ** 2
        den += np.linalg.norm(Y) ** 2
        del Y, Ya  # so that the next block is built without this one
    return math.sqrt(num) / max(math.sqrt(den), 1e-300)


def monodromy_M(x: complex, k: int, kprime: int, fac, cs):
    """Yield M(x) = (R(q^c x)^T (R(x)^{-1} R(q^{-c-N} x) R(x)^{-1})^T)^T for
    each central charge c of cs, R the fused block and T transposing the k
    row spaces.  Equals the identity at the critical value c = -N by fused
    crossing-unitarity.  The factors of every block come from one build,
    R(x) is composed and inverted once, and the other two blocks of each M
    are composed when it is yielded, so a caller that consumes the M in
    turn holds one at a time."""
    rows, labels = row_labels(k), row_labels(k) + col_labels(kprime)
    factors = _fused_factors(x, k, kprime, fac, [0.0, *cs, *(-c - fac.N for c in cs)])
    R0i = compose(factors[0], labels).inv()
    for i in range(len(cs)):  # one expression, so no block outlives the M it makes
        yield (compose(factors[1 + i], labels).partial_transpose(rows)
               @ (R0i @ compose(factors[1 + len(cs) + i], labels) @ R0i).partial_transpose(rows)
               ).partial_transpose(rows)
