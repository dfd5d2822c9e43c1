"""Charge-graded labeled tensor engine.

A LabeledTensor is an operator on ordered labeled N-dimensional spaces
that conserves the Z_N charge sum_i w_i x_i mod N, w_i = +-1 per space:
Rhat conserves x_a + x_b, and a partial transpose flips the weights of the
spaces it transposes.  It is held as its N diagonal blocks of N^(n-1)
rows, so no N^n x N^n operator is formed for n >= 3.  `from_matrix`, the
one way dense entries come in, refuses a nonzero entry off the pattern
(ChargeViolation).  Norms are numpy sums of squares (`frobenius`):
np.linalg.norm of a complex array calls BLAS dot, which OpenBLAS splits
across two threads on large arrays when the caller leaves BLAS more than
one thread (a library caller may; `wkit check` runs BLAS on one).

The antisymmetrizer A_k is held only as a table of the nonzeros of the
orthonormal basis V of its image, A_k = V V^T: k! rows and values per
column.  `antisym_trace` runs on Lambda^k, the antisymmetric auxiliary
space of the fusion procedure (Kulish, Reshetikhin, Sklyanin,
Lett. Math. Phys. 5 (1981) 393), each step from Lambda^{j-1} to Lambda^j
on two index tables of its j nonzeros per column, and each of its gathers
one `take` at a table of rows cached while small.  The projector
residuals apply the gates to the columns of V on the spaces of A_k alone,
adding each other space at the first gate that touches it (a light cone),
each column on the rows of its charge sector, in blocks of at most 2^15
entries.  Every block and index table passes one guard of at most
WKIT_MAX_DIM^2 entries, before any gate runs.  Nothing here mutates
shared state.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from .errors import ChargeViolation, DimensionGuardExceeded, LabelMismatch
from .params import _charges, _store, centred_ladder, xi_of

_DEFAULT_MAX_DIM = 10_000
_TABLES = {}  # (k, N) -> the read-only nonzeros of the basis V of im A_k
_GATHERS = {}  # (j, N, D) -> the read-only row tables and signs of the Lambda^j step, while small
_MOVES = {}  # (N, weights, transposed spaces) -> the read-only gather table of `partial_transpose`
_PLANS = {}  # (N, n, gate positions) -> the read-only row orders of `_sector_steps`
_LAYOUTS = {}  # (N, n) -> the read-only gather table of `from_matrix`


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


def frobenius(a: np.ndarray) -> float:
    """The Frobenius norm of a complex array as a numpy sum of squares."""
    v = a.reshape(-1).view(np.float64)
    return math.sqrt(np.einsum("i,i", v, v))


def _places(N: int, m: int) -> np.ndarray:
    """The row-major place value of each of m indices."""
    return N ** np.arange(m - 1, -1, -1)


def _states(N: int, weights) -> np.ndarray:
    """The index on each space of row r of block Q, (n, N, R), under
    `weights`: the first n - 1 indices run in row-major order and the last
    makes the charge Q."""
    n, R = len(weights), N ** (len(weights) - 1)
    head = np.indices((N,) * (n - 1), dtype=np.intp).reshape(n - 1, 1, R)
    last = weights[-1] * (np.arange(N)[:, None] - np.asarray(weights[:-1], dtype=np.intp) @ head[:, 0]) % N
    return np.concatenate((np.broadcast_to(head, (n - 1, N, R)), last[None]))


@dataclass(frozen=True)
class LabeledTensor:
    """Operator on ordered labeled spaces of dimension N that conserves
    sum_i weights[i] x_i mod N: rows Q R .. (Q + 1) R - 1 of `data` hold the
    block of charge Q, R = N^(n-1), so data.shape[0] is its dimension."""

    labels: tuple
    N: int
    weights: tuple
    data: np.ndarray  # shape (N^n, N^(n-1))

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n or len(self.weights) != n or self.data.shape != (
                self.N**n, self.N ** (n - 1)):
            raise LabelMismatch(f"data of shape {self.data.shape} on {self.labels} with weights "
                                f"{self.weights} does not match {n} spaces of dim {self.N}")

    @property
    def blocks(self) -> np.ndarray:
        """The N diagonal blocks, (N, R, R)."""
        return self.data.reshape(self.N, -1, self.data.shape[1])

    @classmethod
    def from_matrix(cls, matrix, labels, N: int) -> "LabeledTensor":
        """The operator of a dense N^n x N^n matrix that conserves sum_i x_i
        mod N.  Raises ChargeViolation if an entry off the pattern is
        nonzero, however small; a matrix with an entry that is not finite,
        which may sit anywhere, gives NaN in every block."""
        labels = tuple(labels)
        n, weights = len(labels), (1,) * len(labels)
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (N**n, N**n) or len(set(labels)) != n:
            raise LabelMismatch(f"a {m.shape} matrix on the spaces {labels} of dim {N}")
        at = _LAYOUTS.get((N, n))
        if at is None:  # the entry of the matrix at each entry of the blocks, read-only
            rows = (_places(N, n) @ _states(N, weights).reshape(n, -1)).reshape(N, -1, 1)
            at = _store(_LAYOUTS, (N, n), (rows * N**n + rows.transpose(0, 2, 1)).reshape(N**n, -1))
        data = m.reshape(-1).take(at)
        if np.count_nonzero(data) != np.count_nonzero(m):  # a nonzero off the blocks
            if np.isfinite(m).all():
                raise ChargeViolation(f"operator on {labels} does not conserve the Z_{N} charge "
                                      f"sum_i w_i x_i mod {N} for w = {weights}")
            data = np.full_like(data, np.nan)
        return cls(labels, N, weights, data)

    def partial_transpose(self, labels) -> "LabeledTensor":
        """Transpose on the named space(s), identity on the rest: their
        weights flip.  The gather table is cached read-only."""
        labels = labels if isinstance(labels, (list, tuple)) else (labels,)
        if not set(labels) <= set(self.labels):
            raise LabelMismatch(f"labels {labels} not all present in {self.labels}")
        flip = tuple(l in labels for l in self.labels)
        weights = tuple(-w if f else w for w, f in zip(self.weights, flip))
        N, n = self.N, len(flip)
        R = N ** (n - 1)
        key = (N, self.weights, flip)
        _guard(N * R * R, f"{N} x {R} x {R} index table")  # cached or not
        table = _MOVES.get(key)
        if table is None:
            X, place = _states(N, weights), _places(N, n)
            a, b, qa, qb = (np.zeros((N, R, 1), dtype=np.intp) for _ in range(4))
            for i, swap in enumerate(flip):  # row = a + b^T, column = b + a^T
                (b if swap else a)[..., 0] += place[i] * X[i]
                (qb if swap else qa)[..., 0] += self.weights[i] * X[i]
            a_t, b_t = a.transpose(0, 2, 1), b.transpose(0, 2, 1)
            Q = (qa + qb.transpose(0, 2, 1)) % N  # the charge of the entry's row here
            table = _store(_MOVES, key, (Q * R + (a + b_t) // N) * R + (b + a_t) // N)
        return LabeledTensor(self.labels, N, weights, self.data.ravel()[table].reshape(N * R, R))

    def _same_spaces(self, other: "LabeledTensor") -> np.ndarray:
        """other's blocks, which must list self's spaces in self's order."""
        if self.N != other.N or other.labels != self.labels:
            raise LabelMismatch(
                f"operands on {self.labels} (N={self.N}) and {other.labels} "
                f"(N={other.N}) do not list the same spaces in the same order; "
                f"multiply operators on different spaces with tensor.compose")
        if any((w - v) % self.N for w, v in zip(self.weights, other.weights)):
            raise ChargeViolation(f"operands on {self.labels} conserve different charges: "
                                  f"weights {self.weights} and {other.weights}")
        return other.blocks

    def _with(self, blocks: np.ndarray) -> "LabeledTensor":
        return LabeledTensor(self.labels, self.N, self.weights, blocks.reshape(self.data.shape))

    def __matmul__(self, other: "LabeledTensor") -> "LabeledTensor":
        return self._with(np.matmul(self.blocks, self._same_spaces(other)))

    def __sub__(self, other: "LabeledTensor") -> "LabeledTensor":
        return self._with(self.blocks - self._same_spaces(other))

    def inv(self) -> "LabeledTensor":
        return self._with(np.linalg.inv(self.blocks))

    def norm(self, minus: complex = 0.0) -> float:
        """||self - minus 1||, Frobenius."""
        return frobenius(self.blocks - minus * np.eye(self.data.shape[1]) if minus else self.data)


# ---------------------------------------------------------------------------
# Antisymmetrizers
# ---------------------------------------------------------------------------

class Antisymmetrizer(NamedTuple):
    """The basis V of im A_k by its nonzeros, two read-only (C(N,k), k!)
    arrays: column c of V holds values[c] in the rows rows[c], ascending."""

    rows: np.ndarray
    values: np.ndarray


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
    """A_k = (1/k!) sum_{sigma in S_k} sign(sigma) P_sigma by the nonzeros of
    the basis of its image: for the c-th j_1 < ... < j_k, column c is
    (1/sqrt(k!)) sum_sigma sign(sigma) e_{j_sigma(1)} (x) ... (x) e_{j_sigma(k)}.
    Built by index arithmetic, cached read-only per (k, N); the guard counts
    its C(N,k) k! entries on every call.  A_1 = identity."""
    if not 1 <= k <= N:
        raise ValueError(f"antisymmetrizer needs 1 <= k <= N, got k={k}, N={N}")
    _guard(math.comb(N, k) * math.factorial(k), "antisymmetrizer table")
    table = _TABLES.get((k, N))
    if table is None:
        perms = np.array(list(permutations(range(k))), dtype=np.intp)
        combos = np.array(list(combinations(range(N), k)), dtype=np.intp)
        odd = sum((perms[:, a] > perms[:, b] for a, b in combinations(range(k), 2)),
                  np.zeros(len(perms), dtype=np.intp)) % 2
        rows = sum(combos[:, perms[:, i]] * N ** (k - 1 - i) for i in range(k))
        order = np.argsort(rows, axis=1)
        values = (np.where(odd == 1, -1.0, 1.0) / math.sqrt(math.factorial(k)))[order]
        table = _store(_TABLES, (k, N), Antisymmetrizer(np.take_along_axis(rows, order, axis=1), values))
    return table


def antisymmetrizer_basis(k: int, N: int) -> np.ndarray:
    """The basis V of im A_k as a dense (N^k, C(N,k)) array, scattered from
    `antisymmetrizer` under a guard of its N^k C(N,k) entries and not
    cached: only the checks of V itself form it."""
    _guard(N**k * math.comb(N, k), "antisymmetrizer basis")
    rows, values = antisymmetrizer(k, N)
    V = np.zeros((N**k, len(rows)))
    V[rows, np.arange(len(rows))[:, None]] = values
    return V


def _step_tables(j: int, N: int):
    """(el, sub), two (C(N,j), j) index tables: el[c] is the c-th
    g_1 < ... < g_j, sub[c, i] the index of g without g_i in Lambda^{j-1}."""
    rank = {g: r for r, g in enumerate(combinations(range(N), j - 1))}
    el = np.array(list(combinations(range(N), j)), dtype=np.intp).reshape(-1, j)
    sub = np.array([[rank[g[:i] + g[i + 1:]] for i in range(j)] for g in combinations(range(N), j)],
                   dtype=np.intp).reshape(-1, j)
    return el, sub


def _step_gathers(j: int, N: int, D: int):
    """The four gathers of the Lambda^j step on rest spaces of dimension D,
    each a table of rows for one `take`, and the signs s_i = (-1)^(j-1-i) /
    sqrt(j), flat and on the axis i of the gathered r:
    - cols (c, j, D): the row (sub[g', i], rho') of C^T, a column of C;
    - r_at (c, j, D, N): the run r[(x, rho), (el[g', i], .)] of D entries;
    - w_at (N, D, a, c): the run of D entries of W at (g', alpha, rho, x),
      in (x, rho)-major order;
    - v_at (c, j, D): the row (el[g', i], sigma, sub[g', i]) of l W.
    Cached read-only per (j, N, D) while they hold at most _BLOCK_ENTRIES
    entries, as the plans of `_sector_steps` are, and built per call beyond."""
    key = (j, N, D)
    got = _GATHERS.get(key)
    if got is None:
        el, sub = _step_tables(j, N)
        a, c, d, outer = math.comb(N, j - 1), len(el), np.arange(D), np.add.outer
        s = (-1.0) ** np.arange(j - 1, -1, -1) / math.sqrt(j)
        got = (outer(sub * D, d), outer(outer(el, d * N), np.arange(N) * D * N),
               outer(outer(outer(np.arange(N), d * N), np.arange(a) * D * N), np.arange(c) * a * D * N),
               outer(el * D * a + sub, d * a), s, s[:, None, None, None])
        if sum(t.size for t in got[:4]) <= _BLOCK_ENTRIES:
            _store(_GATHERS, key, got)
    return got


def antisym_trace(N: int, lefts=None, rights=None) -> np.ndarray:
    """tr_{1..k}(X_k A_k), a D x D matrix on the rest spaces, for
    X_j = l_j (X_{j-1} (x) 1_j) r_j and X_0 = 1: lefts[j-1] = l_j and
    rights[j-1] = r_j act on space j (x) rest, and a missing stack is 1.

    V_j = (V_{j-1} (x) 1) B_j, where column g of B_j holds
    s_i = (-1)^(j-1-i) / sqrt(j) in row (g without g_i, g_i) (`_step_tables`),
    so C_j = V_j^T X_j V_j = B_j^T l_j (C_{j-1} (x) 1_j) r_j B_j and the trace
    is tr_{Lambda^k} C_k.  Each step is one batched matmul of C_{j-1} and
    s r_j gathered at the tables, one GEMM with l_j and a signed gather,
    each gather one `take` at the rows of `_step_gathers`; the product with
    l_j, each step's largest array, passes the entry guard for every step
    before any runs."""
    k, d = next((len(s), s[0].shape[-1]) for s in (lefts, rights) if s is not None)
    D, ones = d // N, [np.eye(d)] * k
    for j in range(1, k + 1):
        _guard(N * D * math.comb(N, j - 1) * math.comb(N, j) * D, f"Lambda^{j} step")
    C = np.eye(D, dtype=complex)
    for l, r, j in zip(ones if lefts is None else lefts, ones if rights is None else rights,
                       range(1, k + 1)):
        cols, r_at, w_at, v_at, s, s_i = _step_gathers(j, N, D)
        a, c = w_at.shape[2:]
        # rows (i, rho') and columns (x, sigma') of s_i r at column x' = el[g', i], times
        # rows (alpha, rho) and columns (i, rho') of C at column alpha' = sub[g', i]
        rg = r.reshape(-1, D).take(r_at, axis=0)
        np.multiply(rg, s_i, out=rg)
        W = np.matmul(C.T.take(cols, axis=0).reshape(c, j * D, a * D).transpose(0, 2, 1),
                      rg.reshape(c, j * D, N * D))  # (g', alpha, rho, x, sigma')
        W = W.reshape(-1, D).take(w_at, axis=0).reshape(N * D, a * c * D)
        W = (l @ W).reshape(N * D * a, c * D)  # (x, sigma, alpha, (g', sigma')), each W freed in turn
        C = (s @ W.take(v_at, axis=0).reshape(c, j, D * c * D)).reshape(c * D, c * D)
    return np.trace(C.reshape(c, D, c, D), axis1=0, axis2=2)


def compose(gates, labels) -> LabeledTensor:
    """gates[0] @ gates[1] @ ... on `labels`, each gate of weight +1 on some
    of those spaces: `_sector_steps` on the identity columns of every charge
    sector at once writes the blocks, and no gate is widened."""
    labels = tuple(labels)
    N, n = gates[0].N, len(labels)
    R = N ** (n - 1)
    _guard(N * R * R, f"{N} x {R} x {R} charge blocks")
    steps, back = _sector_steps(gates, labels)
    Y = _run(steps, slice(None), np.eye(R, dtype=complex)[None])
    return LabeledTensor(labels, N, (1,) * n, Y[:, back].reshape(N * R, R))


def _gate_step(N: int, pos, digits: np.ndarray):
    """The gate on the positions `pos` as a step on the rows of a charge
    sector: `digits` holds each row's indices in the sector Q = 0, and in
    the sector Q the last index moves by Q.  Returns (perm, at): `perm` puts
    the rows in (gate charge c, block row of the gate, orbit) order, an
    orbit fixing every index off the gate, and blocks[at][Q, c] is the
    gate's block that multiplies the rows of c in the sector Q."""
    last, m = len(digits) - 1, len(pos)
    others = [p for p in range(last + 1) if p not in pos]
    # the last of the other spaces is fixed by the rest and the gate charge
    orbit = _places(N, len(others) - 1) @ digits[others[:-1]]
    row = digits[list(pos)].sum(axis=0) % N * N ** (m - 1) + _places(N, m - 1) @ digits[list(pos[:-1])]
    order = row * N ** max(len(others) - 1, 0) + orbit  # (gate charge, block row, orbit)
    perm = np.empty_like(order)
    perm[order] = np.arange(len(order))
    Q = np.arange(N)[:, None]
    cs = (np.arange(N if others else 1) + (last in pos) * Q) % N  # gate charges, (N, 1 or N)
    b = N ** (m - 1)  # the rows of one block of the gate
    head = np.indices((N,) * (m - 1), dtype=np.intp).reshape(m - 1, 1, b)
    shift = np.array([p == last for p in pos[:-1]], dtype=np.intp).reshape(-1, 1, 1)
    r = (_places(N, m - 1) @ ((head + shift * Q[None]) % N).reshape(m - 1, N * b)).reshape(N, b)
    return perm, (cs[:, :, None, None], r[:, None, :, None], r[:, None, None, :])


def _check_gates(gates, labels):
    """Refuse a gate outside the spaces `labels` or one that does not
    conserve the one charge sum_i x_i mod N."""
    for g in gates:
        if not set(g.labels) <= set(labels):
            raise LabelMismatch(f"gate on {g.labels} outside the spaces {labels}")
        if any((w - 1) % g.N for w in g.weights):
            raise ChargeViolation(f"gate on {g.labels} does not conserve the Z_{g.N} "
                                  f"charge sum_i x_i mod {g.N}")


def _sector_steps(gates, labels):
    """(steps, back): each gate, the last first, as the (perm, blocks) of
    `_gate_step`, and the gather that puts the rows back in increasing
    order.  The tables serve every sector and are cached while small.
    Every gate must conserve the one charge sum_i x_i mod N."""
    N, n = gates[0].N, len(labels)
    _check_gates(gates, labels)
    key = (N, n, tuple(tuple(labels.index(l) for l in g.labels) for g in reversed(gates)))
    _guard(n * N ** (n - 1), "sector index table")  # cached or not
    plan = _PLANS.get(key)
    if plan is None:
        R = N ** (n - 1)  # the rows of the sector Q = 0
        digits = np.vstack((np.indices((N,) * (n - 1)).reshape(n - 1, R), -_charges(N, n - 1) % N))
        plan = []
        for pos in key[2]:
            plan.append(_gate_step(N, pos, digits))
            digits = digits[:, plan[-1][0]]
        back = np.empty(digits.shape[1], dtype=np.intp)
        back[_places(N, n - 1) @ digits[:-1]] = np.arange(len(back))
        plan = (plan, back)
        if len(gates) * len(back) <= _BLOCK_ENTRIES:
            _store(_PLANS, key, plan)
    return [(perm, g.blocks[at]) for (perm, at), g in zip(plan[0], reversed(gates))], plan[1]


def _run(steps, Q, Y: np.ndarray) -> np.ndarray:
    """The `_sector_steps` applied to Y, an (S, R, columns) stack on the S
    sectors of slice Q, or one (1, R, columns) block that each of them
    starts from."""
    for perm, blocks in steps:
        B, shape = blocks[Q], Y.shape[1:]
        Y = Y.take(perm, axis=1).reshape((len(Y),) + B.shape[1:3] + (-1,))  # frees the last Y first
        Y = np.matmul(B, Y).reshape((len(B),) + shape)
    return Y


# ---------------------------------------------------------------------------
# Fused R-products
# ---------------------------------------------------------------------------

def row_labels(k: int):
    return tuple(("r", i) for i in range(1, k + 1))


def col_labels(k: int):
    return tuple(("c", j) for j in range(1, k + 1))


def _fused_factors(x: complex, k: int, kprime: int, fac, shifts) -> list:
    """The R-hat factors of `fused_R` at x q^c for each c of shifts, leftmost
    first: one list per shift, every factor of every shift from one build."""
    rows, cols = row_labels(k), col_labels(kprime)
    zeta = fac.params.zeta
    e, e_col = centred_ladder(k), centred_ladder(kprime)
    order = [(i, j) for j in range(kprime) for i in reversed(range(k))]
    xi_x = xi_of(x) + np.asarray(shifts, dtype=complex) * zeta
    steps = np.array([e[i] - e_col[j] for i, j in order]) * zeta
    mats = fac.build(np.add.outer(xi_x, steps).ravel(), hat=True)
    labels = [(rows[i], cols[j]) for i, j in order]
    return [[LabeledTensor.from_matrix(m, l, fac.N) for m, l in zip(mats[s:s + len(order)], labels)]
            for s in range(0, len(mats), len(order))]


def fused_gates(x: complex, k: int, kprime: int, fac) -> list:
    """The R-hat factors of `fused_R`, leftmost first."""
    return _fused_factors(x, k, kprime, fac, [0.0])[0]


def fused_R(x: complex, k: int, kprime: int, fac) -> LabeledTensor:
    """Ordered fused product of R-hat factors from the RMatrixFactory `fac`
    coupling the k row spaces to the k' column spaces:

        prod_{j=1..k'} [ prod_{i=k..1} Rhat_{r_i, c_j}(q^{e_i - e_j'} x) ]

    with e_i, e_j' the centred half-integer ladders and the j = 1 block
    leftmost.
    """
    return compose(fused_gates(x, k, kprime, fac), row_labels(k) + col_labels(kprime))


_BLOCK_ENTRIES = 2**15  # entries of a last-stage block in _projector_residual (512 KB), 1/N before


def _light_cone(label_lists, a_labels) -> list:
    """The order in which `_projector_residual` applies the gates on the
    spaces `label_lists` (leftmost first) to columns that start on the spaces
    `a_labels`, as stages [(space, gates)]: `space` is added before the
    stage's gates run (None for the first stage), and `gates` are indices
    into `label_lists` in the order they run.

    The gates run from the right, and a gate passes another only if they
    share no space, so the product is unchanged.  Of the gates that every
    gate right of them sharing a space has run before, the first that adds
    no space runs next; if every one adds a space, the first of them runs,
    its new spaces added one stage each."""
    spaces = [set(labels) for labels in label_lists]
    pending, active, stages = list(range(len(spaces)))[::-1], set(a_labels), [(None, [])]
    while pending:
        ready = [g for i, g in enumerate(pending) if not any(spaces[g] & spaces[h] for h in pending[:i])]
        g = next((g for g in ready if spaces[g] <= active), ready[0])
        for space in label_lists[g]:
            if space not in active:
                active.add(space)
                stages.append((space, []))
        stages[-1][1].append(g)
        pending.remove(g)
    return stages


class _Stage(NamedTuple):
    """One stage of `_projector_residual`: its `_sector_steps` and `back`,
    and for each but the last, where each block row goes in the next stage:
    to head[p] + (Q - charges[p]) mod N in the sector Q."""

    steps: list
    back: np.ndarray
    head: np.ndarray | None
    charges: np.ndarray | None


def _stages(gates, a_labels, schedule) -> list:
    """The `_Stage`s of a `_light_cone` schedule of `gates`, the last built
    first, so that its tables, the largest, are built while no other is
    held."""
    N, out = gates[0].N, []
    for i in reversed(range(len(schedule))):
        order = schedule[i][1]
        labels = tuple(a_labels) + tuple(space for space, _ in schedule[1:i + 1])
        if order:
            steps, back = _sector_steps([gates[g] for g in reversed(order)], labels)
        else:
            steps, back = [], np.arange(N ** (len(labels) - 1))
        head = charges = None
        if i + 1 < len(schedule):  # block row p holds the row sorted[p] of the sector
            sorted_ = np.empty_like(back)
            sorted_[back] = np.arange(len(back))
            head, charges = sorted_ * N, _charges(N, len(labels) - 1)[sorted_]
        out.append(_Stage(steps, back, head, charges))
    return out[::-1]


def _cone_blocks(stages, N: int, k: int, cap: int):
    """Yield (Q, Y) for each block after the last `_Stage`: Y an (S, R, w)
    stack of columns on the S sectors of slice Q.  The columns start as
    those of the basis V of im A_k on the rows of their charge, at most
    `cap` entries (or one column) at a time."""
    az, vals = antisymmetrizer(k, N)
    q = _charges(N, k)[az[:, 0]]
    order, R = np.argsort(q, kind="stable"), N ** (k - 1)
    width = max(1, cap // R)
    for f in range(0, len(order), width):
        parts, cols = [], order[f:f + width]
        for Q in range(N):
            c = cols[q[cols] == Q]
            if not len(c):
                continue
            Y = np.zeros((1, R, len(c)), dtype=complex)
            Y[0, az[c] // N, np.arange(len(c))[:, None]] = vals[c]
            Y = _run(stages[0].steps, slice(Q, Q + 1), Y)
            if len(stages) == 1:
                yield slice(Q, Q + 1), Y
            else:
                parts.append((Q, Y[0]))
        if parts:
            yield from _grow(stages, 0, parts, cap)


def _grow(stages, s: int, parts, cap: int):
    """The blocks of `_cone_blocks` that descend from `parts`, a list of
    (Q, Y): Y an (R, w) block of columns on the sector Q after stage s.

    Adding a space turns a column of charge Q into N columns, one per index
    x of the new space, in the sectors Q + x; each has the same rows, since
    a sector's rows list every index but the last.  So the columns of all
    parts, scattered once to the rows of the next stage, serve every sector
    there.  A block holds all N sectors if a column on them fits, so that
    the columns multiply from stage to stage, else one sector; it holds at
    most `cap` entries at the last stage and cap / N before, so that the
    blocks still to be grown from stay small, and one column at least."""
    stage, nxt = stages[s], stages[s + 1]
    R = len(stage.head)
    N = len(nxt.back) // R
    size = cap if s + 2 == len(stages) else cap // N
    if N * N * R <= size:
        targets, width = [slice(None)], size // (N * N * R)
    else:
        targets, width = [slice(t, t + 1) for t in range(N)], max(1, size // (N * R))
    ends = np.cumsum([Y.shape[1] for _, Y in parts])
    for f in range(0, ends[-1], width):
        child = np.zeros((N * R, min(width, ends[-1] - f)), dtype=complex)
        for (Q, Y), end in zip(parts, ends):
            start = end - Y.shape[1]
            a, b = max(f, start), min(f + child.shape[1], end)
            if a < b:
                child[stage.head + (Q - stage.charges) % N, a - f:b - f] = Y[:, a - start:b - start]
        for T in targets:
            if s + 2 == len(stages):  # no name holds a last-stage block once it is used
                yield T, _run(nxt.steps, T, child[None])
                continue
            sectors = range(N)[T]  # a stage without gates leaves the one block
            Y = np.broadcast_to(_run(nxt.steps, T, child[None]), (len(sectors),) + child.shape)
            yield from _grow(stages, s + 1, [(Q, Y[i]) for i, Q in enumerate(sectors)], cap)


def _projector_residual(gates, a_labels, rest) -> float:
    """||X A - A X A|| / ||X A|| for X = prod(gates) and A = A_k (x) 1, A_k
    on the spaces `a_labels` and the identity on `rest`.

    With A_k = V V^T (V the basis of `antisymmetrizer_basis`), (1 - A) X A =
    (1 - A) Y (V (x) 1)^T for Y = X (V (x) 1), and multiplying by the
    co-isometry (V (x) 1)^T on the right keeps the Frobenius norm; so this is
    ||(1 - A) Y|| / ||Y||, and X is never formed.

    Y is a light cone (`_light_cone`): the columns start as those of V on
    the spaces of A_k, a rest space joins at the first gate that touches it
    (until then it is in a basis state), and each gate runs as early as the
    product allows.  A rest space no gate touches stays a factor e_j of every
    column, which scales both norms alike, so it never joins.  Every gate
    conserves the Z_N charge (`_sector_steps` refuses one that does not), so
    a column is held on the rows of its charge sector, whose row orders
    serve every sector (`_gate_step`), in blocks of at most _BLOCK_ENTRIES
    entries (`_cone_blocks`).  Both guards are passed before any gate runs.

    A_k conserves the charge too, so (1 - A) Y is taken in each block
    (`_block_norms`): the rows V's columns reach are gathered through the
    table of `antisymmetrizer` and have V V^T of them subtracted in place,
    and the other rows add their squared norm as they are.  A_1 = 1, so on
    one space the residual is 0 by construction; a gate that is not finite
    gives NaN."""
    if not all(np.isfinite(g.data).all() for g in gates):
        return math.nan
    if len(a_labels) == 1:
        return 0.0
    N, k = gates[0].N, len(a_labels)
    az = antisymmetrizer(k, N).rows
    t = sum(any(l in g.labels for g in gates) for l in rest)  # the rest spaces that join
    # the columns of one sector: with a rest space, C(N,k) N^(t-1) in each
    columns = len(az) * N ** (t - 1) if t else np.bincount(_charges(N, k)[az[:, 0]]).max()
    R = N ** (k + t - 1)
    block = R * min(max(1, _BLOCK_ENTRIES // R), columns)
    _guard(block, "sector block")
    _check_gates(gates, tuple(a_labels) + tuple(rest))
    _guard((k + t) * R, "sector index table")
    stages = _stages(gates, a_labels, _light_cone([g.labels for g in gates], a_labels))
    tables, num, den = {}, 0.0, 0.0
    for Q, Y in _cone_blocks(stages, N, k, min(block, _BLOCK_ENTRIES)):
        key = None if t else Q.start
        if key not in tables:
            tables[key] = _support(N, k, t, stages[-1].back, Q.start)
        outside, total = _block_norms(Y, *tables[key])
        num, den = num + outside, den + total
        del Y  # so that the next block is built without this one
    return math.sqrt(num) / max(math.sqrt(den), 1e-300)


def _support(N: int, k: int, t: int, back: np.ndarray, Q: int):
    """(rows, signs, outside) for the blocks of `_cone_blocks` on k + t
    spaces whose last stage ends in the row order `back`: the block rows
    that the columns of V reach in the sector Q, as an (columns, k!, d)
    array, the signs of V's values there, and a mask of the other rows.
    With t >= 1 the rows of the index a of A_k are a * d .. a * d + d - 1,
    d = N^(t-1), in every sector; with t = 0, only the columns of V of
    charge Q have rows in the sector Q."""
    az, vals = antisymmetrizer(k, N)
    if t:
        d = N ** (t - 1)
        rows, signs = back[az[:, :, None] * d + np.arange(d)], np.sign(vals)
    else:
        c = _charges(N, k)[az[:, 0]] == Q
        rows, signs = back[az[c][:, :, None] // N], np.sign(vals[c])
    outside = np.ones(len(back), dtype=bool)
    outside[rows] = False
    return rows, signs[:, :, None], outside


def _block_norms(Y: np.ndarray, rows, signs, outside) -> tuple:
    """(||(1 - A) Y||^2, ||Y||^2) for a block Y of `_cone_blocks`, through
    its `_support`.  A column of V is signs / sqrt(k!) on its k! rows, so
    there (1 - V V^T) y = signs (h - mean h) for h = signs y: the rows V
    reaches are gathered and centred in place, and the other rows add their
    squared norm as they are, so Y is not copied."""
    sq = Y.view(np.float64)
    sq = np.einsum("srx,srx->sr", sq, sq)  # the squared norm of each row
    h = Y.take(rows, axis=1).view(np.float64)  # (S, columns of V, k!, d, 2 w)
    h = h.reshape(h.shape[:3] + (-1,))
    h *= signs
    for _ in range(2):  # the second pass takes out the rounding of a mean summed in order
        h -= h.mean(axis=2, keepdims=True)
    return sq[:, outside].sum() + np.einsum("i,i", h.ravel(), h.ravel()), sq.sum()


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
