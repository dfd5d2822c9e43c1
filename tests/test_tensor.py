"""Labeled tensor engine, antisymmetrizers, fused products."""

import cmath
import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkit import EllipticParams, LabeledTensor, RMatrixFactory, TruncationPolicy, antisymmetrizer, xi_of
from wkit.errors import ChargeViolation, DimensionGuardExceeded, LabelMismatch
from wkit.suites import _swap_spaces, check_fusion_identities, check_kernel, check_M_derivative, run_check
from wkit.wgen import EvalRep, build_Q, lax_points, resolve_surface
from wkit import tensor
from wkit.tensor import (
    Antisymmetrizer,
    _block_norms,
    _cone_blocks,
    _fused_factors,
    _light_cone,
    _projector_residual,
    _stages,
    _step_tables,
    _support,
    antisym_trace,
    antisymmetrizer_basis,
    col_labels,
    compose,
    fused_gates,
    fused_R,
    monodromy_M,
    permutation_operator,
    row_labels,
)

POL = TruncationPolicy()
RNG = np.random.default_rng(3)


@dataclass(frozen=True)
class Dense:
    """Dense operator on ordered labeled spaces, each of dimension N: the
    oracle for the charge-graded LabeledTensor, which never forms one."""

    labels: tuple
    N: int
    data: np.ndarray  # shape (N^k, N^k)

    @classmethod
    def from_matrix(cls, matrix, labels, N):
        return cls(tuple(labels), N, np.asarray(matrix, dtype=complex))

    def reorder(self, new_labels):
        new_labels, k = tuple(new_labels), len(self.labels)
        perm = [self.labels.index(l) for l in new_labels]
        t = self.data.reshape([self.N] * (2 * k)).transpose(perm + [k + p for p in perm])
        return Dense(new_labels, self.N, t.reshape(self.data.shape))

    def __matmul__(self, other):
        return Dense(self.labels, self.N, self.data @ dense(other).reorder(self.labels).data)

    def __sub__(self, other):
        return Dense(self.labels, self.N, self.data - dense(other).reorder(self.labels).data)

    def inv(self):
        return Dense(self.labels, self.N, np.linalg.inv(self.data))

    def norm(self):
        return float(np.linalg.norm(self.data))

    def partial_transpose(self, labels):
        labels = labels if isinstance(labels, (list, tuple)) else (labels,)
        k, axes = len(self.labels), list(range(2 * len(self.labels)))
        for l in labels:
            i = self.labels.index(l)
            axes[i], axes[k + i] = axes[k + i], axes[i]
        t = self.data.reshape([self.N] * (2 * k)).transpose(axes)
        return Dense(self.labels, self.N, t.reshape(self.data.shape))


def charge_of(N, weights):
    """sum_i w_i x_i mod N of every index tuple x, in row-major order."""
    n = len(weights)
    return np.asarray(weights) @ np.indices((N,) * n).reshape(n, -1) % N


def dense(t):
    """t as a Dense operator: the blocks of a LabeledTensor scattered onto
    the states of each charge in increasing order, found by their charge."""
    if isinstance(t, Dense):
        return t
    charge, D = charge_of(t.N, t.weights), t.N ** len(t.labels)
    out = np.zeros((D, D), dtype=complex)
    for Q in range(t.N):
        idx = np.flatnonzero(charge == Q)
        out[np.ix_(idx, idx)] = t.blocks[Q]
    return Dense(t.labels, t.N, out)


def rnd(labels, N=2):
    D = N ** len(labels)
    return Dense.from_matrix(RNG.normal(size=(D, D)) + 1j * RNG.normal(size=(D, D)), labels, N)


def rnd_stack(k, d):
    return RNG.normal(size=(k, d, d)) + 1j * RNG.normal(size=(k, d, d))


def params(N=2, q=0.5, p=0.3):
    return EllipticParams(N=N, q=q, s=cmath.sqrt(p))


def dense_on(t, labels):
    """t as a dense operator on `labels`: the identity on the spaces it
    does not act on, by np.kron, then the spaces put in the order of
    `labels`.  The independent oracle for `apply_gates` and `compose`."""
    t = dense(t)
    extra = tuple(l for l in labels if l not in t.labels)
    big = np.kron(t.data, np.eye(t.N ** len(extra)))
    return Dense.from_matrix(big, t.labels + extra, t.N).reorder(tuple(labels))


def dense_product(gates, labels):
    """gates[0] @ gates[1] @ ... on `labels`, by dense products."""
    return reduce(lambda X, g: X @ dense_on(g, labels), gates[1:], dense_on(gates[0], labels))


def apply_gates(gates, labels, block: np.ndarray) -> np.ndarray:
    """(gates[0] @ gates[1] @ ...) applied to `block`, the last gate first,
    one tensordot each.  `block` has shape (N,)*n + (r,): axis i is the
    space labels[i], the last axis counts r vectors.  The oracle for the
    charge-sector kernel and, on the kron block, for `antisym_trace`."""
    labels = tuple(labels)
    N, n = block.shape[0], len(labels)
    if block.shape[:-1] != (N,) * n:
        raise LabelMismatch(f"block of shape {block.shape} does not match {n} spaces")
    for gate in map(dense, reversed(gates)):
        m = len(gate.labels)
        axes = [labels.index(l) for l in gate.labels]
        out = np.tensordot(gate.data.reshape((N,) * (2 * m)), block,
                           axes=(list(range(m, 2 * m)), axes))
        block = np.moveaxis(out, list(range(m)), axes)
    return block


def kron_block_trace(gates, k, rest=()):
    """tr_{1..k}(X A_k) for X = prod(gates) on the spaces 1..k and `rest`:
    X applied by `apply_gates` to all N^(k + len(rest)) rows of the block
    V (x) 1, formed by np.kron, and contracted against V.  The oracle for
    `antisym_trace`."""
    N = gates[0].N
    V = antisymmetrizer_basis(k, N)
    D = N ** len(rest)
    block = np.kron(V, np.eye(D)).reshape((N,) * (k + len(rest)) + (-1,))
    Y = apply_gates(gates, tuple(range(1, k + 1)) + tuple(rest), block)
    return np.einsum("ac,aicj->ij", V, Y.reshape(N**k, D, V.shape[1], D))


def stack_gates(lefts, rights, N):
    """The factors of X_k = l_k ... l_1 r_1 ... r_k, each stack entry on
    (space j, "0"), as a gate list, leftmost first."""
    k = len(lefts)
    return ([Dense.from_matrix(lefts[j - 1], (j, "0"), N) for j in range(k, 0, -1)]
            + [Dense.from_matrix(rights[j - 1], (j, "0"), N) for j in range(1, k + 1)])


def partial_trace(t, traced):
    """The trace of t over the spaces `traced`, by einsum on its data with
    those spaces moved last: the dense oracle for `antisym_trace`."""
    t, traced = dense(t), tuple(traced)
    keep = tuple(l for l in t.labels if l not in traced)
    Dk, Dt = t.N ** len(keep), t.N ** len(traced)
    data = t.reorder(keep + traced).data.reshape(Dk, Dt, Dk, Dt)
    return Dense(keep, t.N, np.einsum("aibi->ab", data))


def projector(k, N):
    """A_k = V V^T from the dense basis V."""
    V = antisymmetrizer_basis(k, N)
    return V @ V.T


def dense_antisymmetrizer(k, N):
    """The permutation sum A_k = (1/k!) sum_sigma sign(sigma) P_sigma, with
    the sign from the determinant of the permutation matrix."""
    A = np.zeros((N**k, N**k))
    for perm in permutations(range(k)):
        sign = round(np.linalg.det(np.eye(k)[list(perm)]))
        A += sign * permutation_operator(perm, N)
    return A / math.factorial(k)


def rnd_conserving(labels, N, rng=RNG):
    """A random operator on `labels` that conserves sum_i x_i mod N: the
    N^3 pattern of Rhat on two spaces, a diagonal on one."""
    charge = charge_of(N, (1,) * len(labels))
    D = N ** len(labels)
    data = (rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))) * (charge[:, None] == charge)
    return LabeledTensor.from_matrix(data, labels, N)


# ---------------------------------------------------------------------------
# LabeledTensor mechanics
# ---------------------------------------------------------------------------

def test_composition_order_independence_disjoint():
    # operators on one space conserve the charge only if diagonal
    a, b = rnd_conserving((1,), 2), rnd_conserving((2,), 2)
    ab = compose([a, b], (1, 2))
    ba = compose([b, a], (1, 2))
    assert np.allclose(ab.data, ba.data)
    assert np.allclose(dense(ab).data, np.kron(dense(a).data, dense(b).data))


def test_trace_factorizes():
    a, b = rnd_conserving((1,), 3), rnd_conserving((2,), 3)
    prod = compose([a, b], (1, 2))
    assert abs(partial_trace(prod, (1, 2)).data[0, 0]
               - np.trace(dense(a).data) * np.trace(dense(b).data)) < 1e-10


def test_double_partial_transpose_is_identity():
    # at N = 3 the transposed space changes the grading, and back
    t = rnd_conserving((1, 2, "0"), 3)
    once = t.partial_transpose("0")
    assert once.weights == (1, 1, -1)
    assert np.array_equal(dense(once).data, dense(t).partial_transpose("0").data)
    twice = once.partial_transpose("0")
    assert twice.weights == t.weights and np.array_equal(twice.data, t.data)


def test_trace_transpose_identity():
    # tr_1(O M) = tr_1((M^{T0}) (O^{T0}))^{T0} on spaces (1, "0")
    O = rnd_conserving((1, "0"), 3)
    M = rnd_conserving((1, "0"), 3)
    lhs = partial_trace(O @ M, (1,))
    rhs = partial_trace(M.partial_transpose("0") @ O.partial_transpose("0"), (1,)).partial_transpose("0")
    assert np.allclose(lhs.data, rhs.data)
    assert np.allclose(lhs.data, partial_trace(dense(O) @ dense(M), (1,)).data)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("left,right", [
    ((2,), (1, 2, 3)),          # subset-left
    ((3, 1), (1, 2, 3)),        # subset-left, out of order
    ((1, 2, 3), (3,)),          # subset-right
    ((1, 2, 3), (3, 1)),        # subset-right, out of order
    ((1, 2, "0"), ("0", 2, 1)),  # equal sets, permuted
    ((1, 2), (2, 3)),           # overlapping
    ((3, "0", 1), (1, 2)),      # overlapping, out of order
    ((1,), (2, 3)),             # disjoint
])
def test_contraction_matches_dense_oracle(N, left, right):
    # charge-conserving gates of one to three spaces, composed into blocks
    a, b = rnd_conserving(left, N), rnd_conserving(right, N)
    union = left + tuple(l for l in right if l not in left)
    ab = compose([a, b], union)
    assert ab.labels == union
    dense_ab = (dense_on(a, union) @ dense_on(b, union)).data
    assert np.linalg.norm(dense(ab).data - dense_ab) <= 1e-12 * np.linalg.norm(dense_ab)
    if set(left) == set(right):  # the same spaces in another order: @ and - refuse
        for op in (operator.matmul, operator.sub):
            with pytest.raises(LabelMismatch, match=r"\(1, 2, '0'\).*\('0', 2, 1\)"):
                op(a, b)
        b = LabeledTensor.from_matrix(dense(b).reorder(left).data, left, N)  # b on a's order
        assert np.linalg.norm(dense(a @ b).data - dense_ab) <= 1e-12 * np.linalg.norm(dense_ab)


def test_label_mismatch_raises():
    with pytest.raises(LabelMismatch):
        LabeledTensor.from_matrix(np.eye(4), (1, 1), 2)
    a, b = rnd_conserving((1, 2), 2), rnd_conserving((2, 3), 2)
    for op in (operator.matmul, operator.sub):  # one order of the spaces per product
        with pytest.raises(LabelMismatch, match=r"\(1, 2\).*\(2, 1\).*same order"):
            op(a, rnd_conserving((2, 1), 2))
    with pytest.raises(LabelMismatch, match=r"\(1, 2\).*\(2, 3\).*compose"):
        a @ b
    with pytest.raises(LabelMismatch, match="compose"):
        a - rnd_conserving((1,), 2)
    with pytest.raises(LabelMismatch, match="compose"):
        a @ rnd_conserving((1, 2), 3)


def test_operands_of_different_gradings_are_refused():
    # at N = 3 an operator graded by x_1 + x_2 and one graded by x_1 - x_2
    # have different blocks; at N = 2 the two charges are one
    a = rnd_conserving((1, 2), 3)
    with pytest.raises(ChargeViolation, match="different charges"):
        a @ a.partial_transpose(2)
    with pytest.raises(ChargeViolation, match="different charges"):
        a.partial_transpose(1) - a
    with pytest.raises(LabelMismatch, match="same order"):  # the order is checked first
        a - rnd_conserving((2, 1), 3).partial_transpose(2)
    b = rnd_conserving((1, 2), 2)
    assert np.allclose(dense(b @ b.partial_transpose(2)).data,
                       dense(b).data @ dense(b).partial_transpose(2).data)


def test_dimension_guard_and_override(monkeypatch):
    # compose holds N blocks of N^(n-1) x N^(n-1): 2^(2n-1) entries at N = 2
    gate = rnd_conserving((1, 2), 2)
    monkeypatch.setenv("WKIT_MAX_DIM", "100")
    with pytest.raises(DimensionGuardExceeded):
        compose([gate], range(1, 9))  # 2 x 128 x 128 = 32768 > 100^2
    monkeypatch.setenv("WKIT_MAX_DIM", "200")
    assert compose([gate], range(1, 9)).data.shape == (256, 128)
    monkeypatch.delenv("WKIT_MAX_DIM")
    with pytest.raises(DimensionGuardExceeded):
        compose([gate], range(1, 16))  # 2^29 > default


def test_compose_guard_before_allocating(monkeypatch):
    # N blocks of D x D hold N D^2 entries, admitted up to WKIT_MAX_DIM^2
    monkeypatch.setenv("WKIT_MAX_DIM", "8")
    gate = rnd_conserving((1, 2), 2)
    assert compose([gate], (1, 2, 3)).data.shape == (8, 4)  # 32 entries
    assert compose([rnd_conserving((1, 2), 4)], (1, 2)).data.shape == (16, 4)  # 64: at the guard
    allocated = []
    monkeypatch.setattr(np, "eye", lambda *args, **kwargs: allocated.append(args))
    monkeypatch.setattr(np, "indices", lambda *args, **kwargs: allocated.append(args))
    with pytest.raises(DimensionGuardExceeded, match="2 x 8 x 8 charge blocks of 128 entries"):
        compose([gate], (1, 2, 3, 4))
    assert allocated == []


def test_antisym_trace_guard_before_its_largest_step(monkeypatch):
    # step j at N = 4 with no rest space holds its product with l_j,
    # N D C(4,j-1) C(4,j) D entries: 16, 96, 96 and 16.  The largest is
    # admitted under 10^2; under 9^2 the trace is refused at j = 2 before the
    # first step takes its tables
    lefts = [RNG.normal(size=(4, 4)) + 0j] * 4
    monkeypatch.setenv("WKIT_MAX_DIM", "10")
    assert antisym_trace(4, lefts).shape == (1, 1)
    monkeypatch.setenv("WKIT_MAX_DIM", "9")
    monkeypatch.setattr(tensor, "_step_tables", lambda *args: pytest.fail("a step ran before the guard"))
    with pytest.raises(DimensionGuardExceeded, match="Lambda\\^2 step of 96 entries"):
        antisym_trace(4, lefts)


def test_dense_constructors_respect_guard(monkeypatch):
    # charge blocks are guarded by their N D^2 entries, a dense operator by
    # its dimension (8), the dense antisymmetrizer basis by its N^k C(N,k)
    # entries and its table by its C(N,k) k! entries (8^2 = 64)
    fac = RMatrixFactory(params(N=3), POL)
    monkeypatch.setenv("WKIT_MAX_DIM", "8")
    assert compose([rnd_conserving((1,), 3)], (1, 2)).data.shape == (9, 3)  # 27 entries
    with pytest.raises(DimensionGuardExceeded):
        compose([rnd_conserving((1,), 3)], (1, 2, 3))  # 3 x 9 x 9 = 243 > 64
    with pytest.raises(DimensionGuardExceeded):
        permutation_operator((1, 0), 3)
    assert antisymmetrizer_basis(2, 3).shape == (9, 3)  # 27 entries
    rep = run_check(check_kernel(fac))  # its A_2 = V V^T is 9 x 9
    assert not rep.passed and "9 x 9 operator of 81 entries" in rep.inputs["message"]
    assert antisymmetrizer_basis(1, 8).shape == (8, 8)  # 64 entries: at the guard
    with pytest.raises(DimensionGuardExceeded, match="antisymmetrizer basis of 256 entries"):
        antisymmetrizer_basis(3, 4)  # 64 x 4 = 256 entries
    assert antisymmetrizer(3, 4).rows.shape == (4, 6)  # 24 entries
    with pytest.raises(DimensionGuardExceeded, match="antisymmetrizer table of 120 entries"):
        antisymmetrizer(5, 5)  # 1 x 120 entries


def test_antisymmetrizer_basis_cached_read_only(monkeypatch):
    # the table is built once per (k, N) and shared, so no caller may write
    # into it; the guard reads WKIT_MAX_DIM at call time, cached or not.
    # The dense basis is scattered anew on every call
    A = antisymmetrizer(3, 3)
    assert antisymmetrizer(3, 3) is A
    for a in A:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1
    assert antisymmetrizer_basis(3, 3) is not antisymmetrizer_basis(3, 3)
    monkeypatch.setenv("WKIT_MAX_DIM", "2")
    with pytest.raises(DimensionGuardExceeded, match="antisymmetrizer table of 6 entries"):
        antisymmetrizer(3, 3)
    monkeypatch.setenv("WKIT_MAX_DIM", "3")  # 6 <= 9: the cached table
    assert antisymmetrizer(3, 3) is A
    monkeypatch.delenv("WKIT_MAX_DIM")
    assert antisymmetrizer(3, 3) is A


def test_antisymmetrizer_table_at_N8_under_a_guard_of_300(monkeypatch):
    # the table of A_8 at N = 8 holds 40,320 nonzeros, within 300^2 = 90,000;
    # the dense basis of 8^8 x 1 entries is refused
    monkeypatch.setenv("WKIT_MAX_DIM", "300")
    rows, values = antisymmetrizer(8, 8)
    assert rows.shape == values.shape == (1, 40320)
    assert (np.diff(rows, axis=1) > 0).all() and rows[0, 0] == 342391 and rows[0, -1] == 16434824
    assert values[0, 0] == 1 / math.sqrt(40320) and (abs(values) == values[0, 0]).all()
    assert (values > 0).sum() == 20160
    with pytest.raises(DimensionGuardExceeded, match="antisymmetrizer basis of 16777216 entries"):
        antisymmetrizer_basis(8, 8)


# ---------------------------------------------------------------------------
# Antisymmetrizers
# ---------------------------------------------------------------------------

def test_A2_explicit():
    N = 3
    P = permutation_operator((1, 0), N)
    assert np.allclose(projector(2, N), (np.eye(N * N) - P) / 2)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_projector_rank(N):
    for k in range(1, N + 1):
        A = projector(k, N)
        assert np.linalg.norm(A @ A - A) < 1e-12
        evals = np.linalg.eigvalsh(A)
        assert int(np.sum(evals > 0.5)) == math.comb(N, k)
    assert np.allclose(projector(1, N), np.eye(N))
    assert math.comb(N, N) == 1  # A_N has rank one


@pytest.mark.parametrize("N", [2, 3, 4])
def test_antisymmetrizer_basis_spans_the_permutation_sum(N):
    # the table holds each column's k! nonzeros in increasing row order,
    # and the basis scattered from it spans the permutation sum
    for k in range(1, N + 1):
        rows, values = antisymmetrizer(k, N)
        assert rows.shape == values.shape == (math.comb(N, k), math.factorial(k))
        assert (np.diff(rows, axis=1) > 0).all()
        V = antisymmetrizer_basis(k, N)
        assert V.shape == (N**k, math.comb(N, k))
        assert np.count_nonzero(V) == rows.size
        assert np.array_equal(V[rows, np.arange(len(rows))[:, None]], values)
        assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-15
        assert np.abs(V @ V.T - dense_antisymmetrizer(k, N)).max() <= 1e-15


@pytest.mark.parametrize("N", [2, 3, 4])
def test_antisym_trace_matches_permutation_sum(N):
    M = RNG.normal(size=(N, N)) + 1j * RNG.normal(size=(N, N))
    for k in range(1, N + 1):
        dense = np.trace(reduce(np.kron, [M] * k) @ dense_antisymmetrizer(k, N))
        got = antisym_trace(N, lefts=[M] * k)
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - dense) <= 1e-13, (k, got[0, 0], dense)


@pytest.mark.parametrize("N", [2, 3])
def test_antisym_trace_keeps_the_rest_spaces(N):
    for k in range(1, N + 1):
        aux = tuple(range(1, k + 1))
        lefts, rights, ones = rnd_stack(k, N * N), rnd_stack(k, N * N), [np.eye(N * N)] * k
        A = Dense.from_matrix(dense_antisymmetrizer(k, N), aux, N)
        # both stacks, and each alone (a missing stack is the identity)
        for args, kwargs in [((lefts, rights), {}), ((lefts, ones), {"lefts": lefts}),
                             ((ones, rights), {"rights": rights})]:
            dense = partial_trace(dense_product(stack_gates(*args, N) + [A], aux + ("0",)), aux).data
            got = antisym_trace(N, **kwargs) if kwargs else antisym_trace(N, *args)
            assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max(), (k, kwargs.keys())


def dense_basis_step(j, N):
    """B_j = (V_{j-1} (x) 1)^T V_j for the bases V of `antisymmetrizer_basis`
    and V_0 = 1, dense: column g_1 < ... < g_j holds (-1)^(j-i) / sqrt(j) in
    row (g without g_i, g_i), i = 1..j."""
    rows = {g: r for r, g in enumerate(combinations(range(N), j - 1))}
    B = np.zeros((math.comb(N, j - 1) * N, math.comb(N, j)))
    for col, g in enumerate(combinations(range(N), j)):
        for i in range(j):
            B[rows[g[:i] + g[i + 1:]] * N + g[i], col] = (-1) ** (j - 1 - i) / math.sqrt(j)
    return B


def dense_step_trace(N, lefts=None, rights=None):
    """tr_{1..k}(X_k A_k) by C_j = B_j^T l_j (C_{j-1} (x) 1_j) r_j B_j with the
    dense B_j of `dense_basis_step`, each step reshapes and stacked matmuls:
    the oracle for `antisym_trace` on its index tables."""
    k, d = next((len(s), s[0].shape[-1]) for s in (lefts, rights) if s is not None)
    D, ones = d // N, [np.eye(d)] * k
    C = np.eye(D, dtype=complex)
    for l, r, j in zip(ones if lefts is None else lefts, ones if rights is None else rights,
                       range(1, k + 1)):
        B = dense_basis_step(j, N)
        a, c = B.shape[0] // N, B.shape[1]
        B = B.reshape(a, N, c)  # (alpha in Lambda^{j-1}, x on space j, g in Lambda^j)
        Bl = np.matmul(B.transpose(0, 2, 1), l.reshape(N, -1))  # (alpha, g, rho, x, rho')
        Bl = Bl.reshape(a, c, D, N, D).transpose(3, 1, 2, 0, 4).reshape(N, c * D, a * D)
        rB = np.matmul(r.reshape(N, D, N, D).transpose(0, 1, 3, 2).reshape(N, D * D, N),
                       B.transpose(1, 0, 2).reshape(N, a * c))  # (x, rho', sigma, alpha, g)
        rB = rB.reshape(N, D, D, a, c).transpose(0, 3, 1, 4, 2).reshape(N, a * D, c * D)
        C = np.matmul(Bl, np.matmul(C, rB)).sum(axis=0)
    return np.trace(C.reshape(c, D, c, D), axis1=0, axis2=2)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_antisym_trace_matches_the_dense_step_recursion(N):
    # every k, with lefts, rights and both, with no rest space and with one
    # of dimension N; past k = N, Lambda^k is empty and the trace is zero
    for D in (1, N):
        for k in range(1, N + 2):
            lefts, rights = rnd_stack(k, N * D), rnd_stack(k, N * D)
            for kwargs in ({"lefts": lefts}, {"rights": rights}, {"lefts": lefts, "rights": rights}):
                got = antisym_trace(N, **kwargs)
                assert got.shape == (D, D)
                if k > N:
                    assert np.array_equal(got, np.zeros((D, D))), (D, kwargs.keys())
                    continue
                want = dense_step_trace(N, **kwargs)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (D, k, kwargs.keys())


def fancy_index_trace(N, lefts=None, rights=None):
    """The Lambda^k trace with each step's gathers by numpy indexing at the
    (el, sub) tables, W's (x, rho)-major copy by a transposed reshape and the
    signs formed per step: the oracle for `antisym_trace` on the row tables
    of `_step_gathers`, which must equal it bit for bit."""
    k, d = next((len(s), s[0].shape[-1]) for s in (lefts, rights) if s is not None)
    D, ones = d // N, [np.eye(d)] * k
    C = np.eye(D, dtype=complex)
    for l, r, j in zip(ones if lefts is None else lefts, ones if rights is None else rights,
                       range(1, k + 1)):
        el, sub = _step_tables(j, N)
        a, c = math.comb(N, j - 1), len(el)
        s = (-1.0) ** np.arange(j - 1, -1, -1) / math.sqrt(j)
        Cg = C.reshape(a, D, a, D).transpose(2, 3, 0, 1)[sub].reshape(c, j * D, a * D)
        rg = r.reshape(N, D, N, D).transpose(2, 1, 0, 3)[el] * s[:, None, None, None]
        W = np.matmul(Cg.transpose(0, 2, 1), rg.reshape(c, j * D, N * D))
        W = W.reshape(c, a, D, N, D).transpose(3, 2, 1, 0, 4).reshape(N * D, a * c * D)
        W = (l @ W).reshape(N, D, a, c * D)
        C = (s @ W[el, :, sub].reshape(c, j, D * c * D)).reshape(c * D, c * D)
    return np.trace(C.reshape(c, D, c, D), axis1=0, axis2=2)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_antisym_trace_equals_the_fancy_index_steps(N):
    # the same operands in the same layouts, gathered by `take` at row tables:
    # every value equal, for every k, with lefts, rights and both, D = 1 and N
    for D in (1, N):
        for k in range(1, N + 2):
            lefts, rights = rnd_stack(k, N * D), rnd_stack(k, N * D)
            for kwargs in ({"lefts": lefts}, {"rights": rights}, {"lefts": lefts, "rights": rights}):
                got = antisym_trace(N, **kwargs)
                assert np.array_equal(got, fancy_index_trace(N, **kwargs)), (D, k, kwargs.keys())


def test_step_gathers_cached_only_while_small(monkeypatch):
    # at N = D = 4 the row tables of steps 1 and 4 hold 160 entries and those
    # of steps 2 and 3 672: under a bound of 200 only steps 1 and 4 are kept,
    # read-only and reused, and the others are built per call
    monkeypatch.setattr(tensor, "_GATHERS", {})
    sizes = [sum(t.size for t in tensor._step_gathers(j, 4, 4)[:4]) for j in range(1, 5)]
    assert sizes == [160, 672, 672, 160]
    monkeypatch.setattr(tensor, "_GATHERS", {})
    monkeypatch.setattr(tensor, "_BLOCK_ENTRIES", 200)
    lefts, rights = rnd_stack(4, 16), rnd_stack(4, 16)
    want = fancy_index_trace(4, lefts, rights)
    for _ in range(2):
        assert np.array_equal(antisym_trace(4, lefts, rights), want)
        assert set(tensor._GATHERS) == {(1, 4, 4), (4, 4, 4)}
    for j in (1, 4):
        tables = tensor._GATHERS[j, 4, 4]
        assert tensor._step_gathers(j, 4, 4) is tables
        for t in tables:
            assert not t.flags.writeable
    assert tensor._step_gathers(2, 4, 4) is not tensor._step_gathers(2, 4, 4)


def test_step_tables_map_one_basis_to_the_next():
    # sum_i s_i V_{j-1}[:, sub[:, i]] (x) e_{el[:, i]} = V_j, s_i = (-1)^(j-1-i) / sqrt(j),
    # for the bases of `antisymmetrizer_basis` and V_0 = 1; the gathers built
    # from the tables are built once per (j, N, D) and read-only
    for N in (2, 3, 4, 5):
        prev = np.ones((1, 1))
        for j in range(1, N + 1):
            el, sub = _step_tables(j, N)
            assert el.shape == sub.shape == (math.comb(N, j), j)
            V = sum((-1) ** (j - 1 - i) / math.sqrt(j)
                    * np.einsum("ac,xc->axc", prev[:, sub[:, i]], np.eye(N)[:, el[:, i]]).reshape(N**j, -1)
                    for i in range(j))
            prev = antisymmetrizer_basis(j, N)
            assert np.abs(V - prev).max() <= 1e-15, (N, j)
            gathers = tensor._step_gathers(j, N, 1)
            assert tensor._step_gathers(j, N, 1) is gathers
            for t in gathers:
                assert not t.flags.writeable
                with pytest.raises(ValueError):
                    t.flat[0] = 1


def old_Q_gates(k, z, surface, rep):
    """The 4k gates of Q_{1..k}(z) as they were applied to the kron block:
    M on each space, L_k ... L_1 on the (s*)^n ladder, Mt on each space,
    then L_1^{-1} ... L_k^{-1}, each on (space, "0")."""
    N, zn = rep.N, rep.factory.zn
    mats = rep.factory.build(lax_points(k, z, surface, rep) - rep.xi_a, hat=True)
    invs = np.linalg.inv(mats[k:])

    def each(M):
        return [Dense.from_matrix(M, (i,), N) for i in range(1, k + 1)]

    def on(mat, i):
        return Dense.from_matrix(mat, (i, "0"), N)

    return (each(zn.M_power(surface.m)) + [on(mats[k - i], i) for i in range(k, 0, -1)]
            + each(zn.M_power(surface.n)) + [on(invs[i - 1], i) for i in range(1, k + 1)])


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_antisym_trace_matches_the_kron_block(N):
    # every t^(k) on the default surfaces and on (-N+1, -1), against the
    # old 4k-gate product on all N^(k+1) rows of V (x) 1
    z = 1.2 + 0.1j
    for m, n in sorted({(-1, -1), (-2, 1), (-N + 1, -1)}):
        surface = resolve_surface(m, n, 0.6, 0.0, N)
        rep = EvalRep(RMatrixFactory(surface.params, POL), 0.9 + 0.2j)
        for k in range(1, N + 1):
            t = antisym_trace(N, *build_Q(k, z, surface, rep))
            oracle = kron_block_trace(old_Q_gates(k, z, surface, rep), k, rest=("0",))
            assert np.abs(t - oracle).max() <= 1e-13 * max(1.0, np.abs(oracle).max()), (m, n, k)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_antisym_trace_of_twist_powers_matches_the_kron_block(N):
    # tr(M^{(x)k} A_k) with no rest space, M = GH^{-m}, as n0 and trace-MA take it
    from wkit.rmatrix import ZnMatrices
    for m in range(1, N + 1):
        M = ZnMatrices(N).M_power(m)
        for k in range(1, N + 1):
            t = antisym_trace(N, lefts=[M] * k)
            oracle = kron_block_trace([Dense.from_matrix(M, (i,), N) for i in range(1, k + 1)], k)
            assert t.shape == (1, 1)
            assert abs(t[0, 0] - oracle[0, 0]) <= 1e-13 * max(1.0, abs(oracle[0, 0])), (m, k)


def fusion_reports(N=3):
    """fusion-identities at N by (check, k), k = None for a check without one."""
    from wkit import suites

    return {(r.check, r.inputs.get("k")): r
            for r in suites.suite_fusion_identities(suites.SuiteContext(params=params(N=N)))}


def test_projector_check_fails_for_a_symmetric_basis(monkeypatch):
    # orthonormal symmetric combinations: C(N,k) columns, and S S^T is a
    # projector of rank C(N,k), but the columns do not change sign under a swap
    assert fusion_reports()["antisymmetrizer-projectors", None].passed
    for k in range(2, 4):
        rows, values = antisymmetrizer(k, 3)
        monkeypatch.setitem(tensor._TABLES, (k, 3), Antisymmetrizer(rows, abs(values)))
    report = fusion_reports()["antisymmetrizer-projectors", None]
    assert not report.passed and report.residual > 0.5


def test_one_flipped_sign_in_the_table_fails_the_projector_checks(monkeypatch):
    # one nonzero of A_2's table at N = 3 with the wrong sign: the scattered
    # basis is no longer antisymmetric, and the chain X A = A X A fails on it
    before = fusion_reports()
    assert before["antisymmetrizer-projectors", None].passed and before["chain", 2].passed
    rows, values = antisymmetrizer(2, 3)
    flipped = values.copy()
    flipped[1, 0] *= -1
    monkeypatch.setitem(tensor._TABLES, (2, 3), Antisymmetrizer(rows, flipped))
    after = fusion_reports()
    assert not after["antisymmetrizer-projectors", None].passed
    assert after["antisymmetrizer-projectors", None].residual > 0.5
    assert not after["chain", 2].passed and after["chain", 2].residual > 1e-3


def test_A2_is_kernel_of_rhat_at_q():
    from wkit.rmatrix import kernel_projector
    dim, proj = kernel_projector(RMatrixFactory(params(N=3), POL))
    assert dim == 3
    assert np.linalg.norm(proj - projector(2, 3)) < 1e-8


# ---------------------------------------------------------------------------
# Fused products
# ---------------------------------------------------------------------------

def rhat_on(fac, xi, labels) -> LabeledTensor:
    """Rhat(xi) of a one-point build, on two named spaces."""
    return LabeledTensor.from_matrix(fac.build([xi], hat=True)[0], labels, fac.N)


def test_fused_single_factor_is_rhat():
    pr = params(N=2)
    fac = RMatrixFactory(pr, POL)
    x = 1.2 + 0.1j
    RR = fused_R(x, 1, 1, fac)
    direct = rhat_on(fac, xi_of(x), RR.labels)
    assert np.allclose(RR.data, direct.data)


@pytest.mark.parametrize("N,k,kp", [(2, 2, 2), (3, 2, 1), (3, 2, 2)])
def test_fused_crossing_unitarity(N, k, kp):
    pr = params(N=N)
    fac = RMatrixFactory(pr, POL)
    x = 1.25 + 0.15j
    RR = fused_R(x, k, kp, fac)
    RRN = fused_R(pr.q**N * x, k, kp, fac)
    rows = row_labels(k)
    lhs = RR.partial_transpose(rows).inv()
    rhs = RRN.inv().partial_transpose(rows)
    assert (lhs - rhs).norm() / lhs.norm() < 1e-8


@pytest.mark.parametrize("N,k", [(2, 2), (3, 2), (3, 3)])
def test_fusion_identities(N, k):
    reports = map(run_check, check_fusion_identities(k, RMatrixFactory(params(N=N), POL), 1.2 + 0.1j))
    for r in reports:
        assert r.residual < 1e-8, (r.check, r.residual)


def test_apply_gates_matches_dense_product():
    labels, N = (1, "0", 2), 3
    gates = [rnd((2, 1), N), rnd(("0",), N), rnd((1, "0"), N)]
    dense = dense_product(gates, labels)
    block = RNG.normal(size=(27, 5)) + 1j * RNG.normal(size=(27, 5))
    out = apply_gates(gates, labels, block.reshape(3, 3, 3, 5))
    assert np.allclose(out.reshape(27, 5), dense.data @ block, rtol=0, atol=1e-12)


def _dense_projector_residual(gates, labels, a_labels):
    N = gates[0].N
    A = dense_on(Dense.from_matrix(projector(len(a_labels), N), a_labels, N), labels)
    lhs = dense_product(gates, labels) @ A
    return (lhs - A @ lhs).norm() / lhs.norm()


def kron_block_residual(gates, a_labels, rest):
    """||(1 - A) Y|| / ||Y|| for Y = X (V (x) 1), with V (x) 1 formed by
    np.kron and X applied by `apply_gates` on all N^n rows: the oracle for
    the charge-sector kernel."""
    V = antisymmetrizer_basis(len(a_labels), gates[0].N)
    Y = kron_block_Y(gates, a_labels, rest).reshape(len(V), -1)
    return np.linalg.norm(Y - V @ (V.T @ Y)) / np.linalg.norm(Y)


def kron_block_Y(gates, a_labels, rest):
    """X (V (x) 1) on all N^n rows, as an (N^n, C(N,k) N^len(rest)) array."""
    N, labels = gates[0].N, tuple(a_labels) + tuple(rest)
    V = antisymmetrizer_basis(len(a_labels), N)
    block = np.kron(V, np.eye(N ** len(rest))).reshape((N,) * len(labels) + (-1,))
    return apply_gates(gates, labels, block).reshape(N ** len(labels), -1)


@pytest.mark.parametrize("a_labels", [(1, 2), ("0", 2), (2, 1, "0")])
def test_projector_residual_matches_dense_when_it_fails(a_labels):
    # random charge-conserving gates break X A = A X A by O(1); the sector
    # kernel must still give the dense value, not just a small number
    labels, N = (1, 2, "0"), 3
    gates = [rnd_conserving((1, "0"), N), rnd_conserving((2,), N), rnd_conserving((2, "0"), N)]
    rest = tuple(l for l in labels if l not in a_labels)
    block = _projector_residual(gates, a_labels, rest)
    dense = _dense_projector_residual(gates, labels, a_labels)
    assert dense > 0.1
    assert abs(block - dense) <= 1e-12 * dense


@pytest.mark.parametrize("a_labels", [(1, 2), ("0", 2), (2, 1, "0")])
def test_projector_residual_raises_on_gates_that_break_the_charge(a_labels):
    # random dense gates conserve no Z_N charge: they are refused as they
    # enter the graded type, and no entry outside the sectors is dropped
    labels, N = (1, 2, "0"), 3
    dense_gates = [rnd((1, "0"), N), rnd((2,), N), rnd((2, "0"), N)]
    rest = tuple(l for l in labels if l not in a_labels)
    with pytest.raises(ChargeViolation):
        gates = [LabeledTensor.from_matrix(g.data, g.labels, N) for g in dense_gates]
        _projector_residual(gates, a_labels, rest)


def test_projector_residual_refuses_a_difference_charge():
    # the one charge is sum_i x_i mod N: at N = 3 a gate that conserves
    # x_a - x_b instead is refused, not given a weight -1 on one space
    gates = [rnd_conserving((1, "0"), 3), rnd_conserving((2, "0"), 3).partial_transpose("0")]
    with pytest.raises(ChargeViolation, match=r"gate on \(2, '0'\)"):
        _projector_residual(gates, (1, 2), ("0",))


def fusion_gate_lists(N, k, kp):
    """Every gate list `check_fusion_identities` builds, by name, with its
    A spaces and rest spaces, from the same R-hat builds."""
    fac = RMatrixFactory(params(N=N), POL)
    xi, zeta = xi_of(1.2 + 0.1j), fac.params.zeta
    aux, rows, cols = tuple(range(1, k + 1)), row_labels(k), col_labels(kp)
    R = [rhat_on(fac, xi - (i - 1) * zeta, (i, "0")) for i in aux]
    Rinv = [rhat_on(fac, xi + (i - 1) * zeta, (i, "0")).inv() for i in aux]
    gates = fused_gates(1.2 + 0.1j, k, kp, fac)
    inv_gates = [g.inv() for g in reversed(gates)]
    return {
        "chain": (R, aux, ("0",)),
        "chain_t0_inv": ([r.inv() for r in reversed(R)], aux, ("0",)),
        "chain_inv": (Rinv, aux, ("0",)),
        "fused_rows": (gates, rows, cols),
        "fused_cols": (gates, cols, rows),
        "fused_inv_rows": (inv_gates, rows, cols),
        "fused_inv_cols": (inv_gates, cols, rows),
    }


def cone(gates, a_labels, cap=tensor._BLOCK_ENTRIES):
    """(stages, labels, blocks): the stages of the light-cone kernel, the
    spaces of its last stage in their order, and its blocks."""
    schedule = _light_cone([g.labels for g in gates], a_labels)
    stages = _stages(gates, a_labels, schedule)
    labels = tuple(a_labels) + tuple(space for space, _ in schedule[1:])
    return stages, labels, list(_cone_blocks(stages, gates[0].N, len(a_labels), cap))


def sector_gram(blocks, stages, N):
    """Y Y^H on the rows of each sector, in increasing order, summed over
    the blocks of the light cone: the columns up to a unitary mixing."""
    back = stages[-1].back
    gram = np.zeros((N, len(back), len(back)), dtype=complex)
    for Q, Y in blocks:
        for Y1, sector in zip(Y, range(N)[Q]):
            gram[sector] += Y1[back] @ Y1[back].conj().T
    return gram


@pytest.mark.parametrize("N,k,kp", [(2, 2, 2), (3, 3, 2), (4, 2, 2), (4, 3, 1), (5, 2, 2), (5, 3, 1)])
def test_charge_sectors_match_the_kron_block(N, k, kp):
    # the light-cone blocks hold X (V (x) 1) on the rows of each sector: their
    # Gram matrix per sector is the kron block's, so no column is lost, kept
    # twice or put in another sector, and the residual is the kron block's
    for name, (gates, a_labels, rest) in fusion_gate_lists(N, k, kp).items():
        if len(a_labels) == 1:
            continue
        stages, labels, blocks = cone(gates, a_labels)
        assert sorted(labels, key=str) == sorted(tuple(a_labels) + tuple(rest), key=str), name
        order = [(tuple(a_labels) + tuple(rest)).index(l) for l in labels]
        oracle = kron_block_Y(gates, a_labels, rest).reshape((N,) * len(labels) + (-1,))
        oracle = oracle.transpose(order + [len(labels)]).reshape(N ** len(labels), -1)
        charge = np.indices((N,) * len(labels)).reshape(len(labels), -1).sum(axis=0) % N
        want = np.array([oracle[charge == Q] @ oracle[charge == Q].conj().T for Q in range(N)])
        got = sector_gram(blocks, stages, N)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name
        assert abs(_projector_residual(gates, a_labels, rest)
                   - kron_block_residual(gates, a_labels, rest)) <= 1e-13, name


@pytest.mark.parametrize("N,k,kp", [(2, 2, 2), (3, 3, 2), (3, 3, 3), (4, 2, 2)])
def test_light_cone_matches_dense_on_random_gates(N, k, kp):
    # random charge-conserving gates on the labels of every gate list break
    # X A = A X A by O(1), so a gate moved past one that shares a space, or
    # a rest space added at the wrong row, shows at this scale
    rng = np.random.default_rng(100 * N + 10 * k + kp)
    for name, (gates, a_labels, rest) in fusion_gate_lists(N, k, kp).items():
        labels = tuple(a_labels) + tuple(rest)
        random_gates = [rnd_conserving(g.labels, N, rng=rng) for g in gates]
        dense = _dense_projector_residual(random_gates, labels, a_labels)
        assert dense > 0.1, name
        assert abs(_projector_residual(random_gates, a_labels, rest) - dense) <= 1e-12 * dense, name


space_lists = st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=3, unique=True),
                       min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(space_lists, st.lists(st.sampled_from("abcdef"), max_size=4, unique=True))
def test_light_cone_passes_no_gate_that_shares_a_space(label_lists, a_labels):
    # every gate runs once, after every gate right of it that shares a space
    # with it, and on spaces that have all been added by then
    stages = _light_cone(label_lists, a_labels)
    order = [g for _, gates in stages for g in gates]
    assert sorted(order) == list(range(len(label_lists)))
    ran = {g: i for i, g in enumerate(order)}
    for g in range(len(label_lists)):
        for h in range(g + 1, len(label_lists)):  # h is right of g, so runs first
            if set(label_lists[g]) & set(label_lists[h]):
                assert ran[h] < ran[g], (g, h)
    active = set(a_labels)
    for i, (space, gates) in enumerate(stages):
        assert (space is None) == (i == 0)
        if space is not None:
            assert space not in active
            active.add(space)
        assert all(set(label_lists[g]) <= active for g in gates)
    assert active == set(a_labels).union(*map(set, label_lists))


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_t0_inverse_chain_is_the_reversed_inverse_chain(N):
    # (R1^-1)^t0 ... (Rk^-1)^t0 = (Rk^-1 ... R1^-1)^t0, and transposing "0"
    # commutes with A_k (x) 1 and keeps the norm: the reversed inverse chain
    # that `check_fusion_identities` passes has the transposed chain's
    # residual.  The transposed gates conserve x_a - x_0, which is the one
    # charge x_a + x_0 only at N = 2
    reversed_chain, aux, rest = fusion_gate_lists(N, min(N, 3), 2)["chain_t0_inv"]
    transposed = [g.partial_transpose("0") for g in reversed(reversed_chain)]
    oracle = kron_block_residual(transposed, aux, rest)
    assert abs(_projector_residual(reversed_chain, aux, rest) - oracle) <= 1e-13
    if N == 2:
        assert abs(_projector_residual(transposed, aux, rest) - oracle) <= 1e-13
    else:
        with pytest.raises(ChargeViolation):
            _projector_residual(transposed, aux, rest)


def test_one_off_charge_entry_raises():
    # a single nonzero entry outside the N^3 pattern, however small, is
    # refused; so is a one-space gate that is not diagonal
    gates, aux, rest = fusion_gate_lists(3, 2, 2)["chain"]
    assert _projector_residual(gates, aux, rest) < 1e-12
    bad = dense(gates[1]).data.copy()
    bad[0, 1] = 1e-300  # (0, 0) <- (0, 1): charge 0 <- 1
    with pytest.raises(ChargeViolation, match=r"operator on \(2, '0'\)"):
        LabeledTensor.from_matrix(bad, gates[1].labels, 3)
    with pytest.raises(ChargeViolation):
        LabeledTensor.from_matrix(np.roll(np.eye(3), 1, axis=0), (1,), 3)


def test_projector_residual_nan_gate():
    # a gate that is not finite gives a NaN residual, not a charge error
    gates, aux, rest = fusion_gate_lists(3, 2, 2)["chain"]
    bad = dense(gates[0]).data.copy()
    bad[0, 1] = complex(math.nan, 0.0)  # off the charge pattern as well
    assert math.isnan(_projector_residual([LabeledTensor.from_matrix(bad, gates[0].labels, 3),
                                           gates[1]], aux, rest))


def test_sector_blocks_respect_guard(monkeypatch):
    # N = 3, A_2 on (1, 2) and rest ("0", 3): the table has 6 entries, a
    # sector block 27 rows x 9 columns; a guard of 6^2 = 36 admits the
    # first and refuses the second
    monkeypatch.setenv("WKIT_MAX_DIM", "6")
    gates = [rnd_conserving((1, "0"), 3), rnd_conserving((2, 3), 3)]
    with pytest.raises(DimensionGuardExceeded, match="sector block of 243 entries"):
        _projector_residual(gates, (1, 2), ("0", 3))


def test_projector_residual_on_one_space_is_zero_unless_a_gate_is_not_finite():
    # A_1 = 1: the residual is 0 without applying the gates, and a
    # non-finite gate still fails the report
    rng = np.random.default_rng(41)
    gates = [rnd_conserving(labels, 3, rng=rng) for labels in [(1, "0"), (2, "0")]]
    assert _projector_residual(gates, ("0",), (1, 2)) == 0.0
    gates[1].data[2, 1] = complex(math.nan, 0.0)
    assert math.isnan(_projector_residual(gates, ("0",), (1, 2)))
    assert math.isnan(_projector_residual(gates, (1,), (2, "0")))


@pytest.mark.parametrize("N,k,kp", [(2, 2, 2), (3, 2, 2), (3, 3, 1), (4, 2, 2)])
def test_block_fusion_residuals_match_dense(N, k, kp):
    fac = RMatrixFactory(params(N=N), POL)
    x = 1.2 + 0.1j
    reports = {r.check: r.residual for r in map(run_check, check_fusion_identities(k, fac, x, kprime=kp))}
    xi, zeta = xi_of(x), fac.params.zeta
    aux, rows, cols = tuple(range(1, k + 1)) + ("0",), row_labels(k), col_labels(kp)
    R = [rhat_on(fac, xi - (i - 1) * zeta, (i, "0")) for i in range(1, k + 1)]
    Rinv = [rhat_on(fac, xi + (i - 1) * zeta, (i, "0")).inv() for i in range(1, k + 1)]
    gates = fused_gates(x, k, kp, fac)
    inv_gates = [g.inv() for g in reversed(gates)]
    dense = {
        "chain": _dense_projector_residual(R, aux, aux[:-1]),
        "chain_t0_inv": _dense_projector_residual(
            [r.inv().partial_transpose("0") for r in R], aux, aux[:-1]),
        "chain_inv": _dense_projector_residual(Rinv, aux, aux[:-1]),
        "fused_rows": _dense_projector_residual(gates, rows + cols, rows),
        "fused_cols": _dense_projector_residual(gates, rows + cols, cols),
        "fused_inv_rows": _dense_projector_residual(inv_gates, rows + cols, rows),
        "fused_inv_cols": _dense_projector_residual(inv_gates, rows + cols, cols),
    }
    assert set(reports) == set(dense)
    for name, value in dense.items():
        assert abs(reports[name] - value) <= 1e-13, (name, reports[name], value)


def test_fusion_identities_control():
    # perturbing one chain argument must break the projector identity
    pr = params(N=2)
    fac = RMatrixFactory(pr, POL)
    k, N = 2, 2
    x = 1.2 + 0.1j
    xi = xi_of(x)
    labels = (1, 2, "0")
    X = compose([rhat_on(fac, xi, (1, "0")),
                 rhat_on(fac, xi - 1.01 * pr.zeta, (2, "0"))], labels)  # wrong ladder step
    A = dense_on(Dense.from_matrix(projector(2, 2), (1, 2), 2), labels)
    lhs = dense(X) @ A
    rhs = A @ lhs
    assert (lhs - rhs).norm() / lhs.norm() > 1e-3


@pytest.mark.parametrize("N,k,kp", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)])
def test_monodromy_identity_and_derivative(N, k, kp):
    rep = run_check(check_M_derivative(1.3 + 0.1j, k, kp, RMatrixFactory(params(N=N), POL)))
    assert rep.passed, (rep.residual, rep.inputs)
    assert rep.inputs["identity_residual"] < 1e-8


@pytest.mark.parametrize("k,kp,x", [(2, 2, 1.2141783628393559 + 0.3583511134578865j),
                                    (1, 2, 0.8806196336124467 + 0.3376133325115172j)])
def test_monodromy_derivative_at_complex_q(k, kp, x):
    # the points the fusion suite draws at N = 3, q = 0.5 + 0.1i, p = 0.4,
    # seed 5: the plain central difference with step 1e-4 read 1.04e-5 at
    # (2, 2), over its tolerance of 1e-5, and 2.3e-6 at (1, 2); extrapolated
    # they read 6e-10 and 6e-11
    from wkit.cli import parse_config

    ctx, _ = parse_config({"params": {"N": 3, "q": [0.5, 0.1], "p": 0.4}, "seed": 5})
    rep = run_check(check_M_derivative(x, k, kp, RMatrixFactory(ctx.params, POL)))
    assert rep.passed and rep.tolerance == 1e-5 and rep.inputs["step"] == 1e-4
    assert rep.residual < 1e-8, rep.residual


def test_monodromy_derivative_control():
    # replacing the q^{-c-N} argument by q^{-c} must give a nonzero derivative
    fac = RMatrixFactory(params(N=2), POL)
    x, k, kp, step = 1.3 + 0.1j, 1, 1, 1e-4
    N = fac.N

    def wrong_M(c):
        rows, labels = row_labels(k), row_labels(k) + col_labels(kp)
        R0i = fused_R(x, k, kp, fac).inv()
        # the block at -c is missing the -N shift
        Rc, Rm = (compose(f, labels) for f in _fused_factors(x, k, kp, fac, [c, -c]))
        inner = (R0i @ Rm @ R0i).partial_transpose(rows)
        return (Rc.partial_transpose(rows) @ inner).partial_transpose(rows)

    d = (wrong_M(-N + step) - wrong_M(-N - step)).norm() / (2 * step)
    assert d > 1e-3


def test_monodromy_critical_is_identity():
    M, = monodromy_M(1.2 + 0.2j, 2, 1, RMatrixFactory(params(N=2), POL), [-2])
    assert (M - LabeledTensor.from_matrix(np.eye(len(M.data)), M.labels, 2)).norm() < 1e-8 * M.norm()


# ---------------------------------------------------------------------------
# The graded operator against the dense oracle
# ---------------------------------------------------------------------------

def dense_M(x, k, kp, fac, c):
    """M(x) at the central charge c, composed, inverted and transposed as
    Dense operators from the same factors as `monodromy_M`."""
    rows, labels = row_labels(k), row_labels(k) + col_labels(kp)
    R0, Rc, Rm = (dense_product(f, labels) for f in _fused_factors(x, k, kp, fac, [0.0, c, -c - fac.N]))
    R0i = R0.inv()
    return (Rc.partial_transpose(rows) @ (R0i @ Rm @ R0i).partial_transpose(rows)).partial_transpose(rows)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_graded_monodromy_and_crossing_match_the_dense_oracle(N):
    # every (k, k') <= 2: M at the critical level and off it to 1e-12 ||M||,
    # and the fused crossing-unitarity residual to 1e-13
    pr = params(N=N)
    fac = RMatrixFactory(pr, POL)
    x = 1.25 + 0.15j
    for k in (1, 2):
        for kp in (1, 2):
            cs = [-N, -N + 0.3]
            for M, c in zip(monodromy_M(x, k, kp, fac, cs), cs):
                oracle = dense_M(x, k, kp, fac, c).data
                assert M.weights == (1,) * (k + kp)
                assert np.linalg.norm(dense(M).data - oracle) <= 1e-12 * np.linalg.norm(oracle), (k, kp, c)
            rows = row_labels(k)
            RR, RRN = fused_R(x, k, kp, fac), fused_R(pr.q**N * x, k, kp, fac)
            graded = (RR.partial_transpose(rows).inv() - RRN.inv().partial_transpose(rows)).norm() \
                / RR.partial_transpose(rows).inv().norm()
            D, DN = dense(RR), dense(RRN)
            lhs = D.partial_transpose(rows).inv()
            assert abs(graded - (lhs - DN.inv().partial_transpose(rows)).norm() / lhs.norm()) <= 1e-13


def test_one_tiny_entry_off_the_pattern_is_refused_before_a_transpose():
    # R^{t2} conserves x_1 - x_2 at N = 3, its blocks moved from those of R;
    # a 1e-300 entry off R's pattern is refused as R enters the graded type,
    # so no transpose can carry it onto the flipped pattern
    fac = RMatrixFactory(params(N=3), POL)
    R = fac.build([xi_of(1.2 + 0.1j)], hat=True)[0]
    Rt = LabeledTensor.from_matrix(R, (1, 2), 3).partial_transpose(2)
    assert Rt.weights == (1, -1)
    assert np.array_equal(dense(Rt).data, Dense.from_matrix(R, (1, 2), 3).partial_transpose(2).data)
    bad = R.copy()
    assert bad[0, 1] == 0  # (0, 0) <- (0, 1) changes x_1 + x_2
    bad[0, 1] = 1e-300
    with pytest.raises(ChargeViolation):
        LabeledTensor.from_matrix(bad, (1, 2), 3).partial_transpose(2)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_crossing_R21_swapped_on_the_dense_matrix_is_R21_in_the_order_1_2(N):
    # check_crossing builds R21 by swapping the two spaces of the dense
    # matrix; read on (2, 1) and put in the order (1, 2) by the oracle, R21
    # must be the same operator entry for entry, and so must its R21^{t2}
    m = RMatrixFactory(params(N=N), POL).build([xi_of(0.8 - 0.3j)], hat=False)[0]
    R21 = LabeledTensor.from_matrix(_swap_spaces(m), (1, 2), N)
    oracle = Dense.from_matrix(m, (2, 1), N).reorder((1, 2))
    assert np.array_equal(dense(R21).data, oracle.data)
    assert np.array_equal(dense(R21.partial_transpose(2)).data, oracle.partial_transpose(2).data)


def test_M_derivative_at_N4_runs_under_a_guard_of_128(monkeypatch):
    # the blocks of k = k' = 2 at N = 4 hold 4 x 64 x 64 = 128^2 entries; the
    # dense operators needed a guard of 256
    fac = RMatrixFactory(params(N=4), POL)
    monkeypatch.setenv("WKIT_MAX_DIM", "128")
    rep = run_check(check_M_derivative(1.3 + 0.1j, 2, 2, fac))
    assert rep.passed, rep.residual
    monkeypatch.setenv("WKIT_MAX_DIM", "127")
    rep = run_check(check_M_derivative(1.3 + 0.1j, 2, 2, fac))
    assert not rep.passed and math.isnan(rep.residual)
    assert rep.inputs["error"] == "DimensionGuardExceeded"
    assert "4 x 64 x 64 charge blocks of 16384 entries" in rep.inputs["message"]


def test_index_tables_are_refused_before_they_are_built(monkeypatch):
    # a partial transpose at N = 2 on four spaces gathers through a table of
    # 2 x 8 x 8 entries, a sector kernel on three spaces indexes 3 x 4 rows;
    # each is refused under its own count, cached or not, before any table
    t = rnd_conserving((1, 2, 3, 4), 2)
    t.partial_transpose(2)  # the table is now cached
    gates = [rnd_conserving((1, "0"), 2), rnd_conserving((2, "0"), 2)]
    _projector_residual(gates, (1, 2), ("0",))
    for builder in ("_states", "_gate_step"):
        monkeypatch.setattr(tensor, builder, lambda *args: pytest.fail("a table was built"))
    monkeypatch.setenv("WKIT_MAX_DIM", "11")
    with pytest.raises(DimensionGuardExceeded, match="2 x 8 x 8 index table of 128 entries"):
        t.partial_transpose(2)
    with pytest.raises(DimensionGuardExceeded, match="2 x 8 x 8 index table of 128 entries"):
        t.partial_transpose(1)  # not cached
    monkeypatch.setenv("WKIT_MAX_DIM", "3")  # the sector block of 4 x 1 passes, the table of 12 not
    with pytest.raises(DimensionGuardExceeded, match="sector index table of 12 entries"):
        _projector_residual(gates, (1, 2), ("0",))


@pytest.mark.parametrize("N,labels,max_dim,what", [
    (3, [(1, "0"), (2, 3)], 6, "sector block of 243 entries"),
    (2, [(1, "0"), (2, "0")], 3, "sector index table of 12 entries")])
def test_projector_residual_refuses_before_any_gate_runs(N, labels, max_dim, what, monkeypatch):
    # A_2 on (1, 2): at N = 3 with rest ("0", 3) a sector block holds 27 rows
    # x 9 columns; at N = 2 with rest ("0",) the block of 4 x 1 passes and the
    # table of 3 x 4 does not.  Both counts are known before the first gate
    gates = [rnd_conserving(l, N) for l in labels]
    rest = tuple(dict.fromkeys(l for ls in labels for l in ls if l not in (1, 2)))
    monkeypatch.setattr(tensor, "_run", lambda *args: pytest.fail("a gate ran"))
    monkeypatch.setenv("WKIT_MAX_DIM", str(max_dim))
    with pytest.raises(DimensionGuardExceeded, match=what):
        _projector_residual(gates, (1, 2), rest)


def test_refused_fusion_residuals_run_no_gate(monkeypatch):
    # under CI's guard of 128 at N = 4 the six-space fused lists are refused
    # on their block of 1024 x 32 entries, with no gate run first
    lists = fusion_gate_lists(4, 3, 3)
    monkeypatch.setattr(tensor, "_run", lambda *args: pytest.fail("a gate ran"))
    monkeypatch.setenv("WKIT_MAX_DIM", "128")
    for name in ("fused_rows", "fused_cols", "fused_inv_rows", "fused_inv_cols"):
        with pytest.raises(DimensionGuardExceeded, match="sector block of 32768 entries"):
            _projector_residual(*lists[name])


def test_projector_residual_peak_memory():
    # fused_cols at (k, k') = (4, 2), N = 4: 1536 columns of 1024 rows, in
    # blocks of 2^15 entries (512 KB); no stage is held whole
    import tracemalloc

    args = fusion_gate_lists(4, 4, 2)["fused_cols"]
    _projector_residual(*args)  # the plans are cached
    tracemalloc.start()
    try:
        _projector_residual(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0e6, peak


# ---------------------------------------------------------------------------
# The projector path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N,k,kp", [(3, 3, 2), (4, 2, 2), (4, 3, 1)])
def test_a_sector_split_over_blocks_equals_one_block(N, k, kp, monkeypatch):
    split = 0  # the lists whose sectors take several blocks
    for name, args in fusion_gate_lists(N, k, kp).items():
        whole = _projector_residual(*args)
        rows = N ** (len(args[1]) + len(args[2]) - 1)
        monkeypatch.setattr(tensor, "_BLOCK_ENTRIES", 2 * rows)  # two columns a block
        _, _, blocks = cone(args[0], args[1], 2 * rows)
        assert all(Y.shape[0] * Y.shape[2] <= 2 for _, Y in blocks), name
        split += len(blocks) > N
        assert abs(_projector_residual(*args) - whole) <= 1e-13, name
        monkeypatch.undo()
    assert split >= 4


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_sparse_basis_projection_matches_the_dense_basis(N):
    # (1 - A) Y through the signs of the k! nonzeros of each column of V
    # against Ya - Va @ (Va.T @ Ya), on every block of every gate list the
    # fusion suite builds
    for k, kp in {(2, 2), (min(N, 3), 1), (N, 1)}:
        for name, (gates, a_labels, rest) in fusion_gate_lists(N, k, kp).items():
            if len(a_labels) == 1:
                continue
            V = antisymmetrizer_basis(len(a_labels), N)
            stages, labels, blocks = cone(gates, a_labels)
            back, t = stages[-1].back, len(labels) - len(a_labels)
            for Q, Y in blocks:
                Ya = Y[:, back].reshape(len(Y), len(V), -1)
                dense_part = Ya - V @ (V.T @ Ya)
                outside, total = _block_norms(Y, *_support(N, len(a_labels), t, back, Q.start))
                assert abs(total - np.linalg.norm(Y) ** 2) <= 1e-13 * total, (k, kp, name)
                assert abs(outside - np.linalg.norm(dense_part) ** 2) <= 1e-13 * total, (k, kp, name)
