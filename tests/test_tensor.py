"""Labeled tensor engine, antisymmetrizers, fused products."""

import cmath
import math
from functools import reduce
from itertools import combinations, permutations

import numpy as np
import pytest

from wkit import EllipticParams, LabeledTensor, RMatrixFactory, TruncationPolicy, antisymmetrizer, xi_of
from wkit.errors import ChargeViolation, DimensionGuardExceeded, LabelMismatch
from wkit.suites import check_fusion_identities, check_M_derivative
from wkit.wgen import EvalRep, build_Q, lax_points, resolve_surface
from wkit.tensor import (
    Antisymmetrizer,
    _basis_step,
    _charge_sectors,
    _projector_residual,
    antisym_trace,
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


def rnd(labels, N=2):
    D = N ** len(labels)
    return LabeledTensor.from_matrix(
        RNG.normal(size=(D, D)) + 1j * RNG.normal(size=(D, D)), labels, N)


def rnd_stack(k, d):
    return RNG.normal(size=(k, d, d)) + 1j * RNG.normal(size=(k, d, d))


def params(N=2, q=0.5, p=0.3):
    return EllipticParams(N=N, q=q, s=cmath.sqrt(p))


def dense_on(t, labels):
    """t as a dense operator on `labels`: the identity on the spaces it
    does not act on, by np.kron, then the spaces put in the order of
    `labels`.  The independent oracle for `apply_gates` and `compose`."""
    extra = tuple(l for l in labels if l not in t.labels)
    big = np.kron(t.data, np.eye(t.N ** len(extra)))
    return LabeledTensor.from_matrix(big, t.labels + extra, t.N).reorder(tuple(labels))


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
    for gate in reversed(gates):
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
    V = antisymmetrizer(k, N).basis
    D = N ** len(rest)
    block = np.kron(V, np.eye(D)).reshape((N,) * (k + len(rest)) + (-1,))
    Y = apply_gates(gates, tuple(range(1, k + 1)) + tuple(rest), block)
    return np.einsum("ac,aicj->ij", V, Y.reshape(N**k, D, V.shape[1], D))


def stack_gates(lefts, rights, N):
    """The factors of X_k = l_k ... l_1 r_1 ... r_k, each stack entry on
    (space j, "0"), as a gate list, leftmost first."""
    k = len(lefts)
    return ([LabeledTensor.from_matrix(lefts[j - 1], (j, "0"), N) for j in range(k, 0, -1)]
            + [LabeledTensor.from_matrix(rights[j - 1], (j, "0"), N) for j in range(1, k + 1)])


def partial_trace(t, traced):
    """The trace of t over the spaces `traced`, by einsum on its data with
    those spaces moved last: the dense oracle for `antisym_trace`."""
    traced = tuple(traced)
    keep = tuple(l for l in t.labels if l not in traced)
    Dk, Dt = t.N ** len(keep), t.N ** len(traced)
    data = t.reorder(keep + traced).data.reshape(Dk, Dt, Dk, Dt)
    return LabeledTensor(keep, t.N, np.einsum("aibi->ab", data))


def dense_antisymmetrizer(k, N):
    """The permutation sum A_k = (1/k!) sum_sigma sign(sigma) P_sigma, with
    the sign from the determinant of the permutation matrix."""
    A = np.zeros((N**k, N**k))
    for perm in permutations(range(k)):
        sign = round(np.linalg.det(np.eye(k)[list(perm)]))
        A += sign * permutation_operator(perm, N)
    return A / math.factorial(k)


# ---------------------------------------------------------------------------
# LabeledTensor mechanics
# ---------------------------------------------------------------------------

def test_composition_order_independence_disjoint():
    a, b = rnd((1,), N=2), rnd((2,), N=2)
    ab = compose([a, b], (1, 2))
    ba = compose([b, a], (1, 2))
    assert np.allclose(ab.data, ba.data)
    assert np.allclose(ab.data, np.kron(a.data, b.data))


def test_trace_factorizes():
    a, b = rnd((1,), N=3), rnd((2,), N=3)
    prod = compose([a, b], (1, 2))
    assert abs(partial_trace(prod, (1, 2)).data[0, 0]
               - np.trace(a.data) * np.trace(b.data)) < 1e-10


def test_double_partial_transpose_is_identity():
    t = rnd((1, 2, "0"), N=2)
    assert np.allclose(t.partial_transpose("0").partial_transpose("0").data, t.data)


def test_trace_transpose_identity():
    # tr_1(O M) = tr_1((M^{T0}) (O^{T0}))^{T0} on spaces (1, "0")
    O = rnd((1, "0"), N=3)
    M = rnd((1, "0"), N=3)
    lhs = partial_trace(O @ M, (1,))
    rhs = partial_trace(M.partial_transpose("0") @ O.partial_transpose("0"), (1,)).partial_transpose("0")
    assert np.allclose(lhs.data, rhs.data)


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
    a, b = rnd(left, N=N), rnd(right, N=N)
    union = left + tuple(l for l in right if l not in left)
    ab = compose([a, b], union)
    assert ab.labels == union
    dense = (dense_on(a, union) @ dense_on(b, union)).data
    assert np.linalg.norm(ab.data - dense) <= 1e-12 * np.linalg.norm(dense)


def test_label_mismatch_raises():
    with pytest.raises(LabelMismatch):
        rnd((1, 2)).reorder((1, 3))
    with pytest.raises(LabelMismatch):
        LabeledTensor.from_matrix(np.eye(4), (1, 1), 2)
    a, b = rnd((1, 2)), rnd((2, 3))
    with pytest.raises(LabelMismatch, match=r"\(1, 2\).*\(2, 3\).*compose"):
        a @ b
    with pytest.raises(LabelMismatch, match="compose"):
        a - rnd((1,))
    with pytest.raises(LabelMismatch, match="compose"):
        a @ rnd((1, 2), N=3)


def test_dimension_guard_and_override(monkeypatch):
    gate = rnd((1, 2))
    monkeypatch.setenv("WKIT_MAX_DIM", "100")
    with pytest.raises(DimensionGuardExceeded):
        compose([gate], range(1, 8))  # 128 > 100
    monkeypatch.setenv("WKIT_MAX_DIM", "200")
    assert compose([gate], range(1, 8)).data.shape == (128, 128)
    monkeypatch.delenv("WKIT_MAX_DIM")
    with pytest.raises(DimensionGuardExceeded):
        compose([gate], range(1, 16))  # 32768 > default


def test_compose_guard_before_allocating(monkeypatch):
    # a D x D product holds D^2 entries, admitted up to WKIT_MAX_DIM^2
    monkeypatch.setenv("WKIT_MAX_DIM", "8")
    gate = rnd((1, 2))
    assert compose([gate], (1, 2, 3)).data.shape == (8, 8)  # at the guard
    allocated = []
    monkeypatch.setattr(np, "eye", lambda *args, **kwargs: allocated.append(args))
    with pytest.raises(DimensionGuardExceeded, match="16 x 16 operator of 256 entries"):
        compose([gate], (1, 2, 3, 4))
    assert allocated == []


def test_antisym_trace_guard_before_its_largest_step(monkeypatch):
    # step j at N = 4 with no rest space holds N max(C(4,j-1), C(4,j)) C(4,j)
    # entries: 64, 144, 96 and 16.  The largest is admitted under 12^2; under
    # 11^2 the trace is refused at j = 2 before the first step multiplies
    lefts = [RNG.normal(size=(4, 4)) + 0j] * 4
    monkeypatch.setenv("WKIT_MAX_DIM", "12")
    assert antisym_trace(4, lefts).shape == (1, 1)
    monkeypatch.setenv("WKIT_MAX_DIM", "11")
    monkeypatch.setattr(np, "matmul", lambda *args: pytest.fail("a step ran before the guard"))
    with pytest.raises(DimensionGuardExceeded, match="Lambda\\^2 step of 144 entries"):
        antisym_trace(4, lefts)


def test_dense_constructors_respect_guard(monkeypatch):
    # a dense operator is guarded by its dimension (8), the antisymmetrizer
    # basis by its N^k C(N,k) entries (8^2 = 64)
    monkeypatch.setenv("WKIT_MAX_DIM", "8")
    assert compose([rnd((1,))], (1, 2, 3)).data.shape == (8, 8)  # at the guard
    with pytest.raises(DimensionGuardExceeded):
        compose([rnd((1,), 3)], (1, 2))  # 9 > 8
    with pytest.raises(DimensionGuardExceeded):
        permutation_operator((1, 0), 3)
    A = antisymmetrizer(2, 3)  # 9 x 3 = 27 entries
    assert A.basis.shape == (9, 3)
    with pytest.raises(DimensionGuardExceeded):
        A.matrix  # 9 x 9
    assert antisymmetrizer(1, 8).basis.shape == (8, 8)  # 64 entries: at the guard
    with pytest.raises(DimensionGuardExceeded):
        antisymmetrizer(3, 4)  # 64 x 4 = 256 entries


def test_antisymmetrizer_basis_cached_read_only(monkeypatch):
    # the basis is built once per (k, N) and shared, so no caller may write
    # into it; the guard reads WKIT_MAX_DIM at call time, cached or not
    A = antisymmetrizer(3, 4)
    assert antisymmetrizer(3, 4).basis is A.basis
    assert not A.basis.flags.writeable
    with pytest.raises(ValueError):
        A.basis[0, 0] = 1.0
    monkeypatch.setenv("WKIT_MAX_DIM", "8")
    with pytest.raises(DimensionGuardExceeded, match="antisymmetrizer basis of 256 entries"):
        antisymmetrizer(3, 4)
    monkeypatch.delenv("WKIT_MAX_DIM")
    assert antisymmetrizer(3, 4).basis is A.basis


# ---------------------------------------------------------------------------
# Antisymmetrizers
# ---------------------------------------------------------------------------

def test_A2_explicit():
    N = 3
    A = antisymmetrizer(2, N)
    P = permutation_operator((1, 0), N)
    assert np.allclose(A.matrix, (np.eye(N * N) - P) / 2)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_projector_rank(N):
    for k in range(1, N + 1):
        A = antisymmetrizer(k, N)
        assert np.linalg.norm(A.matrix @ A.matrix - A.matrix) < 1e-12
        evals = np.linalg.eigvalsh(A.matrix)
        assert int(np.sum(evals > 0.5)) == math.comb(N, k)
    assert np.allclose(antisymmetrizer(1, N).matrix, np.eye(N))
    assert math.comb(N, N) == 1  # A_N has rank one


@pytest.mark.parametrize("N", [2, 3, 4])
def test_antisymmetrizer_basis_spans_the_permutation_sum(N):
    for k in range(1, N + 1):
        A = antisymmetrizer(k, N)
        assert A.basis.shape == (N**k, math.comb(N, k)) and A.rank == math.comb(N, k)
        assert np.abs(A.basis.T @ A.basis - np.eye(A.rank)).max() <= 1e-15
        assert np.abs(A.matrix - dense_antisymmetrizer(k, N)).max() <= 1e-15


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
        A = LabeledTensor.from_matrix(dense_antisymmetrizer(k, N), aux, N)
        # both stacks, and each alone (a missing stack is the identity)
        for args, kwargs in [((lefts, rights), {}), ((lefts, ones), {"lefts": lefts}),
                             ((ones, rights), {"rights": rights})]:
            dense = partial_trace(dense_product(stack_gates(*args, N) + [A], aux + ("0",)), aux).data
            got = antisym_trace(N, **kwargs) if kwargs else antisym_trace(N, *args)
            assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max(), (k, kwargs.keys())


def test_basis_step_maps_one_basis_to_the_next():
    # V_j = (V_{j-1} (x) 1) B_j for the bases of `antisymmetrizer`, V_0 = 1;
    # B_j has orthonormal columns, is built once per (j, N) and read-only
    for N in (2, 3, 4, 5):
        prev = np.ones((1, 1))
        for j in range(1, N + 1):
            B = _basis_step(j, N)
            V = antisymmetrizer(j, N).basis
            assert np.abs(np.kron(prev, np.eye(N)) @ B - V).max() <= 1e-15, (N, j)
            assert np.abs(B.T @ B - np.eye(B.shape[1])).max() <= 1e-15
            assert _basis_step(j, N) is B and not B.flags.writeable
            prev = V


def old_Q_gates(k, z, surface, rep):
    """The 4k gates of Q_{1..k}(z) as they were applied to the kron block:
    M on each space, L_k ... L_1 on the (s*)^n ladder, Mt on each space,
    then L_1^{-1} ... L_k^{-1}, each on (space, "0")."""
    N, zn = rep.N, rep.factory.zn
    mats = rep.lax(lax_points(k, z, surface, rep))
    invs = np.linalg.inv(mats[k:])

    def each(M):
        return [LabeledTensor.from_matrix(M, (i,), N) for i in range(1, k + 1)]

    def on(mat, i):
        return LabeledTensor.from_matrix(mat, (i, "0"), N)

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
            oracle = kron_block_trace([LabeledTensor.from_matrix(M, (i,), N) for i in range(1, k + 1)], k)
            assert t.shape == (1, 1)
            assert abs(t[0, 0] - oracle[0, 0]) <= 1e-13 * max(1.0, abs(oracle[0, 0])), (m, k)


def test_projector_check_fails_for_a_symmetric_basis(monkeypatch):
    # orthonormal symmetric combinations: C(N,k) columns, and S S^T is a
    # projector of rank C(N,k), but the columns do not change sign under a swap
    from wkit import suites

    def symmetric(k, N):
        combos = list(combinations(range(N), k))
        S = np.zeros((N**k, len(combos)))
        for c, js in enumerate(combos):
            for perm in permutations(range(k)):
                S[np.ravel_multi_index([js[p] for p in perm], (N,) * k), c] = 1.0
        return Antisymmetrizer(k, N, S / math.sqrt(math.factorial(k)))

    def projectors_report():
        ctx = suites.SuiteContext(params=params(N=3))
        return next(r for r in suites.suite_fusion_identities(ctx)
                    if r.check == "antisymmetrizer-projectors")

    assert projectors_report().passed
    monkeypatch.setattr(suites, "antisymmetrizer", symmetric)
    report = projectors_report()
    assert not report.passed and report.residual > 0.5


def test_A2_is_kernel_of_rhat_at_q():
    from wkit.rmatrix import kernel_projector
    dim, proj = kernel_projector(RMatrixFactory(params(N=3), POL))
    assert dim == 3
    assert np.linalg.norm(proj - antisymmetrizer(2, 3).matrix) < 1e-8


# ---------------------------------------------------------------------------
# Fused products
# ---------------------------------------------------------------------------

def rhat_on(fac, xi, labels) -> LabeledTensor:
    """Rhat(xi) of a one-point build, on two named spaces."""
    return LabeledTensor.from_matrix(fac.rhat_matrix_xi(xi), labels, fac.N)


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
    reports = check_fusion_identities(k, RMatrixFactory(params(N=N), POL), 1.2 + 0.1j)
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
    A = dense_on(LabeledTensor.from_matrix(
        antisymmetrizer(len(a_labels), N).matrix, a_labels, N), labels)
    lhs = dense_product(gates, labels) @ A
    return (lhs - A @ lhs).norm() / lhs.norm()


def rnd_conserving(labels, N, sign=1):
    """A random gate on one or two spaces that conserves x_a + sign x_b mod N:
    the N^3 pattern of Rhat on two spaces, a diagonal on one."""
    x = np.indices((N,) * len(labels)).reshape(len(labels), -1)
    charge = (x[0] + sign * x[1]) % N if len(labels) == 2 else x[0]
    data = rnd(labels, N).data * (charge[:, None] == charge[None, :])
    return LabeledTensor.from_matrix(data, labels, N)


def kron_block_residual(gates, a_labels, rest):
    """||(1 - A) Y|| / ||Y|| for Y = X (V (x) 1), with V (x) 1 formed by
    np.kron and X applied by `apply_gates` on all N^n rows: the oracle for
    the charge-sector kernel."""
    V = antisymmetrizer(len(a_labels), gates[0].N).basis
    Y = kron_block_Y(gates, a_labels, rest).reshape(len(V), -1)
    return np.linalg.norm(Y - V @ (V.T @ Y)) / np.linalg.norm(Y)


def kron_block_Y(gates, a_labels, rest):
    """X (V (x) 1) on all N^n rows, as an (N^n, C(N,k) N^len(rest)) array."""
    N, labels = gates[0].N, tuple(a_labels) + tuple(rest)
    V = antisymmetrizer(len(a_labels), N).basis
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
    # random dense gates conserve no Z_N charge: the sector kernel must
    # refuse them, not drop the entries outside the sectors
    labels, N = (1, 2, "0"), 3
    gates = [rnd((1, "0"), N), rnd((2,), N), rnd((2, "0"), N)]
    rest = tuple(l for l in labels if l not in a_labels)
    with pytest.raises(ChargeViolation):
        _projector_residual(gates, a_labels, rest)


def test_projector_residual_refuses_a_difference_charge():
    # the one charge is sum_i x_i mod N: at N = 3 a gate that conserves
    # x_a - x_b instead is refused, not given a weight -1 on one space
    gates = [rnd_conserving((1, "0"), 3), rnd_conserving((2, "0"), 3, -1)]
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


@pytest.mark.parametrize("N,k,kp", [(2, 2, 2), (3, 3, 2), (4, 2, 2), (4, 3, 1), (5, 2, 2), (5, 3, 1)])
def test_charge_sectors_match_the_kron_block(N, k, kp):
    # the sector blocks, scattered back to all N^n rows, are X (V (x) 1)
    # column for column: every column once, nothing outside its sector
    for name, (gates, a_labels, rest) in fusion_gate_lists(N, k, kp).items():
        if len(a_labels) == 1:
            continue
        oracle = kron_block_Y(gates, a_labels, rest)
        full = np.zeros_like(oracle)
        seen = np.zeros(oracle.shape[1], dtype=int)
        for Y, rows, cols in _charge_sectors(gates, a_labels, rest):
            full[np.ix_(rows, cols)] = Y
            seen[cols] += 1
        assert (seen == 1).all(), name
        assert np.linalg.norm(full - oracle) <= 1e-13 * np.linalg.norm(oracle), name
        assert abs(_projector_residual(gates, a_labels, rest)
                   - kron_block_residual(gates, a_labels, rest)) <= 1e-13, name


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
    bad = gates[1].data.copy()
    bad[0, 1] = 1e-300  # (0, 0) <- (0, 1): charge 0 <- 1
    broken = [gates[0], LabeledTensor(gates[1].labels, 3, bad)]
    with pytest.raises(ChargeViolation, match=r"gate on \(2, '0'\)"):
        _projector_residual(broken, aux, rest)
    shift = LabeledTensor.from_matrix(np.roll(np.eye(3), 1, axis=0), (1,), 3)
    with pytest.raises(ChargeViolation):
        _projector_residual(gates + [shift], aux, rest)


def test_projector_residual_nan_gate():
    # a gate that is not finite gives a NaN residual, not a charge error
    gates, aux, rest = fusion_gate_lists(3, 2, 2)["chain"]
    bad = gates[0].data.copy()
    bad[0, 1] = complex(math.nan, 0.0)  # off the charge pattern as well
    assert math.isnan(_projector_residual([LabeledTensor(gates[0].labels, 3, bad), gates[1]],
                                          aux, rest))


def test_sector_blocks_respect_guard(monkeypatch):
    # N = 3, A_2 on (1, 2) and rest ("0", 3): the basis has 27 entries, a
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
    gates = [LabeledTensor.from_matrix(rng.normal(size=(9, 9)) + 0j, labels, 3)
             for labels in [(1, "0"), (2, "0")]]
    assert _projector_residual(gates, ("0",), (1, 2)) == 0.0
    gates[1].data[2, 5] = complex(math.nan, 0.0)
    assert math.isnan(_projector_residual(gates, ("0",), (1, 2)))
    assert math.isnan(_projector_residual(gates, (1,), (2, "0")))


@pytest.mark.parametrize("N,k,kp", [(2, 2, 2), (3, 2, 2), (3, 3, 1), (4, 2, 2)])
def test_block_fusion_residuals_match_dense(N, k, kp):
    fac = RMatrixFactory(params(N=N), POL)
    x = 1.2 + 0.1j
    reports = {r.check: r.residual for r in check_fusion_identities(k, fac, x, kprime=kp)}
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
    A = dense_on(LabeledTensor.from_matrix(antisymmetrizer(2, 2).matrix, (1, 2), 2), labels)
    lhs = X @ A
    rhs = A @ lhs
    assert (lhs - rhs).norm() / lhs.norm() > 1e-3


@pytest.mark.parametrize("N,k,kp", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)])
def test_monodromy_identity_and_derivative(N, k, kp):
    rep = check_M_derivative(1.3 + 0.1j, k, kp, RMatrixFactory(params(N=N), POL))
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
    rep = check_M_derivative(x, k, kp, RMatrixFactory(ctx.params, POL))
    assert rep.passed and rep.tolerance == 1e-5 and rep.inputs["step"] == 1e-4
    assert rep.residual < 1e-8, rep.residual


def test_monodromy_derivative_control():
    # replacing the q^{-c-N} argument by q^{-c} must give a nonzero derivative
    fac = RMatrixFactory(params(N=2), POL)
    x, k, kp, step = 1.3 + 0.1j, 1, 1, 1e-4
    N = fac.N

    def wrong_M(c):
        rows = row_labels(k)
        R0i = fused_R(x, k, kp, fac).inv()
        Rc = fused_R(x, k, kp, fac, c_shift=c)
        Rm = fused_R(x, k, kp, fac, c_shift=-c)  # missing the -N shift
        inner = (R0i @ Rm @ R0i).partial_transpose(rows)
        return (Rc.partial_transpose(rows) @ inner).partial_transpose(rows)

    d = (wrong_M(-N + step) - wrong_M(-N - step)).norm() / (2 * step)
    assert d > 1e-3


def test_monodromy_critical_is_identity():
    M, = monodromy_M(1.2 + 0.2j, 2, 1, RMatrixFactory(params(N=2), POL), [-2])
    assert (M - LabeledTensor.from_matrix(np.eye(len(M.data)), M.labels, 2)).norm() < 1e-8 * M.norm()
