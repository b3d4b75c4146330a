import numpy as np
import pytest

from commutant.config import InvalidInputError, NumericConfig
from commutant.linalg import (
    OperatorSubspace,
    as_matrix,
    commutator,
    direct_sum,
    haar_unitaries,
    haar_unitary,
    hs_norm,
    op_norm,
    orthonormalize,
    random_matrix,
    subspace_contains,
    subspace_distance,
    subspace_equal,
)

CFG = NumericConfig()


def power_iteration_norm(M, iters=3000, seed=5):
    """Independent largest-singular-value estimate via power iteration on M*M."""
    rng = np.random.default_rng(seed)
    A = np.asarray(M, dtype=complex)
    G = A.conj().T @ A
    v = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = G @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(np.linalg.norm(G @ v)))


class TestOpNorm:
    def test_matches_power_iteration_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = random_matrix(rng, 6)
            np.testing.assert_allclose(op_norm(A), power_iteration_norm(A), rtol=1e-8)

    def test_known_values(self):
        assert op_norm(np.eye(4)) == pytest.approx(1.0)
        assert op_norm(np.diag([3.0, -1.0, 2.0])) == pytest.approx(3.0)
        # rank-one xy^*: norm equals |x| |y|
        x = np.array([[3.0], [4.0]])
        y = np.array([[1.0], [1.0]])
        assert op_norm(x @ y.conj().T) == pytest.approx(5.0 * np.sqrt(2.0))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(1)
        A = random_matrix(rng, 5)
        U = haar_unitary(rng, 5)
        V = haar_unitary(rng, 5)
        assert abs(op_norm(U @ A @ V) - op_norm(A)) < 1e-10

    def test_submultiplicative(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = random_matrix(rng, 4)
            B = random_matrix(rng, 4)
            assert op_norm(A @ B) <= op_norm(A) * op_norm(B) + 1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            op_norm(np.ones((2, 3)))
        with pytest.raises(InvalidInputError):
            op_norm(np.array([[np.nan, 0], [0, 1]]))
        with pytest.raises(InvalidInputError):
            as_matrix(np.ones((2, 2)), dim=3)


class TestHSNorm:
    def test_is_the_frobenius_norm(self):
        X = random_matrix(np.random.default_rng(4), 3)
        assert hs_norm(X) == pytest.approx(np.linalg.norm(X))


class TestCommutator:
    def test_hand_computed_2x2(self):
        X = np.diag([1.0, 2.0])
        Y = np.array([[0.0, 1.0], [0.0, 0.0]])
        # XY - YX scales the (0,1) entry by 1 - 2
        np.testing.assert_allclose(commutator(X, Y), [[0.0, -1.0], [0.0, 0.0]])

    def test_antisymmetry_and_identity(self):
        rng = np.random.default_rng(5)
        X = random_matrix(rng, 4)
        Y = random_matrix(rng, 4)
        np.testing.assert_allclose(commutator(X, Y), -commutator(Y, X))
        np.testing.assert_allclose(commutator(X, np.eye(4)), np.zeros((4, 4)))


class TestSums:
    def test_direct_sum_norm_is_max(self):
        rng = np.random.default_rng(6)
        A = random_matrix(rng, 3)
        B = random_matrix(rng, 2)
        S = direct_sum(A, B)
        assert S.shape == (5, 5)
        np.testing.assert_allclose(S[:3, :3], A)
        np.testing.assert_allclose(S[3:, 3:], B)
        assert op_norm(S) == pytest.approx(max(op_norm(A), op_norm(B)))


def qr_rank(mats, tol=1e-9):
    """Independent rank of a span via column-pivoted QR of the vec stack."""
    import scipy.linalg

    V = np.stack([np.asarray(M, dtype=complex).ravel() for M in mats])
    R = scipy.linalg.qr(V.T, mode="r", pivoting=True)[0]
    d = np.abs(np.diag(R))
    if d.size == 0 or d[0] == 0:
        return 0
    return int(np.sum(d > tol * d[0]))


class TestOrthonormalize:
    def test_rank_matches_qr_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = 4
            true_rank = int(rng.integers(1, 6))
            gens = [random_matrix(rng, n) for _ in range(true_rank)]
            # redundant spanning set: random combinations of the generators
            span = gens + [
                sum(rng.standard_normal() * G for G in gens) for _ in range(4)
            ]
            space = orthonormalize(span, CFG)
            assert space.dim == qr_rank(span) == true_rank

    def test_basis_is_orthonormal_and_spans_inputs(self):
        rng = np.random.default_rng(9)
        mats = [random_matrix(rng, 5) for _ in range(7)]
        space = orthonormalize(mats, CFG)
        assert space.gram_defect() < 1e-12
        for M in mats:
            assert space.residual(M) < 1e-7 * hs_norm(M)

    def test_projection_is_idempotent_and_contractive(self):
        rng = np.random.default_rng(10)
        space = orthonormalize([random_matrix(rng, 4) for _ in range(3)], CFG)
        T = random_matrix(rng, 4)
        P = space.project(T)
        np.testing.assert_allclose(space.project(P), P, atol=1e-12)
        assert hs_norm(P) <= hs_norm(T) + 1e-12

    def test_empty_span(self):
        space = orthonormalize([], CFG, ambient_dim=3)
        assert space.dim == 0
        T = np.eye(3)
        np.testing.assert_allclose(space.project(T), np.zeros((3, 3)))
        assert space.residual(T) == pytest.approx(np.sqrt(3.0))

    def test_zero_matrices_have_rank_zero(self):
        space = orthonormalize([np.zeros((3, 3))], CFG)
        assert space.dim == 0


class TestProjections:
    def test_batched_projections_match_project_row_by_row(self):
        rng = np.random.default_rng(15)
        space = orthonormalize([random_matrix(rng, 4) for _ in range(5)], CFG)
        mats = np.stack([random_matrix(rng, 4) for _ in range(6)])
        P = space.projections(mats)
        assert P.shape == mats.shape
        for M, row in zip(mats, P):
            np.testing.assert_allclose(row, space.project(M), atol=1e-14)
        np.testing.assert_allclose(
            space.residuals(mats), np.linalg.norm((mats - P).reshape(6, -1), axis=1), atol=1e-14
        )

    def test_random_element_lies_in_its_span_and_ignores_the_basis(self):
        rng = np.random.default_rng(16)
        space = orthonormalize([random_matrix(rng, 4) for _ in range(5)], CFG)
        # another orthonormal basis of the same span: a unitary mix of the first
        mixed = OperatorSubspace(4, np.tensordot(haar_unitary(rng, 5), space.basis, axes=1))
        assert mixed.gram_defect() < 1e-12
        X = space.random_element(np.random.default_rng(17))
        Y = mixed.random_element(np.random.default_rng(17))
        assert hs_norm(X) > 0.1
        assert space.residual(X) < 1e-12 * hs_norm(X)
        np.testing.assert_allclose(X, Y, atol=1e-12 * hs_norm(X))


class TestSubspacePredicates:
    def test_containment_of_diagonal_in_upper_triangular(self):
        diag = orthonormalize([np.diag([1.0, 0]), np.diag([0, 1.0])], CFG)
        upper = orthonormalize(
            [np.diag([1.0, 0]), np.diag([0, 1.0]), np.array([[0, 1.0], [0, 0]])], CFG
        )
        assert subspace_contains(upper, diag, CFG)
        assert not subspace_contains(diag, upper, CFG)
        assert not subspace_equal(diag, upper, CFG)
        assert subspace_distance(diag, upper) == pytest.approx(1.0)

    def test_equality_is_basis_independent(self):
        rng = np.random.default_rng(11)
        gens = [random_matrix(rng, 4) for _ in range(3)]
        space_a = orthonormalize(gens, CFG)
        mixed = [
            sum(rng.standard_normal() * G for G in gens) for _ in range(6)
        ]
        space_b = orthonormalize(mixed, CFG)
        assert subspace_equal(space_a, space_b, CFG)
        assert subspace_distance(space_a, space_b) < 1e-9


class TestHaar:
    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(12)
        U = haar_unitary(rng, 6)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(6), atol=1e-12)

    def test_batch_matches_unitarity_and_mean(self):
        rng = np.random.default_rng(13)
        batch = haar_unitaries(rng, 3, 4000)
        prods = np.einsum("kab,kcb->kac", batch, batch.conj())
        np.testing.assert_allclose(prods, np.broadcast_to(np.eye(3), (4000, 3, 3)), atol=1e-10)
        # Haar mean of U is 0; 4000 samples put the empirical mean near 0
        assert np.abs(batch.mean(axis=0)).max() < 0.05

    def test_deterministic_given_seed(self):
        U1 = haar_unitary(np.random.default_rng(99), 4)
        U2 = haar_unitary(np.random.default_rng(99), 4)
        np.testing.assert_array_equal(U1, U2)


class TestSubspaceImmutability:
    def test_basis_arrays_are_read_only(self):
        space = orthonormalize([np.eye(2)], CFG)
        with pytest.raises(ValueError):
            space.basis[0][0, 0] = 5.0

    def test_ambient_mismatch_raises(self):
        a = OperatorSubspace(2, (np.eye(2) / np.sqrt(2),))
        b = OperatorSubspace(3, (np.eye(3) / np.sqrt(3),))
        with pytest.raises(InvalidInputError):
            subspace_contains(a, b, CFG)


class TestSubspaceStorage:
    @pytest.mark.parametrize(
        "basis",
        [
            [np.eye(3)],  # wrong size
            [np.eye(2), np.eye(3)],  # ragged
            np.eye(2),  # one 2-D matrix, not a sequence of matrices
            [np.array([[np.nan, 0.0], [0.0, 1.0]])],
            [np.array([[np.inf, 0.0], [0.0, 1.0]])],
        ],
    )
    def test_rejects_bad_basis(self, basis):
        with pytest.raises(InvalidInputError):
            OperatorSubspace(2, basis)

    def test_basis_is_one_read_only_array_and_stack_its_view(self):
        rng = np.random.default_rng(14)
        mats = [random_matrix(rng, 3) for _ in range(4)]
        space = orthonormalize(mats, CFG)
        assert isinstance(space.basis, np.ndarray)
        assert space.basis.shape == (4, 3, 3)
        assert space.stack.shape == (4, 9)
        assert np.shares_memory(space.stack, space.basis)
        assert not space.basis.flags.writeable
        assert not space.stack.flags.writeable
        np.testing.assert_array_equal(space.stack[2], space.basis[2].ravel())

    def test_input_array_is_copied_not_frozen(self):
        mats = np.stack([np.eye(2) / np.sqrt(2)])
        space = OperatorSubspace(2, mats)
        assert mats.flags.writeable
        assert not np.shares_memory(space.basis, mats)

    @pytest.mark.parametrize("empty", [(), [], np.zeros((0, 3, 3))])
    def test_empty_subspace_shapes(self, empty):
        space = OperatorSubspace(3, empty)
        assert space.dim == 0
        assert space.basis.shape == (0, 3, 3)
        assert space.stack.shape == (0, 9)
        assert space.gram_defect() == 0.0
