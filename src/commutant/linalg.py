"""Dense complex matrix primitives and Hilbert-Schmidt subspace arithmetic.

Everything works on square complex128 numpy arrays.  The inner product
throughout is <X, Y> = trace(Y^* X), whose norm is the Frobenius norm, so
vec() of a Hilbert-Schmidt orthonormal family is orthonormal in the usual
vector sense and subspace projections reduce to BLAS calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, InvalidInputError, NumericConfig


def as_matrix(M, dim: int | None = None) -> np.ndarray:
    """Validate and return M as a square complex128 array."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise InvalidInputError("empty matrix")
    if not np.isfinite(A).all():
        raise InvalidInputError("matrix has non-finite entries")
    if dim is not None and A.shape[0] != dim:
        raise InvalidInputError(f"expected dimension {dim}, got {A.shape[0]}")
    return A


def as_matrices(mats, dim: int) -> np.ndarray:
    """Validate and copy a sequence of dim x dim matrices into a (k, dim, dim) array."""
    try:
        A = np.array(mats, dtype=np.complex128)
    except (TypeError, ValueError):
        raise InvalidInputError("expected a sequence of equal-shape matrices") from None
    if A.shape == (0,):
        A = A.reshape(0, dim, dim)
    if A.shape[1:] != (dim, dim):
        raise InvalidInputError(f"expected a stack of {dim} x {dim} matrices, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InvalidInputError("matrix has non-finite entries")
    return A


def op_norm(M) -> float:
    """Operator (spectral) norm: the largest singular value."""
    A = as_matrix(M)
    return float(np.linalg.svd(A, compute_uv=False)[0])


def hs_norm(X) -> float:
    return float(np.linalg.norm(X))


def commutator(X, Y) -> np.ndarray:
    A = as_matrix(X)
    B = as_matrix(Y, dim=A.shape[0])
    return A @ B - B @ A


def direct_sum(*mats) -> np.ndarray:
    """Block-diagonal direct sum of square matrices."""
    blocks = [as_matrix(M) for M in mats]
    if not blocks:
        raise InvalidInputError("direct_sum needs at least one summand")
    n = sum(B.shape[0] for B in blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for B in blocks:
        k = B.shape[0]
        out[at : at + k, at : at + k] = B
        at += k
    return out


@dataclass(frozen=True)
class OperatorSubspace:
    """A linear subspace of n x n matrices with a stored orthonormal basis.

    basis is one read-only complex (dim, n, n) array, built from any
    sequence of n x n matrices, and stack is its (dim, n^2) view.  The
    basis is Hilbert-Schmidt orthonormal by construction; use
    orthonormalize() to build one from arbitrary spanning matrices.
    """

    ambient_dim: int
    basis: np.ndarray = ()

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise InvalidInputError("ambient_dim must be >= 1")
        B = as_matrices(self.basis, self.ambient_dim)
        B.flags.writeable = False
        object.__setattr__(self, "basis", B)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def stack(self) -> np.ndarray:
        """(dim, n^2) view of the basis whose rows are vec() of its elements."""
        return self.basis.reshape(self.dim, self.ambient_dim**2)

    def project(self, T) -> np.ndarray:
        """Orthogonal projection of T onto this subspace."""
        return self.projections(as_matrix(T, dim=self.ambient_dim)[None])[0]

    def projections(self, mats) -> np.ndarray:
        """Orthogonal projection of each matrix of a (k, n, n) stack onto this subspace."""
        return self._projected(as_matrices(mats, self.ambient_dim))

    def _projected(self, M: np.ndarray) -> np.ndarray:
        """The one projection kernel, for an already validated (k, n, n) stack."""
        S = self.stack
        return ((M.reshape(-1, S.shape[1]) @ S.conj().T) @ S).reshape(M.shape)

    def residual(self, T) -> float:
        """Frobenius distance from T to this subspace."""
        return float(self.residuals(as_matrix(T, dim=self.ambient_dim)[None])[0])

    def residuals(self, mats) -> np.ndarray:
        """Frobenius distance from each matrix of a (k, n, n) stack to this subspace."""
        M = as_matrices(mats, self.ambient_dim)
        return np.linalg.norm((M - self._projected(M)).reshape(-1, self.ambient_dim**2), axis=1)

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        """The projection of one seeded Ginibre matrix onto this subspace.

        For a given rng it depends on the span alone, not on the basis.
        """
        return self.project(random_matrix(rng, self.ambient_dim))

    def gram_defect(self) -> float:
        """Max-abs deviation of the basis Gram matrix from the identity."""
        if not self.dim:
            return 0.0
        G = self.stack.conj() @ self.stack.T
        return float(np.max(np.abs(G - np.eye(self.dim))))


def rank_svd(M: np.ndarray):
    """Singular values and right singular vectors (economy size) of M.

    Every numerical-rank decision goes through here.  numpy's driver,
    LAPACK gesdd, can fail to converge on matrices with clustered small
    singular values; the QR-iteration driver gesvd is slower but converges
    on them, so a failure is retried with it (scipy is imported only for
    that retry).  A tall M is first reduced to its triangular QR factor,
    which has the same singular values and right singular vectors at a
    fraction of the cost.
    """
    if M.shape[0] > M.shape[1]:
        M = np.linalg.qr(M, mode="r")
    try:
        _, svals, Vh = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError:
        # The retry is rare; importing scipy.linalg up front would cost
        # every process about 0.25 s and 28 MB.
        import scipy.linalg

        _, svals, Vh = scipy.linalg.svd(M, full_matrices=False, lapack_driver="gesvd")
    return svals, Vh


def orthonormalize(
    mats, cfg: NumericConfig = DEFAULT_CONFIG, ambient_dim: int | None = None
) -> OperatorSubspace:
    """Orthonormal basis of span(mats), truncated at numerical rank.

    Singular values below rank_tol times the largest are treated as zero.
    """
    mats = list(mats)
    if not mats:
        if ambient_dim is None:
            raise InvalidInputError("ambient_dim required for an empty span")
        return OperatorSubspace(ambient_dim, ())
    n = as_matrix(mats[0], dim=ambient_dim).shape[0]
    V = np.stack([as_matrix(M, dim=n).ravel() for M in mats])
    svals, Vh = rank_svd(V)
    if svals.size == 0 or svals[0] <= 0:
        return OperatorSubspace(n, ())
    rank = int(np.sum(svals > cfg.rank_tol * svals[0]))
    return OperatorSubspace(n, Vh[:rank].reshape(rank, n, n))


def subspace_contains(
    V: OperatorSubspace, W: OperatorSubspace, cfg: NumericConfig = DEFAULT_CONFIG
) -> bool:
    """True when every element of W lies in V within eq_tol."""
    if V.ambient_dim != W.ambient_dim:
        raise InvalidInputError("subspaces live in different ambient dimensions")
    return bool(np.all(V.residuals(W.basis) <= cfg.eq_tol))


def subspace_equal(
    V: OperatorSubspace, W: OperatorSubspace, cfg: NumericConfig = DEFAULT_CONFIG
) -> bool:
    return subspace_contains(V, W, cfg) and subspace_contains(W, V, cfg)


def subspace_distance(V: OperatorSubspace, W: OperatorSubspace) -> float:
    """Largest basis-element residual in either direction; 0 iff equal spans."""
    if V.ambient_dim != W.ambient_dim:
        raise InvalidInputError("subspaces live in different ambient dimensions")
    r = np.concatenate([V.residuals(W.basis), W.residuals(V.basis)])
    return float(r.max(initial=0.0))


def random_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Ginibre matrix: iid standard complex normal entries."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Z / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    Z = random_matrix(rng, n)
    return (Z + Z.conj().T) / 2.0


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """One Haar-distributed n x n unitary."""
    return haar_unitaries(rng, n, 1)[0]


def haar_unitaries(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, n, n) Haar unitaries: QR of Ginibre matrices with R's diagonal phases fixed."""
    Z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    Q, R = np.linalg.qr(Z / np.sqrt(2.0))
    phase = np.exp(-1j * np.angle(np.einsum("kii->ki", R)))
    return Q * phase[:, None, :]
