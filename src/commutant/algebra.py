"""Subalgebras of M_n: generation, relative commutants, and normality.

A MatrixAlgebra is an OperatorSubspace that is closed under multiplication,
tagged with whether it contains the ambient identity and whether it is
closed under the adjoint.

Every finite-dimensional C*-algebra is a direct sum of blocks M_s tensor
I_m, and block_layout() says where each entry of such a sum sits in an
n x n matrix.  block_algebra() builds the sum from that table, and the
stock algebras are block algebras: M_n is one block (n, 1), the diagonal
masa n blocks (1, 1) and the scalars one block (1, n).

The relative commutant of a set S inside an ambient algebra B is
{X in B : XS = SX for every S}.  Its elements commute with a random
Hermitian H near span(S), so they are block diagonal on H's eigenspaces;
the search runs on those blocks inside B, which for a *-closed S with a
generic H in M_n leaves n unknowns instead of n^2.  When S is far from
*-closed, H's eigenvalues merge into one cluster; then, in M_n, the search
runs on the eigenvectors of a random Z in span(S), on which the commutant
is block diagonal too, and that again leaves n unknowns for the
polynomial algebra of a generic matrix.  A defective or badly conditioned
Z, or a proper ambient, keeps all of B.  Each element of S is scaled to
unit norm, and the search space is solved against a few random
combinations of S, whose nullspace can only be too large, and the result
certified against every element of S; elements that fail join the system
and it is solved again.  A solve on Z's eigenvectors with a singular value
just above the rank cut is redone on all of B.  Generated algebras are
closed Krylov-style from the identity, one generator at a time: each round
multiplies the directions the last round added by each generator in turn,
keeps what is new at a cut scaled by that generator's norm, and the
closure stops as soon as the span is all of M_n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, DIM_CAP, InvalidInputError, NumericConfig, ResourceLimitError
from .linalg import (
    OperatorSubspace,
    as_matrices,
    as_matrix,
    hs_norm,
    orthonormalize,
    rank_svd,
    subspace_contains,
    subspace_equal,
)

# closure checks above this many multiply-adds (m^3 n^2 for an m-dimensional
# proper subspace of M_n) are refused rather than ground through
_MAX_CLOSURE_WORK = 10**10
# random combinations of the commuted set in the first commutant solve
_COMMUTANT_PROBES = 3
# eigenvalues of the search element merge closer than this times
# eps_H / rank_tol for H, or kappa(V) eps_Z / rank_tol for Z = V diag V^-1:
# a commutant element's entries off the clusters, in the eigenbasis, are
# then at most rank_tol / 100 of its norm
_MERGE_FACTOR = 200.0


@dataclass(frozen=True)
class MatrixAlgebra:
    """A multiplicatively closed subspace of M_n with structure flags.

    A True flag is a promise: relative_commutant trusts selfadjoint=True
    without rechecking it, so build one only where it holds.
    """

    space: OperatorSubspace
    unital: bool
    selfadjoint: bool

    @property
    def ambient_dim(self) -> int:
        return self.space.ambient_dim

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def basis(self) -> np.ndarray:
        return self.space.basis


def block_layout(blocks) -> list:
    """Flat positions of the blocks of (+) M_s tensor I_m in an n x n matrix.

    Block k = (s, m) covers rows and columns off .. off + s*m - 1, where off
    is the s*m total of the blocks before it.  Entry (a, b) of its M_s factor
    on multiplicity copy j sits at row off + a*m + j and column
    off + b*m + j.  For each block the returned (s, s, m) integer array
    holds at [a, b, j] the position row * n + column of that entry in the
    flattened matrix, so E_ab tensor I_m is one at the m positions [a, b].
    Raises InvalidInputError for a block size or multiplicity below 1.
    """
    if any(s < 1 or m < 1 for s, m in blocks):
        raise InvalidInputError(f"block sizes and multiplicities must be >= 1, got {blocks}")
    n = sum(s * m for s, m in blocks)
    table, off = [], 0
    for s, m in blocks:
        rows = off + np.arange(s)[:, None] * m + np.arange(m)
        table.append(rows[:, None, :] * n + rows[None, :, :])
        off += s * m
    return table


def block_algebra(blocks, unitary=None) -> MatrixAlgebra:
    """The algebra (+) M_s tensor I_m in the basis given by `unitary`.

    The stored basis is the normalized matrix units E_ab tensor I_m / sqrt(m),
    block by block and row-major in (a, b), which is already
    Hilbert-Schmidt orthonormal.  A unitary with ||U* U - I||_F above
    eq_tol n is refused, since both flags would then be false promises.
    """
    blocks = tuple((int(s), int(m)) for s, m in blocks)
    n = sum(s * m for s, m in blocks)
    if not 1 <= n <= DIM_CAP:
        raise ResourceLimitError(f"ambient dimension {n} outside [1, {DIM_CAP}]")
    table = block_layout(blocks)
    units = np.zeros((sum(s * s for s, _ in blocks), n * n), dtype=np.complex128)
    at = 0
    for (s, m), pos in zip(blocks, table):
        rows = at + np.arange(s * s)[:, None]
        units[rows, pos.reshape(s * s, m)] = 1.0 / np.sqrt(m)
        at += s * s
    basis = units.reshape(-1, n, n)
    if unitary is not None:
        U = as_matrix(unitary, dim=n)
        if np.linalg.norm(U.conj().T @ U - np.eye(n)) > DEFAULT_CONFIG.eq_tol * n:
            raise InvalidInputError("block_algebra needs a unitary change of basis")
        basis = U @ basis @ U.conj().T
    return MatrixAlgebra(OperatorSubspace(n, basis), True, True)


def full_matrix_algebra(n: int) -> MatrixAlgebra:
    """All of M_n, with the matrix units as the stored basis."""
    return block_algebra(((n, 1),))


def diagonal_algebra(n: int) -> MatrixAlgebra:
    """The diagonal masa of M_n."""
    return block_algebra(((1, 1),) * n)


def scalar_algebra(n: int) -> MatrixAlgebra:
    """The scalar multiples of the identity in M_n."""
    return block_algebra(((1, n),))


def algebra_from_space(
    space: OperatorSubspace, cfg: NumericConfig = DEFAULT_CONFIG
) -> MatrixAlgebra:
    """Wrap a multiplicatively closed subspace, detecting the structure flags."""
    return MatrixAlgebra(space, _holds_identity(space, cfg), _adjoint_closed(space, cfg))


def _holds_identity(space: OperatorSubspace, cfg: NumericConfig) -> bool:
    """Whether the identity, of norm sqrt(n), lies in the span within eq_tol sqrt(n)."""
    n = space.ambient_dim
    return bool(space.residual(np.eye(n)) <= cfg.eq_tol * np.sqrt(n))


def _adjoint_closed(space: OperatorSubspace, cfg: NumericConfig) -> bool:
    return bool(np.all(space.residuals(space.basis.conj().transpose(0, 2, 1)) <= cfg.eq_tol))


def generate_algebra(
    generators,
    cfg: NumericConfig = DEFAULT_CONFIG,
    unital: bool = True,
    star: bool = False,
) -> MatrixAlgebra:
    """Smallest algebra containing the generators.

    With unital=True the ambient identity is thrown in; with star=True the
    adjoints are (those of Hermitian generators are the generators
    again), making the result selfadjoint.  Closure is a Krylov
    iteration, one generator at a time: each round multiplies the
    directions the previous round added (the frontier) on the right by
    each generator G in turn and keeps what is new, cut at rank_tol ||G||_F
    since a product of a unit direction by G is at most ||G||_F long.  The
    first frontier is the identity, so each generator enters the span in
    the first round at its own cut, however large the others are.  A span
    that holds the identity (or the generators) and is closed under right
    multiplication by each generator holds every word in them, so the
    closure ends when a round adds nothing or the span reaches n^2, which
    is all of M_n.
    """
    gens = [as_matrix(G) for G in generators]
    if not gens:
        raise InvalidInputError("generate_algebra needs at least one generator")
    n = gens[0].shape[0]
    if n > DIM_CAP:
        raise ResourceLimitError(f"ambient dimension {n} exceeds cap {DIM_CAP}")
    mult = [as_matrix(G, dim=n) for G in gens]
    if star:
        mult += [G.conj().T for G in mult if not np.array_equal(G, G.conj().T)]
    eye = np.eye(n, dtype=np.complex128).reshape(1, n * n)
    Q = eye / np.sqrt(n) if unital else np.empty((0, n * n), dtype=np.complex128)
    frontier = eye
    while len(frontier) and len(Q) < n * n:
        start = len(Q)
        for G in mult:
            Q = _extend(Q, frontier, G, cfg.rank_tol * hs_norm(G))
            if len(Q) == n * n:
                break
        frontier = Q[start:]
    space = OperatorSubspace(n, Q.reshape(-1, n, n))
    selfadjoint = star or _adjoint_closed(space, cfg)
    return MatrixAlgebra(space, unital or _holds_identity(space, cfg), selfadjoint)


def _extend(Q: np.ndarray, frontier: np.ndarray, G: np.ndarray, cut: float) -> np.ndarray:
    """Q with the directions of frontier . G orthogonal to it appended.

    Rows are flattened matrices.  The cut is absolute: scaling it by the
    products' own norms would let J^4 = 0 noise through.
    """
    n = G.shape[0]
    P = (frontier.reshape(-1, n) @ G).reshape(-1, n * n)
    for _ in range(2):
        P = P - (P @ Q.conj().T) @ Q
    # sigma_max <= ||P||_F, so a residual below the cut holds nothing new
    if np.linalg.norm(P) <= cut:
        return Q
    svals, Vh = rank_svd(P)
    return np.vstack([Q, Vh[: int(np.sum(svals > cut))]])


def _commuted_set(S, n: int) -> np.ndarray:
    """The (k, n, n) stack of the matrices to commute with, each of unit norm.

    An algebra's or subspace's basis is orthonormal already.  A raw list
    has each nonzero element scaled to unit Frobenius norm, which leaves
    the commutant as it is and keeps a small element's constraints above
    a rank cut that a large one would otherwise set.
    """
    if isinstance(S, (MatrixAlgebra, OperatorSubspace)):
        return as_matrices(S.basis, n)
    A = as_matrices(S, n)
    norms = np.linalg.norm(A.reshape(len(A), -1), axis=1)
    return A / np.where(norms > 0, norms, 1.0)[:, None, None]


def _commutator_system(mats: np.ndarray, Bstack: np.ndarray) -> np.ndarray:
    """Rows (i, vec entry), columns k: the maps X -> S_i X - X S_i on B's basis."""
    k, m, n = mats.shape[0], Bstack.shape[0], Bstack.shape[1]
    D = np.matmul(mats[:, None], Bstack[None]) - np.matmul(Bstack[None], mats[:, None])
    return D.reshape(k, m, n * n).transpose(0, 2, 1).reshape(k * n * n, m)


def _clusters(vals: np.ndarray, tol: float) -> np.ndarray:
    """Labels of the eigenvalues, equal within chains of steps of at most tol.

    Each label is the smallest index of its chain, so one cluster is all 0.
    """
    near = np.abs(vals[:, None] - vals[None, :]) <= tol
    label = np.arange(len(vals))
    while True:
        grown = np.where(near, label, len(vals)).min(axis=1)
        if np.array_equal(grown, label):
            return label
        label = grown


def _search_space(
    A: np.ndarray, span: OperatorSubspace, ambient: MatrixAlgebra, cfg: NumericConfig
):
    """Orthonormal basis of ambient elements holding the commutant, and its band.

    H = Z + Z* for a random combination Z of A, and eps_H adds eigh's
    backward error n eps ||H|| to H's distance from span(A).  On all of M_n
    the basis is V E_ij V* for i, j in one cluster of H's eigenvalues; in a
    proper ambient it is the span, in ambient coordinates, of the directions
    X with ||HX - XH|| <= tol ||X||, which holds every X that is block
    diagonal on the clusters.  When H's eigenvalues form one cluster and the
    ambient is M_n, the clusters of Z's eigenvectors take over (see
    _eigenvector_space); otherwise one cluster leaves the ambient basis as
    it is.  The band is 1 except on Z's eigenvectors.
    """
    n = ambient.ambient_dim
    rng = cfg.rng(112)
    coeff = rng.standard_normal(len(A)) + 1j * rng.standard_normal(len(A))
    Z = np.tensordot(coeff, A, axes=1)
    H = Z + Z.conj().T
    vals, V = np.linalg.eigh(H)
    eps_H = span.residual(H) + n * np.finfo(float).eps * max(-vals[0], vals[-1])
    tol = _MERGE_FACTOR * eps_H / cfg.rank_tol
    cluster = _clusters(vals, tol)
    if not cluster.any():
        if ambient.dim == n * n:
            return _eigenvector_space(A, coeff, Z, span, ambient, cfg)
        return ambient.basis, 1.0
    if ambient.dim == n * n:
        i, j = np.nonzero(cluster[:, None] == cluster[None, :])
        return V.T[i][:, :, None] * V.T[j].conj()[:, None, :], 1.0
    svals, Vh = rank_svd(_commutator_system(H[None], ambient.basis))
    K = np.tensordot(Vh[int(np.sum(svals > tol)) :].conj(), ambient.basis, axes=1)
    return K, 1.0


def _eigenvector_space(
    A: np.ndarray,
    coeff: np.ndarray,
    Z: np.ndarray,
    span: OperatorSubspace,
    ambient: MatrixAlgebra,
    cfg: NumericConfig,
):
    """span{V E_ij V^-1 : i, j in one cluster} for Z = V diag(lam) V^-1, and its band.

    Z = sum_k coeff_k A_k lies in span(A).  eig gives Z V = V diag(lam) + R,
    so V^-1 Z V = diag(lam) + G with G = V^-1 R, and eps_Z adds ||G||_F to
    Z's distance from span(A).  Let X commute with every A_k up to sigma:
    ||A_k X - X A_k|| <= sigma ||X||, so ||Z X - X Z|| <= |coeff|_1 sigma ||X||
    up to Z's distance from span(A).  Y = V^-1 X V has
    (lam_i - lam_j) Y_ij = (V^-1 (Z X - X Z) V - (G Y - Y G))_ij, and
    ||Y|| <= kappa(V) ||X||, so with e = |coeff|_1 sigma + 2 eps_Z,
    |Y_ij| <= kappa(V) e ||X|| / |lam_i - lam_j|.

    Merge rule: eigenvalues closer than tol = 200 kappa eps_Z / rank_tol
    share a cluster, so for an exact commutant element (sigma = 0) every
    entry of Y off the clusters is below rank_tol / 100 of ||X||, as with H.

    Band: the entries off the clusters have ||Y_off||_F <= kappa e ||X|| / gap,
    gap the least distance between eigenvalues of different clusters, and
    V Y_in V^-1, which lies in the space, is within kappa ||Y_off||_F of X.
    The A_k have norm at most 1 (see _commuted_set), so its commutators with
    them are at most sigma + 2 kappa^2 e / gap.  For sigma up to the solve's
    cut, which is at least rank_tol, that is at most band * cut with
    band = 1 + 2 kappa^2 (|coeff|_1 + 2 eps_Z / rank_tol) / gap.
    Restriction to a subspace only raises the small singular values, and
    the solve's singular values weigh these commutators by the probe
    coefficients, so to first order a solve on the space with none in
    (cut, band * cut] keeps as many directions as a solve on M_n;
    relative_commutant redoes any other solve on the ambient.  The band
    covers sets within about the cut of one with a larger commutant (a
    perturbed polynomial algebra), and an exact element that the factor
    kappa from Y back to X lifts over the cut.

    A numerically singular V (a defective Z) or one cluster leaves the
    ambient basis, with band 1.
    """
    n = Z.shape[0]
    lam, V = np.linalg.eig(Z)
    s = np.linalg.svd(V, compute_uv=False)
    if s[-1] <= n * np.finfo(float).eps * s[0]:
        return ambient.basis, 1.0
    kappa = s[0] / s[-1]
    Vinv = np.linalg.inv(V)
    eps_Z = span.residual(Z) + np.linalg.norm(Vinv @ (Z @ V - V * lam))
    cluster = _clusters(lam, _MERGE_FACTOR * kappa * eps_Z / cfg.rank_tol)
    if not cluster.any():
        return ambient.basis, 1.0
    same = cluster[:, None] == cluster[None, :]
    gap = np.abs(lam[:, None] - lam[None, :])[~same].min()
    lift = np.abs(coeff).sum() + 2.0 * eps_Z / cfg.rank_tol
    band = 1.0 + 2.0 * kappa**2 * lift / gap
    i, j = np.nonzero(same)
    units = V.T[i][:, :, None] * Vinv[j][:, None, :]
    Q = np.linalg.qr(units.reshape(len(i), n * n).T)[0]
    return Q.T.reshape(-1, n, n), band


def _certified_nullspace(
    A: np.ndarray, K: np.ndarray, cfg: NumericConfig, band: float = 1.0
):
    """Basis of {X in span(K) : XS = SX for every S in A}, for orthonormal K.

    The numerical nullspace, in K's coordinates, of the commutator maps of a
    few random combinations of A.  That nullspace holds the commutant and
    can only be too large, so it is certified against every element of A;
    elements above the rank cut join the system and it is solved again.
    The elements of A have norm at most 1, as _commuted_set makes them, so
    the rank cut is rank_tol max(sigma_max, 1).
    None when the last solve has a singular value in (cut, band * cut].
    """
    count = len(A)
    if not count or not len(K):
        return K
    k = min(count, _COMMUTANT_PROBES)
    rng = cfg.rng(111)
    # variance 1/k per coefficient: the probes' Gram matrix then matches
    # the whole set's in expectation, so the rank cut keeps its scale
    coeff = rng.standard_normal((k, count)) + 1j * rng.standard_normal((k, count))
    system = np.tensordot(coeff / np.sqrt(2 * k), A, axes=1)
    joined = np.zeros(count, dtype=bool)
    while True:
        # rows >= dim K always (dim K <= n^2), so economy Vh carries all its rows
        svals, Vh = rank_svd(_commutator_system(system, K))
        # scale against the commuted set's unit norms, not only sigma_max:
        # when every basis element commutes the stack is numerical noise
        # and the whole coordinate space is nullspace
        cut = cfg.rank_tol * max(svals[0], 1.0)
        X = np.tensordot(Vh[int(np.sum(svals > cut)) :].conj(), K, axes=1)
        comm = np.matmul(A[:, None], X[None]) - np.matmul(X[None], A[:, None])
        failed = (np.linalg.norm(comm.reshape(count, -1), axis=1) > cut) & ~joined
        if not failed.any():
            return None if np.any((svals > cut) & (svals <= band * cut)) else X
        joined |= failed
        system = np.concatenate([system, A[failed]])


def relative_commutant(
    S, ambient: MatrixAlgebra, cfg: NumericConfig = DEFAULT_CONFIG
) -> MatrixAlgebra:
    """{X in ambient : XS = SX for all S}, as an algebra.

    Search space: every X commuting with S commutes with a Hermitian H in
    span(S), so it is block diagonal on H's eigenspaces; the solve runs on
    K = {H}' intersected with the ambient (see _search_space), which for a
    generic H in M_n has n dimensions instead of n^2.

    Merge rule and why no direction is lost: H is within eps_H of span(S),
    so a commutant element X has ||HX - XH|| <= 2 eps_H ||X||, and in H's
    eigenbasis |X_ij| <= 2 eps_H / |lambda_i - lambda_j|.  Eigenvalues in
    different clusters differ by more than tol = 200 eps_H / rank_tol, so
    the part of X outside K is at most rank_tol / 100 of X, two orders
    below the rank cut of the solve.  A set that is not *-closed, or a tight
    rank_tol, makes tol exceed the spectrum: one cluster.

    One cluster in M_n: X also commutes with Z, the random element of
    span(S) that H was built from, so for Z = V diag(lam) V^-1 it lies in
    K = span{V E_ij V^-1 : i, j in one cluster of Z's eigenvalues}, merged
    by a gap rule scaled by kappa(V) (see _eigenvector_space).  For the
    polynomial algebra of a generic matrix K has n dimensions.  A solve on
    this K with a singular value in a band just above the rank cut may
    have lifted a commutant direction over the cut, and only such a solve
    is redone on the ambient.  A defective Z, one cluster again, or a
    proper ambient makes K the ambient.

    Solve: S is taken with each element scaled to unit norm, which leaves
    its commutant as it is, so one rank cut serves every element however
    their norms differ.  The solve is the numerical nullspace, in K's
    coordinates, of the commutator maps of a few random combinations of S,
    certified against every element S_i in one batched residual
    ||S_i X - X S_i||; elements above the rank cut join the system and it
    is solved again, at the latest with the whole of S in it.  K and the
    nullspace coordinates are orthonormal, so the basis returned is
    Hilbert-Schmidt orthonormal, and it is a combination of ambient
    elements, so it lies in the ambient.
    """
    n = ambient.ambient_dim
    A = _commuted_set(S, n)
    if ambient.dim == 0:
        return MatrixAlgebra(OperatorSubspace(n, ()), False, ambient.selfadjoint)
    span = S.space if isinstance(S, MatrixAlgebra) else orthonormalize(A, cfg, ambient_dim=n)
    K, band = _search_space(A, span, ambient, cfg)
    X = _certified_nullspace(A, K, cfg, band)
    if X is None:
        X = _certified_nullspace(A, ambient.basis, cfg)
    space = OperatorSubspace(n, X)
    # a False flag may be a false negative (the commutant of a *-closed
    # set), so only it is rechecked
    known = isinstance(S, MatrixAlgebra) and S.selfadjoint
    selfadjoint = ambient.selfadjoint and (known or _adjoint_closed(span, cfg))
    return MatrixAlgebra(space, ambient.unital or _holds_identity(space, cfg), selfadjoint)


def double_commutant(
    A, ambient: MatrixAlgebra, cfg: NumericConfig = DEFAULT_CONFIG
) -> MatrixAlgebra:
    """(S, ambient)'' : the commutant, inside ambient, of the relative commutant."""
    if isinstance(A, MatrixAlgebra) and not subspace_contains(ambient.space, A.space, cfg):
        raise InvalidInputError("algebra does not lie inside the ambient algebra")
    C = relative_commutant(A, ambient, cfg)
    return relative_commutant(C, ambient, cfg)


def center(B: MatrixAlgebra, cfg: NumericConfig = DEFAULT_CONFIG) -> MatrixAlgebra:
    """Elements of B commuting with all of B."""
    return relative_commutant(B, B, cfg)


def is_normal(
    A: MatrixAlgebra, ambient: MatrixAlgebra, cfg: NumericConfig = DEFAULT_CONFIG
):
    """Whether A equals its double commutant relative to ambient.

    Returns (flag, witness); when the flag is False the witness is a
    double-commutant element far from A.
    """
    D = double_commutant(A, ambient, cfg)
    residuals = A.space.residuals(D.basis)
    if subspace_contains(D.space, A.space, cfg) and np.all(residuals <= cfg.eq_tol):
        return True, None
    witness = D.basis[int(np.argmax(residuals))] if residuals.size else None
    return False, witness


def verify_algebra(A: MatrixAlgebra, cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Check the structural invariants of a MatrixAlgebra; report defects.

    n^2 orthonormal elements span M_n, which is closed under products, so
    their closure defect is 0 with no product formed.
    """
    space = A.space
    n = A.ambient_dim
    report = {
        "gram_defect": space.gram_defect(),
        "closure_defect": 0.0,
        "unital_defect": 0.0,
        "adjoint_defect": 0.0,
    }
    m = space.dim
    if 0 < m < n * n:
        if m**3 * n**2 > _MAX_CLOSURE_WORK:
            raise ResourceLimitError(
                f"closure check of a {m}-dimensional algebra in M_{n} is too large"
            )
        # one left factor at a time: B_i times the whole basis
        report["closure_defect"] = max(
            float(space.residuals(B @ space.basis).max()) for B in space.basis
        )
    if A.unital:
        report["unital_defect"] = space.residual(np.eye(n)) / np.sqrt(n)
    if A.selfadjoint:
        adjoints = space.basis.conj().transpose(0, 2, 1)
        report["adjoint_defect"] = float(space.residuals(adjoints).max(initial=0.0))
    report["passed"] = all(
        v <= cfg.eq_tol for k, v in report.items() if k != "passed"
    )
    return report
