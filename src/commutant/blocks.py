"""Block decomposition of selfadjoint algebras and averaging over their unitaries.

A selfadjoint unital subalgebra of M_n is, after a unitary change of basis,
a direct sum of blocks M_s tensor I_m.  wedderburn() finds that basis from
one generic element (Murota, Kanno, Kojima and Kojima, Japan J. Indust.
Appl. Math. 27, 2010): the eigenspaces of a generic selfadjoint H in the
algebra are its minimal projections, a generic G in the algebra links them
into blocks, and G's compressions between linked eigenspaces are scaled
into matrix-unit partial isometries that give the adapted columns.  A draw
is kept only when the conjugated basis is certified block diagonal.

twirl_expectation() averages U* T U over the Haar measure of the unitary
group of the commutant.  That average is the trace-preserving conditional
expectation onto the double commutant, which for the normalized trace is
the Hilbert-Schmidt orthogonal projection onto it; for a selfadjoint A the
double commutant is A with the identity adjoined, so the twirl is one
projection and needs neither a commutant nor a block decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# block_algebra is not used here: perfbench calls it as commutant.blocks.block_algebra
from .algebra import MatrixAlgebra, _clusters, block_algebra, block_layout, block_shapes
from .config import DEFAULT_CONFIG, InvalidInputError, NumericConfig, StructureError
from .linalg import OperatorSubspace, as_matrix, orthonormalize

_REDRAWS = 5


@dataclass(frozen=True)
class BlockStructure:
    """Unitary U and block sizes with U* A U = direct sum of M_s tensor I_m.

    polar, expi and direction_matrices take and give (R, n, n) stacks in
    the adapted basis.  Inside, the blocks of one shape (s, m) form a group
    held as one (..., K, s, s) array, factorized in one batched call.  For
    the k-th block of group g, positions[g][k] is that block's block_layout
    table: [a, b, j] is the flat position of entry (a, b) on multiplicity
    copy j.  So u tensor I_m lands in place with one fancy-index
    assignment and a block partial trace is one gather.
    """

    ambient_dim: int
    unitary: np.ndarray
    blocks: tuple  # ((s_1, m_1), (s_2, m_2), ...)
    members: list = field(init=False, repr=False, compare=False)
    positions: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        U = np.array(as_matrix(self.unitary, dim=self.ambient_dim))
        U.flags.writeable = False
        object.__setattr__(self, "unitary", U)
        object.__setattr__(self, "blocks", block_shapes(self.blocks))
        if sum(s * m for s, m in self.blocks) != self.ambient_dim:
            raise InvalidInputError("block sizes do not sum to the ambient dimension")
        table, members = block_layout(self.blocks), {}
        for k, shape in enumerate(self.blocks):
            members.setdefault(shape, []).append(k)
        object.__setattr__(self, "members", list(members.values()))
        object.__setattr__(self, "positions", [np.stack([table[k] for k in ks]) for ks in self.members])

    @property
    def algebra_dim(self) -> int:
        return sum(s * s for s, _ in self.blocks)

    def group(self, per_block) -> list:
        """Stack per-block (..., s, s) arrays into per-group (..., K, s, s) arrays."""
        return [np.stack([per_block[k] for k in ks], axis=-3) for ks in self.members]

    def assemble(self, Us) -> np.ndarray:
        """(R, n, n) direct sums of u tensor I_m from per-group (R, K, s, s) unitaries."""
        n = self.ambient_dim
        out = np.zeros((len(Us[0]), n * n), dtype=np.complex128)
        for idx, u in zip(self.positions, Us):
            out[:, idx] = u[..., None]
        return out.reshape(-1, n, n)

    def block_traces(self, X: np.ndarray) -> list:
        """Per-group (R, K, s, s) partial traces over multiplicity of (R, n, n) X."""
        Xf = X.reshape(X.shape[0], self.ambient_dim**2)
        return [Xf[:, idx].sum(axis=-1) for idx in self.positions]

    def average(self, X: np.ndarray) -> np.ndarray:
        """(R, n, n) X with each block's part replaced by its multiplicity average."""
        traces = self.block_traces(X)
        return self.assemble([t / self.blocks[ks[0]][1] for t, ks in zip(traces, self.members)])

    def polar(self, X: np.ndarray) -> np.ndarray:
        """(R, n, n) unitaries U of the block algebra maximizing Re tr(U X).

        Block by block that is the u maximizing Re tr(u Y) for the block's
        partial trace Y = P S Q*, namely (P Q*)*; for s = 1 it is
        conj(y)/|y| (1 where y = 0, as the SVD gives).
        """
        out = []
        for Y in self.block_traces(X):
            if Y.shape[-1] == 1:
                mag = np.abs(Y)
                out.append(np.where(mag > 0, Y.conj() / np.where(mag > 0, mag, 1.0), 1.0))
            else:
                P, _, Qh = np.linalg.svd(Y)
                out.append(np.conj(np.swapaxes(P @ Qh, -1, -2)))
        return self.assemble(out)

    def expi(self, H: np.ndarray) -> np.ndarray:
        """exp(i H) for an (R, n, n) Hermitian stack H in the block algebra.

        Each block's factor is read off its first multiplicity copy and
        exponentiated by one batched eigh per group (exp(i h) for s = 1).
        """
        Hf = H.reshape(H.shape[0], self.ambient_dim**2)
        out = []
        for idx in self.positions:
            Y = Hf[:, idx[..., 0]]
            if Y.shape[-1] == 1:
                out.append(np.exp(1j * Y.real))
            else:
                vals, vecs = np.linalg.eigh(Y)
                out.append((vecs * np.exp(1j * vals)[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2)))
        return self.assemble(out)

    @cached_property
    def direction_matrices(self) -> np.ndarray:
        """Hermitian directions of the block algebra as one (p, n, n) stack.

        p = sum s^2 - 1.  Group by group and block by block, u tensor I_m
        for the units u = (E_ab + E_ba)/sqrt 2 and i (E_ab - E_ba)/sqrt 2
        for a < b, then E_aa, written straight into the positions table.
        The very last E_aa is left out: the rest span a complement of the
        identity, the one direction along which exp(i t H) moves a unitary
        only by a global phase.  Built on first use.
        """
        n, off = self.ambient_dim, 0
        D = np.zeros((self.algebra_dim, n * n), dtype=np.complex128)
        for idx in self.positions:
            K, s = idx.shape[:2]
            a, b = np.triu_indices(s, 1)
            r, q = np.arange(a.size), a.size
            unit = np.zeros((s * s, s, s), dtype=np.complex128)
            unit[r, a, b] = unit[r, b, a] = np.sqrt(0.5)
            unit[q + r, a, b], unit[q + r, b, a] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
            unit[2 * q + np.arange(s), np.arange(s), np.arange(s)] = 1.0
            rows = off + np.arange(K * s * s).reshape(K, s * s, 1, 1, 1)
            D[rows, idx[:, None]] = unit[None, ..., None]
            off += K * s * s
        return D[:-1].reshape(-1, n, n)


def _generic_selfadjoint(space: OperatorSubspace, rng) -> np.ndarray:
    X = space.random_element(rng)
    return X + X.conj().T


def _adapted_columns(A: MatrixAlgebra, rng):
    """One draw of the adapted unitary and block sizes, or None to redraw.

    The eigenspaces E_i of a generic selfadjoint H in A are minimal
    projections of A, and for a generic G in A, E_i* G E_j is zero exactly
    when E_i and E_j lie in different blocks.  Inside a block it is a
    nonzero multiple of a unitary, so E_j (E_j* G E_0) / sqrt(lambda_j)
    carries E_0 onto E_j by a partial isometry of A.  H is X + X* for a
    random element X of A (OperatorSubspace.random_element) and G is
    another, so the draw depends on A and not on its stored basis.
    """
    vals, vecs = np.linalg.eigh(_generic_selfadjoint(A.space, rng))
    # groups spread at most 1e-8 and sit at least 1e-6 apart, relative to H
    scale = max(1.0, float(vals[-1] - vals[0]))
    starts = np.flatnonzero(_clusters(vals, 1e-8 * scale) == np.arange(vals.size))
    ends = np.append(starts[1:], vals.size)
    if (vals[ends - 1] - vals[starts]).max() > 1e-8 * scale:
        return None
    if (vals[starts[1:]] - vals[ends[:-1] - 1] < 1e-6 * scale).any():
        return None
    # a link is clearly nonzero when lambda >= 1e-10 and clearly zero when
    # its norm is at most 1e-8, relative to G; anything between is redrawn
    M = vecs.conj().T @ A.space.random_element(rng) @ vecs
    g_scale = max(1.0, float(np.linalg.norm(M)))
    link = np.sqrt(np.add.reduceat(np.add.reduceat(np.abs(M) ** 2, starts, 0), starts, 1))
    sizes = ends - starts
    lam = link**2 / sizes
    linked = lam >= 1e-10 * g_scale**2
    if (~linked & (link > 1e-8 * g_scale)).any():
        return None
    np.fill_diagonal(linked, True)
    pieces, free = [], np.ones(starts.size, dtype=bool)
    while free.any():
        i = np.flatnonzero(free)[0]
        members = np.flatnonzero(free & linked[:, i])
        free[members] = False
        if (sizes[members] != sizes[i]).any():
            return None
        cols = [vecs[:, starts[i] : ends[i]]]
        for j in members[members != i]:
            w = M[starts[j] : ends[j], starts[i] : ends[i]] / np.sqrt(lam[j, i])
            cols.append(vecs[:, starts[j] : ends[j]] @ w)
        pieces.append((members.size, int(sizes[i]), np.hstack(cols)))
    pieces.sort(key=lambda p: (-p[0], -p[1]))
    return np.hstack([p[2] for p in pieces]), tuple((s, m) for s, m, _ in pieces)


def wedderburn(A: MatrixAlgebra, cfg: NumericConfig = DEFAULT_CONFIG) -> BlockStructure:
    """Block structure of a selfadjoint unital subalgebra of M_n.

    Each draw builds the adapted basis from one generic selfadjoint H and
    one generic G in A (see _adapted_columns) and is kept only when
    _check_structure certifies it; after _REDRAWS failed draws this raises
    StructureError.  Blocks are ordered by decreasing (s, m); the returned
    unitary's columns are grouped accordingly.
    """
    if not (A.selfadjoint and A.unital):
        raise InvalidInputError("wedderburn needs a selfadjoint unital algebra")
    for attempt in range(_REDRAWS):
        drawn = _adapted_columns(A, cfg.rng(101, attempt))
        if drawn is None:
            continue
        structure = BlockStructure(A.ambient_dim, *drawn)
        try:
            _check_structure(A, structure, cfg)
        except StructureError:
            continue
        return structure
    raise StructureError("no draw gave a certified block structure")


def _check_structure(A: MatrixAlgebra, st: BlockStructure, cfg: NumericConfig):
    U = st.unitary
    n = st.ambient_dim
    if np.linalg.norm(U.conj().T @ U - np.eye(n)) > cfg.eq_tol * n:
        raise StructureError("adapted basis is not unitary")
    # each conjugated basis element must equal its multiplicity average
    S = A.space.stack
    Bt = U.conj().T @ A.basis @ U
    defect = np.linalg.norm((Bt - st.average(Bt)).reshape(len(S), -1), axis=1)
    if (defect > cfg.eq_tol * np.maximum(1.0, np.linalg.norm(S, axis=1))).any():
        raise StructureError("conjugated basis is not in block form")


def twirl_expectation(
    T, A: MatrixAlgebra, cfg: NumericConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Average of U* T U over Haar unitaries U commuting with A.

    Lands in the double commutant of A and lies in the closed convex hull
    of the unitary conjugates of T, so ||T - twirl(T)|| is at most the
    derivation seminorm of T over that commutant.  The average is a
    trace-preserving conditional expectation onto the double commutant
    (it fixes that algebra, is a bimodule map over it and keeps the
    trace), and the only such map for the normalized trace is the
    Hilbert-Schmidt orthogonal projection.  For a selfadjoint A the double
    commutant is D = A with the identity adjoined (von Neumann), so the
    twirl is the projection onto D's span.
    """
    if not A.selfadjoint:
        raise InvalidInputError("twirl needs a selfadjoint algebra")
    n = A.ambient_dim
    D = A.space if A.unital else orthonormalize([np.eye(n), *A.basis], cfg, n)
    return D.project(T)
