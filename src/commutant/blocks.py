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
group of the commutant.  On each block of the commutant that average is a
normalized partial trace, which is the closed form used here; the result
is the trace-preserving conditional expectation onto the double commutant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    MatrixAlgebra,
    _clusters,
    block_algebra,
    block_layout,
    full_matrix_algebra,
    relative_commutant,
)
from .config import DEFAULT_CONFIG, InvalidInputError, NumericConfig, StructureError
from .linalg import OperatorSubspace, as_matrix

_REDRAWS = 5


@dataclass(frozen=True)
class BlockStructure:
    """Unitary U and block sizes with U* A U = direct sum of M_s tensor I_m."""

    ambient_dim: int
    unitary: np.ndarray
    blocks: tuple  # ((s_1, m_1), (s_2, m_2), ...)
    scatter: "_BlockScatter" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        U = as_matrix(self.unitary, dim=self.ambient_dim)
        U = np.array(U)
        U.flags.writeable = False
        object.__setattr__(self, "unitary", U)
        object.__setattr__(self, "blocks", tuple((int(s), int(m)) for s, m in self.blocks))
        if sum(s * m for s, m in self.blocks) != self.ambient_dim:
            raise InvalidInputError("block sizes do not sum to the ambient dimension")
        object.__setattr__(self, "scatter", _BlockScatter(self.blocks))

    @property
    def algebra_dim(self) -> int:
        return sum(s * s for s, _ in self.blocks)


class _BlockScatter:
    """Scatter and gather positions of a block layout, blocks grouped by shape.

    table is block_layout(blocks).  The blocks of one shape (s, m) form a
    group whose unitaries are held as one (..., K, s, s) array, and
    flat[g][k, a, b, j] is the j = l diagonal of the k-th block's table:
    the position of entry (a, b) of that block on its j-th multiplicity
    copy.  So u tensor I_m lands in place with one fancy-index assignment
    and a block partial trace is one gather.
    """

    def __init__(self, blocks):
        self.n = sum(s * m for s, m in blocks)
        self.table = block_layout(blocks)
        members = {}
        for k, shape in enumerate(blocks):
            members.setdefault(shape, []).append(k)
        self.shapes = list(members)
        self.members = list(members.values())
        self.flat = [
            np.stack([np.diagonal(self.table[k], axis1=2, axis2=3) for k in ks])
            for ks in self.members
        ]

    def group(self, per_block) -> list:
        """Stack per-block (..., s, s) arrays into per-group (..., K, s, s) arrays."""
        return [np.stack([per_block[k] for k in ks], axis=-3) for ks in self.members]

    def assemble(self, Us) -> np.ndarray:
        """(R, n, n) direct sums of u tensor I_m from per-group (R, K, s, s) unitaries."""
        R = Us[0].shape[0]
        out = np.zeros((R, self.n * self.n), dtype=np.complex128)
        for idx, u in zip(self.flat, Us):
            out[:, idx] = u[..., None]
        return out.reshape(R, self.n, self.n)

    def block_traces(self, X: np.ndarray) -> list:
        """Per-group (R, K, s, s) partial traces over multiplicity of (R, n, n) X."""
        Xf = X.reshape(X.shape[0], self.n * self.n)
        return [Xf[:, idx].sum(axis=-1) for idx in self.flat]


def _generic_element(space: OperatorSubspace, rng) -> np.ndarray:
    coeff = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return np.tensordot(coeff, space.basis, axes=1)


def _generic_selfadjoint(space: OperatorSubspace, rng) -> np.ndarray:
    X = _generic_element(space, rng)
    return X + X.conj().T


def _adapted_columns(A: MatrixAlgebra, rng):
    """One draw of the adapted unitary and block sizes, or None to redraw.

    The eigenspaces E_i of a generic selfadjoint H in A are minimal
    projections of A, and for a generic G in A, E_i* G E_j is zero exactly
    when E_i and E_j lie in different blocks.  Inside a block it is a
    nonzero multiple of a unitary, so E_j (E_j* G E_0) / sqrt(lambda_j)
    carries E_0 onto E_j by a partial isometry of A.
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
    M = vecs.conj().T @ _generic_element(A.space, rng) @ vecs
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


def minimal_central_projections(
    A: MatrixAlgebra, cfg: NumericConfig = DEFAULT_CONFIG
) -> list:
    """Minimal projections of the center of a selfadjoint unital algebra.

    These are the projections onto the column groups of wedderburn's
    blocks; a factor gives exactly the identity.
    """
    st = wedderburn(A, cfg)
    if len(st.blocks) == 1:
        return [np.eye(st.ambient_dim, dtype=np.complex128)]
    cuts = np.cumsum([s * m for s, m in st.blocks])[:-1]
    return [V @ V.conj().T for V in np.split(st.unitary, cuts, axis=1)]


def _check_structure(A: MatrixAlgebra, st: BlockStructure, cfg: NumericConfig):
    U = st.unitary
    n = st.ambient_dim
    if np.linalg.norm(U.conj().T @ U - np.eye(n)) > cfg.eq_tol * n:
        raise StructureError("adapted basis is not unitary")
    # each conjugated basis element must equal its multiplicity average
    sc = st.scatter
    S = A.space.stack
    Bt = U.conj().T @ A.basis @ U
    means = [t / m for t, (_, m) in zip(sc.block_traces(Bt), sc.shapes)]
    defect = np.linalg.norm((Bt - sc.assemble(means)).reshape(len(S), -1), axis=1)
    if (defect > cfg.eq_tol * np.maximum(1.0, np.linalg.norm(S, axis=1))).any():
        raise StructureError("conjugated basis is not in block form")


def structure_algebra(st: BlockStructure) -> MatrixAlgebra:
    """Rebuild the algebra a BlockStructure describes."""
    return block_algebra(st.blocks, st.unitary)


def representative_unitary(st: BlockStructure, block_unitaries) -> np.ndarray:
    """Assemble U (+) ... from per-block s x s unitaries, in ambient coordinates."""
    sc = st.scatter
    per_block = [as_matrix(u, dim=s)[None] for (s, _), u in zip(st.blocks, block_unitaries)]
    Ub = sc.assemble(sc.group(per_block))[0]
    return st.unitary @ Ub @ st.unitary.conj().T


def block_average(st: BlockStructure, T: np.ndarray) -> np.ndarray:
    """Haar average of U* T U over the unitary group with this block structure.

    Off-diagonal blocks average to zero; each diagonal block averages to
    I_s tensor (partial trace over the s factor) / s.
    """
    U = st.unitary
    n = st.ambient_dim
    Tt = (U.conj().T @ as_matrix(T, dim=n) @ U).ravel()
    out = np.zeros_like(Tt)
    for (s, _), pos in zip(st.blocks, st.scatter.table):
        diag = pos[np.arange(s), np.arange(s)]  # (s, m, m): the a = b diagonal
        out[diag] = Tt[diag].mean(axis=0)
    return U @ out.reshape(n, n) @ U.conj().T


def twirl_expectation(
    T,
    A: MatrixAlgebra,
    cfg: NumericConfig = DEFAULT_CONFIG,
    structure: BlockStructure | None = None,
) -> np.ndarray:
    """Average of U* T U over Haar unitaries U commuting with A.

    Lands in the double commutant of A and lies in the closed convex hull
    of the unitary conjugates of T, so ||T - twirl(T)|| is at most the
    derivation seminorm of T over that commutant.
    """
    if not A.selfadjoint:
        raise InvalidInputError("twirl needs a selfadjoint algebra")
    n = A.ambient_dim
    if structure is None:
        C = relative_commutant(A, full_matrix_algebra(n), cfg)
        structure = wedderburn(C, cfg)
    return block_average(structure, as_matrix(T, dim=n))
