"""Block decomposition of selfadjoint algebras and averaging over their unitaries.

A selfadjoint unital subalgebra of M_n is, after a unitary change of basis,
a direct sum of blocks M_s tensor I_m.  wedderburn() finds that basis: the
minimal central projections come from the spectral clusters of a generic
selfadjoint central element, and inside each central block the adapted
columns are built from exact matrix-unit partial isometries, so the final
conjugated basis is block diagonal to machine precision.

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
    block_algebra,
    block_layout,
    center,
    full_matrix_algebra,
    relative_commutant,
)
from .config import DEFAULT_CONFIG, InvalidInputError, NumericConfig, StructureError
from .linalg import OperatorSubspace, as_matrix, orthonormalize

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


def _cluster_sorted(vals: np.ndarray, count: int):
    """Split sorted eigenvalues into `count` groups at the largest gaps.

    Returns the list of index groups, or None when the grouping is not
    clean enough to trust (separating gaps not well clear of the spread
    inside groups).
    """
    k = vals.size
    if count == 1:
        groups = [np.arange(k)]
    else:
        gaps = np.diff(vals)
        cuts = np.sort(np.argsort(gaps)[-(count - 1) :])
        groups, start = [], 0
        for c in cuts:
            groups.append(np.arange(start, c + 1))
            start = c + 1
        groups.append(np.arange(start, k))
    scale = max(1.0, float(vals[-1] - vals[0]))
    spread = max(float(vals[g[-1]] - vals[g[0]]) for g in groups)
    if count > 1:
        sep = min(float(vals[g[0]] - vals[prev[-1]]) for prev, g in zip(groups, groups[1:]))
        if sep < 1e-6 * scale or (spread > 0 and sep < 10.0 * spread):
            return None
    if spread > 1e-8 * scale:
        return None
    return groups


def minimal_central_projections(
    A: MatrixAlgebra, cfg: NumericConfig = DEFAULT_CONFIG
) -> list:
    """Minimal projections of the center of a selfadjoint unital algebra.

    Uses the spectral clusters of a random selfadjoint central element;
    degenerate draws (clusters not separated) are redrawn.
    """
    if not (A.selfadjoint and A.unital):
        raise InvalidInputError("central projections need a selfadjoint unital algebra")
    n = A.ambient_dim
    Z = center(A, cfg)
    c = Z.dim
    if c == 1:
        return [np.eye(n, dtype=np.complex128)]
    for attempt in range(_REDRAWS):
        H = _generic_selfadjoint(Z.space, cfg.rng(101, attempt))
        vals, vecs = np.linalg.eigh(H)
        groups = _cluster_sorted(vals, c)
        if groups is None:
            continue
        projs = []
        for g in groups:
            V = vecs[:, g]
            projs.append(V @ V.conj().T)
        defect = max(Z.space.residual(P) for P in projs)
        if defect <= cfg.eq_tol * np.sqrt(n):
            return projs
    raise StructureError("could not separate the central spectrum")


def _range_columns(P: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(P)
    keep = vals > 0.5
    return vecs[:, keep]


def _generic_selfadjoint(space: OperatorSubspace, rng) -> np.ndarray:
    coeff = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    X = np.tensordot(coeff, space.basis, axes=1)
    return X + X.conj().T


def _factor_adapted_unitary(comp: OperatorSubspace, s: int, m: int, cfg: NumericConfig, key):
    """Unitary W with W* comp W = M_s tensor I_m for a simple compressed algebra.

    Build a minimal projection e_1 from the spectral clusters of a generic
    selfadjoint element, move it around with exact partial isometries
    v_i = e_i G e_1 / sqrt(lambda), and use the images of an orthonormal
    basis of range(e_1) as the adapted columns.
    """
    d = s * m
    if s == 1:
        return np.eye(d, dtype=np.complex128)
    for attempt in range(_REDRAWS):
        rng = cfg.rng(103, *key, attempt)
        H = _generic_selfadjoint(comp, rng)
        vals, vecs = np.linalg.eigh(H)
        groups = _cluster_sorted(vals, s)
        if groups is None or any(g.size != m for g in groups):
            continue
        E = [vecs[:, g] for g in groups]  # d x m column blocks
        coeff = rng.standard_normal(comp.dim) + 1j * rng.standard_normal(comp.dim)
        G = np.tensordot(coeff, comp.basis, axes=1)
        cols = [E[0]]
        ok = True
        for i in range(1, s):
            # w = e_i G e_1 lands in the algebra; w* w = lambda e_1 exactly
            W_i = E[i] @ (E[i].conj().T @ G @ E[0]) @ E[0].conj().T
            lam = float(np.real(np.trace(W_i.conj().T @ W_i))) / m
            if lam < 1e-10:
                ok = False
                break
            cols.append((W_i / np.sqrt(lam)) @ E[0])
        if not ok:
            continue
        W = np.hstack(cols)
        if np.linalg.norm(W.conj().T @ W - np.eye(d)) > 1e-8 * d:
            continue
        return W
    raise StructureError("failed to adapt a factor block")


def wedderburn(A: MatrixAlgebra, cfg: NumericConfig = DEFAULT_CONFIG) -> BlockStructure:
    """Block structure of a selfadjoint unital subalgebra of M_n.

    Blocks are ordered by decreasing (s, m); the returned unitary's columns
    are grouped accordingly.
    """
    if not (A.selfadjoint and A.unital):
        raise InvalidInputError("wedderburn needs a selfadjoint unital algebra")
    n = A.ambient_dim
    projs = minimal_central_projections(A, cfg)
    pieces = []
    for k, P in enumerate(projs):
        V = _range_columns(P)
        d = V.shape[1]
        comp = orthonormalize([V.conj().T @ B @ V for B in A.basis], cfg)
        s = int(round(np.sqrt(comp.dim)))
        if s * s != comp.dim:
            raise StructureError(
                f"compressed block dimension {comp.dim} is not a perfect square"
            )
        if d % s != 0:
            raise StructureError(
                f"central block of size {d} not divisible by factor size {s}"
            )
        m = d // s
        W = _factor_adapted_unitary(comp, s, m, cfg, key=(k,))
        pieces.append((s, m, V @ W))
    pieces.sort(key=lambda p: (-p[0], -p[1]))
    U = np.hstack([p[2] for p in pieces])
    blocks = tuple((s, m) for s, m, _ in pieces)
    structure = BlockStructure(n, U, blocks)
    _check_structure(A, structure, cfg)
    return structure


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
