import numpy as np
import pytest
import scipy.linalg

from commutant.algebra import (
    MatrixAlgebra,
    center,
    diagonal_algebra,
    double_commutant,
    full_matrix_algebra,
    generate_algebra,
    is_normal,
    relative_commutant,
    scalar_algebra,
    verify_algebra,
)
import commutant.algebra as algebra_module
from commutant.blocks import block_algebra
from commutant.config import InvalidInputError, NumericConfig, ResourceLimitError
from commutant.linalg import (
    haar_unitary,
    hs_norm,
    orthonormalize,
    random_matrix,
    subspace_contains,
    subspace_distance,
    subspace_equal,
)

CFG = NumericConfig()


def kron_commutant_basis(mats, ambient_space=None, tol=1e-9):
    """Oracle commutant via the vectorized Sylvester operators.

    Stacks S (x) I - I (x) S^T for each S, the map vec(X) -> vec(SX - XS)
    on row-major vec(), whose nullspace is {X : SX = XS}; plus, when an
    ambient span is given, rows forcing X into that span.  Entirely
    independent of the library's coordinate-restricted solver.
    """
    n = mats[0].shape[0]
    L = np.vstack(
        [np.kron(S, np.eye(n)) - np.kron(np.eye(n), S.T) for S in mats]
    )
    if ambient_space is not None:
        V = ambient_space.stack  # rows are vec(B_i)
        P = V.T @ V.conj()
        L = np.vstack([L, np.eye(n * n) - P])
    N = scipy.linalg.null_space(L, rcond=tol)
    return [N[:, k].reshape(n, n) for k in range(N.shape[1])]


def _system_widths(monkeypatch):
    """Record the column count of every system relative_commutant solves."""
    widths = []
    real = algebra_module.rank_svd

    def counting(M):
        widths.append(M.shape[1])
        return real(M)

    monkeypatch.setattr(algebra_module, "rank_svd", counting)
    return widths


def _full_ambient_solve(S, ambient, cfg=CFG):
    """The probe solve and certificate on the whole ambient, no search space."""
    A = algebra_module._commuted_set(S, ambient.ambient_dim)
    return algebra_module._certified_nullspace(A, ambient.basis, cfg)


def _perturbed_block_bases(count):
    """Haar-rotated ((3, 2), (1, 2)) block algebras and their perturbed bases."""
    for b in range(count):
        rng = np.random.default_rng([7, b])
        B = block_algebra(((3, 2), (1, 2)), haar_unitary(rng, 8))
        for delta in (0.0, 1e-12, 1e-10, 1e-8):
            noise = np.stack([random_matrix(rng, 8) for _ in range(B.dim)])
            yield B, delta, B.basis + delta * noise


# kind: (n, unknowns of the search space): the sum of H's eigenvalue
# multiplicities squared for a *-closed set, the sum of Z's for a
# diagonalizable Z, all of M_n for a defective one
_PROBE_CASES = {
    "scalars": (6, 36),
    "diag": (6, 6),
    "full": (6, 6),
    "blocks": (6, 12),
    "blocks-23-12": (8, 22),
    "blocks-22-22": (8, 16),
    "poly": (6, 6),
    "jordan": (6, 36),
    "corner-row": (6, 36),
}


def _non_star_closed_set(kind):
    """One set far from *-closed, by kind, and the ambient dimension."""
    family, _, arg = kind.partition("-")
    rng = np.random.default_rng(33)
    if family == "poly":
        n = int(arg)
        return generate_algebra([random_matrix(rng, n)], CFG), n
    if family == "a+a":
        # Z = p(a) + p(a) has every eigenvalue exactly twice
        n = int(arg)
        return generate_algebra([np.kron(np.eye(2), random_matrix(rng, n // 2))], CFG), n
    if family == "jordan":
        J = np.diag(np.ones(5), 1)
        if arg:
            J[-1, 0] = float(arg)
        return generate_algebra([J], CFG), 6
    if family == "corner":
        units = [np.eye(6)[:, [0]] @ np.eye(6)[[j], :] for j in range(1, 6)]
        return generate_algebra(units, CFG), 6
    # a polynomial algebra's basis, each element moved by delta
    n, delta = arg.split("/")
    P = generate_algebra([random_matrix(rng, int(n))], CFG)
    noise = np.stack([random_matrix(rng, int(n)) for _ in range(P.dim)])
    return P.basis + float(delta) * noise, int(n)


_NON_STAR_CLOSED = (
    [f"poly-{n}" for n in range(3, 13)]
    + ["a+a-4", "a+a-6", "a+a-8", "jordan-", "jordan-1e-6", "jordan-1e-10", "corner-"]
    + [f"perturbed-{n}/{d}" for n in (4, 8) for d in ("0", "1e-12", "1e-10", "1e-8")]
)


class TestRelativeCommutant:
    def test_distinct_diagonal_has_diagonal_commutant(self):
        D = np.diag([1.0, 2.0, 3.0])
        full = full_matrix_algebra(3)
        C = relative_commutant([D], full, CFG)
        assert C.dim == 3
        assert subspace_equal(C.space, diagonal_algebra(3).space, CFG)

    def test_matches_kron_nullspace_oracle(self):
        rng = np.random.default_rng(20)
        full = full_matrix_algebra(4)
        for _ in range(5):
            S = [random_matrix(rng, 4), random_matrix(rng, 4)]
            C = relative_commutant(S, full, CFG)
            oracle = kron_commutant_basis(S)
            assert C.dim == len(oracle)
            assert subspace_equal(C.space, orthonormalize(oracle, CFG), CFG)

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e10, 1e12])
    def test_small_element_beside_a_large_one(self, scale):
        # E23's constraints must not fall under a cut set by scale * E11
        E11 = np.diag([1.0, 0.0, 0.0])
        E23 = np.eye(3)[:, [1]] @ np.eye(3)[[2], :]
        C = relative_commutant([scale * E11, E23], full_matrix_algebra(3), CFG)
        oracle = orthonormalize(kron_commutant_basis([E11, E23]), CFG)
        assert C.dim == oracle.dim == 3
        assert subspace_equal(C.space, oracle, CFG)

    def test_jordan_block_commutant_is_its_polynomials(self):
        J = np.array([[0, 1.0, 0], [0, 0, 1.0], [0, 0, 0]])
        C = relative_commutant([J], full_matrix_algebra(3), CFG)
        poly = orthonormalize([np.eye(3), J, J @ J], CFG)
        assert C.dim == 3
        assert subspace_equal(C.space, poly, CFG)

    def test_restriction_to_smaller_ambient(self):
        # commutant of E11 in M_2 is the diagonal; inside the diagonal masa
        # it is again the whole masa
        E11 = np.diag([1.0, 0.0])
        C_full = relative_commutant([E11], full_matrix_algebra(2), CFG)
        assert subspace_equal(C_full.space, diagonal_algebra(2).space, CFG)
        C_diag = relative_commutant([E11], diagonal_algebra(2), CFG)
        assert subspace_equal(C_diag.space, diagonal_algebra(2).space, CFG)

    def test_antitone_in_the_commuted_set(self):
        rng = np.random.default_rng(21)
        full = full_matrix_algebra(4)
        S1 = [random_matrix(rng, 4)]
        S2 = S1 + [random_matrix(rng, 4)]
        C1 = relative_commutant(S1, full, CFG)
        C2 = relative_commutant(S2, full, CFG)
        assert subspace_contains(C1.space, C2.space, CFG)

    def test_result_is_an_algebra(self):
        rng = np.random.default_rng(22)
        C = relative_commutant([random_matrix(rng, 3)], full_matrix_algebra(3), CFG)
        assert verify_algebra(C, CFG)["passed"]

    def test_selfadjoint_flag_tracks_the_set(self):
        rng = np.random.default_rng(23)
        H = random_matrix(rng, 3)
        H = H + H.conj().T
        full = full_matrix_algebra(3)
        assert relative_commutant([H], full, CFG).selfadjoint
        N = np.array([[0, 1.0], [0, 0]])
        assert not relative_commutant([N], full_matrix_algebra(2), CFG).selfadjoint

    def test_true_selfadjoint_flag_is_not_rechecked(self, monkeypatch):
        calls = []
        real = algebra_module._adjoint_closed
        monkeypatch.setattr(
            algebra_module, "_adjoint_closed", lambda *a: calls.append(1) or real(*a)
        )
        Z = center(full_matrix_algebra(12), CFG)
        assert Z.dim == 1 and Z.selfadjoint
        assert not calls

    def test_false_selfadjoint_flag_is_rechecked(self):
        # a *-closed set flagged False still has a selfadjoint commutant
        D = diagonal_algebra(3)
        flagged = MatrixAlgebra(D.space, True, False)
        C = relative_commutant(flagged, full_matrix_algebra(3), CFG)
        assert C.selfadjoint
        assert subspace_equal(C.space, D.space, CFG)


    @pytest.mark.parametrize("kind", list(_PROBE_CASES))
    def test_probe_solve_matches_kron_oracle(self, kind, monkeypatch):
        n, search_dim = _PROBE_CASES[kind]
        rng = np.random.default_rng(31)
        if kind == "scalars":
            S = scalar_algebra(n)
        elif kind == "diag":
            S = diagonal_algebra(n)
        elif kind == "full":
            S = full_matrix_algebra(n)
        elif kind == "blocks":
            S = block_algebra(((2, 2), (1, 2)), haar_unitary(rng, n))
        elif kind == "blocks-23-12":
            S = block_algebra(((2, 3), (1, 2)), haar_unitary(rng, n))
        elif kind == "blocks-22-22":
            S = block_algebra(((2, 2), (2, 2)), haar_unitary(rng, n))
        elif kind == "poly":
            S = generate_algebra([random_matrix(rng, n)], CFG)
        elif kind == "jordan":
            S = generate_algebra([np.diag(np.ones(n - 1), 1)], CFG)
        else:
            # span{1, E_12, ..., E_16}: three random combinations leave the
            # commutant too large, so the certificate has to add elements
            units = [np.eye(n)[:, [0]] @ np.eye(n)[[j], :] for j in range(1, n)]
            S = generate_algebra(units, CFG)
            assert S.dim == n
        widths = _system_widths(monkeypatch)
        full = full_matrix_algebra(n)
        C = relative_commutant(S, full, CFG)
        oracle = orthonormalize(kron_commutant_basis(list(S.basis)), CFG)
        assert C.dim == oracle.dim
        assert subspace_distance(C.space, oracle) <= CFG.eq_tol
        # no solve saw more unknowns than the search space holds
        assert max(widths) <= search_dim
        if search_dim == n * n:
            # one cluster: the search space is the whole ambient, as is the solve
            assert np.array_equal(C.basis, _full_ambient_solve(S, full))
        if kind == "corner-row":
            assert len(widths) > 1

    def test_rank_svd_retries_when_gesdd_fails(self, monkeypatch):
        real = np.linalg.svd
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fails_once)
        C = relative_commutant([np.diag([1.0, 2.0, 3.0])], full_matrix_algebra(3), CFG)
        assert calls  # the first SVD of the solve raised
        assert subspace_equal(C.space, diagonal_algebra(3).space, CFG)


class TestEigenspaceSearch:
    """relative_commutant solves on the eigenspaces of H, or on the eigenvectors of Z."""

    @pytest.mark.parametrize("kind", ["center", "inside-blocks"])
    def test_proper_ambient_results_stay_in_the_ambient(self, kind, monkeypatch):
        U = haar_unitary(np.random.default_rng(42), 8)
        B = block_algebra(((3, 2), (2, 1)), U)
        # center(B), or the commutant in B of its subalgebra M_3 x I_2 + masa_2
        S = B if kind == "center" else block_algebra(((3, 2), (1, 1), (1, 1)), U)
        widths = _system_widths(monkeypatch)
        C = relative_commutant(S, B, CFG)
        oracle = orthonormalize(kron_commutant_basis(list(S.basis), B.space), CFG)
        assert C.dim == oracle.dim
        assert subspace_distance(C.space, oracle) <= CFG.eq_tol
        assert max(B.space.residual(X) for X in C.basis) <= 1e-12
        # the probe systems ran on a search space smaller than the ambient
        assert min(widths) < B.dim

    @pytest.mark.parametrize(
        "cfg", [CFG, NumericConfig(rank_tol=1e-7, eq_tol=1e-5)], ids=["default", "loose"]
    )
    def test_perturbed_block_bases_keep_the_full_solve_dimension(self, cfg):
        # a fixed merge tolerance of 1e-5 ||H|| lost directions here at 1e-10
        for B, delta, S in _perturbed_block_bases(40):
            for ambient in (full_matrix_algebra(8), B):
                C = relative_commutant(S, ambient, cfg)
                assert C.dim == len(_full_ambient_solve(S, ambient, cfg)), delta
                assert max(ambient.space.residual(X) for X in C.basis) <= 1e-12

    @pytest.mark.parametrize("kind", _NON_STAR_CLOSED)
    def test_non_star_closed_sets_match_the_oracles(self, kind):
        S, n = _non_star_closed_set(kind)
        full = full_matrix_algebra(n)
        C = relative_commutant(S, full, CFG)
        assert C.dim == len(_full_ambient_solve(S, full)), kind
        mats = list(S.basis) if isinstance(S, MatrixAlgebra) else list(S)
        oracle = orthonormalize(kron_commutant_basis(mats), CFG)
        assert C.dim == oracle.dim, kind
        assert subspace_distance(C.space, oracle) <= CFG.eq_tol
        assert verify_algebra(C, CFG)["passed"]

    def test_tight_rank_tol_matches_oracle(self):
        cfg = NumericConfig(rank_tol=1e-14, eq_tol=1e-12)
        rng = np.random.default_rng(44)
        for S in (
            diagonal_algebra(5),
            block_algebra(((2, 2), (1, 2)), haar_unitary(rng, 6)),
            generate_algebra([random_matrix(rng, 4)], cfg),
        ):
            C = relative_commutant(S, full_matrix_algebra(S.ambient_dim), cfg)
            oracle = orthonormalize(kron_commutant_basis(list(S.basis), tol=1e-11), cfg)
            assert C.dim == oracle.dim
            assert subspace_distance(C.space, oracle) <= 1e-9

    def test_center_of_m12_solves_at_most_n_columns(self, monkeypatch):
        widths = _system_widths(monkeypatch)
        Z = center(full_matrix_algebra(12), CFG)
        assert Z.dim == 1
        assert widths and max(widths) <= 12


def _rotated(rng, mats):
    U = haar_unitary(rng, mats[0].shape[0])
    return [U @ M @ U.conj().T for M in mats]


def _short_closure(kind):
    """Generators whose closure stops short of M_n: (gens, star, unital, dim)."""
    rng = np.random.default_rng([34, _SHORT_CLOSURES.index(kind)])
    if kind.startswith("blocks"):
        # independent random blocks are inequivalent: C*(pair) = (+) M_s
        sizes = [int(c) for c in kind.split("-")[1]]
        pair = [scipy.linalg.block_diag(*(random_matrix(rng, s) for s in sizes)) for _ in range(2)]
        return _rotated(rng, pair), True, True, sum(s * s for s in sizes)
    if kind.startswith("ampliated"):
        h = int(kind.split("-")[1])
        pair = [np.kron(random_matrix(rng, h), np.eye(2)) for _ in range(2)]
        return _rotated(rng, pair), True, True, h * h
    if kind == "diagonal-6":
        # joint eigenvalues (1, 4), (2, 4), (2, 5), (3, 5): four minimal projections
        pair = [np.diag([1.0, 1, 2, 2, 3, 3]), np.diag([4.0, 4, 4, 5, 5, 5])]
        return _rotated(rng, pair), True, True, 4
    if kind == "diagonal-3":
        return [np.diag([1.0, 1, 2]), np.diag([3.0, 3, 3])], False, True, 2
    if kind == "non-unital-strict-3":
        # strictly upper triangular pair: the strictly upper triangular algebra
        pair = [np.triu(random_matrix(rng, 3), 1) for _ in range(2)]
        return pair, False, False, 3
    if kind == "non-unital-corner-3":
        E11, E12 = np.diag([1.0, 0, 0]), np.outer(np.eye(3)[0], np.eye(3)[1])
        return [E11, E12], False, False, 2
    if kind == "non-unital-star-3":
        # M_2 (+) 0: C*(pair) misses the identity
        pair = [scipy.linalg.block_diag(random_matrix(rng, 2), 0.0) for _ in range(2)]
        return _rotated(rng, pair), True, False, 4
    if kind == "nilpotent-3":
        # C*(E12) = M_2 (+) C
        return [np.outer(np.eye(3)[0], np.eye(3)[1])], True, True, 5
    # a shift ampliated twice: C*(shift (x) I_2) = M_3 (x) I_2
    return _rotated(rng, [np.kron(np.eye(3, k=1), np.eye(2))]), True, True, 9


_SHORT_CLOSURES = [
    "blocks-321", "blocks-422", "ampliated-3", "ampliated-4", "diagonal-6", "diagonal-3",
    "non-unital-strict-3", "non-unital-corner-3", "non-unital-star-3", "nilpotent-3",
    "nilpotent-ampliated-6",
]


def _word_span(letters, unital, n):
    """Span of every word of length up to n^2 in the letters, level by level.

    The words of length k span the products of the length k - 1 span by a
    letter, so each level keeps only an orthonormal basis.
    """
    level = [np.eye(n)] if unital else list(letters)
    words = list(level)
    for _ in range(n * n):
        level = list(orthonormalize([W @ L for W in level for L in letters], CFG, n).basis)
        words += level
    return orthonormalize(words, CFG)


class TestGenerateAlgebra:
    @pytest.mark.parametrize("kind", _SHORT_CLOSURES)
    def test_closure_that_stops_short_of_the_full_algebra(self, kind):
        gens, star, unital, dim = _short_closure(kind)
        n = gens[0].shape[0]
        A = generate_algebra(gens, CFG, unital=unital, star=star)
        assert A.dim == dim < n * n
        letters = gens + [G.conj().T for G in gens] if star else gens
        if star and unital:
            # von Neumann: the unital C*-algebra of a set is its bicommutant
            oracle = double_commutant(np.stack(letters), full_matrix_algebra(n), CFG).space
        else:
            assert n <= 3
            oracle = _word_span(letters, unital, n)
        assert subspace_equal(A.space, oracle, CFG)
        assert verify_algebra(A, CFG)["passed"]

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8, 1e9, 1e10, 1e12])
    def test_generators_of_very_different_norms(self, scale):
        # each generator's products are cut at its own norm, not the largest
        D = scale * np.diag([1.0, 2.0, 3.0, 4.0])
        N = 0.5 * np.eye(4, k=1)
        A = generate_algebra([D, N], CFG)
        assert A.dim == 10  # the upper triangular algebra
        for G in (D, N):
            assert A.space.residual(G) <= CFG.eq_tol * hs_norm(G)
        assert verify_algebra(A, CFG)["passed"]

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8, 1e9, 1e12])
    def test_non_unital_generators_enter_at_their_own_cut(self, scale):
        # a seed span cut at the largest generator's norm loses the shift
        S = np.eye(4, k=-1)
        E44 = np.diag([0.0, 0.0, 0.0, 1.0])
        A = generate_algebra([scale * E44, 0.5 * S], CFG, unital=False)
        # E44, S, S^2, S^3 = E41, E44 S = E43 and E44 S^2 = E42
        assert A.dim == 6
        assert A.space.residual(S) <= CFG.eq_tol * hs_norm(S)
        assert verify_algebra(A, CFG)["passed"]

    def test_hermitian_generator_is_multiplied_once_per_round(self, monkeypatch):
        # a Hermitian generator is its own adjoint, so star=True adds nothing
        frontiers = []
        real_extend = algebra_module._extend

        def recording_extend(Q, frontier, G, cut):
            frontiers.append(frontier)
            return real_extend(Q, frontier, G, cut)

        monkeypatch.setattr(algebra_module, "_extend", recording_extend)
        rng = np.random.default_rng(36)
        X = random_matrix(rng, 6)
        A = generate_algebra([X + X.conj().T], CFG, star=True)
        assert A.dim == 6 and A.selfadjoint
        # each round multiplies one frontier, so one call per frontier
        assert len(frontiers) > 1
        assert all(f is not g for f, g in zip(frontiers, frontiers[1:]))

    def test_star_closure_stops_at_the_full_span(self, monkeypatch):
        # one generator's products per rank decision, none once Q is M_12
        rows, entered = [], []
        real_svd, real_extend = algebra_module.rank_svd, algebra_module._extend

        def recording_svd(M):
            rows.append(M.shape[0])
            return real_svd(M)

        def recording_extend(Q, frontier, G, cut):
            entered.append(len(Q))
            return real_extend(Q, frontier, G, cut)

        monkeypatch.setattr(algebra_module, "rank_svd", recording_svd)
        monkeypatch.setattr(algebra_module, "_extend", recording_extend)
        rng = np.random.default_rng(35)
        A = generate_algebra([random_matrix(rng, 12), random_matrix(rng, 12)], CFG, star=True)
        assert A.dim == 144
        assert rows and max(rows) <= 64
        assert max(entered) < 144

    def test_polynomial_algebra_dimension_matches_minimal_polynomial(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            T = random_matrix(rng, 4)
            A = generate_algebra([T], CFG)
            powers = [np.linalg.matrix_power(T, k) for k in range(5)]
            expected = orthonormalize(powers, CFG)
            assert A.dim == expected.dim
            assert subspace_equal(A.space, expected, CFG)
            assert A.unital

    def test_jordan_block_gives_full_degree(self):
        J = np.zeros((4, 4))
        J[0, 1] = J[1, 2] = J[2, 3] = 1.0
        A = generate_algebra([J], CFG)
        assert A.dim == 4

    def test_star_generation_of_nilpotent_fills_matrix_algebra(self):
        N = np.array([[0, 1.0], [0, 0]])
        A = generate_algebra([N], CFG, star=True)
        assert A.dim == 4
        assert A.selfadjoint
        assert subspace_equal(A.space, full_matrix_algebra(2).space, CFG)

    def test_non_unital_span(self):
        E11 = np.diag([1.0, 0.0])
        A = generate_algebra([E11], CFG, unital=False)
        assert A.dim == 1
        assert not A.unital

    def test_star_closure_reaches_m16(self):
        rng = np.random.default_rng(32)
        A = generate_algebra([random_matrix(rng, 16), random_matrix(rng, 16)], CFG, star=True)
        assert A.dim == 256
        assert A.space.gram_defect() <= 1e-10
        assert center(A, CFG).dim == 1
        assert verify_algebra(A, CFG)["passed"]

    def test_two_commuting_generators(self):
        D1 = np.diag([1.0, 1.0, 2.0])
        D2 = np.diag([3.0, 1.0, 1.0])
        A = generate_algebra([D1, D2], CFG)
        assert A.dim == 3
        assert subspace_equal(A.space, diagonal_algebra(3).space, CFG)


class TestDoubleCommutantAndCenter:
    def test_upper_triangular_2x2_is_not_normal(self):
        E11 = np.diag([1.0, 0.0])
        E12 = np.array([[0, 1.0], [0, 0]])
        A = generate_algebra([E11, E12], CFG)
        assert A.dim == 3
        full = full_matrix_algebra(2)
        C = relative_commutant(A, full, CFG)
        assert C.dim == 1  # scalars only
        D = double_commutant(A, full, CFG)
        assert D.dim == 4
        flag, witness = is_normal(A, full, CFG)
        assert not flag
        assert witness is not None
        assert A.space.residual(witness) > 0.1

    def test_single_nilpotent_span_is_normal(self):
        # polynomials in the 2x2 nilpotent: commutant equals the algebra itself
        N = np.array([[0, 1.0], [0, 0]])
        A = generate_algebra([N], CFG)
        full = full_matrix_algebra(2)
        C = relative_commutant(A, full, CFG)
        assert subspace_equal(C.space, A.space, CFG)
        flag, _ = is_normal(A, full, CFG)
        assert flag

    def test_double_commutant_contains_algebra(self):
        rng = np.random.default_rng(25)
        full = full_matrix_algebra(4)
        for _ in range(5):
            A = generate_algebra([random_matrix(rng, 4)], CFG)
            D = double_commutant(A, full, CFG)
            assert subspace_contains(D.space, A.space, CFG)

    def test_triple_commutant_equals_commutant(self):
        rng = np.random.default_rng(26)
        full = full_matrix_algebra(4)
        for _ in range(5):
            S = [random_matrix(rng, 4)]
            C1 = relative_commutant(S, full, CFG)
            C3 = relative_commutant(double_commutant(S, full, CFG), full, CFG)
            assert subspace_equal(C1.space, C3.space, CFG)

    def test_center_of_full_is_scalars(self):
        Z = center(full_matrix_algebra(3), CFG)
        assert Z.dim == 1
        assert subspace_equal(Z.space, scalar_algebra(3).space, CFG)

    def test_center_of_masa_is_itself(self):
        D = diagonal_algebra(4)
        assert subspace_equal(center(D, CFG).space, D.space, CFG)

    def test_center_of_two_block_algebra(self):
        from commutant.linalg import direct_sum

        rng = np.random.default_rng(27)
        # М_2 + M_3 block algebra inside M_5
        gens = [
            direct_sum(random_matrix(rng, 2), np.zeros((3, 3))) for _ in range(2)
        ] + [direct_sum(np.zeros((2, 2)), random_matrix(rng, 3)) for _ in range(2)]
        A = generate_algebra(gens, CFG, star=True)
        assert A.dim == 13
        Z = center(A, CFG)
        assert Z.dim == 2

    def test_ambient_membership_precondition(self):
        A = full_matrix_algebra(2)
        with pytest.raises(InvalidInputError):
            double_commutant(A, diagonal_algebra(2), CFG)


class TestVerifyAlgebra:
    def test_flags_non_closed_span(self):
        # span{E11, E12 + E21} is not closed under products
        space = orthonormalize(
            [np.diag([1.0, 0.0]), np.array([[0, 1.0], [1.0, 0]])], CFG
        )
        bad = MatrixAlgebra(space, False, True)
        report = verify_algebra(bad, CFG)
        assert not report["passed"]
        assert report["closure_defect"] > 0.1

    def test_builders_pass(self):
        for A in (full_matrix_algebra(3), diagonal_algebra(4), scalar_algebra(2)):
            assert verify_algebra(A, CFG)["passed"]

    def test_refuses_closure_checks_beyond_the_work_cap(self):
        # M_19 + M_1 is 362-dimensional in M_20: 362^3 * 20^2 = 1.9e10 multiply-adds
        with pytest.raises(ResourceLimitError):
            verify_algebra(block_algebra(((19, 1), (1, 1))), CFG)

    def test_full_span_is_closed_without_products(self):
        rep = verify_algebra(full_matrix_algebra(20), CFG)
        assert rep["passed"] and rep["closure_defect"] == 0.0
