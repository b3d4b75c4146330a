import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag

from commutant import algebra as algebra_module
from commutant import blocks as blocks_module
from commutant.algebra import (
    algebra_from_space,
    block_layout,
    diagonal_algebra,
    double_commutant,
    full_matrix_algebra,
    generate_algebra,
    relative_commutant,
    scalar_algebra,
)
from commutant.blocks import (
    BlockStructure,
    _check_structure,
    block_algebra,
    twirl_expectation,
    wedderburn,
)
from commutant.cli import main
from commutant.config import InvalidInputError, NumericConfig, StructureError
from commutant.linalg import (
    haar_unitaries,
    haar_unitary,
    op_norm,
    orthonormalize,
    random_hermitian,
    random_matrix,
    subspace_equal,
)

CFG = NumericConfig()


def random_block_star_algebra(rng, blocks):
    """A conjugated (+) M_s (x) I_m algebra with a Haar change of basis."""
    n = sum(s * m for s, m in blocks)
    return block_algebra(blocks, haar_unitary(rng, n))


# repeated shapes, factors, multiplicities and masas up to n = 12
PLANTED = [
    ((3, 1),),
    ((1, 1), (1, 1), (1, 1)),
    ((2, 1), (1, 2)),
    ((2, 2),),
    ((2, 2), (1, 3), (3, 1)),
    ((2, 2), (2, 2), (1, 3)),
    ((3, 2), (2, 3)),
    ((4, 1), (2, 2), (1, 4)),
    ((1, 1),) * 12,
    ((1, 12),),
    ((12, 1),),
    ((2, 1), (2, 1), (1, 2), (1, 2), (1, 1), (1, 1)),
]


def count_commutant_solves(monkeypatch, calls):
    """Record in `calls` each relative_commutant or center call from here on,
    made through the algebra module or any name blocks.py imported."""
    for module in (algebra_module, blocks_module):
        for name in ("relative_commutant", "center"):
            if not hasattr(module, name):
                continue

            def counted(*args, _solve=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)


def representative_unitary(st, block_unitaries):
    """U (+) ... from per-block s x s unitaries, in ambient coordinates."""
    per_block = [np.asarray(u)[None] for u in block_unitaries]
    return st.unitary @ st.assemble(st.group(per_block))[0] @ st.unitary.conj().T


def assert_recovers(A, blocks):
    st = wedderburn(A, CFG)
    assert sorted(st.blocks) == sorted(blocks)
    assert list(st.blocks) == sorted(blocks, key=lambda b: (-b[0], -b[1]))
    _check_structure(A, st, CFG)
    # conjugated basis elements must be exactly block form: rebuild and compare
    assert subspace_equal(block_algebra(st.blocks, st.unitary).space, A.space, CFG)


class TestWedderburn:
    @pytest.mark.parametrize("blocks", PLANTED)
    def test_recovers_planted_block_structure(self, blocks):
        rng = np.random.default_rng(sum(s * 10 + m for s, m in blocks))
        assert_recovers(random_block_star_algebra(rng, blocks), blocks)

    @pytest.mark.parametrize("blocks", PLANTED)
    def test_recovers_the_commutant_of_a_planted_structure(self, blocks):
        # the star commutant a commutant model decomposes: M_s (x) I_m turns
        # into M_m (x) I_s on the same block
        rng = np.random.default_rng(sum(s * 10 + m for s, m in blocks))
        A = random_block_star_algebra(rng, blocks)
        C = relative_commutant(A, full_matrix_algebra(A.ambient_dim), CFG)
        assert_recovers(C, tuple((m, s) for s, m in blocks))

    def test_solves_no_commutant(self, monkeypatch):
        # one generic element per draw: neither the center nor any other
        # relative commutant is solved on the way
        A = random_block_star_algebra(np.random.default_rng(53), ((2, 2), (1, 3)))
        calls = []
        count_commutant_solves(monkeypatch, calls)
        assert wedderburn(A, CFG).blocks == ((2, 2), (1, 3))
        assert calls == []

    def test_blocks_sorted_descending(self):
        rng = np.random.default_rng(41)
        A = random_block_star_algebra(rng, ((1, 2), (3, 1), (2, 1)))
        st = wedderburn(A, CFG)
        assert st.blocks == ((3, 1), (2, 1), (1, 2))

    def test_full_and_scalar_and_masa(self):
        assert wedderburn(full_matrix_algebra(5), CFG).blocks == ((5, 1),)
        assert wedderburn(scalar_algebra(4), CFG).blocks == ((1, 4),)
        assert wedderburn(diagonal_algebra(3), CFG).blocks == ((1, 1), (1, 1), (1, 1))

    def test_unitary_is_unitary(self):
        rng = np.random.default_rng(42)
        A = random_block_star_algebra(rng, ((2, 1), (1, 1)))
        st = wedderburn(A, CFG)
        np.testing.assert_allclose(
            st.unitary @ st.unitary.conj().T, np.eye(3), atol=1e-10
        )

    def test_rejects_non_star_algebra(self):
        A = generate_algebra([np.array([[0, 1.0], [0, 0]])], CFG)
        with pytest.raises(InvalidInputError):
            wedderburn(A, CFG)

    def test_deterministic_given_config(self):
        rng = np.random.default_rng(43)
        A = random_block_star_algebra(rng, ((2, 1), (1, 2)))
        st1 = wedderburn(A, CFG)
        st2 = wedderburn(A, CFG)
        np.testing.assert_array_equal(st1.unitary, st2.unitary)


class TestRepresentativeUnitary:
    def test_lands_in_the_algebra_and_is_unitary(self):
        rng = np.random.default_rng(44)
        A = random_block_star_algebra(rng, ((2, 1), (1, 2)))
        st = wedderburn(A, CFG)
        us = [haar_unitary(rng, s) for s, _ in st.blocks]
        U = representative_unitary(st, us)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(4), atol=1e-10)
        assert A.space.residual(U) < 1e-8


class TestTwirl:
    def test_masa_twirl_is_diagonal_part(self):
        rng = np.random.default_rng(45)
        T = random_matrix(rng, 4)
        E = twirl_expectation(T, diagonal_algebra(4), CFG)
        np.testing.assert_allclose(E, np.diag(np.diag(T)), atol=1e-10)

    def test_scalar_twirl_is_normalized_trace(self):
        rng = np.random.default_rng(46)
        T = random_matrix(rng, 3)
        E = twirl_expectation(T, scalar_algebra(3), CFG)
        np.testing.assert_allclose(E, np.trace(T) / 3.0 * np.eye(3), atol=1e-10)

    def test_matches_monte_carlo_haar_average(self):
        rng = np.random.default_rng(47)
        A = random_block_star_algebra(rng, ((2, 1), (1, 1)))
        T = random_matrix(rng, 3)
        E = twirl_expectation(T, A, CFG)
        # oracle: empirical average of U* T U over Haar unitaries of the
        # commutant, assembled from its own planted block data
        C = relative_commutant(A, full_matrix_algebra(3), CFG)
        st = wedderburn(C, CFG)
        total = np.zeros((3, 3), dtype=complex)
        count = 20000
        samples = [
            haar_unitaries(np.random.default_rng(48 + i), s, count)
            for i, (s, _) in enumerate(st.blocks)
        ]
        for t in range(count):
            U = representative_unitary(st, [samples[i][t] for i in range(len(st.blocks))])
            total += U.conj().T @ T @ U
        np.testing.assert_allclose(E, total / count, atol=2e-2)

    def test_agrees_with_hs_projection_onto_double_commutant(self):
        # independent path: the twirl is the trace-preserving expectation onto
        # the double commutant, which equals the HS projection onto it
        rng = np.random.default_rng(49)
        algebras = [
            random_block_star_algebra(rng, blocks)
            for blocks in [((2, 1), (1, 2)), ((2, 2),), ((1, 1), (1, 2))]
        ]
        # a non-unital one: the compression of a Hermitian to a rank n - 1 corner
        P = np.diag([1.0, 1.0, 1.0, 0.0])
        H = random_hermitian(rng, 4)
        algebras.append(generate_algebra([P @ H @ P], CFG, unital=False, star=True))
        assert not algebras[-1].unital
        for A in algebras:
            n = A.ambient_dim
            T = random_matrix(rng, n)
            E1 = twirl_expectation(T, A, CFG)
            D = double_commutant(A, full_matrix_algebra(n), CFG)
            E2 = D.space.project(T)
            np.testing.assert_allclose(E1, E2, atol=1e-8)

    def test_solves_no_commutant(self, monkeypatch):
        # one projection onto A with the identity adjoined: no commutant
        # solve and no Wedderburn draw
        rng = np.random.default_rng(54)
        calls = []
        count_commutant_solves(monkeypatch, calls)

        def counted_wedderburn(*args, **kwargs):
            calls.append("wedderburn")
            return wedderburn(*args, **kwargs)

        monkeypatch.setattr(blocks_module, "wedderburn", counted_wedderburn)
        for A in (random_block_star_algebra(rng, ((2, 2), (1, 3))),
                  generate_algebra([np.diag([1.0, 2.0, 0.0])], CFG, unital=False, star=True)):
            twirl_expectation(random_matrix(rng, A.ambient_dim), A, CFG)
        assert calls == []

    def test_bimodule_and_trace_preservation(self):
        rng = np.random.default_rng(29)
        U = haar_unitary(rng, 4)
        A = algebra_from_space(
            orthonormalize([U @ B @ U.conj().T for B in diagonal_algebra(4).basis], CFG), CFG
        )
        T = random_matrix(rng, 4)
        E = twirl_expectation(T, A, CFG)
        assert np.trace(E) == pytest.approx(np.trace(T), abs=1e-10)
        a, b = A.basis[0], A.basis[2]
        lhs = twirl_expectation(a @ T @ b, A, CFG)
        np.testing.assert_allclose(lhs, a @ E @ b, atol=1e-10)

    def test_rejects_non_star_algebra(self):
        A = generate_algebra([np.array([[0, 1.0], [0, 0]])], CFG)
        with pytest.raises(InvalidInputError):
            twirl_expectation(np.eye(2), A, CFG)

    def test_channel_properties(self):
        rng = np.random.default_rng(50)
        A = random_block_star_algebra(rng, ((2, 1), (1, 1)))
        T = random_matrix(rng, 3)
        E = twirl_expectation(T, A, CFG)
        np.testing.assert_allclose(
            twirl_expectation(E, A, CFG), E, atol=1e-10
        )  # idempotent
        np.testing.assert_allclose(
            twirl_expectation(np.eye(3), A, CFG), np.eye(3), atol=1e-10
        )  # unital
        assert np.trace(E) == pytest.approx(np.trace(T), abs=1e-10)
        H = T + T.conj().T + 4 * np.eye(3)  # positive definite input
        w = np.linalg.eigvalsh(twirl_expectation(H, A, CFG))
        assert w.min() > -1e-10

    def test_contraction_toward_conjugates(self):
        # ||T - twirl(T)|| is at most the worst commutator norm over sampled
        # commutant unitaries times nothing: it lies in their convex hull
        rng = np.random.default_rng(51)
        A = random_block_star_algebra(rng, ((2, 1), (1, 1)))
        T = random_matrix(rng, 3)
        E = twirl_expectation(T, A, CFG)
        C = relative_commutant(A, full_matrix_algebra(3), CFG)
        st = wedderburn(C, CFG)
        worst = 0.0
        for t in range(200):
            us = [
                haar_unitaries(np.random.default_rng(52 + 7 * t + i), s, 1)[0]
                for i, (s, _) in enumerate(st.blocks)
            ]
            U = representative_unitary(st, us)
            worst = max(worst, op_norm(U @ T - T @ U))
        assert op_norm(T - E) <= worst + 1e-8


class TestRedraws:
    @staticmethod
    def degenerate_draws(monkeypatch, count):
        """Make the first `count` selfadjoint draws the identity."""
        original = blocks_module._generic_selfadjoint
        calls = []

        def draw(space, rng):
            calls.append(1)
            if len(calls) <= count:
                return np.eye(space.basis.shape[-1], dtype=np.complex128)
            return original(space, rng)

        monkeypatch.setattr(blocks_module, "_generic_selfadjoint", draw)
        return calls

    def test_degenerate_first_draw_is_redrawn(self, monkeypatch):
        calls = self.degenerate_draws(monkeypatch, 1)
        assert wedderburn(diagonal_algebra(3), CFG).blocks == ((1, 1),) * 3
        assert len(calls) == 2

    def test_every_draw_degenerate_raises(self, monkeypatch):
        calls = self.degenerate_draws(monkeypatch, 10**6)
        with pytest.raises(StructureError):
            wedderburn(diagonal_algebra(3), CFG)
        assert len(calls) == blocks_module._REDRAWS

    def test_every_draw_degenerate_exits_three(self, monkeypatch, capsys):
        self.degenerate_draws(monkeypatch, 10**6)
        assert main(["wedderburn", "--algebra", "diag:3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestBlockStructureValidation:
    def test_size_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            BlockStructure(5, np.eye(5), ((2, 1), (1, 1)))

    @pytest.mark.parametrize("blocks", [((2, 0), (1, 1)), ((0, 3), (1, 1)), ((2, -1), (3, 1))])
    def test_block_sizes_below_one_rejected(self, blocks):
        # ((2, 0), (1, 1)) sums to n = 1: it must not pass as a 5-dimensional
        # algebra of M_1 with zero basis elements, nor divide by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (
                lambda: block_layout(blocks),
                lambda: block_algebra(blocks),
                lambda: BlockStructure(1, np.eye(1), blocks),
            ):
                with pytest.raises(InvalidInputError):
                    build()

    @pytest.mark.parametrize(
        "blocks", [((2.7, 1), (1, 1.9)), ((2.0, 1), (1, 1)), ((2, 1), (1, np.float64(1.0))), (("2", 1),)]
    )
    def test_non_integer_block_sizes_rejected(self, blocks):
        # int() would truncate ((2.7, 1), (1, 1.9)) to the 5-dimensional
        # M_2 (+) M_1; a size must be an integer, not a float of any value
        for build in (
            lambda: block_layout(blocks),
            lambda: block_algebra(blocks),
            lambda: BlockStructure(3, np.eye(3), blocks),
        ):
            with pytest.raises(InvalidInputError):
                build()
        assert block_algebra(((np.int64(2), 1), (1, np.int32(1)))).dim == 5

    def test_block_algebra_refuses_a_non_unitary_change_of_basis(self):
        rng = np.random.default_rng(51)
        U = haar_unitary(rng, 3)
        # within eq_tol n of unitary is accepted, as _check_structure does
        block_algebra(((2, 1), (1, 1)), U * (1.0 + 1e-9))
        for bad in (2.0 * np.eye(3), U + 1e-3 * random_matrix(rng, 3)):
            with pytest.raises(InvalidInputError):
                block_algebra(((2, 1), (1, 1)), bad)


def structure_cases():
    """(algebra, its BlockStructure) pairs: the stock algebras, Haar-rotated
    blocks from wedderburn, and an unsorted block list with its shapes
    interleaved, passed straight to BlockStructure."""
    rng = np.random.default_rng(52)
    cases = [(A, wedderburn(A, CFG)) for A in (full_matrix_algebra(3), diagonal_algebra(4), scalar_algebra(3))]
    for blocks in (((2, 2), (1, 3), (3, 1)), ((2, 1), (2, 1), (1, 2))):
        A = random_block_star_algebra(rng, blocks)
        cases.append((A, wedderburn(A, CFG)))
    blocks = ((1, 2), (2, 1), (1, 1), (2, 1), (1, 2))
    U = haar_unitary(rng, 9)
    cases.append((block_algebra(blocks, U), BlockStructure(9, U, blocks)))
    return cases


def kron_block_matrices(blocks, per_block):
    """Reference: (R, n, n) direct sums of u (x) I_m from per-block (R, s, s) stacks."""
    return np.stack(
        [block_diag(*[np.kron(u[r], np.eye(m)) for u, (_, m) in zip(per_block, blocks)])
         for r in range(len(per_block[0]))]
    )


class TestBlockStructureMethods:
    @pytest.mark.parametrize("case", range(6))
    def test_direction_matrices_span_the_hermitian_part_modulo_identity(self, case):
        A, st = structure_cases()[case]
        n, W = st.ambient_dim, st.unitary
        D = st.direction_matrices
        assert D.shape == (st.algebra_dim - 1, n, n)
        assert np.array_equal(D, D.conj().transpose(0, 2, 1))
        assert (A.space.residuals(W @ D @ W.conj().T) <= 1e-10).all()
        cuts = np.cumsum([s * m for s, m in st.blocks])[:-1]
        for Dk in D:
            # u (x) I_m on exactly one block, with ||u||_F = 1
            parts = [Dk[sl, sl] for sl in map(slice, np.r_[0, cuts], np.r_[cuts, n])]
            assert np.array_equal(block_diag(*parts), Dk)
            live = [k for k, P in enumerate(parts) if P.any()]
            assert len(live) == 1
            s, m = st.blocks[live[0]]
            u = parts[live[0]].reshape(s, m, s, m)[:, 0, :, 0]
            assert np.array_equal(parts[live[0]], np.kron(u, np.eye(m)))
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-15
        # with I, a real basis of the algebra's Hermitian part
        full = np.concatenate([np.eye(n)[None], D]).reshape(len(D) + 1, -1)
        assert np.linalg.matrix_rank(np.hstack([full.real, full.imag])) == st.algebra_dim

    @pytest.mark.parametrize("case", range(6))
    def test_polar_is_the_best_block_unitary(self, case):
        A, st = structure_cases()[case]
        rng = np.random.default_rng(53 + case)
        n, W = st.ambient_dim, st.unitary
        X = np.stack([random_matrix(rng, n) for _ in range(3)])
        U = st.polar(X)
        assert np.abs(U @ U.conj().transpose(0, 2, 1) - np.eye(n)).max() <= 1e-12
        assert A.space.residuals(W @ U @ W.conj().T).max() <= 1e-10
        V = kron_block_matrices(st.blocks, [haar_unitaries(rng, s, 200) for s, _ in st.blocks])
        for x, u in zip(X, U):
            best = np.real(np.trace(u @ x))
            others = np.real(np.einsum("rij,ji->r", V, x))
            assert (others <= best + 1e-12 * np.linalg.norm(x)).all()

    @pytest.mark.parametrize("case", range(6))
    def test_expi_matches_a_per_block_eigh_reference(self, case):
        A, st = structure_cases()[case]
        rng = np.random.default_rng(59 + case)
        n = st.ambient_dim
        h = [np.stack([random_hermitian(rng, s) for _ in range(3)]) for s, _ in st.blocks]
        ref = []
        for hk in h:
            vals, vecs = np.linalg.eigh(hk)
            ref.append((vecs * np.exp(1j * vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1))
        E = st.expi(kron_block_matrices(st.blocks, h))
        assert np.abs(E @ E.conj().transpose(0, 2, 1) - np.eye(n)).max() <= 1e-12
        assert np.abs(E - kron_block_matrices(st.blocks, ref)).max() <= 1e-12


# ---------------------------------------------------------------------------
# the block layout against the constructions it replaced

ORACLE_BLOCKS = [((2, 2), (2, 1), (1, 3), (1, 1)), ((3, 1),), ((1, 1),) * 4, ((2, 3), (1, 2))]


def matrix_unit(i, j, n):
    E = np.zeros((n, n), dtype=np.complex128)
    E[i, j] = 1.0
    return E


def kron_block_algebra_basis(blocks, unitary=None):
    """Reference: E_ab (x) I_m / sqrt(m) placed block by block with np.kron."""
    n = sum(s * m for s, m in blocks)
    U = np.eye(n, dtype=np.complex128) if unitary is None else unitary
    basis, at = [], 0
    for s, m in blocks:
        for a in range(s):
            for b in range(s):
                full = np.zeros((n, n), dtype=np.complex128)
                full[at : at + s * m, at : at + s * m] = np.kron(
                    matrix_unit(a, b, s), np.eye(m)
                ) / np.sqrt(m)
                basis.append(U @ full @ U.conj().T)
        at += s * m
    return np.stack(basis)


def einsum_multiplicity_average(blocks, X):
    """Reference: per diagonal block, (trace over the m factor) / m (x) I_m."""
    out = np.zeros_like(X)
    at = 0
    for s, m in blocks:
        sl = slice(at, at + s * m)
        ptr = np.einsum("ajbj->ab", X[sl, sl].reshape(s, m, s, m)) / m
        out[sl, sl] = np.kron(ptr, np.eye(m))
        at += s * m
    return out


class TestBlockLayout:
    def test_index_convention(self):
        first, second = block_layout(((2, 2), (1, 1)))
        assert first.shape == (2, 2, 2) and second.shape == (1, 1, 1)
        for a, b, j in np.ndindex(2, 2, 2):
            assert first[a, b, j] == (2 * a + j) * 5 + (2 * b + j)
        assert second[0, 0, 0] == 4 * 5 + 4

    def test_stock_algebras_are_matrix_units(self):
        for n in (1, 2, 3, 7, 12):
            full = [matrix_unit(i, j, n) for i in range(n) for j in range(n)]
            diag = [matrix_unit(i, i, n) for i in range(n)]
            scalars = [np.eye(n, dtype=np.complex128) / np.sqrt(n)]
            for A, ref in (
                (full_matrix_algebra(n), full),
                (diagonal_algebra(n), diag),
                (scalar_algebra(n), scalars),
            ):
                assert np.array_equal(np.stack(A.basis), np.stack(ref))

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_block_algebra_matches_kron_construction(self, conjugated):
        rng = np.random.default_rng(47)
        for blocks in ORACLE_BLOCKS:
            n = sum(s * m for s, m in blocks)
            U = haar_unitary(rng, n) if conjugated else None
            got = np.stack(block_algebra(blocks, U).basis)
            assert np.array_equal(got, kron_block_algebra_basis(blocks, U))

    def test_multiplicity_average_matches_einsum_reference(self):
        rng = np.random.default_rng(48)
        for blocks in ORACLE_BLOCKS:
            n = sum(s * m for s, m in blocks)
            st = BlockStructure(n, np.eye(n), blocks)
            X = np.stack([random_matrix(rng, n) for _ in range(3)])
            ref = np.stack([einsum_multiplicity_average(blocks, Z) for Z in X])
            assert np.array_equal(st.average(X), ref)

    def test_assembled_matrix_units_are_the_block_algebra_basis(self):
        # both readers of the one table: the structure's assembly and
        # block_algebra's basis E_ab (x) I_m / sqrt(m)
        for blocks in ORACLE_BLOCKS:
            n = sum(s * m for s, m in blocks)
            st = BlockStructure(n, np.eye(n), blocks)
            basis = block_algebra(blocks).basis
            at = 0
            for k, (s, m) in enumerate(blocks):
                units = np.eye(s * s).reshape(s * s, s, s)
                per_block = [
                    units if i == k else np.zeros((s * s, t, t)) for i, (t, _) in enumerate(blocks)
                ]
                got = st.assemble(st.group(per_block)) / np.sqrt(m)
                assert np.array_equal(got, basis[at : at + s * s])
                at += s * s

    def test_structure_check_reads_the_layout(self):
        rng = np.random.default_rng(49)
        blocks = ((2, 2), (1, 1))
        U = haar_unitary(rng, 5)
        _check_structure(block_algebra(blocks, U), BlockStructure(5, U, blocks), CFG)
        # M_2 + M_1 has entries off the diagonal of three 1 x 1 blocks
        with pytest.raises(StructureError):
            _check_structure(
                block_algebra(((2, 1), (1, 1))), BlockStructure(3, np.eye(3), ((1, 1),) * 3), CFG
            )
        # the masa of M_2 is not constant over one block's two copies
        with pytest.raises(StructureError):
            _check_structure(diagonal_algebra(2), BlockStructure(2, np.eye(2), ((1, 2),)), CFG)
