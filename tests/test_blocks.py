import numpy as np
import pytest

from commutant import algebra as algebra_module
from commutant import blocks as blocks_module
from commutant.algebra import (
    block_layout,
    diagonal_algebra,
    full_matrix_algebra,
    generate_algebra,
    hs_conditional_expectation,
    relative_commutant,
    scalar_algebra,
)
from commutant.blocks import (
    BlockStructure,
    _check_structure,
    block_algebra,
    block_average,
    minimal_central_projections,
    representative_unitary,
    structure_algebra,
    twirl_expectation,
    wedderburn,
)
from commutant.cli import main
from commutant.config import InvalidInputError, NumericConfig, StructureError
from commutant.linalg import (
    haar_unitaries,
    haar_unitary,
    op_norm,
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


def assert_recovers(A, blocks):
    st = wedderburn(A, CFG)
    assert sorted(st.blocks) == sorted(blocks)
    assert list(st.blocks) == sorted(blocks, key=lambda b: (-b[0], -b[1]))
    _check_structure(A, st, CFG)
    # conjugated basis elements must be exactly block form: rebuild and compare
    assert subspace_equal(structure_algebra(st).space, A.space, CFG)


class TestCentralProjections:
    def test_full_matrix_algebra_has_identity_only(self):
        projs = minimal_central_projections(full_matrix_algebra(4), CFG)
        assert len(projs) == 1
        np.testing.assert_allclose(projs[0], np.eye(4))

    def test_masa_gives_rank_one_projections(self):
        projs = minimal_central_projections(diagonal_algebra(3), CFG)
        assert len(projs) == 3
        total = sum(projs)
        np.testing.assert_allclose(total, np.eye(3), atol=1e-10)
        for P in projs:
            np.testing.assert_allclose(P @ P, P, atol=1e-10)
            assert np.linalg.matrix_rank(P) == 1

    def test_partition_of_identity_on_random_block_algebras(self):
        rng = np.random.default_rng(40)
        for blocks in [((2, 1), (1, 2)), ((2, 2),), ((1, 1), (1, 1), (2, 1))]:
            A = random_block_star_algebra(rng, blocks)
            projs = minimal_central_projections(A, CFG)
            assert len(projs) == len(blocks)
            np.testing.assert_allclose(sum(projs), np.eye(A.ambient_dim), atol=1e-8)
            ranks = sorted(int(round(np.real(np.trace(P)))) for P in projs)
            assert ranks == sorted(s * m for s, m in blocks)


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
        for module, name in ((algebra_module, "relative_commutant"), (algebra_module, "center"),
                             (blocks_module, "relative_commutant")):
            def counted(*args, _solve=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
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
        for blocks in [((2, 1), (1, 2)), ((2, 2),), ((1, 1), (1, 2))]:
            A = random_block_star_algebra(rng, blocks)
            n = A.ambient_dim
            T = random_matrix(rng, n)
            E1 = twirl_expectation(T, A, CFG)
            from commutant.algebra import double_commutant

            D = double_commutant(A, full_matrix_algebra(n), CFG)
            E2 = hs_conditional_expectation(T, D, CFG)
            np.testing.assert_allclose(E1, E2, atol=1e-8)

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


def einsum_block_average(st, T):
    """Reference twirl: per diagonal block, I_s (x) (trace over the s factor) / s."""
    U = st.unitary
    Tt = U.conj().T @ T @ U
    out = np.zeros_like(Tt)
    at = 0
    for s, m in st.blocks:
        sl = slice(at, at + s * m)
        ptr = np.einsum("ajal->jl", Tt[sl, sl].reshape(s, m, s, m)) / s
        out[sl, sl] = np.kron(np.eye(s), ptr)
        at += s * m
    return U @ out @ U.conj().T


class TestBlockLayout:
    def test_index_convention(self):
        first, second = block_layout(((2, 2), (1, 1)))
        assert first.shape == (2, 2, 2, 2) and second.shape == (1, 1, 1, 1)
        for a, b, j, l in np.ndindex(2, 2, 2, 2):
            assert first[a, b, j, l] == (2 * a + j) * 5 + (2 * b + l)
        assert second[0, 0, 0, 0] == 4 * 5 + 4

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

    def test_block_average_matches_einsum_reference(self):
        rng = np.random.default_rng(48)
        for blocks in ORACLE_BLOCKS:
            n = sum(s * m for s, m in blocks)
            st = BlockStructure(n, haar_unitary(rng, n), blocks)
            T = random_matrix(rng, n)
            assert np.array_equal(block_average(st, T), einsum_block_average(st, T))

    def test_scatter_is_built_once(self):
        st = BlockStructure(3, np.eye(3), ((1, 2), (1, 1)))
        assert st.scatter is st.scatter

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
